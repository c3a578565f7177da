"""Independent verification of serialized tableau proofs.

The checker re-derives every node's conclusion from the claimed rule
instance and the ancestor premises; it never trusts a serialized
conclusion.  Closure marks must name their witnesses and are
re-verified locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .axioms import ConstantSpecification
from .syntax import (
    Formula,
    Neg,
    elem_set,
    free_vars,
)
from .tableau import (
    BRANCHING_RULES,
    Branch,
    Contradiction,
    CsClosure,
    ProofNode,
    ProofTree,
    RuleError,
    apply_rule,
    cs_closing_constant,
)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    node_id: Optional[int] = None
    condition: Optional[str] = None
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "node_id": self.node_id,
            "condition": self.condition,
            "message": self.message,
        }

    def __str__(self) -> str:
        if self.accepted:
            return "accept"
        where = f" at node {self.node_id}" if self.node_id is not None else ""
        return f"reject{where}: {self.condition}: {self.message}"


ACCEPT = Verdict(True, message="proof accepted")


class _Reject(Exception):
    def __init__(self, verdict: Verdict):
        super().__init__(str(verdict))
        self.verdict = verdict


def _reject(node_id: Optional[int], condition: str, message: str) -> None:
    raise _Reject(Verdict(False, node_id, condition, message))


def _check_label(node: ProofNode) -> None:
    if free_vars(node.formula):
        _reject(
            node.id,
            "structural:open-formula",
            f"label has free individual variables: {node.formula}",
        )
    if elem_set(node.formula):
        _reject(
            node.id,
            "structural:domain-element",
            f"label contains domain elements: {node.formula}",
        )


def _check_closure(leaf: ProofNode, branch: Branch, cs: ConstantSpecification) -> None:
    mark = leaf.closure
    if mark is None:
        _reject(leaf.id, "open-leaf", "leaf carries no closure mark")
    if isinstance(mark, Contradiction):
        if mark.node_id != leaf.id:
            _reject(leaf.id, "closure-witness", "contradiction mark must cite the leaf")
        other = branch.get(mark.with_id)
        if other is None:
            _reject(
                leaf.id,
                "closure-witness",
                f"cited node {mark.with_id} is not on the branch",
            )
        f = leaf.formula
        if f != Neg(other) and Neg(f) != other:
            _reject(
                leaf.id,
                "closure-contradiction",
                f"{f} and {other} are not contradictory",
            )
    elif isinstance(mark, CsClosure):
        if cs_closing_constant(leaf.formula, cs) != mark.constant:
            _reject(
                leaf.id,
                "closure-cs",
                f"{leaf.formula} is not ~{mark.constant} : A with "
                f"{mark.constant} : A in the constant specification",
            )
    else:
        _reject(leaf.id, "closure-kind", f"unknown closure mark {mark!r}")


def _check_rule_node(
    node: ProofNode,
    sibling_index: int,
    siblings: list[ProofNode],
    branch: Branch,
) -> None:
    """Verify that ``node``'s label is re-derivable from its rule."""
    rule = node.rule
    assert rule is not None
    try:
        extensions = apply_rule(branch, rule)
    except RuleError as exc:
        _reject(node.id, exc.condition, exc.message)
        return
    if rule.name in BRANCHING_RULES:
        if len(siblings) != 2:
            _reject(
                node.id,
                "branching-structure",
                f"{rule.name} must produce two sibling branches",
            )
        other = siblings[1 - sibling_index]
        if other.rule != rule:
            _reject(
                node.id,
                "branching-structure",
                "sibling does not cite the same rule instance",
            )
        expected = extensions[sibling_index][0]
        if node.formula != expected:
            _reject(
                node.id,
                "conclusion-mismatch",
                f"expected {expected}, found {node.formula}",
            )
    else:
        if len(siblings) != 1:
            _reject(
                node.id,
                "branching-structure",
                f"non-branching rule {rule.name} cannot split the branch",
            )
        if node.formula not in extensions[0]:
            _reject(
                node.id,
                "conclusion-mismatch",
                f"{node.formula} is not a conclusion of this {rule.name} instance",
            )


def check_proof(
    tree: ProofTree,
    cs: ConstantSpecification,
    expected_goal: Optional[Formula] = None,
) -> Verdict:
    """Verify a serialized tableau proof against the calculus and ``cs``.

    Accepts iff the roots match the (optional) expected goal, every
    non-root node re-derives from ancestor premises by its claimed rule
    instance, and every leaf carries a valid closure mark.
    """
    try:
        chain = _check_structure(tree, expected_goal)
        _check_tree(chain, cs)
    except _Reject as r:
        return r.verdict
    return ACCEPT


def _check_structure(
    tree: ProofTree, expected_goal: Optional[Formula]
) -> list[ProofNode]:
    """Check ids, arity and the root chain; return the root chain."""
    if not tree.roots:
        _reject(None, "structural:no-roots", "proof has no root formulas")
    if expected_goal is not None and tree.roots != [Neg(expected_goal)]:
        _reject(
            None,
            "goal-mismatch",
            f"roots {[str(r) for r in tree.roots]} do not match the negated goal",
        )
    seen_ids: set[int] = set()
    for node in tree.nodes():
        if node.id in seen_ids:
            _reject(node.id, "structural:duplicate-id", f"node id {node.id} reused")
        seen_ids.add(node.id)
        if len(node.children) > 2:
            _reject(node.id, "structural:arity", "nodes have at most two children")
    # The root-marked nodes must form the initial chain, matching roots.
    chain: list[ProofNode] = []
    node = tree.root
    for i, root_formula in enumerate(tree.roots):
        if node is None:
            _reject(None, "structural:roots", "tree shorter than the root list")
        if node.rule is not None:
            _reject(node.id, "structural:roots", "root node carries a rule")
        if node.formula != root_formula:
            _reject(
                node.id,
                "structural:roots",
                f"expected root {root_formula}, found {node.formula}",
            )
        chain.append(node)
        if i < len(tree.roots) - 1:
            if len(node.children) != 1:
                _reject(node.id, "structural:roots", "root chain must not branch")
            node = node.children[0]
    return chain


def _check_tree(chain: list[ProofNode], cs: ConstantSpecification) -> None:
    """Check every node below the root chain, depth first, children in order.

    ``branch`` maps the current node and its ancestors.  An explicit
    stack of ``(node, index of the next child to visit)`` replaces
    recursion, so proof depth is not bounded by the interpreter's stack.
    """
    for node in chain:
        _check_label(node)
    branch = {n.id: n.formula for n in chain}
    stack = [(chain[-1], 0)]
    while stack:
        node, i = stack.pop()
        if i:
            del branch[node.children[i - 1].id]
        elif not node.children:
            _check_closure(node, branch, cs)
            continue
        if i == len(node.children):
            continue
        stack.append((node, i + 1))
        child = node.children[i]
        if child.rule is None:
            _reject(child.id, "structural:roots", "non-root node carries no rule")
        _check_label(child)
        _check_rule_node(child, i, node.children, branch)
        branch[child.id] = child.formula
        stack.append((child, 0))
