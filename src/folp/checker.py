"""Independent verification of serialized tableau proofs.

The checker re-derives every node's conclusion from the claimed rule
instance and the ancestor premises; it never trusts a serialized
conclusion.  Closure marks must name their witnesses and are
re-verified locally.

Each rule object's conclusions are derived once per check, in a table
keyed by the object's identity, and reused at every node that cites it
while its premise is on the branch.  Node ids are unique in the tree,
so a premise id names one formula, and only the premise decides a
rule's result, except for the freshness test of TExists and FForall,
which reads the whole branch; those two are derived at every node.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from .axioms import ConstantSpecification
from .syntax import (
    Formula,
    Neg,
    _facts,
    _node,
    neg,
)
from .tableau import (
    BRANCHING_RULES,
    FRESH_PARAM_RULES,
    Branch,
    Contradiction,
    CsClosure,
    ProofNode,
    ProofTree,
    RuleError,
    apply_rule,
    cs_closing_constant,
)


class Verdict(metaclass=_node, frozen=True):
    accepted: bool
    node_id: Optional[int] = None
    condition: Optional[str] = None
    message: str = ""

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


def _reject(node_id: Optional[int], condition: str, message: str) -> NoReturn:
    raise _Reject(Verdict(False, node_id, condition, message))


def _check_label(node: ProofNode) -> None:
    free, _, elems = _facts(node.formula)
    if free:
        _reject(
            node.id,
            "structural:open-formula",
            f"label has free individual variables: {node.formula}",
        )
    if elems:
        _reject(
            node.id,
            "structural:domain-element",
            f"label contains domain elements: {node.formula}",
        )


def _check_closure(leaf: ProofNode, branch: Branch, cs: ConstantSpecification) -> None:
    mark = leaf.closure
    if mark is None:
        _reject(leaf.id, "open-leaf", "leaf carries no closure mark")
    if not isinstance(mark, (Contradiction, CsClosure)):
        _reject(leaf.id, "closure-kind", f"unknown closure mark {mark!r}")
    if mark.node_id != leaf.id:
        _reject(leaf.id, "closure-witness", "closure mark must cite the leaf")
    if isinstance(mark, CsClosure):
        if cs_closing_constant(leaf.formula, cs) != mark.constant:
            _reject(
                leaf.id,
                "closure-cs",
                f"{leaf.formula} is not ~{mark.constant} : A with "
                f"{mark.constant} : A in the constant specification",
            )
        return
    other = branch.get(mark.with_id)
    if other is None:
        _reject(
            leaf.id,
            "closure-witness",
            f"cited node {mark.with_id} is not on the branch",
        )
    f = leaf.formula
    if not (
        isinstance(f, Neg) and f.body == other
        or isinstance(other, Neg) and other.body == f
    ):
        _reject(
            leaf.id,
            "closure-contradiction",
            f"{f} and {other} are not contradictory",
        )


def _check_rule_node(
    node: ProofNode,
    siblings: list[ProofNode],
    branch: Branch,
    derived: dict[int, list[list[Formula]]],
) -> None:
    """Verify that ``node``'s label, one of ``siblings``, is re-derivable
    from its rule.  ``derived`` maps the identity of each rule object
    derived so far to its extensions."""
    rule = node.rule
    assert rule is not None
    extensions = derived.get(id(rule))
    if extensions is None or rule.premises[0] not in branch:
        try:
            extensions = apply_rule(branch, rule)
        except RuleError as exc:
            _reject(node.id, exc.condition, exc.message)
        if rule.name not in FRESH_PARAM_RULES:
            derived[id(rule)] = extensions
    if rule.name in BRANCHING_RULES:
        if len(siblings) != 2:
            _reject(
                node.id,
                "branching-structure",
                f"{rule.name} must produce two sibling branches",
            )
        sibling_index = 0 if siblings[0] is node else 1
        other = siblings[1 - sibling_index]
        if other.rule is not rule and other.rule != rule:
            _reject(
                node.id,
                "branching-structure",
                "sibling does not cite the same rule instance",
            )
        expected = extensions[sibling_index][0]
        if node.formula is not expected and node.formula != expected:
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
        children = _check_structure(tree, expected_goal)
        _check_tree(tree, children, cs)
    except _Reject as r:
        return r.verdict
    return ACCEPT


def _check_structure(
    tree: ProofTree, expected_goal: Optional[Formula]
) -> list[list[ProofNode]]:
    """Check ids, parents, arity and the root chain; return each node's children."""
    if not tree.roots:
        _reject(None, "structural:no-roots", "proof has no root formulas")
    if expected_goal is not None and tree.roots != [neg(expected_goal)]:
        _reject(
            None,
            "goal-mismatch",
            f"roots {[str(r) for r in tree.roots]} do not match the negated goal",
        )
    table = tree.table
    children: list[list[ProofNode]] = [[] for _ in table]
    seen_ids: set[int] = set()
    for i, node in enumerate(table):
        if node.id in seen_ids:
            _reject(node.id, "structural:duplicate-id", f"node id {node.id} reused")
        seen_ids.add(node.id)
        # Only the first node has no parent, and parents come first, so
        # the table encodes no cycle.
        p = node.parent
        if (p is not None) if i == 0 else (p is None or not 0 <= p < i):
            _reject(node.id, "structural:parent", f"parent {p} is not an earlier node")
        if i:
            children[p].append(node)
            if len(children[p]) > 2:
                _reject(table[p].id, "structural:arity", "nodes have at most two children")
    # The first nodes must form the root chain, matching roots.
    for i, root_formula in enumerate(tree.roots):
        if i == len(table):
            _reject(None, "structural:roots", "tree shorter than the root list")
        node = table[i]
        if node.rule is not None:
            _reject(node.id, "structural:roots", "root node carries a rule")
        if node.formula != root_formula:
            _reject(
                node.id,
                "structural:roots",
                f"expected root {root_formula}, found {node.formula}",
            )
        if i < len(tree.roots) - 1 and len(children[i]) != 1:
            _reject(node.id, "structural:roots", "root chain must not branch")
    return children


def _check_tree(
    tree: ProofTree, children: list[list[ProofNode]], cs: ConstantSpecification
) -> None:
    """Check every node in table order.  ``path`` holds the indexes of
    a node and its ancestors, and ``branch`` maps their ids to their
    labels; a node whose parent is not on the path is out of order."""
    table, roots = tree.table, len(tree.roots)
    branch: dict[int, Formula] = {}
    path: list[int] = []
    derived: dict[int, list[list[Formula]]] = {}
    for i, node in enumerate(table):
        if i >= roots:
            while path[-1] != node.parent:
                del branch[table[path.pop()].id]
                if not path:
                    _reject(node.id, "structural:order",
                            "the parent is not on the branch: the table is not depth first")
            if node.rule is None:
                _reject(node.id, "structural:roots", "non-root node carries no rule")
        _check_label(node)
        if i >= roots:
            _check_rule_node(node, children[node.parent], branch, derived)
        path.append(i)
        branch[node.id] = node.formula
        if not children[i]:
            _check_closure(node, branch, cs)
