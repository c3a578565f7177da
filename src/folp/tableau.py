"""The 15-rule tableau calculus: rule application and branch closure.

A branch maps node ids to formulas in order from the roots to a leaf;
every label is a closed Par-formula.  The caller keeps the map, and rule
application looks premises up in it, returns the extensions (one list of
new formulas per created child branch) and never mutates its inputs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .axioms import ConstantSpecification, cs_contains
from .syntax import (
    App,
    Assert,
    Atom,
    Bang,
    CaptureError,
    Exists,
    Forall,
    Formula,
    Gen,
    Impl,
    Neg,
    PARAM,
    Sum,
    TermConst,
    _node,
    elem_set,
    mkwindow,
    neg,
    par_set,
    substitute,
    substitute_param,
    universal_closure,
    var,
)

RULE_NAMES = (
    "FNeg",
    "TImp",
    "FImp",
    "TForall",
    "FExists",
    "TExists",
    "FForall",
    "TColon",
    "FPlus",
    "FDot",
    "FBang",
    "Ctr",
    "Exp",
    "Ins",
    "GenX",
)

BRANCHING_RULES = ("TImp", "FDot")
FRESH_PARAM_RULES = ("TExists", "FForall")


class RuleError(Exception):
    """A rule instance does not apply; ``condition`` names the violated
    premise shape or side condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition
        self.message = message


class RuleApp(metaclass=_node, frozen=True):
    name: str
    premises: tuple[int, ...]
    param: Optional[Atom] = None
    cut: Optional[Formula] = None
    var: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name not in RULE_NAMES:
            raise ValueError(f"unknown rule {self.name!r}")


# The rules that take each optional field of a rule instance.
_FIELD_RULES = {
    "param": ("TForall", "FExists", "TExists", "FForall", "Ctr", "Exp", "Ins"),
    "cut": ("FDot",),
    "var": ("Ins",),
}


class Contradiction(metaclass=_node, frozen=True):
    """Closure by ``A`` and ``~A`` both on the branch."""

    node_id: int
    with_id: int


class CsClosure(metaclass=_node, frozen=True):
    """Closure by ``~c:A`` on the branch with ``c:A`` in the CS."""

    node_id: int
    constant: str


Closure = Union[Contradiction, CsClosure]

Branch = Mapping[int, Formula]


# Premise shapes by the type of the formula, and of a negation's body.
_SHAPES = {
    Impl: ("TImp",), Forall: ("TForall",), Exists: ("TExists",), Assert: ("TColon",)
}
_NEG_SHAPES = {
    Neg: ("FNeg",), Impl: ("FImp",), Forall: ("FForall",), Exists: ("FExists",)
}


def premise_rules(f: Formula) -> tuple[str, ...]:
    """The rules whose premise shape ``f`` has, in search-queue order.

    This is the calculus's one statement of premise shapes.  Exp, Ins and
    Ctr take any negated assertion ``~t :[X] A``; FBang's premise is
    ``~!t :[X] t :[X] A`` and GenX's ``~gen_x(t) :[X] forall x. A``.
    Side conditions (windows of parameters, freshness, cut formulas) are
    left to :func:`apply_rule`.
    """
    cls = type(f)
    if cls is not Neg:
        return _SHAPES.get(cls, ())
    a = f.body
    cls = type(a)
    if cls is not Assert:
        return _NEG_SHAPES.get(cls, ())
    t, body = a.term, a.body
    if type(t) is Sum:
        return ("FPlus", "Exp", "Ins", "Ctr")
    if type(t) is App:
        return ("Exp", "Ins", "FDot", "Ctr")
    if (
        type(t) is Bang
        and type(body) is Assert
        and body.term == t.inner
        and body.window == a.window
    ):
        return ("FBang", "Exp", "Ins", "Ctr")
    if type(t) is Gen and type(body) is Forall and body.bound == t.bound:
        return ("GenX", "Exp", "Ins", "Ctr")
    return ("Exp", "Ins", "Ctr")


def _require_par_window(a: Assert, rule: str) -> None:
    bad = [w for w in a.window if w.kind != PARAM]
    if bad:
        raise RuleError(
            "window-not-par",
            f"{rule} requires the window to contain parameters only; "
            f"found {', '.join(map(str, bad))}",
        )


def _require_param(rule: RuleApp) -> Atom:
    if rule.param is None or rule.param.kind != PARAM:
        raise RuleError("param-missing", f"{rule.name} requires a parameter")
    return rule.param


def apply_rule(branch: Branch, rule: RuleApp) -> list[list[Formula]]:
    """Compute the child-branch extensions of a rule instance.

    Returns one list per created child branch (two lists for the
    branching rules TImp and FDot, one otherwise).  Raises
    :class:`RuleError` on premise-shape or side-condition violations,
    and on a ``param``, ``cut`` or ``var`` that the rule does not take.
    """
    name = rule.name
    if len(rule.premises) != 1:
        raise RuleError(
            "premise-count", f"{name} takes 1 premise(s), got {len(rule.premises)}"
        )
    p = branch.get(rule.premises[0])
    if p is None:
        raise RuleError(
            "premise-missing", f"node {rule.premises[0]} is not on the branch"
        )
    if name not in premise_rules(p):
        raise RuleError("premise-shape", f"{p} is not a {name} premise")
    # Most instances carry no field: the first test is all they pay.
    if rule.param is not None or rule.cut is not None or rule.var is not None:
        for part, rules in _FIELD_RULES.items():
            if getattr(rule, part) is not None and name not in rules:
                raise RuleError("rule-field", f"{name} takes no {part}")

    if name == "FNeg":
        return [[p.body.body]]
    if name == "TImp":
        return [[neg(p.left)], [p.right]]
    if name == "FImp":
        return [[p.body.left, neg(p.body.right)]]

    if name in ("TForall", "FExists", "TExists", "FForall"):
        u = _require_param(rule)
        fresh = name in FRESH_PARAM_RULES
        if fresh and any(u.name in par_set(f) for f in branch.values()):
            raise RuleError(
                "freshness", f"parameter {u} already occurs on the branch"
            )
        if name in ("TForall", "TExists"):
            return [[substitute(p.body, p.bound, u)]]
        return [[Neg(substitute(p.body.body, p.body.bound, u))]]

    # The justification rules: TColon's premise is t :[X] A, the others'
    # its negation.
    a = p if name == "TColon" else p.body
    _require_par_window(a, name)
    if name == "TColon":
        return [[universal_closure(a.body)]]
    if name == "FPlus":
        return [[
            Neg(Assert(a.term.left, a.window, a.body)),
            Neg(Assert(a.term.right, a.window, a.body)),
        ]]
    if name == "FBang":
        return [[neg(a.body)]]
    if name == "GenX":
        return [[Neg(Assert(a.term.inner, a.window, a.body.body))]]

    if name == "FDot":
        if rule.cut is None:
            raise RuleError("cut-missing", "FDot requires a cut formula")
        window_pars = {w.name for w in a.window}
        if not par_set(rule.cut) <= window_pars:
            raise RuleError(
                "par-subset",
                f"cut formula parameters {sorted(par_set(rule.cut) - window_pars)} "
                f"not contained in the window",
            )
        if elem_set(rule.cut):
            raise RuleError("cut-elems", "cut formula contains domain elements")
        return [
            [Neg(Assert(a.term.left, a.window, Impl(rule.cut, a.body)))],
            [Neg(Assert(a.term.right, a.window, rule.cut))],
        ]

    u = _require_param(rule)
    if name == "Ctr":
        if u in a.window:
            raise RuleError("ctr-param-in-window", f"{u} already in the window")
        return [[Neg(Assert(a.term, mkwindow(a.window + (u,)), a.body))]]
    if name == "Exp":
        if u not in a.window:
            raise RuleError("exp-param-not-in-window", f"{u} is not in the window")
        if u.name in par_set(a.body):
            raise RuleError(
                "exp-side-condition", f"{u} occurs in the asserted formula"
            )
        return [[Neg(Assert(a.term, tuple(w for w in a.window if w != u), a.body))]]
    # Ins
    if rule.var is None:
        raise RuleError("var-missing", "Ins requires an individual variable")
    if u.name not in par_set(a.body):
        raise RuleError(
            "ins-no-param", f"{u} does not occur in the asserted formula"
        )
    try:
        new_body = substitute_param(a.body, u.name, var(rule.var))
    except CaptureError as exc:
        raise RuleError("ins-capture", str(exc)) from None
    return [[Neg(Assert(a.term, a.window, new_body))]]


def cs_closing_constant(f: Formula, cs: ConstantSpecification) -> Optional[str]:
    """The constant ``c`` if ``f`` is ``~c : A`` with an empty window and
    ``c : A`` in the CS, so that ``f`` closes its branch; else ``None``."""
    if (
        isinstance(f, Neg)
        and isinstance(f.body, Assert)
        and isinstance(f.body.term, TermConst)
        and not f.body.window
        and cs_contains(cs, f.body.term.name, f.body.body)
    ):
        return f.body.term.name
    return None


def closure_against(
    new_id: int,
    f: Formula,
    seen: dict[Formula, int],
    negs: dict[Formula, int],
    cs: ConstantSpecification,
) -> Optional[Closure]:
    """Closure mark produced by adding ``f``, if any.

    ``seen`` maps earlier branch formulas to their first node ids, and
    ``negs`` maps each ``g`` to the first node id of ``~g``, so that no
    negation is built to look it up.
    """
    if isinstance(f, Neg) and f.body in seen:
        return Contradiction(new_id, seen[f.body])
    constant = cs_closing_constant(f, cs)
    if constant is not None:
        return CsClosure(new_id, constant)
    if f in negs:
        return Contradiction(new_id, negs[f])
    return None


# ---------------------------------------------------------------------------
# Proof trees


class ProofNode(metaclass=_node):
    """A node of a proof tree: its label, the rule instance that derived
    it (``None`` on a root), the index of its parent in the tree's table
    (``None`` on the first root) and its closure mark if it is a leaf."""

    id: int
    formula: Formula
    rule: Optional[RuleApp]
    parent: Optional[int] = None
    closure: Optional[Closure] = None


class ProofTree(metaclass=_node):
    """The root formulas and one table of the nodes, in depth-first order,
    children in order: each node follows its parent, and a node's
    subtree is the run of nodes after it.  Nothing nests, so ``repr``,
    ``==``, copies and pickling do not recurse through the tree."""

    roots: list[Formula]
    table: list[ProofNode]

    def nodes(self) -> list[ProofNode]:
        return self.table
