"""The 15-rule tableau calculus: rule application and branch closure.

A branch maps node ids to formulas in order from the roots to a leaf;
every label is a closed Par-formula.  The caller keeps the map, and rule
application looks premises up in it, returns the extensions (one list of
new formulas per created child branch) and never mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    elem_set,
    mkwindow,
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


@dataclass(frozen=True)
class RuleApp:
    name: str
    premises: tuple[int, ...]
    param: Optional[Atom] = None
    cut: Optional[Formula] = None
    var: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name not in RULE_NAMES:
            raise ValueError(f"unknown rule {self.name!r}")


@dataclass(frozen=True)
class Contradiction:
    """Closure by ``A`` and ``~A`` both on the branch."""

    node_id: int
    with_id: int


@dataclass(frozen=True)
class CsClosure:
    """Closure by ``~c:A`` on the branch with ``c:A`` in the CS."""

    node_id: int
    constant: str


Closure = Union[Contradiction, CsClosure]

Branch = Mapping[int, Formula]


def _premise(branch: Branch, rule: RuleApp) -> Formula:
    if len(rule.premises) != 1:
        raise RuleError(
            "premise-count",
            f"{rule.name} takes 1 premise(s), got {len(rule.premises)}",
        )
    pid = rule.premises[0]
    if pid not in branch:
        raise RuleError("premise-missing", f"node {pid} is not on the branch")
    return branch[pid]


def _dest_neg_assert(f: Formula, rule: str) -> Assert:
    if not (isinstance(f, Neg) and isinstance(f.body, Assert)):
        raise RuleError(
            "premise-shape", f"{rule} premise must be a negated assertion, got {f}"
        )
    return f.body


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
    :class:`RuleError` on premise-shape or side-condition violations.
    """
    name = rule.name
    p = _premise(branch, rule)

    if name == "FNeg":
        if not (isinstance(p, Neg) and isinstance(p.body, Neg)):
            raise RuleError("premise-shape", f"FNeg premise must be ~~A, got {p}")
        return [[p.body.body]]

    if name == "TImp":
        if not isinstance(p, Impl):
            raise RuleError("premise-shape", f"TImp premise must be A -> B, got {p}")
        return [[Neg(p.left)], [p.right]]

    if name == "FImp":
        if not (isinstance(p, Neg) and isinstance(p.body, Impl)):
            raise RuleError("premise-shape", f"FImp premise must be ~(A -> B), got {p}")
        return [[p.body.left, Neg(p.body.right)]]

    if name in ("TForall", "FExists"):
        u = _require_param(rule)
        if name == "TForall":
            if not isinstance(p, Forall):
                raise RuleError("premise-shape", f"TForall premise must be forall, got {p}")
            return [[substitute(p.body, p.bound, u)]]
        if not (isinstance(p, Neg) and isinstance(p.body, Exists)):
            raise RuleError("premise-shape", f"FExists premise must be ~exists, got {p}")
        return [[Neg(substitute(p.body.body, p.body.bound, u))]]

    if name in ("TExists", "FForall"):
        u = _require_param(rule)
        if any(u.name in par_set(f) for f in branch.values()):
            raise RuleError(
                "freshness", f"parameter {u} already occurs on the branch"
            )
        if name == "TExists":
            if not isinstance(p, Exists):
                raise RuleError("premise-shape", f"TExists premise must be exists, got {p}")
            return [[substitute(p.body, p.bound, u)]]
        if not (isinstance(p, Neg) and isinstance(p.body, Forall)):
            raise RuleError("premise-shape", f"FForall premise must be ~forall, got {p}")
        return [[Neg(substitute(p.body.body, p.body.bound, u))]]

    if name == "TColon":
        if not isinstance(p, Assert):
            raise RuleError("premise-shape", f"TColon premise must be t : A, got {p}")
        _require_par_window(p, "TColon")
        return [[universal_closure(p.body)]]

    if name == "FPlus":
        a = _dest_neg_assert(p, "FPlus")
        if not isinstance(a.term, Sum):
            raise RuleError("premise-shape", f"FPlus premise term must be a sum, got {p}")
        _require_par_window(a, "FPlus")
        return [[
            Neg(Assert(a.term.left, a.window, a.body)),
            Neg(Assert(a.term.right, a.window, a.body)),
        ]]

    if name == "FDot":
        a = _dest_neg_assert(p, "FDot")
        if not isinstance(a.term, App):
            raise RuleError(
                "premise-shape", f"FDot premise term must be an application, got {p}"
            )
        _require_par_window(a, "FDot")
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
        s, t = a.term.left, a.term.right
        return [
            [Neg(Assert(s, a.window, Impl(rule.cut, a.body)))],
            [Neg(Assert(t, a.window, rule.cut))],
        ]

    if name == "FBang":
        a = _dest_neg_assert(p, "FBang")
        if not isinstance(a.term, Bang):
            raise RuleError("premise-shape", f"FBang premise term must be !t, got {p}")
        inner = a.body
        if not isinstance(inner, Assert):
            raise RuleError(
                "premise-shape", f"FBang premise body must itself be an assertion, got {p}"
            )
        if inner.term != a.term.inner:
            raise RuleError(
                "premise-shape", "FBang inner term differs from the checked term"
            )
        if inner.window != a.window:
            raise RuleError(
                "premise-shape", "FBang inner and outer windows differ"
            )
        _require_par_window(a, "FBang")
        return [[Neg(inner)]]

    if name == "Ctr":
        a = _dest_neg_assert(p, "Ctr")
        _require_par_window(a, "Ctr")
        u = _require_param(rule)
        if u in a.window:
            raise RuleError("ctr-param-in-window", f"{u} already in the window")
        return [[Neg(Assert(a.term, mkwindow(a.window + (u,)), a.body))]]

    if name == "Exp":
        a = _dest_neg_assert(p, "Exp")
        _require_par_window(a, "Exp")
        u = _require_param(rule)
        if u not in a.window:
            raise RuleError("exp-param-not-in-window", f"{u} is not in the window")
        if u.name in par_set(a.body):
            raise RuleError(
                "exp-side-condition", f"{u} occurs in the asserted formula"
            )
        return [[Neg(Assert(a.term, tuple(w for w in a.window if w != u), a.body))]]

    if name == "Ins":
        a = _dest_neg_assert(p, "Ins")
        _require_par_window(a, "Ins")
        u = _require_param(rule)
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

    if name == "GenX":
        a = _dest_neg_assert(p, "GenX")
        if not isinstance(a.term, Gen):
            raise RuleError("premise-shape", f"GenX premise term must be gen<x>(t), got {p}")
        if not isinstance(a.body, Forall):
            raise RuleError(
                "premise-shape", f"GenX premise body must be universally quantified, got {p}"
            )
        if a.body.bound != a.term.bound:
            raise RuleError(
                "premise-shape",
                f"GenX generalization variable {a.term.bound} differs from the "
                f"quantified variable {a.body.bound}",
            )
        _require_par_window(a, "GenX")
        return [[Neg(Assert(a.term.inner, a.window, a.body.body))]]

    raise RuleError("unknown-rule", name)


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
    cs: ConstantSpecification,
) -> Optional[Closure]:
    """Closure mark produced by adding ``f``, if any.

    ``seen`` maps earlier branch formulas to their node ids.
    """
    if isinstance(f, Neg) and f.body in seen:
        return Contradiction(new_id, seen[f.body])
    constant = cs_closing_constant(f, cs)
    if constant is not None:
        return CsClosure(new_id, constant)
    if Neg(f) in seen:
        return Contradiction(new_id, seen[Neg(f)])
    return None


def branch_closed(
    branch: Branch, cs: ConstantSpecification
) -> Optional[Closure]:
    """First closure mark on the branch, scanning in branch order."""
    seen: dict[Formula, int] = {}
    for nid, f in branch.items():
        mark = closure_against(nid, f, seen, cs)
        if mark is not None:
            return mark
        seen.setdefault(f, nid)
    return None


# ---------------------------------------------------------------------------
# Proof trees


@dataclass
class ProofNode:
    id: int
    formula: Formula
    rule: Optional[RuleApp]
    children: list["ProofNode"] = field(default_factory=list)
    closure: Optional[Closure] = None


@dataclass
class ProofTree:
    roots: list[Formula]
    root: ProofNode

    def nodes(self) -> list[ProofNode]:
        out: list[ProofNode] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(n.children))
        return out
