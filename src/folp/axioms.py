"""Axiom schemes and constant specifications.

The first order axiomatization is fixed as the Hilbert system
P1-P3 / Q1-Q4; the justification schemes are contraction, expansion,
the two sum axioms, application (jK), reflection (jT), proof checker
(j4), and generalization.  ``match_axiom`` decides scheme instancehood
syntactically, honoring all side conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Sum,
    atoms_of,
    free_vars,
    occurs,
    substitute,
    var,
    variable_variant,
)

SCHEMES = (
    "P1",
    "P2",
    "P3",
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "CTR",
    "EXP",
    "SUM1",
    "SUM2",
    "JK",
    "JT",
    "J4",
    "GEN",
)


def _matches_instantiation(body: Formula, x: str, rhs: Formula) -> bool:
    # Possible witnesses for "rhs = body{x/y}": every atom of rhs, plus
    # the identity substitution (covers x not free in body).
    for a in sorted(atoms_of(rhs) | {var(x)}, key=Atom.sort_key):
        try:
            if substitute(body, x, a) == rhs:
                return True
        except CaptureError:
            continue
    return False


def _match_p1(f: Formula) -> bool:
    return (
        isinstance(f, Impl)
        and isinstance(f.right, Impl)
        and f.right.right == f.left
    )


def _match_p2(f: Formula) -> bool:
    # (A -> (B -> C)) -> ((A -> B) -> (A -> C))
    if not (isinstance(f, Impl) and isinstance(f.left, Impl)):
        return False
    lhs, rhs = f.left, f.right
    if not (isinstance(lhs.right, Impl) and isinstance(rhs, Impl)):
        return False
    if not (isinstance(rhs.left, Impl) and isinstance(rhs.right, Impl)):
        return False
    a, b, c = lhs.left, lhs.right.left, lhs.right.right
    return (
        rhs.left.left == a
        and rhs.left.right == b
        and rhs.right.left == a
        and rhs.right.right == c
    )


def _match_p3(f: Formula) -> bool:
    # (~A -> ~B) -> (B -> A)
    if not (isinstance(f, Impl) and isinstance(f.left, Impl) and isinstance(f.right, Impl)):
        return False
    lhs, rhs = f.left, f.right
    if not (isinstance(lhs.left, Neg) and isinstance(lhs.right, Neg)):
        return False
    return lhs.left.body == rhs.right and lhs.right.body == rhs.left


def _match_q1(f: Formula) -> bool:
    # forall x. A  ->  A{x/y}, y substitutable for x
    if not (isinstance(f, Impl) and isinstance(f.left, Forall)):
        return False
    return _matches_instantiation(f.left.body, f.left.bound, f.right)


def _match_q2(f: Formula) -> bool:
    # forall x. (A -> B)  ->  (forall x. A -> forall x. B)
    if not (isinstance(f, Impl) and isinstance(f.left, Forall)):
        return False
    if not isinstance(f.left.body, Impl):
        return False
    x, a, b = f.left.bound, f.left.body.left, f.left.body.right
    rhs = f.right
    return (
        isinstance(rhs, Impl)
        and rhs.left == Forall(x, a)
        and rhs.right == Forall(x, b)
    )


def _match_q3(f: Formula) -> bool:
    # A -> forall x. A, x not free in A
    return (
        isinstance(f, Impl)
        and isinstance(f.right, Forall)
        and f.right.body == f.left
        and f.right.bound not in free_vars(f.left)
    )


def _match_q4(f: Formula) -> bool:
    if not isinstance(f, Impl):
        return False
    # A{x/y} -> exists x. A
    if isinstance(f.right, Exists) and _matches_instantiation(
        f.right.body, f.right.bound, f.left
    ):
        return True
    # forall x. (A -> B) -> (exists x. A -> B), x not free in B
    if isinstance(f.left, Forall) and isinstance(f.left.body, Impl):
        x, a, b = f.left.bound, f.left.body.left, f.left.body.right
        rhs = f.right
        if (
            isinstance(rhs, Impl)
            and rhs.left == Exists(x, a)
            and rhs.right == b
            and x not in free_vars(b)
        ):
            return True
    return False


def _dest_assert_impl(f: Formula) -> tuple[Assert, Assert] | None:
    if (
        isinstance(f, Impl)
        and isinstance(f.left, Assert)
        and isinstance(f.right, Assert)
    ):
        return f.left, f.right
    return None


def _match_ctr(f: Formula) -> bool:
    # t:[X,y] A -> t:[X] A, y not occurring free in A
    pair = _dest_assert_impl(f)
    if pair is None:
        return False
    lhs, rhs = pair
    if lhs.term != rhs.term or lhs.body != rhs.body:
        return False
    dropped = set(lhs.window) - set(rhs.window)
    if len(dropped) != 1 or not (set(rhs.window) < set(lhs.window)):
        return False
    (y,) = dropped
    return not occurs(y, lhs.body)


def _match_exp(f: Formula) -> bool:
    # t:[X] A -> t:[X,y] A
    pair = _dest_assert_impl(f)
    if pair is None:
        return False
    lhs, rhs = pair
    if lhs.term != rhs.term or lhs.body != rhs.body:
        return False
    added = set(rhs.window) - set(lhs.window)
    return len(added) == 1 and set(lhs.window) < set(rhs.window)


def _match_sum(f: Formula, left_arg: bool) -> bool:
    pair = _dest_assert_impl(f)
    if pair is None:
        return False
    lhs, rhs = pair
    if lhs.window != rhs.window or lhs.body != rhs.body:
        return False
    if not isinstance(rhs.term, Sum):
        return False
    return (rhs.term.left if left_arg else rhs.term.right) == lhs.term


def _match_jk(f: Formula) -> bool:
    # s:[X](A -> B) -> (t:[X] A -> (s*t):[X] B)
    if not (isinstance(f, Impl) and isinstance(f.left, Assert)):
        return False
    lhs = f.left
    if not isinstance(lhs.body, Impl):
        return False
    rhs = f.right
    if not (
        isinstance(rhs, Impl)
        and isinstance(rhs.left, Assert)
        and isinstance(rhs.right, Assert)
    ):
        return False
    s, x, a, b = lhs.term, lhs.window, lhs.body.left, lhs.body.right
    t = rhs.left.term
    return (
        rhs.left.window == x
        and rhs.left.body == a
        and rhs.right.window == x
        and rhs.right.body == b
        and rhs.right.term == App(s, t)
    )


def _match_jt(f: Formula) -> bool:
    return (
        isinstance(f, Impl)
        and isinstance(f.left, Assert)
        and f.left.body == f.right
    )


def _match_j4(f: Formula) -> bool:
    # t:[X] A -> !t:[X] t:[X] A
    pair = _dest_assert_impl(f)
    if pair is None:
        return False
    lhs, rhs = pair
    return (
        rhs.term == Bang(lhs.term)
        and rhs.window == lhs.window
        and rhs.body == lhs
    )


def _match_gen(f: Formula) -> bool:
    # t:[X] A -> gen<x>(t):[X] forall x. A, x not in X
    pair = _dest_assert_impl(f)
    if pair is None:
        return False
    lhs, rhs = pair
    if not (isinstance(rhs.term, Gen) and isinstance(rhs.body, Forall)):
        return False
    x = rhs.term.bound
    if rhs.body.bound != x or rhs.term.inner != lhs.term:
        return False
    if rhs.window != lhs.window or rhs.body.body != lhs.body:
        return False
    return var(x) not in lhs.window


_MATCHERS = {
    "P1": _match_p1,
    "P2": _match_p2,
    "P3": _match_p3,
    "Q1": _match_q1,
    "Q2": _match_q2,
    "Q3": _match_q3,
    "Q4": _match_q4,
    "CTR": _match_ctr,
    "EXP": _match_exp,
    "SUM1": lambda f: _match_sum(f, True),
    "SUM2": lambda f: _match_sum(f, False),
    "JK": _match_jk,
    "JT": _match_jt,
    "J4": _match_j4,
    "GEN": _match_gen,
}


def match_scheme(scheme: str, f: Formula) -> bool:
    """True iff ``f`` is an instance of the named scheme."""
    try:
        return _MATCHERS[scheme](f)
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


def match_axiom(f: Formula) -> str | None:
    """First scheme (in the fixed order) of which ``f`` is an instance."""
    for scheme in SCHEMES:
        if _MATCHERS[scheme](f):
            return scheme
    return None


# ---------------------------------------------------------------------------
# Constant specifications


class CsError(Exception):
    """A constant specification entry is malformed."""


@dataclass(frozen=True)
class ConstantSpecification:
    """Declares which constants justify which axiom instances.

    ``concrete`` pairs constants with specific axiom instances,
    ``schematic`` pairs them with whole schemes; ``total`` means every
    declared constant justifies every axiom instance.
    """

    constants: frozenset[str] = frozenset()
    concrete: tuple[tuple[str, Formula], ...] = ()
    schematic: tuple[tuple[str, str], ...] = ()
    total: bool = False
    variant_closed: bool = False

    def __post_init__(self) -> None:
        for c, f in self.concrete:
            if c not in self.constants:
                raise CsError(f"undeclared constant {c!r} in entry {c} : {f}")
            if match_axiom(f) is None:
                raise CsError(f"entry {c} : {f} is not an axiom instance")
        for c, scheme in self.schematic:
            if c not in self.constants:
                raise CsError(f"undeclared constant {c!r} in schematic entry")
            if scheme not in SCHEMES:
                raise CsError(f"unknown scheme {scheme!r}")


def cs_contains(cs: ConstantSpecification, c: str, f: Formula) -> bool:
    """True iff ``c : f`` belongs to the constant specification."""
    if c not in cs.constants:
        return False
    if cs.total and match_axiom(f) is not None:
        return True
    for const, scheme in cs.schematic:
        if const == c and match_scheme(scheme, f):
            return True
    for const, g in cs.concrete:
        if const != c:
            continue
        if g == f:
            return True
        if cs.variant_closed and variable_variant(g, f):
            return True
    return False


def cs_appropriateness_gaps(cs: ConstantSpecification) -> list[str]:
    """Schemes not covered by any schematic entry (empty iff the CS is
    verifiably axiomatically appropriate)."""
    if cs.total:
        return []
    covered = {scheme for _, scheme in cs.schematic}
    gaps = [s for s in SCHEMES if s not in covered]
    if not gaps and not cs.schematic and not cs.concrete:
        return list(SCHEMES)
    if not gaps:
        return []
    if cs.concrete and not cs.schematic:
        return [
            f"{s} (concrete entries cannot cover infinitely many instances)"
            for s in gaps
        ]
    return gaps


def cs_axiomatically_appropriate(cs: ConstantSpecification) -> bool:
    """True when totality or schematic coverage of all schemes guarantees
    that every axiom instance has a justifying constant.

    A concrete-only specification always reports False: finitely many
    entries cannot cover the infinitely many instances.
    """
    return not cs_appropriateness_gaps(cs)
