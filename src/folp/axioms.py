"""Axiom schemes and constant specifications.

The first order axiomatization is fixed as the Hilbert system
P1-P3 / Q1-Q4; the justification schemes are contraction, expansion,
the two sum axioms, application (jK), reflection (jT), proof checker
(j4), and generalization.  ``match_axiom`` decides scheme instancehood
syntactically, honoring all side conditions.

Each scheme is written once, in ``_TEMPLATES``, as a formula in folp's
concrete syntax, parsed at import; Q4 has two templates.  Every leaf and
binder of a template is a metavariable: a predicate letter ``A``-``D``
stands for any formula, a proof variable ``s`` or ``t`` for any term, a
window ``[w]`` or ``[v]`` for any window, and the variable a quantifier
or ``gen`` binds for any variable.  ``_bind`` walks a template and a
formula together, binding each metavariable where it first occurs and
requiring ``==`` where it recurs.  What a shape cannot say is a side
condition, in code, on the bindings: the unquantified side is the
quantified body with a substitutable ``y`` for ``x`` (Q1, Q4's first
form); ``x`` is not free in ``A`` (Q3) or in ``B`` (Q4's second form); window ``w`` is ``v`` plus one atom
(CTR, EXP), which does not occur in ``A`` (CTR); ``x`` is not in ``w``
(GEN).
"""

from __future__ import annotations

from .parser import parse_formula
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
    Pred,
    Sum,
    TermVar,
    _node,
    atoms_of,
    free_vars,
    occurs,
    substitute,
    var,
    variable_variant,
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


def _added(m: dict) -> set:
    """``{y}`` if window ``w`` is window ``v`` plus the atom ``y``, else empty."""
    more = set(m["w"]).difference(m["v"])
    return more if len(more) == 1 == len(m["w"]) - len(m["v"]) else set()


# (scheme, template, side condition on the bindings), in matching order.
_TEMPLATES = tuple((scheme, parse_formula(text), side) for scheme, text, side in (
    ("P1", "A -> B -> A", None),
    ("P2", "(A -> B -> C) -> (A -> B) -> A -> C", None),
    ("P3", "(~A -> ~B) -> B -> A", None),
    ("Q1", "forall x. A -> B", lambda m: _matches_instantiation(m["A"], m["x"], m["B"])),
    ("Q2", "forall x. (A -> B) -> forall x. A -> forall x. B", None),
    ("Q3", "A -> forall x. A", lambda m: m["x"] not in free_vars(m["A"])),
    ("Q4", "A -> exists x. B", lambda m: _matches_instantiation(m["B"], m["x"], m["A"])),
    ("Q4", "forall x. (A -> B) -> exists x. A -> B", lambda m: m["x"] not in free_vars(m["B"])),
    ("CTR", "t :[w] A -> t :[v] A", lambda m: any(not occurs(y, m["A"]) for y in _added(m))),
    ("EXP", "t :[v] A -> t :[w] A", lambda m: bool(_added(m))),
    ("SUM1", "s :[w] A -> (s + t) :[w] A", None),
    ("SUM2", "t :[w] A -> (s + t) :[w] A", None),
    ("JK", "s :[w] (A -> B) -> t :[w] A -> (s * t) :[w] B", None),
    ("JT", "t :[w] A -> A", None),
    ("J4", "t :[w] A -> !t :[w] t :[w] A", None),
    ("GEN", "t :[w] A -> gen<x>(t) :[w] forall x. A", lambda m: var(m["x"]) not in m["w"]),
))

SCHEMES = tuple(dict.fromkeys(scheme for scheme, _, _ in _TEMPLATES))


def _bind(template: Formula, f: Formula) -> dict | None:
    """The metavariables of ``template`` bound so that it reads ``f``, or
    None if ``f`` does not have its shape."""
    m: dict = {}
    stack = [(template, f)]
    while stack:
        p, g = stack.pop()
        cls = type(p)
        if cls is Pred or cls is TermVar:
            key, value = p.name, g
        elif cls is not type(g):
            return None
        elif cls is Impl or cls is Sum or cls is App:
            stack += ((p.right, g.right), (p.left, g.left))
            continue
        elif cls is Neg or cls is Bang:
            stack.append((p.body, g.body) if cls is Neg else (p.inner, g.inner))
            continue
        elif cls is Assert:
            stack += ((p.body, g.body), (p.term, g.term))
            key, value = p.window[0].name, g.window
        else:  # Forall, Exists, Gen
            stack.append((p.inner, g.inner) if cls is Gen else (p.body, g.body))
            key, value = p.bound, g.bound
        if m.setdefault(key, value) != value:
            return None
    return m


def _first_match(f: Formula, templates) -> str | None:
    """The scheme of the first of ``templates`` that ``f`` instantiates."""
    for scheme, template, side in templates:
        m = _bind(template, f)
        if m is not None and (side is None or side(m)):
            return scheme
    return None


def match_scheme(scheme: str, f: Formula) -> bool:
    """True iff ``f`` is an instance of the named scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _first_match(f, [x for x in _TEMPLATES if x[0] == scheme]) is not None


# Every template is an implication.  Those an implication can match, by
# the classes of its sides: a metavariable side takes any class.
_FORMULA_CLASSES = (Pred, Neg, Impl, Forall, Exists, Assert)
_BY_SIDES = {
    (left, right): [x for x in _TEMPLATES
                    if type(x[1].left) in (Pred, left) and type(x[1].right) in (Pred, right)]
    for left in _FORMULA_CLASSES for right in _FORMULA_CLASSES
}


def match_axiom(f: Formula) -> str | None:
    """First scheme (in the fixed order) of which ``f`` is an instance."""
    if type(f) is not Impl:
        return None
    return _first_match(f, _BY_SIDES[type(f.left), type(f.right)])


# ---------------------------------------------------------------------------
# Constant specifications


class CsError(Exception):
    """A constant specification entry is malformed."""


class ConstantSpecification(metaclass=_node, frozen=True):
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
    if cs.concrete and not cs.schematic:
        return [
            f"{s} (concrete entries cannot cover infinitely many instances)"
            for s in SCHEMES
        ]
    covered = {scheme for _, scheme in cs.schematic}
    return [s for s in SCHEMES if s not in covered]


def cs_axiomatically_appropriate(cs: ConstantSpecification) -> bool:
    """True when totality or schematic coverage of all schemes guarantees
    that every axiom instance has a justifying constant.

    A concrete-only specification always reports False: finitely many
    entries cannot cover the infinitely many instances.
    """
    return not cs_appropriateness_gaps(cs)
