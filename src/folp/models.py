"""Finite Mkrtychev models: admissible-evidence validation, truth
evaluation, and bounded countermodel search.

A model is a finite domain, a predicate interpretation, and a finitely
presented evidence function mapping justification terms to sets of
domain formulas.  The closure conditions E1-E6 are written once, in
``_demands``, which yields each formula the conditions require in the
evidence of one term.  ``validate_model`` reports the demands the
presented fragment does not meet; countermodel search closes candidate
evidence under the same demands.  Membership in an evidence set is
structural equality up to renaming of bound variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .axioms import ConstantSpecification
from .syntax import (
    App,
    Assert,
    Bang,
    Exists,
    Forall,
    Formula,
    Gen,
    Impl,
    Neg,
    Pred,
    Sum,
    Term,
    TermConst,
    Window,
    canonical,
    elem,
    elem_set,
    formula_terms,
    free_vars,
    mkwindow,
    par_set,
    predicate_arities,
    subformulas,
    substitute,
    subterms,
    universal_closure,
)


class ModelError(Exception):
    """The model presentation itself is unusable (bad arity, open query)."""


@dataclass
class MkrtychevModel:
    domain: tuple[str, ...]
    interp: dict[str, frozenset[tuple[str, ...]]]
    evidence: dict[Term, tuple[Formula, ...]]

    def canon_evidence(self, t: Term) -> frozenset[Formula]:
        return frozenset(canonical(f) for f in self.evidence.get(t, ()))


@dataclass(frozen=True)
class Violation:
    condition: str  # one of E1..E6
    message: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


def _arity_map(m: MkrtychevModel) -> dict[str, int]:
    arities: dict[str, int] = {}
    for q, rows in m.interp.items():
        for row in rows:
            if arities.setdefault(q, len(row)) != len(row):
                raise ModelError(f"predicate {q} interpreted at mixed arities")
    for formulas in m.evidence.values():
        for f in formulas:
            for q, used in predicate_arities(f).items():
                if q not in m.interp:
                    raise ModelError(
                        f"evidence references undeclared predicate {q}"
                    )
                for k in used:
                    if arities.setdefault(q, k) != k:
                        raise ModelError(
                            f"predicate {q} used at arity {k}, "
                            f"expected {arities[q]}"
                        )
    return arities


def _windows(f: Formula, domain: tuple[str, ...]) -> Iterator[Window]:
    """The windows E4 demands for ``f``: its own elements plus any subset
    of the rest of the domain."""
    base = sorted(elem_set(f))
    rest = [d for d in domain if d not in base]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            yield mkwindow(elem(d) for d in [*base, *extra])


def _instances(f: Formula, domain: tuple[str, ...]) -> Iterator[Formula]:
    """The instances E6 demands for ``f``: one free variable replaced by
    one domain element."""
    for x in sorted(free_vars(f)):
        for d in domain:
            yield substitute(f, x, elem(d))


# Evidence keyed by canonical form: term -> {canonical(f): f}.
Evidence = dict[Term, dict[Formula, Formula]]


def _demands(
    t: Term, ev: Evidence, domain: tuple[str, ...], cs: ConstantSpecification
) -> Iterator[tuple[str, Formula, Optional[Term], Formula]]:
    """Yield each formula that E1-E6 require in ``evidence(t)``.

    Items are ``(condition, formula, source, source formula)``: the source
    formula lies in ``evidence(source)``, or is the CS entry ``c : A``
    when the source is ``None`` (E1).  E2-E5 read only proper subterms
    of ``t``; E6 reads ``evidence(t)`` itself.
    """
    if isinstance(t, TermConst):
        for c, a in cs.concrete:
            if c == t.name:
                yield "E1", a, None, Assert(t, (), a)
    elif isinstance(t, App):
        for f in ev.get(t.left, {}).values():
            if isinstance(f, Impl) and canonical(f.left) in ev.get(t.right, {}):
                yield "E2", f.right, t.left, f
    elif isinstance(t, Sum):
        for part in (t.left, t.right):
            for f in ev.get(part, {}).values():
                yield "E3", f, part, f
    elif isinstance(t, Bang):
        for f in ev.get(t.inner, {}).values():
            for window in _windows(f, domain):
                yield "E4", Assert(t.inner, window, f), t.inner, f
    elif isinstance(t, Gen):
        for f in ev.get(t.inner, {}).values():
            yield "E5", Forall(t.bound, f), t.inner, f
    for f in tuple(ev.get(t, {}).values()):
        for inst in _instances(f, domain):
            yield "E6", inst, t, f


def validate_model(
    m: MkrtychevModel, cs: ConstantSpecification
) -> list[Violation]:
    """Report every formula E1-E6 demand that the presented evidence lacks.

    E1 is checked for concrete CS entries only; schematic and total
    specifications have infinitely many instances and are out of reach
    of a finite check.  E2-E6 are checked for every term present in the
    evidence map.
    """
    if not m.domain:
        raise ModelError("domain must be non-empty")
    _arity_map(m)
    ev = {t: {canonical(f): f for f in fs} for t, fs in m.evidence.items()}
    terms = dict.fromkeys([*m.evidence, *(TermConst(c) for c, _ in cs.concrete)])
    return [
        Violation(
            cond,
            f"{f} not in evidence({t}), demanded by {source_f} in "
            + ("the CS" if source is None else f"evidence({source})"),
        )
        for t in terms
        for cond, f, source, source_f in _demands(t, ev, m.domain, cs)
        if canonical(f) not in ev.get(t, {})
    ]


def satisfies(m: MkrtychevModel, f: Formula) -> bool:
    """Truth of a closed domain formula in ``m``.

    An assertion is true iff its body belongs to the term's evidence and
    the body's universal closure holds over the domain.
    """
    if free_vars(f) or par_set(f):
        raise ModelError(f"satisfaction is defined for closed domain formulas: {f}")
    return _eval(m, f)


def _eval(m: MkrtychevModel, f: Formula) -> bool:
    if isinstance(f, Pred):
        row = tuple(a.name for a in f.args)
        return row in m.interp.get(f.name, frozenset())
    if isinstance(f, Neg):
        return not _eval(m, f.body)
    if isinstance(f, Impl):
        return (not _eval(m, f.left)) or _eval(m, f.right)
    if isinstance(f, Forall):
        return all(
            _eval(m, substitute(f.body, f.bound, elem(d))) for d in m.domain
        )
    if isinstance(f, Exists):
        return any(
            _eval(m, substitute(f.body, f.bound, elem(d))) for d in m.domain
        )
    if isinstance(f, Assert):
        if canonical(f.body) not in m.canon_evidence(f.term):
            return False
        return _eval(m, universal_closure(f.body))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Bounded countermodel search


@dataclass
class CountermodelSearch:
    model: Optional[MkrtychevModel]
    status: str  # "found", "absent", or "exhausted"
    models_checked: int = 0


_DOMAIN_NAMES = "abcdefgh"
_POOL_CAP = 8


def _instantiation_closure(
    bodies: Iterable[Formula], domain: tuple[str, ...]
) -> list[Formula]:
    """Close a formula pool under the instances E6 demands."""
    pool: dict[Formula, Formula] = {}
    work = list(bodies)
    while work:
        f = work.pop()
        key = canonical(f)
        if key in pool:
            continue
        pool[key] = f
        if len(pool) > _POOL_CAP:
            raise _PoolOverflow()
        work.extend(_instances(f, domain))
    return sorted(pool.values(), key=lambda g: str(g))


class _PoolOverflow(Exception):
    pass


def _close_evidence(
    ev: Evidence,
    terms: list[Term],
    domain: tuple[str, ...],
    cs: ConstantSpecification,
) -> None:
    """Mutate ``ev`` to the least fixpoint of E1-E6 over ``terms``.

    ``terms`` lists every term after its proper subterms, so one pass
    suffices: E2-E5 read only proper subterms, which are already
    saturated, and each E6 instance has one free variable fewer than its
    source, so saturating a single term ends.
    """
    for t in terms:
        bucket = ev.setdefault(t, {})
        grew = True
        while grew:
            grew = False
            for _, f, _, _ in _demands(t, ev, domain, cs):
                key = canonical(f)
                if key not in bucket:
                    bucket[key] = f
                    grew = True


def find_countermodel(
    goal: Formula,
    cs: ConstantSpecification,
    max_domain: int = 2,
    max_models: int = 200_000,
) -> CountermodelSearch:
    """Enumerate small models looking for one that falsifies ``goal``.

    Evidence sets are drawn from the goal's assertion bodies (and CS
    bodies), instantiated over the domain, assigned to every term and
    closed under E1-E6 in one subterms-first pass, so every candidate is
    admissible by construction.  Only a candidate that falsifies the goal
    is passed to ``validate_model``, so a returned model is always valid.
    Absence proves nothing; hitting ``max_models`` or a formula pool of
    more than 8 formulas is reported as exhaustion, distinct from absence.
    """
    if free_vars(goal) or par_set(goal) or elem_set(goal):
        raise ModelError(f"countermodel goals must be sentences: {goal}")

    arities: dict[str, int] = {}
    for q, used in predicate_arities(goal).items():
        arities[q] = min(used)
    for _, a in cs.concrete:
        for q, used in predicate_arities(a).items():
            arities.setdefault(q, min(used))

    terms: set[Term] = set(formula_terms(goal))
    for c, _ in cs.concrete:
        terms.add(TermConst(c))
    for t in list(terms):
        terms.update(subterms(t))
    term_list = sorted(terms, key=str)
    closure_order = sorted(term_list, key=lambda t: sum(1 for _ in subterms(t)))

    bodies = [f.body for f in subformulas(goal) if isinstance(f, Assert)]
    bodies += [a for _, a in cs.concrete]

    checked = 0
    for n in range(1, max_domain + 1):
        domain = tuple(_DOMAIN_NAMES[:n])
        try:
            pool = _instantiation_closure(bodies, domain)
        except _PoolOverflow:
            return CountermodelSearch(None, "exhausted", checked)

        pred_tuples = {
            q: list(itertools.product(domain, repeat=k)) for q, k in arities.items()
        }
        pred_names = sorted(arities)
        interp_choices = [
            list(_subsets(pred_tuples[q])) for q in pred_names
        ]
        # Subsets are assigned to every term, compound terms included:
        # some countermodels need evidence on a compound term that the
        # minimal closure of its parts would not provide.
        ev_choices = [list(_subsets(pool)) for _ in term_list]

        for interp_rows in itertools.product(*interp_choices):
            interp = {
                q: frozenset(rows) for q, rows in zip(pred_names, interp_rows)
            }
            for assignment in itertools.product(*ev_choices):
                checked += 1
                if checked > max_models:
                    return CountermodelSearch(None, "exhausted", checked)
                ev: Evidence = {
                    t: {canonical(f): f for f in fs}
                    for t, fs in zip(term_list, assignment)
                }
                _close_evidence(ev, closure_order, domain, cs)
                model = MkrtychevModel(
                    domain=domain,
                    interp=interp,
                    evidence={
                        t: tuple(sorted(ev[t].values(), key=str))
                        for t in term_list
                    },
                )
                if not satisfies(model, goal) and not validate_model(model, cs):
                    return CountermodelSearch(model, "found", checked)
    return CountermodelSearch(None, "absent", checked)


def _subsets(items: list) -> Iterable[tuple]:
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)
