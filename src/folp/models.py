"""Finite Mkrtychev models: admissible-evidence validation, truth
evaluation, and countermodel search.

A model is a finite domain, a predicate interpretation, and a finitely
presented evidence function.  Evidence is stored once, as ``Evidence``:
each listed term maps the canonical form of each of its formulas to the
formula as written, so membership up to renaming of bound variables is
one lookup.  A term the model does not list reads the least E1-E6
closure of its subterms' evidence.  The closure conditions E1-E6 are
written once, in ``_demands``, which yields each formula the conditions
require in the evidence of one term.  ``validate_model`` reports the
demands the presented fragment does not meet; countermodel search and
the evidence of unlisted terms close under the same demands.

The closure reads through a ``_Table``, one per model a countermodel
search builds and one per ``validate_model`` or ``satisfies`` call.  It
computes each formula's canonical key once, interned so that equal keys
are one object and a bucket hit stops at the identity test, together
with the instances E6 demands of the formula.

Countermodel search reads a model off the branch the prover stops on,
as the completeness proof does (Smullyan, *First-Order Logic*, 1968;
the evidence as in Mkrtychev, "Models for the logic of proofs", 1997):
the branch's parameters are the domain, its atoms the true rows, and
its assertions seed the evidence, which the E1-E6 closure completes.
"""

from __future__ import annotations

import itertools
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
    _node,
    canonical,
    elem,
    elem_set,
    formula_terms,
    free_vars,
    mkwindow,
    par_set,
    predicate_arities,
    substitute,
    substitute_param,
    subterms,
    universal_closure,
)


class ModelError(Exception):
    """The model presentation itself is unusable (bad arity, open query)."""


# Evidence keyed by canonical form: term -> {canonical(f): f}.
Evidence = dict[Term, dict[Formula, Formula]]


class MkrtychevModel(metaclass=_node):
    domain: tuple[str, ...]
    interp: dict[str, frozenset[tuple[str, ...]]]
    evidence: Evidence


class Violation(metaclass=_node, frozen=True):
    condition: str  # one of E1..E6
    message: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


def _arities(
    m: MkrtychevModel, names: Iterable[str], uses: Iterable[dict[str, set[int]]]
) -> dict[str, int]:
    """The arity ``m`` fixes for each of ``names`` that it declares: that
    of its rows or, with none, of its first use in ``uses``, the
    ``predicate_arities`` of its evidence formulas.  Only these
    predicates are read, and ``uses`` only until each has an arity; rows
    of mixed arities raise ``ModelError``."""
    arities: dict[str, int] = {}
    for q in names:
        for row in m.interp.get(q, ()):
            if arities.setdefault(q, len(row)) != len(row):
                raise ModelError(f"predicate {q} interpreted at mixed arities")
    rowless = {q for q in names if q in m.interp and q not in arities}
    for used_by in uses if rowless else ():
        for q in rowless.intersection(used_by):
            arities[q] = next(iter(used_by[q]))
        rowless.difference_update(used_by)
        if not rowless:
            break
    return arities


def _evidence_uses(m: MkrtychevModel) -> Iterator[dict[str, set[int]]]:
    """The ``predicate_arities`` of each evidence formula of ``m``."""
    return (predicate_arities(f) for bucket in m.evidence.values() for f in bucket.values())


def _windows(f: Formula, domain: tuple[str, ...]) -> Iterator[Window]:
    """The windows E4 demands for ``f``: its own elements plus any subset
    of the rest of the domain."""
    base = sorted(elem_set(f))
    rest = [d for d in domain if d not in base]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            yield mkwindow(elem(d) for d in [*base, *extra])


class _Table:
    """What the closure demands of each formula over one domain,
    computed once (see the module docstring)."""

    def __init__(self, domain: tuple[str, ...]):
        self.domain = domain
        self._facts: dict[Formula, tuple[Formula, tuple[Formula, ...]]] = {}
        self._keys: dict[Formula, Formula] = {}

    def facts(self, f: Formula) -> tuple[Formula, tuple[Formula, ...]]:
        """``f``'s canonical key and its E6 instances: one free variable
        replaced by one domain element."""
        facts = self._facts.get(f)
        if facts is None:
            key = canonical(f)
            facts = self._facts[f] = (
                self._keys.setdefault(key, key),
                tuple(
                    substitute(f, x, elem(d))
                    for x in sorted(free_vars(f))
                    for d in self.domain
                ),
            )
        return facts

    def key(self, f: Formula) -> Formula:
        return self.facts(f)[0]


def _demands(
    t: Term, ev: Evidence, table: _Table, cs: ConstantSpecification
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
            if isinstance(f, Impl) and table.key(f.left) in ev.get(t.right, {}):
                yield "E2", f.right, t.left, f
    elif isinstance(t, Sum):
        for part in (t.left, t.right):
            for f in ev.get(part, {}).values():
                yield "E3", f, part, f
    elif isinstance(t, Bang):
        for f in ev.get(t.inner, {}).values():
            for window in _windows(f, table.domain):
                yield "E4", Assert(t.inner, window, f), t.inner, f
    elif isinstance(t, Gen):
        for f in ev.get(t.inner, {}).values():
            yield "E5", Forall(t.bound, f), t.inner, f
    for f in ev.get(t, {}).values():
        for inst in table.facts(f)[1]:
            yield "E6", inst, t, f


def _add(
    bucket: dict[Formula, Formula], formulas: Iterable[Formula], table: _Table
) -> None:
    """Add ``formulas`` to ``bucket`` under their canonical keys, each
    new one with the instances E6 demands of it."""
    work = list(formulas)
    while work:
        f = work.pop()
        key, instances = table.facts(f)
        if key not in bucket:
            bucket[key] = f
            work.extend(instances)


def _close_evidence(
    ev: Evidence,
    terms: list[Term],
    table: _Table,
    cs: ConstantSpecification,
) -> None:
    """Mutate ``ev`` to the least fixpoint of E1-E6 over ``terms``.

    ``terms`` lists every term after its proper subterms, so one pass
    suffices: E2-E5 read only proper subterms, which are already
    saturated, and ``_add`` closes each term's own evidence under E6,
    which ends because each instance has one free variable fewer than
    its source.
    """
    for t in terms:
        bucket = ev.setdefault(t, {})
        _add(bucket, [f for _, f, _, _ in _demands(t, ev, table, cs)], table)


# The CS an unlisted term's closure reads: none, since every constant
# with a concrete entry must be listed (``validate_model`` checks E1).
_NO_CS = ConstantSpecification()


def _with_unlisted(
    m: MkrtychevModel, terms: Iterable[Term], table: _Table
) -> Evidence:
    """``m.evidence`` plus every subterm of ``terms`` that ``m`` does not
    list, which reads the least E1-E6 closure of its subterms' evidence."""
    unlisted = dict.fromkeys(
        s for t in terms for s in reversed(list(subterms(t))) if s not in m.evidence
    )
    if not unlisted:
        return m.evidence
    ev = dict(m.evidence)
    _close_evidence(ev, list(unlisted), table, _NO_CS)
    return ev


def validate_model(
    m: MkrtychevModel, cs: ConstantSpecification
) -> list[Violation]:
    """Report every formula E1-E6 demand that the presented evidence lacks.

    E1 is checked for concrete CS entries only; schematic and total
    specifications have infinitely many instances and are out of reach
    of a finite check.  E2-E6 are checked for every term present in the
    evidence map; an unlisted proper subterm reads its least closure.
    """
    if not m.domain:
        raise ModelError("domain must be non-empty")
    uses = list(_evidence_uses(m))
    arities = _arities(m, m.interp, uses)
    for used_by in uses:
        for q, used in used_by.items():
            if q not in m.interp:
                raise ModelError(f"evidence references undeclared predicate {q}")
            for k in used:
                if k != arities[q]:
                    raise ModelError(f"predicate {q} used at arity {k}, expected {arities[q]}")
    table = _Table(m.domain)
    ev = _with_unlisted(m, m.evidence, table)
    terms = dict.fromkeys([*m.evidence, *(TermConst(c) for c, _ in cs.concrete)])
    return [
        Violation(
            cond,
            f"{f} not in evidence({t}), demanded by {source_f} in "
            + ("the CS" if source is None else f"evidence({source})"),
        )
        for t in terms
        for cond, f, source, source_f in _demands(t, ev, table, cs)
        if table.key(f) not in ev.get(t, {})
    ]


def satisfies(m: MkrtychevModel, f: Formula) -> bool:
    """Truth of a closed domain formula in ``m``.

    An assertion is true iff its body belongs to the term's evidence and
    the body's universal closure holds over the domain.  A formula outside
    the model's language, one that names an element not in the domain or
    uses a predicate at an arity other than the one the model's rows or
    evidence fix, raises ``ModelError``.  Only the predicates of ``f`` are
    read for this; ``validate_model`` checks the rest of the model.
    """
    if free_vars(f) or par_set(f):
        raise ModelError(f"satisfaction is defined for closed domain formulas: {f}")
    outside = elem_set(f).difference(m.domain)
    if outside:
        raise ModelError(f"element ${min(outside)} is not in the domain: {f}")
    own = predicate_arities(f)
    fixed = _arities(m, own, _evidence_uses(m))
    for q, used in own.items():
        if q in fixed and used != {fixed[q]}:
            k = max(used - {fixed[q]})
            raise ModelError(f"predicate {q} used at arity {k}, expected {fixed[q]}: {f}")
    return _eval(m, f, _Table(m.domain))


def _eval(m: MkrtychevModel, f: Formula, table: _Table) -> bool:
    if isinstance(f, Pred):
        row = tuple(a.name for a in f.args)
        return row in m.interp.get(f.name, frozenset())
    if isinstance(f, Neg):
        return not _eval(m, f.body, table)
    if isinstance(f, Impl):
        return (not _eval(m, f.left, table)) or _eval(m, f.right, table)
    if isinstance(f, Forall):
        return all(
            _eval(m, substitute(f.body, f.bound, elem(d)), table) for d in m.domain
        )
    if isinstance(f, Exists):
        return any(
            _eval(m, substitute(f.body, f.bound, elem(d)), table) for d in m.domain
        )
    if isinstance(f, Assert):
        bucket = m.evidence.get(f.term)
        if bucket is None:
            bucket = _with_unlisted(m, [f.term], table)[f.term]
        if table.key(f.body) not in bucket:
            return False
        return _eval(m, universal_closure(f.body), table)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Countermodel search


class CountermodelSearch(metaclass=_node):
    model: Optional[MkrtychevModel]
    status: str  # "found", "absent", or "exhausted"
    models_checked: int = 0


_DOMAIN_NAMES = "abcdefgh"
# The prover's node budget: at about 10 us per node the default time
# limit never binds, so the outcome does not depend on the host's speed.
_BRANCH_NODES = 2_000


def find_countermodel(
    goal: Formula, cs: ConstantSpecification, max_domain: int = 2
) -> CountermodelSearch:
    """Look for a model of at most ``max_domain`` elements that falsifies
    ``goal``: the Mkrtychev model of the branch ``prove`` stops on, as
    the completeness proof reads one off an open branch.

    ``prove`` runs under ``_BRANCH_NODES`` nodes.  ``Proved`` gives
    ``absent``: by soundness, no model falsifies ``goal``.  On ``Open``
    or ``Exhausted``, each parameter of the branch is an element (one
    element if there are none): one each, in sorted order, if there are
    at most ``max_domain``, and otherwise each way of merging them into
    at most ``max_domain`` elements, in turn (``_merges``).  Each atom
    on the branch is a true row, and each ``t :[X] A`` on it puts ``A``
    into ``evidence(t)``, which is then closed under E1-E6 over every
    term of the goal, the branch and the CS.  The first model that
    validates and falsifies ``goal`` is ``found``; ``models_checked``
    counts the models built.

    Anything else is ``exhausted``.  ``validate_model`` checks E1 for
    concrete CS entries only, so a goal or branch that names a constant
    the CS covers by a scheme, or any declared constant under a total
    CS, gets no model; nor does a predicate that the goal, the branch
    and the CS use at two arities.  ``max_domain`` runs from 1 to 8;
    other values raise ``ValueError``.
    """
    if not 1 <= max_domain <= len(_DOMAIN_NAMES):
        raise ValueError(f"max_domain must be between 1 and {len(_DOMAIN_NAMES)}")
    if free_vars(goal) or par_set(goal) or elem_set(goal):
        raise ModelError(f"countermodel goals must be sentences: {goal}")
    from .search import Proved, SearchBudget, prove

    outcome = prove(goal, cs, SearchBudget(max_nodes=_BRANCH_NODES))
    if isinstance(outcome, Proved):
        return CountermodelSearch(None, "absent", 0)
    named = {t for f in (goal, *outcome.branch) for t in formula_terms(f)}
    covered = cs.constants if cs.total else {c for c, _ in cs.schematic}
    if any(isinstance(t, TermConst) and t.name in covered for t in named):
        return CountermodelSearch(None, "exhausted", 0)
    arities: dict[str, set[int]] = {}
    for f in [goal, *outcome.branch, *(a for _, a in cs.concrete)]:
        for q, used in predicate_arities(f).items():
            arities.setdefault(q, set()).update(used)
    if any(len(used) > 1 for used in arities.values()):
        return CountermodelSearch(None, "exhausted", 0)

    # Every named term and each constant with a concrete CS entry,
    # smaller terms first, then by text.
    order = sorted(
        {*named, *(TermConst(c) for c, _ in cs.concrete)},
        key=lambda t: (sum(1 for _ in subterms(t)), str(t)),
    )
    params = sorted(frozenset().union(*map(par_set, outcome.branch)))
    checked = 0
    for blocks in _merges(len(params), max_domain):
        domain = tuple(_DOMAIN_NAMES[: max(blocks, default=0) + 1])
        table = _Table(domain)
        rows: dict[str, set[tuple[str, ...]]] = {q: set() for q in sorted(arities)}
        ev: Evidence = {}
        for f in outcome.branch:
            for u, b in zip(params, blocks):
                f = substitute_param(f, u, elem(domain[b]))
            if isinstance(f, Pred):
                rows[f.name].add(tuple(a.name for a in f.args))
            elif isinstance(f, Assert):
                _add(ev.setdefault(f.term, {}), [f.body], table)
        _close_evidence(ev, order, table, cs)
        model = MkrtychevModel(domain, {q: frozenset(r) for q, r in rows.items()}, ev)
        checked += 1
        if not validate_model(model, cs) and not satisfies(model, goal):
            return CountermodelSearch(model, "found", checked)
    return CountermodelSearch(None, "exhausted", checked)


def _merges(n: int, k: int) -> list[tuple[int, ...]]:
    """The element each of ``n`` parameters becomes in each model tried:
    one each if ``n`` is at most ``k``; otherwise every way of merging
    them into at most ``k`` elements, as restricted-growth strings in
    lexicographic order (at most ``2 ** (n - 1)`` for ``k = 2``)."""
    if n <= k:
        return [tuple(range(n))]
    strings: list[tuple[int, ...]] = [()]
    for _ in range(n):
        # Each next element is one already used or the first unused one.
        strings = [s + (b,) for s in strings for b in range(min(max(s, default=-1) + 2, k))]
    return strings
