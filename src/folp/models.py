"""Finite Mkrtychev models: admissible-evidence validation, truth
evaluation, and bounded countermodel search.

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

The closure reads through a ``_Table``, one per domain size of a
countermodel search and one per ``validate_model`` or ``satisfies``
call.  It computes each formula's canonical key once, interned so that
equal keys are one object and a bucket hit stops at the identity test,
together with the instances E6 demands of the formula.  Every candidate
of a search, and its truth evaluation, reuses them.

Countermodel search first reads a model off the prover's open branch, as
the completeness proof does (Smullyan, *First-Order Logic*, 1968; the
evidence as in Mkrtychev, "Models for the logic of proofs", 1997): the
branch's parameters are the domain, its atoms the true rows, and its
assertions seed the evidence, which the E1-E6 closure completes.  Only
where that model is refused, or the search does not end ``Open``, does
it enumerate small models blindly.
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
    subformulas,
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
# Bounded countermodel search


class CountermodelSearch(metaclass=_node):
    model: Optional[MkrtychevModel]
    status: str  # "found", "absent", or "exhausted"
    models_checked: int = 0


_DOMAIN_NAMES = "abcdefgh"
_POOL_CAP = 8
# The prover's node budget on the branch path: at about 10 us per node
# the default time limit never binds, so the outcome does not depend on
# the host's speed.
_BRANCH_NODES = 2_000


def find_countermodel(
    goal: Formula,
    cs: ConstantSpecification,
    max_domain: int = 2,
    max_models: int = 200_000,
) -> CountermodelSearch:
    """Look for a model of at most ``max_domain`` elements that falsifies
    ``goal``: first the model of the open branch the prover stops on
    (``_branch_model``), then by enumeration (``_enumerate``).

    A returned model always validates and falsifies ``goal``.  Absence
    proves nothing; hitting ``max_models`` or a formula pool of more than
    8 formulas is reported as exhaustion, distinct from absence.
    ``models_checked`` counts the enumerated models only, so it is 0 when
    the branch path answers.  ``max_domain`` runs from 1 to 8 and
    ``max_models`` from 1; other values raise ``ValueError``.
    """
    if not 1 <= max_domain <= len(_DOMAIN_NAMES):
        raise ValueError(f"max_domain must be between 1 and {len(_DOMAIN_NAMES)}")
    if max_models < 1:
        raise ValueError("max_models must be at least 1")
    if free_vars(goal) or par_set(goal) or elem_set(goal):
        raise ModelError(f"countermodel goals must be sentences: {goal}")
    model = _branch_model(goal, cs, max_domain)
    if model is not None:
        return CountermodelSearch(model, "found", 0)
    return _enumerate(goal, cs, max_domain, max_models)


def _closure_order(terms: Iterable[Term], cs: ConstantSpecification) -> list[Term]:
    """``terms``, which holds the subterms of each of its terms, and each
    constant with a concrete CS entry: smaller terms first, then by text."""
    every = {*terms, *(TermConst(c) for c, _ in cs.concrete)}
    return sorted(every, key=lambda t: (sum(1 for _ in subterms(t)), str(t)))


def _branch_model(
    goal: Formula, cs: ConstantSpecification, max_domain: int
) -> Optional[MkrtychevModel]:
    """The Mkrtychev model of the branch ``prove`` leaves open on
    ``goal``, if the search ends ``Open`` within ``_BRANCH_NODES`` nodes,
    and if the model validates and falsifies ``goal``; otherwise None.

    Each parameter of the branch, in sorted order, is one element (one
    element if there are none, None if there are more than
    ``max_domain``).  Each atom on the branch is a true row, and each
    ``t :[X] A`` on it puts ``A`` into ``evidence(t)``, which is then
    closed under E1-E6 over every term of the goal, the branch and the
    CS.  ``validate_model`` checks E1 for concrete CS entries only, so a
    goal or branch that names a constant the CS covers by a scheme, or
    any declared constant under a total CS, gets None; so does a
    predicate that the goal, the branch and the CS use at two arities.
    """
    from .search import Open, SearchBudget, prove

    outcome = prove(goal, cs, SearchBudget(max_nodes=_BRANCH_NODES))
    if not isinstance(outcome, Open):
        return None
    params = sorted(frozenset().union(*map(par_set, outcome.branch)))
    if len(params) > max_domain:
        return None
    named = {t for f in (goal, *outcome.branch) for t in formula_terms(f)}
    covered = cs.constants if cs.total else {c for c, _ in cs.schematic}
    if any(isinstance(t, TermConst) and t.name in covered for t in named):
        return None
    arities: dict[str, set[int]] = {}
    for f in [goal, *outcome.branch, *(a for _, a in cs.concrete)]:
        for q, used in predicate_arities(f).items():
            arities.setdefault(q, set()).update(used)
    if any(len(used) > 1 for used in arities.values()):
        return None

    domain = tuple(_DOMAIN_NAMES[: max(1, len(params))])
    table = _Table(domain)
    rows: dict[str, set[tuple[str, ...]]] = {q: set() for q in sorted(arities)}
    ev: Evidence = {}
    for f in outcome.branch:
        for u, d in zip(params, domain):
            f = substitute_param(f, u, elem(d))
        if isinstance(f, Pred):
            rows[f.name].add(tuple(a.name for a in f.args))
        elif isinstance(f, Assert):
            _add(ev.setdefault(f.term, {}), [f.body], table)
    _close_evidence(ev, _closure_order(named, cs), table, cs)
    model = MkrtychevModel(domain, {q: frozenset(r) for q, r in rows.items()}, ev)
    if validate_model(model, cs) or satisfies(model, goal):
        return None
    return model


def _enumerate(
    goal: Formula, cs: ConstantSpecification, max_domain: int, max_models: int
) -> CountermodelSearch:
    """Enumerate small models looking for one that falsifies ``goal``.

    Evidence sets are drawn from the goal's assertion bodies (and CS
    bodies), instantiated over the domain, assigned to every term and
    closed under E1-E6 in one subterms-first pass, so every candidate is
    admissible by construction.  Only a candidate that falsifies the goal
    is passed to ``validate_model``, so a returned model is always valid.
    """
    arities: dict[str, int] = {}
    for q, used in predicate_arities(goal).items():
        arities[q] = min(used)
    for _, a in cs.concrete:
        for q, used in predicate_arities(a).items():
            arities.setdefault(q, min(used))

    closure_order = _closure_order(formula_terms(goal), cs)
    term_list = sorted(closure_order, key=str)

    bodies = [f.body for f in subformulas(goal) if isinstance(f, Assert)]
    bodies += [a for _, a in cs.concrete]

    checked = 0
    for n in range(1, max_domain + 1):
        domain = tuple(_DOMAIN_NAMES[:n])
        table = _Table(domain)
        pool: dict[Formula, Formula] = {}
        _add(pool, bodies, table)
        if len(pool) > _POOL_CAP:
            return CountermodelSearch(None, "exhausted", checked)
        # (canonical form, formula) pairs, so a subset is a bucket.
        pairs = sorted(pool.items(), key=lambda kv: str(kv[1]))

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
        ev_choices = list(_subsets(pairs))

        for interp_rows in itertools.product(*interp_choices):
            interp = {
                q: frozenset(rows) for q, rows in zip(pred_names, interp_rows)
            }
            for assignment in itertools.product(ev_choices, repeat=len(term_list)):
                checked += 1
                if checked > max_models:
                    return CountermodelSearch(None, "exhausted", checked)
                ev: Evidence = {
                    t: dict(subset) for t, subset in zip(term_list, assignment)
                }
                _close_evidence(ev, closure_order, table, cs)
                model = MkrtychevModel(domain, interp, ev)
                if not _eval(model, goal, table) and not validate_model(model, cs):
                    return CountermodelSearch(model, "found", checked)
    return CountermodelSearch(None, "absent", checked)


def _subsets(items: list) -> Iterable[tuple]:
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)
