"""Differential soundness: the prover against the semantics.

For random small sentences, a proof means truth in every validated model
of ``tests/data/models``, and a countermodel means no proof.

A model file lists evidence for finitely many terms, and validation
checks the closure conditions on those terms only (and E1 on the
concrete CS entries only), so the sentences use just the listed terms
without the constant ``c``; any other term would have unchecked, empty
evidence.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from folp import (
    Assert,
    Exists,
    Forall,
    Impl,
    Neg,
    Pred,
    Proved,
    SearchBudget,
    find_countermodel,
    parse_term,
    prove,
    satisfies,
    validate_model,
    var,
)
from folp.fileio import read_cs_file, read_model_file
from folp.syntax import universal_closure
from conftest import DATA, model_paths

CS = read_cs_file(DATA / "corpus.cs")
MODELS = [read_model_file(p, CS.constants) for p in model_paths()]
VALID = [m for m in MODELS if not validate_model(m, CS)]
BUDGET = SearchBudget(max_nodes=400, max_depth=60, time_limit=2.0)

P, Q, P_PLUS_Q, P_TIMES_Q, BANG_P = (
    parse_term(t) for t in ("p", "q", "p + q", "p * q", "!p")
)
TERMS = (P, Q, P_PLUS_Q, P_TIMES_Q, BANG_P, *map(parse_term, ("q + p", "!q")))

atomic = st.one_of(
    st.sampled_from([Pred("Q0"), Pred("Q1")]),
    st.builds(Pred, st.sampled_from(["Q", "R"]), st.tuples(st.just(var("x")))),
)
formulas = st.recursive(
    atomic,
    lambda f: st.one_of(
        st.builds(Neg, f),
        st.builds(Impl, f, f),
        st.builds(Forall, st.just("x"), f),
        st.builds(Exists, st.just("x"), f),
        st.builds(Assert, st.sampled_from(TERMS), st.just(()), f),
    ),
    max_leaves=4,
)


@st.composite
def sentences(draw):
    """Random formulas, and instances of valid shapes so that some are
    provable; every free variable is closed universally."""
    a, b = draw(formulas), draw(formulas)
    shapes = [
        a,
        Impl(a, a),
        Impl(Impl(a, b), Impl(Neg(b), Neg(a))),
        Impl(Assert(P, (), a), a),
        Impl(Assert(Q, (), a), Assert(P_PLUS_Q, (), a)),
        Impl(Assert(P, (), a), Assert(BANG_P, (), Assert(P, (), a))),
        Impl(Assert(P, (), Impl(a, b)), Impl(Assert(Q, (), a), Assert(P_TIMES_Q, (), b))),
        Impl(Forall("x", a), Exists("x", a)),
    ]
    return universal_closure(draw(st.sampled_from(shapes)))


FAST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_models_validate():
    assert len(VALID) == len(MODELS) >= 10


@FAST
@given(sentences())
def test_proved_is_true_in_every_model(goal):
    if isinstance(prove(goal, CS, BUDGET), Proved):
        assert all(satisfies(m, goal) for m in VALID), goal


@FAST
@given(sentences())
def test_countermodel_means_no_proof(goal):
    result = find_countermodel(goal, CS, max_domain=1, max_models=30)
    if result.status == "found":
        assert not isinstance(prove(goal, CS, BUDGET), Proved), goal
