"""Model validation (E1-E6), truth evaluation, and countermodel search."""

import pytest

from folp import (
    ConstantSpecification,
    ModelError,
    Proved,
    find_countermodel,
    parse_formula,
    prove,
    satisfies,
    validate_model,
)
from folp.fileio import parse_model, read_model_file
from conftest import model_paths


def build(data, decls=("c",)):
    return parse_model(data, decls)


def conditions(model, cs):
    return sorted({v.condition for v in validate_model(model, cs)})


CS = ConstantSpecification(
    constants=frozenset({"c"}),
    concrete=(("c", parse_formula("forall x. A(x) -> A(x)")),),
    total=True,
    variant_closed=True,
)


# A defect-free base: every closure condition exercised with content.
CLEAN = {
    "domain": ["a"],
    "predicates": {"A": [], "Q0": [[]], "Q1": [[]], "Q": []},
    "evidence": [
        {"term": "c", "formulas": ["forall x. A(x) -> A(x)",
                                   "forall x. A(x) -> A($a)"]},
        {"term": "p", "formulas": ["Q0 -> Q1"]},
        {"term": "q", "formulas": ["Q0"]},
        {"term": "p * q", "formulas": ["Q1"]},
        {"term": "p + q", "formulas": ["Q0 -> Q1", "Q0"]},
        {"term": "!q", "formulas": ["q : Q0", "q :[$a] Q0"]},
        {"term": "gen<x>(q)", "formulas": ["forall x. Q0"]},
    ],
}


def mutate(drop_term=None, drop_formula=None, add=None):
    import copy

    data = copy.deepcopy(CLEAN)
    out = []
    for entry in data["evidence"]:
        if entry["term"] == drop_term:
            if drop_formula is None:
                continue
            entry["formulas"] = [f for f in entry["formulas"] if f != drop_formula]
        out.append(entry)
    if add is not None:
        term, formulas = add
        for entry in out:
            if entry["term"] == term:
                entry["formulas"].extend(formulas)
                break
        else:
            out.append({"term": term, "formulas": list(formulas)})
    data["evidence"] = out
    return data


class TestValidator:
    def test_clean_model_has_no_violations(self):
        assert conditions(build(CLEAN), CS) == []

    def test_e1_missing_concrete_entry(self):
        data = mutate(drop_term="c", drop_formula="forall x. A(x) -> A(x)")
        assert conditions(build(data), CS) == ["E1"]

    def test_e2_application_gap(self):
        data = mutate(drop_term="p * q", drop_formula="Q1")
        assert conditions(build(data), CS) == ["E2"]

    def test_e3_sum_gap(self):
        data = mutate(drop_term="p + q", drop_formula="Q0")
        assert conditions(build(data), CS) == ["E3"]

    def test_e4_checker_gap(self):
        data = mutate(drop_term="!q", drop_formula="q :[$a] Q0")
        assert conditions(build(data), CS) == ["E4"]

    def test_e5_generalization_gap(self):
        data = mutate(drop_term="gen<x>(q)", drop_formula="forall x. Q0")
        assert conditions(build(data), CS) == ["E5"]

    def test_e6_instantiation_gap(self):
        data = mutate(add=("r", ["Q(x)"]))
        assert conditions(build(data), CS) == ["E6"]

    def test_unlisted_subterm_reads_its_closure(self):
        # q + r is not listed, so its evidence is the E3 closure {Q0} of
        # q's and r's, and E4 demands (q + r) : Q0 in evidence(!(q + r)).
        data = mutate(add=("!(q + r)", []))
        assert conditions(build(data), CS) == ["E4"]
        data = mutate(add=("!(q + r)", ["(q + r) : Q0", "(q + r) :[$a] Q0"]))
        assert conditions(build(data), CS) == []

    def test_shipped_models_validate(self, corpus_cs):
        for path in model_paths():
            model = read_model_file(path, corpus_cs.constants)
            assert validate_model(model, corpus_cs) == [], path.name


class TestSatisfaction:
    def test_propositional(self):
        m = build(CLEAN)
        assert satisfies(m, parse_formula("Q0"))
        assert not satisfies(m, parse_formula("~Q0"))
        assert satisfies(m, parse_formula("Q0 -> Q1"))

    def test_quantifiers(self):
        m = build({"domain": ["a", "b"], "predicates": {"Q": [["a"]]},
                   "evidence": []})
        assert satisfies(m, parse_formula("exists x. Q(x)"))
        assert not satisfies(m, parse_formula("forall x. Q(x)"))

    def test_assertion_needs_evidence_and_truth(self):
        m = build(CLEAN)
        assert satisfies(m, parse_formula("q : Q0"))
        assert not satisfies(m, parse_formula("q : Q1"))  # no evidence
        # Evidence membership is up to bound-variable renaming.
        assert satisfies(m, parse_formula("gen<x>(q) : forall y. Q0"))

    def test_assertion_false_when_closure_fails(self):
        data = mutate(add=("r", []))
        data["predicates"]["Q0"] = []  # make Q0 false
        m = build(data)
        assert not satisfies(m, parse_formula("q : Q0"))

    def test_unlisted_term_reads_least_closure(self, corpus_cs):
        # A SUM instance; no model file lists p + p, so its evidence is
        # the closure of p's.
        goal = parse_formula("p : Q0 -> (p + p) : Q0", corpus_cs.constants)
        assert isinstance(prove(goal, corpus_cs), Proved)
        models = [read_model_file(p, corpus_cs.constants) for p in model_paths()]
        assert len(models) == 10
        for path, m in zip(model_paths(), models):
            assert satisfies(m, goal), path.name

    def test_open_formula_rejected(self):
        with pytest.raises(ModelError):
            satisfies(build(CLEAN), parse_formula("Q(x)"))
        with pytest.raises(ModelError):
            satisfies(build(CLEAN), parse_formula("Q(@u)"))


# Each non-theorem with the number of models its search enumerates.
NON_THEOREMS = (
    ("Q0 -> p : Q0", 65),
    ("p : Q(x)", 1),
    ("exists x. Q(x) -> forall x. Q(x)", 25),
    ("p : Q0 -> q : Q0", 521),
    ("(p + q) : Q0 -> p : Q0", 4098),
)


class TestCountermodels:
    @pytest.mark.parametrize(
        "text, checked", NON_THEOREMS, ids=[text for text, _ in NON_THEOREMS]
    )
    def test_falsified(self, text, checked, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=2)
        assert result.status == "found"
        assert result.models_checked == checked
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    def test_deep_sum_closes_in_one_pass(self, corpus_cs):
        # z's evidence must climb 60 nested sums to reach the outer term;
        # the closure saturates subterms first, so no round count limits it.
        term = "z"
        for _ in range(60):
            term = f"(q + {term})"
        goal = parse_formula(f"z : ~Q0 -> {term} : ~Q1", corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=1, max_models=40)
        assert result.status == "found"
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    def test_theorem_has_no_small_countermodel(self, corpus_cs):
        goal = parse_formula("p : Q0 -> Q0", corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        assert result.status in ("absent", "exhausted")
        assert result.model is None

    def test_open_goal_rejected(self, corpus_cs):
        with pytest.raises(ModelError):
            find_countermodel(parse_formula("Q(x)"), corpus_cs)
