"""Model validation (E1-E6), truth evaluation, and countermodel search."""

import collections
import hashlib
import json

import pytest

from folp import (
    ConstantSpecification,
    MkrtychevModel,
    ModelError,
    Open,
    Proved,
    SearchBudget,
    Violation,
    check_proof,
    find_countermodel,
    models,
    par_set,
    parse_formula,
    prove,
    satisfies,
    validate_model,
)
from folp.fileio import parse_cs, parse_model, read_model_file, write_model
from conftest import CORPUS_GOALS, DATA, NON_THEOREMS, census_sentences, model_paths


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

    # model07's domain is {a, b}, and its rows fix Q as unary.
    @pytest.mark.parametrize("text", ["~Q($zz)", "Q($a, $a)", "~(exists x. Q(x, x))"])
    def test_formula_outside_the_language_rejected(self, text, corpus_cs):
        m = read_model_file(DATA / "models" / "model07.json", corpus_cs.constants)
        with pytest.raises(ModelError):
            satisfies(m, parse_formula(text, corpus_cs.constants))

    def test_evidence_fixes_an_arity(self):
        # CLEAN lists no row of A, but its evidence uses A as unary; an
        # assertion's body is in the language too.
        m = build(CLEAN)
        for text in ("A($a, $a)", "c : forall x. A($a, x)", "q : Q0($a)", "q :[$b] Q0"):
            with pytest.raises(ModelError):
                satisfies(m, parse_formula(text, ("c",)))

    def test_defects_f_does_not_touch(self):
        # satisfies reads only the predicates of its formula: R's mixed
        # rows, Q0 used at arity 1 in the evidence and the undeclared S
        # are left to validate_model.
        m = build({"domain": ["a"], "predicates": {"Q0": [[]], "R": [["a"], ["a", "a"]]},
                   "evidence": [{"term": "p", "formulas": ["Q0($a)", "S($a)"]}]})
        assert satisfies(m, parse_formula("Q0"))
        assert not satisfies(m, parse_formula("p : Q0"))
        with pytest.raises(ModelError, match="mixed arities"):
            satisfies(m, parse_formula("R($a)"))
        with pytest.raises(ModelError):
            validate_model(m, CS)

    @pytest.mark.parametrize("text, message", [
        ("Q0($a)", "predicate Q0 used at arity 1, expected 0: Q0($a)"),  # rows
        ("A($a, $a)", "predicate A used at arity 2, expected 1: A($a, $a)"),  # evidence
    ])
    def test_arity_error_text(self, text, message):
        with pytest.raises(ModelError) as exc:
            satisfies(build(CLEAN), parse_formula(text))
        assert str(exc.value) == message

    @pytest.mark.parametrize("predicates, formulas, message", [
        ({"R": [["a"], ["a", "a"]]}, ["R($a)"], "predicate R interpreted at mixed arities"),
        ({"Q0": [[]]}, ["S($a)"], "evidence references undeclared predicate S"),
        ({"Q0": [[]]}, ["Q0($a)"], "predicate Q0 used at arity 1, expected 0"),
    ])
    def test_validation_arity_error_text(self, predicates, formulas, message):
        m = build({"domain": ["a"], "predicates": predicates,
                   "evidence": [{"term": "p", "formulas": formulas}]})
        with pytest.raises(ModelError) as exc:
            validate_model(m, CS)
        assert str(exc.value) == message

    def test_empty_domain(self):
        # The file reader rejects an empty domain first; a model built in
        # memory reaches the validator's own guard.
        with pytest.raises(ModelError, match="domain must be non-empty"):
            validate_model(MkrtychevModel((), {}, {}), CS)

    def test_unfixed_arity_is_free(self):
        # Q has no rows and no evidence in CLEAN, and R is not declared.
        m = build(CLEAN)
        assert not satisfies(m, parse_formula("Q($a, $a)"))
        assert satisfies(m, parse_formula("R($a, $a) -> Q($a)"))


class TestBoundNameClash:
    # The parser accepts ``_b0`` as a variable, the name canonical forms
    # once gave the first bound variable.
    def test_evidence_may_list_both(self):
        m = build({"domain": ["a"], "predicates": {"R": []},
                   "evidence": [{"term": "p", "formulas": [
                       "forall x. R(x, _b0)", "forall x. R(x, x)"]}]})
        [bucket] = m.evidence.values()
        assert len(bucket) == 2

    def test_free_variable_is_not_the_bound_one(self):
        m = build({"domain": ["a"], "predicates": {"R": [["a", "a"]]},
                   "evidence": [{"term": "p", "formulas": [
                       "forall x. R(x, _b0)", "forall x. R(x, $a)"]}]})
        assert not satisfies(m, parse_formula("p : forall x. R(x, x)"))


class TestCountermodels:
    @pytest.mark.parametrize("text", NON_THEOREMS)
    def test_falsified(self, text, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=2)
        assert result.status == "found"
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    @pytest.mark.parametrize("text", NON_THEOREMS)
    def test_read_off_the_branch(self, text, corpus_cs):
        # Each non-theorem ends Open, and its branch's one model is a countermodel.
        goal = parse_formula(text, corpus_cs.constants)
        assert isinstance(prove(goal, corpus_cs), Open)
        result = find_countermodel(goal, corpus_cs)
        assert (result.status, result.models_checked) == ("found", 1)

    def test_read_off_a_stopped_branch(self, corpus_cs):
        # The search runs out of cut candidates; the branch it stops on
        # is a countermodel all the same.
        goal = parse_formula("p * q : Q0", corpus_cs.constants)
        outcome = prove(goal, corpus_cs, SearchBudget(max_nodes=models._BRANCH_NODES))
        assert outcome.dimension == "max_cut_candidates"
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        assert (result.status, result.models_checked) == ("found", 1)
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    def test_deep_sum_closes_in_one_pass(self, corpus_cs):
        # z's evidence must climb 60 nested sums to reach the outer term;
        # the closure saturates subterms first, so no round count limits it.
        term = "z"
        for _ in range(60):
            term = f"(q + {term})"
        goal = parse_formula(f"z : ~Q0 -> {term} : ~Q1", corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        assert result.status == "found"
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    def test_theorem_has_no_small_countermodel(self, corpus_cs):
        # By soundness, no model falsifies a proved goal.
        goal = parse_formula("p : Q0 -> Q0", corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        assert (result.status, result.model, result.models_checked) == ("absent", None, 0)

    def test_open_goal_rejected(self, corpus_cs):
        with pytest.raises(ModelError):
            find_countermodel(parse_formula("Q(x)"), corpus_cs)

    @pytest.mark.parametrize("text", ["c : (Q0 -> Q1 -> Q0)", "p : Q0 -> ((c * p) * p) : Q0"])
    def test_proved_goal_naming_c_is_not_refuted(self, text, corpus_cs):
        # Both are theorems under the total corpus CS, but a model that
        # names ``c`` validates whether or not ``c`` has the axiom
        # instances the CS gives it: ``validate_model`` checks E1 for
        # concrete CS entries only.
        goal = parse_formula(text, corpus_cs.constants)
        assert find_countermodel(goal, corpus_cs).status != "found"

    @pytest.mark.parametrize("limits", [{"max_domain": 0}, {"max_domain": 9}])
    def test_limits_out_of_range_rejected(self, limits, corpus_cs):
        # Nothing is capped silently: 0 elements admit no model, and
        # only 8 elements have names.
        with pytest.raises(ValueError):
            find_countermodel(parse_formula("Q0", corpus_cs.constants), corpus_cs, **limits)


class TestBranchRefusals:
    """Each case where the branch gives no countermodel, and the merges
    tried when it has more parameters than ``max_domain``.  No goal is
    known whose branch model, one element per parameter, fails
    ``validate_model`` or ``satisfies``, so the last two tests replace
    those checks with ones that refuse it."""

    def test_more_elements_than_max_domain(self, corpus_cs):
        # The open branch has two parameters; merged into one element,
        # they give no countermodel.
        goal = parse_formula("exists x. Q(x) -> forall x. Q(x)")
        assert find_countermodel(goal, corpus_cs, max_domain=2).models_checked == 1
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        assert (result.status, result.model, result.models_checked) == ("exhausted", None, 1)

    def test_merged_parameters(self, corpus_cs):
        # The branch has three parameters; a merge of two of them is a
        # 2-element countermodel.
        goal = parse_formula(
            "forall x. forall y. forall z. ((R(y) -> Q1) -> R(z) -> R(x))", corpus_cs.constants
        )
        outcome = prove(goal, corpus_cs)
        assert isinstance(outcome, Open)
        assert len(frozenset().union(*map(par_set, outcome.branch))) == 3
        # The first merge, all three in one element, is refused; the
        # second, (0, 0, 1), is a countermodel.
        result = find_countermodel(goal, corpus_cs, max_domain=2)
        assert (result.status, result.models_checked) == ("found", 2)
        assert len(result.model.domain) == 2
        assert validate_model(result.model, corpus_cs) == []
        assert not satisfies(result.model, goal)

    @pytest.mark.parametrize("n, k, merges", [
        (0, 1, [()]),
        (2, 2, [(0, 1)]),
        (3, 1, [(0, 0, 0)]),
        (3, 2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]),
        (4, 3, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2),
                (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 0), (0, 1, 1, 1),
                (0, 1, 1, 2), (0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2)]),
    ])
    def test_merges(self, n, k, merges):
        assert models._merges(n, k) == merges

    def test_merges_of_eight_parameters(self):
        assert len(models._merges(8, 2)) == 128
        assert len(models._merges(8, 7)) == 4139  # Bell(8) - 1: all but one each

    @pytest.mark.parametrize("cs_text, text, answered", [
        ("const c. c : forall x. A(x) -> A(x). total.", "Q0 -> c : Q0", False),
        ("const d. d : scheme P1.", "d : Q0", False),
        ("const c. c : forall x. A(x) -> A(x).", "Q0 -> c : Q0", True),
    ], ids=["total", "schematic", "concrete"])
    def test_constant_gate(self, cs_text, text, answered):
        # E1 is checked for concrete entries only, so a constant that a
        # scheme or ``total`` covers leaves the branch model unchecked.
        cs = parse_cs(cs_text)
        goal = parse_formula(text, cs.constants)
        assert isinstance(prove(goal, cs), Open)
        result = find_countermodel(goal, cs)
        if answered:
            assert (result.status, result.models_checked) == ("found", 1)
            assert validate_model(result.model, cs) == [] and not satisfies(result.model, goal)
        else:
            assert (result.status, result.model, result.models_checked) == ("exhausted", None, 0)

    def test_predicate_at_two_arities(self, corpus_cs):
        # The goal's A has arity 0, the CS entry's arity 1: the branch
        # model's evidence would fix A at 1, and the goal would then be
        # outside its language, so that ``satisfies`` raises on it.
        goal = parse_formula("p : A", corpus_cs.constants)
        result = find_countermodel(goal, corpus_cs)
        assert (result.status, result.model, result.models_checked) == ("exhausted", None, 0)

    def test_model_that_does_not_validate(self, corpus_cs, monkeypatch):
        monkeypatch.setattr(models, "validate_model", lambda m, cs: [Violation("E1", "refused")])
        result = find_countermodel(parse_formula("Q0 -> p : Q0"), corpus_cs)
        assert (result.status, result.model, result.models_checked) == ("exhausted", None, 1)

    def test_model_that_satisfies_the_goal(self, corpus_cs, monkeypatch):
        monkeypatch.setattr(models, "satisfies", lambda m, f: True)
        result = find_countermodel(parse_formula("Q0 -> p : Q0"), corpus_cs)
        assert (result.status, result.model, result.models_checked) == ("exhausted", None, 1)


def test_size_4_census(corpus_cs):
    """Every sentence of size at most 4 over the census signature is
    decided: proved with a proof the checker accepts, or refuted by the
    model of the branch the prover stops on.  ``scripts/census.py`` runs
    the same check at larger sizes.  The counts change only if the
    prover or the branch path does."""
    ends = collections.Counter()
    for goal in census_sentences(4):
        result = find_countermodel(goal, corpus_cs, max_domain=1)
        if result.status == "absent":
            outcome = prove(goal, corpus_cs, SearchBudget(max_nodes=models._BRANCH_NODES))
            assert check_proof(outcome.tree, corpus_cs, goal).accepted, goal
            ends["proved"] += 1
            continue
        assert result.status == "found", goal
        assert validate_model(result.model, corpus_cs) == [], goal
        assert not satisfies(result.model, goal), goal
        ends["branch"] += 1
    assert ends == {"proved": 10, "branch": 366}


# The countermodel searches of the identity digest: the non-theorems,
# the corpus goals and ``p : Q0 -> Q0``, each at ``max_domain=2``.
SEARCHES = [*NON_THEOREMS, *CORPUS_GOALS, "p : Q0 -> Q0"]


def search_digest(cs) -> str:
    """The SHA-256 of one JSON line ``[goal, status, models_checked,
    write_model(model)]`` per search of ``SEARCHES``."""
    lines = []
    for text in SEARCHES:
        result = find_countermodel(parse_formula(text, cs.constants), cs, max_domain=2)
        model = None if result.model is None else write_model(result.model)
        lines.append(json.dumps(
            [text, result.status, result.models_checked, model], sort_keys=True
        ))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# What ``find_countermodel`` answers: the branch's model, after 1 model
# checked, for the five non-theorems, and ``absent`` for the rest.
FIND_COUNTERMODEL_DIGEST = "8ed99f7e695c0246993514517dbcd4d4aacb1d2c3a4933ddbe8bcfebaf7704b7"


def test_find_countermodel_identity(corpus_cs):
    assert search_digest(corpus_cs) == FIND_COUNTERMODEL_DIGEST
