"""Rule application and branch closure."""

import random

import pytest

from folp import (
    RULE_NAMES,
    ConstantSpecification,
    Neg,
    RuleApp,
    RuleError,
    apply_rule,
    Contradiction,
    CsClosure,
    parse_formula,
    param,
    prove,
)
from folp.tableau import FRESH_PARAM_RULES, closure_against, premise_rules
from conftest import CORPUS_GOALS, random_formula, replace


def f(text: str):
    return parse_formula(text, {"c"})


def branch(*texts: str):
    return {i + 1: f(t) for i, t in enumerate(texts)}


class TestPropositionalRules:
    def test_fneg(self):
        assert apply_rule(branch("~~Q0"), RuleApp("FNeg", (1,))) == [[f("Q0")]]

    def test_timp_branches(self):
        assert apply_rule(branch("Q0 -> Q1"), RuleApp("TImp", (1,))) == [
            [f("~Q0")],
            [f("Q1")],
        ]

    def test_fimp(self):
        assert apply_rule(branch("~(Q0 -> Q1)"), RuleApp("FImp", (1,))) == [
            [f("Q0"), f("~Q1")]
        ]

    def test_shape_errors(self):
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("Q0"), RuleApp("FNeg", (1,)))
        assert exc.value.condition == "premise-shape"
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("Q0"), RuleApp("FNeg", (2,)))
        assert exc.value.condition == "premise-missing"

    @pytest.mark.parametrize("premise, rule", [
        ("~(Q0 -> Q1)", RuleApp("FImp", (1,), cut=f("Q0"))),
        ("Q0 -> Q1", RuleApp("TImp", (1,), param=param("u"))),
        ("~p :[@u] Q0", RuleApp("Exp", (1,), param=param("u"), var="x")),
        ("forall x. Q(x)", RuleApp("TForall", (1,), param=param("u"), var="x")),
    ])
    def test_field_the_rule_does_not_take(self, premise, rule):
        with pytest.raises(RuleError) as exc:
            apply_rule(branch(premise), rule)
        assert exc.value.condition == "rule-field"


class TestQuantifierRules:
    def test_tforall_any_param(self):
        out = apply_rule(branch("forall x. Q(x)"), RuleApp("TForall", (1,), param=param("u")))
        assert out == [[f("Q(@u)")]]

    def test_fexists(self):
        out = apply_rule(branch("~exists x. Q(x)"), RuleApp("FExists", (1,), param=param("u")))
        assert out == [[f("~Q(@u)")]]

    def test_texists_requires_freshness(self):
        b = branch("exists x. Q(x)", "R(@u, @u)")
        with pytest.raises(RuleError) as exc:
            apply_rule(b, RuleApp("TExists", (1,), param=param("u")))
        assert exc.value.condition == "freshness"
        assert apply_rule(b, RuleApp("TExists", (1,), param=param("w"))) == [[f("Q(@w)")]]

    def test_fforall_requires_freshness(self):
        b = branch("~forall x. Q(x)", "Q(@u)")
        with pytest.raises(RuleError) as exc:
            apply_rule(b, RuleApp("FForall", (1,), param=param("u")))
        assert exc.value.condition == "freshness"

    def test_param_required(self):
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("forall x. Q(x)"), RuleApp("TForall", (1,)))
        assert exc.value.condition == "param-missing"


class TestJustificationRules:
    def test_tcolon_universal_closure(self):
        out = apply_rule(branch("p :[@u] R(@u, x)"), RuleApp("TColon", (1,)))
        assert out == [[f("forall x. R(@u, x)")]]

    def test_tcolon_window_must_be_params(self):
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("p :[x] Q(x)"), RuleApp("TColon", (1,)))
        assert exc.value.condition == "window-not-par"

    def test_fplus(self):
        out = apply_rule(branch("~(p + q) : Q0"), RuleApp("FPlus", (1,)))
        assert out == [[f("~p : Q0"), f("~q : Q0")]]

    def test_fdot(self):
        out = apply_rule(
            branch("~(p * q) :[@u] R(@u, @u)"),
            RuleApp("FDot", (1,), cut=f("Q(@u)")),
        )
        assert out == [
            [f("~p :[@u] (Q(@u) -> R(@u, @u))")],
            [f("~q :[@u] Q(@u)")],
        ]

    def test_fdot_cut_conditions(self):
        b = branch("~(p * q) : Q0")
        with pytest.raises(RuleError) as exc:
            apply_rule(b, RuleApp("FDot", (1,)))
        assert exc.value.condition == "cut-missing"
        with pytest.raises(RuleError) as exc:
            apply_rule(b, RuleApp("FDot", (1,), cut=f("Q(@u)")))
        assert exc.value.condition == "par-subset"
        with pytest.raises(RuleError) as exc:
            apply_rule(b, RuleApp("FDot", (1,), cut=f("Q($a)")))
        assert exc.value.condition == "cut-elems"

    def test_fbang(self):
        out = apply_rule(branch("~!p : p : Q0"), RuleApp("FBang", (1,)))
        assert out == [[f("~p : Q0")]]
        for text in ("~!p : q : Q0", "~!p :[@u] p : Q0"):
            with pytest.raises(RuleError) as exc:
                apply_rule(branch(text), RuleApp("FBang", (1,)))
            assert exc.value.condition == "premise-shape"

    def test_ctr(self):
        out = apply_rule(branch("~p : Q0"), RuleApp("Ctr", (1,), param=param("u")))
        assert out == [[f("~p :[@u] Q0")]]
        with pytest.raises(RuleError) as exc:
            apply_rule(
                branch("~p :[@u] Q0"), RuleApp("Ctr", (1,), param=param("u"))
            )
        assert exc.value.condition == "ctr-param-in-window"

    def test_exp(self):
        out = apply_rule(branch("~p :[@u] Q0"), RuleApp("Exp", (1,), param=param("u")))
        assert out == [[f("~p : Q0")]]
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("~p : Q0"), RuleApp("Exp", (1,), param=param("u")))
        assert exc.value.condition == "exp-param-not-in-window"
        with pytest.raises(RuleError) as exc:
            apply_rule(
                branch("~p :[@u] Q(@u)"), RuleApp("Exp", (1,), param=param("u"))
            )
        assert exc.value.condition == "exp-side-condition"

    def test_ins_replaces_all_body_occurrences(self):
        out = apply_rule(
            branch("~p :[@u] R(@u, @u)"),
            RuleApp("Ins", (1,), param=param("u"), var="v"),
        )
        # The window keeps the parameter; only the body is instantiated.
        assert out == [[f("~p :[@u] R(v, v)")]]

    def test_ins_conditions(self):
        with pytest.raises(RuleError) as exc:
            apply_rule(
                branch("~p :[@u] Q0"), RuleApp("Ins", (1,), param=param("u"), var="v")
            )
        assert exc.value.condition == "ins-no-param"
        with pytest.raises(RuleError) as exc:
            apply_rule(
                branch("~p : forall y. R(y, @u)"),
                RuleApp("Ins", (1,), param=param("u"), var="y"),
            )
        assert exc.value.condition == "ins-capture"

    def test_genx(self):
        out = apply_rule(branch("~gen<x>(p) : forall x. Q(x)"), RuleApp("GenX", (1,)))
        assert out == [[f("~p : Q(x)")]]
        with pytest.raises(RuleError) as exc:
            apply_rule(branch("~gen<y>(p) : forall x. Q(x)"), RuleApp("GenX", (1,)))
        assert exc.value.condition == "premise-shape"


class TestPremiseShapes:
    def test_premise_shape_errors_follow_premise_rules(self):
        # apply_rule rejects a premise's shape exactly when premise_rules
        # does not list the rule, whatever the rule instance carries.
        rng = random.Random(8)
        formulas = [f("~!p : p : Q0"), f("~gen<x>(p) :[@u] forall x. Q(x)")]
        for _ in range(2_000):
            g = random_formula(rng)
            formulas += [g, Neg(g)]
        rules = [
            RuleApp(name, (1,), param=param("u"), cut=f("Q0"), var="y")
            for name in RULE_NAMES
        ]
        seen: set[str] = set()
        for g in formulas:
            for rule in rules:
                try:
                    apply_rule({1: g}, rule)
                    condition = None
                except RuleError as exc:
                    condition = exc.condition
                shape_ok = rule.name in premise_rules(g)
                assert (condition != "premise-shape") == shape_ok, (str(g), rule.name)
            seen.update(premise_rules(g))
        assert seen == set(RULE_NAMES)


def closure(*texts, cs=ConstantSpecification()):
    """The mark ``closure_against`` gives the last of ``texts`` on a
    branch of the others."""
    *before, last = branch(*texts).items()
    seen = {g: nid for nid, g in before}
    negs = {g.body: nid for nid, g in before if isinstance(g, Neg)}
    return closure_against(*last, seen, negs, cs)


class TestClosure:
    def test_contradiction(self):
        assert closure("Q0", "~Q0") == Contradiction(node_id=2, with_id=1)
        assert closure("~Q0", "Q0") == Contradiction(node_id=2, with_id=1)
        assert closure("Q0", "~Q1") is None

    def test_cs_closure(self):
        cs = ConstantSpecification(constants=frozenset({"c"}), total=True)
        assert closure("~c : (Q0 -> Q1 -> Q0)", cs=cs) == CsClosure(node_id=1, constant="c")
        # Not an axiom instance: no closure.
        assert closure("~c : (Q0 -> Q1)", cs=cs) is None
        # Non-empty windows never close against the CS.
        assert closure("~c :[@u] (Q0 -> Q1 -> Q0)", cs=cs) is None


class TestBranchIndependence:
    def test_only_fresh_param_rules_read_the_branch(self, corpus_cs):
        """Every rule but TExists and FForall reads only its premise: on
        a random branch holding the premise, an instance gives what it
        gives on the premise alone, conclusions or the same RuleError.
        The checker reuses an instance's conclusions on this ground."""

        def outcome(branch, rule):
            try:
                return apply_rule(branch, rule)
            except RuleError as exc:
                return exc.condition, exc.message

        rng = random.Random(20261018)
        names = [n for n in RULE_NAMES if n not in FRESH_PARAM_RULES]
        applied = set()
        for text in CORPUS_GOALS:
            tree = prove(parse_formula(text, corpus_cs.constants), corpus_cs).tree
            labels = {n.id: n.formula for n in tree.nodes()}
            for node in tree.nodes():
                if node.rule is None:
                    continue
                premise = labels[node.rule.premises[0]]
                for name in names:
                    rule = replace(node.rule, name=name)
                    alone = outcome({rule.premises[0]: premise}, rule)
                    # Other formulas before and after the premise, under
                    # ids no proof node has.
                    others = [rng.choice(list(labels.values())) if rng.random() < 0.5
                              else random_formula(rng) for _ in range(rng.randrange(6))]
                    branch = {-1 - i: g for i, g in enumerate(others)}
                    branch[rule.premises[0]] = premise
                    branch.update({-100 - i: g for i, g in enumerate(reversed(others))})
                    assert outcome(branch, rule) == alone, (text, str(rule))
                    if isinstance(alone, list):
                        applied.add(name)
        assert applied == set(names)
