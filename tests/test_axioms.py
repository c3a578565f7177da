"""Axiom-scheme recognition and constant specifications."""

import pytest

from folp import (
    SCHEMES,
    ConstantSpecification,
    CsError,
    cs_appropriateness_gaps,
    cs_axiomatically_appropriate,
    cs_contains,
    match_axiom,
    match_scheme,
    parse_formula,
)


def f(text: str):
    return parse_formula(text, {"c"})


POSITIVE = {
    "P1": ["Q0 -> Q1 -> Q0", "p : Q0 -> Q1 -> p : Q0"],
    "P2": ["(Q0 -> Q1 -> Q2) -> (Q0 -> Q1) -> Q0 -> Q2"],
    "P3": ["(~Q0 -> ~Q1) -> Q1 -> Q0"],
    "Q1": ["forall x. Q(x) -> Q(y)", "forall x. A(x) -> A(x)", "forall x. Q0 -> Q0"],
    "Q2": ["forall x. (Q(x) -> R(x)) -> forall x. Q(x) -> forall x. R(x)"],
    "Q3": ["Q0 -> forall x. Q0", "Q(y) -> forall x. Q(y)"],
    "Q4": ["Q(y) -> exists x. Q(x)", "forall x. (Q(x) -> Q0) -> exists x. Q(x) -> Q0"],
    "CTR": ["p :[x, y] Q(x) -> p :[x] Q(x)", "p :[y] Q0 -> p : Q0"],
    "EXP": ["p :[x] Q(x) -> p :[x, y] Q(x)", "p : Q0 -> p :[y] Q0"],
    "SUM1": ["p : Q0 -> (p + q) : Q0"],
    "SUM2": ["q : Q0 -> (p + q) : Q0"],
    "JK": ["p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1"],
    "JT": ["p : Q0 -> Q0", "p :[x] Q(x) -> Q(x)"],
    "J4": ["p : Q0 -> !p : p : Q0", "p :[x] Q(x) -> !p :[x] p :[x] Q(x)"],
    "GEN": ["p : Q0 -> gen<x>(p) : forall x. Q0",
            "p :[y] Q(y) -> gen<x>(p) :[y] forall x. Q(y)"],
}

NEGATIVE = [
    "Q0 -> Q1",
    "Q0 -> Q1 -> Q1",  # P1 shape with wrong reuse
    "forall x. Q(x)",
    # CTR dropping a variable free in the body
    "p :[x, y] Q(y) -> p :[x] Q(y)",
    # EXP adding two variables at once
    "p : Q0 -> p :[x, y] Q0",
    # GEN with the generalized variable inside the window
    "p :[x] A(x) -> gen<x>(p) :[x] forall x. A(x)",
    # GEN with mismatched windows
    "p :[y] Q0 -> gen<x>(p) : forall x. Q0",
    # SUM with the wrong operand justifying
    "r : Q0 -> (p + q) : Q0",
    # JK with swapped application order
    "p : (Q0 -> Q1) -> q : Q0 -> (q * p) : Q1",
    # J4 with mismatched inner term
    "p : Q0 -> !p : q : Q0",
    # Q1 with a non-substitutable result
    "forall x. forall y. R(x, y) -> forall y. R(y, y)",
]


class TestMatching:
    @pytest.mark.parametrize(
        "scheme,text",
        [(s, t) for s, ts in POSITIVE.items() for t in ts],
    )
    def test_positive(self, scheme, text):
        assert match_axiom(f(text)) == scheme
        assert match_scheme(scheme, f(text))

    @pytest.mark.parametrize("text", NEGATIVE)
    def test_negative(self, text):
        assert match_axiom(f(text)) is None

    def test_scheme_order_fixed(self):
        assert SCHEMES == (
            "P1", "P2", "P3", "Q1", "Q2", "Q3", "Q4",
            "CTR", "EXP", "SUM1", "SUM2", "JK", "JT", "J4", "GEN",
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            match_scheme("XX", f("Q0"))


class TestConstantSpecification:
    def test_concrete_entry_must_be_axiom(self):
        with pytest.raises(CsError):
            ConstantSpecification(
                constants=frozenset({"c"}),
                concrete=(("c", f("Q0 -> Q1")),),
            )

    def test_undeclared_constant_rejected(self):
        with pytest.raises(CsError):
            ConstantSpecification(concrete=(("c", f("Q0 -> Q1 -> Q0")),))

    def test_total_contains_every_axiom(self):
        cs = ConstantSpecification(constants=frozenset({"c"}), total=True)
        assert cs_contains(cs, "c", f("Q0 -> Q1 -> Q0"))
        assert cs_contains(cs, "c", f("p : Q0 -> Q0"))
        assert not cs_contains(cs, "c", f("Q0 -> Q1"))
        assert not cs_contains(cs, "d", f("Q0 -> Q1 -> Q0"))

    def test_schematic_membership(self):
        cs = ConstantSpecification(
            constants=frozenset({"c"}), schematic=(("c", "JT"),)
        )
        assert cs_contains(cs, "c", f("p : Q0 -> Q0"))
        assert not cs_contains(cs, "c", f("Q0 -> Q1 -> Q0"))

    def test_variant_closure(self):
        entry = f("forall x. A(x) -> A(x)")
        closed = ConstantSpecification(
            constants=frozenset({"c"}),
            concrete=(("c", entry),),
            variant_closed=True,
        )
        variant = f("forall v. A(v) -> A(v)")
        assert cs_contains(closed, "c", variant)
        exact = ConstantSpecification(
            constants=frozenset({"c"}), concrete=(("c", entry),)
        )
        assert cs_contains(exact, "c", entry)
        assert not cs_contains(exact, "c", variant)

    def test_appropriateness(self):
        total = ConstantSpecification(constants=frozenset({"c"}), total=True)
        assert cs_axiomatically_appropriate(total)
        assert cs_appropriateness_gaps(total) == []
        partial = ConstantSpecification(
            constants=frozenset({"c"}), schematic=(("c", "JT"),)
        )
        assert not cs_axiomatically_appropriate(partial)
        assert "P1" in cs_appropriateness_gaps(partial)
        full = ConstantSpecification(
            constants=frozenset({"c"}),
            schematic=tuple(("c", s) for s in SCHEMES),
        )
        assert cs_axiomatically_appropriate(full)

    def test_concrete_only_is_never_appropriate(self):
        concrete = ConstantSpecification(
            constants=frozenset({"c"}), concrete=(("c", f("Q0 -> Q1 -> Q0")),)
        )
        assert not cs_axiomatically_appropriate(concrete)
        assert cs_appropriateness_gaps(concrete) == [
            f"{s} (concrete entries cannot cover infinitely many instances)"
            for s in SCHEMES
        ]
        empty = ConstantSpecification(constants=frozenset({"c"}))
        assert cs_appropriateness_gaps(empty) == list(SCHEMES)
