"""Core AST semantics: variables, substitution, canonical forms."""

import pytest

from folp import (
    CaptureError,
    Impl,
    Pred,
    TermVar,
    alpha_eq,
    canonical,
    elem,
    elem_set,
    free_vars,
    par_set,
    param,
    parse_formula,
    print_formula,
    substitute,
    substitute_param,
    universal_closure,
    var,
    variable_variant,
)


def f(text: str):
    return parse_formula(text, {"c"})


class TestFreeVars:
    def test_pred_and_quantifier(self):
        assert free_vars(f("R(x, y)")) == {"x", "y"}
        assert free_vars(f("forall x. R(x, y)")) == {"y"}
        assert free_vars(f("forall x. exists y. R(x, y)")) == set()

    def test_assert_window_is_the_free_var_set(self):
        # Only window variables are free; body occurrences outside the
        # window are out of reach.
        assert free_vars(f("p :[x] R(x, y)")) == {"x"}
        assert free_vars(f("p : R(x, y)")) == set()

    def test_window_params_and_elems_not_free(self):
        assert free_vars(f("p :[x, @u, $a] Q(x)")) == {"x"}

    def test_atom_namespaces_disjoint(self):
        g = f("p :[@u] S(x, $a)")
        assert par_set(g) == {"u"}
        assert elem_set(g) == {"a"}
        assert free_vars(g) == set()


class TestSubstitute:
    def test_basic(self):
        assert substitute(f("Q(x)"), "x", elem("a")) == f("Q($a)")
        assert substitute(f("forall x. Q(x)"), "x", elem("a")) == f("forall x. Q(x)")

    def test_window_gating(self):
        # The window variable is replaced throughout, window included.
        assert substitute(f("p :[x] R(x, x)"), "x", elem("a")) == f("p :[$a] R($a, $a)")
        # A non-window occurrence is untouchable.
        assert substitute(f("p : Q(x)"), "x", elem("a")) == f("p : Q(x)")
        assert substitute(f("p :[y] R(x, y)"), "x", elem("a")) == f("p :[y] R(x, y)")

    def test_capture_raises(self):
        with pytest.raises(CaptureError):
            substitute(f("forall y. R(x, y)"), "x", var("y"))
        # Renaming-free substitution with a non-captured variable works.
        assert substitute(f("forall y. R(x, y)"), "x", var("z")) == f("forall y. R(z, y)")

    def test_param_substitution_all_occurrences(self):
        g = f("p :[@u] Q(@u) -> Q(@u)")
        assert substitute_param(g, "u", var("v")) == f("p :[v] Q(v) -> Q(v)")

    def test_param_substitution_capture(self):
        with pytest.raises(CaptureError):
            substitute_param(f("forall y. Q(@u)"), "u", var("y"))


class TestCanonical:
    def test_alpha_eq(self):
        assert alpha_eq(f("forall x. Q(x)"), f("forall y. Q(y)"))
        assert not alpha_eq(f("forall x. Q(x)"), f("forall y. R(y)"))
        assert canonical(f("forall x. exists y. R(x, y)")) == canonical(
            f("forall y. exists x. R(y, x)")
        )

    def test_canonical_keeps_free_vars(self):
        assert canonical(f("Q(x)")) == f("Q(x)")

    def test_variable_variant(self):
        assert variable_variant(
            f("forall x. A(x) -> A(x)"), f("forall v. A(v) -> A(v)")
        )
        assert variable_variant(f("Q(x)"), f("Q(y)"))
        assert not variable_variant(f("R(x, y)"), f("R(x, x)"))
        assert not variable_variant(f("Q(x)"), f("Q($a)"))

    def test_variant_respects_windows(self):
        assert variable_variant(f("p :[x] Q(x)"), f("p :[y] Q(y)"))
        assert not variable_variant(f("p :[x] Q(x)"), f("q :[y] Q(y)"))

    def test_bound_names_never_meet_free_ones(self):
        # A parsed variable may be called like a canonical name of old.
        assert not alpha_eq(f("forall x. R(x, _b0)"), f("forall x. R(x, x)"))
        assert not alpha_eq(f("forall x. p :[x] R(x, _b0)"), f("forall x. p :[x] R(x, x)"))

    def test_canonical_form_is_cached_and_its_own(self):
        g = f("forall x. exists y. R(x, y)")
        c = canonical(g)
        assert canonical(g) is c and canonical(c) is c
        assert canonical(f("forall y. exists x. R(y, x)")) == c


class TestEquality:
    @staticmethod
    def chain(n, last="P"):
        goal = Pred(f"{last}{n}")
        for i in reversed(range(n)):
            goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
        return Impl(Pred("P0"), goal)

    def test_deep_formulas_compare_without_recursion(self):
        # chain-1000 nests about 1,000 levels; two separately built copies
        # compare by walking, not by recursing once per level.
        a, b = self.chain(1000), self.chain(1000)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self.chain(1000, last="Q")
        assert a != self.chain(999)

    def test_nodes_of_other_classes_differ(self):
        assert f("p : Q0") != f("q : Q0") and f("p : Q0") != f("p :[x] Q0")
        assert f("(p + q) : Q0") != f("(p * q) : Q0")
        assert TermVar("Q0") != f("Q0") and f("Q0") != "Q0"


class TestWindows:
    def test_window_normalized(self):
        a = f("p :[y, x, x] Q0")
        b = f("p :[x, y] Q0")
        assert a == b

    def test_universal_closure(self):
        g = f("R(x, y)")
        assert free_vars(universal_closure(g)) == set()
        assert universal_closure(g) == f("forall x. forall y. R(x, y)")
        assert universal_closure(f("Q0")) == f("Q0")


class TestPrinting:
    def test_str_forms(self):
        assert print_formula(f("~(Q0 -> Q1)")) == "~(Q0 -> Q1)"
        assert print_formula(f("Q0 -> Q1 -> Q2")) == "Q0 -> Q1 -> Q2"
        assert str(TermVar("p")) == "p"
        assert str(param("u")) == "@u"
        assert str(elem("a")) == "$a"
