"""Text format: precedence, error reporting, and print/parse round trips."""

import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from folp import (
    Assert,
    Term,
    Forall,
    Impl,
    Neg,
    ParseError,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from folp import parser
from folp.fileio import parse_cs
from folp.parser import MAX_DEPTH
from folp.syntax import neg, subformulas, subterms
from conftest import cases, random_formula, run_fresh


def f(text: str):
    return parse_formula(text, {"c"})


@pytest.fixture
def parse_errors(monkeypatch):
    """The arguments of each ``ParseError`` built while the test runs."""
    built, init = [], ParseError.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ParseError, "__init__", counting_init)
    return built


class TestPrecedence:
    def test_implication_right_assoc(self):
        assert f("Q0 -> Q1 -> Q2") == f("Q0 -> (Q1 -> Q2)")

    def test_colon_binds_unary(self):
        g = f("p :[x] Q(x) -> Q0")
        assert isinstance(g, Impl)
        assert isinstance(g.left, Assert)

    def test_neg_binds_assertion(self):
        g = f("~p : Q0")
        assert isinstance(g, Neg)
        assert isinstance(g.body, Assert)

    def test_quantifier_body_is_unary(self):
        g = f("forall x. Q(x) -> Q0")
        assert isinstance(g, Impl)
        assert isinstance(g.left, Forall)

    def test_quantified_assertion_body(self):
        g = f("p : forall x. A(x)")
        assert isinstance(g, Assert)
        assert isinstance(g.body, Forall)

    def test_term_operators(self):
        assert parse_term("p + q * r") != parse_term("(p + q) * r")
        assert parse_term("!p + q") == parse_term("(!p) + q")
        assert print_term(parse_term("p * q * r")) == "p*q*r"

    def test_constants_vs_variables(self):
        t = parse_term("c * p", {"c"})
        s = parse_term("c * p")
        assert t != s  # declared c is a constant, undeclared c a variable


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "Q0 ->",
            "forall @u. Q0",
            "forall $a. Q0",
            "forall forall. Q0",
            "p :",
            "p :[x Q0",
            "Q0)",
            "Q(x) -> Q(x, y)",  # inconsistent arity
            "(p : Q0",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("Q0 -> ->")
        assert exc.value.line == 1
        assert exc.value.col > 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(p + q) : (Q0 <-> Q1)", "1:15: expected ')', found '<'"),
            ("(p  q) : Q0 -> Q0", "1:5: expected ')', found 'q'"),
            # The token after the matching ")" is ":", so the error is
            # reported in the assertion's body.
            ("(p) : ~", "1:8: expected a formula, found 'end of input'"),
        ],
    )
    def test_parenthesised_term_error_position(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # The first "(" pairs with the ")" before ":", so it was read
            # as opening a term, and the error landed at 1:14.
            ("forall y. (q :[y] Q1 -> q) : Q1)", "1:32: unmatched ')'"),
            ("Q0)", "1:3: unmatched ')'"),
            ("(Q0 -> Q1)) -> Q2", "1:11: unmatched ')'"),
            ("Q0 -> ) Q1", "1:7: unmatched ')'"),
            # An error before the extra ")" is reported at the ")".
            ("(p  q) : Q0 -> Q1)", "1:18: unmatched ')'"),
            ("p :\n  (Q0 -> Q1))", "2:13: unmatched ')'"),
        ],
    )
    def test_extra_closer_is_the_error(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

    def test_extra_closer_in_a_term(self):
        with pytest.raises(ParseError) as exc:
            parse_term("(p * q) + r) * s")
        assert str(exc.value) == "1:12: unmatched ')'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(p : Q0", "1:8: expected ')', found 'end of input'"),
            ("((Q0 -> Q1)", "1:12: expected ')', found 'end of input'"),
            ("Q0 -> ->", "1:7: expected a formula, found '->'"),
        ],
    )
    def test_errors_without_an_extra_closer_keep_their_place(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

    def test_valid_text_is_not_scanned_for_closers(self, monkeypatch):
        # One pass pairs the parentheses and finds the first unmatched
        # ")"; a valid text takes it at most once, and only when a "("
        # that starts a unary formula needs the decision.
        passes, pair = [], parser.Parser.pair

        def counted(self):
            if self.closers is None:
                passes.append(self.source)
            return pair(self)

        monkeypatch.setattr(parser.Parser, "pair", counted)
        texts = ["(p : (Q0 -> Q1)) -> (Q0 -> Q1)", "p : (Q0 -> Q1) -> Q0 -> Q1"]
        assert f(texts[0]) == f(texts[1])
        assert passes == texts
        f("p * gen<x>(q + (r)) : S(x, y) -> ~Q(x) -> forall x. Q(x)")
        parse_term("(p * q) + !(r)")
        assert passes == texts

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["(", ")", ":", "+", "p", "Q0"]), max_size=24))
    def test_one_pass_pairs_and_finds_the_unmatched_closer(self, tokens):
        p = parser.Parser(" ".join(tokens))
        p.pair()
        step = {"(": 1, ")": -1}
        depth, stray = 0, None
        for j, kind in enumerate(p.kinds):
            if kind == ")" and depth == 0:
                stray = j
                break
            depth += step.get(kind, 0)
        assert p.stray == stray
        for i, kind in enumerate(p.kinds):
            if kind == "(":
                # The matching ")": where a running count from this "("
                # first returns to 0.
                depth, j = 0, None
                for k in range(i, len(p.kinds)):
                    depth += step.get(p.kinds[k], 0)
                    if depth == 0:
                        j = k
                        break
                expected = j is not None and p.kinds[j + 1] in (":", "+", "*")
                assert p.opens_term(i) == expected

    def test_positions_found_once_per_text(self, monkeypatch, parse_errors):
        # A parenthesised assertion was once read as a term first, which
        # failed; finding every failure's position by scanning the text
        # again made a CS file of n such entries take time quadratic in n.
        # Reading a valid text now neither scans it again nor builds an
        # error.
        scans, regex = [], parser._TOKEN_RE

        class Counting:
            def findall(self, text):
                return regex.findall(text)

            def finditer(self, text):
                scans.append(text)
                return regex.finditer(text)

        text = "const c.\n" + "c : (p : (Q0 -> Q1)) -> Q0 -> Q1.\n" * 50
        monkeypatch.setattr(parser, "_TOKEN_RE", Counting())
        assert len(parse_cs(text).concrete) == 50
        assert scans == [] and parse_errors == []


class TestRoundTrip:
    def test_seeded_corpus(self):
        rng = random.Random(20260823)
        for _ in range(300):
            g = random_formula(rng)
            text = print_formula(g)
            assert parse_formula(text, {"c"}) == g, text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property(self, seed):
        g = random_formula(random.Random(seed))
        assert parse_formula(print_formula(g), {"c"}) == g

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(p + q) * r : Q0", "(p+q)*r : Q0"),
            ("((p)) : Q0", "p : Q0"),
            ("(p) + q : Q0", "p+q : Q0"),
            ("((p : Q0) -> Q1)", "p : Q0 -> Q1"),
            ("~(p : Q0 -> Q1)", "~(p : Q0 -> Q1)"),
            ("(p : Q0)", "p : Q0"),
        ],
    )
    def test_parentheses_round_trip(self, text, printed, parse_errors):
        # A "(" opens a term exactly when ":", "+" or "*" follows its
        # matching ")"; no reading is tried and given up.
        g = f(text)
        assert print_formula(g) == printed
        assert f(printed) == g
        assert parse_errors == []

    def test_windows_round_trip(self):
        for text in ["p :[x, y] Q0", "p :[@u] Q(@u)", "p :[$a, x] Q(x)"]:
            g = f(text)
            assert parse_formula(print_formula(g), {"c"}) == g


def _premises(g):
    """The antecedents of the implication chain ``g``."""
    out = []
    while isinstance(g, Impl):
        out.append(g.left)
        g = g.right
    return out


class TestSharing:
    """One parse returns each repeated subformula and subterm as one
    object, and ``~A`` as ``neg(A)``."""

    def test_repeated_tails_are_one_object(self):
        # cases-3: premises l0 -> l1 -> l2 -> Q0, one per sign choice.
        premises = _premises(f(cases(3)))
        assert len(premises) == 8
        # Premises 0 and 4 differ only in the sign of P0, so their tails
        # P1 -> P2 -> Q0 are one object; so are the tails P2 -> Q0 of 0, 2, 4, 6.
        assert premises[0].right is premises[4].right
        assert len({id(p.right.right) for p in premises[::2]}) == 1
        assert premises[0].right is not premises[1].right
        # No two occurrences of equal subformulas are distinct objects.
        occurrences = list(subformulas(f(cases(3))))
        assert len({id(g) for g in occurrences}) == len(set(occurrences))

    def test_repeated_terms_are_one_object(self):
        g = f("(p * c) :[x] Q(x) -> (p * c) + !(p * c) : Q(x)")
        left, right = g.left.term, g.right.term
        assert left is right.left is right.right.inner
        assert g.left.body is g.right.body
        terms = [t for h in subformulas(g) if isinstance(h, Assert) for t in subterms(h.term)]
        assert len({id(t) for t in terms}) == len(set(terms))

    def test_cs_entries_share(self):
        cs = parse_cs("const c, d. c : Q0 -> Q1 -> Q0. "
                      "d : (Q0 -> Q1 -> Q0) -> Q2 -> Q0 -> Q1 -> Q0.")
        (_, first), (_, second) = cs.concrete
        assert first is second.left is second.right.right

    def test_negation_is_neg(self):
        g = f("~Q0 -> ~Q0 -> Q0 -> ~~Q0")
        a, b, c, d = _premises(g) + [g.right.right.right]
        assert a is b is neg(c) and d is neg(a) and d.body is a

    def test_parses_do_not_share(self):
        # Sharing is per parse: no table outlives it.
        first, second = f("Q0 -> Q1"), f("Q0 -> Q1")
        assert first == second and first is not second and first.left is not second.left


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        [
            "~" * 2000 + "Q0",
            "(" * 400 + "Q0" + ")" * 400,
            "forall x. " * 400 + "Q0",
            "p : " * 400 + "Q0",
            " -> ".join(["Q0"] * 2000),
            "(" * 2000 + "p" + ")" * 2000 + " : Q0",
            "!" * 2000 + "p : Q0",
            " + ".join(["p"] * 2000) + " : Q0",
            " * ".join(["p"] * 2000) + " : Q0",
        ],
        ids=["neg", "parens", "forall", "assert", "impl", "term-parens", "bang", "sum", "app"],
    )
    def test_too_deep_is_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_formula(text)

    @pytest.mark.parametrize(
        "text",
        [
            "~" * MAX_DEPTH + "Q0",
            "(" * MAX_DEPTH + "Q0" + ")" * MAX_DEPTH,
            " -> ".join(["Q0"] * (MAX_DEPTH + 1)),
            " + ".join(["p"] * (MAX_DEPTH + 1)) + " : Q0",
            "(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1) + " : Q0",
        ],
        ids=["neg", "parens", "impl", "sum", "term-parens"],
    )
    def test_at_the_limit(self, text):
        # Input at the limit parses, prints back and hashes.
        g = parse_formula(text)
        assert print_formula(parse_formula(print_formula(g))) == print_formula(g)
        assert hash(g) == hash(parse_formula(text))

    def test_chains_are_iterative(self):
        # 257 nested implications: the chain-256 goal of the benchmark.
        text = " -> ".join(["P0", *(f"(P{i} -> P{i + 1})" for i in range(256)), "P256"])
        g = f(text)
        assert print_formula(g) == text
        for _ in range(257):
            assert isinstance(g, Impl)
            g = g.right
        assert isinstance(parse_term(" + ".join(["p"] * 200)), Term)

    def test_deep_formula_prints_in_a_fresh_interpreter(self):
        # Formulas and terms built through the API may nest deeper than
        # any parsed one; printing and repr walk them with a stack.
        script = textwrap.dedent("""
            from folp import Impl, Neg, Open, Pred, Sum, TermVar, print_formula, print_term
            goal = Pred("Q0")
            for i in reversed(range(1000)):
                goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
            goal = Impl(Pred("P0"), goal)
            text = " -> ".join(["P0", *(f"(P{i} -> P{i + 1})" for i in range(1000)), "Q0"])
            assert str(goal) == print_formula(goal) == print_formula(goal, {}) == text
            assert repr(goal).startswith("Impl(left=Pred(name='P0', args=()), right=Impl(")
            assert repr(goal).count("Impl(") == 2001
            assert repr(goal) in repr(Open((Neg(goal),), "saturated"))
            t = TermVar("p")
            for i in range(2000):
                t = Sum(t, TermVar(f"q{i}"))
            assert str(t) == print_term(t) == "+".join(["p", *(f"q{i}" for i in range(2000))])
        """)
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
