"""Proof search: the goal corpus, budgets, and non-verdict outcomes."""

import textwrap
import time
from itertools import chain

import pytest

from folp import (
    Contradiction,
    CsClosure,
    Exhausted,
    Open,
    Proved,
    SearchBudget,
    check_proof,
    elem_set,
    par_set,
    parse_formula,
    prove,
)
from folp import search
from conftest import (
    CORPUS_GOALS, DATA, FAMILY_BUDGET, SCHEME_GOALS, app, cases, run_fresh, sum_family,
)
from conftest import chain as chain_goal


class TestGoldenProof:
    def test_example_goal(self, example1_cs):
        goal = parse_formula(
            "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
            example1_cs.constants,
        )
        start = time.monotonic()
        outcome = prove(goal, example1_cs)
        elapsed = time.monotonic() - start
        assert isinstance(outcome, Proved)
        assert elapsed < 5.0
        rules = {n.rule.name for n in outcome.tree.nodes() if n.rule}
        assert {"FImp", "FForall", "FDot", "Ins", "Exp"} <= rules
        closures = [n.closure for n in outcome.tree.nodes() if n.closure]
        assert sum(isinstance(c, Contradiction) for c in closures) == 1
        assert sum(isinstance(c, CsClosure) for c in closures) == 1
        assert check_proof(outcome.tree, example1_cs, expected_goal=goal).accepted


class TestCorpus:
    @pytest.mark.parametrize("text", CORPUS_GOALS)
    def test_proves_and_checks(self, text, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        outcome = prove(goal, corpus_cs)
        assert isinstance(outcome, Proved), text
        assert check_proof(outcome.tree, corpus_cs, expected_goal=goal).accepted

    def test_scheme_coverage(self):
        assert len(SCHEME_GOALS) == 15
        assert all(len(v) == 3 for v in SCHEME_GOALS.values())


class TestNonVerdicts:
    def test_open_on_non_theorem(self, corpus_cs):
        goal = parse_formula("Q0 -> Q1", corpus_cs.constants)
        outcome = prove(goal, corpus_cs)
        assert isinstance(outcome, Open)
        assert parse_formula("~Q1", corpus_cs.constants) in outcome.branch

    def test_deep_open_branch_in_a_fresh_interpreter(self):
        # chain-1000 with Q0 as the last consequent, built directly,
        # nests about 1,000 formula levels; its saturated branch is
        # returned as formulas, so nothing prints them recursively.
        script = textwrap.dedent("""
            from folp import Impl, Neg, Open, Pred, SearchBudget, prove
            from folp.fileio import read_cs_file
            cs = read_cs_file(%r)
            goal = Pred("Q0")
            for i in reversed(range(1000)):
                goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
            goal = Impl(Pred("P0"), goal)
            outcome = prove(goal, cs, SearchBudget(max_nodes=100_000, max_depth=5_000))
            assert isinstance(outcome, Open), type(outcome).__name__
            assert outcome.branch[0] == Neg(goal) and Neg(Pred("Q0")) in outcome.branch
        """ % str(DATA / "corpus.cs"))
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_open_on_unjustified_assertion(self, corpus_cs):
        outcome = prove(parse_formula("Q0 -> p : Q0", corpus_cs.constants), corpus_cs)
        assert isinstance(outcome, Open)

    def test_exhausted_nodes(self, corpus_cs):
        goal = parse_formula(
            "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
            corpus_cs.constants,
        )
        outcome = prove(goal, corpus_cs, budget=SearchBudget(max_nodes=3))
        assert isinstance(outcome, Exhausted)
        assert outcome.dimension == "max_nodes"

    @pytest.mark.parametrize("text, limits, dimension", [
        # A second delta premise finds the one parameter spent.
        ("(exists x. Q(x)) -> (exists y. R(y)) -> Q1", {"max_params": 1}, "max_params"),
        # A gamma premise has used its one parameter.
        ("(forall x. Q(x)) -> Q1", {"max_params": 1}, "max_params"),
        # A gamma premise whose branch parameter is redundant finds no
        # fresh one left.
        ("(exists x. Q(x)) -> (forall x. Q(x)) -> Q1", {"max_params": 1}, "max_params"),
        ("p : Q0 -> (q * p) : Q1", {"max_cut_candidates": 2}, "max_cut_candidates"),
        (chain_goal(16), {"max_depth": 10}, "max_depth"),
        (chain_goal(16), {"time_limit": 1e-9}, "time_limit"),
        (cases(3), {"max_nodes": 50}, "max_nodes"),
        # The third goal's gamma premise makes no node for the fresh
        # parameter it is refused: the branch stops at its sixth node.
        ("(exists x. Q(x)) -> (forall x. Q(x)) -> Q1", {"max_params": 1, "max_nodes": 6},
         "max_params"),
    ])
    def test_exhausted_dimension(self, text, limits, dimension, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        outcome = prove(goal, corpus_cs, SearchBudget(**limits))
        assert outcome == Exhausted(dimension)

    def test_goal_must_be_sentence(self, corpus_cs):
        with pytest.raises(ValueError):
            prove(parse_formula("Q(x)", corpus_cs.constants), corpus_cs)
        with pytest.raises(ValueError):
            prove(parse_formula("Q(@u)", corpus_cs.constants), corpus_cs)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)


class TestBudgetBoundaries:
    """A budget that equals what a proof uses still proves it, and one
    less is exhausted in that dimension.  cases-3's last node comes from
    a branching step (TImp, refused whole); sum-4's and ``Q0 -> Q1 ->
    Q0``'s from a non-branching one with two conclusions (FPlus, FImp),
    refused before its second node."""

    # (goal, last node's rule, branching, node count, least max_depth that proves)
    PROOFS = [
        (cases(3), "TImp", True, 155, 26),
        (sum_family(4), "FPlus", False, 10, 9),
        ("Q0 -> Q1 -> Q0", "FImp", False, 5, 3),
    ]

    @pytest.mark.parametrize("text, rule, branching, nodes, depth", PROOFS,
                             ids=[text for text, *_ in PROOFS])
    def test_max_nodes(self, text, rule, branching, nodes, depth, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        outcome = prove(goal, corpus_cs, SearchBudget(max_nodes=nodes))
        assert isinstance(outcome, Proved)
        table = outcome.tree.table
        last = table[-1]
        siblings = [n for n in table if n.parent == last.parent and n.rule == last.rule]
        assert (len(table), last.rule.name, len(siblings) > 1) == (nodes, rule, branching)
        assert prove(goal, corpus_cs, SearchBudget(max_nodes=nodes - 1)) == Exhausted("max_nodes")

    @pytest.mark.parametrize("text, rule, branching, nodes, depth", PROOFS,
                             ids=[text for text, *_ in PROOFS])
    def test_max_depth(self, text, rule, branching, nodes, depth, corpus_cs):
        goal = parse_formula(text, corpus_cs.constants)
        outcome = prove(goal, corpus_cs, SearchBudget(max_depth=depth))
        assert isinstance(outcome, Proved) and len(outcome.tree.table) == nodes
        assert prove(goal, corpus_cs, SearchBudget(max_depth=depth - 1)) == Exhausted("max_depth")


class TestDeterminism:
    def test_same_proof_twice(self, corpus_cs):
        goal = parse_formula(
            "p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1", corpus_cs.constants
        )
        a = prove(goal, corpus_cs)
        b = prove(goal, corpus_cs)
        assert isinstance(a, Proved) and isinstance(b, Proved)
        sig_a = [(n.id, str(n.formula)) for n in a.tree.nodes()]
        sig_b = [(n.id, str(n.formula)) for n in b.tree.nodes()]
        assert sig_a == sig_b


class TestHints:
    def test_hint_guides_cut(self, corpus_cs):
        # The hint is offered first among cut candidates; the proof
        # still closes and checks.
        goal = parse_formula(
            "p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1", corpus_cs.constants
        )
        hint = parse_formula("Q0", corpus_cs.constants)
        outcome = prove(goal, corpus_cs, hints=[hint])
        assert isinstance(outcome, Proved)
        cuts = [n.rule.cut for n in outcome.tree.nodes() if n.rule and n.rule.cut]
        assert hint in cuts
        assert check_proof(outcome.tree, corpus_cs, expected_goal=goal).accepted


class TestCutCandidates:
    """Every read of an FDot premise's cut candidates must give the list
    made afresh from the current branch, below branch points too."""

    @staticmethod
    def fresh(s, a, agenda):
        window = {w.name for w in a.window}
        out = []
        for f in chain(s.hints, agenda.antecedents.get(a.body, ()), s.cs_antecedents,
                       agenda.subformulas):
            if f not in out and par_set(f) <= window and not elem_set(f):
                out.append(f)
        return tuple(out[:s.budget.max_cut_candidates])

    @pytest.mark.parametrize("text, limit, hints", [
        # Read below both children of its own applications.
        ("p : Q1 -> q : Q0 -> (c * q) : (Q1 -> Q0)", 32, ()),
        # The same with full lists, into which antecedents move up.
        ("p : Q1 -> q : Q0 -> (c * q) : (Q1 -> Q0)", 6, ()),
        # An antecedent new to a full list pushes the last candidate out.
        ("q : ((Q0 -> Q2) -> Q2) -> p : (Q0 -> ~Q2 -> Q0) -> (q * q) : Q2", 4, ()),
        # Hints come first.
        ("p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1", 4, ("Q1", "Q0")),
        # Candidates limited to the window's parameters.
        ("p : forall x. A(x) -> forall x. (c * p) :[x] A(x)", 32, ()),
    ])
    def test_every_read_is_the_fresh_list(self, text, limit, hints, corpus_cs, monkeypatch):
        made = search._Search._cut_candidates

        def checked(s, a, agenda):
            out = made(s, a, agenda)
            assert out == self.fresh(s, a, agenda)
            return out

        monkeypatch.setattr(search._Search, "_cut_candidates", checked)
        goal = parse_formula(text, corpus_cs.constants)
        prove(goal, corpus_cs, SearchBudget(max_nodes=3_000, max_cut_candidates=limit),
              [parse_formula(h, corpus_cs.constants) for h in hints])


class TestAgenda:
    GOALS = {
        "cases-3": cases(3),
        "app-8": app(8),
        "chain-16": chain_goal(16),
        **{f"corpus-{i}": text for i, text in enumerate(CORPUS_GOALS)},
    }

    @pytest.mark.parametrize("name", GOALS)
    def test_closing_nodes_are_not_noted(self, name, corpus_cs, monkeypatch):
        # No rule is applied on a closed branch, so a node that closes its
        # branch never joins the agenda: one note per open node, in order.
        noted = []
        note = search._Agenda.note

        def counted(agenda, nid, f):
            noted.append(nid)
            note(agenda, nid, f)

        monkeypatch.setattr(search._Agenda, "note", counted)
        goal = parse_formula(self.GOALS[name], corpus_cs.constants)
        outcome = prove(goal, corpus_cs, FAMILY_BUDGET)
        assert isinstance(outcome, Proved)
        assert noted == [n.id for n in outcome.tree.table if n.closure is None]
