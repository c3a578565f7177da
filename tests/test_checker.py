"""Independent proof verification: accepts search output, rejects
single-edit corruptions with the precise violated condition."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from folp import (
    Impl,
    Pred,
    Proved,
    SearchBudget,
    check_proof,
    parse_formula,
    prove,
)
from folp.fileio import parse_proof, proof_to_dict

ROOT = Path(__file__).resolve().parent.parent


def proof_dict(goal_text, cs):
    goal = parse_formula(goal_text, cs.constants)
    outcome = prove(goal, cs)
    assert isinstance(outcome, Proved), goal_text
    return goal, proof_to_dict(outcome.tree)


def nodes_of(data):
    """All node dicts in DFS order."""
    out = []
    stack = [data["tree"]]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(reversed(n["children"]))
    return out


def find_rule(data, name, which=0):
    hits = [n for n in nodes_of(data) if n["rule"] and n["rule"]["name"] == name]
    return hits[which]


def reject(data, cs, goal=None):
    verdict = check_proof(parse_proof(data, cs.constants), cs, expected_goal=goal)
    assert not verdict.accepted
    return verdict


class TestAcceptance:
    def test_accepts_search_output(self, corpus_cs):
        goal, data = proof_dict("p : Q0 -> Q0", corpus_cs)
        verdict = check_proof(parse_proof(data, corpus_cs.constants), corpus_cs, goal)
        assert verdict.accepted

    def test_goal_mismatch(self, corpus_cs):
        goal, data = proof_dict("p : Q0 -> Q0", corpus_cs)
        other = parse_formula("Q0 -> Q0", corpus_cs.constants)
        verdict = reject(data, corpus_cs, goal=other)
        assert verdict.condition == "goal-mismatch"

    def test_open_leaf_rejected(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        leaf = [n for n in nodes_of(data) if not n["children"]][0]
        leaf["closure"] = None
        assert reject(data, corpus_cs).condition == "open-leaf"

    def test_non_root_node_without_rule_rejected(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        node = [n for n in nodes_of(data) if n["rule"]][-1]
        node["rule"] = None
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (node["id"], "structural:roots")

    def test_deep_proof(self, corpus_cs):
        # chain-330, P0 -> (P0 -> P1) -> ... -> (P329 -> P330) -> P330, is
        # built directly: it nests deeper than the parser accepts.  Its
        # proof is about 1,000 levels deep.
        n = 330
        goal = Pred(f"P{n}")
        for i in reversed(range(n)):
            goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
        goal = Impl(Pred("P0"), goal)
        budget = SearchBudget(max_nodes=100_000, max_depth=5_000)
        outcome = prove(goal, corpus_cs, budget)
        assert isinstance(outcome, Proved)
        assert len(outcome.tree.nodes()) == 1323
        assert check_proof(outcome.tree, corpus_cs, expected_goal=goal).accepted

    def test_chain_600_in_a_fresh_interpreter(self):
        # chain-600, built directly, nests about 600 formula levels, far
        # past the parser's limit; hashing and comparing it must not
        # recurse.  It runs in
        # a fresh interpreter, as the CLI would, with the default stack.
        script = textwrap.dedent("""
            from folp import Impl, Pred, Proved, SearchBudget, check_proof, prove
            from folp.fileio import read_cs_file
            cs = read_cs_file(%r)
            def chain(n):
                goal = Pred(f"P{n}")
                for i in reversed(range(n)):
                    goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
                return Impl(Pred("P0"), goal)
            goal = chain(600)
            outcome = prove(goal, cs, SearchBudget(max_nodes=100_000, max_depth=5_000))
            assert isinstance(outcome, Proved), outcome
            assert check_proof(outcome.tree, cs, expected_goal=goal).accepted
            # A separately built goal is compared by structure.
            assert check_proof(outcome.tree, cs, expected_goal=chain(600)).accepted
        """ % str(ROOT / "tests" / "data" / "corpus.cs"))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr

    def test_bad_contradiction_witness(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        leaf = [n for n in nodes_of(data) if n["closure"]][0]
        leaf["closure"]["with"] = 999
        assert reject(data, corpus_cs).condition == "closure-witness"

    def test_bad_cs_closure(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        leaf = [n for n in nodes_of(data) if n["closure"]][0]
        leaf["closure"] = {"kind": "cs", "constant": "c"}
        assert reject(data, corpus_cs).condition == "closure-cs"


class TestRuleMutants:
    """One single-edit mutant per rule, each rejected for the right reason."""

    def test_fneg(self, corpus_cs):
        _, data = proof_dict("Q0 -> ~~Q0", corpus_cs)
        find_rule(data, "FNeg")["formula"] = "Q1"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"

    def test_timp(self, corpus_cs):
        _, data = proof_dict("(Q0 -> Q1) -> (Q1 -> Q2) -> Q0 -> Q2", corpus_cs)
        parent = [
            n for n in nodes_of(data)
            if len(n["children"]) == 2
            and n["children"][0]["rule"]["name"] == "TImp"
        ][0]
        del parent["children"][1]  # drop the right disjunct: unsound
        assert reject(data, corpus_cs).condition == "branching-structure"

    def test_fimp(self, corpus_cs):
        _, data = proof_dict("Q0 -> Q0", corpus_cs)
        find_rule(data, "FImp")["formula"] = "Q1"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"

    def test_tforall(self, corpus_cs):
        _, data = proof_dict("forall x. Q(x) -> forall y. Q(y)", corpus_cs)
        find_rule(data, "TForall")["formula"] = "R(@u0)"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"

    def test_fexists(self, corpus_cs):
        _, data = proof_dict("exists x. Q(x) -> exists y. Q(y)", corpus_cs)
        find_rule(data, "FExists")["formula"] = "~R(@u0)"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"

    def test_texists_freshness(self, corpus_cs):
        _, data = proof_dict(
            "exists x. exists y. S(x, y) -> exists y. exists x. S(x, y)",
            corpus_cs,
        )
        node = find_rule(data, "TExists", which=1)
        node["rule"]["param"] = "@u0"  # already on the branch
        assert reject(data, corpus_cs).condition == "freshness"

    def test_fforall_freshness(self, corpus_cs):
        _, data = proof_dict(
            "forall x. forall y. S(x, y) -> forall y. forall x. S(x, y)",
            corpus_cs,
        )
        node = find_rule(data, "FForall", which=1)
        node["rule"]["param"] = "@u0"
        assert reject(data, corpus_cs).condition == "freshness"

    def test_tcolon(self, corpus_cs):
        _, data = proof_dict("p : Q0 -> Q0", corpus_cs)
        node = find_rule(data, "TColon")
        # Retarget the premise at a node that is not an assertion.
        node["rule"]["premises"] = [1]
        assert reject(data, corpus_cs).condition == "premise-shape"

    def test_fplus(self, corpus_cs):
        _, data = proof_dict("p : Q0 -> (p + q) : Q0", corpus_cs)
        find_rule(data, "FPlus")["formula"] = "~q : Q1"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"

    def test_fdot(self, corpus_cs):
        _, data = proof_dict(
            "p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1", corpus_cs
        )
        for node in nodes_of(data):
            if node["rule"] and node["rule"]["name"] == "FDot":
                node["rule"]["cut"] = "Q(@u9)"  # parameter outside the window
        assert reject(data, corpus_cs).condition == "par-subset"

    def test_fbang(self, corpus_cs):
        _, data = proof_dict("p : Q0 -> !p : p : Q0", corpus_cs)
        node = find_rule(data, "FBang")
        node["rule"]["premises"] = [1]  # root is not a !-assertion
        assert reject(data, corpus_cs).condition == "premise-shape"

    def test_ctr(self, corpus_cs):
        _, data = proof_dict(
            "forall x. forall y. (p :[x, y] Q(x) -> p :[x] Q(x))", corpus_cs
        )
        node = find_rule(data, "Ctr")
        node["rule"]["param"] = "@u0"  # already in the premise window
        assert reject(data, corpus_cs).condition == "ctr-param-in-window"

    def test_exp(self, corpus_cs):
        _, data = proof_dict(
            "forall x. forall y. (p :[x] Q(x) -> p :[x, y] Q(x))", corpus_cs
        )
        node = find_rule(data, "Exp")
        node["rule"]["param"] = "@u0"  # occurs in the asserted formula
        assert reject(data, corpus_cs).condition == "exp-side-condition"

    def test_ins(self, example1_cs):
        goal = parse_formula(
            "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
            example1_cs.constants,
        )
        outcome = prove(goal, example1_cs)
        assert isinstance(outcome, Proved)
        data = proof_to_dict(outcome.tree)
        node = find_rule(data, "Ins")
        node["rule"]["param"] = "@z9"  # does not occur in the body
        assert reject(data, example1_cs).condition == "ins-no-param"

    def test_genx(self, corpus_cs):
        _, data = proof_dict("p : Q0 -> gen<x>(p) : forall x. Q0", corpus_cs)
        find_rule(data, "GenX")["formula"] = "~q : Q0"
        assert reject(data, corpus_cs).condition == "conclusion-mismatch"


ALL_RULE_MUTANTS = [
    name for name in dir(TestRuleMutants) if name.startswith("test_")
]


def test_every_rule_has_a_mutant():
    assert len(ALL_RULE_MUTANTS) == 15
