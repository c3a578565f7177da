"""Independent proof verification: accepts search output, rejects
single-edit corruptions with the precise violated condition."""

import copy
import json
import pickle
import textwrap

import pytest

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
from folp.tableau import ProofNode, ProofTree
from conftest import CORPUS_GOALS, DATA, FAMILY_BUDGET, chain, replace, run_fresh


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

    def test_chain_256_tree_is_flat(self, corpus_cs):
        # A proof tree is one table of nodes, so the generic protocols do
        # not recurse once per level of the tree (1,027 nodes here).
        goal = parse_formula(chain(256), corpus_cs.constants)
        tree, again = (prove(goal, corpus_cs, FAMILY_BUDGET).tree for _ in range(2))
        assert repr(tree).startswith("ProofTree(roots=[")
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree
        assert tree == again and tree is not again

    def test_chain_600_in_a_fresh_interpreter(self):
        # chain-600 and chain-1000, built directly, nest about 600 and
        # 1,000 formula levels, far past the parser's limit; hashing,
        # comparing, folding atom facts, searching and checking them must
        # not recurse.  They run in a fresh interpreter, as the CLI would,
        # with the default stack.
        script = textwrap.dedent("""
            from folp import Impl, Pred, Proved, SearchBudget, check_proof, prove
            from folp.fileio import read_cs_file
            cs = read_cs_file(%r)
            def chain(n):
                goal = Pred(f"P{n}")
                for i in reversed(range(n)):
                    goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
                return Impl(Pred("P0"), goal)
            for n in (600, 1000):
                goal = chain(n)
                outcome = prove(goal, cs, SearchBudget(max_nodes=100_000, max_depth=5_000))
                assert isinstance(outcome, Proved), (n, outcome)
                assert check_proof(outcome.tree, cs, expected_goal=goal).accepted
                # A separately built goal is compared by structure.
                assert check_proof(outcome.tree, cs, expected_goal=chain(n)).accepted
        """ % str(DATA / "corpus.cs"))
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_bad_contradiction_witness(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        leaf = [n for n in nodes_of(data) if n["closure"]][0]
        leaf["closure"]["with"] = 999
        assert reject(data, corpus_cs).condition == "closure-witness"

    @pytest.mark.parametrize("goal", ["Q0 -> Q0", "c : (Q0 -> Q1 -> Q0)"])
    def test_closure_mark_names_another_node(self, goal, corpus_cs):
        # A contradiction mark and a CS closure mark alike must name the
        # leaf they close.  The reader always names it, so the tree is
        # edited in memory.
        tree = prove(parse_formula(goal, corpus_cs.constants), corpus_cs).tree
        leaf = [n for n in tree.nodes() if n.closure][0]
        leaf.closure = replace(leaf.closure, node_id=999)
        verdict = check_proof(tree, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (leaf.id, "closure-witness")

    def test_bad_cs_closure(self, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        leaf = [n for n in nodes_of(data) if n["closure"]][0]
        leaf["closure"] = {"kind": "cs", "constant": "c"}
        assert reject(data, corpus_cs).condition == "closure-cs"


class TestInstanceReuse:
    """The checker derives a rule instance's conclusions once for the
    nodes that cite it, except where the result depends on the branch."""

    @pytest.mark.parametrize("name, goal", [
        ("TExists", "exists x. exists y. S(x, y) -> exists y. exists x. S(x, y)"),
        ("FForall", "forall x. forall y. S(x, y) -> forall y. forall x. S(x, y)"),
    ])
    def test_fresh_instance_cited_twice(self, name, goal, corpus_cs):
        # A second node below the first, citing the same instance: its
        # parameter now occurs on the branch.
        _, data = proof_dict(goal, corpus_cs)
        node = find_rule(data, name)
        copy = {**node, "id": max(n["id"] for n in nodes_of(data)) + 1}
        node["children"], node["closure"] = [copy], None
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (copy["id"], "freshness")

    @pytest.mark.parametrize("text", CORPUS_GOALS)
    def test_equal_distinct_instances(self, text, corpus_cs):
        # Every node, siblings and consecutive conclusions included,
        # cites its own copy of its rule instance.
        goal = parse_formula(text, corpus_cs.constants)
        outcome = prove(goal, corpus_cs)
        nodes = outcome.tree.nodes()
        for node in nodes:
            if node.rule is not None:
                node.rule = replace(node.rule)
        assert len({id(n.rule) for n in nodes}) == len(nodes)
        assert check_proof(outcome.tree, corpus_cs, expected_goal=goal).accepted


    def test_instance_cited_on_another_branch(self, corpus_cs):
        # Node 8, ~Q0, is FNeg of node 6 on TImp's left branch.  A copy of
        # it below the right branch's Q1 cites the same instance, whose
        # premise is not on that branch.
        _, data = proof_dict("(~~Q0 -> Q1) -> Q0 -> Q1", corpus_cs)
        nodes = {n["id"]: n for n in nodes_of(data)}
        assert (nodes[8]["formula"], nodes[8]["rule"]) == (
            "~Q0", {"name": "FNeg", "premises": [6]})
        assert nodes[7]["formula"] == "Q1" and nodes[4]["formula"] == "Q0"
        copy = {**nodes[8], "id": 9, "closure": {"kind": "contradiction", "with": 4}}
        nodes[7]["children"], nodes[7]["closure"] = [copy], None
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition, verdict.message) == (
            9, "premise-missing", "node 6 is not on the branch")

    def test_conclusion_copied_to_the_sibling_branch(self, corpus_cs):
        # At each branching node of the corpus proofs, each conclusion
        # whose premise lies below one child, copied with a fresh id below
        # the last leaf of the other child, cites a premise that is not on
        # its branch.  The copy cites the conclusion's rule instance, which
        # the checker has already derived when the conclusion is on the left.
        cases = 0
        for text in CORPUS_GOALS:
            _, data = proof_dict(text, corpus_cs)
            fresh = max(n["id"] for n in nodes_of(data)) + 1
            for node in nodes_of(data):
                if len(node["children"]) != 2:
                    continue
                for side, other in (node["children"], node["children"][::-1]):
                    below = nodes_of({"tree": side})
                    ids = {n["id"] for n in below}
                    leaf_id = nodes_of({"tree": other})[-1]["id"]
                    for conclusion in below:
                        if not (conclusion["rule"] and conclusion["rule"]["premises"][0] in ids):
                            continue
                        copied = json.loads(json.dumps(data))
                        leaf = {n["id"]: n for n in nodes_of(copied)}[leaf_id]
                        copy = {**conclusion, "id": fresh, "children": [],
                                "closure": leaf["closure"]}
                        leaf["children"], leaf["closure"] = [copy], None
                        verdict = reject(copied, corpus_cs)
                        assert (verdict.node_id, verdict.condition) == (fresh, "premise-missing")
                        cases += 1
        assert cases == 7  # in 3 of the 55 proofs

class TestStructure:
    """Conditions on the tree's shape and labels, each pinned to the node
    it is reported at.  Nodes 1 to 8 are those of the proof of
    ``(~~Q0 -> Q1) -> Q0 -> Q1``: node 5 branches into 6, with child 8,
    and 7; 8 and 7 are the leaves."""

    GOAL = "(~~Q0 -> Q1) -> Q0 -> Q1"

    def node(self, data, nid):
        return [n for n in nodes_of(data) if n["id"] == nid][0]

    def test_duplicate_id_on_two_branches(self, corpus_cs):
        _, data = proof_dict(self.GOAL, corpus_cs)
        self.node(data, 8)["id"] = 7  # ~Q0 on the left, Q1 on the right
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (7, "structural:duplicate-id")

    def test_arity(self, corpus_cs):
        tree = prove(parse_formula(self.GOAL, corpus_cs.constants), corpus_cs).tree
        index = [n.id for n in tree.nodes()].index(5)
        tree.table.append(ProofNode(9, tree.table[index].formula, None, index))
        verdict = check_proof(tree, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (5, "structural:arity")

    def test_no_roots(self, corpus_cs):
        tree = prove(parse_formula(self.GOAL, corpus_cs.constants), corpus_cs).tree
        verdict = check_proof(ProofTree(roots=[], table=tree.table), corpus_cs)
        assert (verdict.node_id, verdict.condition) == (None, "structural:no-roots")

    def test_empty_table(self, corpus_cs):
        verdict = check_proof(ProofTree([parse_formula("~Q0")], []), corpus_cs)
        assert (verdict.node_id, verdict.condition) == (None, "structural:roots")

    # Table indexes 0 to 7 hold nodes 1 to 6, 8 and 7.
    @pytest.mark.parametrize("index, parent", [
        (0, 0),  # the first node has a parent
        (3, None),  # a later one has none
        (3, 3),  # its own
        (3, 5),  # a later node's
        (3, -1),  # not an index of the table
    ])
    def test_parent(self, index, parent, corpus_cs):
        tree = prove(parse_formula(self.GOAL, corpus_cs.constants), corpus_cs).tree
        assert [n.id for n in tree.table] == [1, 2, 3, 4, 5, 6, 8, 7]
        node = tree.table[index] = replace(tree.table[index], parent=parent)
        verdict = check_proof(tree, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (node.id, "structural:parent")

    def test_not_depth_first(self, corpus_cs):
        # Node 7 moved between node 6 and its child 8: every parent comes
        # before its children, but 8's parent has left the branch.
        tree = prove(parse_formula(self.GOAL, corpus_cs.constants), corpus_cs).tree
        table = tree.table
        table[6:] = [table[7], replace(table[6], parent=5)]
        table[6] = replace(table[6], parent=4)
        assert [(n.id, n.parent) for n in table[4:]] == [(5, 3), (6, 4), (7, 4), (8, 5)]
        verdict = check_proof(tree, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (8, "structural:order")

    # Each edit of the file of the proof of Q0 -> Q0 leaves the tree
    # well formed, and breaks the root chain at its first node.
    @pytest.mark.parametrize("edit", ["relabel", "rule", "branch"])
    def test_root_chain(self, edit, corpus_cs):
        goal, data = proof_dict("Q0 -> Q0", corpus_cs)
        root = data["tree"]
        if edit == "relabel":
            # A proof of Q0 -> Q0 given as one of Q1.
            data["roots"] = ["~Q1"]
            goal = parse_formula("Q1")
        elif edit == "rule":
            root["rule"] = {"name": "FNeg", "premises": [1]}
        else:
            # Two roots, the first of which has two children.
            goal = None
            data["roots"].append("Q0")
            second = root["children"][0]
            second["rule"] = None
            root["children"].append({**second, "id": 4, "rule": {"name": "FImp", "premises": [1]},
                                     "children": [], "closure": None})
        verdict = reject(data, corpus_cs, goal)
        assert (verdict.node_id, verdict.condition) == (1, "structural:roots")

    @pytest.mark.parametrize("text, condition", [
        ("Q(x)", "structural:open-formula"),
        ("Q($a)", "structural:domain-element"),
    ])
    def test_label(self, text, condition, corpus_cs):
        _, data = proof_dict(self.GOAL, corpus_cs)
        self.node(data, 8)["formula"] = text
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (8, condition)

    def test_closure_kind(self, corpus_cs):
        tree = prove(parse_formula(self.GOAL, corpus_cs.constants), corpus_cs).tree
        leaf = [n for n in tree.nodes() if n.id == 8][0]
        leaf.closure = "contradiction"
        verdict = check_proof(tree, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (8, "closure-kind")


class TestRuleFields:
    """A ``param``, ``cut`` or ``var`` on a rule that does not take it is
    rejected, on a conclusion node and on a branching rule's sibling alike.
    The left sibling is checked first, so a field on the right one is
    caught as a sibling that cites another instance."""

    @pytest.mark.parametrize("part, value", [("param", "@u0"), ("cut", "Q0"), ("var", "x")])
    def test_fimp_conclusion(self, part, value, corpus_cs):
        _, data = proof_dict("Q0 -> Q0", corpus_cs)
        node = find_rule(data, "FImp")
        node["rule"][part] = value
        verdict = reject(data, corpus_cs)
        assert (verdict.node_id, verdict.condition) == (node["id"], "rule-field")

    @pytest.mark.parametrize("part, value", [("param", "@u0"), ("cut", "Q0"), ("var", "x")])
    @pytest.mark.parametrize("which, condition", [(0, "rule-field"), (1, "branching-structure")])
    def test_timp_sibling(self, part, value, which, condition, corpus_cs):
        _, data = proof_dict("(Q0 -> Q1) -> (Q1 -> Q2) -> Q0 -> Q2", corpus_cs)
        node = find_rule(data, "TImp", which)
        node["rule"] = {**node["rule"], part: value}
        verdict = reject(data, corpus_cs)
        assert verdict.condition == condition
        assert verdict.node_id == find_rule(data, "TImp")["id"]


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
