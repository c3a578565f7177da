"""File formats: CS files, model JSON, proof JSON round trips."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from folp import (
    Assert,
    FileFormatError,
    Formula,
    Neg,
    ParseError,
    ProofTree,
    Proved,
    SearchBudget,
    Sum,
    check_proof,
    parse_cs,
    parse_formula,
    parse_proof,
    print_formula,
    proof_to_dict,
    prove,
    read_proof_file,
    write_model,
    write_proof_file,
)
from folp import fileio
from folp.fileio import MAX_WRITE_DEPTH, parse_model, read_cs_file, read_model_file
from folp.parser import MAX_DEPTH
from conftest import (
    CORPUS_GOALS,
    DATA,
    FAMILY_BUDGET,
    app,
    cases,
    chain,
    echain,
    model_paths,
    qchain,
    random_formula,
    random_sentence,
    random_window,
    replace,
    sum_family,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _proof(text, cs):
    goal = parse_formula(text, cs.constants)
    outcome = prove(goal, cs, FAMILY_BUDGET)
    assert isinstance(outcome, Proved)
    return goal, outcome.tree


# The corpus proofs and some scaled-family proofs, by test id.
PROOFS = {
    **{f"corpus-{i}": text for i, text in enumerate(CORPUS_GOALS)},
    "chain-32": chain(32),
    "cases-3": cases(3),
    "sum-32": sum_family(32),
    "sum-window": "forall y. (p :[y] Q(y) -> (p + (q + r) + p) :[y] Q(y))",
    "app-8": app(8),
}


def _depth(tree) -> int:
    """The most nodes on a path from the first node of ``tree`` to a leaf."""
    depths: list[int] = []
    for node in tree.table:
        depths.append(1 if node.parent is None else depths[node.parent] + 1)
    return max(depths)


def _dumped(tree) -> str:
    """The reference text of a proof file: the stdlib's encoder on
    ``proof_to_dict``, given room on the stack for a deep tree."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5_000))
    try:
        return json.dumps(proof_to_dict(tree), check_circular=False) + "\n"
    finally:
        sys.setrecursionlimit(limit)


# Members of each family, on both sides of the writer's depth bound
# where the parser reads one past it.
FAMILY_MEMBERS = {
    f"{name}-{n}": family(n)
    for name, family, sizes in [
        ("chain", chain, (1, 2, 3, 8, 32, 64, 128, 163, 164)),
        ("qchain", qchain, (1, 2, 8, 16, 64, 121, 122)),
        ("echain", echain, (1, 2, 8, 16, 64, 121, 122)),
        ("cases", cases, (1, 2, 3, 4)),
        ("sum", sum_family, (1, 2, 8, 64, 128, 256)),
        ("app", app, (1, 2, 8, 16, 32, 64)),
    ]
    for n in sizes
}


def _folp(*args):
    """Run the CLI in a fresh interpreter, as a user would: the depth the
    JSON decoder can read depends on the stack below it."""
    path_var = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "folp.cli", *args],
                          env={**os.environ, "PYTHONPATH": path_var},
                          capture_output=True, text=True)


def _node_formulas_parsed_one_by_one(data, decls):
    """Node id -> ``parse_formula`` of the node's text, with the roots'
    arities: the reference reading, with no lookup."""
    arities: dict[str, int] = {}
    for text in data["roots"]:
        parse_formula(text, decls, arities)
    out = {}
    stack = [data["tree"]]
    while stack:
        node = stack.pop()
        out[node["id"]] = parse_formula(node["formula"], decls, arities)
        stack.extend(node["children"])
    return out


def _respell(data, spell, roots=True, nodes=True):
    """A copy of a proof document with formula texts rewritten by ``spell``."""
    def node(n):
        return {**n, "formula": spell(n["formula"]) if nodes else n["formula"],
                "children": [node(c) for c in n["children"]]}

    return {"roots": [spell(t) if roots else t for t in data["roots"]],
            "tree": node(data["tree"])}


def _negated_root(shape, levels):
    """A root and its negation, the negation nested ``levels`` deep."""
    if shape == "impl":  # ~(root) is two levels deeper than the root
        root = "Q0 -> " + "~" * (levels - 3) + "Q1"
        return root, f"~({root})"
    root = "~" * (levels - 1) + "Q0"
    return root, "~" + root


def _one_node(root, text):
    return {"roots": [root], "tree": {"id": 1, "formula": text, "rule": None,
                                      "children": [], "closure": None}}


def _chain_of_nodes(roots, texts):
    """A proof document whose nodes, one below the other, carry ``texts``."""
    tree = None
    for i, text in reversed(list(enumerate(texts, 1))):
        tree = {"id": i, "formula": text, "rule": None,
                "children": [tree] if tree else [], "closure": None}
    return {"roots": roots, "tree": tree}


def _texts_near(root):
    """Texts a proof of ``root`` carries, and near misses of them: each
    subformula, its negation as printed and spelled otherwise, an
    implication from it, and each ``FPlus`` summand assertion under its
    own window and under another."""
    memo = {}
    print_formula(root, memo)
    rng = random.Random(print_formula(root))
    for g in [g for g in memo if isinstance(g, Formula)]:
        s = memo[g]
        yield from (s, print_formula(Neg(g)), "~" + s, f"~({s})", f"~ {s}", f"~ {s} ",
                    "~~" + s, f"~~({s})", f"~~{s} ", f"~{s} -> Q1", f"({s})")
        if isinstance(g, Assert) and isinstance(g.term, Sum):
            for u in (g.term.left, g.term.right):
                for window in (g.window, random_window(rng)):
                    yield print_formula(Assert(u, window, g.body))
                    yield print_formula(Neg(Assert(u, window, g.body)))


SPELLINGS = {
    "as-printed": lambda t: t,
    "parens": lambda t: f"({t})",
    "spacing": lambda t: "  " + t.replace(" -> ", "->").replace(" : ", " :  ") + " ",
}


class TestCsFiles:
    def test_full_example(self):
        cs = parse_cs(
            "# comment\n"
            "const c, d.\n"
            "c : forall x. A(x) -> A(x).\n"
            "d : scheme JT.\n"
            "variant-closed.\n"
        )
        assert cs.constants == {"c", "d"}
        assert len(cs.concrete) == 1
        assert cs.schematic == (("d", "JT"),)
        assert cs.variant_closed and not cs.total

    def test_total(self):
        cs = parse_cs("const c.\ntotal.\n")
        assert cs.total

    MALFORMED = [
        ("c : Q0 -> Q1 -> Q0.", "line 1: entry for undeclared constant 'c'"),
        ("const c.\nc : Q0 -> Q1.", "not an axiom instance"),
        # The reader names the line; the CS record would not.
        ("const c.\nc : scheme XX.", "line 2: unknown scheme 'XX'"),
        ("const c.\nc : Q0 -> Q1 -> Q0", "expected '.'"),  # missing terminator
        ("bogus.", "undeclared constant 'bogus'"),
        # An entry that fails with a ")" that closes no "(" before the
        # next "." is reported at that ")"; another entry's ")" moves no
        # error.  Every statement ends at one expected ".".
        ("const q.\nq : forall y. (q :[y] Q1 -> q) : Q1).",
         "in entry for q: 2:36: unmatched ')'"),
        ("const c.\nc : p : Q0 -> Q1 -> ).", "in entry for c: 2:21: unmatched ')'"),
        ("const c, d.\nc : A -> A(x).\nd : (Q0 -> Q1 -> Q0)).",
         "in entry for c: 2:10: predicate A used with arity 1, previously 0"),
        ("const c.\nc : (p  q) : forall x. Q0).", "in entry for c: 2:9: expected ')', found 'q'"),
        # So is an entry whose formula parses and is followed by a ")"
        # that closes no "(" where its "." should be.
        ("const c.\nc : Q0 -> Q1).", "in entry for c: 2:13: unmatched ')'"),
        ("const c.\nc : (Q0 -> Q1)).", "in entry for c: 2:15: unmatched ')'"),
        ("const c.\nc : Q0 -> Q1 Q2.", "2:14: expected '.', found 'Q2'"),
        ("total Q0.", "1:7: expected '.', found 'Q0'"),
        ("variant-closed", "1:15: expected '.', found 'end of input'"),
        ("const c d.", "1:9: expected '.', found 'd'"),
        ("const c,.", "1:9: expected 'LID', found '.'"),
        ("const c.\nc : scheme JT)", "2:14: expected '.', found ')'"),
        ("const c.\n:", "line 2: unexpected ':' in constant specification"),
    ]

    @pytest.mark.parametrize("text, match", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_malformed(self, text, match):
        with pytest.raises(FileFormatError, match=re.escape(match)):
            parse_cs(text)

    @pytest.mark.parametrize("text, message", [
        ("const c.\nc : Q0 -> Q1 Q2.", "2:14: expected '.', found 'Q2'"),
        ("const c.\nc : scheme JT)", "2:14: expected '.', found ')'"),
    ])
    def test_terminator_message_is_whole(self, text, message):
        # Only a formula entry's unmatched ")" gains the entry's context.
        with pytest.raises(FileFormatError) as info:
            parse_cs(text)
        assert str(info.value) == message


class TestCsMemo:
    """``parse_cs`` returns its last record again for the same text."""

    def test_rewritten_file_reads_as_the_new_text(self, tmp_path):
        path = tmp_path / "cs.cs"
        path.write_text("const c.\nc : Q0 -> Q1 -> Q0.\n", encoding="utf-8")
        first = read_cs_file(path)
        path.write_text("const c, d.\nd : scheme JT.\ntotal.\n", encoding="utf-8")
        second = read_cs_file(path)
        assert first.constants == {"c"} and not first.total
        assert second == parse_cs("const c, d.\nd : scheme JT.\ntotal.\n")
        assert second.constants == {"c", "d"} and second.total

    @pytest.mark.parametrize("text, match", TestCsFiles.MALFORMED,
                             ids=[text for text, _ in TestCsFiles.MALFORMED])
    def test_malformed_text_fails_every_time(self, text, match):
        parse_cs("const c.\nc : Q0 -> Q1 -> Q0.\n")
        for _ in range(2):
            with pytest.raises(FileFormatError, match=re.escape(match)):
                parse_cs(text)
        valid = parse_cs("const c.\ntotal.\n")
        with pytest.raises(FileFormatError, match=re.escape(match)):
            parse_cs(text)
        assert parse_cs("const c.\ntotal.\n") == valid

    def test_unchanged_file_is_validated_once(self, monkeypatch):
        from folp import axioms

        parse_cs("const c.\ntotal.\n")  # another text, so corpus.cs is not the last
        calls = []
        match_axiom = axioms.match_axiom

        def counted(f):
            calls.append(f)
            return match_axiom(f)

        monkeypatch.setattr(axioms, "match_axiom", counted)
        first = read_cs_file(DATA / "corpus.cs")
        second = read_cs_file(DATA / "corpus.cs")
        assert len(calls) == 1
        assert second == first and len(first.concrete) == 1


class TestModelFiles:
    def test_round_trip(self):
        data = {
            "domain": ["a"],
            "predicates": {"Q0": [[]]},
            "evidence": [{"term": "p", "formulas": ["Q0"]}],
        }
        model = parse_model(data)
        assert write_model(model) == data

    @pytest.mark.parametrize("path", model_paths(), ids=lambda p: p.name)
    def test_shipped_files_round_trip(self, path, corpus_cs):
        # Several formulas per term, written back in the order read.
        model = read_model_file(path, corpus_cs.constants)
        assert json.dumps(write_model(model), indent=2) + "\n" == path.read_text()

    MALFORMED = [
        ({"domain": [], "predicates": {}, "evidence": []}, "must be a non-empty list"),
        # An element listed twice, or one that $name cannot write.
        ({"domain": ["a", "a"], "predicates": {}, "evidence": []}, "not a unique identifier"),
        ({"domain": ["a", "1"], "predicates": {}, "evidence": []}, "not a unique identifier"),
        ({"domain": ["a"], "predicates": {"Q": [["b"]]}, "evidence": []},
         "element 'b' not in the domain"),
        ({"domain": ["a"], "predicates": {},
          "evidence": [{"term": "p", "formulas": ["Q(@u)"]}]}, "contains parameters"),
        ({"domain": ["a"], "predicates": {},
          "evidence": [{"term": "p", "formulas": []}, {"term": "p", "formulas": []}]},
         "duplicate evidence entry for term p"),
        ({"domain": ["a"], "predicates": {"Q": []},
          "evidence": [{"term": "p", "formulas": ["forall x. Q(x)", "forall y. Q(y)"]}]},
         "twice, up to bound-variable renaming"),
        # Wrongly shaped values.
        ([1], "bad model"),
        ({"domain": ["a"], "predicates": ""}, "bad model"),
        ({"domain": ["a"], "evidence": 0}, "bad model"),
        ({"domain": ["a"], "evidence": [0]}, "bad evidence entry 0"),
        ({"domain": ["a"], "evidence": [{"term": "p", "formulas": 0}]},
         "must be a JSON list"),
        ({"domain": ["a"], "predicates": {"Q": [0]}}, "must be a JSON list"),
        # A row written as a string is not read a character at a time.
        ({"domain": ["a", "b"], "predicates": {"R": ["ab"]}}, "must be a JSON list"),
        # Evidence that names an element outside the domain.
        ({"domain": ["a"], "predicates": {},
          "evidence": [{"term": "p", "formulas": ["Q($b)"]}]}, r"Q\(\$b\).* not in the domain"),
    ]

    @pytest.mark.parametrize("data, match", MALFORMED,
                             ids=[f"data{i}" for i in range(len(MALFORMED))])
    def test_malformed(self, data, match):
        with pytest.raises(FileFormatError, match=match):
            parse_model(data)

    @pytest.mark.parametrize(
        "data",
        [
            # A string of formulas is not read a character at a time, nor
            # one formula as a list of one.
            {"domain": ["a"], "evidence": [{"term": "p", "formulas": "QR"}]},
            {"domain": ["a"], "evidence": [{"term": "p", "formulas": "Q"}]},
            # true and null are not the elements "True" and "None".
            {"domain": [True]},
            {"domain": [None]},
            {"domain": ["True"], "predicates": {"Q": [[True]]}},
            {"domain": ["None"], "predicates": {"Q": [[None]]}},
            {"domain": ["a"], "predicates": {"Q": [("a",)]}},
            {"domain": ["a"], "evidence": [{"term": None, "formulas": []}]},
            {"domain": ["a"], "evidence": [{"term": "p", "formulas": [None]}]},
        ],
    )
    def test_json_types(self, data):
        # Rows and "formulas" are JSON lists; elements, row entries,
        # terms and formulas are JSON strings.
        with pytest.raises(FileFormatError, match="must be a JSON"):
            parse_model(data)


class TestProofFiles:
    def test_round_trip(self, corpus_cs, tmp_path):
        goal = parse_formula(
            "p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1", corpus_cs.constants
        )
        outcome = prove(goal, corpus_cs)
        assert isinstance(outcome, Proved)
        path = tmp_path / "proof.json"
        write_proof_file(path, outcome.tree)
        tree = read_proof_file(path, corpus_cs.constants)
        assert check_proof(tree, corpus_cs, expected_goal=goal).accepted
        assert proof_to_dict(tree) == proof_to_dict(outcome.tree)
        # The file itself is plain JSON.
        json.loads(path.read_text())

    # Table indexes 0 to 7 hold nodes 1 to 6, 8 and 7; each parent is
    # one the checker rejects as structural:parent.
    @pytest.mark.parametrize("index, parent", [
        (0, 0),  # the first node has a parent
        (3, None),  # a later one has none, which would drop its subtree
        (3, 3),  # its own
        (3, 5),  # a later node's
        (3, -1),  # not an index, which would file it under the last node
    ])
    def test_misplaced_parent(self, index, parent, corpus_cs):
        _, tree = _proof("(~~Q0 -> Q1) -> Q0 -> Q1", corpus_cs)
        assert [n.id for n in tree.table] == [1, 2, 3, 4, 5, 6, 8, 7]
        node = tree.table[index] = replace(tree.table[index], parent=parent)
        with pytest.raises(FileFormatError, match=f"^node {node.id}: parent {parent} is not"):
            proof_to_dict(tree)

    def test_not_depth_first(self, corpus_cs):
        # Node 7 moved between node 6 and its child 8: every parent comes
        # before its children, but the file would nest 8 under 6 again,
        # and the checker would accept the depth-first tree read back.
        _, tree = _proof("(~~Q0 -> Q1) -> Q0 -> Q1", corpus_cs)
        table = tree.table
        table[6:] = [table[7], replace(table[6], parent=5)]
        table[6] = replace(table[6], parent=4)
        assert [(n.id, n.parent) for n in table[4:]] == [(5, 3), (6, 4), (7, 4), (8, 5)]
        assert check_proof(tree, corpus_cs).condition == "structural:order"
        with pytest.raises(FileFormatError, match="^node 8: parent 5 is not on the branch"):
            proof_to_dict(tree)

    def test_empty_table(self):
        with pytest.raises(FileFormatError, match="no nodes"):
            proof_to_dict(ProofTree([parse_formula("~Q0")], []))

    def test_file_is_one_line(self, corpus_cs, tmp_path):
        _, tree = _proof(cases(3), corpus_cs)
        path = tmp_path / "proof.json"
        write_proof_file(path, tree)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == proof_to_dict(tree)
        assert proof_to_dict(read_proof_file(path, corpus_cs.constants)) == proof_to_dict(tree)

    def test_deepest_chain_round_trips(self, corpus_cs, tmp_path):
        # chain-163's proof, 492 nodes deep, is the deepest chain the
        # writer's bound admits, and folp check reads it back in a fresh
        # interpreter; chain-164's, 495 deep, is refused.
        n = (MAX_WRITE_DEPTH - 3) // 3  # chain-n's proof is 3n + 3 nodes deep
        assert [_depth(_proof(chain(k), corpus_cs)[1]) for k in (n, n + 1)] == [
            3 * n + 3, 3 * n + 6]
        assert 3 * n + 3 <= MAX_WRITE_DEPTH < 3 * n + 6
        cs = str(DATA / "corpus.cs")
        budget = ("--max-nodes", "100000", "--max-depth", "5000")
        goal, path = chain(n), tmp_path / "proof.json"
        proved = _folp("prove", goal, "--cs", cs, "--out", str(path), *budget)
        assert proved.returncode == 0, proved.stderr
        checked = _folp("check", str(path), "--cs", cs, "--goal", goal)
        assert (checked.returncode, checked.stdout) == (0, "accept\n"), checked.stderr
        path.unlink()
        deeper = _folp("prove", chain(n + 1), "--cs", cs, "--out", str(path), *budget)
        assert (deeper.returncode, deeper.stdout, deeper.stderr) == (
            2, "", "error: proof nested too deeply to write as format v1\n")
        assert not path.exists()

    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_too_deep_to_write_is_an_error(self, out, tmp_path):
        # chain-256 proves, but its proof is deeper than the writer's
        # bound: a documented error, with no traceback and no "proved".
        path = tmp_path / "proof.json"
        proved = _folp("prove", chain(256), "--cs", str(DATA / "corpus.cs"),
                       *(["--out", str(path)] if out else []),
                       "--max-nodes", "100000", "--max-depth", "5000")
        assert proved.returncode == 2
        assert proved.stdout == ""
        assert proved.stderr == "error: proof nested too deeply to write as format v1\n"
        assert not path.exists()

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("name", PROOFS)
    def test_node_formulas_as_if_parsed(self, name, spelling, corpus_cs):
        # Looking node texts up among the roots' signed subformulas gives
        # what parsing each node text would, whichever way roots and
        # nodes are spelled.
        decls = corpus_cs.constants
        _, tree = _proof(PROOFS[name], corpus_cs)
        canonical = proof_to_dict(tree)
        spell = SPELLINGS[spelling]
        for data in (_respell(canonical, spell),
                     _respell(canonical, spell, nodes=False),
                     _respell(canonical, spell, roots=False)):
            back = parse_proof(data, decls)
            expected = _node_formulas_parsed_one_by_one(data, decls)
            assert {n.id: n.formula for n in back.nodes()} == expected
            assert proof_to_dict(back) == canonical

    def test_reads_indented_files(self, corpus_cs, tmp_path):
        # Files written with indent=2 (the layout of earlier versions).
        for name in ("chain-32", "cases-3", "sum-32", "app-8"):
            _, tree = _proof(PROOFS[name], corpus_cs)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(proof_to_dict(tree), indent=2) + "\n")
            back = read_proof_file(path, corpus_cs.constants)
            assert {n.id: n.formula for n in back.nodes()} == {
                n.id: n.formula for n in tree.nodes()}

    @pytest.mark.parametrize("name", ["chain-32", "sum-32"])
    def test_node_texts_are_looked_up(self, name, corpus_cs, monkeypatch):
        # Every chain-32 node carries a subformula of the root or its
        # negation, and every sum-32 node one of those or an FPlus
        # conclusion from one, so no node text needs the parser.
        _, tree = _proof(PROOFS[name], corpus_cs)
        data = proof_to_dict(tree)
        parsed = []

        def counting(text, *args):
            parsed.append(text)
            return parse_formula(text, *args)

        monkeypatch.setattr(fileio, "parse_formula", counting)
        parse_proof(data, corpus_cs.constants)
        assert parsed == []

    @pytest.mark.parametrize("shape", ["impl", "neg"])
    def test_negated_root_at_the_nesting_limit(self, shape):
        # A node text one level past MAX_DEPTH is rejected, as the parser
        # rejects it, though its root is within the limit; at the limit
        # it is read.
        root, text = _negated_root(shape, MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_formula(text)
        with pytest.raises(FileFormatError, match="bad proof node 1: .*nested deeper"):
            parse_proof(_one_node(root, text))
        root, text = _negated_root(shape, MAX_DEPTH)
        assert parse_proof(_one_node(root, text)).table[0].formula == parse_formula(text)

    def test_lookup_reads_as_the_parser_on_random_formulas(self):
        # Each node formula equals what parse_formula makes of its text,
        # whether the table answers it or not; a text the parser rejects
        # makes the whole file a FileFormatError.
        rng = random.Random(20261019)
        decls = {"c"}
        for i in range(300):
            root = random_formula(rng, 1 + i % 5)
            roots = [print_formula(r) for r in (root, Neg(root))]
            arities = {}
            for text in roots:
                parse_formula(text, decls, arities)
            good, bad = [], []
            for text in dict.fromkeys(_texts_near(root)):
                try:
                    good.append((text, parse_formula(text, decls, dict(arities))))
                except ParseError:
                    bad.append(text)
            back = parse_proof(_chain_of_nodes(roots, [t for t, _ in good]), decls)
            assert [n.formula for n in back.nodes()] == [f for _, f in good]
            for text in bad:
                with pytest.raises(FileFormatError):
                    parse_proof(_chain_of_nodes(roots, [text]), decls)

    # Texts the table must not answer from the root's entries; each reads
    # as parse_formula reads it.
    @pytest.mark.parametrize("text", [
        "~(Q0)", "~ Q0", "~~(p : Q0)", "~Q0 -> Q1", "~(p : Q0)", "~~Q0 ", "~ Q0 -> Q1 ",
        "(p + q) : Q(x)", "p : Q(x)", "~p :[y] Q(x)", "~q : Q(x)",
    ])
    def test_near_misses_read_as_parsed(self, text):
        root = "(Q0 -> Q1) -> ~p : Q0 -> (p + q) :[x] Q(x)"
        decls = {"c"}
        arities = {}
        parse_formula(root, decls, arities)
        back = parse_proof(_chain_of_nodes([root], ["Q0 -> Q1", text]), decls)
        assert back.nodes()[1].formula == parse_formula(text, decls, arities)

    def test_negations_are_not_stacked_past_the_limit(self):
        # ~Q0 is a negation of the root's Q0; ~~Q0 is not built from it,
        # so the texts nest one level deeper each and the parser rejects
        # the first past MAX_DEPTH.
        texts = ["~" * k + "Q0" for k in range(1, MAX_DEPTH + 1)]
        back = parse_proof(_chain_of_nodes(["Q0"], texts))
        assert [n.formula for n in back.nodes()] == [parse_formula(t) for t in texts]
        with pytest.raises(FileFormatError, match="nested deeper than"):
            parse_proof(_chain_of_nodes(["Q0"], [*texts, "~" + texts[-1]]))

    def test_malformed(self):
        with pytest.raises(FileFormatError):
            parse_proof({"roots": ["Q0"]})
        with pytest.raises(FileFormatError):
            parse_proof(
                {
                    "roots": ["~Q0"],
                    "tree": {
                        "id": 1,
                        "formula": "~Q0",
                        "rule": None,
                        "children": [],
                        "closure": {"kind": "martian"},
                    },
                }
            )

    MALFORMED_NODES = [
        ({"closure": {"kind": "contradiction"}}, "KeyError"),  # no "with"
        ({"closure": {"kind": "cs"}}, "KeyError"),  # no "constant"
        ({"closure": {"kind": "contradiction", "with": "one"}}, "must be a JSON int"),
        ({"closure": ["cs"]}, "bad proof node 1"),  # not an object
        ({"closure": "cs"}, "bad proof node 1"),
        ({"id": "one"}, "must be a JSON int"),
        ({"formula": 7}, "bad proof node 1"),
        ({"children": 7}, "bad proof node 1"),
        ({"children": [7]}, "bad proof node 7"),
        ({"rule": ["TImp"]}, "bad proof node 1"),
        ({"rule": {"name": "TImp", "premises": 1}}, "must be a JSON list"),
        ({"rule": {"name": "Zap", "premises": [1]}}, "unknown rule"),
        # A non-string cut, and one that does not parse.
        ({"rule": {"name": "FDot", "premises": [1], "cut": 7}}, "bad proof node 1"),
        ({"rule": {"name": "FDot", "premises": [1], "cut": "Q0 ->"}}, "ParseError"),
        ({"rule": {"name": "Ins", "premises": [1], "param": "@u", "var": 7}},
         "must be a string"),
        # A CS closure names its constant with a JSON string.
        ({"closure": {"kind": "cs", "constant": 5}}, "must be a JSON str"),
        ({"closure": {"kind": "cs", "constant": None}}, "must be a JSON str"),
        ({"closure": {"kind": "cs", "constant": ["c"]}}, "must be a JSON str"),
        ({"closure": {"kind": "cs", "constant": {"a": 1}}}, "must be a JSON str"),
        ({"children": [{}, {}, {}]}, "node 1 has more than two children"),
        # A parameter written without its @.
        ({"rule": {"name": "TForall", "premises": [1], "param": "u"}},
         "must be written @name"),
    ]

    @pytest.mark.parametrize("tree, match", MALFORMED_NODES,
                             ids=[f"tree{i}" for i in range(len(MALFORMED_NODES))])
    def test_malformed_node(self, tree, match):
        node = {"id": 1, "formula": "~Q0", "rule": None, "children": [],
                "closure": None, **tree}
        with pytest.raises(FileFormatError, match=match):
            parse_proof({"roots": ["~Q0"], "tree": node})

    # Node ids, premises and closure witnesses are JSON integers; the
    # reader once converted these to ones, and the checker accepted them.
    @pytest.mark.parametrize("field, value", [
        ("premises", "1"), ("premises", [1.5]), ("premises", [True]), ("premises", {"1": 0}),
        ("id", "1"), ("id", True), ("id", 1.7),
        ("with", "3"), ("with", 3.9),
    ], ids=lambda v: v if isinstance(v, str) and v.isalpha() else json.dumps(v))
    def test_numbers_must_be_integers(self, field, value):
        # ~(Q0 -> Q0); FImp gives Q0 and ~Q0, and ~Q0 closes against Q0.
        data = {"roots": ["~(Q0 -> Q0)"], "tree": {
            "id": 1, "formula": "~(Q0 -> Q0)", "rule": None, "closure": None, "children": [{
                "id": 3, "formula": "Q0", "rule": {"name": "FImp", "premises": [1]},
                "closure": None, "children": [{
                    "id": 2, "formula": "~Q0", "rule": {"name": "FImp", "premises": [1]},
                    "children": [], "closure": {"kind": "contradiction", "with": 3}}]}]}}
        assert check_proof(parse_proof(data), parse_cs("")).accepted
        if field == "premises":
            data["tree"]["children"][0]["rule"]["premises"] = value
        elif field == "id":
            data["tree"]["id"] = value
        else:
            data["tree"]["children"][0]["children"][0]["closure"]["with"] = value
        with pytest.raises(FileFormatError, match="must be"):
            parse_proof(data)

    @pytest.mark.parametrize(
        "data", [[], 7, {"roots": "~Q0", "tree": {}}, {"roots": [7], "tree": {}}]
    )
    def test_malformed_document(self, data):
        with pytest.raises(FileFormatError):
            parse_proof(data)

    def test_roots_must_be_a_list(self):
        # A string of roots is not read a character at a time.
        with pytest.raises(FileFormatError, match="'roots' must be a list"):
            parse_proof({"roots": "~Q0", "tree": {}})


def _rule_chain(rules):
    """A proof document of ``~(Q0 -> Q0)`` whose nodes 2, 3, ..., one
    below the other, each cite the next of ``rules``."""
    node = None
    for i, rule in reversed(list(enumerate(rules, 2))):
        node = {"id": i, "formula": "Q0", "rule": rule, "closure": None,
                "children": [node] if node else []}
    return {"roots": ["~(Q0 -> Q0)"], "tree": {"id": 1, "formula": "~(Q0 -> Q0)", "rule": None,
                                               "closure": None, "children": [node]}}


class TestProofWriter:
    """``proof_to_json`` writes the bytes ``json.dumps`` writes for
    ``proof_to_dict``, and refuses what the dict view refuses, and trees
    deeper than its bound, before it prints a formula."""

    @pytest.mark.parametrize("text", [*CORPUS_GOALS, *FAMILY_MEMBERS.values()],
                             ids=[*(f"corpus-{i}" for i in range(len(CORPUS_GOALS))),
                                  *FAMILY_MEMBERS])
    def test_bytes_are_json_dumps_of_the_dict(self, text, corpus_cs):
        _, tree = _proof(text, corpus_cs)
        if _depth(tree) <= MAX_WRITE_DEPTH:
            assert fileio.proof_to_json(tree) == _dumped(tree)
        else:
            with pytest.raises(FileFormatError, match="^proof nested too deeply"):
                fileio.proof_to_json(tree)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bytes_on_proved_random_sentences(self, seed, corpus_cs):
        goal = random_sentence(random.Random(seed))
        outcome = prove(goal, corpus_cs, SearchBudget(max_nodes=500, max_depth=60))
        if isinstance(outcome, Proved):
            assert fileio.proof_to_json(outcome.tree) == _dumped(outcome.tree)

    def test_depth_bound(self, corpus_cs, monkeypatch):
        # A tree as deep as the bound is written; one a node deeper is
        # refused before any formula is printed.
        _, tree = _proof(chain(8), corpus_cs)
        monkeypatch.setattr(fileio, "MAX_WRITE_DEPTH", _depth(tree))
        assert fileio.proof_to_json(tree) == _dumped(tree)
        monkeypatch.setattr(fileio, "MAX_WRITE_DEPTH", _depth(tree) - 1)
        monkeypatch.setattr(fileio, "print_formula", None)  # not called
        with pytest.raises(FileFormatError, match="^proof nested too deeply"):
            fileio.proof_to_json(tree)

    # The two tables of nodes 1 to 8 that once wrote files encoding other
    # trees: node 6 (index 3) under its later node 8 (index 5), and
    # entries 6 and 7 (nodes 8 and 7) swapped, so that node 8's parent is
    # off the branch.
    @pytest.mark.parametrize("malform, message", [
        ("forward-parent", "node 4: parent 5 is not on the branch"),
        ("swapped", "node 8: parent 5 is not on the branch"),
    ])
    def test_misordered_table_writes_no_file(self, malform, message, corpus_cs, tmp_path,
                                             monkeypatch):
        _, tree = _proof("(~~Q0 -> Q1) -> Q0 -> Q1", corpus_cs)
        table = tree.table
        if malform == "forward-parent":
            table[3] = replace(table[3], parent=5)
        else:
            table[6], table[7] = table[7], table[6]
        assert check_proof(tree, corpus_cs).condition in ("structural:parent",
                                                         "structural:order")
        path = tmp_path / "proof.json"
        monkeypatch.setattr(fileio, "print_formula", None)  # not called
        with pytest.raises(FileFormatError, match=f"^{message} in depth-first order$"):
            write_proof_file(path, tree)
        assert not path.exists()

    def test_unknown_closure_mark(self, corpus_cs, tmp_path):
        _, tree = _proof("Q0 -> Q0", corpus_cs)
        tree.table[-1] = replace(tree.table[-1], closure="closed")
        path = tmp_path / "proof.json"
        for write in (proof_to_dict, lambda t: write_proof_file(path, t)):
            with pytest.raises(FileFormatError, match="^unknown closure mark 'closed'$"):
                write(tree)
        assert not path.exists()


class TestRuleReading:
    """Nodes citing equal rule dicts share one ``RuleApp``, and a
    malformed rule dict fails with the same message alone and right after
    a well-formed rule that equals it or differs only in the bad field."""

    # A malformed rule dict, its well-formed near miss, and the message,
    # in which {node} is the id of the node citing the malformed rule.
    MALFORMED_RULES = [
        ({"name": "FImp", "premises": [True]}, {"name": "FImp", "premises": [1]},
         "rule premise must be a JSON int, not True"),
        ({"name": "FImp", "premises": [1.0]}, {"name": "FImp", "premises": [1]},
         "rule premise must be a JSON int, not 1.0"),
        ({"name": "FImp", "premises": ["1"]}, {"name": "FImp", "premises": [1]},
         "rule premise must be a JSON int, not '1'"),
        ({"name": "FImp", "premises": 1}, {"name": "FImp", "premises": [1]},
         "premises must be a JSON list, not 1"),
        ({"name": "FImp", "premises": "1"}, {"name": "FImp", "premises": [1]},
         "premises must be a JSON list, not '1'"),
        ({"name": "FImp", "premises": {"1": 0}}, {"name": "FImp", "premises": [1]},
         "premises must be a JSON list, not {'1': 0}"),
        ({"name": "FImp"}, {"name": "FImp", "premises": [1]},
         "bad proof node {node}: KeyError('premises')"),
        ({"name": "FDot", "premises": [1], "cut": ["Q0"]},
         {"name": "FDot", "premises": [1], "cut": "Q0"},
         "bad proof node {node}: TypeError(\"expected string or bytes-like object, "
         "got 'list'\")"),
        ({"name": "FDot", "premises": [1], "cut": {"Q0": 1}},
         {"name": "FDot", "premises": [1], "cut": "Q0"},
         "bad proof node {node}: TypeError(\"expected string or bytes-like object, "
         "got 'dict'\")"),
        ({"name": "TForall", "premises": [1], "param": "u"},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter 'u' must be written @name"),
        ({"name": "TForall", "premises": [1], "param": 7},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter 7 must be written @name"),
        ({"name": "TForall", "premises": [1], "param": ["@u"]},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter ['@u'] must be written @name"),
        ({"name": ["FImp"], "premises": [1]}, {"name": "FImp", "premises": [1]},
         "bad proof node {node}: ValueError(\"unknown rule ['FImp']\")"),
        ({"name": "Ins", "premises": [1], "param": "@u", "var": ["x"]},
         {"name": "Ins", "premises": [1], "param": "@u", "var": "x"},
         "rule variable ['x'] must be a string"),
        # ``param`` and ``var`` are read by the parser's atom rule.
        ({"name": "TForall", "premises": [1], "param": "@ not a name!"},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter '@ not a name!' must be written @name"),
        ({"name": "TForall", "premises": [1], "param": "@u v"},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter '@u v' must be written @name"),
        ({"name": "TForall", "premises": [1], "param": "$a"},
         {"name": "TForall", "premises": [1], "param": "@u"},
         "rule parameter '$a' must be written @name"),
        ({"name": "Ins", "premises": [1], "param": "@u", "var": "X"},
         {"name": "Ins", "premises": [1], "param": "@u", "var": "x"},
         "rule variable 'X' must be a variable name"),
        ({"name": "Ins", "premises": [1], "param": "@u", "var": "forall"},
         {"name": "Ins", "premises": [1], "param": "@u", "var": "x"},
         "rule variable 'forall' must be a variable name"),
        ({"name": "Ins", "premises": [1], "param": "@u", "var": "@x"},
         {"name": "Ins", "premises": [1], "param": "@u", "var": "x"},
         "rule variable '@x' must be a variable name"),
    ]

    @pytest.mark.parametrize("after", [False, True], ids=["alone", "after-good"])
    @pytest.mark.parametrize("bad, good, message", MALFORMED_RULES,
                             ids=[f"rule{i}" for i in range(len(MALFORMED_RULES))])
    def test_malformed_rule(self, bad, good, message, after):
        parse_proof(_rule_chain([good]))
        with pytest.raises(FileFormatError) as caught:
            parse_proof(_rule_chain([good, bad] if after else [bad]))
        assert str(caught.value) == message.replace("{node}", "3" if after else "2")

    def test_equal_rule_dicts_share_one_rule(self, corpus_cs):
        data = json.loads(json.dumps(_rule_chain([
            {"name": "FImp", "premises": [1]}, {"name": "FImp", "premises": [1]},
            {"name": "FImp", "premises": [1], "param": None}, {"name": "FNeg", "premises": [1]},
        ])))
        a, b, c, d = [n.rule for n in parse_proof(data).nodes()[1:]]
        assert a is b is c and d is not a
        goal, tree = _proof(cases(3), corpus_cs)
        back = parse_proof(json.loads(fileio.proof_to_json(tree)), corpus_cs.constants)
        rules = [n.rule for n in back.nodes() if n.rule is not None]
        assert len({id(r) for r in rules}) == len(set(rules)) < len(rules)
        assert check_proof(back, corpus_cs, goal).accepted


class TestUnreadableFiles:
    """Bytes that are not UTF-8 and JSON nested past the decoder's limit
    are malformed files, not crashes."""

    @pytest.mark.parametrize("reader", [read_proof_file, read_model_file, read_cs_file])
    def test_not_utf8(self, reader, tmp_path):
        path = tmp_path / "file"
        path.write_bytes(b'{"roots": ["\xff\xfe"]}')
        with pytest.raises(FileFormatError, match="UTF-8"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_proof_file, read_model_file])
    def test_nested_too_deeply(self, reader, tmp_path):
        path = tmp_path / "file.json"
        path.write_text("[" * 5000 + "]" * 5000)
        with pytest.raises(FileFormatError, match="nested too deeply"):
            reader(path)
