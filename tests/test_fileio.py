"""File formats: CS files, model JSON, proof JSON round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from folp import (
    FileFormatError,
    ParseError,
    Proved,
    check_proof,
    parse_cs,
    parse_formula,
    parse_proof,
    proof_to_dict,
    prove,
    read_proof_file,
    write_model,
    write_proof_file,
)
from folp import fileio
from folp.fileio import parse_model, read_cs_file, read_model_file
from folp.parser import MAX_DEPTH
from conftest import (
    CORPUS_GOALS,
    DATA,
    FAMILY_BUDGET,
    app,
    cases,
    chain,
    model_paths,
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


def _folp(*args):
    """Run the CLI in a fresh interpreter, as a user would: the depth the
    recursive writer can take depends on the stack below it."""
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

    @pytest.mark.parametrize(
        "text",
        [
            "c : Q0 -> Q1 -> Q0.",  # undeclared constant
            "const c.\nc : Q0 -> Q1.",  # not an axiom instance
            "const c.\nc : scheme XX.",  # unknown scheme
            "const c.\nc : Q0 -> Q1 -> Q0",  # missing terminator
            "bogus.",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FileFormatError):
            parse_cs(text)


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

    @pytest.mark.parametrize(
        "data",
        [
            {"domain": [], "predicates": {}, "evidence": []},
            {"domain": ["a"], "predicates": {"Q": [["b"]]}, "evidence": []},
            {"domain": ["a"], "predicates": {},
             "evidence": [{"term": "p", "formulas": ["Q(@u)"]}]},
            {"domain": ["a"], "predicates": {},
             "evidence": [{"term": "p", "formulas": []},
                          {"term": "p", "formulas": []}]},
            {"domain": ["a"], "predicates": {"Q": []},
             "evidence": [{"term": "p",
                           "formulas": ["forall x. Q(x)", "forall y. Q(y)"]}]},
            # Wrongly shaped values.
            [1],
            {"domain": ["a"], "predicates": ""},
            {"domain": ["a"], "evidence": 0},
            {"domain": ["a"], "evidence": [0]},
            {"domain": ["a"], "evidence": [{"term": "p", "formulas": 0}]},
            {"domain": ["a"], "predicates": {"Q": [0]}},
            # A row written as a string is not read a character at a time.
            {"domain": ["a", "b"], "predicates": {"R": ["ab"]}},
        ],
    )
    def test_malformed(self, data):
        with pytest.raises(FileFormatError):
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

    def test_file_is_one_line(self, corpus_cs, tmp_path):
        _, tree = _proof(cases(3), corpus_cs)
        path = tmp_path / "proof.json"
        write_proof_file(path, tree)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == proof_to_dict(tree)
        assert proof_to_dict(read_proof_file(path, corpus_cs.constants)) == proof_to_dict(tree)

    def test_deepest_chain_round_trips(self, tmp_path):
        # chain-160's proof is near the deepest the indenting writer of
        # earlier versions could write and read back; the one-line writer
        # must not lower that ceiling.
        goal, path = chain(160), str(tmp_path / "proof.json")
        proved = _folp("prove", goal, "--cs", str(DATA / "corpus.cs"), "--out", path,
                       "--max-nodes", "100000", "--max-depth", "5000")
        assert proved.returncode == 0, proved.stderr
        checked = _folp("check", path, "--cs", str(DATA / "corpus.cs"), "--goal", goal)
        assert (checked.returncode, checked.stdout) == (0, "accept\n"), checked.stderr

    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_too_deep_to_write_is_an_error(self, out, tmp_path):
        # chain-256 proves, but its proof is too deep for the recursive
        # writer: a documented error, with no traceback and no "proved".
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
        assert parse_proof(_one_node(root, text)).root.formula == parse_formula(text)

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

    @pytest.mark.parametrize(
        "tree",
        [
            {"closure": {"kind": "contradiction"}},  # no "with"
            {"closure": {"kind": "cs"}},  # no "constant"
            {"closure": {"kind": "contradiction", "with": "one"}},
            {"closure": ["cs"]},  # not an object
            {"closure": "cs"},
            {"id": "one"},
            {"formula": 7},
            {"children": 7},
            {"children": [7]},
            {"rule": ["TImp"]},
            {"rule": {"name": "TImp", "premises": 1}},
            {"rule": {"name": "Zap", "premises": [1]}},
            {"rule": {"name": "FDot", "premises": [1], "cut": 7}},  # non-string cut
            {"rule": {"name": "FDot", "premises": [1], "cut": "Q0 ->"}},
            {"rule": {"name": "Ins", "premises": [1], "param": "@u", "var": 7}},
        ],
    )
    def test_malformed_node(self, tree):
        node = {"id": 1, "formula": "~Q0", "rule": None, "children": [],
                "closure": None, **tree}
        with pytest.raises(FileFormatError):
            parse_proof({"roots": ["~Q0"], "tree": node})

    @pytest.mark.parametrize(
        "data", [[], 7, {"roots": "~Q0", "tree": {}}, {"roots": [7], "tree": {}}]
    )
    def test_malformed_document(self, data):
        with pytest.raises(FileFormatError):
            parse_proof(data)


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
