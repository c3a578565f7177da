"""File formats: CS files, model JSON, proof JSON round trips."""

import json

import pytest

from folp import (
    FileFormatError,
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
from folp.fileio import parse_model


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
