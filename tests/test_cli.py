"""Command-line interface: verdict-to-exit-code mapping."""

import argparse
import json

import pytest

from folp import cli
from folp.cli import main
from conftest import DATA

CS = str(DATA / "corpus.cs")
EX1 = str(DATA / "example1.cs")


class TestParse:
    def test_ok(self, capsys):
        assert main(["parse", "Q0 -> Q1 -> Q2"]) == 0
        assert capsys.readouterr().out.strip() == "Q0 -> Q1 -> Q2"

    def test_error(self, capsys):
        assert main(["parse", "Q0 ->"]) == 2
        assert "error" in capsys.readouterr().err

    def test_too_deep_is_a_parse_error(self, capsys):
        assert main(["parse", "~" * 2000 + "Q0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nested deeper than" in err
        assert "internal error" not in err

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        # An unexpected exception inside a command is reported as an
        # internal error, not as a negative verdict.
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "print_formula", crash)
        assert main(["parse", "Q0"]) == 2
        err = capsys.readouterr().err
        assert "internal error:" in err and "boom" in err


class TestAxiomMatch:
    def test_match(self, capsys):
        assert main(["axiom-match", "Q0 -> Q1 -> Q0"]) == 0
        assert capsys.readouterr().out.strip() == "P1"

    def test_no_match(self, capsys):
        assert main(["axiom-match", "Q0 -> Q1"]) == 1
        assert capsys.readouterr().out.strip() == "no match"


class TestProve:
    def test_proved_writes_checked_proof(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        code = main([
            "prove",
            "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
            "--cs", EX1, "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["roots"]
        code = main([
            "check", str(out), "--cs", EX1,
            "--goal", "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
        ])
        assert code == 0

    def test_printed_proof_is_the_file(self, tmp_path, capsys):
        # Without --out the proof is printed exactly as --out writes it.
        out = tmp_path / "proof.json"
        assert main(["prove", "Q0 -> Q0", "--cs", CS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["prove", "Q0 -> Q0", "--cs", CS]) == 0
        assert capsys.readouterr().out == "proved\n" + out.read_text()

    def test_unprovable_is_negative(self, capsys):
        assert main(["prove", "Q0 -> Q1", "--cs", CS]) == 1
        assert "open" in capsys.readouterr().out

    def test_exhausted_is_negative(self, capsys):
        code = main([
            "prove",
            "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
            "--cs", CS, "--max-nodes", "3",
        ])
        assert code == 1
        assert "exhausted" in capsys.readouterr().out

    @pytest.mark.parametrize("timeout", ["nan", "-1", "0"])
    def test_timeout_must_be_positive(self, timeout, capsys):
        # nan would never time out and -1 would report exhaustion at once.
        assert main(["prove", "Q0 -> Q0", "--cs", CS, "--timeout", timeout]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time_limit" in err


class TestCheck:
    def test_rejects_tampered_proof(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        assert main(["prove", "Q0 -> Q0", "--cs", CS, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tree"]["children"][0]["formula"] = "Q1"
        out.write_text(json.dumps(data))
        assert main(["check", str(out), "--cs", CS]) == 1
        assert "reject" in capsys.readouterr().out

    def test_rejects_field_the_rule_does_not_take(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        assert main(["prove", "Q0 -> Q0", "--cs", CS, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tree"]["children"][0]["rule"].update(cut="Q0", param="@u0", var="x")
        out.write_text(json.dumps(data))
        assert main(["check", str(out), "--cs", CS]) == 1
        assert "rule-field" in capsys.readouterr().out

    def test_malformed_proof_exits_2(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        assert main(["prove", "Q0 -> Q0", "--cs", CS, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        node = data["tree"]
        while node["children"]:
            node = node["children"][0]
        del node["closure"]["with"]
        out.write_text(json.dumps(data))
        assert main(["check", str(out), "--cs", CS]) == 2
        assert "error: bad proof node" in capsys.readouterr().err

    def test_constant_not_a_string_exits_2(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        goal = "c : (forall x. A(x) -> A(x))"
        assert main(["prove", goal, "--cs", CS, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        node = data["tree"]
        while node["children"]:
            node = node["children"][0]
        assert node["closure"] == {"kind": "cs", "constant": "c"}
        node["closure"]["constant"] = 5
        out.write_text(json.dumps(data))
        assert main(["check", str(out), "--cs", CS, "--goal", goal]) == 2
        assert capsys.readouterr().err == "error: closure 'constant' must be a JSON str, not 5\n"

    def test_too_deeply_nested_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "proof.json"
        out.write_text("[" * 5000 + "]" * 5000)
        assert main(["check", str(out), "--cs", CS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err


class TestModelCheck:
    def test_validate_and_evaluate(self, capsys):
        model = str(DATA / "models" / "model04.json")
        assert main(["model-check", model, "--cs", CS, "--formula", "p : Q0"]) == 0
        assert main(["model-check", model, "--cs", CS, "--formula", "~Q0"]) == 1
        assert main(["model-check", model, "--cs", CS, "--validate-only"]) == 0

    def test_invalid_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "domain": ["a"],
            "predicates": {"A": [], "Q0": [[]]},
            "evidence": [
                {"term": "c", "formulas": ["forall x. A(x) -> A(x)",
                                           "forall x. A(x) -> A($a)"]},
                {"term": "p", "formulas": ["Q0"]},
                {"term": "p + q", "formulas": []},
            ],
        }))
        assert main(["model-check", str(bad), "--cs", CS]) == 1
        assert "E3" in capsys.readouterr().out

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": ["a"], "predicates": ""}))
        assert main(["model-check", str(bad), "--cs", CS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("domain", [["a", "a"], ["a", "1"]])
    def test_bad_domain_exits_2(self, domain, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": domain, "predicates": {"Q": [["a"]]}}))
        assert main(["model-check", str(bad), "--cs", CS]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert f"domain element {domain[1]!r}" in err

    # model07's domain is {a, b}, and its rows fix Q as unary.
    @pytest.mark.parametrize("formula", ["~Q($zz)", "Q($a, $a)", "~(exists x. Q(x, x))"])
    def test_formula_outside_the_model_language_exits_2(self, formula, capsys):
        model = str(DATA / "models" / "model07.json")
        assert main(["model-check", model, "--cs", CS, "--formula", formula]) == 2
        out, err = capsys.readouterr()
        assert out == "model valid\n"
        assert err.startswith("error:") and "Traceback" not in err


# Command lines that argparse answers itself, with help or a usage error.
# The file names are never read: argparse stops before any command runs.
_COMMANDS = ("parse", "axiom-match", "prove", "check", "model-check")
_HELP_ARGVS = [["-h"], ["--help"], *([c, "-h"] for c in _COMMANDS)]
_ERROR_ARGVS = [
    [],
    ["bogus"],
    ["Prove"],
    ["pro"],
    ["prove"],
    ["prove", "Q0 -> Q0"],
    ["--max-nodes", "abc"],
    ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "--max-nodes", "abc"],
    ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "extra"],
    ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "--bogus"],
    ["parse", "Q0", "extra", "more"],
    ["check", "proof.json", "--cs", "corpus.cs", "--goal"],
    ["model-check", "--validate-only"],
]


def _argparse_exit(run, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestArguments:
    """``main`` answers help and bad command lines exactly as a parser
    with all five commands does."""

    @pytest.mark.parametrize("argv", _HELP_ARGVS + _ERROR_ARGVS,
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_as_full_parser(self, argv, capsys):
        got = _argparse_exit(main, argv, capsys)
        want = _argparse_exit(cli.build_parser().parse_args, argv, capsys)
        assert got == want

    @pytest.mark.parametrize("argv", _HELP_ARGVS,
                             ids=lambda argv: " ".join(argv))
    def test_help_exits_0(self, argv, capsys):
        code, out, err = _argparse_exit(main, argv, capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: folp")

    @pytest.mark.parametrize("argv", _ERROR_ARGVS,
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_error_exits_2(self, argv, capsys):
        code, out, err = _argparse_exit(main, argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: folp") and "error: " in err

    def test_extra_argument_usage_lists_every_command(self, capsys):
        argv = ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "extra"]
        _, _, err = _argparse_exit(main, argv, capsys)
        assert "{parse,axiom-match,prove,check,model-check}" in err.splitlines()[0]

    @pytest.mark.parametrize("columns", ["50", "132"])
    @pytest.mark.parametrize("command", [*_COMMANDS, None],
                             ids=lambda c: c or "all-commands")
    def test_help_as_default_formatter(self, command, columns, monkeypatch, capsys):
        """Each parser ``main`` builds writes help and usage errors as the
        same parser does with argparse's default formatter, which
        measures the terminal each time it formats."""
        monkeypatch.setenv("COLUMNS", columns)

        def parsers():
            """The parser and its command subparsers, if any."""
            if command is not None:
                return [cli._command_parser(command)]
            parser = cli.build_parser()
            [sub] = parser._subparsers._group_actions
            return [parser, *sub.choices.values()]

        def texts(parsers):
            return [(p.format_help(), _argparse_exit(p.parse_args, [], capsys),
                     _argparse_exit(p.parse_args, ["--bogus"], capsys)) for p in parsers]

        reference = parsers()
        for p in reference:
            p.formatter_class = argparse.HelpFormatter
        got = texts(parsers())
        assert got == texts(reference)


# Valid command lines; the files are never read, since every command is
# replaced by a stub.
_VALID_ARGVS = [
    ["parse", "--cs=corpus.cs", "Q0 -> Q0"],
    ["parse", "Q0 -> Q0"],
    ["axiom-match", "--", "Q0 -> Q1 -> Q0"],
    ["axiom-match", "--cs", "corpus.cs", "Q0 -> Q1 -> Q0"],
    ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "--max-n", "7",
     "--hint", "Q0", "--hint", "Q1 -> Q0", "--out", "proof.json"],
    ["prove", "--cs", "corpus.cs", "--max-depth", "9", "--max-params", "2",
     "--max-cuts", "3", "--timeout", "1.5", "--", "Q0 -> Q0"],
    ["check", "proof.json", "--cs", "corpus.cs"],
    ["check", "--goal", "Q0 -> Q0", "--cs=corpus.cs", "proof.json"],
    ["model-check", "model.json", "--cs", "corpus.cs", "--validate-only"],
    ["model-check", "--cs", "corpus.cs", "--formula", "Q0", "model.json"],
]


class TestNamespace:
    """``main`` hands each command the Namespace a parser with all five
    commands gives, through whatever ``cli.cmd_*`` is at call time."""

    @pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
    def test_same_as_full_parser(self, argv, monkeypatch):
        seen = []

        def stub(name):
            def run(args):
                seen.append((name, args))
                return 0
            return run

        for command in _COMMANDS:
            name = "cmd_" + command.replace("-", "_")
            monkeypatch.setattr(cli, name, stub(name))
        assert main(argv) == 0
        [(name, args)] = seen
        assert name == "cmd_" + argv[0].replace("-", "_")
        assert args.func is getattr(cli, name)
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
