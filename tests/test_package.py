"""The ``folp`` package: its exported names, and the modules that
importing it, reading the benchmark's set-up inputs, and running the
CLI load."""

import json

from folp import parse_formula, prove
from folp.fileio import write_proof_file
from conftest import DATA, model_paths, run_fresh

# Each exported name, by the module that defines it; the module names
# are exported too.
EXPORTS = {
    "axioms": "SCHEMES ConstantSpecification CsError cs_appropriateness_gaps "
    "cs_axiomatically_appropriate cs_contains match_axiom match_scheme",
    "checker": "Verdict check_proof",
    "fileio": "FileFormatError parse_cs parse_model parse_proof proof_to_dict "
    "read_cs_file read_model_file read_proof_file write_model write_proof_file",
    "models": "CountermodelSearch MkrtychevModel ModelError Violation "
    "find_countermodel satisfies validate_model",
    "parser": "ParseError parse_formula parse_term print_formula print_term",
    "search": "Exhausted Open Proved SearchBudget prove",
    "syntax": "App Assert Atom Bang CaptureError Exists Forall Formula Gen Impl "
    "Neg Pred Sum Term TermConst TermVar alpha_eq canonical elem elem_set "
    "free_vars par_set param substitute substitute_param universal_closure "
    "var variable_variant",
    "tableau": "BRANCHING_RULES FRESH_PARAM_RULES RULE_NAMES Contradiction "
    "CsClosure ProofNode ProofTree RuleApp RuleError apply_rule",
}
HOME = {name: module for module, names in EXPORTS.items()
        for name in (module, *names.split())}

# Run in a fresh interpreter, after ``home`` (``HOME``), ``data``
# (``DATA`` as text) and ``proof`` (a proof file's path) are set: what
# each step loads, whether the proof file then reads back as written,
# and what the exported names are.
SCRIPT = """
import importlib, json, sys
from pathlib import Path

out = {}

def loaded():
    return sorted(m for m in sys.modules if m.startswith("folp."))

import folp
out["import"] = loaded()
out["dir_missing"] = sorted(set(folp.__all__) - set(dir(folp)))
from folp.fileio import read_cs_file, read_model_file
cs = read_cs_file(Path(data, "corpus.cs"))
models = [read_model_file(p, cs.constants) for p in sorted(Path(data, "models").glob("*.json"))]
out["set-up"] = loaded()
out["set-up dataclasses"] = "dataclasses" in sys.modules
tree = folp.read_proof_file(proof, cs.constants)
out["proof read"] = folp.fileio.proof_to_json(tree) == Path(proof).read_text()
try:
    folp.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["all"] = folp.__all__
star = {}
exec("from folp import *", star)
out["star_missing"] = sorted(set(folp.__all__) - set(star))
out["not_own"] = []
for name in folp.__all__:
    module = importlib.import_module("folp." + home[name])
    own = module if name == home[name] else getattr(module, name)
    if not (star[name] is own and getattr(folp, name) is own):
        out["not_own"].append(name)
print(json.dumps(out))
"""


def test_package_loads_modules_on_first_use(tmp_path, corpus_cs):
    proof = tmp_path / "proof.json"
    write_proof_file(proof, prove(parse_formula("p : Q0 -> Q0"), corpus_cs).tree)
    done = run_fresh(f"home, data, proof = {HOME!r}, {str(DATA)!r}, {str(proof)!r}" + SCRIPT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["import"] == []
    # The set-up path reads a CS file and model files; proofs are not
    # read, so neither the tableau nor dataclasses is loaded.
    assert out["set-up"] == ["folp.axioms", "folp.fileio", "folp.models", "folp.parser",
                             "folp.syntax"]
    assert not out["set-up dataclasses"]
    assert out["proof read"]
    assert out["dir_missing"] == []
    assert out["unknown"] == "module 'folp' has no attribute 'no_such_name'"
    assert sorted(out["all"]) == sorted(HOME) and len(HOME) == 83
    assert out["star_missing"] == []
    assert out["not_own"] == []


# Run in a fresh interpreter after ``data`` (``DATA`` as text) and
# ``proof`` (a path to write) are set: each command's exit code, and
# which of the stdlib modules ``dataclasses`` and ``inspect`` are loaded
# after ``import folp.cli`` and after the commands.
CLI_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

import folp.cli

stdlib = lambda: [m for m in ("dataclasses", "inspect") if m in sys.modules]
out = {"import": stdlib()}
cs, model = str(Path(data, "corpus.cs")), str(sorted(Path(data, "models").glob("*.json"))[0])
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [
        folp.cli.main(["prove", "p : Q0 -> Q0", "--cs", cs, "--out", proof]),
        folp.cli.main(["check", proof, "--cs", cs, "--goal", "p : Q0 -> Q0"]),
        folp.cli.main(["model-check", model, "--cs", cs, "--formula", "p : Q0 -> Q0"]),
    ]
out["commands"] = stdlib()
print(json.dumps(out))
"""


def test_cli_loads_no_dataclasses(tmp_path):
    done = run_fresh(f"data, proof = {str(DATA)!r}, {str(tmp_path / 'proof.json')!r}"
                     + CLI_SCRIPT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["codes"] == [0, 0, 0]
    assert out["import"] == out["commands"] == []


def test_set_up_path_loads_no_prover():
    # ``find_countermodel`` imports the prover when it runs, so reading a
    # CS file and a model file compiles neither ``search`` nor ``tableau``.
    model = model_paths()[0]
    done = run_fresh(
        "import sys\n"
        "from folp.fileio import read_cs_file, read_model_file\n"
        f"cs = read_cs_file({str(DATA / 'corpus.cs')!r})\n"
        f"read_model_file({str(model)!r}, cs.constants)\n"
        "print(sorted(m for m in ('folp.search', 'folp.tableau') if m in sys.modules))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
