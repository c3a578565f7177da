"""No folp value is part of a reference cycle, and ``cli.main`` pauses
the cyclic garbage collector for one command only.

``cli.main`` may pause the collector because reference counting alone
frees what a command leaves: these tests check both halves of that."""

import gc
import types

import pytest

from folp import (
    cli,
    find_countermodel,
    parse_formula,
    satisfies,
    substitute,
    validate_model,
    var,
    variable_variant,
)
from folp.fileio import read_cs_file
from conftest import DATA, model_paths

CS = str(DATA / "corpus.cs")
GOAL = "(Q0 -> Q1) -> ~Q1 -> ~Q0"


def _of_folp(obj) -> bool:
    """Whether ``obj`` is an instance of a folp class or a function
    defined in a folp module."""
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return isinstance(module, str) and module.split(".")[0] == "folp"


def _work(tmp_path) -> None:
    """Every CLI command, an input that exits 2 and an ``Exhausted``
    search through ``cli.main``; then the model and renaming functions
    called directly."""
    proof = str(tmp_path / "proof.json")
    calls = [
        (["parse", "~(Q0 -> forall x. ~Q(x))"], 0),
        (["axiom-match", "Q0 -> Q1 -> Q0"], 0),
        (["prove", GOAL, "--cs", CS, "--out", proof], 0),
        (["check", proof, "--cs", CS, "--goal", GOAL], 0),
        (["model-check", str(model_paths()[0]), "--cs", CS, "--formula", "Q0 -> Q0"], 0),
        (["parse", "Q0 ->"], 2),
        (["prove", "(forall x. exists y. R(x,y)) -> exists y. forall x. R(x,y)",
          "--cs", CS, "--max-params", "3"], 1),
    ]
    for argv, code in calls:
        assert cli.main(argv) == code, argv
    cs = read_cs_file(CS)
    goal = parse_formula("(p + q) : Q0 -> p : Q0", cs.constants)
    search = find_countermodel(goal, cs, max_domain=2)
    assert search.status == "found"
    assert not validate_model(search.model, cs) and not satisfies(search.model, goal)
    f = parse_formula("forall y. p :[x] R(x, y)", cs.constants)
    assert substitute(f, "x", var("z")) != f
    assert variable_variant(f, parse_formula("forall z. p :[w] R(w, z)", cs.constants))


def test_folp_makes_no_reference_cycles(tmp_path, capsys):
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what the collector finds, it keeps
    try:
        _work(tmp_path)
        gc.collect()
        cyclic = sorted({type(o).__qualname__ if not isinstance(o, types.FunctionType)
                         else o.__qualname__ for o in gc.garbage if _of_folp(o)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert cyclic == []


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off before the test, and restored
    after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


class TestMainPausesTheCollector:
    """For the one command, and left as it was found however the call ends."""

    def test_paused_during_the_command(self, collector, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "print_formula", lambda f: seen.append(gc.isenabled()) or "")
        assert cli.main(["parse", "Q0"]) == 0
        assert seen == [False] and gc.isenabled() is collector

    def test_normal_return(self, collector, capsys):
        assert cli.main(["parse", "Q0"]) == 0
        assert gc.isenabled() is collector

    def test_bad_input(self, collector, capsys):
        assert cli.main(["parse", "Q0 ->"]) == 2
        assert gc.isenabled() is collector

    def test_internal_error(self, collector, capsys, monkeypatch):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "print_formula", crash)
        assert cli.main(["parse", "Q0"]) == 2
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["parse", "Q0", "--bogus"], 2)],
                             ids=["help", "unknown-option"])
    def test_argparse_exit(self, collector, capsys, argv, code):
        with pytest.raises(SystemExit) as exit:
            cli.main(argv)
        assert exit.value.code == code
        assert gc.isenabled() is collector
