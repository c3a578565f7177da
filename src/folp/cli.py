"""Command-line interface.

Exit codes: 0 for success / positive verdicts, 1 for negative
verdicts (unproved goal, rejected proof, falsified formula, no axiom
match), 2 for malformed input or internal errors.  An exception that no
command expects is an internal error: it is reported as ``internal
error:`` with its traceback on stderr, never as a negative verdict.

A command line that names a command is read by that command's own
parser; ``build_parser``'s five-command parser answers the rest.  No
parser is kept between calls.  Each parser measures the terminal once,
when it is built (``_formatter``; the five-command parser once for all
its subparsers): argparse's default help formatter measures it every
time one is made, and ``add_argument`` makes one per argument.  Help
and usage texts are the same as the default's.

``main`` pauses the cyclic garbage collector for the one command it
runs.  A command allocates tens of thousands of formulas, nodes and
trail entries, and with the collector on, every few hundred of them
start a collection that finds nothing of folp's to free.  Pausing is
safe because no value folp makes is part of a reference cycle:
reference counting frees each one as soon as it is dropped, so memory
follows what is live.  Only argparse's objects form cycles, about a
hundred per call, and the collector frees them once it runs again.
"""

from __future__ import annotations

import argparse
import functools
import gc
import shutil
import sys
import traceback
from typing import Callable, NamedTuple, Optional, Sequence

from .axioms import ConstantSpecification, match_axiom
from .checker import check_proof
from .fileio import (
    FileFormatError,
    proof_to_json,
    read_cs_file,
    read_model_file,
    read_proof_file,
    write_proof_file,
)
from .models import ModelError, satisfies, validate_model
from .parser import ParseError, parse_formula, print_formula
from .search import Exhausted, Open, Proved, SearchBudget, prove


def _load_cs(path: Optional[str]) -> ConstantSpecification:
    if path is None:
        return ConstantSpecification()
    return read_cs_file(path)


def _parse_goal(text: str, cs: ConstantSpecification):
    return parse_formula(text, cs.constants)


def cmd_parse(args: argparse.Namespace) -> int:
    cs = _load_cs(args.cs)
    f = _parse_goal(args.formula, cs)
    print(print_formula(f))
    return 0


def cmd_axiom_match(args: argparse.Namespace) -> int:
    cs = _load_cs(args.cs)
    f = _parse_goal(args.formula, cs)
    scheme = match_axiom(f)
    if scheme is None:
        print("no match")
        return 1
    print(scheme)
    return 0


def cmd_prove(args: argparse.Namespace) -> int:
    cs = _load_cs(args.cs)
    goal = _parse_goal(args.goal, cs)
    hints = [_parse_goal(h, cs) for h in args.hint]
    budget = SearchBudget(
        max_nodes=args.max_nodes,
        max_depth=args.max_depth,
        max_params=args.max_params,
        max_cut_candidates=args.max_cuts,
        time_limit=args.timeout,
    )
    outcome = prove(goal, cs, budget, hints)
    if isinstance(outcome, Proved):
        verdict = check_proof(outcome.tree, cs, expected_goal=goal)
        if not verdict.accepted:
            print(f"internal error: search produced a bad proof: {verdict}", file=sys.stderr)
            return 2
        if args.out:
            write_proof_file(args.out, outcome.tree)
            print(f"proved; proof written to {args.out}")
        else:
            text = proof_to_json(outcome.tree)
            print("proved")
            print(text, end="")
        return 0
    if isinstance(outcome, Open):
        print("open: " + outcome.diagnostics)
        for f in outcome.branch:
            print(f"  {f}")
        return 1
    assert isinstance(outcome, Exhausted)
    print(f"exhausted: budget limit reached ({outcome.dimension})")
    return 1


def cmd_check(args: argparse.Namespace) -> int:
    cs = _load_cs(args.cs)
    tree = read_proof_file(args.proof, cs.constants)
    goal = _parse_goal(args.goal, cs) if args.goal else None
    verdict = check_proof(tree, cs, expected_goal=goal)
    print(verdict)
    return 0 if verdict.accepted else 1


def cmd_model_check(args: argparse.Namespace) -> int:
    cs = _load_cs(args.cs)
    model = read_model_file(args.model, cs.constants)
    violations = validate_model(model, cs)
    if violations:
        for v in violations:
            print(f"invalid ({v.condition}): {v.message}")
        return 1
    print("model valid")
    if args.validate_only or args.formula is None:
        return 0
    f = _parse_goal(args.formula, cs)
    if satisfies(model, f):
        print("true")
        return 0
    print("false")
    return 1


def _formula_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("formula")
    p.add_argument("--cs", help="constant specification file (declares constants)")


def _prove_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("goal")
    p.add_argument("--cs", required=True)
    p.add_argument("--out", help="write the proof as JSON to this path")
    p.add_argument("--hint", action="append", default=[], help="cut-formula hint (repeatable)")
    default = SearchBudget()
    p.add_argument("--max-nodes", type=int, default=default.max_nodes)
    p.add_argument("--max-depth", type=int, default=default.max_depth)
    p.add_argument("--max-params", type=int, default=default.max_params)
    p.add_argument("--max-cuts", type=int, default=default.max_cut_candidates)
    p.add_argument("--timeout", type=float, default=default.time_limit)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("proof")
    p.add_argument("--cs", required=True)
    p.add_argument("--goal", help="require the proof to prove this sentence")


def _model_check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--cs", required=True)
    p.add_argument("--formula", help="sentence to evaluate after validation")
    p.add_argument("--validate-only", action="store_true")


class _Command(NamedTuple):
    name: str
    help: str
    # The handler's name in this module, looked up when a parser is
    # built, so that a wrapper set on the module attribute is what runs.
    handler: str
    add_arguments: Callable[[argparse.ArgumentParser], None]


_COMMANDS = (
    _Command("parse", "parse a formula and reprint it", "cmd_parse", _formula_arguments),
    _Command("axiom-match", "report the first axiom scheme a formula instantiates",
             "cmd_axiom_match", _formula_arguments),
    _Command("prove", "search for a tableau proof of a sentence", "cmd_prove",
             _prove_arguments),
    _Command("check", "verify a serialized tableau proof", "cmd_check", _check_arguments),
    _Command("model-check", "validate a model and evaluate a sentence in it",
             "cmd_model_check", _model_check_arguments),
)


def _formatter():
    """argparse's default help formatter, fixed to the width it would
    measure now, so that a parser measures the terminal once."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def _fill(p: argparse.ArgumentParser, c: _Command) -> argparse.ArgumentParser:
    c.add_arguments(p)
    p.set_defaults(command=c.name, func=globals()[c.handler])
    return p


def _command_parser(name: str) -> Optional[argparse.ArgumentParser]:
    """The parser of the command ``name`` alone, the same as the
    five-command parser's subparser for it; None if no command has that
    name."""
    for c in _COMMANDS:
        if c.name == name:
            return _fill(argparse.ArgumentParser(prog=f"folp {name}",
                                                 formatter_class=_formatter()), c)
    return None


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``folp``, with every command.

    ``main`` uses it for what no single command's parser can answer:
    help before a command, no command, an unknown command and leftover
    arguments, whose error's usage line lists every command."""
    formatter = _formatter()
    ap = argparse.ArgumentParser(
        prog="folp",
        description="Parse, prove, check, and model-check formulas of the "
        "first-order logic of proofs.",
        formatter_class=formatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for c in _COMMANDS:
        _fill(sub.add_parser(c.name, help=c.help, formatter_class=formatter), c)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line, with the cyclic collector paused (see the
    module docstring) and left as it was found, however the call ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str]) -> int:
    # A line that names a command is read by that command's parser
    # alone: building the five-command parser is most of the fixed cost
    # of a call.
    own = _command_parser(argv[0]) if argv else None
    if own is not None:
        args, extras = own.parse_known_args(argv[1:])
    if own is None or extras:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, FileFormatError, ModelError, ValueError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
