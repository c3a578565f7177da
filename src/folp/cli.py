"""Command-line interface.

Exit codes: 0 for success / positive verdicts, 1 for negative
verdicts (unproved goal, rejected proof, falsified formula, no axiom
match), 2 for malformed input or internal errors.  An exception that no
command expects is an internal error: it is reported as ``internal
error:`` with its traceback on stderr, never as a negative verdict.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Optional, Sequence

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


class CliError(Exception):
    """Bad input reported to the user; maps to exit code 2."""


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="folp",
        description="Parse, prove, check, and model-check formulas of the "
        "first-order logic of proofs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and reprint it")
    p.add_argument("formula")
    p.add_argument("--cs", help="constant specification file (declares constants)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("axiom-match", help="report the first axiom scheme a formula instantiates")
    p.add_argument("formula")
    p.add_argument("--cs")
    p.set_defaults(func=cmd_axiom_match)

    p = sub.add_parser("prove", help="search for a tableau proof of a sentence")
    p.add_argument("goal")
    p.add_argument("--cs", required=True)
    p.add_argument("--out", help="write the proof as JSON to this path")
    p.add_argument("--hint", action="append", default=[], help="cut-formula hint (repeatable)")
    p.add_argument("--max-nodes", type=int, default=10_000)
    p.add_argument("--max-depth", type=int, default=200)
    p.add_argument("--max-params", type=int, default=8)
    p.add_argument("--max-cuts", type=int, default=32)
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="verify a serialized tableau proof")
    p.add_argument("proof")
    p.add_argument("--cs", required=True)
    p.add_argument("--goal", help="require the proof to prove this sentence")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("model-check", help="validate a model and evaluate a sentence in it")
    p.add_argument("model")
    p.add_argument("--cs", required=True)
    p.add_argument("--formula", help="sentence to evaluate after validation")
    p.add_argument("--validate-only", action="store_true")
    p.set_defaults(func=cmd_model_check)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, FileFormatError, ModelError, CliError, ValueError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
