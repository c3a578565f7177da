"""Completeness census: decide every small sentence, and check each answer.

    python3 scripts/census.py --size K

For every sentence of ``tests/conftest.census_sentences(K)`` (every
sentence of size at most K over ``Q0``, ``Q1``, ``~``, ``->`` and
``t : A`` for a few proof terms ``t``), it runs ``find_countermodel``
under ``tests/data/corpus.cs`` with ``max_domain=1``, and requires one
of two answers:

- ``absent``, and ``prove`` (under the same node budget) gives a proof
  that ``check_proof`` accepts;
- ``found``, with a model that ``validate_model`` accepts and in which
  ``satisfies`` shows the sentence false.

It prints how many sentences ended each way, the slowest sentence, and
each sentence that gave any other answer; it exits 1 if there is one.
The paper's theorem is that the tableau is sound and complete for
Mkrtychev models, so every sentence should be decided.  It runs this
checkout's ``src``, and reads ``tests/conftest.py``, which needs pytest.
"""

from __future__ import annotations

import argparse
import collections
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import census_sentences  # noqa: E402
from folp import (  # noqa: E402
    Proved, SearchBudget, check_proof, find_countermodel, models, print_formula, prove,
    satisfies, validate_model,
)
from folp.fileio import read_cs_file  # noqa: E402


def answer(goal, cs) -> str:
    """``goal``'s answer: ``absent`` or ``found`` if it checks out,
    otherwise what went wrong."""
    result = find_countermodel(goal, cs, max_domain=1)
    if result.status == "absent":
        outcome = prove(goal, cs, SearchBudget(max_nodes=models._BRANCH_NODES))
        if not isinstance(outcome, Proved) or not check_proof(outcome.tree, cs, goal).accepted:
            return "absent without an accepted proof"
    elif result.status == "found":
        if validate_model(result.model, cs) or satisfies(result.model, goal):
            return "found a model that is no countermodel"
    return result.status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, required=True, metavar="K",
                    help="the largest sentence size")
    args = ap.parse_args(argv)
    cs = read_cs_file(ROOT / "tests" / "data" / "corpus.cs")
    ends: collections.Counter = collections.Counter()
    wrong = []
    slowest = (0.0, "")
    start = time.perf_counter()
    for goal in census_sentences(args.size):
        began = time.perf_counter()
        end = answer(goal, cs)
        slowest = max(slowest, (time.perf_counter() - began, print_formula(goal)))
        ends[end] += 1
        if end not in ("absent", "found"):
            wrong.append(f"{end}: {print_formula(goal)}")
    total = sum(ends.values())
    print(f"size {args.size}: {total:,} sentences in {time.perf_counter() - start:.1f} s: "
          + ", ".join(f"{n:,} {end}" for end, n in sorted(ends.items())))
    print(f"slowest: {slowest[1]} in {slowest[0] * 1e3:.1f} ms")
    for line in wrong:
        print(line)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
