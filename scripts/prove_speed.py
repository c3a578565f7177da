"""Time the prover alone on cases-5 and chain-256.

    python3 scripts/prove_speed.py [--repeat N] [--src DIR]

For each goal, under ``tests/data/corpus.cs`` and a budget that never
binds, prints the best ``prove`` time over N runs (default 5), the node
count of the proof and the time per node.  Parsing, checking and proof
I/O are not timed.  ``--src`` points at another checkout's ``src`` to
time that version of folp instead.

chain-n is ``P0 -> (P0 -> P1) -> ... -> (P{n-1} -> Pn) -> Pn``; cases-n
has one premise ``l0 -> ... -> l{n-1} -> Q0`` for each of the 2^n sign
choices of the literals ``li`` (``Pi`` or ``~Pi``), all implying ``Q0``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def chain(n: int) -> str:
    steps = [f"(P{i} -> P{i + 1})" for i in range(n)]
    return " -> ".join(["P0", *steps, f"P{n}"])


def cases(n: int) -> str:
    premises = []
    for signs in itertools.product((False, True), repeat=n):
        lits = [("~" if neg else "") + f"P{i}" for i, neg in enumerate(signs)]
        premises.append("(" + " -> ".join([*lits, "Q0"]) + ")")
    return " -> ".join([*premises, "Q0"])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from folp import Proved, SearchBudget, parse_formula, prove
    from folp.fileio import read_cs_file

    cs = read_cs_file(ROOT / "tests" / "data" / "corpus.cs")
    budget = SearchBudget(max_nodes=100_000, max_depth=5_000, time_limit=300.0)
    for name, text in (("cases-5", cases(5)), ("chain-256", chain(256))):
        goal = parse_formula(text, cs.constants)
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            outcome = prove(goal, cs, budget)
            best = min(best, time.perf_counter() - start)
        assert isinstance(outcome, Proved), outcome
        nodes = len(outcome.tree.nodes())
        print(f"{name}: prove {best:.3f} s, {nodes} nodes, "
              f"{best / nodes * 1e6:.1f} us/node")


if __name__ == "__main__":
    main()
