"""Time the prover on cases-5 and chain-256, proof file I/O on chain-128
and sum-128, and countermodel search on one non-theorem.

    python3 scripts/prove_speed.py [--repeat N] [--src DIR]

For each goal, under ``tests/data/corpus.cs`` and a budget that never
binds, prints the best ``prove`` time over N runs (default 5), the node
count of the proof and the time per node; parsing and checking are not
timed.  For the proofs of chain-128 (deep, formula-heavy) and sum-128
(term-heavy) it then prints the best times of ``write_proof_file`` and
``read_proof_file`` over N runs and the file's size.  Last it prints
the best time of ``find_countermodel`` on
``(p + q) : Q0 -> p : Q0`` (``max_domain=2``), which enumerates 4,098
models and canonicalizes evidence throughout, and how many models it
checked.  ``--src`` points at another checkout's ``src`` to time that
version of folp instead.

chain-n is ``P0 -> (P0 -> P1) -> ... -> (P{n-1} -> Pn) -> Pn``; cases-n
has one premise ``l0 -> ... -> l{n-1} -> Q0`` for each of the 2^n sign
choices of the literals ``li`` (``Pi`` or ``~Pi``), all implying ``Q0``;
sum-n is ``p : Q0 -> (p + q0 + ... + q{n-1}) : Q0``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
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


def sum_family(n: int) -> str:
    term = " + ".join(["p", *(f"q{i}" for i in range(n))])
    return f"p : Q0 -> ({term}) : Q0"


def best_time(repeat: int, run):
    """The least time of ``repeat`` calls of ``run``, and the last result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from folp import Proved, SearchBudget, find_countermodel, parse_formula, prove
    from folp.fileio import read_cs_file, read_proof_file, write_proof_file

    cs = read_cs_file(ROOT / "tests" / "data" / "corpus.cs")
    budget = SearchBudget(max_nodes=100_000, max_depth=5_000, time_limit=300.0)
    for name, text in (("cases-5", cases(5)), ("chain-256", chain(256))):
        goal = parse_formula(text, cs.constants)
        best, outcome = best_time(args.repeat, lambda: prove(goal, cs, budget))
        assert isinstance(outcome, Proved), outcome
        nodes = len(outcome.tree.nodes())
        print(f"{name}: prove {best:.3f} s, {nodes} nodes, "
              f"{best / nodes * 1e6:.1f} us/node")

    for name, text in (("chain-128", chain(128)), ("sum-128", sum_family(128))):
        outcome = prove(parse_formula(text, cs.constants), cs, budget)
        assert isinstance(outcome, Proved), outcome
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "proof.json"
            write, _ = best_time(args.repeat, lambda: write_proof_file(path, outcome.tree))
            read, _ = best_time(args.repeat, lambda: read_proof_file(path, cs.constants))
            size = path.stat().st_size
        print(f"{name} proof file: write {write * 1e3:.1f} ms, "
              f"read {read * 1e3:.1f} ms, {size:,} bytes")

    text = "(p + q) : Q0 -> p : Q0"
    goal = parse_formula(text, cs.constants)
    best, search = best_time(args.repeat, lambda: find_countermodel(goal, cs, max_domain=2))
    assert search.status == "found", search.status
    print(f"countermodel for {text}: {best:.3f} s, {search.models_checked:,} models checked")


if __name__ == "__main__":
    main()
