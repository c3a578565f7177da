"""Compare two versions of folp end to end, interleaved in one process.

    python3 scripts/ab.py OLD_SRC NEW_SRC [--rounds N] [--items ID [ID ...]]

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories, each holding a
``folp`` package.  Each package is copied into a temporary directory
under its own name (``folp_old``, ``folp_new``), so that both load in
this process.  An item is one goal taken to a checked verdict through a
side's ``cli.main``, as perfbench takes a proof item: ``prove GOAL --cs
corpus.cs --out F`` with the flags of perfbench's ``families`` workload,
then ``check F --cs corpus.cs --goal GOAL``.  The items are the
``families`` goals, read from ``perfbench/workloads.py`` (``chain-32``
... ``app-16``), and the corpus goals of ``perfbench/data``
(``corpus-g00`` ... ``corpus-g54``); ``--items`` runs only those named.

Each round runs every item on both sides, timing each side's two calls;
which side goes first alternates from item to item and from round to
round, so that drift in the host's speed falls on both.  It prints, per
item, each side's median time, the median of the paired ratios new/old
and how many rounds the new side was faster, then the same over the
families items, the corpus items and all items.  The two sides must
reach the same exit codes on every item (chain-256 exits 2 on both while
its proof is too deep to write); an item where they differ is reported,
and the run exits 1.

Separate processes cannot resolve a difference of a few percent on a
shared host: one process per version read the same code 77-122 ms for
the 55 corpus goals.  Paired runs in one process can.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # nothing is written under perfbench/ or the copies
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench's item definitions, read only)

SIDES = ("old", "new")


def items() -> dict[str, tuple[str, str]]:
    """Each item's goal and group, by id."""
    out = {}
    for family, sizes in workloads.FAMILY_SIZES.items():
        for n in sizes:
            out[f"{family}-{n}"] = (workloads.FAMILIES[family](n), "families")
    for i, goal in enumerate(workloads.read_lines("corpus_goals.txt")):
        out[f"corpus-g{i:02d}"] = (goal, "corpus")
    return out


def load(src: str, name: str, into: Path):
    """``folp.cli`` of the package under ``src``, imported as ``name.cli``."""
    shutil.copytree(Path(src) / "folp", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_item(cli, goal: str, proof: str) -> tuple[float, tuple]:
    """The time of ``prove --out`` and then ``check`` of ``goal``, and
    their exit codes (the check's None if ``prove`` failed)."""
    cs = str(workloads.CS_PATH)
    flags = ("--timeout", str(workloads.LIMITS["families"]), *workloads.FAMILY_BUDGET)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        proved = cli.main(["prove", goal, "--cs", cs, "--out", proof, *flags])
        checked = cli.main(["check", proof, "--cs", cs, "--goal", goal]) if proved == 0 else None
        elapsed = time.perf_counter() - start
    return elapsed, (proved, checked)


def summary(label: str, pairs: list[tuple[float, float]]) -> str:
    ratios = [new / old for old, new in pairs]
    wins = sum(new < old for old, new in pairs)
    olds, news = zip(*pairs)
    return (f"{label:<12} old {statistics.median(olds) * 1e3:9.3f} ms  "
            f"new {statistics.median(news) * 1e3:9.3f} ms  "
            f"ratio {statistics.median(ratios):.3f}  new faster {wins}/{len(pairs)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--items", nargs="+", metavar="ID", help="run only these items")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    every = items()
    chosen = args.items or list(every)
    unknown = [i for i in chosen if i not in every]
    if unknown:
        ap.error(f"unknown items {unknown}; items are {', '.join(every)}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = {side: load(src, f"folp_{side}", Path(tmp))
                for side, src in zip(SIDES, (args.old_src, args.new_src))}
        proofs = {side: str(Path(tmp) / f"{side}.json") for side in SIDES}
        for side in SIDES:  # untimed: each side's first call loads what it needs
            run_item(clis[side], every[chosen[0]][0], proofs[side])
        times: dict[str, list[tuple[float, float]]] = {i: [] for i in chosen}
        differ = set()
        for r in range(args.rounds):
            for k, item in enumerate(chosen):
                goal = every[item][0]
                order = SIDES if (k + r) % 2 == 0 else SIDES[::-1]
                runs = {side: run_item(clis[side], goal, proofs[side]) for side in order}
                if runs["old"][1] != runs["new"][1]:
                    differ.add(f"{item}: old exits {runs['old'][1]}, new {runs['new'][1]}")
                times[item].append((runs["old"][0], runs["new"][0]))

    print(f"{args.rounds} rounds, prove --out + check per item, times per item")
    for item in chosen:
        print(summary(item, times[item]))
    for group in ("families", "corpus"):
        pairs = [p for i in chosen if every[i][1] == group for p in times[i]]
        if pairs:
            print(summary(group, pairs))
    print(summary("all", [p for i in chosen for p in times[i]]))
    for line in sorted(differ):
        print(f"exit codes differ, {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
