"""Compare two versions of folp end to end, interleaved in one process.

    python3 scripts/ab.py OLD_SRC NEW_SRC [--rounds N] [--items ID [ID ...]]
    python3 scripts/ab.py OLD_SRC NEW_SRC --identity N [--items ID [ID ...]]

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

``--identity N`` times nothing: it checks that the two sides behave
alike.  Each side runs once on every item and on N random sentences
(``random-00000`` ...) drawn by ``tests/conftest.random_sentence``, the
same on every run, each proved under a random budget (``--max-nodes``,
``--max-depth``, ``--max-params`` and ``--max-cuts``; the time limit
never binds).  Per item it compares the exit code, stdout and stderr of
``prove --out`` and of the ``check`` after it, and the bytes of the
proof file, with the package names ``folp_old`` and ``folp_new`` read
as ``folp``.  It prints how many items ended each way, then each item
that differs, and exits 1 if any does.

Separate processes cannot resolve a difference of a few percent on a
shared host: one process per version read the same code 77-122 ms for
the 55 corpus goals.  Paired runs in one process can.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import random
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
FAMILY_FLAGS = ("--timeout", str(workloads.LIMITS["families"]), *workloads.FAMILY_BUDGET)
SEED = 20261020  # of the random sentences of --identity


def items() -> dict[str, tuple[str, str]]:
    """Each item's goal and group, by id."""
    out = {}
    for family, sizes in workloads.FAMILY_SIZES.items():
        for n in sizes:
            out[f"{family}-{n}"] = (workloads.FAMILIES[family](n), "families")
    for i, goal in enumerate(workloads.read_lines("corpus_goals.txt")):
        out[f"corpus-g{i:02d}"] = (goal, "corpus")
    return out


def random_items(n: int) -> dict[str, tuple[str, tuple[str, ...]]]:
    """``n`` random sentences, each with random budget flags, by id."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import random_sentence  # imports the checkout's folp
    from folp import print_formula

    rng = random.Random(SEED)
    out = {}
    for i in range(n):
        goal = print_formula(random_sentence(rng))
        out[f"random-{i:05d}"] = (goal, (
            "--max-nodes", str(rng.choice((20, 100, 500, 2_000))),
            "--max-depth", str(rng.choice((5, 20, 60, 200))),
            "--max-params", str(rng.randint(1, 8)),
            "--max-cuts", str(rng.randint(1, 32)), "--timeout", "600"))
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
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        proved = cli.main(["prove", goal, "--cs", cs, "--out", proof, *FAMILY_FLAGS])
        checked = cli.main(["check", proof, "--cs", cs, "--goal", goal]) if proved == 0 else None
        elapsed = time.perf_counter() - start
    return elapsed, (proved, checked)


def shown(cli, goal: str, flags: tuple[str, ...], proof: Path) -> tuple:
    """What ``prove --out`` and then ``check`` of ``goal`` show: each
    call's exit code, stdout and stderr, and the proof file's bytes
    (None if none was written; no check if ``prove`` failed)."""
    cs = str(workloads.CS_PATH)
    proof.unlink(missing_ok=True)
    out: list = []
    for argv in (["prove", goal, "--cs", cs, "--out", str(proof), *flags],
                 ["check", str(proof), "--cs", cs, "--goal", goal]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append((code, *(s.getvalue().replace(cli.__package__, "folp")
                            for s in (stdout, stderr))))
        if argv[0] == "prove":
            out.append(proof.read_bytes() if proof.exists() else None)
            if code != 0:
                break
    return tuple(out)


def identity(clis: dict, chosen: list[str], every: dict, n: int, tmp: Path) -> int:
    """Run ``--identity``: print the outcomes and the differing items;
    1 if any item differs."""
    runs = {item: (every[item][0], FAMILY_FLAGS) for item in chosen}
    runs.update(random_items(n))
    proof = tmp / "proof.json"  # one path, so that stdout names the same file
    ends: collections.Counter = collections.Counter()
    differ = []
    for item, (goal, flags) in runs.items():
        old, new = (shown(clis[side], goal, flags, proof) for side in SIDES)
        ends[(new[0][1] or new[0][2]).split()[0].rstrip(":;")] += 1
        if old != new:
            differ.append((item, goal, flags, old, new))
    print(f"{len(runs)} items ({len(chosen)} named, {n} random): "
          + ", ".join(f"{end} {count}" for end, count in sorted(ends.items())))
    for item, goal, flags, old, new in differ:
        print(f"differs, {item}: {goal} {' '.join(flags)}\n  old {old!r:.2000}\n  new {new!r:.2000}")
    print(f"{len(differ)} of {len(runs)} items differ")
    return 1 if differ else 0


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
    ap.add_argument("--identity", type=int, metavar="N",
                    help="compare outputs, with N random sentences, instead of timing")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.identity is not None and args.identity < 0:
        ap.error("--identity must be at least 0")
    every = items()
    chosen = args.items or list(every)
    unknown = [i for i in chosen if i not in every]
    if unknown:
        ap.error(f"unknown items {unknown}; items are {', '.join(every)}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = {side: load(src, f"folp_{side}", Path(tmp))
                for side, src in zip(SIDES, (args.old_src, args.new_src))}
        if args.identity is not None:
            return identity(clis, chosen, every, args.identity, Path(tmp))
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
