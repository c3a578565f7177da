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
... ``app-16``), the corpus goals of ``perfbench/data`` (``corpus-g00``
... ``corpus-g54``), and the model and non-theorem items of perfbench's
``models`` workload: ``model-check MODEL --cs corpus.cs --formula GOAL``
for each model file and corpus goal (``model01-g00`` ...), and, for each
non-theorem (``non-theorem-0`` ...), ``prove GOAL --cs corpus.cs
--timeout 10`` and then the side's ``find_countermodel`` with
``max_domain=2``.  ``--items`` runs only those named.

Each round runs every item on both sides, timing each side's calls;
which side goes first alternates from item to item and from round to
round, so that drift in the host's speed falls on both.  It prints, per
item, each side's median time, the median of the paired ratios new/old
and how many rounds the new side was faster, then the same over the
families items, the corpus items, the models items and all items.  The
two sides must reach the same exit codes (and countermodel status) on
every item (chain-256 exits 2 on both while its proof is too deep to
write); an item where they differ is reported, and the run exits 1.

``--identity N`` times nothing: it checks that the two sides behave
alike.  Each side runs once on every item and on N random sentences
(``random-00000`` ...) drawn by ``tests/conftest.random_sentence``, the
same on every run, each proved under a random budget (``--max-nodes``,
``--max-depth``, ``--max-params`` and ``--max-cuts``; the time limit
never binds).  Per item it compares the exit code, stdout and stderr of
each CLI call (``prove --out`` and the ``check`` after it, or
``model-check``, or ``prove``), the bytes of the proof file, and a
countermodel search's status, model count and model as ``write_model``
writes it, with the package names ``folp_old`` and ``folp_new`` read
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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # nothing is written under perfbench/ or the copies
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench's item definitions, read only)

SIDES = ("old", "new")
FAMILY_FLAGS = ("--timeout", str(workloads.LIMITS["families"]), *workloads.FAMILY_BUDGET)
SEED = 20261020  # of the random sentences of --identity


class Item(NamedTuple):
    goal: str
    group: str  # families, corpus or models
    kind: str = workloads.PROOF  # or workloads.MODEL or workloads.REFUTE
    model: str = ""  # the model file of a MODEL item


def items() -> dict[str, Item]:
    """Every item, by id."""
    out = {}
    for family, sizes in workloads.FAMILY_SIZES.items():
        for n in sizes:
            out[f"{family}-{n}"] = Item(workloads.FAMILIES[family](n), "families")
    goals = workloads.read_lines("corpus_goals.txt")
    for i, goal in enumerate(goals):
        out[f"corpus-g{i:02d}"] = Item(goal, "corpus")
    # perfbench's models items, but for its proof items: those are the corpus goals.
    for path in workloads.model_files():
        for i, goal in enumerate(goals):
            out[f"{path.stem}-g{i:02d}"] = Item(goal, "models", workloads.MODEL, str(path))
    for i, goal in enumerate(workloads.read_lines("non_theorems.txt")):
        out[f"non-theorem-{i}"] = Item(goal, "models", workloads.REFUTE)
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


def calls(item: Item, proof: str, flags: tuple[str, ...]) -> list[list[str]]:
    """The CLI calls of ``item``, in order; each runs only if the one
    before it exited 0."""
    cs = str(workloads.CS_PATH)
    if item.kind == workloads.MODEL:
        return [["model-check", item.model, "--cs", cs, "--formula", item.goal]]
    if item.kind == workloads.REFUTE:
        return [["prove", item.goal, "--cs", cs, "--timeout", str(workloads.LIMITS["models"])]]
    return [["prove", item.goal, "--cs", cs, "--out", proof, *flags],
            ["check", proof, "--cs", cs, "--goal", item.goal]]


def countermodel(cli, goal: str):
    """The side's countermodel search for ``goal``, as perfbench runs it
    on a non-theorem that ``prove`` left unproved."""
    folp = sys.modules[cli.__package__]
    cs = folp.read_cs_file(workloads.CS_PATH)
    return folp.find_countermodel(folp.parse_formula(goal, cs.constants), cs, max_domain=2)


def run_item(cli, item: Item, proof: str) -> tuple[float, tuple]:
    """The time of ``item``'s calls, and their exit codes, with a
    countermodel search's status last."""
    codes: list = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for argv in calls(item, proof, FAMILY_FLAGS):
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        if item.kind == workloads.REFUTE and codes == [1]:
            codes.append(countermodel(cli, item.goal).status)
        elapsed = time.perf_counter() - start
    return elapsed, tuple(codes)


def shown(cli, item: Item, flags: tuple[str, ...], proof: Path) -> tuple:
    """What ``item``'s calls show: each call's exit code, stdout and
    stderr, the proof file's bytes after a ``prove --out`` (None if none
    was written), and a countermodel search's status, model count and
    model."""
    proof.unlink(missing_ok=True)
    out: list = []
    for argv in calls(item, str(proof), flags):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append((code, *(s.getvalue().replace(cli.__package__, "folp")
                            for s in (stdout, stderr))))
        if "--out" in argv:
            out.append(proof.read_bytes() if proof.exists() else None)
        if code != 0:
            break
    if item.kind == workloads.REFUTE and out[0][0] == 1:
        search = countermodel(cli, item.goal)
        model = search.model and sys.modules[cli.__package__].write_model(search.model)
        out.append((search.status, search.models_checked, model))
    return tuple(out)


def identity(clis: dict, chosen: list[str], every: dict, n: int, tmp: Path) -> int:
    """Run ``--identity``: print the outcomes and the differing items;
    1 if any item differs."""
    runs = {item: (every[item], FAMILY_FLAGS) for item in chosen}
    runs.update({i: (Item(goal, "random"), flags) for i, (goal, flags) in random_items(n).items()})
    proof = tmp / "proof.json"  # one path, so that stdout names the same file
    ends: collections.Counter = collections.Counter()
    differ = []
    for name, (item, flags) in runs.items():
        old, new = (shown(clis[side], item, flags, proof) for side in SIDES)
        ends[(new[0][1] or new[0][2]).split()[0].rstrip(":;")] += 1
        if old != new:
            differ.append((name, item.goal, flags, old, new))
    print(f"{len(runs)} items ({len(chosen)} named, {n} random): "
          + ", ".join(f"{end} {count}" for end, count in sorted(ends.items())))
    for name, goal, flags, old, new in differ:
        print(f"differs, {name}: {goal} {' '.join(flags)}\n  old {old!r:.2000}\n  new {new!r:.2000}")
    print(f"{len(differ)} of {len(runs)} items differ")
    return 1 if differ else 0


def summary(label: str, pairs: list[tuple[float, float]]) -> str:
    ratios = [new / old for old, new in pairs]
    wins = sum(new < old for old, new in pairs)
    olds, news = zip(*pairs)
    return (f"{label:<14} old {statistics.median(olds) * 1e3:9.3f} ms  "
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
            run_item(clis[side], every[chosen[0]], proofs[side])
        times: dict[str, list[tuple[float, float]]] = {i: [] for i in chosen}
        differ = set()
        for r in range(args.rounds):
            for k, item in enumerate(chosen):
                order = SIDES if (k + r) % 2 == 0 else SIDES[::-1]
                runs = {side: run_item(clis[side], every[item], proofs[side]) for side in order}
                if runs["old"][1] != runs["new"][1]:
                    differ.add(f"{item}: old exits {runs['old'][1]}, new {runs['new'][1]}")
                times[item].append((runs["old"][0], runs["new"][0]))

    print(f"{args.rounds} rounds, times per item of all its calls")
    for item in chosen:
        print(summary(item, times[item]))
    for group in ("families", "corpus", "models"):
        pairs = [p for i in chosen if every[i].group == group for p in times[i]]
        if pairs:
            print(summary(group, pairs))
    print(summary("all", [p for i in chosen for p in times[i]]))
    for line in sorted(differ):
        print(f"exit codes differ, {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
