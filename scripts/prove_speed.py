"""Time folp's start-up, the lexer on chain-256 and the model evidence
texts, the axiom matcher, the prover on cases-4, cases-5, chain-256,
qchain-16, qchain-64, qchain-128, app-16 and app-64,
proof file I/O on cases-4, chain-128, sum-64, sum-128 and app-16, and
countermodel search on the non-theorems.

    python3 scripts/prove_speed.py [--repeat N]

First it prints the line count of each module of ``folp`` and their
total, the budget ROADMAP's code-size item tracks.  Next it prints, for
``import folp``, for the benchmark's set-up path
(``import folp``, then ``folp.fileio``, reading ``tests/data/corpus.cs``
and the model files of ``tests/data/models``) and for ``import
folp.cli``, the median time over N fresh interpreters (interpreter
start-up not included), the ``folp`` modules each one loaded and
whether it loaded the stdlib's ``dataclasses`` and ``inspect``, both
without bytecode (``PYTHONDONTWRITEBYTECODE=1``) and with bytecode
cached in a warmed ``PYTHONPYCACHEPREFIX``.  The interpreters import a
copy of the package in a temporary directory, so none reads or writes
a ``__pycache__`` under ``src``.  Then it prints the best time of
``Atom("var", "x")`` over N runs of 100,000.
Next it prints the lexer's throughput, the best time of ``tokenize``
over N runs per token, on the text of chain-256 and on the evidence
terms and formulas of ``tests/data/models``; on the latter also that of
building a ``Parser``, which scans the text itself.
Next it prints the best time per entry of parsing CS files of 500 and of
8,000 entries of each shape in ``CS_ENTRIES`` (``fileio._parse_cs``, the
parse behind ``parse_cs``'s one kept record, which would answer every
repeat of a text); a parser that stays linear reads both sizes at about
the same cost per entry.
Then it prints the best time per call of ``match_axiom`` over the
inputs of the matcher digest in ``tests/test_golden.py`` (which needs
pytest).  Next, for one command
line of each CLI command, it prints the best time of building the
parser ``folp.cli.main`` builds for it (the command's own parser) and
parsing the line, over 100 N calls, and the same for the parser with all
five commands on the ``prove`` line; then the best time, over 100 N
calls, of reading ``tests/data/corpus.cs`` through ``read_cs_file``
first (another CS text parsed just before, untimed) and again (the same
text as the read before, which ``parse_cs`` need not parse again: the
second CLI call of an item in the benchmark).  Then, for each goal,
under ``tests/data/corpus.cs`` and a budget that never binds, it prints
the best ``prove`` time over N runs (default 5), the node count of the
proof, the time per node, how many times ``prove`` calls
``apply_rule`` and the agenda's ``note`` per node, how many formula
``==`` calls per node compare two distinct objects (a call on one object
on both sides, or a dictionary lookup that finds the object itself,
walks nothing), and the best ``check_proof`` time of the proof; parsing
is not timed.  A search that stays linear keeps the time and the calls
per node flat from qchain-16 to qchain-128 and from app-16 to app-64.
Only a node that leaves its branch open is noted, so the notes per node
are the share of such nodes: about half on cases-n, whose proofs are
mostly closed leaves.
It fails if a node count differs from the one pinned in
``PROOF_NODES``: the counts change only if the proofs do.
For the proofs of cases-4 (wide, many rule instances), chain-128 (deep,
formula-heavy), sum-64 and sum-128 (term-heavy) and app-16 (FDot cuts)
it then prints the best times of ``write_proof_file`` and
``read_proof_file`` over N runs, the best times of the reader's three
parts (reading and decoding the JSON in ``fileio._read_json``, the
nodes in ``fileio._parse_tree``, and the rest: the roots and their
lookup table), the file's size, the best ``check_proof`` time of
the proof read back, and how many times ``check_proof`` calls
``apply_rule`` on the proof read back and on the prover's own tree.
Last, for each non-theorem of ``tests/data/non_theorems.txt``, it prints
the best time of the countermodel enumeration alone
(``models._enumerate``, ``max_domain=2``) and how many models it
checked, and fails if a count differs from the one pinned there: the
counts change only if the enumeration order does.  ``(p + q) : Q0 ->
p : Q0`` enumerates the most, 4,098 models.  On the same line it prints
the best time of ``find_countermodel`` (``max_domain=2``), which reads
each of them off the prover's open branch, and its models checked,
which must be 0.

Each line timed in this process ends with ``gc a/b/c`` (or one such
triple per timed phase, named, where a line times several): how many
collections of generations 0, 1 and 2 the cyclic garbage collector ran
during the timed calls, summed over them and read from
``gc.get_stats()`` before and after each.  ``timeit`` switches the
collector off, so the ``Atom`` line reads 0/0/0; the lines timed in
fresh interpreters have none.

Garbage is collected before each timed call, so that no call pays for a
collection of what the ones before it left: a full collection of the
cases-5 proofs took 165-230 ms.  The script times this checkout's folp
only.  Two separate runs, one per version, cannot resolve a difference
below about 2x on a shared host: the same code read cases-5 ``prove``
from 0.21 to 0.34 s across four runs on a shared 2-CPU VM.  A
comparison needs both versions interleaved in one process, alternating
item by item, as ``scripts/ab.py`` does.

The goal families and the pinned model counts are those of
``tests/conftest.py`` (``chain``, ``cases``, ``qchain``, ``sum_family``,
``app`` and ``NON_THEOREMS``), which, like ``tests/test_golden.py``,
needs pytest.  chain-n is ``P0 -> (P0 -> P1) -> ... -> (P{n-1} -> Pn)
-> Pn``; cases-n has one premise ``l0 -> ... -> l{n-1} -> Q0`` for each
of the 2^n sign choices of the literals ``li`` (``Pi`` or ``~Pi``), all
implying ``Q0``; qchain-n is chain-n with ``Pi(x)`` for ``Pi`` and each
premise and the conclusion under ``forall x``; sum-n is ``p : Q0 -> (p
+ q0 + ... + q{n-1}) : Q0``; app-n is
``p0 : (Q0 -> Q1) -> ... -> p{n-1} : (Q{n-1} -> Qn) -> q : Q0 ->
(p{n-1} * (... (p0 * q))) : Qn``, n nested applications, each needing an
FDot cut.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# The node count of each timed proof.
PROOF_NODES = {"cases-4": 1_363, "cases-5": 22_979, "chain-256": 1_027, "qchain-128": 645,
               "app-64": 452}

# The two shapes of CS entry timed: one whose body starts with a
# parenthesised assertion, and one without parentheses.
CS_ENTRIES = ("c : (p : (Q0 -> Q1)) -> Q0 -> Q1.", "c : Q0 -> Q1 -> Q0.")

# One command line per CLI command; the files are never read.
CLI_ARGVS = (
    ["parse", "Q0 -> Q0"],
    ["axiom-match", "Q0 -> Q1 -> Q0"],
    ["prove", "Q0 -> Q0", "--cs", "corpus.cs", "--out", "proof.json", "--timeout", "30"],
    ["check", "proof.json", "--cs", "corpus.cs", "--goal", "Q0 -> Q0"],
    ["model-check", "model.json", "--cs", "corpus.cs", "--formula", "Q0"],
)


# What each fresh interpreter times: the code run after ``sys.path``
# names the package's copy.
STARTUP_CODE = {
    "import folp": "import folp",
    "set-up": """import folp
from folp.fileio import read_cs_file, read_model_file
cs = read_cs_file(DATA / "corpus.cs")
models = [read_model_file(p, cs.constants) for p in sorted((DATA / "models").glob("*.json"))]""",
    "import folp.cli": "import folp.cli",
}

# The stdlib modules whose loading the start-up lines report.
STARTUP_STDLIB = ("dataclasses", "inspect")

# Runs ``sys.argv[3]`` and prints its time and the folp and
# ``STARTUP_STDLIB`` modules loaded.
STARTUP_RUNNER = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pathlib import Path
DATA = Path(sys.argv[2])
exec(sys.argv[3])
elapsed = time.perf_counter() - t0
print(elapsed, *sorted(m for m in sys.modules
                       if m == "folp" or m.startswith("folp.") or m in %r))
""" % (STARTUP_STDLIB,)


def collections() -> list[int]:
    """How many collections of each generation the cyclic garbage
    collector has run so far."""
    return [stats["collections"] for stats in gc.get_stats()]


def ran(before: list[int], after: list[int]) -> list[int]:
    """The collections of each generation between two ``collections()``."""
    return [a - b for a, b in zip(after, before)]


def gcs(counts: list[int]) -> str:
    """Collections of generations 0, 1 and 2, as a timed line prints them."""
    return "/".join(map(str, counts))


def best_time(repeat: int, run, collect: bool = True):
    """The least time of ``repeat`` calls of ``run``, each after a
    garbage collection if ``collect``, the last result, and the
    collections of each generation that ran during the timed calls (the
    ones made here before them not counted).  The least of the hundreds
    of calls of a sub-millisecond ``run`` is one that no collection
    landed in, so those need none."""
    best = float("inf")
    during = [0, 0, 0]
    for _ in range(repeat):
        if collect:
            gc.collect()
        before = collections()
        start = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - start)
        during = [d + r for d, r in zip(during, ran(before, collections()))]
    return best, out, during


def timed_parts(module, names, run):
    """Call ``run()`` with the functions ``names`` of ``module`` timed;
    return its time, the time spent in each of them, its result and the
    collections of each generation that ran during it."""
    spent = dict.fromkeys(names, 0.0)
    saved = {name: getattr(module, name) for name in names}

    def timed(name, fn):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    for name, fn in saved.items():
        setattr(module, name, timed(name, fn))
    try:
        gc.collect()
        before = collections()
        start = time.perf_counter()
        out = run()
        total = time.perf_counter() - start
        during = ran(before, collections())
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
    return total, spent, out, during


def calls_of(owner, name: str, run) -> int:
    """How many times ``run()`` calls the function ``name`` of ``owner``,
    a module or a class."""
    calls = 0
    saved = getattr(owner, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return saved(*args)

    setattr(owner, name, counted)
    try:
        run()
    finally:
        setattr(owner, name, saved)
    return calls


def distinct_eqs(classes, run) -> int:
    """How many times ``run()`` calls the ``__eq__`` of one of
    ``classes`` on two distinct objects."""
    calls = 0
    saved = {cls: cls.__eq__ for cls in classes}

    def counted(eq):
        def call(a, b):
            nonlocal calls
            calls += a is not b
            return eq(a, b)
        return call

    for cls, eq in saved.items():
        cls.__eq__ = counted(eq)
    try:
        run()
    finally:
        for cls, eq in saved.items():
            cls.__eq__ = eq
    return calls


def code_size(src: str) -> None:
    """Print the lines of each module of the package under ``src``."""
    sizes = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((Path(src) / "folp").glob("*.py"))}
    print("src/folp lines: " + ", ".join(f"{name} {n:,}" for name, n in sizes.items())
          + f"; total {sum(sizes.values()):,}")


def startup(src: str, runs: int) -> None:
    """Print each ``STARTUP_CODE`` entry's median time over ``runs``
    fresh interpreters, without and with bytecode, the folp modules it
    loaded and whether it loaded each ``STARTUP_STDLIB`` module; then the
    best time of ``Atom("var", "x")``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(Path(src) / "folp", copy / "folp",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        # Without bytecode, then with bytecode cached outside the package.
        modes = ({**base, "PYTHONDONTWRITEBYTECODE": "1"},
                 {**base, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")})

        def run(code: str, env: dict) -> tuple[float, list[str]]:
            argv = [sys.executable, "-c", STARTUP_RUNNER, str(copy),
                    str(ROOT / "tests" / "data"), code]
            done = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
            elapsed, *modules = done.stdout.split()
            return float(elapsed), modules

        run(STARTUP_CODE["import folp.cli"], modes[1])  # fills the bytecode cache
        for name, code in STARTUP_CODE.items():
            results = [[run(code, env) for _ in range(runs)] for env in modes]
            bare, cached = (statistics.median(t for t, _ in rs) for rs in results)
            modules = results[-1][-1][1]
            stdlib = ", ".join(f"{m} {'yes' if m in modules else 'no'}" for m in STARTUP_STDLIB)
            print(f"start-up, {name}: {bare * 1e3:.1f} ms without bytecode, "
                  f"{cached * 1e3:.1f} ms with, median of {runs}; "
                  f"loads {' '.join(m for m in modules if m.startswith('folp'))}; {stdlib}")
    sys.path.insert(0, src)
    from folp.syntax import Atom

    number = 100_000
    before = collections()
    best = min(timeit.repeat('Atom("var", "x")', number=number, repeat=runs,
                             globals={"Atom": Atom})) / number
    print(f'start-up, Atom("var", "x"): {best * 1e9:.0f} ns/call, '
          f"best of {runs} runs of {number:,}; gc {gcs(ran(before, collections()))}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    code_size(SRC)
    startup(SRC, args.repeat)  # puts ``SRC`` on ``sys.path``
    from folp import checker, cli, models, search
    from folp import (
        Proved, SearchBudget, check_proof, find_countermodel, match_axiom, parse_formula,
        prove,
    )
    from folp import Formula, fileio
    from folp.fileio import parse_cs, read_cs_file, read_proof_file, write_proof_file
    from folp.parser import Parser, tokenize

    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import NON_THEOREMS, app, cases, chain, qchain, sum_family
    from test_golden import matcher_inputs

    cs = read_cs_file(ROOT / "tests" / "data" / "corpus.cs")
    budget = SearchBudget(max_nodes=100_000, max_depth=5_000, time_limit=300.0)
    text = chain(256)
    lex, tokens, swept = best_time(args.repeat, lambda: tokenize(text))
    print(f"chain-256 text: tokenize {lex / len(tokens) * 1e6:.2f} us/token, "
          f"{len(tokens):,} tokens; gc {gcs(swept)}")
    texts = [text for path in sorted((ROOT / "tests" / "data" / "models").glob("*.json"))
             for entry in json.loads(path.read_text())["evidence"]
             for text in (entry["term"], *entry["formulas"])]
    lex, lists, swept = best_time(args.repeat, lambda: [tokenize(text) for text in texts])
    count = sum(map(len, lists))
    scan, _, scan_swept = best_time(args.repeat, lambda: [Parser(text) for text in texts])
    print(f"model evidence texts: tokenize {lex / count * 1e6:.2f} us/token, "
          f"{count:,} tokens in {len(texts)} texts; the parser's own scan "
          f"{scan / count * 1e6:.2f} us/token; gc tokenize {gcs(swept)}, "
          f"scan {gcs(scan_swept)}")

    for entry in CS_ENTRIES:
        for n in (500, 8_000):
            cs_text = "const c.\n" + (entry + "\n") * n
            best, spec, swept = best_time(args.repeat, lambda: fileio._parse_cs(cs_text))
            assert len(spec.concrete) == n, (entry, len(spec.concrete))
            print(f"parse_cs, {n:,} entries {entry!r}: {best / n * 1e6:.1f} us/entry; "
                  f"gc {gcs(swept)}")

    formulas = matcher_inputs()
    match, _, swept = best_time(args.repeat, lambda: [match_axiom(f) for f in formulas])
    print(f"match_axiom: {match / len(formulas) * 1e6:.2f} us/call, "
          f"{len(formulas):,} formulas; gc {gcs(swept)}")
    del formulas  # so that the collections before later timed calls are short

    # What main builds and parses per call: the command's own parser.
    def parse(argv):
        return cli._command_parser(argv[0]).parse_known_args(argv[1:])

    calls = 100 * args.repeat
    for argv in CLI_ARGVS:
        best, _, swept = best_time(calls, lambda: parse(argv), collect=False)
        print(f"cli arguments, {argv[0]}: build and parse {best * 1e3:.3f} ms/call; "
              f"gc {gcs(swept)}")
    prove_argv = CLI_ARGVS[2]
    best, _, swept = best_time(calls, lambda: cli.build_parser().parse_args(prove_argv),
                               collect=False)
    print(f"cli arguments, prove with all commands: build and parse {best * 1e3:.3f} "
          f"ms/call; gc {gcs(swept)}")
    cs_path = ROOT / "tests" / "data" / "corpus.cs"

    def first_read():
        parse_cs("const c.\n")  # corpus.cs is not the last text parsed
        before = collections()
        start = time.perf_counter()
        read_cs_file(cs_path)
        return time.perf_counter() - start, ran(before, collections())

    firsts = [first_read() for _ in range(calls)]
    first = min(elapsed for elapsed, _ in firsts)
    first_swept = [sum(column) for column in zip(*(swept for _, swept in firsts))]
    again, _, swept = best_time(calls, lambda: read_cs_file(cs_path), collect=False)
    print(f"cli CS file, corpus.cs: read_cs_file first {first * 1e3:.3f} ms/call, "
          f"again {again * 1e3:.3f} ms/call; gc first {gcs(first_swept)}, "
          f"again {gcs(swept)}")

    goals = [("cases-4", cases(4)), ("cases-5", cases(5)), ("chain-256", chain(256)),
             *((f"qchain-{n}", qchain(n)) for n in (16, 64, 128)),
             *((f"app-{n}", app(n)) for n in (16, 64))]
    for name, text in goals:
        goal = parse_formula(text, cs.constants)
        best, outcome, swept = best_time(args.repeat, lambda: prove(goal, cs, budget))
        assert isinstance(outcome, Proved), outcome
        check, verdict, check_swept = best_time(
            args.repeat, lambda: check_proof(outcome.tree, cs, goal))
        assert verdict.accepted, verdict
        nodes = len(outcome.tree.nodes())
        applied = calls_of(search, "apply_rule", lambda: prove(goal, cs, budget))
        noted = calls_of(search._Agenda, "note", lambda: prove(goal, cs, budget))
        walks = distinct_eqs(Formula.__subclasses__(), lambda: prove(goal, cs, budget))
        print(f"{name}: prove {best:.3f} s, {nodes} nodes, "
              f"{best / nodes * 1e6:.1f} us/node, {applied / nodes:.2f} apply_rule "
              f"calls/node, {noted / nodes:.2f} agenda notes/node, {walks / nodes:.2f} "
              f"formula == calls/node on distinct objects, check {check:.3f} s; "
              f"gc prove {gcs(swept)}, check {gcs(check_swept)}")
        assert nodes == PROOF_NODES.get(name, nodes), (name, nodes, PROOF_NODES[name])

    parts = ("_read_json", "_parse_tree")
    for name, text in (("cases-4", cases(4)), ("chain-128", chain(128)),
                       ("sum-64", sum_family(64)), ("sum-128", sum_family(128)),
                       ("app-16", app(16))):
        goal = parse_formula(text, cs.constants)
        outcome = prove(goal, cs, budget)
        assert isinstance(outcome, Proved), outcome
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "proof.json"
            write, _, swept = best_time(args.repeat,
                                        lambda: write_proof_file(path, outcome.tree))
            runs = [timed_parts(fileio, parts, lambda: read_proof_file(path, cs.constants))
                    for _ in range(args.repeat)]
            size = path.stat().st_size
        tree = runs[-1][2]
        read = min(total for total, *_ in runs)
        decode, nodes = (min(spent[part] for _, spent, *_ in runs) for part in parts)
        roots = min(total - sum(spent.values()) for total, spent, *_ in runs)
        read_swept = [sum(column) for column in zip(*(r[3] for r in runs))]
        check, verdict, check_swept = best_time(args.repeat,
                                                lambda: check_proof(tree, cs, goal))
        assert verdict.accepted, verdict
        derived = [calls_of(checker, "apply_rule", lambda: check_proof(t, cs, goal))
                   for t in (tree, outcome.tree)]
        print(f"{name} proof file: write {write * 1e3:.2f} ms, read {read * 1e3:.2f} ms "
              f"(JSON {decode * 1e3:.2f}, roots and table {roots * 1e3:.2f}, "
              f"nodes {nodes * 1e3:.2f}), {size:,} bytes, "
              f"check read back {check * 1e3:.1f} ms; checker apply_rule calls "
              f"{derived[0]:,} read back, {derived[1]:,} on the prover's tree; "
              f"gc write {gcs(swept)}, read {gcs(read_swept)}, check {gcs(check_swept)}")

    for text, pinned in NON_THEOREMS:
        goal = parse_formula(text, cs.constants)
        best, search, swept = best_time(args.repeat,
                                        lambda: models._enumerate(goal, cs, 2, 200_000))
        assert search.status == "found", (text, search.status)
        assert search.models_checked == pinned, (text, search.models_checked, pinned)
        branch, found, branch_swept = best_time(
            args.repeat, lambda: find_countermodel(goal, cs, max_domain=2))
        assert (found.status, found.models_checked) == ("found", 0), (text, found)
        print(f"countermodel for {text}: {best:.3f} s, "
              f"{search.models_checked:,} models checked by the enumeration alone; "
              f"find_countermodel {branch * 1e3:.2f} ms, {found.models_checked} checked; "
              f"gc enumeration {gcs(swept)}, find_countermodel {gcs(branch_swept)}")


if __name__ == "__main__":
    main()
