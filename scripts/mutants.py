"""Mutation check: does some test need each rejection folp makes?

    python3 scripts/mutants.py [MODULE ...]

A rejecting guard is an ``if`` whose body calls ``_reject``, raises
``RuleError``, ``ModelError`` or ``FileFormatError``, returns
``Exhausted(...)`` or records a spent budget with ``agenda.hit(...)``.
Each guard of the named ``folp`` modules (default: checker, tableau,
models, fileio and search) gives mutants of two kinds: its test replaced
by ``False``, and each comparison operator in its test replaced by its
complement (``==`` by ``!=``, ``<`` by ``>=``, ``in`` by ``not in`` and
so on).  Each mutant is written into a copy of ``src`` in a temporary
directory, and the tier-1 tests run against it with ``-x``, the
module's own test file first.  A mutant is killed when the tests fail
(or run past ``TIMEOUT`` seconds) and survives when they pass.

``SURVIVORS`` lists the known survivors, each with its reason.  The
script prints one line per mutant and fails if a mutant survives that
is not listed, or if a listed mutant of a module it ran is killed or no
longer made.

A mutant is named by its module, its function and its guard's test
before and after the change, so the names survive edits elsewhere in
the file.  The tests run with a fixed hypothesis seed, so that a mutant
killed only by a generated example is killed on every run.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("checker", "tableau", "models", "fileio", "search")
# What a rejecting statement calls: as a statement, in a raise or in a return.
REJECTING = {"_reject", "agenda.hit", "RuleError", "ModelError", "FileFormatError", "Exhausted"}
TIMEOUT = 300

_COMPLEMENT = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}

# Known survivors, by name, with the reason each one stays.
SURVIVORS: dict[str, str] = {}


def _rejects(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Raise):
        call = stmt.exc
    elif isinstance(stmt, (ast.Expr, ast.Return)):
        call = stmt.value
    else:
        return False
    return isinstance(call, ast.Call) and ast.unparse(call.func) in REJECTING


def _sites(tree: ast.Module):
    """``(function, guard, compare, operator index)`` for each mutant, in
    source order; ``compare`` is None for the mutant whose test is
    ``False``."""
    funcs = [(f.name, f) for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner = {id(n): name for name, f in funcs for n in ast.walk(f)}
    guards = [n for n in ast.walk(tree)
              if isinstance(n, ast.If) and any(map(_rejects, n.body))]
    for guard in sorted(guards, key=lambda n: (n.lineno, n.col_offset)):
        func = owner.get(id(guard), "<module>")
        yield func, guard, None, 0
        for node in ast.walk(guard.test):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _COMPLEMENT:
                        yield func, guard, node, i


def mutants(module: str, source: str) -> list[tuple[str, str]]:
    """``(name, mutated source)`` for each mutant of ``module``."""
    out: list[tuple[str, str]] = []
    names: set[str] = set()
    count = len(list(_sites(ast.parse(source))))
    for k in range(count):
        tree = ast.parse(source)
        func, guard, compare, i = list(_sites(tree))[k]
        before = ast.unparse(guard.test)
        if compare is None:
            guard.test = ast.Constant(False)
        else:
            compare.ops[i] = _COMPLEMENT[type(compare.ops[i])]()
        name = f"{module}.{func}: {before} -> {ast.unparse(guard.test)}"
        while name in names:
            name += " (again)"
        names.add(name)
        out.append((name, ast.unparse(tree)))
    return out


def killed(module: str, mutated: str, work: Path) -> bool:
    """Whether the tests fail on ``src`` with ``module`` replaced by
    ``mutated``."""
    target = work / "src" / "folp" / f"{module}.py"
    target.write_text(mutated, encoding="utf-8")
    own = ROOT / "tests" / f"test_{module}.py"
    tests = [str(own)] if own.exists() else []
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests, str(ROOT / "tests")]
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    try:
        # The working directory keeps hypothesis's database out of the checkout.
        done = subprocess.run(command, cwd=work, env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="*", metavar="MODULE",
                    help=f"one of {', '.join(MODULES)} (default: all)")
    args = ap.parse_args(argv)
    for module in args.modules:
        if module not in MODULES:
            ap.error(f"unknown module {module!r}")
    args.modules = args.modules or MODULES
    # A terminated run still stops its test run and removes its copy.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for module in args.modules:
            path = work / "src" / "folp" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            made = mutants(module, source)
            names = {name for name, _ in made}
            for name in SURVIVORS:
                if name.startswith(module + ".") and name not in names:
                    failures.append(f"listed survivor no longer made: {name}")
            survived = 0
            for name, mutated in made:
                start = time.monotonic()
                dead = killed(module, mutated, work)
                survived += not dead
                status = "killed" if dead else "survived" + (
                    " (listed)" if name in SURVIVORS else " (NEW)")
                print(f"{status:18} {time.monotonic() - start:5.1f} s  {name}", flush=True)
                if dead and name in SURVIVORS:
                    failures.append(f"listed survivor now killed: {name}")
                if not dead and name not in SURVIVORS:
                    failures.append(f"new survivor: {name}")
            path.write_text(source, encoding="utf-8")
            print(f"{module}: {len(made)} mutants, {len(made) - survived} killed, "
                  f"{survived} survived", flush=True)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
