"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 1]

Also a smoke check of the benchmark itself; it exits non-zero unless

- every metric that BENCHMARK.json declares is emitted with its unit
  (end-to-end metrics untraced, per-layer metrics traced) and every run
  reports correct outputs, and
- a change of seed changes the corpus variants and the order of items of
  every workload, but not the item sets of families and models.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_seeds(a: int, b: int) -> list[str]:
    problems = []
    for name in workloads.BUILDERS:
        one, two = workloads.build(name, a).items, workloads.build(name, b).items
        if one == two:
            problems.append(f"{name}: seeds {a} and {b} give the same item order")
        same_set = set(one) == set(two)
        if name == "corpus" and same_set:
            problems.append(f"corpus: seeds {a} and {b} give the same variants")
        if name != "corpus" and not same_set:
            problems.append(f"{name}: seeds {a} and {b} give different item sets")
    return problems


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    if done.returncode != 0:
        sys.stdout.write(done.stderr)
        raise SystemExit(f"{workload} trace={trace} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append(f"{label}: an output contradicts its known answer")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{label}: {m['name']} not emitted")
        elif got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} in {got['unit']}, "
                            f"declared {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_seeds(args.seed, args.seed + 1)
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(wl["name"], args.seed, args.seconds, trace)
            problems += check_result(result, declared,
                                     f"{wl['name']} trace={trace}")
    for p in problems:
        print("FAIL", p)
    print("smoke check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
