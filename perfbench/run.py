"""folp benchmark: time to a checked verdict through ``folp.cli.main``.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; folp is imported from ``src``.
One process runs a closed loop, one item at a time.  Each item is a goal
or query taken to a verdict that is checked against its known answer.
After two untimed warm-up items, the run repeats passes over the
workload's items until ``--seconds`` is spent (at least one pass).
Between items, outside their timers, it times a fixed reference kernel
(``speed.py``) to follow the shared host's speed; the end-to-end timings
use each item's median over the passes of its time scaled to the
kernel's nominal speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced pass and reports per-layer metrics from the
traced passes, with the tracing overhead.  Both print every metric by
name with its unit, write the per-item rows and the run's environment
to ``perfbench/out/``, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import workloads
from speed import NOMINAL_KERNEL_S, SpeedProbe
from tracing import LAYERS, Tracer
from workloads import MODEL, PROOF, REFUTE, Item, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7

# Untimed items run first, so that no timed item pays for first calls.
WARM_UP = (
    Item("warm-up-proof", PROOF, "Q0 -> Q0", 3),
    Item("warm-up-model", MODEL, "Q0 -> Q0", 3, model="model01.json"),
)

END_TO_END = {
    "par2_s": "s",
    "decided_ratio": "1",
    "item_p50_ms": "ms",
    "item_p98_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "proof_bytes": "B",
    "proof_nodes": "1",
}

PER_LAYER = {
    "cli.prove.calls": "count",
    "cli.check.calls": "count",
    "cli.model-check.calls": "count",
    "cli.self_s": "s",
    "parser.parse_formula.calls": "count",
    "parser.parse_formula.s": "s",
    "parser.print_formula.calls": "count",
    "parser.print_formula.s": "s",
    "parser.tokenize.s": "s",
    "parser.self_s": "s",
    "syntax.canonical.calls": "count",
    "syntax.canonical.s": "s",
    "syntax.substitute.calls": "count",
    "syntax.substitute.s": "s",
    "syntax.walk.calls": "count",
    "syntax.walk.s": "s",
    "syntax.self_s": "s",
    "axioms.cs_contains.calls": "count",
    "axioms.cs_contains.s": "s",
    "axioms.match_axiom.calls": "count",
    "axioms.self_s": "s",
    "tableau.apply_rule.from_search.calls": "count",
    "tableau.apply_rule.from_search.s": "s",
    "tableau.apply_rule.from_search.errors": "count",
    "tableau.apply_rule.from_checker.calls": "count",
    "tableau.apply_rule.from_checker.s": "s",
    "tableau.apply_rule.from_checker.errors": "count",
    "tableau.closure_against.calls": "count",
    "tableau.closure_against.s": "s",
    "tableau.self_s": "s",
    "search.prove.calls": "count",
    "search.prove.s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.apply_per_node": "1",
    "search.outcome.proved": "count",
    "search.outcome.open": "count",
    "search.outcome.exhausted": "count",
    "search.exponent.chain": "1",
    "search.exponent.cases": "1",
    "search.exponent.sum": "1",
    "search.exponent.app": "1",
    "checker.check_proof.calls": "count",
    "checker.check_proof.s": "s",
    "checker.nodes_per_s": "1/s",
    "checker.self_s": "s",
    "fileio.write_proof_file.s": "s",
    "fileio.read_proof_file.s": "s",
    "fileio.proof_to_dict.s": "s",
    "fileio.parse_proof.s": "s",
    "fileio.read_cs_file.calls": "count",
    "fileio.read_cs_file.s": "s",
    "fileio.read_model_file.s": "s",
    "fileio.bytes_per_node": "B",
    "fileio.self_s": "s",
    "models.find_countermodel.s": "s",
    "models.models_checked": "count",
    "models.validate_model.from_models.calls": "count",
    "models.validate_model.from_models.s": "s",
    "models.validate_model.from_cli.calls": "count",
    "models.validate_model.from_cli.s": "s",
    "models.admissible_ratio": "1",
    "models.satisfies.calls": "count",
    "models.satisfies.s": "s",
    "models.self_s": "s",
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_s": "s",
    "bench.tracing_overhead_ratio": "1",
}

# Verdicts that contradict an item's known answer, per kind.  Any other
# verdict than the expected one leaves the item undecided.
WRONG = {
    PROOF: {"rejected"},
    MODEL: {"false", "invalid"},
    REFUTE: {"proved", "bad-countermodel"},
}


# ---------------------------------------------------------------------------
# Loading folp and timing its set-up


def load_folp():
    """Import folp from this checkout's ``src``, never from elsewhere."""
    init = SRC / "folp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a folp checkout")
    sys.path.insert(0, str(SRC))
    import folp
    import folp.cli
    import folp.fileio

    if Path(folp.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported folp from {folp.__file__}, not {init}")
    return folp


# The kernel is imported after the timed part, so that the modules it
# needs are not loaded ahead of folp's.  Its first run is a warm-up.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import folp
from folp.fileio import read_cs_file, read_model_file
cs = read_cs_file(sys.argv[3])
models = [read_model_file(p, cs.constants) for p in sys.argv[4:]]
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from speed import time_kernel
time_kernel()
print(elapsed, *(time_kernel() for _ in range(5)))
"""


def measure_setup(repeats: int) -> list[dict]:
    """Seconds a fresh process takes to import folp and load the CS and
    model files, once per repeat; interpreter start-up is not included.
    Each time is also scaled by the kernel's time right after it."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE),
            str(workloads.CS_PATH), *map(str, workloads.model_files())]
    out = []
    for _ in range(repeats):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True)
        elapsed, *kernel = map(float, done.stdout.split())
        kernel_s = statistics.fmean(kernel)
        out.append({"time_s": elapsed, "kernel_s": kernel_s,
                    "scaled_s": elapsed * NOMINAL_KERNEL_S / kernel_s})
    return out


# ---------------------------------------------------------------------------
# Items


@dataclass
class Row:
    pass_no: int
    traced: bool
    id: str
    kind: str
    family: Optional[str]
    n: Optional[int]
    size: int
    expected: str
    verdict: str
    status: str  # decided, undecided or wrong
    time_s: float
    start_s: float  # perf_counter when the item began
    kernel_s: float = 0.0  # reference kernel's time around the item
    scaled_s: float = 0.0  # time_s at the nominal host speed
    proof_bytes: int = 0
    proof_nodes: int = 0


class Runner:
    """Takes items to verdicts through the CLI, as a user would."""

    def __init__(self, folp, workload: Workload, work_dir: Path):
        self.folp = folp
        self.cs_path = str(workloads.CS_PATH)
        # The countermodel half of a non-theorem item has no CLI command;
        # it calls the API with this CS, loaded once.
        self.cs = folp.fileio.read_cs_file(self.cs_path)
        self.limit_s = workload.limit_s
        self.prove_flags = ("--timeout", str(workload.limit_s), *workload.prove_flags)
        self.proof_path = work_dir / "proof.json"
        self.models_dir = workloads.DATA / "models"

    def cli(self, *argv: str) -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.folp.cli.main(list(argv))
        return rc, sink.getvalue()

    def verdict(self, item: Item) -> str:
        if item.kind == PROOF:
            return self._proof(item.goal)
        if item.kind == MODEL:
            return self._model(item)
        return self._refute(item.goal)

    def _proof(self, goal: str) -> str:
        path = str(self.proof_path)
        rc, text = self.cli("prove", goal, "--cs", self.cs_path, "--out", path,
                            *self.prove_flags)
        if rc == 1:
            return "exhausted" if text.startswith("exhausted") else "open"
        if rc != 0:
            return f"exit-{rc}"
        rc, text = self.cli("check", path, "--cs", self.cs_path, "--goal", goal)
        if rc == 0 and text.strip() == "accept":
            return "proved"
        return "rejected" if rc == 1 else f"exit-{rc}"

    def _model(self, item: Item) -> str:
        rc, text = self.cli("model-check", str(self.models_dir / item.model),
                            "--cs", self.cs_path, "--formula", item.goal)
        lines = text.split()
        if rc == 0 and lines[-1:] == ["true"]:
            return "true"
        if rc == 1:
            return "invalid" if text.startswith("invalid") else "false"
        return f"exit-{rc}"

    def _refute(self, goal: str) -> str:
        rc, _ = self.cli("prove", goal, "--cs", self.cs_path,
                         "--timeout", str(self.limit_s))
        if rc == 0:
            return "proved"
        if rc != 1:
            return f"exit-{rc}"
        folp = self.folp
        f = folp.parse_formula(goal, self.cs.constants)
        found = folp.find_countermodel(f, self.cs, max_domain=2)
        if found.status != "found":
            return f"countermodel-{found.status}"
        if folp.validate_model(found.model, self.cs) or folp.satisfies(found.model, f):
            return "bad-countermodel"
        return "refuted"

    def take_proof(self, count_nodes: bool) -> tuple[int, int]:
        """Size and node count of the proof the last item wrote, if any;
        the file is removed.  Runs outside the item's timer."""
        path = self.proof_path
        if not path.exists():
            return 0, 0
        size = path.stat().st_size
        nodes = 0
        if count_nodes:
            tree = self.folp.fileio.read_proof_file(path, self.cs.constants)
            nodes = len(tree.nodes())
        path.unlink()
        return size, nodes


def run_pass(runner: Runner, items: list[Item], pass_no: int,
             tracer: Optional[Tracer], probe: SpeedProbe,
             count_nodes: bool) -> list[Row]:
    rows = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = idx
        probe.maybe_sample()
        t0 = time.perf_counter()
        try:
            verdict = runner.verdict(item)
        except (Exception, SystemExit) as exc:  # a crash is a failed item
            verdict = f"error:{type(exc).__name__}"
        elapsed = time.perf_counter() - t0
        size, nodes = runner.take_proof(count_nodes and verdict == item.expected)
        if verdict == item.expected:
            status = "decided"
        elif verdict in WRONG[item.kind]:
            status = "wrong"
        else:
            status = "undecided"
        rows.append(Row(pass_no, tracer is not None, item.id, item.kind,
                        item.family, item.n, item.size, item.expected, verdict,
                        status, elapsed, t0, proof_bytes=size, proof_nodes=nodes))
    probe.sample()
    return rows


def scale_rows(rows: list[Row], probe: SpeedProbe) -> None:
    """Fill in each row's kernel time and its time at nominal speed."""
    for r in rows:
        r.kernel_s = probe.around(r.start_s, r.start_s + r.time_s)
        r.scaled_s = r.time_s * NOMINAL_KERNEL_S / r.kernel_s


# ---------------------------------------------------------------------------
# Metrics


def par2(rows: list[Row], limit_s: float) -> float:
    """PAR-2: item times summed, an item not decided charged 2 x limit."""
    return sum(r.time_s if r.status == "decided" else 2 * limit_s for r in rows)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) on log(size): time ~ size^k."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def family_exponents(items: list[Item], seconds_by_item: dict[int, float],
                     decided: set[int]) -> dict[str, float]:
    out = {}
    for family in workloads.FAMILY_SIZES:
        pts = [(it.size, seconds_by_item.get(i, 0.0)) for i, it in enumerate(items)
               if it.family == family and i in decided]
        out[family] = scaling_exponent(pts)
    return out


def item_times(rows: list[Row]) -> dict[str, tuple[float, bool]]:
    """Per item: the median over the passes of its time at nominal host
    speed, and whether every pass decided it."""
    times: dict[str, list[float]] = {}
    decided: dict[str, bool] = {}
    for r in rows:
        times.setdefault(r.id, []).append(r.scaled_s)
        decided[r.id] = decided.get(r.id, True) and r.status == "decided"
    return {i: (statistics.median(ts), decided[i]) for i, ts in times.items()}


def end_to_end_metrics(passes: list[list[Row]], limit_s: float,
                       setup: list[dict]) -> dict[str, float]:
    rows = [r for p in passes for r in p]
    per_item = item_times(rows).values()
    times_ms = [t * 1e3 for t, _ in per_item]
    return {
        "par2_s": sum(t if ok else 2 * limit_s for t, ok in per_item),
        "decided_ratio": sum(r.status == "decided" for r in rows) / len(rows),
        "item_p50_ms": statistics.median(times_ms),
        "item_p98_ms": nearest_rank(times_ms, 0.98),
        "setup_s": statistics.median(s["scaled_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "proof_bytes": statistics.median(sum(r.proof_bytes for r in p) for p in passes),
        "proof_nodes": sum(r.proof_nodes for r in passes[0]),
    }


def per_layer_metrics(summary: dict, n: int, items: list[Item],
                      decided: set[int], overhead_s: float,
                      overhead_ratio: float, unattributed_s: float) -> dict[str, float]:
    """Per-layer figures, per traced pass."""
    fns = summary["functions"]
    counters = summary["counters"]

    def fn(layer, names, field, binding=None):
        names = (names,) if isinstance(names, str) else names
        total = sum(v[field] for (l, name, b), v in fns.items()
                    if l == layer and name in names and binding in (None, b))
        return total / n

    def count(key):
        return counters.get(key, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: s / n for layer, s in summary["layer_self_s"].items()}
    walk = ("free_vars", "par_set", "elem_set")
    nodes = count("search.nodes")
    prove_s = fn("search", "prove", "s")
    validate_models_calls = fn("models", "validate_model", "calls", "models")
    exponents = family_exponents(
        items, {i: s / n for i, s in summary["prove_s_by_item"].items()}, decided)
    m = {
        "cli.prove.calls": fn("cli", "cmd_prove", "calls"),
        "cli.check.calls": fn("cli", "cmd_check", "calls"),
        "cli.model-check.calls": fn("cli", "cmd_model_check", "calls"),
        "parser.parse_formula.calls": fn("parser", "parse_formula", "calls"),
        "parser.parse_formula.s": fn("parser", "parse_formula", "s"),
        "parser.print_formula.calls": fn("parser", "print_formula", "calls"),
        "parser.print_formula.s": fn("parser", "print_formula", "s"),
        "parser.tokenize.s": fn("parser", "tokenize", "s"),
        "syntax.canonical.calls": fn("syntax", "canonical", "calls"),
        "syntax.canonical.s": fn("syntax", "canonical", "s"),
        "syntax.substitute.calls": fn("syntax", "substitute", "calls"),
        "syntax.substitute.s": fn("syntax", "substitute", "s"),
        "syntax.walk.calls": fn("syntax", walk, "calls"),
        "syntax.walk.s": fn("syntax", walk, "s"),
        "axioms.cs_contains.calls": fn("axioms", "cs_contains", "calls"),
        "axioms.cs_contains.s": fn("axioms", "cs_contains", "s"),
        "axioms.match_axiom.calls": fn("axioms", "match_axiom", "calls"),
        "tableau.closure_against.calls": fn("tableau", "closure_against", "calls"),
        "tableau.closure_against.s": fn("tableau", "closure_against", "s"),
        "search.prove.calls": fn("search", "prove", "calls"),
        "search.prove.s": prove_s,
        "search.nodes": nodes,
        "search.nodes_per_s": ratio(nodes, prove_s),
        "search.apply_per_node": ratio(
            fn("tableau", "apply_rule", "calls", "search"), nodes),
        "search.outcome.proved": count("search.outcome.proved"),
        "search.outcome.open": count("search.outcome.open"),
        "search.outcome.exhausted": count("search.outcome.exhausted"),
        "checker.check_proof.calls": fn("checker", "check_proof", "calls"),
        "checker.check_proof.s": fn("checker", "check_proof", "s"),
        "checker.nodes_per_s": ratio(count("checker.nodes"),
                                     fn("checker", "check_proof", "s")),
        "fileio.write_proof_file.s": fn("fileio", "write_proof_file", "s"),
        "fileio.read_proof_file.s": fn("fileio", "read_proof_file", "s"),
        "fileio.proof_to_dict.s": fn("fileio", "proof_to_dict", "s"),
        "fileio.parse_proof.s": fn("fileio", "parse_proof", "s"),
        "fileio.read_cs_file.calls": fn("fileio", "read_cs_file", "calls"),
        "fileio.read_cs_file.s": fn("fileio", "read_cs_file", "s"),
        "fileio.read_model_file.s": fn("fileio", "read_model_file", "s"),
        "fileio.bytes_per_node": ratio(count("fileio.proof_bytes"),
                                       count("fileio.proof_nodes")),
        "models.find_countermodel.s": fn("models", "find_countermodel", "s"),
        "models.models_checked": count("models.models_checked"),
        "models.validate_model.from_models.calls": validate_models_calls,
        "models.validate_model.from_models.s":
            fn("models", "validate_model", "s", "models"),
        "models.validate_model.from_cli.calls":
            fn("models", "validate_model", "calls", "cli"),
        "models.validate_model.from_cli.s":
            fn("models", "validate_model", "s", "cli"),
        "models.admissible_ratio": ratio(count("models.admissible"),
                                         validate_models_calls),
        "models.satisfies.calls": fn("models", "satisfies", "calls"),
        "models.satisfies.s": fn("models", "satisfies", "s"),
        "bench.unattributed_s": unattributed_s,
        "bench.tracing_overhead_s": overhead_s,
        "bench.tracing_overhead_ratio": overhead_ratio,
    }
    for caller in ("search", "checker"):
        for field in ("calls", "s", "errors"):
            m[f"tableau.apply_rule.from_{caller}.{field}"] = fn(
                "tableau", "apply_rule", field, caller)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for family, k in exponents.items():
        m[f"search.exponent.{family}"] = k
    return m


# ---------------------------------------------------------------------------
# Environment and output


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:>16.6g}  {unit}")


# ---------------------------------------------------------------------------
# Main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    folp = load_folp()
    traced = bool(args.trace)
    setup = [] if traced else measure_setup(SETUP_REPEATS)
    wl = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    tracer = Tracer() if traced else None
    probe = SpeedProbe()
    plain: list[list[Row]] = []
    with_trace: list[list[Row]] = []
    try:
        runner = Runner(folp, wl, work_dir)
        run_pass(runner, list(WARM_UP), -1, None, probe, count_nodes=False)
        deadline = time.perf_counter() + args.seconds
        while True:
            began = time.perf_counter()
            plain.append(run_pass(runner, wl.items, len(plain) + len(with_trace),
                                  None, probe,
                                  count_nodes=not plain and not traced))
            if traced:
                tracer.install()
                try:
                    with_trace.append(run_pass(runner, wl.items,
                                               len(plain) + len(with_trace),
                                               tracer, probe, count_nodes=False))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_rows = [r for p in plain + with_trace for r in p]
    scale_rows(all_rows, probe)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"environment": environment(args)}
    if traced:
        n = len(with_trace)
        summary = tracer.summary()
        untraced = statistics.median(par2(p, wl.limit_s) for p in plain)
        overhead = statistics.median(par2(p, wl.limit_s) for p in with_trace) - untraced
        item_s = sum(r.time_s for p in with_trace for r in p)
        decided = {i for i, r in enumerate(with_trace[0]) if r.status == "decided"}
        metrics = per_layer_metrics(
            summary, n, wl.items, decided, overhead, overhead / untraced,
            (item_s - summary["top_level_s"]) / n)
        units = PER_LAYER
        spans_path = OUT / f"{args.workload}-spans.bin"
        tracer.write(spans_path)
        result["spans"] = {"file": spans_path.name, "count": len(tracer.start)}
        result["hook_errors"] = summary["counters"].get("bench.hook_errors", 0)
        result["functions"] = [
            {"layer": l, "function": f, "binding": b, **v}
            for (l, f, b), v in sorted(summary["functions"].items())]
    else:
        metrics = end_to_end_metrics(plain, wl.limit_s, setup)
        units = END_TO_END
        per_item = item_times(all_rows)
        result["family_exponents"] = family_exponents(
            wl.items, {i: per_item[it.id][0] for i, it in enumerate(wl.items)},
            {i for i, it in enumerate(wl.items) if per_item[it.id][1]})
        result["setup_s"] = setup
    result["kernel"] = {"at": probe.at, "kernel_s": probe.kernel_s}
    result["samples"] = {"passes": len(plain) + len(with_trace),
                         "items": len(all_rows)}
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    result["rows"] = [asdict(r) for r in all_rows]
    (OUT / f"{stem}.json").write_text(json.dumps(result, separators=(",", ":")),
                                      encoding="utf-8")

    print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                f"passes={len(plain) + len(with_trace)} items={len(all_rows)}",
                metrics, units)
    if result.get("hook_errors"):
        print(f"  warning: {result['hook_errors']:g} tracing hooks failed; "
              "their counters are incomplete")
    failed = sum(r.status != "decided" for r in all_rows)
    for r in all_rows:
        if r.status != "decided" and r.pass_no == 0:
            print(f"  not decided: {r.id} ({r.kind}) -> {r.verdict}")
    line = {
        "correct": not any(r.status == "wrong" for r in all_rows),
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
