"""lmlab benchmark: one seeded workload per run, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 25 --trace 0

The code under test is the checkout's ``src/lmlab``, found relative to this
file.  A run builds one pass of operations from the seed, repeats the pass
in a closed loop (one caller, no concurrency) for the given seconds, checks
every output, and prints a report whose last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` half the time runs untraced and half with every layer
wrapped by the tracer, and the metrics are the per-layer ones.  Facts about
the machine and the tree, the tail latency, the failure share and the span
table are written beside the result under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_PROBES = 7
INTERPRETER_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Calibration: at most this many seconds between kernel samples (operations
#: are not interrupted), and the kernel's time at the reference speed that
#: end-to-end timings are scaled to.
CALIBRATE_EVERY = 0.25
REFERENCE_KERNEL_S = 0.0025


def kernel() -> int:
    """Fixed pure-Python work (tuples, dict updates, small and big integers)
    whose time tracks the processor's current speed."""
    table: dict = {}
    acc = 1
    for i in range(8000):
        key = (i % 97, i % 89, i * 7 % 83)
        table[key] = table.get(key, 0) + i
        if i % 64 == 0:
            acc = acc * 3 + i
    return len(table) + acc.bit_length()


def calibrate() -> float:
    """The kernel's fastest time of three, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Loop:
    """What a closed loop of passes measured and how its checks went."""

    passes: list = field(default_factory=list)  # per pass: the latency of each op
    kernels: list = field(default_factory=list)  # per pass: calibration samples
    marks: list = field(default_factory=list)  # per pass: per op, the last sample before it
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    messages: list = field(default_factory=list)

    @property
    def walls(self) -> list[float]:
        return [sum(times) for times in self.passes]

    def scaled(self) -> list[list[float]]:
        """Latencies at the reference speed: each op's time times the
        reference kernel time over the mean of the samples around it."""
        return [
            [t * REFERENCE_KERNEL_S * 2 / (kernels[j] + kernels[j + 1]) for t, j in zip(times, marks)]
            for times, kernels, marks in zip(self.passes, self.kernels, self.marks)
        ]


def run_passes(wl, ops, budget: float, loop: Loop, tracer=None) -> Loop:
    """Repeat the pass while the next one still fits in the budget (at least once).

    The tracer, if any, is installed for the timed part of each pass only, so
    the checks between passes leave no spans.
    """
    spent = 0.0
    while True:
        results, times, kernels, marks = [], [], [], []
        gc.collect()  # every pass starts from the same heap, not the last pass's garbage
        if tracer is not None:
            tracer.install()
        calibrated = -math.inf
        for op in ops:
            if perf_counter() - calibrated > CALIBRATE_EVERY:
                kernels.append(calibrate())
                calibrated = perf_counter()
            marks.append(len(kernels) - 1)
            t0 = perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            times.append(perf_counter() - t0)
            results.append(result)
        kernels.append(calibrate())
        if tracer is not None:
            tracer.uninstall()
        loop.passes.append(times)
        loop.kernels.append(kernels)
        loop.marks.append(marks)
        wall = sum(times)
        spent += wall
        check_pass(wl, ops, results, loop)
        if spent + wall > budget:
            return loop


def check_pass(wl, ops, results, loop: Loop) -> None:
    from workloads import fail

    loop.attempted += len(ops)
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            verdict = fail(f"{op.kind}: raised {type(result).__name__}: {result}")
        else:
            try:
                verdict = wl.check(op, result)
            except Exception as exc:  # malformed output breaks the check: a failure
                verdict = fail(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
        loop.known_defects += verdict.known_defect
        if not verdict.ok:
            loop.failed += 1
            loop.messages.append(verdict.message)
    if not any(isinstance(r, Exception) for r in results):
        problems = wl.check_pass(ops, results)
        loop.failed += len(problems)
        loop.messages.extend(problems)


# ---------------------------------------------------------------------------
# child-process probes


def timed_child(argv: list[str], env: dict) -> tuple[float, bytes]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120, check=True)
    return perf_counter() - t0, proc.stdout


def setup_times(workload: str, seed: int, env: dict) -> list[float]:
    """Process start to the first timed operation, in fresh processes, each
    scaled to the reference speed by calibrations just before and after it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.decode(errors='replace')[-500:]}")
        times.append(elapsed * REFERENCE_KERNEL_S / statistics.fmean((before, calibrate())))
    return times


def interpreter_times(env: dict) -> list[float]:
    return [timed_child([sys.executable, "-c", "pass"], env)[0] for _ in range(INTERPRETER_PROBES)]


def import_probe(env: dict) -> tuple[list[float], int]:
    """Times of ``import lmlab`` in fresh interpreters, and whether it loads numpy."""
    code = "import sys, lmlab; print(int('numpy' in sys.modules))"
    probes = [timed_child([sys.executable, "-c", code], env) for _ in range(INTERPRETER_PROBES)]
    return [t for t, _ in probes], int(probes[-1][1].strip())


# ---------------------------------------------------------------------------
# metrics


def tail_latency(latencies: list[float]) -> dict | None:
    """The highest ladder percentile with at least ten operations beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            rank = math.ceil(p / 100 * n)
            return {"value_ms": ordered[rank - 1] * 1e3, "percentile": p, "count": n}
    return None


def end_to_end(loop: Loop, items_per_pass: int, setup: list[float], rss_kb: int) -> dict[str, float]:
    """Medians of times scaled to the reference speed."""
    scaled = loop.scaled()
    wall = statistics.median(sum(times) for times in scaled)
    latencies = [t for times in scaled for t in times]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": items_per_pass / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }


#: Span name -> which of its aggregates are per-layer metrics.
SPAN_METRICS = {
    "core.iter_ball_coords": ("calls", "items", "self_s"),
    "lattice.QuotientMap.residue": ("calls", "self_s"),
    "lattice.verify_lattice_packing": ("calls", "self_s"),
    "lattice.smith_normal_form": ("calls", "self_s"),
    "search.enumerate_sublattices": ("items", "self_s"),
    "search.search_perfect_lattices": ("calls", "self_s"),
    "search.verify_window_packing": ("self_s",),
    "bounds.classify": ("calls", "self_s"),
    "bounds.bound_prereq": ("self_s",),
    "bounds.bound_small_s": ("self_s",),
    "bounds.bound_asymptotic": ("self_s",),
    "bounds.bound_large_s": ("self_s",),
    "bounds.bound_lattice_cases": ("self_s",),
    "bounds.table_row": ("calls", "self_s"),
    "intervals.Interval.log2": ("calls", "self_s"),
    "intervals.Interval.exact": ("calls",),
    "intervals.compare_ge": ("calls", "self_s"),
    "intervals.ceil_of": ("calls", "self_s"),
    "metric.is_e_correcting": ("self_s",),
    "metric.difference_set_equivalence": ("self_s",),
    "metric.channel_distance": ("calls",),
    "qp.continuous_oracle_search": ("self_s",),
    "qp.form_max_closed": ("self_s",),
    "qp.form_max_oracle_binary": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

#: Counters the tracer takes from return values; exact, so they repeat.
COUNT_METRICS = (
    "lattice.verdict.tiles", "lattice.verdict.packs", "lattice.verdict.fails",
    "search.found",
    "bounds.status.excludes", "bounds.status.silent",
    "bounds.status.hypotheses-unmet", "bounds.status.boundary-uncertain",
    "bounds.verdict.exists", "bounds.verdict.excluded", "bounds.verdict.open",
    "intervals.undecided",
)


def combine(parts) -> tuple[dict, Counter, Counter]:
    """Sum tracers' aggregates, each scaled by its weight (1 / passes traced)."""
    totals: dict[str, list] = {}
    items: Counter = Counter()
    counts: Counter = Counter()
    for tracer, weight in parts:
        for name, values in tracer.totals().items():
            rec = totals.setdefault(name, [0.0, 0.0, 0.0])
            for i, v in enumerate(values):
                rec[i] += v * weight
        for name, v in tracer.items.items():
            items[name] += v * weight
        for name, v in tracer.counts.items():
            counts[name] += v * weight
    return totals, items, counts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(totals, items, counts) -> dict[str, float]:
    """Per-layer metrics, per pass, from combined span aggregates."""
    from tracer import LAYERS

    zero = (0.0, 0.0, 0.0)
    calls = lambda name: totals.get(name, zero)[0]  # noqa: E731
    self_s = lambda name: totals.get(name, zero)[2]  # noqa: E731
    m: dict[str, float] = {}
    for name, fields in SPAN_METRICS.items():
        for f in fields:
            m[f"{name}.{f}"] = {"calls": calls, "self_s": self_s, "items": items.__getitem__}[f](name)
    for name in COUNT_METRICS:
        m[name] = counts[name]
    residue = "lattice.QuotientMap.residue"
    m["lattice.residue_us_per_vector"] = 1e6 * ratio(self_s(residue), calls(residue))
    m["lattice.residues_per_verify"] = ratio(calls(residue), calls("lattice.verify_lattice_packing"))
    candidates = items["search.enumerate_sublattices"]
    m["search.yield_ratio"] = ratio(counts["search.found"], candidates)
    m["search.snf_per_candidate"] = ratio(calls("lattice.smith_normal_form"), candidates)
    decisions = calls("intervals.compare_ge") + calls("intervals.ceil_of")
    m["intervals.decided_ratio"] = ratio(decisions - counts["intervals.undecided"], decisions)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for name, v in totals.items() if name.startswith(layer + "."))
    return m


# ---------------------------------------------------------------------------


def facts(workload: str, seed: int, seconds: float, trace: int, interpreter: list[float]) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "bare_interpreter_s": statistics.median(interpreter),
    }


def prepare(name: str, seed: int, tiny: bool = False):
    """Set-up: the workload, its seeded pass, and a warm-up."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, tiny)
    ops = wl.make_ops()
    wl.warm_up()
    return wl, ops


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: bool = True) -> dict:
    """One benchmark run.  ``tiny`` shrinks the inputs and ``probes=False``
    skips the child-process probes; both exist for the benchmark's tests."""
    import workloads
    from tracer import Tracer

    wl, ops = prepare(name, seed, tiny)
    env = workloads.child_env()
    loop = Loop()
    record: dict = {}
    if not trace:
        run_passes(wl, ops, seconds, loop)
        usage = resource.RUSAGE_CHILDREN if name == "cli-oneshot" else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(usage).ru_maxrss
        setup = setup_times(name, seed, env) if probes else [0.0]
        interpreter = interpreter_times(env) if probes else [0.0]
        metrics = end_to_end(loop, sum(op.items for op in ops), setup, rss_kb)
        record["setup_samples"] = setup
    else:
        run_passes(wl, ops, seconds / 2, loop)
        untraced = statistics.median(loop.walls)
        passes_before = len(loop.walls)
        passes_tracer = Tracer()
        run_passes(wl, ops, seconds / 2, loop, passes_tracer)
        traced = statistics.median(loop.walls[passes_before:])
        with Tracer() as mix_tracer:
            wl.in_process_mix(ops)
        parts = [(passes_tracer, 1 / (len(loop.walls) - passes_before)), (mix_tracer, 1)]
        metrics = per_layer(*combine(parts))
        interpreter = interpreter_times(env) if probes else [0.0]
        imports, numpy_loaded = import_probe(env) if probes else ([0.0], 0)
        metrics.update({
            "cli.interpreter_s": statistics.median(interpreter),
            "cli.import_s": statistics.median(imports) - statistics.median(interpreter),
            "cli.numpy_loaded": numpy_loaded,
            "bounds.known_defects": loop.known_defects / len(loop.walls),
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
        })
        record["missing"] = sorted(n for n in SPAN_METRICS if n not in passes_tracer.wrapped)
        record["missing_layers"] = passes_tracer.missing_layers
        record["spans"] = {"passes": passes_tracer.table(), "in_process_mix": mix_tracer.table()}
    record.update({
        "facts": facts(name, seed, seconds, int(trace), interpreter),
        "passes": len(loop.walls),
        "pass_walls_s": loop.walls,
        "kernel_s": loop.kernels,
        "items_per_pass": sum(op.items for op in ops),
        "item_unit": wl.item_unit,
        "op_tail_ms": tail_latency([t for times in loop.passes for t in times]),
        "fail_ratio": ratio(loop.failed, loop.attempted),
        "known_defect_ratio": ratio(loop.known_defects, loop.attempted),
        "failures": loop.messages[:20],
    })
    return {"loop": loop, "metrics": metrics, "record": record}


def report(args, run: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    loop, metrics, record = run["loop"], run["metrics"], run["record"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {record['passes']}")
    out = {}
    for m in listed:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    tail = record["op_tail_ms"]
    if tail is not None:
        print(f"  op_tail_ms (p{tail['percentile']:g} of {tail['count']} ops)  {tail['value_ms']:.6g} ms")
    print(f"  fail_ratio {record['fail_ratio']:.6g}  known_defect_ratio {record['known_defect_ratio']:.6g}")
    for message in record["failures"]:
        print(f"  FAILED: {message}", file=sys.stderr)
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"metrics": out, **record}, indent=1, sort_keys=True) + "\n")
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": out}


def main(argv=None) -> int:
    if not (SRC / "lmlab" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC}/lmlab or {SPEC} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in workloads.STRIPPED_ENV:
        os.environ.pop(name, None)

    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    result = report(args, measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
