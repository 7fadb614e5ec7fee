"""Tests of the benchmark's own code: names, tracer, checks, tiny runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import lmlab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
            names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match_the_spec():
    ref = run.REFERENCE_KERNEL_S
    # Two passes of two ops; the second pass ran at half speed.
    loop = run.Loop(passes=[[0.5, 1.5], [1.0, 3.0]], kernels=[[ref, ref, ref], [2 * ref, 2 * ref]],
                    marks=[[0, 1], [0, 0]])
    produced = run.end_to_end(loop, 100, [0.5], 1024)
    assert list(produced) == [m["name"] for m in SPEC["end_to_end"]]
    assert produced["wall_s"] == 2.0 and produced["items_per_s"] == 50.0
    assert produced["op_p50_ms"] == 1000.0
    assert produced["peak_rss_mb"] == 1.0


def test_traced_run_reports_exactly_the_per_layer_metrics():
    result = run.measure("verify-large", 0, 0.0, True, tiny=True, probes=False)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["record"]["missing"] == []
    # Work counted at the boundary equals the work the construction implies.
    ops = workloads.VerifyLarge(0, tiny=True).make_ops()
    assert result["metrics"]["core.iter_ball_coords.items"] == sum(op.items for op in ops)
    assert result["metrics"]["lattice.verdict.fails"] == 1


def _bindings():
    """Identity of every attribute of every lmlab module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lmlab" or name.startswith("lmlab.")):
            for attr, obj in list(vars(module).items()):
                seen[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__.startswith("lmlab"):
                    for member, value in list(vars(obj).items()):
                        seen[(name, attr, member)] = value
    return seen


def test_tracer_patches_every_binding_and_restores_it():
    import lmlab.cli  # noqa: F401  (load every layer first)

    before = _bindings()
    original = lmlab.core.iter_ball_coords
    with Tracer() as tracer:
        assert lmlab.lattice.iter_ball_coords is not original
        assert lmlab.search.iter_ball_coords is lmlab.lattice.iter_ball_coords
        assert lmlab.metric.iter_ball_coords is lmlab.core.iter_ball_coords
        assert lmlab.iter_ball_coords is lmlab.core.iter_ball_coords
        assert lmlab.bounds.compare_ge is lmlab.intervals.compare_ge
        assert lmlab.search.QuotientMap.residue is not before[("lmlab.lattice", "QuotientMap", "residue")]
        assert {"cli.main", "intervals.Interval.exact", "search.verify_window_packing"} <= tracer.wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_generators_are_timed_per_next_and_counted():
    params = lmlab.BallParams.symmetric(3, 2, 1)
    with Tracer() as tracer:
        vectors = list(lmlab.iter_ball_coords(params))
    assert vectors == list(lmlab.core.iter_ball_coords(params))
    assert tracer.items["core.iter_ball_coords"] == lmlab.ball_volume(params) == 19
    calls, total, self_s = tracer.totals()["core.iter_ball_coords"]
    assert calls == 1 and total >= self_s > 0


def test_a_removed_name_reads_zero_instead_of_crashing(monkeypatch):
    monkeypatch.delattr(lmlab.search, "verify_window_packing")
    monkeypatch.delattr(lmlab, "verify_window_packing")
    monkeypatch.delattr(lmlab.intervals.Interval, "log2")
    result = run.measure("verify-large", 0, 0.0, True, tiny=True, probes=False)
    assert result["loop"].failed == 0
    assert result["metrics"]["search.verify_window_packing.self_s"] == 0
    assert result["metrics"]["intervals.Interval.log2.calls"] == 0
    assert {"search.verify_window_packing", "intervals.Interval.log2"} <= set(result["record"]["missing"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    result = run.measure(name, 3, 0.0, False, tiny=True, probes=False)
    loop = result["loop"]
    assert loop.attempted > 0
    assert loop.failed == 0, loop.messages
    if name == "cli-oneshot":
        assert loop.known_defects == 1  # the 10**400 classify still crashes


def test_checks_reject_wrong_outputs():
    wl = workloads.VerifyLarge(0, tiny=True)
    op = next(o for o in wl.make_ops() if o.kind == "non-packing")
    good = wl.run(op)
    assert wl.check(op, good).ok
    a, b = good.witness
    swapped = lmlab.VerificationResult(good.verdict, good.volume, good.index, (b, a))
    assert not wl.check(op, swapped).ok

    wl = workloads.SearchSmall(0, tiny=True)
    op = next(o for o in wl.make_ops() if o.args == (2, 1, 1))
    found = wl.run(op)
    assert wl.check(op, found).ok
    assert not wl.check(op, found[:1]).ok

    wl = workloads.BoundsSweep(0)
    op = workloads.Op("classify", (100, 40, 4), 1)
    report = lmlab.classify(100, 40, 4)
    assert wl.check(op, report).ok
    assert not wl.check(op, dataclasses.replace(report, verdict="open")).ok


def test_hnf_count_matches_the_enumeration():
    for n, index in [(2, 5), (3, 4), (3, 7), (4, 6)]:
        assert workloads.hnf_count(n, index) == len(list(lmlab.enumerate_sublattices(n, index)))


def test_tail_latency_needs_ten_operations_beyond():
    assert run.tail_latency([0.001] * 19) is None
    tail = run.tail_latency([i / 1000 for i in range(1, 101)])
    assert tail["percentile"] == 90.0 and tail["count"] == 100
    assert tail["value_ms"] == pytest.approx(90.0)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
