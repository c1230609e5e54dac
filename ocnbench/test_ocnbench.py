"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest ocnbench -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.ocean import LICOMKpp, ModelParams, demo  # noqa: E402
from repro.serve import Job, JobStatus  # noqa: E402
from repro.trace import Tracer  # noqa: E402

from ocnbench import layers, metrics, stats, workloads  # noqa: E402


# -- tail percentile ---------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (10, None), (19, None), (20, 50.0), (40, 75.0), (50, 80.0), (100, 90.0),
    (160, 90.0), (200, 95.0), (400, 95.0), (500, 98.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    if pct is None:
        with pytest.raises(ValueError):
            stats.tail_percentile(n)
        return
    assert stats.tail_percentile(n) == pct
    assert n - stats.rank_of(pct, n) >= stats.TAIL_BEYOND
    higher = [p for p in stats.TAIL_CANDIDATES if p > pct]
    if higher:
        p = min(higher)
        assert n - stats.rank_of(p, n) < stats.TAIL_BEYOND


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 95.0) == 95
    assert stats.percentile(values[::-1], 50.0) == 50


def test_every_workload_tail_is_defined():
    for cls in workloads.WORKLOADS.values():
        wl = cls()
        assert wl.tail_pct in stats.TAIL_CANDIDATES
        assert wl.step_tail_pct in stats.TAIL_CANDIDATES


# -- accounting closure ------------------------------------------------------------


@pytest.mark.parametrize("params", [
    ModelParams(),
    ModelParams(graph=True, precision="mixed", n_passive=1),
], ids=["eager_double", "replay_mixed"])
def test_accounting_closes_on_tiny_grid(params):
    model = LICOMKpp(demo("tiny"), params=params)
    try:
        model.run_steps(2)
        with layers.LayerProbe() as probe:
            model.run_steps(4)
    finally:
        model.close()
    acc = layers.step_accounting(layers.SpanTree(probe.tracer))
    assert acc["steps"] == 4
    parts = sum(acc["buckets"].values())
    assert parts == pytest.approx(acc["step_s"], rel=1e-9)
    assert acc["buckets"]["dispatch"] >= 0.0
    assert sum(acc["buckets"][f] for f in layers.FAMILIES) > 0.0
    if params.graph:
        assert acc["buckets"]["replay"] > 0.0
        assert acc["buckets"]["cast"] > 0.0


def _fake_tracer(events):
    """A tracer driven by a scripted clock: events are (begin|end, name, t)."""
    times = iter([0.0] + [t for _, _, t in events])   # first read: the epoch
    tracer = Tracer(enabled=True, clock=lambda: next(times))
    for kind, name, _ in events:
        if kind == "begin":
            tracer.begin(name, "kernel" if name.startswith("eos") else "ocean")
        else:
            tracer.end()
    return tracer


def test_negative_residual_fails_closure():
    ok = _fake_tracer([("begin", "step", 0.0), ("begin", "eos_density", 1.0),
                       ("end", "", 2.0), ("end", "", 3.0)])
    acc = layers.step_accounting(layers.SpanTree(ok))
    assert acc["buckets"]["eos"] == pytest.approx(1.0)
    assert acc["buckets"]["dispatch"] == pytest.approx(2.0)
    tree = layers.SpanTree(ok)
    tree.self_time[0] = -0.5     # a child longer than its step
    with pytest.raises(layers.ClosureError):
        layers.step_accounting(tree)
    with pytest.raises(layers.ClosureError):
        layers.step_accounting(layers.SpanTree(ok), loop_step_s=2.0)


def test_unmapped_kernel_label_is_an_error():
    with pytest.raises(KeyError):
        layers.kernel_shares("no_such_kernel")
    assert layers.kernel_shares("fused[eos_density+precision_cast]") == {
        "eos": 0.5, "cast": 0.5}


# -- the correctness gate is not vacuous -------------------------------------------


def test_health_and_identity_checks():
    good = {"t.cur": np.ones((2, 3)), "ptracer0.cur": np.full((2, 3), 0.5)}
    assert workloads.healthy(good)
    assert workloads.states_equal(good, {k: v.copy() for k, v in good.items()})
    bad_dye = dict(good, **{"ptracer0.cur": np.full((2, 3), 1.5)})
    assert not workloads.healthy(bad_dye)
    nan = dict(good, **{"t.cur": np.array([[np.nan]])})
    assert not workloads.healthy(nan)
    flipped = {k: v.copy() for k, v in good.items()}
    flipped["t.cur"].view(np.int64)[0, 0] ^= 1
    assert not workloads.states_equal(good, flipped)
    assert not workloads.states_equal(
        good, {k: v.astype(np.float32) for k, v in good.items()})


def test_corrupted_model_output_counts_as_failed(monkeypatch):
    original = LICOMKpp.step

    def corrupting_step(model):
        original(model)
        if model.state.passive:
            model.state.passive[0].cur.raw[0, 5, 5] = 1.5
    monkeypatch.setattr(LICOMKpp, "step", corrupting_step)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    meas = workloads.MediumSerialDyes().measure(3, 0.0, 2, None)
    assert meas.attempted >= 2
    assert meas.failed == meas.attempted
    assert meas.checks == {"healthy": False}


def test_corrupted_serve_result_counts_as_failed(monkeypatch, tmp_path):
    original = Job.finish

    def corrupting_finish(job, status):
        if status is JobStatus.DONE and not job.spec.name.startswith("warm"):
            job.result["state"]["t"].view(np.uint8)[0, 5, 5] ^= 1
        original(job, status)
    monkeypatch.setattr(Job, "finish", corrupting_finish)
    wl = workloads.ServeSmallEnsemble()
    wl.workdir = str(tmp_path)
    wl.setup_reps = 1
    meas = wl.measure(3, 0.0, 2, None)
    assert meas.attempted >= 2
    assert meas.failed == meas.attempted
    assert meas.checks["jobs_bitwise_vs_solo"] is False


def test_clean_serve_run_passes_and_reports_every_metric(tmp_path):
    wl = workloads.ServeSmallEnsemble()
    wl.workdir = str(tmp_path)
    wl.setup_reps = 1
    meas = wl.measure(3, 0.0, 4, None)
    assert meas.failed == 0 and meas.attempted >= 4
    values = metrics.end_to_end(wl, meas)
    assert set(values) == {name for name, _ in metrics.END_TO_END}
    assert all(v > 0 for v in values.values())
