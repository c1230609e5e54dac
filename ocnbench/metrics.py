"""Turn a workload's measurements into the named metrics.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run (see :mod:`ocnbench.layers`).  Every metric has one
definition for all workloads; a layer a workload does not exercise
reports 0 for it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import layers, stats
from .workloads import Measurement, Workload

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sypd", "yr/day"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_min", "1/min"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
)

#: (name, unit) of the per-layer metrics, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"ocean.{fam}_ms", "ms/step") for fam in layers.FAMILIES] + [
        ("ocean.cast_ms", "ms/step"),
        ("ocean.launches", "count/step"),
        ("ocean.gbytes_computed", "GB/step"),
        ("ocean.gbps_computed", "GB/s"),
        ("kokkos.us_per_launch", "us"),
        ("kokkos.dispatch_ms", "ms/step"),
        ("kokkos.replay_ms", "ms/step"),
        ("kokkos.capture_s", "s/setup"),
        ("kokkos.workspace_hit_rate", "ratio"),
        ("parallel.halo_post_ms", "ms/step"),
        ("parallel.halo_wait_ms", "ms/step"),
        ("parallel.messages", "count/step"),
        ("parallel.halo_kb", "KB/step"),
        ("parallel.collectives", "count/step"),
        ("parallel.imbalance", "ratio"),
        ("serve.admit_ms", "ms/call"),
        ("perfmodel.quote_ms", "ms/call"),
        ("serve.queue_wait_ms", "ms/job"),
        ("serve.lease_wait_ms", "ms/job"),
        ("serve.run_s", "s/job"),
        ("serve.engine_hit_rate", "ratio"),
        ("serve.probe_ms", "ms/call"),
        ("ocean.reset_ms", "ms/call"),
        ("ocean.restart_save_ms", "ms/call"),
        ("ocean.restart_load_ms", "ms/call"),
        ("ocean.restart_mb", "MB/call"),
        ("kokkos.step_ms", "ms/step"),
        ("trace.overhead_frac", "ratio"),
    ])


def end_to_end(wl: Workload, meas: Measurement) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run, by name.

    On a model workload every step is one job, so the job metrics are
    the step rate and step times in seconds.
    """
    steps = meas.extra.get("rank0_step_s", meas.step_s)
    out = {
        "sypd": meas.sim_seconds / meas.window_s / 365.0,
        "step_ms_p50": stats.median(steps) * 1e3,
        "step_ms_tail": stats.percentile(steps, wl.step_tail_pct) * 1e3,
        "setup_s": stats.median(meas.setup_s),
        "peak_rss_mb": meas.rss_mb,
    }
    if meas.job_s:
        out["jobs_per_min"] = meas.completed_jobs / meas.window_s * 60.0
        out["job_s_p50"] = stats.median(meas.job_s)
        out["job_s_tail"] = stats.percentile(meas.job_s, wl.tail_pct)
    else:
        out["jobs_per_min"] = len(steps) / meas.window_s * 60.0
        out["job_s_p50"] = out["step_ms_p50"] / 1e3
        out["job_s_tail"] = out["step_ms_tail"] / 1e3
    return out


def _mean_ms(values: List[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def per_layer(wl: Workload, meas: Measurement, probe: layers.LayerProbe,
              untraced: Measurement) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics of a traced run, plus the bases of its ratios.

    Raises :class:`layers.ClosureError` when the step split does not close.
    """
    tree = layers.SpanTree(probe.tracer)
    start, end = meas.window_start, meas.window_end
    window = [i for i, sp in enumerate(tree.spans) if start <= sp.ts <= end]
    loop_s = None if meas.job_s else sum(meas.step_s)
    acc = layers.step_accounting(tree, loop_s, start, end)
    steps = acc["steps"]
    b = acc["buckets"]
    per_step = {k: 1e3 * v / steps for k, v in b.items()}
    c = meas.counters
    kernel_ms = sum(per_step[f] for f in layers.FAMILIES) + per_step["cast"]
    launches = acc["launches"] / steps
    gbytes = c["bytes"] / steps / 1e9
    world_steps = steps / meas.ranks
    busy = list(acc["busy"].values()) or [0.0]
    mean_busy = sum(busy) / len(busy)
    out: Dict[str, float] = {f"ocean.{f}_ms": per_step[f] for f in layers.FAMILIES}
    out.update({
        "ocean.cast_ms": per_step["cast"],
        "ocean.launches": launches,
        "ocean.gbytes_computed": gbytes,
        "ocean.gbps_computed": gbytes / (kernel_ms / 1e3) if kernel_ms else 0.0,
        "kokkos.us_per_launch": (1e3 * (per_step["dispatch"] + per_step["replay"])
                                 / launches if launches else 0.0),
        "kokkos.dispatch_ms": per_step["dispatch"],
        "kokkos.replay_ms": per_step["replay"],
        "kokkos.capture_s": sum(sp.dur for sp in tree.spans
                                if sp.name == "seal" and sp.ts < start)
        / len(meas.setup_s),
        "kokkos.workspace_hit_rate": (
            1.0 - c["ws_allocations"] / c["ws_requests"]
            if c["ws_requests"] else 0.0),
        "parallel.halo_post_ms": per_step["halo_post"],
        "parallel.halo_wait_ms": per_step["halo_wait"],
        "parallel.messages": c["messages"] / world_steps,
        "parallel.halo_kb": c["halo_bytes"] / world_steps / 1024.0,
        "parallel.collectives": c["collectives"] / world_steps,
        "parallel.imbalance": max(busy) / mean_busy if mean_busy else 0.0,
        "kokkos.step_ms": 1e3 * acc["step_s"] / steps,
        "trace.overhead_frac": 1.0 - meas.throughput() / untraced.throughput(),
    })
    out.update(_serve_layers(meas, probe, window, tree))
    bases = {
        "traced_steps": steps,
        "kernel_ms_per_step": kernel_ms,
        "workspace_requests": c["ws_requests"],
        "launches_per_step": launches,
        "busy_lanes": len(acc["busy"]),
        "untraced_ops_per_s": untraced.throughput(),
        "traced_ops_per_s": meas.throughput(),
        "closure": {k: v * 1e3 / steps for k, v in b.items()},
    }
    return out, bases


def _serve_layers(meas: Measurement, probe: layers.LayerProbe,
                  window: List[int], tree: layers.SpanTree) -> Dict[str, float]:
    names = {"admit": "serve.admit_ms", "quote": "perfmodel.quote_ms",
             "probe": "serve.probe_ms", "reset": "ocean.reset_ms",
             "restart_save": "ocean.restart_save_ms",
             "restart_load": "ocean.restart_load_ms"}
    out = {metric: _mean_ms([tree.self_time[i] for i in window
                             if tree.spans[i].name == span])
           for span, metric in names.items()}
    queue, lease, run = [], [], []
    jobs = meas.extra.get("jobs", [])
    for job in jobs:
        marks = probe.job_marks.get(id(job.spec), {})
        t_sub = meas.extra["submitted"].get(job.id)
        t_done = meas.extra["done_at"].get(job.id)
        if "acquire" in marks and "lease" in marks and t_done is not None:
            queue.append(marks["acquire"] - t_sub)
            lease.append(marks["lease"] - marks["acquire"])
            run.append(t_done - marks["lease"])
    hits = meas.extra.get("engine_hits", 0)
    acquires = meas.extra.get("engine_acquires", 0)
    out.update({
        "serve.queue_wait_ms": _mean_ms(queue),
        "serve.lease_wait_ms": _mean_ms(lease),
        "serve.run_s": sum(run) / len(run) if run else 0.0,
        "serve.engine_hit_rate": hits / acquires if acquires else 0.0,
        "ocean.restart_mb": (sum(probe.restart_bytes) / len(probe.restart_bytes)
                             / 1e6 if probe.restart_bytes else 0.0),
    })
    return out
