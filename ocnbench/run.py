"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 ocnbench/run.py --workload medium_serial_dyes --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice for ``--seconds / 2`` each, once
untraced and once with the layer probe installed, and reports the
per-layer metrics of the traced half plus the tracing overhead; the
spans are written as a Chrome trace to
``ocnbench/.work/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the run details (host facts, sample counts, tail
percentiles, working sets and the bases of every ratio).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    """Put the checkout's ``src`` and root on the path; import the benchmark."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from ocnbench import layers, metrics, stats, workloads

    return layers, metrics, stats, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        layers, metrics, stats, workloads = _import_program()
    except ImportError as exc:
        print(f"cannot import the program under {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workroot = os.path.join(HERE, ".work")
    workdir = os.path.join(workroot, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        wl.workdir = workdir
        details = {"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": stats.host_facts(),
                   "expected_to_move": list(wl.moves)}
        if args.trace:
            result = _traced(args, wl, workroot, details, layers, metrics)
        else:
            result = _untraced(args, wl, details, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


def _run_details(wl, meas, details) -> None:
    l3 = details["host"]["l3_bytes"]
    details.update({
        "checks": meas.checks,
        "step_samples": len(meas.extra.get("rank0_step_s", meas.step_s)),
        "step_tail_pct": wl.step_tail_pct,
        "setup_samples": len(meas.setup_s),
        "working_set_bytes": meas.working_set_bytes,
        "working_set_over_l3": meas.working_set_bytes / l3 if l3 else None,
        "bases": {"sim_seconds": meas.sim_seconds, "window_s": meas.window_s,
                  "completed_ops": (meas.completed_jobs if meas.job_s
                                    else len(meas.step_s) // meas.ranks)},
    })
    if meas.job_s:
        details.update({
            "job_samples": len(meas.job_s),
            "job_tail_pct": wl.tail_pct,
            "resumed_jobs": meas.extra["resumed_jobs"],
            "reference_specs": meas.extra["reference_specs"],
            "engine_hits": meas.extra["engine_hits"],
            "engine_acquires": meas.extra["engine_acquires"],
        })


def _result(meas_list, values, units) -> dict:
    attempted = sum(m.attempted for m in meas_list)
    failed = sum(m.failed for m in meas_list)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def _untraced(args, wl, details, metrics) -> dict:
    meas = wl.measure(args.seed, args.seconds, wl.min_samples, None)
    values = metrics.end_to_end(wl, meas)
    _run_details(wl, meas, details)
    return _result([meas], values, metrics.END_TO_END)


def _traced(args, wl, workroot, details, layers, metrics) -> dict:
    half = args.seconds / 2.0
    untraced = wl.measure(args.seed, half, 0, None)
    probe = layers.LayerProbe()
    with probe:
        traced = wl.measure(args.seed, half, 0, probe)
    trace_path = os.path.join(workroot, f"trace-{wl.name}.json")
    problems = probe.write_trace(trace_path)
    values, bases = metrics.per_layer(wl, traced, probe, untraced)
    _run_details(wl, traced, details)
    details.update({"trace_file": os.path.relpath(trace_path, ROOT),
                    "trace_problems": problems,
                    "trace_spans": len(probe.tracer.spans),
                    "ratio_bases": bases})
    result = _result([untraced, traced], values, metrics.PER_LAYER)
    if problems:
        result["correct"] = False
    return result


if __name__ == "__main__":
    sys.exit(main())
