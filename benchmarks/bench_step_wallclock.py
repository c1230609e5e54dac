#!/usr/bin/env python
"""Wall-clock benchmark: eager dispatch vs compiled graph replay.

Times steady-state baroclinic steps of the tiny demo configuration on
the athread (tiled) backend twice — eager dispatch with per-call
temporary allocation (the pre-graph baseline), and the step graph
sealed with the workspace arena and replayed through compiled sweeps
(``repro.kokkos.jit``: cached launch plans + fusion + codegen sweeps)
— and writes ``BENCH_step.json`` with best-of-``repeats`` steps/sec,
workspace allocations per step, the launch-count accounting from the
sealed graphs and the compiled-tier coverage.

The athread backend is the benchmark config because it is the
dispatch-bound path the optimization targets: every eager launch pays
the simulated tile sweep's per-tile Python loop, which compiled replay
removes.  This measures the Python simulator, not a Sunway machine.
Numerics are bitwise identical in both modes (enforced by
``tests/ocean/test_graph_replay.py``); this benchmark only measures
speed.

Usage::

    PYTHONPATH=src python benchmarks/bench_step_wallclock.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_step_wallclock.py --quick

``--smoke`` shrinks the run for CI and compares against the committed
``BENCH_step.json`` baseline instead of the absolute thresholds,
failing on a >15% speedup regression.  ``--quick`` is the fastest CI
gate: a tiny graph run asserting the compiled tier served every
replayed launch (100% coverage) without timing anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.kokkos import AthreadBackend, Instrumentation
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


def _make_model(params: ModelParams):
    """Model warmed past the Euler start step, graph capture and the
    first compiled replay (which allocates its whole-range scratch)."""
    inst = Instrumentation()
    model = LICOMKpp(demo("tiny"), backend=AthreadBackend(inst=inst),
                     params=params)
    model.run_steps(3)
    return model, inst


def _steady_graph(model):
    graphs = [g for (startup, _), g in getattr(model, "_graphs", {}).items()
              if not startup]
    return graphs[0] if graphs else None


def _mode_stats(model, inst, best: float, steps: int) -> dict:
    """Steady-state rates and allocation counts for one timed mode."""
    inst.workspace.requests = 0
    inst.workspace.allocations = 0
    model.run_steps(steps)
    ws = inst.workspace
    graph = _steady_graph(model)
    stats = {
        "steps_per_sec": steps / best,
        "workspace_requests_per_step": ws.requests / steps,
        "allocations_per_step": ws.allocations / steps,
        "captured_launches": graph.captured_launches if graph else None,
        "replay_launches": graph.launches_per_replay if graph else None,
        "fused_groups": graph.fused_groups if graph else None,
        "compiled_launches": graph.compiled_launches if graph else None,
        "jit_coverage": graph.jit_coverage if graph else None,
    }
    if graph is not None:
        tiers: dict = {}
        for _, tier in graph.kernel_tiers():
            tiers[tier] = tiers.get(tier, 0) + 1
        stats["tiers"] = tiers
    return stats


def run_benchmark(steps: int = 8, repeats: int = 6) -> dict:
    """Best-of-``repeats`` steps/sec: eager vs compiled graph replay.

    The modes are timed in *interleaved* repeats (an eager chunk, then a
    graph chunk, repeatedly) so slow machine drift lands on both sides
    of the ratio instead of biasing whichever mode ran last.
    """
    modes = {
        "eager": ModelParams(graph=False, arena=False),
        "graph_jit": ModelParams(graph=True, arena=True),
    }
    models = {name: _make_model(p) for name, p in modes.items()}
    best = {name: float("inf") for name in modes}
    for _ in range(repeats):
        for name, (model, _) in models.items():
            t0 = time.perf_counter()
            model.run_steps(steps)
            best[name] = min(best[name], time.perf_counter() - t0)
    stats = {name: _mode_stats(model, inst, best[name], steps)
             for name, (model, inst) in models.items()}
    alloc_eager = stats["eager"]["allocations_per_step"]
    alloc_graph = stats["graph_jit"]["allocations_per_step"]
    eager_rate = stats["eager"]["steps_per_sec"]
    return {
        "config": {
            "size": "tiny", "backend": "athread",
            "steps": steps, "repeats": repeats,
        },
        **stats,
        "speedup_jit": stats["graph_jit"]["steps_per_sec"] / eager_rate,
        # a warm arena allocates nothing, so floor the denominator at
        # one allocation per step to keep the ratio meaningful
        "allocation_reduction": alloc_eager / max(alloc_graph, 1.0),
    }


def run_quick() -> int:
    """CI gate: the compiled tier must serve every replayed launch."""
    model, _ = _make_model(ModelParams(graph=True, arena=True))
    graph = _steady_graph(model)
    if graph is None:
        print("FAIL: no steady-state graph captured", file=sys.stderr)
        return 1
    print(f"quick: {graph.compiled_launches}/{graph.launches_per_replay} "
          f"launches compiled ({graph.jit_coverage:.0%})")
    if graph.jit_coverage != 1.0:
        print("FAIL: compiled tier did not serve every replayed launch",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small run for CI; compares against --baseline "
                         "instead of the absolute thresholds")
    ap.add_argument("--quick", action="store_true",
                    help="fastest CI gate: assert 100%% compiled-tier "
                         "coverage on a tiny run, no timing")
    ap.add_argument("--out", type=pathlib.Path,
                    default=ARTIFACTS / "BENCH_step.json")
    ap.add_argument("--baseline", type=pathlib.Path,
                    default=ARTIFACTS / "BENCH_step.json",
                    help="committed result the smoke run must stay within "
                         "15%% of")
    ap.add_argument("--min-speedup-jit", type=float, default=2.5)
    ap.add_argument("--min-alloc-reduction", type=float, default=5.0)
    args = ap.parse_args(argv)

    if args.quick:
        return run_quick()

    baseline = None
    if args.smoke and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    if args.smoke:
        result = run_benchmark(steps=3, repeats=2)
    else:
        result = run_benchmark()

    if not args.smoke or args.out != args.baseline:
        args.out.parent.mkdir(exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    e, j = result["eager"], result["graph_jit"]
    print(f"eager:       {e['steps_per_sec']:8.2f} steps/sec "
          f"({e['allocations_per_step']:.0f} allocations/step)")
    print(f"graph+jit:   {j['steps_per_sec']:8.2f} steps/sec "
          f"({j['allocations_per_step']:.0f} allocations/step, "
          f"{j['captured_launches']} launches fused into "
          f"{j['replay_launches']}, {j['jit_coverage']:.0%} compiled)")
    print(f"speedup: {result['speedup_jit']:.2f}x (compiled replay)   "
          f"allocation reduction: {result['allocation_reduction']:.0f}x")

    failures = []
    if args.smoke:
        if baseline is not None:
            base = baseline.get("speedup_jit")
            if base is not None and result["speedup_jit"] < 0.85 * base:
                failures.append(
                    f"speedup_jit {result['speedup_jit']:.2f}x regressed "
                    f">15% below baseline {base:.2f}x")
            if (result["graph_jit"]["allocations_per_step"]
                    > baseline["graph_jit"]["allocations_per_step"]):
                failures.append(
                    "steady-state arena allocations/step regressed above "
                    f"baseline "
                    f"{baseline['graph_jit']['allocations_per_step']:.0f}")
        if result["graph_jit"]["jit_coverage"] != 1.0:
            failures.append("compiled tier did not serve every replayed "
                            "launch in smoke run")
    else:
        if result["speedup_jit"] < args.min_speedup_jit:
            failures.append(f"speedup_jit {result['speedup_jit']:.2f}x "
                            f"< {args.min_speedup_jit}x")
        if result["allocation_reduction"] < args.min_alloc_reduction:
            failures.append(
                f"allocation reduction {result['allocation_reduction']:.1f}x "
                f"< {args.min_alloc_reduction}x")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
