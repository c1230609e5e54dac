#!/usr/bin/env python
"""Wall-clock + wire-byte benchmark of the mixed-precision policy.

Times steady-state baroclinic steps of the tiny demo at the fp64 and
``mixed`` precision policies on both execution tiers — eager dispatch
and compiled sealed-graph replay with the workspace arena — then
measures the halo wire bytes of a 2-rank run under both policies
from the SimWorld TrafficLedger.  Writes ``BENCH_precision.json`` with
best-of-``repeats`` steps/sec per (policy, tier), the per-phase halo
byte volumes and the 3-D halo reduction factor.

What the numbers must show: the mixed policy's 3-D halo traffic (the
fp32 tracer/momentum exchanges) shrinks by >= 1.8x while the 2-D
barotropic phase is byte-identical (it stays fp64 by policy), and the
cast launches the policy inserts do not cost a measurable step-rate
regression (>= ``--min-rate-ratio`` of fp64 on every tier).  In this
pure-NumPy reproduction the bandwidth win of fp32 arithmetic is mostly
invisible in wall-clock — the honest claim is the byte accounting,
which is exactly what the performance model prices
(:mod:`repro.perfmodel.familycost`).

Usage::

    PYTHONPATH=src python benchmarks/bench_precision_wallclock.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams, run_distributed

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

TIERS = {
    "eager": dict(graph=False, arena=False),
    "graph_jit": dict(graph=True, arena=True),
}
PRECISIONS = ("double", "mixed")


def _make_model(precision: str, tier_kwargs: dict) -> LICOMKpp:
    model = LICOMKpp(demo("tiny"),
                     params=ModelParams(precision=precision, **tier_kwargs))
    model.run_steps(3)    # past the Euler start step + graph capture
    return model


def time_steps(steps: int, repeats: int) -> dict:
    """Best-of-``repeats`` steps/sec for every (policy, tier) pair.

    Interleaved repeats (like ``bench_step_wallclock``) so machine
    drift lands on every side of the ratios.
    """
    models = {(p, t): _make_model(p, kw)
              for p in PRECISIONS for t, kw in TIERS.items()}
    best = {key: float("inf") for key in models}
    for _ in range(repeats):
        for key, model in models.items():
            t0 = time.perf_counter()
            model.run_steps(steps)
            best[key] = min(best[key], time.perf_counter() - t0)
    out: dict = {p: {} for p in PRECISIONS}
    for (p, t), dt in best.items():
        out[p][t] = steps / dt
    return out


def measure_halo_bytes(ranks: int = 2, steps: int = 3) -> dict:
    """Per-phase wire bytes of a multi-rank run under each policy."""
    out = {}
    for precision in PRECISIONS:
        _, world = run_distributed(
            demo("tiny"), ranks, steps,
            params=ModelParams(precision=precision))
        out[precision] = {phase: int(nbytes)
                          for phase, (_, nbytes)
                          in sorted(world.traffic.by_phase.items())}
    return out


def run_benchmark(steps: int, repeats: int) -> dict:
    rates = time_steps(steps, repeats)
    halo = measure_halo_bytes()
    result = {
        "config": {"size": "tiny", "backend": "serial",
                   "steps": steps, "repeats": repeats, "halo_ranks": 2},
        "steps_per_sec": rates,
        "halo_bytes": halo,
        "halo3_reduction": halo["double"]["halo3"] / halo["mixed"]["halo3"],
        "halo2_identical": halo["double"]["halo2"] == halo["mixed"]["halo2"],
        "mixed_rate_ratio": {
            tier: rates["mixed"][tier] / rates["double"][tier]
            for tier in TIERS
        },
    }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small run for CI (fewer steps/repeats)")
    ap.add_argument("--out", type=pathlib.Path,
                    default=ARTIFACTS / "BENCH_precision.json")
    ap.add_argument("--min-halo3-reduction", type=float, default=1.8)
    ap.add_argument("--min-rate-ratio", type=float, default=0.8,
                    help="mixed steps/sec must stay within this factor "
                         "of fp64 on every tier (casts are cheap)")
    args = ap.parse_args(argv)

    if args.smoke:
        result = run_benchmark(steps=2, repeats=2)
    else:
        result = run_benchmark(steps=6, repeats=4)

    if not args.smoke:
        args.out.parent.mkdir(exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    for p in PRECISIONS:
        rates = "  ".join(f"{t}: {r:7.2f}" for t, r in
                          result["steps_per_sec"][p].items())
        print(f"{p:<7} steps/sec  {rates}")
    print(f"halo bytes: double {result['halo_bytes']['double']}  "
          f"mixed {result['halo_bytes']['mixed']}")
    print(f"halo3 reduction: {result['halo3_reduction']:.2f}x  "
          f"halo2 identical: {result['halo2_identical']}")

    failures = []
    if result["halo3_reduction"] < args.min_halo3_reduction:
        failures.append(
            f"halo3 reduction {result['halo3_reduction']:.2f}x < "
            f"{args.min_halo3_reduction}x")
    if not result["halo2_identical"]:
        failures.append("fp64 barotropic halo bytes changed under mixed")
    for tier, ratio in result["mixed_rate_ratio"].items():
        if ratio < args.min_rate_ratio:
            failures.append(
                f"mixed {tier} rate is {ratio:.2f}x of fp64 "
                f"(< {args.min_rate_ratio})")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
