"""Per-layer tracing from outside the program.

:class:`LayerProbe` installs wrappers around public calls of each layer
(kernel launches, graph replay and seal, the fused halo exchange, the
model step, restart I/O and the serving layer) and records one span per
outermost call on a :class:`repro.trace.Tracer`.  Spans stay in memory;
:meth:`LayerProbe.write_trace` exports them as a Chrome trace at exit.

Self time is a span's duration minus the durations of its direct
children on the same thread, so a replay span reports only its own
dispatch loop and a step span only the glue between its children
(``kokkos.dispatch_ms``).  :func:`step_accounting` splits the steps'
time into layers and checks that the split closes.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.kokkos import ExecutionSpace, LaunchGraph
from repro.ocean.model import LICOMKpp
from repro.ocean.precision import KERNEL_FAMILIES
from repro.parallel.halo_fused import FusedHaloExchange
from repro.serve import EngineCache, ProbeStream, ServeScheduler, SharedEngine
from repro.serve import scheduler as serve_scheduler
from repro.trace import Tracer, chrome_trace, validate_chrome_trace

#: Kernel families of the step split, in report order.
FAMILIES = ("tracer", "momentum", "barotropic", "vmix", "eos", "scan")
CAST_PREFIX = "precision_cast"


def kernel_shares(label: str) -> Dict[str, float]:
    """Map a launch label to {bucket: share}; buckets are families or ``cast``.

    A fused sweep (``fused[a+b+...]``) is shared equally among its parts.
    Raises ``KeyError`` for a label no family claims, so an unmapped
    kernel cannot silently fall out of the accounting.
    """
    if label.startswith("fused[") and label.endswith("]"):
        parts = label[len("fused["):-1].split("+")
    else:
        parts = [label]
    out: Dict[str, float] = {}
    for part in parts:
        bucket = "cast" if part.startswith(CAST_PREFIX) else KERNEL_FAMILIES[part]
        out[bucket] = out.get(bucket, 0.0) + 1.0 / len(parts)
    return out


class LayerProbe:
    """Wrappers around layer boundaries, recording spans while installed."""

    def __init__(self) -> None:
        self.tracer = Tracer(rank=0, name="ocnbench", enabled=True)
        self._local = threading.local()
        self._saved: List[tuple] = []
        #: Serving timeline marks: id(spec) -> {"acquire": t, "lease": t}.
        self.job_marks: Dict[int, Dict[str, float]] = {}
        self._thread_spec: Dict[int, int] = {}
        #: Sizes in bytes of every restart file written.
        self.restart_bytes: List[int] = []

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def _spanned(self, name_of: Callable, group: str, cat: str) -> Callable:
        """Wrapper factory: one span per outermost call within ``group``."""
        probe = self
        tracer = self.tracer

        def factory(original):
            def wrapper(*args, **kwargs):
                local = probe._local
                if getattr(local, group, False):
                    return original(*args, **kwargs)
                setattr(local, group, True)
                tracer.begin(name_of(args), cat)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end()
                    setattr(local, group, False)
            return wrapper
        return factory

    def install(self) -> "LayerProbe":
        if self._saved:
            raise RuntimeError("probe already installed")
        label_arg = (lambda args: args[1])
        self._patch(ExecutionSpace, "parallel_for",
                    self._spanned(label_arg, "kernel", "kernel"))
        self._patch(ExecutionSpace, "parallel_reduce",
                    self._spanned(label_arg, "kernel", "kernel"))
        self._patch(ExecutionSpace, "run_plan",
                    self._spanned(lambda args: args[1].label, "kernel", "kernel"))
        self._patch(LaunchGraph, "replay",
                    self._spanned(lambda args: "replay", "replay", "kokkos"))
        self._patch(LaunchGraph, "seal",
                    self._spanned(lambda args: "seal", "seal", "kokkos"))
        self._patch(FusedHaloExchange, "begin",
                    self._spanned(lambda args: "halo_post", "halo", "parallel"))
        self._patch(FusedHaloExchange, "finish",
                    self._spanned(lambda args: "halo_wait", "halo", "parallel"))
        self._patch(LICOMKpp, "step",
                    self._spanned(lambda args: "step", "step", "ocean"))
        self._patch(LICOMKpp, "reset",
                    self._spanned(lambda args: "reset", "reset", "ocean"))
        self._patch(ProbeStream, "sample",
                    self._spanned(lambda args: "probe", "probe", "serve"))
        self._patch(ServeScheduler, "submit",
                    self._spanned(lambda args: "admit", "admit", "serve"))
        self._patch(serve_scheduler, "quote_job",
                    self._spanned(lambda args: "quote", "quote", "perfmodel"))
        self._patch(serve_scheduler, "load_restart",
                    self._spanned(lambda args: "restart_load", "restart", "ocean"))
        probe = self
        save_span = self._spanned(lambda args: "restart_save", "restart", "ocean")

        def save_factory(original):
            spanned = save_span(original)

            def wrapper(*args, **kwargs):
                path = spanned(*args, **kwargs)
                probe.restart_bytes.append(os.path.getsize(path))
                return path
            return wrapper
        self._patch(serve_scheduler, "save_restart", save_factory)

        def acquire_factory(original):
            def wrapper(cache, spec):
                probe.job_marks.setdefault(id(spec), {})["acquire"] = \
                    time.perf_counter()
                probe._thread_spec[threading.get_ident()] = id(spec)
                return original(cache, spec)
            return wrapper
        self._patch(EngineCache, "acquire", acquire_factory)

        def lease_factory(original):
            def wrapper(engine, job_name):
                return _MarkedLease(original(engine, job_name), probe)
            return wrapper
        self._patch(SharedEngine, "lease", lease_factory)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- export ----------------------------------------------------------------

    def write_trace(self, path: str) -> List[str]:
        """Write the spans as a Chrome trace; return the validator's problems."""
        trace = chrome_trace(self.tracer)
        problems = validate_chrome_trace(trace)
        with open(path, "w") as fh:
            json.dump(trace, fh, default=float)
        return problems


class _MarkedLease:
    """Context manager recording when a shared-engine lease is entered."""

    def __init__(self, inner, probe: LayerProbe) -> None:
        self._inner = inner
        self._probe = probe

    def __enter__(self):
        model = self._inner.__enter__()
        spec_id = self._probe._thread_spec.get(threading.get_ident())
        if spec_id is not None:
            self._probe.job_marks.setdefault(spec_id, {})["lease"] = \
                time.perf_counter()
        return model

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


# -- span analysis -------------------------------------------------------------


class SpanTree:
    """Parent links and self times of a tracer's closed spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.closed_spans()
        self.spans = spans
        self.parent: List[Optional[int]] = [None] * len(spans)
        self.self_time: List[float] = [sp.dur for sp in spans]
        stacks: Dict[int, List[int]] = {}
        for i, sp in enumerate(spans):
            stack = stacks.setdefault(sp.tid, [])
            while stack and spans[stack[-1]].depth >= sp.depth:
                stack.pop()
            if stack:
                self.parent[i] = stack[-1]
                self.self_time[stack[-1]] -= sp.dur
            stack.append(i)

    def step_of(self, i: int) -> Optional[int]:
        """Index of the step span enclosing span ``i`` (or ``i`` itself)."""
        j: Optional[int] = i
        while j is not None:
            if self.spans[j].name == "step":
                return j
            j = self.parent[j]
        return None


class ClosureError(AssertionError):
    """The per-layer split of the step time does not close."""


def step_accounting(tree: SpanTree, loop_step_s: Optional[float] = None,
                    start: float = float("-inf"), end: float = float("inf")
                    ) -> Dict[str, object]:
    """Split the traced steps' time into layers (seconds, summed over steps).

    Only steps that began within ``[start, end]`` (tracer-relative
    seconds) count.  Returns per-bucket self times of spans inside those
    step spans, the step spans' total, the per-lane kernel busy time, the
    kernel launch count, and the residual ``dispatch`` (step self time).
    Raises :class:`ClosureError` when a step's residual is negative, when
    the parts do not sum to the steps, or when the step spans exceed
    ``loop_step_s`` (the driving loop's own timing of the same steps).
    """
    buckets: Dict[str, float] = {f: 0.0 for f in FAMILIES}
    buckets.update(cast=0.0, halo_post=0.0, halo_wait=0.0, replay=0.0,
                   dispatch=0.0)
    busy: Dict[int, float] = {}
    step_total = 0.0
    steps = 0
    launches = 0
    for i, sp in enumerate(tree.spans):
        step = tree.step_of(i)
        if step is None or not start <= tree.spans[step].ts <= end:
            continue
        own = tree.self_time[i]
        if sp.name == "step":
            steps += 1
            step_total += sp.dur
            if own < -1e-9:
                raise ClosureError(
                    f"negative dispatch residual {own * 1e3:.4f} ms in a step")
            buckets["dispatch"] += own
        elif sp.cat == "kernel":
            launches += 1
            for bucket, share in kernel_shares(sp.name).items():
                buckets[bucket] += own * share
            busy[sp.tid] = busy.get(sp.tid, 0.0) + own
        elif sp.name in buckets:
            buckets[sp.name] += own
        else:
            raise ClosureError(f"span {sp.name!r} inside a step has no bucket")
    parts = sum(buckets.values())
    if abs(parts - step_total) > 1e-9 * max(1.0, steps):
        raise ClosureError(
            f"layers sum to {parts:.6f} s but the steps took {step_total:.6f} s")
    if loop_step_s is not None and step_total > loop_step_s * (1 + 1e-9):
        raise ClosureError(
            f"traced steps ({step_total:.6f} s) exceed the loop's own timing "
            f"({loop_step_s:.6f} s)")
    return {"buckets": buckets, "steps": steps, "step_s": step_total,
            "busy": busy, "launches": launches}
