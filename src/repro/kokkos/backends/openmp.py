"""OpenMP-analog host backend: a persistent thread pool over chunks.

Stands in for the OpenMP intranode model used on the ARM Taishan server
(and the Fortran LICOM3 baseline's threading).  The outermost policy
dimension is split into ``threads`` contiguous chunks executed
concurrently; NumPy array operations release the GIL for large tiles, so
real concurrency is obtained for the vectorised kernel bodies.

Reductions combine per-chunk partials in fixed chunk order, keeping
results deterministic run-to-run (unlike a racing atomic reduction).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from ..instrument import Instrumentation
from ..policy import MDRangePolicy, as_md
from .base import (
    CompiledPlan,
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    apply_tile,
    check_host_views,
    reduce_tile,
)


def _default_threads() -> int:
    """Thread count when the constructor is not given one.

    Defaults to ``min(8, cpu_count)`` — enough to demonstrate scaling
    without oversubscribing CI runners.  The ``REPRO_NUM_THREADS``
    environment variable overrides the default (and its 8-thread cap)
    with any validated value >= 1, mirroring ``OMP_NUM_THREADS``.
    """
    env = os.environ.get("REPRO_NUM_THREADS")
    if env is not None and env.strip():
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_NUM_THREADS must be an integer >= 1, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(f"REPRO_NUM_THREADS must be >= 1, got {n}")
        return n
    return max(1, min(8, os.cpu_count() or 1))


class _OpenMPPlan(CompiledPlan):
    """Compiled sweep owning the chunk submission (one stage barrier per
    fused part); replay only submits and joins."""

    __slots__ = ("_nchunks",)

    def __init__(self, space, label, policy, functor) -> None:
        check_host_views(functor, space.name)
        super().__init__(space, label, policy, functor)
        self._nchunks = len(space._chunks(policy))

    def run(self) -> None:
        self._sweep()
        self._record(tiles=self._nchunks)


class OpenMPBackend(ExecutionSpace):
    """Host-parallel execution with a fixed thread count."""

    name = "openmp"
    programming_model = "OpenMP"

    def __init__(
        self,
        threads: Optional[int] = None,
        inst: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(inst)
        if threads is not None and int(threads) < 1:
            raise ValueError("threads must be >= 1")
        self.concurrency = int(threads) if threads is not None else _default_threads()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.concurrency, thread_name_prefix="omp"
            )
        return self._pool

    def shutdown(self) -> None:
        """Tear down the thread pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _chunks(self, policy: MDRangePolicy) -> List[Tuple[slice, ...]]:
        (b0, e0), rest = policy.ranges[0], policy.ranges[1:]
        n = e0 - b0
        nchunks = min(self.concurrency, n) if n else 1
        tail = tuple(slice(b, e) for b, e in rest)
        out: List[Tuple[slice, ...]] = []
        for c in range(nchunks):
            lo = b0 + (n * c) // nchunks
            hi = b0 + (n * (c + 1)) // nchunks
            out.append((slice(lo, hi),) + tail)
        return out

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        check_host_views(functor, self.name)
        chunks = self._chunks(policy)
        if len(chunks) == 1:
            apply_tile(functor, chunks[0])
        else:
            pool = self._executor()
            futures = [pool.submit(apply_tile, functor, ch) for ch in chunks]
            for f in futures:
                f.result()
        self._record(label, policy, functor, tiles=len(chunks))

    def prepare_plan(self, label: str, policy, functor) -> LaunchPlan:
        if type(self).run_for is not OpenMPBackend.run_for:
            return super().prepare_plan(label, policy, functor)
        return _OpenMPPlan(self, label, as_md(policy), functor)

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        chunks = self._chunks(policy)
        if len(chunks) == 1:
            partials = [reduce_tile(functor, chunks[0], reducer)]
        else:
            pool = self._executor()
            futures = [
                pool.submit(reduce_tile, functor, ch, reducer) for ch in chunks
            ]
            partials = [f.result() for f in futures]
        self._record(label, policy, functor, tiles=len(chunks))
        acc = reducer.identity
        for p in partials:
            if p is not None:
                acc = reducer.combine(acc, p)
        return acc
