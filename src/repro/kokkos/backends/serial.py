"""Serial reference backend.

Executes every kernel as one tile covering the whole range.  It is the
semantics oracle: every other backend must produce results identical to
Serial (the test suite enforces this), mirroring how Kokkos' Serial space
anchors correctness across devices.
"""

from __future__ import annotations

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


class _SerialPlan(CompiledPlan):
    """Whole-range compiled sweep with host-view checks done once."""

    __slots__ = ()

    def __init__(self, space, label, policy, functor) -> None:
        check_host_views(functor, space.name)
        super().__init__(space, label, policy, functor)

    def run(self) -> None:
        self._sweep()
        self._record(tiles=1)


class SerialBackend(ExecutionSpace):
    """Single-threaded host execution."""

    name = "serial"
    programming_model = "none"
    concurrency = 1

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        check_host_views(functor, self.name)
        apply_tile(functor, self._full_slices(policy))
        self._record(label, policy, functor, tiles=1)

    def prepare_plan(self, label: str, policy, functor) -> LaunchPlan:
        # Subclasses that intercept run_for (e.g. differential-testing
        # wrappers) must keep seeing every launch, so only the unmodified
        # backend takes the fast path.
        if type(self).run_for is not SerialBackend.run_for:
            return super().prepare_plan(label, policy, functor)
        return _SerialPlan(self, label, as_md(policy), functor)

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        result = reduce_tile(functor, self._full_slices(policy), reducer)
        self._record(label, policy, functor, tiles=1)
        if result is None:
            result = reducer.identity
        return result
