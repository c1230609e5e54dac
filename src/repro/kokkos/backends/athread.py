"""Athread backend: the simulated Sunway SW26010 Pro core group.

This is the functional model of the paper's central innovation — Kokkos
enhanced with an Athread backend (§V-B).  It reproduces the mechanism,
not just the effect:

* **Registration + callback dispatch.**  Athread can only launch plain C
  functions, so functors must have been registered (the
  ``KOKKOS_REGISTER_FOR_*D`` macro analog in
  :mod:`repro.kokkos.functor`).  Launching an unregistered functor
  raises :class:`~repro.errors.RegistrationError`; registered functors
  are found through the linked-list registry and executed via their
  preset callbacks.
* **Tile distribution (Eq. 1–2).**  The iteration space is cut into
  tiles; ``total_tile`` and ``num_tile_per_cpe`` follow the paper's
  equations, and tiles are swept ergodically across the 64 CPEs
  (``cpe = tile_index % num_cpe``).
* **LDM discipline.**  Each tile's working set is staged through the
  active CPE's 256 kB scratchpad: the backend sizes default tiles so
  two DMA buffers fit (double buffering), and raises
  :class:`~repro.errors.LDMError` when an explicit tile does not fit.
* **DMA accounting.**  Every tile performs a ``get`` (inputs) and a
  ``put`` (outputs) recorded in the :class:`~repro.kokkos.ldm.DMAEngine`
  ledger, which the machine model converts to time on the 51.2 GB/s CG
  memory system.

Functionally, tiles execute sequentially in deterministic order, so the
results are bit-identical to the Serial backend — which is exactly the
property the paper relies on when validating ports.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ...errors import LDMError
from ..instrument import Instrumentation
from ..ldm import (
    DMAEngine,
    LDMAllocator,
    SW26010_LDM_BYTES,
    haloed_tile_points,
    max_tile_points,
)
from ..policy import (
    MDRangePolicy,
    as_md,
    iter_tiles,
    tile_volume,
    tiles_per_cpe,
    total_tiles,
)
from ..registry import default_registry
from .base import (
    CompiledPlan,
    ExecutionSpace,
    LaunchPlan,
    Reducer,
    apply_tile,
    check_host_views,
    functor_cost,
    reduce_tile,
)

#: CPEs per core group on the SW26010 Pro.
SW26010_CPES_PER_CG = 64


class _AthreadPlan(CompiledPlan):
    """Registry lookup, tiling, LDM fit proof and DMA sizes baked in.

    The eager path pays registry walk + tile sizing per launch and an
    LDM alloc / DMA get / DMA put / LDM free cycle per tile.  Sealing a
    plan does all of that once: the registration check and the LDM fit
    proof run at seal time, and the per-tile staging sizes are
    pre-summed into per-launch DMA totals and per-CPE LDM peaks, so a
    replay is the compiled whole-range sweep followed by one batched
    ledger update.  The accounting the machine model consumes (DMA
    byte/descriptor totals, LDM high water, tile distribution) ends
    each launch identical to the eager path.
    """

    __slots__ = ("_distribution", "_get_total", "_put_total", "_ldm_peaks")

    def __init__(self, space, label, policy, functor) -> None:
        check_host_views(functor, space.name)
        space._lookup_callback(functor, "for")
        tile = space.choose_tile(policy, functor)
        ntiles = total_tiles(policy.extents, tile)
        self._distribution = (ntiles, tiles_per_cpe(ntiles, space.num_cpes))
        halo = max(0, int(getattr(functor, "stencil_halo", 0)))
        _, bpp = functor_cost(functor)
        bpp_in = float(getattr(functor, "bytes_in_per_point", bpp * 2.0 / 3.0))
        bpp_out = float(getattr(functor, "bytes_out_per_point", bpp / 3.0))
        get_total = put_total = 0.0
        peaks = {}
        for tidx, slices in enumerate(iter_tiles(policy.ranges, tile)):
            cpe = tidx % space.num_cpes
            staged = haloed_tile_points([s.stop - s.start for s in slices], halo)
            working = int(staged * bpp)
            buffers = 2 if space.double_buffer else 1
            if working * buffers > space.ldm[cpe].capacity:
                raise LDMError(
                    f"tile of {tile_volume(slices)} points needs {working} B "
                    f"x {buffers} buffers which exceeds the "
                    f"{space.ldm[cpe].capacity} B LDM of CPE {cpe}; "
                    "use a smaller MDRangePolicy tile"
                )
            get_total += staged * bpp_in
            put_total += tile_volume(slices) * bpp_out
            if working > peaks.get(cpe, 0):
                peaks[cpe] = working
        self._get_total = get_total
        self._put_total = put_total
        self._ldm_peaks = [(space.ldm[cpe], w) for cpe, w in peaks.items()]
        super().__init__(space, label, policy, functor)

    def run(self) -> None:
        self._sweep()
        space = self.space
        ntiles = self._distribution[0]
        space.dma.get_batch(self._get_total, ntiles)
        space.dma.put_batch(self._put_total, ntiles)
        for ldm, peak in self._ldm_peaks:
            ldm.record_peak(peak)
        space.last_distribution = self._distribution
        self._record(tiles=ntiles)


class AthreadBackend(ExecutionSpace):
    """Simulated Sunway core group (1 MPE + 64 CPEs)."""

    name = "athread"
    programming_model = "Athread"

    def __init__(
        self,
        num_cpes: int = SW26010_CPES_PER_CG,
        ldm_bytes: int = SW26010_LDM_BYTES,
        registry=None,
        require_registration: bool = True,
        double_buffer: bool = True,
        inst: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(inst)
        if num_cpes < 1:
            raise ValueError("num_cpes must be >= 1")
        self.concurrency = num_cpes
        self.num_cpes = num_cpes
        self.registry = registry if registry is not None else default_registry()
        self.require_registration = require_registration
        self.double_buffer = double_buffer
        self.ldm = [LDMAllocator(ldm_bytes) for _ in range(num_cpes)]
        self.dma = DMAEngine()
        #: Work-distribution record of the last launch (for tests/benches):
        #: (total_tiles, tiles_per_cpe).
        self.last_distribution: Tuple[int, int] = (0, 0)

    # -- tiling ------------------------------------------------------------

    def choose_tile(self, policy: MDRangePolicy, functor) -> Tuple[int, ...]:
        """Pick tile lengths for a launch.

        Honours an explicit ``policy.tile``.  Otherwise starts from the
        full extents and repeatedly halves the largest tile dimension
        until (a) the tile working set — including the functor's
        ``stencil_halo`` ring, which the DMA gets must also stage —
        fits in an LDM DMA buffer and (b) there are at least
        ``num_cpes`` tiles (so every CPE gets work when the range is
        large enough).
        """
        if policy.tile is not None:
            return policy.tile
        _, bpp = functor_cost(functor)
        halo = max(0, int(getattr(functor, "stencil_halo", 0)))
        buffers = 2 if self.double_buffer else 1
        cap = max_tile_points(bpp, self.ldm[0].capacity, buffers=buffers)
        tile = list(policy.extents)
        tile = [max(1, t) for t in tile]

        def vol() -> int:
            return haloed_tile_points(tile, halo)

        def ntiles() -> int:
            return total_tiles(policy.extents, tile)

        while (vol() > cap or ntiles() < min(self.num_cpes, policy.size)) and max(tile) > 1:
            i = max(range(len(tile)), key=lambda d: tile[d])
            tile[i] = max(1, tile[i] // 2)
        return tuple(tile)

    def _lookup_callback(self, functor, kind: str):
        if not self.require_registration:
            return None
        entry = self.registry.lookup(type(functor))
        if entry.kind != kind:
            from ...errors import RegistrationError

            raise RegistrationError(
                f"functor {type(functor).__name__!r} is registered for "
                f"{entry.kind!r} but launched as {kind!r}"
            )
        return entry.callback

    def _stage_tile(self, cpe: int, slices: Sequence[slice], functor) -> Tuple[float, float]:
        """LDM-allocate and DMA-stage one tile; return (bytes_in, bytes_out)."""
        vol = tile_volume(slices)
        halo = max(0, int(getattr(functor, "stencil_halo", 0)))
        staged = haloed_tile_points([s.stop - s.start for s in slices], halo)
        _, bpp = functor_cost(functor)
        bpp_in = float(getattr(functor, "bytes_in_per_point", bpp * 2.0 / 3.0))
        bpp_out = float(getattr(functor, "bytes_out_per_point", max(0.0, bpp - bpp_in)))
        working = int(staged * bpp)
        buffers = 2 if self.double_buffer else 1
        ldm = self.ldm[cpe]
        if working * buffers > ldm.capacity:
            ring = (
                f" (stencil ring +-{halo} -> {staged} staged)" if staged != vol else ""
            )
            raise LDMError(
                f"tile of {vol} points{ring} needs {working} B x {buffers} buffers "
                f"which exceeds the {ldm.capacity} B LDM of CPE {cpe}; "
                "use a smaller MDRangePolicy tile"
            )
        ldm.alloc("tile", working)
        try:
            self.dma.get(staged * bpp_in)
            return staged * bpp_in, vol * bpp_out
        finally:
            pass  # freed by caller after compute + put

    # -- execution ---------------------------------------------------------

    def run_for(self, label: str, policy: MDRangePolicy, functor) -> None:
        check_host_views(functor, self.name)
        callback = self._lookup_callback(functor, "for")
        tile = self.choose_tile(policy, functor)
        ntiles = total_tiles(policy.extents, tile)
        self.last_distribution = (ntiles, tiles_per_cpe(ntiles, self.num_cpes))
        _, bpp = functor_cost(functor)
        bpp_out = float(getattr(functor, "bytes_out_per_point", bpp / 3.0))
        for tidx, slices in enumerate(iter_tiles(policy.ranges, tile)):
            cpe = tidx % self.num_cpes
            self._stage_tile(cpe, slices, functor)
            try:
                if callback is not None:
                    callback(functor, slices)
                else:
                    apply_tile(functor, slices)
                self.dma.put(tile_volume(slices) * bpp_out)
            finally:
                self.ldm[cpe].free("tile")
        self._record(label, policy, functor, tiles=ntiles)

    def prepare_plan(self, label: str, policy, functor) -> LaunchPlan:
        if type(self).run_for is not AthreadBackend.run_for:
            return super().prepare_plan(label, policy, functor)
        return _AthreadPlan(self, label, as_md(policy), functor)

    def run_reduce(self, label: str, policy: MDRangePolicy, functor, reducer: Reducer):
        check_host_views(functor, self.name)
        callback = self._lookup_callback(functor, "reduce")
        tile = self.choose_tile(policy, functor)
        ntiles = total_tiles(policy.extents, tile)
        self.last_distribution = (ntiles, tiles_per_cpe(ntiles, self.num_cpes))
        acc = reducer.identity
        _, bpp = functor_cost(functor)
        bpp_out = float(getattr(functor, "bytes_out_per_point", 8.0))
        for tidx, slices in enumerate(iter_tiles(policy.ranges, tile)):
            cpe = tidx % self.num_cpes
            self._stage_tile(cpe, slices, functor)
            try:
                if callback is not None:
                    partial = callback(functor, slices, reducer.combine)
                else:
                    partial = reduce_tile(functor, slices, reducer)
                self.dma.put(bpp_out)  # one scalar per tile back to MPE
            finally:
                self.ldm[cpe].free("tile")
            if partial is not None:
                acc = reducer.combine(acc, partial)
        self._record(label, policy, functor, tiles=ntiles)
        return acc

    # -- introspection -----------------------------------------------------

    def ldm_high_water(self) -> int:
        """Largest LDM occupancy seen on any CPE."""
        return max(a.high_water for a in self.ldm)

    def reset_counters(self) -> None:
        self.dma.reset()
        for a in self.ldm:
            a.reset()
            a.high_water = 0
