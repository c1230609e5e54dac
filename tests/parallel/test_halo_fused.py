"""Fused multi-field halo exchange: bitwise identity, pooling, traffic.

The fused fast path must be indistinguishable from running the
per-field exchange once per field — including tripolar-fold sign flips,
closed-boundary fills and both 3-D message methods — while sending one
message per neighbour per phase (per dtype group) and reaching a
zero-allocation steady state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.ocean import LICOMKpp, demo
from repro.ocean.localdomain import local_with_halo
from repro.ocean.model import ModelParams
from repro.parallel import (
    BlockDecomposition,
    BufferPool,
    FieldSpec,
    FusedHaloExchange,
    HaloUpdater,
    SimWorld,
    as_field_specs,
    exchange2d,
    exchange3d,
    overlapped_update_fused,
)

NZ = 4


def _fields(rank, decomp, n2=2, n3=2, dtype=np.float64):
    ly, lx = decomp.local_shape(rank)
    rng = np.random.default_rng(100 + rank)
    out = [rng.standard_normal((ly, lx)).astype(dtype) for _ in range(n2)]
    out += [rng.standard_normal((NZ, ly, lx)).astype(dtype) for _ in range(n3)]
    return out


def _run_fused_vs_perfield(decomp, signs, fills, method="transposed",
                           dtype=np.float64, rounds=1):
    """Per-rank (fused arrays, per-field arrays) after identical updates."""

    def prog(comm):
        rank = comm.rank
        fused = _fields(rank, decomp, dtype=dtype)
        ref = [f.copy() for f in fused]
        fx = FusedHaloExchange(comm, decomp, rank)
        for _ in range(rounds):
            fx.exchange(
                [FieldSpec(a, s, f) for a, s, f in zip(fused, signs, fills)]
            )
            for a, s, f in zip(ref, signs, fills):
                if a.ndim == 2:
                    exchange2d(comm, decomp, rank, a, sign=s, fill=f)
                else:
                    exchange3d(comm, decomp, rank, a, s, f, method)
        return fused, ref

    return SimWorld.run(prog, decomp.size)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("npy,npx", [(1, 2), (2, 1), (2, 2), (3, 4)])
    @pytest.mark.parametrize("fold", [True, False])
    def test_matches_per_field(self, npy, npx, fold):
        d = BlockDecomposition(16, 24, npy, npx, north_fold=fold)
        signs, fills = [1.0, -1.0, 1.0, -1.0], [0.0, 7.5, -2.0, 1.25]
        for fused, ref in _run_fused_vs_perfield(d, signs, fills, rounds=2):
            for a, b in zip(fused, ref):
                assert np.array_equal(a, b)

    def test_matches_topology_oracle(self):
        ny, nx = 16, 24
        g2 = np.random.default_rng(0).standard_normal((ny, nx))
        g3 = np.random.default_rng(1).standard_normal((NZ, ny, nx))
        d = BlockDecomposition(ny, nx, 2, 2)

        def prog(comm):
            l2 = d.scatter_global(g2, comm.rank)
            l3 = d.scatter_global(g3, comm.rank)
            FusedHaloExchange(comm, d, comm.rank).exchange([l2, l3])
            return l2, l3

        for r, (l2, l3) in enumerate(SimWorld.run(prog, 4)):
            assert np.array_equal(l2, local_with_halo(g2, d, r)), f"rank {r}"
            assert np.array_equal(l3, local_with_halo(g3, d, r)), f"rank {r}"

    @settings(max_examples=10, deadline=None)
    @given(
        npy=st.integers(1, 2),
        npx=st.integers(1, 2),
        sign=st.sampled_from([1.0, -1.0]),
        fill=st.floats(-5.0, 5.0, allow_nan=False),
        method=st.sampled_from(["transposed", "per_level"]),
    )
    def test_property_fold_identity(self, npy, npx, sign, fill, method):
        """Any (grid, sign, fill, 3-D method): fused == per-field."""
        d = BlockDecomposition(16, 24, npy, npx, north_fold=True)
        signs, fills = [sign] * 4, [fill] * 4
        for fused, ref in _run_fused_vs_perfield(d, signs, fills, method):
            for a, b in zip(fused, ref):
                assert np.array_equal(a, b)

    def test_mixed_dtypes_split_into_groups(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            f64 = _fields(comm.rank, d, n2=1, n3=1)
            f32 = _fields(comm.rank, d, n2=1, n3=1, dtype=np.float32)
            ref = [a.copy() for a in f64 + f32]
            fx = FusedHaloExchange(comm, d, comm.rank)
            fx.exchange(f64 + f32)
            for a in ref:
                if a.ndim == 2:
                    exchange2d(comm, d, comm.rank, a)
                else:
                    exchange3d(comm, d, comm.rank, a)
            return all(np.array_equal(a, b) for a, b in zip(f64 + f32, ref))

        assert all(SimWorld.run(prog, 4))


class TestBufferPool:
    def test_zero_allocations_at_steady_state(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            fs = _fields(comm.rank, d)
            fx = FusedHaloExchange(comm, d, comm.rank)
            specs = [FieldSpec(a) for a in fs]
            fx.exchange(specs)
            after_first = fx.pool.allocations
            for _ in range(5):
                fx.exchange(specs)
            return after_first, fx.pool.allocations, fx.pool.reuses

        for first, final, reuses in SimWorld.run(prog, 4):
            assert final == first, "steady state must not allocate"
            assert reuses >= 5 * first

    def test_pool_reuses_matching_buffers(self):
        pool = BufferPool()
        a = pool.acquire("ns", 64, np.float64)
        pool.release("ns", a)
        b = pool.acquire("ns", 64, np.float64)
        assert b is a
        assert pool.allocations == 1 and pool.reuses == 1
        # different kind, size or dtype => fresh allocation
        assert pool.acquire("ew", 64, np.float64) is not None
        assert pool.allocations == 2
        assert pool.pooled_buffers() == 0


class TestFieldSpecs:
    def test_rejects_bad_rank(self):
        with pytest.raises(CommunicationError):
            FieldSpec(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(CommunicationError):
            as_field_specs([])

    def test_accepts_tuples_and_arrays(self):
        a = np.zeros((4, 4))
        specs = as_field_specs([a, (a, -1.0), (a, 1.0, 9.0), FieldSpec(a)])
        assert [s.sign for s in specs] == [1.0, -1.0, 1.0, 1.0]
        assert specs[2].fill == 9.0

    def test_shape_mismatch_raises(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            fx = FusedHaloExchange(comm, d, comm.rank)
            try:
                fx.exchange([np.zeros((3, 3))])
            except CommunicationError:
                return True
            return False

        assert all(SimWorld.run(prog, 4))


class TestOverlappedFused:
    def test_overlap_matches_plain_exchange_then_compute(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            rank = comm.rank
            fs = _fields(rank, d)
            ref = [a.copy() for a in fs]
            h = d.halo
            ly, lx = d.local_shape(rank)
            owned = (slice(h, ly - h), slice(h, lx - h))

            def compute(arr, region):
                arr[region] = arr[region] * 1.5 + 1.0

            overlapped_update_fused(comm, d, rank, fs, compute)
            # reference: plain fused exchange, then compute all owned cells
            FusedHaloExchange(comm, d, rank).exchange(ref)
            for a in ref:
                region = (slice(None),) + owned if a.ndim == 3 else owned
                compute(a, region)
            return all(np.array_equal(a[..., h:-h, h:-h], b[..., h:-h, h:-h])
                       for a, b in zip(fs, ref))

        assert all(SimWorld.run(prog, 4))


class TestHaloUpdaterFusion:
    def test_update_many_counts_and_matches(self):
        d = BlockDecomposition(16, 24, 2, 2)

        def prog(comm):
            fs = _fields(comm.rank, d)
            ref = [a.copy() for a in fs]
            hu = HaloUpdater(comm, d, comm.rank)
            hu.update_many([(a, 1.0, 0.0) for a in fs], phase="test")
            for a in ref:
                if a.ndim == 2:
                    exchange2d(comm, d, comm.rank, a)
                else:
                    exchange3d(comm, d, comm.rank, a)
            same = all(np.array_equal(a, b) for a, b in zip(fs, ref))
            return same, hu.updates2d, hu.updates3d, hu.fused_exchanges

        for same, u2, u3, fx in SimWorld.run(prog, 4):
            assert same
            assert (u2, u3, fx) == (2, 2, 1)


class TestModelTraffic:
    """The model's fused halo traffic does not grow with the tracer count."""

    @staticmethod
    def _cfg():
        # nsub=2 so 2-D barotropic traffic does not dwarf the fused 3-D
        # updates.
        return dataclasses.replace(demo("tiny"), dt_barotropic=3600.0)

    @classmethod
    def _messages(cls, n_passive: int) -> int:
        cfg = cls._cfg()
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 2)
        params = ModelParams(n_passive=n_passive)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d, params=params)
            m.run_steps(2)
            comm.barrier()     # all ranks done before reading the total
            return comm.world.traffic.messages

        return SimWorld.run(prog, 4)[0]

    def test_messages_per_step_independent_of_passive_tracers(self):
        # every tracer stage exchanges all tracers in one fused message
        # per neighbour, so four extra tracers add bytes, not messages
        assert self._messages(n_passive=0) == self._messages(n_passive=4)

    def test_fused_phases_ledgered(self):
        cfg = self._cfg()
        d = BlockDecomposition(cfg.ny, cfg.nx, 2, 2)

        def prog(comm):
            m = LICOMKpp(cfg, comm=comm, decomp=d,
                         params=ModelParams(n_passive=1))
            m.run_steps(1)
            comm.barrier()     # all ranks done before snapshotting
            led = comm.world.traffic
            return ({k: list(v) for k, v in led.by_phase.items()},
                    led.size_histogram())

        by_phase, hist = SimWorld.run(prog, 4)[0]
        assert by_phase["halo3"][0] > 0 and by_phase["halo2"][0] > 0
        assert sum(hist.values()) == sum(p[0] for p in by_phase.values())
