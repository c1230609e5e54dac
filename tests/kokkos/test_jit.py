"""The compiled execution tier (``repro.kokkos.jit``).

Covers codegen-tier bitwise identity against eager ``parallel_for``
(including the athread DMA/LDM ledger), the per-context cache lifecycle
(factories cached, re-seal hits, ``close()`` clears), loud seal-time
failures (a lowering error or an athread LDM overflow raises
``GraphSealError`` naming the kernel) and the empty-range
short-circuits in the reference sweeps.  Model-level identity is in
``tests/ocean/test_graph_replay.py``.
"""

import numpy as np
import pytest

from repro.errors import GraphSealError, LDMError
from repro.kokkos import (
    AthreadBackend,
    ExecutionContext,
    Instrumentation,
    MDRangePolicy,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.kokkos.functor import _loop_elementwise, _recurse_for
from repro.kokkos.graph import LaunchGraph
from repro.kokkos.jit import sweep_key


@kokkos_register_for("jittest_scale", ndim=2)
class ScaleFunctor:
    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, a: float) -> None:
        self.x = x
        self.a = a

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] *= self.a

    def apply(self, slices) -> None:
        self.x.data[tuple(slices)] *= self.a


@kokkos_register_for("jittest_east", ndim=2)
class EastCopyFunctor:
    """out = x shifted east (stencil_halo=1)."""

    flops_per_point = 0.0
    bytes_per_point = 16.0
    stencil_halo = 1

    def __init__(self, x: View, out: View) -> None:
        self.x = x
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        self.out.data[sj, si] = self.x.data[sj, si.start + 1:si.stop + 1]


class BrokenLowering:
    """Any exception on the lowering path must fail the seal, loudly.

    Eager ``parallel_for`` never reads ``parts`` (only the jit keying
    does), so this functor runs fine eagerly while poisoning the
    compiled tier.
    """

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View) -> None:
        self.x = x

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] += 1.0

    def apply(self, slices) -> None:
        self.x.data[tuple(slices)] += 1.0

    @property
    def parts(self):
        raise RuntimeError("poisoned lowering path")


class TestCodegenTier:
    def test_serial_sweep_bitwise_identical(self):
        start = np.random.default_rng(5).normal(size=(6, 7))
        ref = start.copy()
        ref[1:5, 0:6] *= 3.0
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=start.copy())
        pol = MDRangePolicy([(1, 5), (0, 6)])
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 3.0))
        g.seal()
        assert g.kernel_tiers() == [("scale", "codegen")]
        g.replay()
        np.testing.assert_array_equal(x.data, ref)

    def test_athread_compiled_ledger_matches_eager(self):
        # reference: eager parallel_for.  The compiled sweep replaces
        # the tile loop only: data, DMA descriptor counts and volumes,
        # the LDM high water and the tile distribution must not move
        start = np.random.default_rng(9).normal(size=(32, 48))
        pol = MDRangePolicy([(0, 32), (0, 48)])
        results = {}
        for graph in (False, True):
            be = AthreadBackend(inst=Instrumentation())
            x = View("x", data=start.copy())
            if graph:
                g = LaunchGraph(be, fuse=False)
                g.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
                g.seal()
                assert g.kernel_tiers() == [("scale", "codegen")]
                g.replay()
            else:
                be.parallel_for("scale", pol, ScaleFunctor(x, 1.5))
            results[graph] = (
                x.data.copy(), be.dma.get_count, be.dma.put_count,
                be.dma.get_bytes, be.dma.put_bytes, be.ldm_high_water(),
                be.last_distribution,
            )
        eager, compiled = results[False], results[True]
        np.testing.assert_array_equal(eager[0], compiled[0])
        assert eager[1:] == compiled[1:]

    def test_rebind_survives_compilation(self):
        # the sweep closes over Views, not buffers: leapfrog rotation
        # via View.rebind must be visible to the compiled tier
        be = SerialBackend(inst=Instrumentation())
        a = np.ones((4, 4))
        b = np.full((4, 4), 2.0)
        x = View("x", data=a)
        g = LaunchGraph(be)
        g.add_kernel("scale", MDRangePolicy([(0, 4), (0, 4)]),
                     ScaleFunctor(x, 10.0))
        g.seal()
        g.replay()
        np.testing.assert_array_equal(a, np.full((4, 4), 10.0))
        x.rebind(b)
        g.replay()
        np.testing.assert_array_equal(b, np.full((4, 4), 20.0))


class TestJitCacheLifecycle:
    def _seal_one(self, ctx, data):
        x = View("x", data=data)
        g = LaunchGraph(ctx.space)
        g.add_kernel("scale", MDRangePolicy([(0, 4), (0, 4)]),
                     ScaleFunctor(x, 2.0))
        g.seal()
        return g

    def test_reseal_hits_cache_and_contexts_are_disjoint(self):
        ctx1 = ExecutionContext("serial")
        ctx2 = ExecutionContext("serial")
        try:
            self._seal_one(ctx1, np.ones((4, 4)))
            assert (ctx1.jit_cache.misses, ctx1.jit_cache.hits) == (1, 0)
            # binding invalidation re-captures with NEW functor
            # instances: same key, so the factory is re-bound, not
            # re-lowered
            self._seal_one(ctx1, np.zeros((4, 4)))
            assert (ctx1.jit_cache.misses, ctx1.jit_cache.hits) == (1, 1)
            # per-rank compilation state: the sibling context saw nothing
            assert len(ctx2.jit_cache) == 0
            self._seal_one(ctx2, np.ones((4, 4)))
            assert (ctx2.jit_cache.misses, ctx2.jit_cache.hits) == (1, 0)
        finally:
            ctx1.close()
            ctx2.close()

    def test_close_clears_cache(self):
        ctx = ExecutionContext("serial")
        self._seal_one(ctx, np.ones((4, 4)))
        cache = ctx.jit_cache
        assert len(cache) == 1
        ctx.close()
        assert len(cache) == 0

    def test_key_separates_dtype_and_extents(self):
        be = SerialBackend(inst=Instrumentation())
        pol = MDRangePolicy([(0, 4), (0, 4)])
        f64 = ScaleFunctor(View("x", data=np.ones((4, 4))), 2.0)
        f32 = ScaleFunctor(
            View("x", data=np.ones((4, 4), dtype=np.float32),
                 dtype=np.float32), 2.0)
        k1 = sweep_key(be, pol, f64)
        assert k1 != sweep_key(be, pol, f32)
        assert k1 != sweep_key(be, MDRangePolicy([(0, 4), (0, 5)]), f64)
        assert k1 == sweep_key(
            be, pol, ScaleFunctor(View("y", data=np.zeros((4, 4))), 7.0))


class TestDegradation:
    """Seal-time failures raise, naming the kernel; nothing degrades."""

    def test_lowering_failure_raises_at_seal(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.zeros((4, 4)))
        g = LaunchGraph(be)
        g.add_kernel("broken", MDRangePolicy([(0, 4), (0, 4)]),
                     BrokenLowering(x))
        with pytest.raises(GraphSealError, match="'broken'") as info:
            g.seal()
        assert isinstance(info.value.__cause__, RuntimeError)
        assert not g.sealed

    def test_athread_ldm_overflow_of_fused_chain_raises_at_seal(self):
        # each part fits a 400 B LDM on its own, the fused union working
        # set does not: the seal must fail, not silently un-fuse
        be = AthreadBackend(ldm_bytes=400, inst=Instrumentation())
        x = View("x", data=np.ones((4, 6)))
        out = View("out", data=np.zeros((4, 6)))
        pol = MDRangePolicy([(0, 4), (0, 4)])
        be.parallel_for("scale", pol, ScaleFunctor(x, 2.0))
        be.parallel_for("east", pol, EastCopyFunctor(x, out))
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        g.add_kernel("east", pol, EastCopyFunctor(x, out))
        with pytest.raises(GraphSealError,
                           match=r"fused\[scale\+east\]") as info:
            g.seal()
        assert isinstance(info.value.__cause__, LDMError)


class TestEmptyRangeShortCircuit:
    class Exploding:
        def __call__(self, *idx):
            raise AssertionError("functor invoked for an empty range")

    def test_loop_elementwise_skips_empty_inner(self):
        # a huge outer range over an empty inner one must return without
        # iterating the outer range at all
        _loop_elementwise(self.Exploding(),
                          (slice(0, 10**9), slice(3, 3)))

    def test_recurse_for_skips_empty_head(self):
        _recurse_for(self.Exploding(), (slice(5, 2), slice(0, 4)), ())

    def test_parallel_for_empty_policy_runs_no_body(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.ones((4, 0)))
        be.parallel_for("scale", MDRangePolicy([(0, 4), (0, 0)]),
                        ScaleFunctor(x, 2.0))
