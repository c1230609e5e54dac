"""LaunchGraph capture/replay, workspace arena and scan/thread utilities.

Unit-level coverage for the step-graph machinery: capture discipline,
elementwise fusion (bitwise-identical to the eager sequence), the
athread sealed plan's batched DMA/LDM accounting, the workspace arena's
allocation counting, the ``parallel_scan`` entry point and the
``REPRO_NUM_THREADS`` override of the OpenMP backend.  Model-level
bitwise replay tests live in ``tests/ocean/test_graph_replay.py``.
"""

import numpy as np
import pytest

from repro import kokkos as kk
from repro.errors import BackendError
from repro.kokkos import (
    AthreadBackend,
    Instrumentation,
    MDRangePolicy,
    OpenMPBackend,
    SerialBackend,
    View,
    kokkos_register_for,
)
from repro.kokkos.graph import LaunchGraph
from repro.kokkos.spaces import DeviceSpace
from repro.kokkos.workspace import Workspace


@kokkos_register_for("graphtest_scale", ndim=2)
class ScaleFunctor:
    """x *= a (elementwise, fusible)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, a: float) -> None:
        self.x = x
        self.a = a

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] *= self.a

    def apply(self, slices) -> None:
        idx = tuple(slices)
        self.x.data[idx] *= self.a


@kokkos_register_for("graphtest_shift", ndim=2)
class ShiftFunctor:
    """x += b (elementwise, fusible)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 0

    def __init__(self, x: View, b: float) -> None:
        self.x = x
        self.b = b

    def __call__(self, j: int, i: int) -> None:
        self.x.data[j, i] += self.b

    def apply(self, slices) -> None:
        idx = tuple(slices)
        self.x.data[idx] += self.b


@kokkos_register_for("graphtest_stencil", ndim=2)
class StencilFunctor:
    """out = x shifted east (stencil_halo=1: not fusible)."""

    flops_per_point = 1.0
    bytes_per_point = 16.0
    stencil_halo = 1

    def __init__(self, x: View, out: View) -> None:
        self.x = x
        self.out = out

    def apply(self, slices) -> None:
        sj, si = slices
        shifted = slice(si.start + 1, si.stop + 1)
        self.out.data[sj, si] = self.x.data[sj, shifted]


def _record_sequence(graph: LaunchGraph, x: View, events: list) -> None:
    """The reference three-launch sequence used by the fusion tests."""
    pol = MDRangePolicy([(0, x.shape[0]), (0, x.shape[1])])
    graph.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
    graph.add_kernel("shift", pol, ShiftFunctor(x, 2.0))
    graph.add_host(lambda: events.append("host"))
    graph.add_kernel("scale2", pol, ScaleFunctor(x, 0.5))


class TestLaunchGraph:
    def test_capture_seal_replay_and_fusion(self):
        be = SerialBackend(inst=Instrumentation())
        rng = np.random.default_rng(7)
        start = rng.normal(size=(6, 5))

        # eager reference: the same math without a graph
        ref = start * 1.5
        ref = ref + 2.0
        ref = ref * 0.5

        x = View("x", data=start.copy())
        events: list = []
        g = LaunchGraph(be, fuse=True)
        _record_sequence(g, x, events)
        assert g.captured_launches == 3
        g.seal()
        # the two adjacent elementwise launches fuse; the host node
        # breaks the run, leaving the third launch on its own
        assert g.fused_groups == 1
        assert g.launches_per_replay == 2
        g.replay()
        assert events == ["host"]
        assert g.replays == 1
        np.testing.assert_array_equal(x.data, ref)

    def test_fusion_off_keeps_launches(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.ones((4, 4)))
        g = LaunchGraph(be, fuse=False)
        _record_sequence(g, x, [])
        g.seal()
        assert g.fused_groups == 0
        assert g.launches_per_replay == 3

    def test_dependent_stencil_chain_fuses_with_jit(self):
        # scale writes x, the stencil reads x: a dependent chain.  The
        # compiled sweep runs whole-range with a stage barrier per part,
        # so the chain fuses — and stays bitwise identical
        start = np.random.default_rng(11).normal(size=(4, 6))
        ref_x = start.copy()
        ref_x[:, 0:4] *= 2.0  # the policy covers columns 0..3 only
        ref_out = np.zeros((4, 6))
        ref_out[:, 0:4] = ref_x[:, 1:5]
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=start.copy())
        out = View("out", data=np.zeros((4, 6)))
        pol = MDRangePolicy([(0, 4), (0, 4)])
        g = LaunchGraph(be, fuse=True)
        g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        g.add_kernel("stencil", pol, StencilFunctor(x, out))
        g.seal()
        assert g.fused_groups == 1
        assert g.launches_per_replay == 1
        assert g.compiled_launches == 1
        g.replay()
        np.testing.assert_array_equal(x.data, ref_x)
        np.testing.assert_array_equal(out.data, ref_out)

    def test_generic_plan_replays_fused_chain_as_captured_launches(self):
        # a backend intercepting run_for gets the generic (eager-tier)
        # plan; on athread a single run_for of the fused chain would
        # sweep it tile by tile and let the stencil read unscaled
        # columns.  The generic plan must replay the parts as their own
        # whole-range launches, in capture order, under their labels.
        class Intercepting(AthreadBackend):
            def __init__(self):
                super().__init__(inst=Instrumentation())
                self.seen = []

            def run_for(self, label, policy, functor):
                self.seen.append(label)
                super().run_for(label, policy, functor)

        start = np.random.default_rng(12).normal(size=(16, 18))
        ref_x = start.copy()
        ref_x[:, 0:16] *= 2.0
        ref_out = np.zeros((16, 18))
        ref_out[:, 0:16] = ref_x[:, 1:17]
        be = Intercepting()
        x = View("x", data=start.copy())
        out = View("out", data=np.zeros((16, 18)))
        pol = MDRangePolicy([(0, 16), (0, 16)])
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        g.add_kernel("stencil", pol, StencilFunctor(x, out))
        g.seal()
        assert g.fused_groups == 1
        assert g.kernel_tiers() == [("fused[scale+stencil]", "eager")]
        g.replay()
        assert be.seen == ["scale", "stencil"]
        np.testing.assert_array_equal(x.data, ref_x)
        np.testing.assert_array_equal(out.data, ref_out)

    def test_sealed_graph_rejects_recording(self):
        be = SerialBackend(inst=Instrumentation())
        x = View("x", data=np.ones((3, 3)))
        pol = MDRangePolicy([(0, 3), (0, 3)])
        g = LaunchGraph(be)
        g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        g.seal()
        with pytest.raises(RuntimeError, match="sealed"):
            g.add_kernel("scale", pol, ScaleFunctor(x, 2.0))
        with pytest.raises(RuntimeError, match="sealed"):
            g.add_host(lambda: None)

    def test_replay_requires_seal(self):
        g = LaunchGraph(SerialBackend(inst=Instrumentation()))
        with pytest.raises(RuntimeError, match="seal"):
            g.replay()


class TestAthreadPlanAccounting:
    """A sealed plan's batched ledger matches the eager path exactly."""

    def _sweep(self, be: AthreadBackend, x: View, graph: bool) -> None:
        pol = MDRangePolicy([(0, x.shape[0]), (0, x.shape[1])])
        if not graph:
            be.parallel_for("scale", pol, ScaleFunctor(x, 1.5))
            be.parallel_for("shift", pol, ShiftFunctor(x, 2.0))
            return
        g = LaunchGraph(be, fuse=False)
        g.add_kernel("scale", pol, ScaleFunctor(x, 1.5))
        g.add_kernel("shift", pol, ShiftFunctor(x, 2.0))
        g.seal()
        g.replay()

    def test_ledgers_match_eager(self):
        start = np.random.default_rng(3).normal(size=(32, 48))
        results = {}
        for graph in (False, True):
            be = AthreadBackend(inst=Instrumentation())
            x = View("x", data=start.copy())
            self._sweep(be, x, graph)
            results[graph] = (
                x.data.copy(), be.dma.get_count, be.dma.put_count,
                be.dma.get_bytes, be.dma.put_bytes, be.ldm_high_water(),
                be.last_distribution,
            )
        eager, replay = results[False], results[True]
        np.testing.assert_array_equal(eager[0], replay[0])
        assert eager[1] == replay[1]          # DMA descriptor counts
        assert eager[2] == replay[2]
        assert eager[3] == pytest.approx(replay[3])   # DMA volumes
        assert eager[4] == pytest.approx(replay[4])
        assert eager[5] == replay[5]          # LDM high water
        assert eager[6] == replay[6]          # tile distribution

    def test_replay_skips_per_tile_ledger_calls(self):
        be = AthreadBackend(inst=Instrumentation())
        x = View("x", data=np.zeros((32, 48)))
        self._sweep(be, x, graph=True)
        ntiles = be.last_distribution[0]
        assert ntiles > 1
        # batched accounting: one descriptor per tile is still recorded,
        # per launch in a single call; counts equal tiles exactly
        assert be.dma.get_count == 2 * ntiles


class TestWorkspace:
    def test_warm_take_reuses_buffer_and_counts(self):
        inst = Instrumentation()
        ws = Workspace(enabled=True, inst=inst)
        a = ws.take("buf", (4, 3))
        b = ws.take("buf", (4, 3))
        assert a is b
        assert inst.workspace.allocations == 1
        assert inst.workspace.requests == 2
        assert inst.workspace.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_and_shapes_get_distinct_buffers(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        assert ws.take("a", (4,)) is not ws.take("b", (4,))
        assert ws.take("a", (4,)) is not ws.take("a", (5,))
        assert ws.take("a", (4,), np.float64) is not \
            ws.take("a", (4,), np.float32)

    def test_disabled_workspace_allocates_every_take(self):
        inst = Instrumentation()
        ws = Workspace(enabled=False, inst=inst)
        a = ws.take("buf", (4, 3))
        b = ws.take("buf", (4, 3))
        assert a is not b
        assert inst.workspace.allocations == 2
        assert inst.workspace.requests == 2

    def test_fill_and_clear(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        a = ws.take("buf", (3,), fill=7.0)
        np.testing.assert_array_equal(a, np.full(3, 7.0))
        ws.clear()
        assert ws.take("buf", (3,)) is not a

    def test_int_shape_normalised(self):
        ws = Workspace(enabled=True, inst=Instrumentation())
        assert ws.take("buf", 5).shape == (5,)
        assert ws.take("buf", (5,)) is ws.take("buf", 5)


class TestParallelScan:
    def setup_method(self):
        kk.initialize("serial")

    def teardown_method(self):
        kk.finalize()

    def test_inclusive_scan_matches_cumsum(self):
        vals = np.arange(1.0, 9.0)
        out = np.zeros_like(vals)

        def body(i, acc, final):
            acc = acc + vals[i]
            if final:
                out[i] = acc
            return acc

        total = kk.parallel_scan("scan", len(vals), body)
        assert total == pytest.approx(vals.sum())
        np.testing.assert_allclose(out, np.cumsum(vals))

    def test_empty_scan_returns_identity_without_launch(self):
        inst = kk.default_space().inst
        before = inst.total_launches

        def body(i, acc, final):  # pragma: no cover - must not run
            raise AssertionError("functor invoked for empty range")

        assert kk.parallel_scan("scan", 0, body) == 0.0
        assert inst.total_launches == before

    def test_scan_refuses_device_views_on_host(self):
        class DeviceScan:
            def __init__(self):
                self.x = View("d", shape=(4,), space=DeviceSpace)

            def __call__(self, i, acc, final):
                return acc

        with pytest.raises(BackendError, match="device views"):
            kk.parallel_scan("scan", 4, DeviceScan())


class TestOpenMPThreadOverride:
    def test_env_override_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        be = OpenMPBackend(inst=Instrumentation())
        assert be.concurrency == 3

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        be = OpenMPBackend(threads=2, inst=Instrumentation())
        assert be.concurrency == 2

    @pytest.mark.parametrize("bad", ["zero", "0", "-4", "2.5"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_NUM_THREADS", bad)
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            OpenMPBackend(inst=Instrumentation())

    def test_unset_env_uses_capped_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        be = OpenMPBackend(inst=Instrumentation())
        assert 1 <= be.concurrency <= 8
