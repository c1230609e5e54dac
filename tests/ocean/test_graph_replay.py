"""Step-graph replay is bitwise identical to eager stepping.

The headline contract of ``ModelParams(graph=True)``: capture once,
replay through compiled launch plans (with fusion and the workspace
arena), and produce *bit-identical* prognostic fields on every backend
— the property the paper relies on when validating ports across ORISE
and Sunway.  Also covered: re-capture on binding invalidation and the
arena's zero-allocation steady state.
"""

import hashlib

import numpy as np
import pytest

from repro.kokkos import AthreadBackend, Instrumentation
from repro.ocean import LICOMKpp, demo
from repro.ocean.model import ModelParams

BACKENDS = ["serial", "openmp", "athread", "cuda"]


def _state_hash(model) -> str:
    h = hashlib.sha256()
    st = model.state
    for fld in [st.t, st.s, st.u, st.v, st.ssh, *st.passive]:
        for lvl in (fld.old, fld.cur, fld.new):
            h.update(np.ascontiguousarray(lvl.raw).tobytes())
    return h.hexdigest()


def _run(backend: str, steps: int = 3, **params) -> LICOMKpp:
    model = LICOMKpp(demo("tiny"), backend=backend,
                     params=ModelParams(**params))
    model.run_steps(steps)
    return model


class TestReplayBitwise:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_graph_matches_eager(self, backend):
        eager = _run(backend, graph=False, arena=False)
        graph = _run(backend, graph=True, arena=True)
        assert _state_hash(graph) == _state_hash(eager)
        # the steady-state graph really replayed (not silently eager)
        steady = [g for (startup, _), g in graph._graphs.items()
                  if not startup]
        assert steady and steady[0].replays >= 1
        assert steady[0].fused_groups > 0
        assert steady[0].launches_per_replay < steady[0].captured_launches
        # every replayed launch ran on the compiled tier
        assert steady[0].jit_coverage == 1.0

    def test_graph_matches_eager_single_precision(self):
        eager = _run("serial", graph=False, arena=False,
                     precision="single")
        graph = _run("serial", graph=True, arena=True, precision="single")
        assert _state_hash(graph) == _state_hash(eager)


class TestRecapture:
    def test_recapture_on_binding_invalidation(self):
        model = _run("serial", steps=3, graph=True)
        captures = model._graph_captures
        assert captures == 2  # startup variant + steady variant
        # replaying more steps must not re-capture
        model.run_steps(2)
        assert model._graph_captures == captures
        # changing a numeric parameter baked into captured functors
        # invalidates the binding signature and forces one re-capture
        model.visc *= 1.5
        model.run_steps(2)
        assert model._graph_captures == captures + 1
        steady = [g for (startup, _), g in model._graphs.items()
                  if not startup]
        assert steady[0].replays >= 1


class TestArenaAllocations:
    def test_steady_state_allocations_zero_and_reduced(self):
        inst_arena = Instrumentation()
        arena = LICOMKpp(demo("tiny"),
                         backend=AthreadBackend(inst=inst_arena),
                         params=ModelParams(graph=True, arena=True))
        inst_eager = Instrumentation()
        eager = LICOMKpp(demo("tiny"),
                         backend=AthreadBackend(inst=inst_eager),
                         params=ModelParams(graph=False, arena=False))
        steps = 2
        for model, inst in ((arena, inst_arena), (eager, inst_eager)):
            # warm the arena: past the Euler step, both graph variants
            # captured AND replayed once (the first compiled replay
            # allocates its whole-range scratch buffers)
            model.run_steps(3)
            inst.workspace.requests = 0
            inst.workspace.allocations = 0
            model.run_steps(steps)
        ws_arena, ws_eager = inst_arena.workspace, inst_eager.workspace
        # warm arena: every request served from the pool
        assert ws_arena.allocations == 0
        # the compiled tier sweeps whole-range instead of per-tile, so
        # steady-state requests are ~64x fewer than the tiled sweep —
        # but every kernel still takes its scratch each step
        assert ws_arena.requests > 100 * steps
        # eager baseline allocates on every request; the issue's bar is
        # a >= 5x reduction in allocations per step
        assert ws_eager.allocations == ws_eager.requests
        assert ws_eager.allocations >= 5 * max(ws_arena.allocations, 1)
