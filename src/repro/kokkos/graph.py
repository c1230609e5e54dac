"""``LaunchGraph``: step-graph capture & replay with elementwise fusion.

The Kokkos-Graphs / CUDA-Graphs idiom, applied to the Python dispatch
path: the model records one baroclinic step's launch sequence — labels,
normalised policies and *bound functor instances* — then subsequent
steps ``replay()`` through per-backend :class:`~.backends.base.LaunchPlan`
objects with near-zero dispatch work.  Host-side glue between launches
(halo exchanges, fences, `.raw` copies) is captured as :class:`HostNode`
closures and replayed in sequence, so the graph reproduces the eager
step exactly.

Two mechanisms keep replay valid across steps:

* **Rebindable view slots** — leapfrog old/cur/new rotation swaps the
  buffers *beneath* stable ``View`` objects (``View.rebind``), so the
  functor instances captured once keep seeing the advancing time
  levels.  Rotation therefore never forces a re-capture.
* **Signature invalidation** — the owner stores a binding signature
  (view identities + numeric parameters baked into functor instances)
  on the sealed graph; when it no longer matches, the model drops the
  graph and re-captures.

On top of the recording, :meth:`LaunchGraph.seal` runs a *fusion* pass
over maximal runs of adjacent ``parallel_for`` launches with identical
iteration ranges and no intervening host node.  Runs whose parts are
all point-local (``stencil_halo == 0``) merge into one
:class:`FusedTileFunctor`; runs containing stencil parts merge into a
:class:`FusedStencilFunctor` whose ``stencil_halo`` is the widest ring
any part reads.  Either way the fused node pays one launch (one
spawn/join on the CPEs, one kernel launch on the GPU) instead of N.

Every sealed plan is then lowered through :mod:`repro.kokkos.jit` into
a compiled sweep cached on the owning execution space.  The sweep runs
each fused part over the whole range before the next part starts —
exactly the eager launch sequence — so even dependent stencil chains
fuse bitwise-identically.  Backends that intercept ``run_for`` get the
generic plan instead, which replays a fused node as its captured
launches, again whole-range and in order: no dependent chain ever runs
tiled.  A launch that cannot be prepared or lowered fails the seal with
a :class:`~repro.errors.GraphSealError` naming the kernel.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import GraphCertificationError, GraphSealError
from .backends.base import ExecutionSpace, apply_tile
from .functor import kokkos_register_for
from .policy import MDRangePolicy, as_md

#: Shared no-op context: the traced paths allocate nothing when tracing
#: is off, keeping graph replay dispatch at its measured cost.
_NO_SPAN = nullcontext()


@kokkos_register_for("fused_elementwise", ndim=3)
class FusedTileFunctor:
    """N adjacent elementwise launches executed as one tile sweep.

    Each part runs over the same slices in capture order, so within any
    tile the arithmetic sequence is exactly the eager one; because every
    part is point-local (``stencil_halo == 0``), no part reads what a
    previous part wrote outside the current tile, and the fusion is
    bitwise safe under any tiling.

    Cost metadata is the sum of the parts' declarations, so the
    instrumentation and the Athread LDM sizing stay honest.
    """

    #: Composite body: kernelcheck analyses the parts individually.
    __kernelcheck_skip__ = True
    stencil_halo = 0

    def __init__(self, parts: Sequence, labels: Sequence[str]) -> None:
        self.parts = list(parts)
        self.labels = list(labels)
        self.flops_per_point = sum(
            float(getattr(p, "flops_per_point", 0.0)) for p in parts)
        self.bytes_per_point = sum(
            float(getattr(p, "bytes_per_point", 8.0)) for p in parts)
        self.bytes_in_per_point = sum(
            float(getattr(p, "bytes_in_per_point",
                          getattr(p, "bytes_per_point", 8.0) * 2.0 / 3.0))
            for p in parts)
        self.bytes_out_per_point = sum(
            float(getattr(p, "bytes_out_per_point",
                          getattr(p, "bytes_per_point", 8.0) / 3.0))
            for p in parts)

    def __call__(self, *idx: int) -> None:
        for p in self.parts:
            p(*idx)

    def apply(self, slices: Tuple[slice, ...]) -> None:
        for p in self.parts:
            apply_tile(p, slices)


@kokkos_register_for("fused_stencil", ndim=3)
class FusedStencilFunctor(FusedTileFunctor):
    """N adjacent stencil launches executed as one halo-aware sweep.

    The instance's ``stencil_halo`` is the widest ring any part reads,
    so the Athread backend stages (and the LDM fit proof covers) the
    union working set.  The parts may form a dependent chain: every
    plan replays them whole-range, part by part (interior and rim
    alike), which is exactly the eager launch sequence.
    """

    #: Composite body: kernelcheck analyses the parts individually.
    __kernelcheck_skip__ = True

    def __init__(self, parts: Sequence, labels: Sequence[str],
                 halo: int) -> None:
        super().__init__(parts, labels)
        self.stencil_halo = int(halo)


class KernelNode:
    """One recorded ``parallel_for`` (label, policy, bound functor)."""

    __slots__ = ("label", "policy", "functor", "plan")

    def __init__(self, label: str, policy: MDRangePolicy, functor) -> None:
        self.label = label
        self.policy = policy
        self.functor = functor
        self.plan = None

    def halo(self) -> int:
        return max(0, int(getattr(self.functor, "stencil_halo", 0)))

    def can_fuse(self, other: "KernelNode") -> bool:
        """May ``other`` join a fusion group ending with this node?"""
        return (self.policy.tile is None and other.policy.tile is None
                and self.policy.ranges == other.policy.ranges)

    def parts(self) -> List[Tuple[str, object]]:
        """Per-plan-part ``(label, functor)`` pairs.

        Fused nodes expose their member bodies; a plain launch is its
        own single part.  This is the unit the graphcheck verifier
        builds kernelcheck footprints for.
        """
        inner = getattr(self.functor, "parts", None)
        if inner:
            labels = getattr(self.functor, "labels", None) or \
                [self.label] * len(inner)
            return list(zip(labels, inner))
        return [(self.label, self.functor)]


class HostEffects:
    """Declared dataflow effects of one host node.

    Host closures are opaque to static analysis, so the recorder
    declares what a node does to the views the launches around it
    touch; the graphcheck verifier walks these between launches.

    ``reads`` / ``writes`` are views (or arrays) the closure consumes /
    fully overwrites on the host; ``halo_refresh`` are views whose
    ghost cells the closure exchanges (an implicit interior read);
    ``rotates`` are ``(old, cur, new)`` view triples whose *buffers*
    the closure permutes (leapfrog rotation); ``fences`` is True when
    the closure fences the space before touching any data.  A node
    recorded without effects is treated as an opaque barrier.
    """

    __slots__ = ("reads", "writes", "halo_refresh", "rotates", "fences")

    def __init__(self, reads: Sequence = (), writes: Sequence = (),
                 halo_refresh: Sequence = (), rotates: Sequence = (),
                 fences: bool = False) -> None:
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.halo_refresh = tuple(halo_refresh)
        self.rotates = tuple(tuple(r) for r in rotates)
        self.fences = bool(fences)


class HostNode:
    """Host-side glue replayed verbatim between launches."""

    __slots__ = ("fn", "label", "effects")

    def __init__(self, fn: Callable[[], None], label: str = "host",
                 effects: Optional[HostEffects] = None) -> None:
        self.fn = fn
        self.label = label
        #: Declared dataflow effects (None = opaque barrier).
        self.effects = effects


class LaunchGraph:
    """A captured launch sequence, sealable into a replayable plan list."""

    def __init__(self, space: ExecutionSpace, fuse: bool = True) -> None:
        self.space = space
        self.fuse = fuse
        self.nodes: List[object] = []
        self.sealed = False
        #: Binding signature the owner compares to decide re-capture.
        self.signature: Optional[tuple] = None
        self.replays = 0
        self.captured_launches = 0
        self.fused_groups = 0

    # -- capture -----------------------------------------------------------

    def add_kernel(self, label: str, policy, functor) -> None:
        if self.sealed:
            raise RuntimeError("cannot record into a sealed LaunchGraph")
        self.nodes.append(KernelNode(label, as_md(policy), functor))
        self.captured_launches += 1

    def add_host(self, fn: Callable[[], None], label: str = "host",
                 effects: Optional[HostEffects] = None) -> HostNode:
        if self.sealed:
            raise RuntimeError("cannot record into a sealed LaunchGraph")
        node = HostNode(fn, label, effects)
        self.nodes.append(node)
        return node

    # -- fusion ------------------------------------------------------------

    def _flush_group(self, group: List[KernelNode],
                     out: List[object]) -> None:
        if len(group) < 2:
            out.extend(group)
            return
        label = "fused[" + "+".join(n.label for n in group) + "]"
        parts = [n.functor for n in group]
        labels = [n.label for n in group]
        halo = max(n.halo() for n in group)
        if halo == 0:
            functor = FusedTileFunctor(parts, labels)
        else:
            functor = FusedStencilFunctor(parts, labels, halo)
        out.append(KernelNode(label, group[0].policy, functor))
        self.fused_groups += 1

    def _fuse_nodes(self, nodes: List[object]) -> List[object]:
        out: List[object] = []
        group: List[KernelNode] = []
        for node in nodes:
            if isinstance(node, KernelNode) and node.policy.tile is None:
                if group and not group[-1].can_fuse(node):
                    self._flush_group(group, out)
                    group = []
                group.append(node)
            else:
                self._flush_group(group, out)
                group = []
                out.append(node)
        self._flush_group(group, out)
        return out

    # -- seal / replay -----------------------------------------------------

    def _span(self, name: str, **args):
        tr = getattr(self.space, "tracer", None)
        if tr is not None and tr.enabled:
            return tr.span(name, cat="graph", **args)
        return _NO_SPAN

    def seal(self, certify: bool = False) -> "LaunchGraph":
        """Fuse compatible launches and prepare per-backend plans.

        Each prepared plan is lowered through :mod:`repro.kokkos.jit`
        (cached on the owning execution space).  Any failure to prepare
        or lower a plan raises :class:`~repro.errors.GraphSealError`
        naming the kernel; the original error is its ``__cause__``.

        With ``certify=True`` the sealed schedule is re-proven by the
        independent graphcheck verifier
        (:func:`repro.analysis.graphcheck.certify_fusion`): any eager-tier
        fused node whose parts it cannot prove tiling-safe raises
        :class:`~repro.errors.GraphCertificationError` instead of sealing
        a schedule that could diverge from eager.
        """
        if self.sealed:
            return self
        with self._span("graph_seal", captured=self.captured_launches):
            if self.fuse:
                self.nodes = self._fuse_nodes(self.nodes)
            for node in self.nodes:
                if isinstance(node, KernelNode):
                    self._prepare_node(node)
        self.sealed = True
        if certify:
            from ..analysis.graphcheck import certify_fusion, certify_precision

            refused = certify_fusion(self)
            if refused:
                raise GraphCertificationError(
                    "sealed graph failed fusion certification:\n"
                    + "\n".join(f.format() for f in refused))
            promoted = certify_precision(self)
            if promoted:
                raise GraphCertificationError(
                    "sealed graph failed precision certification "
                    "(silent fp32->fp64 promotion):\n"
                    + "\n".join(f.format() for f in promoted))
        return self

    def _prepare_node(self, node: KernelNode) -> None:
        try:
            node.plan = self.space.prepare_plan(node.label, node.policy,
                                                node.functor)
        except Exception as exc:
            raise GraphSealError(
                f"cannot seal kernel {node.label!r} on backend "
                f"{self.space.name!r}: {type(exc).__name__}: {exc}"
            ) from exc

    def replay(self) -> None:
        """Re-execute the captured step through the cached plans."""
        if not self.sealed:
            raise RuntimeError("seal() the LaunchGraph before replay()")
        with self._span("graph_replay", launches=self.launches_per_replay,
                        fused_groups=self.fused_groups):
            run_plan = self.space.run_plan
            for node in self.nodes:
                if isinstance(node, KernelNode):
                    run_plan(node.plan)
                else:
                    node.fn()
        self.replays += 1

    # -- introspection -----------------------------------------------------

    @property
    def launches_per_replay(self) -> int:
        """Kernel launches one replay issues (after fusion)."""
        return sum(1 for n in self.nodes if isinstance(n, KernelNode))

    def kernel_tiers(self) -> List[Tuple[str, str]]:
        """Per-kernel (label, execution tier) of the sealed graph."""
        return [(n.label, getattr(n.plan, "tier", "eager"))
                for n in self.nodes if isinstance(n, KernelNode)]

    @property
    def compiled_launches(self) -> int:
        """Launches per replay served by a compiled (non-eager) tier."""
        return sum(1 for _, tier in self.kernel_tiers() if tier != "eager")

    @property
    def jit_coverage(self) -> float:
        """Fraction of replayed launches on a compiled tier."""
        launches = self.launches_per_replay
        return self.compiled_launches / launches if launches else 0.0

    def stats(self) -> Dict[str, object]:
        """One sealed graph's vitals as a plain dict.

        The serving layer reports these per shared engine (how much work
        one sealed plan amortised across jobs); keys are stable and all
        values are JSON-serialisable.
        """
        return {
            "sealed": self.sealed,
            "captured_launches": self.captured_launches,
            "launches_per_replay": self.launches_per_replay,
            "fused_groups": self.fused_groups,
            "compiled_launches": self.compiled_launches,
            "jit_coverage": self.jit_coverage,
            "replays": self.replays,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        hosts = sum(1 for n in self.nodes if isinstance(n, HostNode))
        return (f"LaunchGraph(launches={self.launches_per_replay}, "
                f"hosts={hosts}, captured={self.captured_launches}, "
                f"fused_groups={self.fused_groups}, "
                f"compiled={self.compiled_launches}, sealed={self.sealed})")
