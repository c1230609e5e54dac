"""graphcheck — whole-schedule dataflow verifier for sealed launch graphs.

kernelcheck proves properties of one kernel body at a time; this module
proves properties of the *schedule*: it walks a sealed
:class:`~repro.kokkos.graph.LaunchGraph` (kernel launches, fused nodes,
host glue with declared :class:`~repro.kokkos.graph.HostEffects`) and
assigns every ``View`` an abstract version per launch, derived from the
kernelcheck footprints of each plan part.  Four rule families fall out
of the walk (see DESIGN.md §2.13):

``graph-race``
    Cross-part read/write hazards inside an eager-tier fused node that a
    *tiled* sweep of the fused body cannot honour.  Compiled plans run
    fused parts whole-range in sequence, so only plans the graph did not
    lower carry this obligation; the rule is the defence in depth that
    refuses such a node rather than trusting how it will be executed.
    Shared memory is detected on the resolved buffers
    (``np.shares_memory``), and the only exemption is the one tiling
    actually grants: accesses at loop offset 0 on every axis, where
    per-tile capture order reproduces the eager order exactly.
``stale-halo``
    A stencil launch reads a view's boundary ring at a point where the
    schedule has written the interior since the last halo refresh and
    the read's reach extends into the stale inset.
``redundant-exchange`` / ``dead-store``
    Optimization findings: a halo refresh of a view nothing has written
    since its previous refresh, and a kernel write no later node ever
    reads before the next full overwrite.
``graph-fence``
    Host glue that reads (or overwrites) a buffer with launches still
    pending and no declared ``fence()`` — correct today on the
    synchronous backends, wrong on any asynchronous plan.

The walk runs several passes over the node list so steady-state
staleness wraps around the step boundary (a captured graph replays in a
loop); findings are emitted on the final pass only and deduplicated by
their stable ``rule:kernel:view`` key.

Entry points: :func:`check_graph` (all families, one sealed graph),
:func:`check_fusion_legality` / :func:`certify_fusion` (the
``seal(certify=True)`` hook), and :func:`run_graphcheck` (the
``python -m repro lint --graph`` driver: builds the demo model on every
backend and verifies each sealed step graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..kokkos.graph import HostNode, KernelNode, LaunchGraph
from ..kokkos.view import View
from .findings import Finding, Report, Severity
from .rules import (
    GRAPH_RULES,
    RULE_DEAD_STORE,
    RULE_GRAPH_FENCE,
    RULE_GRAPH_RACE,
    RULE_PRECISION,
    RULE_REDUNDANT_EXCHANGE,
    RULE_STALE_HALO,
)

__all__ = [
    "GraphLintConfig",
    "PartAccess",
    "certify_fusion",
    "certify_precision",
    "check_fusion_legality",
    "check_graph",
    "check_precision",
    "run_graphcheck",
]


# --------------------------------------------------------------------------
# footprint resolution: (label, functor) part -> concrete buffers
# --------------------------------------------------------------------------


def _resolve(functor, dotted: str):
    """Resolve a footprint view name (``w``, ``dom.mask_t``) on the
    bound functor instance; returns a View, an ndarray, or None."""
    obj = functor
    for name in dotted.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    if isinstance(obj, (View, np.ndarray)):
        return obj
    return None


def _buffer(obj) -> Optional[np.ndarray]:
    if isinstance(obj, View):
        return obj.raw
    if isinstance(obj, np.ndarray):
        return obj
    return None


def _display(obj, fallback: str) -> str:
    if isinstance(obj, View):
        return obj.label
    return fallback


@dataclass
class PartAccess:
    """One plan part's accesses, resolved to concrete buffers.

    ``targets`` maps footprint view names to the resolved View/ndarray;
    ``footprints`` holds the per-view :class:`ViewFootprint` records.
    ``unanalyzable`` is set when the body defeated the abstract
    interpreter or a written view could not be resolved — the legality
    proof then refuses to vouch for the part.
    """

    label: str
    functor: object
    ndim: int
    targets: Dict[str, object] = field(default_factory=dict)
    footprints: Dict[str, object] = field(default_factory=dict)
    unanalyzable: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None


#: (functor_type, ndim) -> kernelcheck footprint (None on analyzer crash).
_FP_CACHE: Dict[Tuple[type, int], object] = {}


def _part_footprint(ftype: type, ndim: int):
    """Cached kernelcheck footprint of one plan part.

    Returns ``None`` when the static analyzer itself fails (callers must
    stay conservative); a footprint whose ``error`` is set means the
    body resisted analysis.
    """
    key = (ftype, ndim)
    if key not in _FP_CACHE:
        try:
            from .footprint import build_footprint

            _FP_CACHE[key] = build_footprint(ftype.__name__, ftype,
                                             ndim=ndim, kind="for")
        except Exception:
            _FP_CACHE[key] = None
    return _FP_CACHE[key]


def _part_access(label: str, functor, ndim: int) -> PartAccess:
    pa = PartAccess(label=label, functor=functor, ndim=ndim)
    fp = _part_footprint(type(functor), ndim)
    if fp is None or fp.error is not None:
        pa.unanalyzable = fp.error if fp is not None else "no footprint"
        return pa
    pa.file, pa.line = fp.file, fp.line
    for name, vf in fp.views.items():
        obj = _resolve(functor, name)
        if obj is None:
            if vf.writes:
                pa.unanalyzable = f"cannot resolve written view {name!r}"
            continue
        pa.targets[name] = obj
        pa.footprints[name] = vf
    return pa


def _node_parts(node: KernelNode) -> List[PartAccess]:
    ndim = len(node.policy.extents)
    return [_part_access(label, functor, ndim)
            for label, functor in node.parts()]


# --------------------------------------------------------------------------
# fusion legality: independent re-proof of the seal-time decision
# --------------------------------------------------------------------------


def _shares(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return False
    return a is b or bool(np.shares_memory(a, b))


def _hazard_kind(w_i: bool, r_i: bool, w_j: bool, r_j: bool) -> Optional[str]:
    if w_i and r_j:
        return "read-after-write"
    if w_i and w_j:
        return "write-after-write"
    if r_i and w_j:
        return "write-after-read"
    return None


def check_fusion_legality(graph: LaunchGraph) -> List[Finding]:
    """Re-prove every eager-tier fused node of a sealed graph tiling-safe.

    Compiled plans run fused parts whole-range with a stage barrier
    between parts — the eager sequence exactly — so only *eager-tier*
    fused nodes (no plan, or a plan the graph did not lower) carry a
    tiling obligation.  For those, any cross-part pair of accesses to
    shared memory is a hazard unless every involved access sits at loop
    offset 0 on all axes (within one tile the parts then run in capture
    order over identical points, which is the eager interleaving).  The
    proof works from the kernelcheck footprints and the *resolved
    buffers* of the bound functors.
    """
    findings: List[Finding] = []
    for node in graph.nodes:
        if not isinstance(node, KernelNode):
            continue
        parts = node.parts()
        if len(parts) < 2:
            continue
        tier = getattr(node.plan, "tier", "eager")
        if tier != "eager":
            continue  # stage-barrier execution: legal by construction
        accesses = _node_parts(node)
        stencil = any(getattr(p, "stencil_halo", 0) for _, p in parts) or \
            node.halo() > 0
        for pa in accesses:
            if pa.unanalyzable and stencil:
                findings.append(Finding(
                    rule=RULE_GRAPH_RACE, severity=Severity.WARNING,
                    kernel=node.label, view=None,
                    detail=(f"fused part {pa.label!r} is unanalyzable "
                            f"({pa.unanalyzable}): tiling legality of the "
                            f"eager fused sweep is unproven"),
                    file=pa.file, line=pa.line))
        for i in range(len(accesses)):
            for j in range(i + 1, len(accesses)):
                findings.extend(_pair_hazards(node, accesses[i], accesses[j]))
    return findings


def _pair_hazards(node: KernelNode, pi: PartAccess,
                  pj: PartAccess) -> Iterable[Finding]:
    for name_i, vf_i in pi.footprints.items():
        buf_i = _buffer(pi.targets[name_i])
        for name_j, vf_j in pj.footprints.items():
            if not _shares(buf_i, _buffer(pj.targets[name_j])):
                continue
            kind = _hazard_kind(vf_i.writes > 0, vf_i.reads > 0,
                                vf_j.writes > 0, vf_j.reads > 0)
            if kind is None:
                continue  # read/read sharing is always fine
            if vf_i.halo_width == 0 and vf_j.halo_width == 0:
                # offset-0 on every loop axis: per-tile capture order
                # equals the eager order point by point
                continue
            view = _display(pi.targets[name_i], name_i)
            yield Finding(
                rule=RULE_GRAPH_RACE, severity=Severity.ERROR,
                kernel=node.label, view=view,
                detail=(f"fused parts {pi.label!r} and {pj.label!r} share "
                        f"{view!r} with a cross-part {kind} at stencil "
                        f"offsets up to "
                        f"{max(vf_i.halo_width, vf_j.halo_width)}: a tiled "
                        f"sweep of the fused body diverges from the eager "
                        f"launch order"),
                file=pi.file, line=pi.line)


def certify_fusion(graph: LaunchGraph) -> List[Finding]:
    """The ``seal(certify=True)`` hook: error-severity legality findings
    (warnings — unproven but not disproven — do not refuse the seal)."""
    return [f for f in check_fusion_legality(graph)
            if f.severity >= Severity.ERROR]


# --------------------------------------------------------------------------
# precision-promotion: mixed-dtype discipline over the sealed schedule
# --------------------------------------------------------------------------

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _part_float_dtypes(pa: PartAccess) -> Dict[str, np.dtype]:
    """Footprint view name -> float dtype for every resolved array."""
    out: Dict[str, np.dtype] = {}
    for name, obj in pa.targets.items():
        buf = _buffer(obj)
        if buf is not None and buf.dtype in _FLOAT_DTYPES:
            out[name] = buf.dtype
    return out


def check_precision(graph: LaunchGraph) -> List[Finding]:
    """The ``precision-promotion`` rule family over one sealed graph.

    Every launch part must be *dtype-uniform* across the float arrays it
    binds (fields, work views, geometry) unless its functor declares
    ``precision_boundary = True`` — the marker for sanctioned family
    boundaries: explicit ``precision_cast`` launches and value-exact
    widening consumers (EOS, depth-mean scans).  Anything else binding
    fp32 *and* fp64 silently promotes the whole sweep to fp64 arithmetic
    (NumPy result-type rules), defeating the policy — an ERROR.

    Separately, a functor that declares ``accumulates = True`` (column
    scans, depth integrals) whose operands are all fp32 carries an
    accumulation-order hazard — the rounding of a long fp32 sum depends
    on evaluation order and its error grows with the level count — a
    WARNING (the ``mixed`` preset avoids it by running scans in fp64).
    A kernel whose running sum is explicitly fp64 internally declares
    ``wide_accumulate = True`` and is exempt: the hazard attaches to
    the accumulator width, not the operand width.
    """
    findings: List[Finding] = []
    for node in graph.nodes:
        if not isinstance(node, KernelNode):
            continue
        ndim = len(node.policy.extents)
        for label, functor in node.parts():
            pa = _part_access(label, functor, ndim)
            dtypes = _part_float_dtypes(pa)
            if not dtypes:
                continue
            distinct = set(dtypes.values())
            boundary = bool(getattr(type(functor), "precision_boundary",
                                    False))
            if len(distinct) > 1 and not boundary:
                by_dt: Dict[np.dtype, List[str]] = {}
                for name, dt in sorted(dtypes.items()):
                    by_dt.setdefault(dt, []).append(name)
                desc = "; ".join(
                    f"{dt.name}: {', '.join(names)}"
                    for dt, names in sorted(by_dt.items(),
                                            key=lambda kv: kv[0].itemsize))
                findings.append(Finding(
                    rule=RULE_PRECISION, severity=Severity.ERROR,
                    kernel=label, view=None,
                    detail=(f"launch binds mixed float dtypes ({desc}) "
                            f"without declaring precision_boundary: NumPy "
                            f"promotion silently runs the fp32 operands "
                            f"at fp64 — insert an explicit precision_cast "
                            f"at the family boundary"),
                    file=pa.file, line=pa.line))
            if (getattr(type(functor), "accumulates", False)
                    and not getattr(type(functor), "wide_accumulate", False)
                    and distinct == {np.dtype(np.float32)}):
                findings.append(Finding(
                    rule=RULE_PRECISION, severity=Severity.WARNING,
                    kernel=label, view=None,
                    detail=("fp32 accumulation: a column scan / depth "
                            "integral sums at float32, so rounding depends "
                            "on accumulation order and grows with depth; "
                            "assign the scan family fp64 (the 'mixed' "
                            "preset) or sum through an explicit fp64 "
                            "accumulator (wide_accumulate = True)"),
                    file=pa.file, line=pa.line))
    return findings


def certify_precision(graph: LaunchGraph) -> List[Finding]:
    """Seal-time proof that no fp32 sweep silently promotes to fp64:
    error-severity precision findings refuse the seal (accumulation
    warnings do not)."""
    return [f for f in check_precision(graph)
            if f.severity >= Severity.ERROR]


# --------------------------------------------------------------------------
# dataflow walk: abstract versions, halo freshness, fence discipline
# --------------------------------------------------------------------------


class _VState:
    """Abstract per-buffer dataflow state (keyed by View identity)."""

    __slots__ = ("version", "refreshed_version", "ever_refreshed",
                 "stale_inset", "last_write", "last_write_kind", "write_read")

    def __init__(self) -> None:
        self.version = 0              # bumped on every write
        self.refreshed_version = 0    # version at the last halo refresh
        self.ever_refreshed = False
        #: Distance from the array edge within which data may be stale
        #: (0 = halo valid everywhere).
        self.stale_inset = 0
        self.last_write: Optional[str] = None
        self.last_write_kind: Optional[str] = None  # "kernel" | "host"
        self.write_read = True        # last write consumed by some read


class _Walker:
    """One dataflow walk over a sealed graph's node list."""

    def __init__(self, graph: LaunchGraph) -> None:
        self.graph = graph
        self.states: Dict[int, _VState] = {}
        self.names: Dict[int, str] = {}
        #: id -> label of the launch/part with unfenced pending access
        self.pending_writes: Dict[int, str] = {}
        self.pending_reads: Dict[int, str] = {}
        self.findings: List[Finding] = []
        self.emit = False
        self._seen: set = set()
        self._parts_cache: Dict[int, List[PartAccess]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _key(self, obj) -> int:
        return id(obj)

    def _state(self, obj, name: str) -> _VState:
        key = self._key(obj)
        st = self.states.get(key)
        if st is None:
            st = self.states[key] = _VState()
        self.names.setdefault(key, name)
        return st

    def _find(self, rule: str, severity: Severity, kernel: str,
              view: Optional[str], detail: str,
              file: Optional[str] = None, line: Optional[int] = None) -> None:
        if not self.emit:
            return
        f = Finding(rule=rule, severity=severity, kernel=kernel, view=view,
                    detail=detail, file=file, line=line)
        if f.key in self._seen:
            return
        self._seen.add(f.key)
        self.findings.append(f)

    def _fence(self) -> None:
        self.pending_writes.clear()
        self.pending_reads.clear()

    # -- geometry helpers --------------------------------------------------

    @staticmethod
    def _h_axes(ndim: int) -> Tuple[int, int]:
        return (ndim - 2, ndim - 1)

    def _margin(self, policy, shape: Tuple[int, ...], ax: int,
                ndim: int) -> int:
        """Distance from the loop range's edge to the array edge on one
        horizontal loop axis (loop axis ``ax`` maps to view dimension
        ``ax - ndim``, counting from the end).  Arrays with fewer
        dimensions than the loop (1-D column/row geometry) have no
        horizontal ring at all: unbounded margin."""
        idx = ax - ndim
        if -idx > len(shape):
            return 10 ** 9
        begin, end = policy.ranges[ax]
        dim = shape[idx]
        return max(0, min(int(begin), int(dim) - int(end)))

    def _read_reach(self, policy, shape, vf, ndim: int) -> int:
        """How far inside the array edge the read's footprint stays:
        ``min(margin - extent)`` over the horizontal loop axes the view
        is offset-indexed by.  A reach below the stale inset touches
        stale halo cells."""
        reach = None
        for ax in self._h_axes(ndim):
            rng = vf.offsets.get(ax)
            if rng is None:
                continue
            r = self._margin(policy, shape, ax, ndim) - rng.extent
            reach = r if reach is None else min(reach, r)
        return reach if reach is not None else 10 ** 9

    def _write_inset(self, policy, shape, ndim: int) -> int:
        """Distance from the array edge the launch range leaves
        untouched (0 = the write covers the full horizontal extent)."""
        if len(shape) < 2:
            return 0   # no horizontal ring to leave stale
        return min(self._margin(policy, shape, ax, ndim)
                   for ax in self._h_axes(ndim))

    # -- node semantics ----------------------------------------------------

    def walk(self, passes: int = 3) -> List[Finding]:
        for p in range(passes):
            self.emit = p == passes - 1
            for node in self.graph.nodes:
                if isinstance(node, KernelNode):
                    self._kernel(node)
                elif isinstance(node, HostNode):
                    self._host(node)
        return self.findings

    def _parts(self, node: KernelNode) -> List[PartAccess]:
        key = id(node)
        got = self._parts_cache.get(key)
        if got is None:
            got = self._parts_cache[key] = _node_parts(node)
        return got

    def _kernel(self, node: KernelNode) -> None:
        ndim = len(node.policy.extents)
        for pa in self._parts(node):
            if pa.unanalyzable and not pa.targets:
                continue
            input_stale = 0
            # reads first: they see the state before this part's writes
            for name, vf in pa.footprints.items():
                if vf.reads == 0 and vf.aug_writes == 0:
                    continue
                obj = pa.targets[name]
                buf = _buffer(obj)
                st = self._state(obj, _display(obj, name))
                st.write_read = True
                self.pending_reads[self._key(obj)] = pa.label
                ext = vf.horizontal_halo(ndim)
                if ext > 0 and buf is not None:
                    reach = self._read_reach(node.policy, buf.shape, vf, ndim)
                    if reach < st.stale_inset:
                        self._find(
                            RULE_STALE_HALO, Severity.ERROR, pa.label,
                            self.names[self._key(obj)],
                            (f"stencil read (offsets up to {ext}) reaches "
                             f"within {max(reach, 0)} of the boundary, but "
                             f"the halo is stale within {st.stale_inset} "
                             f"(written by {st.last_write!r} after the "
                             f"last refresh)"),
                            file=pa.file, line=pa.line)
                input_stale = max(input_stale, st.stale_inset)
            for name, vf in pa.footprints.items():
                if vf.writes == 0:
                    continue
                obj = pa.targets[name]
                buf = _buffer(obj)
                st = self._state(obj, _display(obj, name))
                reads_self = vf.reads > 0 or vf.aug_writes > 0
                if (st.last_write_kind == "kernel" and not st.write_read
                        and not reads_self):
                    self._find(
                        RULE_DEAD_STORE, Severity.INFO, st.last_write or "?",
                        self.names[self._key(obj)],
                        (f"write is never read before {pa.label!r} "
                         f"overwrites the view"),
                        file=pa.file, line=pa.line)
                inset = 0
                if buf is not None:
                    inset = self._write_inset(node.policy, buf.shape, ndim)
                st.version += 1
                if inset > 0:
                    # interior-only write: the untouched boundary ring
                    # now holds out-of-date data
                    st.stale_inset = max(inset, st.stale_inset, input_stale)
                else:
                    # full-range point-local write: freshness is that of
                    # the inputs it was computed from
                    st.stale_inset = input_stale
                st.last_write = pa.label
                st.last_write_kind = "kernel"
                st.write_read = False
                self.pending_writes[self._key(obj)] = pa.label

    def _host(self, node: HostNode) -> None:
        e = node.effects
        if e is None:
            # opaque host glue: assume the worst that keeps the walk
            # sound — it may have read and fenced everything
            self._fence()
            for st in self.states.values():
                st.write_read = True
            return
        if e.fences:
            self._fence()
        input_stale = 0
        for obj in e.reads:
            st = self._state(obj, _display(obj, "host-read"))
            key = self._key(obj)
            if key in self.pending_writes:
                self._find(
                    RULE_GRAPH_FENCE, Severity.ERROR, node.label,
                    self.names[key],
                    (f"host node reads the result of pending launch "
                     f"{self.pending_writes[key]!r} without a fence: "
                     f"undefined on an asynchronous plan"))
            st.write_read = True
            input_stale = max(input_stale, st.stale_inset)
        for obj in e.halo_refresh:
            st = self._state(obj, _display(obj, "halo-field"))
            key = self._key(obj)
            if key in self.pending_writes:
                self._find(
                    RULE_GRAPH_FENCE, Severity.ERROR, node.label,
                    self.names[key],
                    (f"halo exchange packs the result of pending launch "
                     f"{self.pending_writes[key]!r} without a fence: "
                     f"undefined on an asynchronous plan"))
            if st.ever_refreshed and st.refreshed_version == st.version:
                self._find(
                    RULE_REDUNDANT_EXCHANGE, Severity.INFO, node.label,
                    self.names[key],
                    ("halo exchange of a view nothing has written since "
                     "its previous refresh: the messages carry no new "
                     "data"))
            st.write_read = True       # the exchange consumes the interior
            st.ever_refreshed = True
            st.refreshed_version = st.version
            st.stale_inset = 0
        for obj in e.writes:
            st = self._state(obj, _display(obj, "host-write"))
            key = self._key(obj)
            pending = self.pending_writes.get(key) or \
                self.pending_reads.get(key)
            if pending is not None:
                self._find(
                    RULE_GRAPH_FENCE, Severity.ERROR, node.label,
                    self.names[key],
                    (f"host node overwrites a buffer the pending launch "
                     f"{pending!r} still uses without a fence: undefined "
                     f"on an asynchronous plan"))
            if st.last_write_kind == "kernel" and not st.write_read:
                self._find(
                    RULE_DEAD_STORE, Severity.INFO, st.last_write or "?",
                    self.names[key],
                    f"write is never read before host node {node.label!r} "
                    f"overwrites the view")
            st.version += 1
            st.stale_inset = input_stale   # host writes are full-range
            st.last_write = node.label
            st.last_write_kind = "host"
            st.write_read = False
        for triple in e.rotates:
            states = [self._state(obj, _display(obj, "rotated"))
                      for obj in triple]
            old, cur, new = (self._key(o) for o in triple)
            s_old, s_cur, s_new = (self.states[k] for k in (old, cur, new))
            # View.rebind permutation: old<-cur, cur<-new, new<-old
            self.states[old], self.states[cur], self.states[new] = \
                s_cur, s_new, s_old
            for st in states:
                st.write_read = True   # recycled buffers are not dead


def check_graph(graph: LaunchGraph, passes: int = 3) -> List[Finding]:
    """All graphcheck findings for one sealed graph: the fusion-legality
    re-proof plus the multi-pass dataflow walk (stale halos, fence
    discipline, redundant exchanges, dead stores)."""
    if not graph.sealed:
        raise ValueError("check_graph needs a sealed LaunchGraph")
    findings = check_fusion_legality(graph)
    findings.extend(check_precision(graph))
    findings.extend(_Walker(graph).walk(passes=passes))
    return findings


# --------------------------------------------------------------------------
# lint driver: verify the demo model's step graphs on every backend
# --------------------------------------------------------------------------


@dataclass
class GraphLintConfig:
    """Configuration for :func:`run_graphcheck`.

    The driver builds the demo model with graph capture on for every
    ``backend``, steps it until both step variants (startup forward
    step, leapfrog) have sealed, and walks each sealed graph.  Identical
    findings from different backends are reported once, tagged with the
    first configuration that hit them.
    """

    backends: Sequence[str] = ("serial", "openmp", "athread", "cuda")
    #: Precision presets to verify; "mixed" exercises the
    #: precision-promotion rules on a schedule with real cast
    #: boundaries (first backend only, to bound the matrix).
    precisions: Sequence[str] = ("double", "mixed")
    size: str = "tiny"
    steps: int = 2
    passes: int = 3


def run_graphcheck(config: Optional[GraphLintConfig] = None) -> Report:
    """Build, seal and verify the demo model's launch graphs.

    Returns a :class:`Report` with ``tool="graphcheck"``; the CLI's
    ``lint --graph`` mode renders it exactly like a kernelcheck report.
    """
    from ..ocean.config import demo
    from ..ocean.model import LICOMKpp, ModelParams

    cfg = config if config is not None else GraphLintConfig()
    report = Report(rules_run=list(GRAPH_RULES), tool="graphcheck")
    seen: Dict[str, Finding] = {}
    kernels = 0
    combos = [(b, cfg.precisions[0] if cfg.precisions else "double")
              for b in cfg.backends]
    # non-default presets verified once each on the first backend's
    # schedule (the graphs are backend-independent node lists)
    combos += [(cfg.backends[0], p) for p in cfg.precisions[1:]]
    for backend, precision in combos:
        tag = f"backend={backend}, precision={precision}"
        model = LICOMKpp(
            demo(cfg.size), backend=backend,
            params=ModelParams(graph=True, check_every=0,
                               precision=precision))
        try:
            model.run_steps(cfg.steps)
            for graph in model._graphs.values():
                if not graph.sealed:
                    continue
                kernels += graph.launches_per_replay
                for f in check_graph(graph, passes=cfg.passes):
                    if f.key not in seen:
                        f.detail += f" [{tag}]"
                        seen[f.key] = f
                        report.findings.append(f)
        finally:
            model.close()
    report.kernels_checked = kernels
    return report
