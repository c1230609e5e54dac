"""``repro.kokkos.jit`` — the compiled execution tier behind sealed graphs.

A sealed :class:`~repro.kokkos.graph.LaunchGraph` already removed the
per-launch dispatch work (policy normalisation, registry walks, tiling).
What remains on the hot path is Python itself.  This module lowers each
sealed plan into a *compiled sweep*: it generates (``compile``/``exec``)
a function whose body is the unrolled sequence of the plan's part
sweeps over precomputed whole-range slices (or, on the chunked OpenMP
backend, a stage-barriered chunk submission per part).  No per-tile Python
remains: one replayed launch is one call into N pre-bound vectorised
part bodies.

Because every part runs over the whole range with a barrier before the
next part starts, a fused node replays exactly the eager launch
sequence — which is what lets the graph fuse dependent stencil chains.

Lowered sweeps are cached per execution space — and the space is owned
by one :class:`~repro.kokkos.context.ExecutionContext`, so ranks never
share compilation state — keyed by (functor signature, dtypes, iteration
extents, backend).  A cache *hit* re-binds the cached factory to the new
functor instances in microseconds, which is what makes re-capture after
binding invalidation cheap.

Failures are loud: lowering errors propagate, and
:meth:`~repro.kokkos.graph.LaunchGraph.seal` re-raises them naming the
kernel.

This module must not hold module-level references to the library's
``GLOBAL_*`` singletons (kernelcheck's global-state rule); everything
is reached through the space / functor instances handed in.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

#: Tier names recorded on :class:`~repro.kokkos.backends.base.LaunchPlan`.
TIER_EAGER = "eager"
TIER_CODEGEN = "codegen"


class JitCache:
    """Per-execution-space cache of lowered kernels.

    Values are :class:`_LoweredCodegen` *factories*, not bound sweeps:
    re-sealing after a re-capture binds fresh functor instances against
    the cached factory (a hit), it never recompiles.
    ``ExecutionContext.close`` clears the cache with the rest of the
    per-rank state.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: Dict[tuple, "_LoweredCodegen"] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JitCache(entries={len(self.entries)}, hits={self.hits}, "
                f"misses={self.misses})")


def sweep_key(space, policy, functor) -> tuple:
    """Cache key: (functor signature, dtypes, extents, backend)."""
    from .backends.base import functor_views

    parts = getattr(functor, "parts", None) or [functor]
    sig = tuple(type(p).__qualname__ for p in parts)
    dtypes = set()
    for p in parts:
        for v in functor_views(p):
            dtypes.add(v.raw.dtype.str)
    return (sig, tuple(sorted(dtypes)), tuple(policy.extents), space.name)


def _part_stage(part) -> Callable[[Tuple[slice, ...]], None]:
    """The vectorised body of one part (``apply`` or the reference loop)."""
    apply = getattr(part, "apply", None)
    if apply is not None:
        return apply
    from functools import partial

    from .functor import _loop_elementwise

    return partial(_loop_elementwise, part)


def _gen_whole_source(nparts: int) -> str:
    """Driver source: unrolled part sweeps over one constant slice tuple."""
    lines = ["def _make(applies, slices):"]
    for i in range(nparts):
        lines.append(f"    _a{i} = applies[{i}]")
    lines.append("    def _sweep():")
    for i in range(nparts):
        lines.append(f"        _a{i}(slices)")
    lines.append("    return _sweep")
    return "\n".join(lines) + "\n"


def _gen_chunked_source(nparts: int) -> str:
    """Driver source for chunked backends: one stage barrier per part."""
    lines = ["def _make(applies, run_stage):"]
    for i in range(nparts):
        lines.append(f"    _a{i} = applies[{i}]")
    lines.append("    def _sweep():")
    for i in range(nparts):
        lines.append(f"        run_stage(_a{i})")
    lines.append("    return _sweep")
    return "\n".join(lines) + "\n"


class _LoweredCodegen:
    """Cached generated sweep; ``bind`` attaches instances + ranges."""

    __slots__ = ("make", "chunked")

    def __init__(self, nparts: int, chunked: bool, label: str) -> None:
        self.chunked = chunked
        source = (_gen_chunked_source(nparts) if chunked
                  else _gen_whole_source(nparts))
        ns: dict = {}
        exec(compile(source, f"<repro-jit:{label}>", "exec"), ns)
        self.make = ns["_make"]

    def bind(self, space, policy, functor) -> Callable[[], None]:
        parts = getattr(functor, "parts", None) or [functor]
        applies = tuple(_part_stage(p) for p in parts)
        if not self.chunked:
            slices = tuple(slice(b, e) for b, e in policy.ranges)
            return self.make(applies, slices)
        chunks = space._chunks(policy)
        if len(chunks) == 1:
            one = chunks[0]

            def run_stage(stage, _slices=one):
                stage(_slices)
        else:
            pool = space._executor()
            submit = pool.submit

            def run_stage(stage):
                futures = [submit(stage, ch) for ch in chunks]
                for f in futures:
                    f.result()
        return self.make(applies, run_stage)


def compile_sweep(space, label: str, policy, functor) -> Callable[[], None]:
    """Lower (or re-bind from ``space.jit_cache``) one plan's sweep."""
    cache = space.jit_cache
    key = sweep_key(space, policy, functor)
    entry = cache.entries.get(key)
    if entry is None:
        nparts = len(getattr(functor, "parts", None) or [functor])
        chunked = space.name == "openmp" and space.concurrency > 1
        entry = cache.entries[key] = _LoweredCodegen(nparts, chunked, label)
        cache.misses += 1
    else:
        cache.hits += 1
    return entry.bind(space, policy, functor)
