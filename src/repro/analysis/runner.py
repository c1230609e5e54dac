"""Kernel collection, the fence-discipline module scan, and orchestration.

:func:`run_kernelcheck` is the analyzer entry point used by both the
``python -m repro lint`` CLI subcommand and the pytest-collectable check
in ``tests/analysis``:

1. import the ocean kernel modules so their ``@kokkos_register_for``
   decorators populate ``GLOBAL_REGISTRY``;
2. build a :class:`~repro.analysis.footprint.KernelFootprint` per
   registered functor (filtered to first-party ``repro.*`` modules so
   ad-hoc test functors never pollute a lint run);
3. run the per-kernel rule families over each footprint;
4. scan the driver module (``repro.ocean.model``) for host ``.raw``
   accesses to views written by an in-flight launch without an
   intervening ``fence()`` — the cross-kernel half of the memory-space
   rule that per-kernel analysis cannot see;
5. scan every first-party library module for direct reads of the
   process-wide singletons (``GLOBAL_INSTRUMENTATION`` and friends) —
   the ``global-state`` rule backing the ExecutionContext refactor
   (only the singletons' home modules and the context shim may name
   them).

The fence scan is intra-procedural and assumes self-method calls
synchronize (the model's halo helpers ``fence()`` at entry, which this
PR enforces); ``parallel_reduce`` returns a host value and therefore
synchronizes by contract.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Baseline, Finding, Report, Severity
from .footprint import KernelFootprint, build_footprint
from .rules import ALL_RULES, RULE_GLOBAL, RULE_SPACE, RuleConfig, run_rules

#: Modules whose import registers the first-party kernels.
OCEAN_KERNEL_MODULES = (
    "repro.ocean.kernels_scalar",
    "repro.ocean.kernels_momentum",
    "repro.ocean.kernels_barotropic",
    "repro.ocean.kernels_tracer",
    "repro.ocean.kernels_vdiff",
    "repro.ocean.vmix_canuto",
    "repro.ocean.model",
)

#: Driver modules scanned for fence discipline.
DRIVER_MODULES = ("repro.ocean.model",)

#: Process-wide singletons library code must not name directly; reach
#: them through an ExecutionContext or the default_context()/
#: default_registry() shims instead.
GLOBAL_SINGLETONS = (
    "GLOBAL_INSTRUMENTATION",
    "GLOBAL_REGISTRY",
    "GLOBAL_TIMERS",
)

#: Modules allowed to name the singletons: where each is defined, the
#: context shim that wraps them, and the package facade re-exporting
#: the public API.
GLOBAL_ALLOWLIST = frozenset({
    "repro.kokkos.instrument",   # defines GLOBAL_INSTRUMENTATION
    "repro.kokkos.registry",     # defines GLOBAL_REGISTRY
    "repro.timing",              # defines GLOBAL_TIMERS
    "repro.kokkos.context",      # the deprecated compatibility shim
    "repro.kokkos",              # package __init__ re-exports
})


@dataclass
class LintConfig:
    """Everything a kernelcheck run can be configured with."""

    rule_config: RuleConfig = field(default_factory=RuleConfig)
    module_prefix: str = "repro."
    baseline: Optional[Baseline] = None
    extra_modules: Sequence[str] = ()
    scan_drivers: bool = True
    scan_globals: bool = True

    def __post_init__(self) -> None:
        try:
            from repro.parallel.decomp import DEFAULT_HALO
            self.rule_config.domain_halo = DEFAULT_HALO
        except Exception:  # pragma: no cover - decomp always importable
            pass


# --------------------------------------------------------------------------
# kernel collection
# --------------------------------------------------------------------------


def collect_footprints(cfg: LintConfig,
                       registry=None) -> List[KernelFootprint]:
    """Import kernel modules and footprint every registered functor.

    ``registry`` defaults to the process registry; tests pass a private
    one.
    """
    from repro.kokkos.registry import default_registry

    for mod in list(OCEAN_KERNEL_MODULES) + list(cfg.extra_modules):
        importlib.import_module(mod)

    footprints: List[KernelFootprint] = []
    seen: Set[type] = set()
    reg = registry if registry is not None else default_registry()
    for entry in reg.entries():
        ft = entry.functor_type
        if ft in seen:
            continue
        seen.add(ft)
        if not ft.__module__.startswith(cfg.module_prefix):
            continue
        if getattr(ft, "__kernelcheck_skip__", False):
            # composite bodies (e.g. the graph's FusedTileFunctor) delegate
            # to parts that are registered — and analyzed — individually
            continue
        footprints.append(
            build_footprint(entry.name, ft, entry.ndim, entry.kind))
    footprints.sort(key=lambda fp: fp.kernel)
    return footprints


# --------------------------------------------------------------------------
# fence-discipline scan of driver modules
# --------------------------------------------------------------------------


def _written_ctor_params(
        fp: KernelFootprint) -> Tuple[List[str], List[str], List[str]]:
    """(written, read-only, full order) __init__ params for one functor."""
    if fp.analysis is None or fp.analysis.info is None:
        return [], [], []
    info = fp.analysis.info
    written, read_only = [], []
    for name, vf in fp.views.items():
        if vf.kind != "view":
            continue
        param = info.attr_params.get(name)
        if not param:
            continue
        if vf.writes:
            written.append(param)
        elif vf.reads:
            read_only.append(param)
    return written, read_only, info.param_order


class FenceScanner(ast.NodeVisitor):
    """Intra-procedural scan of one function for launch→raw-read hazards.

    Tracks the set of *dirty expressions* — the textual form of ctor
    arguments bound to views a launched kernel writes — and reports any
    ``<expr>.raw`` access while that expression is dirty.  ``fence()``
    and ``parallel_reduce`` clear the set; so do calls to other methods
    of ``self`` (assumed to synchronize at entry, see module docstring).
    Loop bodies are walked twice so a read at the top of an iteration
    sees launches from the previous one.
    """

    def __init__(self, func: ast.FunctionDef, func_name: str,
                 write_map: Dict[str, Tuple[List[str], List[str], List[str]]],
                 filename: str) -> None:
        self.func = func
        self.func_name = func_name
        self.write_map = write_map
        self.filename = filename
        self.dirty: Dict[str, str] = {}      # expr text -> kernel label
        self.reading: Dict[str, str] = {}    # launch-read views in flight
        self.launch_aliases: Set[str] = {"parallel_for"}
        self.ctor_bindings: Dict[str, ast.Call] = {}
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[int, str]] = set()

    # -- entry -------------------------------------------------------------

    def scan(self) -> List[Finding]:
        self.exec_block(self.func.body)
        return self.findings

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.handle_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self.check_expr(stmt.value)
            self.check_raw_target(stmt.target)
        elif isinstance(stmt, ast.Expr):
            self.handle_call_stmt(stmt.value)
        elif isinstance(stmt, (ast.For, ast.While)):
            body = stmt.body
            self.exec_block(body)
            self.exec_block(body)      # second pass: see prior iteration
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.test)
            before = (dict(self.dirty), dict(self.reading))
            self.exec_block(stmt.body)
            after_then = (self.dirty, self.reading)
            self.dirty, self.reading = dict(before[0]), dict(before[1])
            self.exec_block(stmt.orelse)
            self.dirty.update(after_then[0])    # conservative join
            self.reading.update(after_then[1])
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.check_expr(item.context_expr)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.check_expr(stmt.value)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for h in stmt.handlers:
                self.exec_block(h.body)
            self.exec_block(stmt.finalbody)
        # nested defs / pass / raise etc.: nothing to track

    # -- statement kinds ---------------------------------------------------

    def handle_assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        # run = self.space.parallel_for / run = self._run  (launch aliases;
        # _run is the model's capture-aware dispatch with the same
        # (label, policy, functor) signature)
        if isinstance(value, ast.Attribute) and value.attr in (
                "parallel_for", "_run"):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    self.launch_aliases.add(tgt.id)
            return
        # cont = SomeFunctor(...)  (deferred launch binding)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in self.write_map:
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    self.ctor_bindings[tgt.id] = value
            for a in value.args:
                self.check_expr(a)
            return
        if isinstance(value, ast.Call):
            # x = self.space.parallel_reduce(...) and friends synchronize
            # exactly like their statement forms
            self.handle_call_stmt(value)
        else:
            self.check_expr(value)
        for tgt in stmt.targets:
            self.check_raw_target(tgt)

    def handle_call_stmt(self, expr: ast.expr) -> None:
        if not isinstance(expr, ast.Call):
            self.check_expr(expr)
            return
        func = expr.func
        # fence / parallel_reduce: synchronization points
        if isinstance(func, ast.Attribute) and func.attr in (
                "fence", "parallel_reduce"):
            self.dirty.clear()
            self.reading.clear()
            for a in expr.args:
                self.check_expr(a)
            return
        # direct or aliased launch (self._run is a launch, not a sync:
        # it forwards straight to parallel_for, recording when capturing)
        is_launch = (
            (isinstance(func, ast.Attribute)
             and func.attr in ("parallel_for", "_run"))
            or (isinstance(func, ast.Name) and func.id in self.launch_aliases)
        )
        if is_launch:
            for a in expr.args:
                self.check_expr(a)
            self.mark_launch(expr)
            return
        # self.<method>(...): assumed to synchronize at entry
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id == "self":
            for a in expr.args:
                self.check_expr(a)
            self.dirty.clear()
            self.reading.clear()
            return
        self.check_expr(expr)

    def mark_launch(self, call: ast.Call) -> None:
        """Record the views the launched functor writes as dirty."""
        if len(call.args) < 3:
            return
        label_node, functor_node = call.args[0], call.args[2]
        label = (label_node.value
                 if isinstance(label_node, ast.Constant) else "<kernel>")
        ctor: Optional[ast.Call] = None
        if isinstance(functor_node, ast.Call):
            ctor = functor_node
        elif isinstance(functor_node, ast.Name):
            ctor = self.ctor_bindings.get(functor_node.id)
        if ctor is None or not isinstance(ctor.func, ast.Name):
            return
        written, read_only, order = self.write_map.get(
            ctor.func.id, ([], [], []))
        if not written and not read_only:
            return
        bound: Dict[str, ast.expr] = {}
        for pos, arg in enumerate(ctor.args):
            if pos < len(order):
                bound[order[pos]] = arg
        for kw in ctor.keywords:
            if kw.arg:
                bound[kw.arg] = kw.value
        for param in written:
            node = bound.get(param)
            if node is not None:
                self.dirty[ast.unparse(node)] = str(label)
        for param in read_only:
            node = bound.get(param)
            if node is not None:
                self.reading.setdefault(ast.unparse(node), str(label))

    # -- raw-access detection ----------------------------------------------

    def check_raw_target(self, target: ast.expr) -> None:
        """A store like ``<expr>.raw[...] = ...`` while <expr> is dirty
        (write-after-write) or read by an in-flight launch
        (write-after-read) races with that launch."""
        if isinstance(target, ast.Subscript):
            base_node = target.value
            if isinstance(base_node, ast.Attribute) and \
                    base_node.attr == "raw":
                base = ast.unparse(base_node.value)
                if base in self.reading and base not in self.dirty:
                    key = (base_node.lineno, base)
                    if key not in self._reported:
                        self._reported.add(key)
                        self.findings.append(Finding(
                            RULE_SPACE, Severity.ERROR,
                            self.func_name, base,
                            f"host write to {base}.raw while launch "
                            f"{self.reading[base]!r} that reads it may "
                            "still be in flight; insert space.fence() "
                            "before reusing the buffer",
                            file=self.filename, line=base_node.lineno,
                        ))
            self.check_expr(target.value)
            self.check_expr(target.slice)
        elif isinstance(target, ast.Tuple):
            for t in target.elts:
                self.check_raw_target(t)

    def check_expr(self, node: ast.expr) -> None:
        if not self.dirty:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "raw":
                base = ast.unparse(sub.value)
                if base in self.dirty:
                    key = (sub.lineno, base)
                    if key in self._reported:
                        continue
                    self._reported.add(key)
                    self.findings.append(Finding(
                        RULE_SPACE, Severity.ERROR,
                        self.func_name, base,
                        f"host access to {base}.raw while launch "
                        f"{self.dirty[base]!r} that writes it may still "
                        "be in flight; insert space.fence() first "
                        "(parallel_for is async by contract)",
                        file=self.filename, line=sub.lineno,
                    ))


def scan_fence_discipline(
        footprints: Sequence[KernelFootprint],
        modules: Sequence[str] = DRIVER_MODULES) -> List[Finding]:
    """Scan driver modules for launch→host-raw-read hazards."""
    write_map: Dict[str, Tuple[List[str], List[str]]] = {}
    for fp in footprints:
        write_map[fp.functor_type.__name__] = _written_ctor_params(fp)

    findings: List[Finding] = []
    for modname in modules:
        mod = importlib.import_module(modname)
        try:
            source = inspect.getsource(mod)
            filename = inspect.getsourcefile(mod) or modname
        except (OSError, TypeError):  # pragma: no cover - source exists
            continue
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    scanner = FenceScanner(
                        item, f"{node.name}.{item.name}",
                        write_map, filename)
                    findings.extend(scanner.scan())
    return findings


# --------------------------------------------------------------------------
# global-state scan of library modules
# --------------------------------------------------------------------------


def _iter_library_sources() -> List[Tuple[str, Path]]:
    """(module name, source path) for every module in the repro package."""
    import repro

    root = Path(repro.__file__).resolve().parent
    out: List[Tuple[str, Path]] = []
    for py in sorted(root.rglob("*.py")):
        parts = ("repro",) + py.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out.append((".".join(parts), py))
    return out


def _singleton_refs(tree: ast.AST) -> List[Tuple[str, int]]:
    """(singleton name, line) for every direct reference in ``tree``."""
    refs: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in GLOBAL_SINGLETONS:
                    refs.append((alias.name, node.lineno))
        elif isinstance(node, ast.Name) and node.id in GLOBAL_SINGLETONS:
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in GLOBAL_SINGLETONS:
            refs.append((node.attr, node.lineno))
    return refs


def scan_global_state(
        sources: Optional[Sequence[Tuple[str, Path]]] = None,
        allowlist: frozenset = GLOBAL_ALLOWLIST) -> List[Finding]:
    """Flag library-code reads of the process-wide singletons.

    Walks every first-party module's AST for names, attribute accesses
    or ``from ... import`` of :data:`GLOBAL_SINGLETONS`.  Only the
    singletons' home modules and the context shim (the allowlist) may
    name them — everything else must take an ``ExecutionContext`` or go
    through ``default_context()`` / ``default_registry()``, so per-rank
    ledgers stay separable.  ``sources`` overrides the scanned file set
    (tests inject fixtures).
    """
    findings: List[Finding] = []
    for modname, path in (sources if sources is not None
                          else _iter_library_sources()):
        if modname in allowlist:
            continue
        try:
            tree = ast.parse(path.read_text())
        except (OSError, SyntaxError):  # pragma: no cover - sources parse
            continue
        for name, line in _singleton_refs(tree):
            findings.append(Finding(
                RULE_GLOBAL, Severity.ERROR,
                modname, name,
                f"library module {modname} reads the process-wide "
                f"singleton {name} directly; take an ExecutionContext "
                "(or the default_context()/default_registry() shim) so "
                "per-rank ledgers stay separable",
                file=str(path), line=line,
            ))
    return findings


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def run_kernelcheck(cfg: Optional[LintConfig] = None) -> Report:
    """Run every rule family over every registered first-party kernel."""
    cfg = cfg or LintConfig()
    footprints = collect_footprints(cfg)
    findings: List[Finding] = []
    for fp in footprints:
        findings.extend(run_rules(fp, cfg.rule_config))
    if cfg.scan_drivers:
        findings.extend(scan_fence_discipline(footprints))
    if cfg.scan_globals:
        findings.extend(scan_global_state())
    if cfg.baseline is not None:
        cfg.baseline.apply(findings)
    rules = [r for r in ALL_RULES if cfg.scan_globals or r != RULE_GLOBAL]
    return Report(findings=findings, kernels_checked=len(footprints),
                  rules_run=rules)
