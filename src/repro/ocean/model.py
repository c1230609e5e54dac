"""LICOMK++ — the top-level ocean model.

Assembles grid, topography, forcing, state and the kernel suite into the
paper's split-explicit leapfrog time step (§V-A):

* leapfrog with Robert–Asselin filtering for the baroclinic mode,
* forward–backward subcycling for the barotropic mode (Table III step
  ratios),
* two-step shape-preserving tracer advection,
* Canuto vertical mixing feeding implicit column solves,
* 2-D/3-D halo updates (tripolar fold included) between every stencil
  stage — the communication pattern whose cost the paper optimizes.

Every kernel is dispatched through the portability layer, so the same
model runs unchanged on the serial, OpenMP, Athread and CUDA/HIP
backends; on device backends the halo stages ledger their host<->device
copies (the paper's heterogeneous systems lack GPU-aware MPI, §V-D).

A model instance owns one rank's block.  Single-process use (the
default) is just the 1x1 decomposition; distributed runs construct one
model per rank inside :meth:`repro.parallel.comm.SimWorld.run` and must
agree bitwise with the single-rank run (enforced by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, StabilityError
from ..kokkos import (
    ExecutionContext,
    ExecutionSpace,
    HostEffects,
    LaunchGraph,
    MDRangePolicy,
    View,
    kokkos_register_for,
    make_backend,
)
from ..parallel.comm import SimComm, SingleComm
from ..parallel.decomp import BlockDecomposition
from ..parallel.halo import HaloUpdater
from .config import ModelConfig
from .forcing import ForcingParams, make_forcing
from .grid import Grid, make_grid
from .kernels_barotropic import (
    AsselinFilterFunctor,
    BarotropicContinuityFunctor,
    BarotropicMomentumFunctor,
)
from .kernels_momentum import (
    AddBarotropicFunctor,
    BaroclinicTendencyFunctor,
    CoriolisRotationFunctor,
    DepthMeanFunctor,
)
from .kernels_scalar import EOSFunctor, PressureFunctor, WFunctor
from .kernels_tracer import (
    AdvectPredictorFunctor,
    FCTApplyFunctor,
    FCTLimitFunctor,
    TracerHDiffusionFunctor,
)
from .kernels_vdiff import VerticalFrictionFunctor, VerticalTracerDiffusionFunctor
from .localdomain import LocalDomain, local_with_halo, make_local_domain
from .precision import (
    CastFunctor,
    CastFunctor2D,
    PrecisionLike,
    PrecisionPolicy,
    resolve_precision,
)
from .state import ModelState
from .topography import Topography, make_topography
from .vmix_canuto import CanutoMixFunctor, KAPPA_H_BACKGROUND, KAPPA_M_BACKGROUND


@dataclass
class ModelParams:
    """Tunable physics/numerics parameters (resolution-aware defaults)."""

    visc_factor: float = 0.02       # A_h = visc_factor * dx_min^2 / dt
    biharmonic_factor: float = 0.0  # A_4 = biharmonic_factor * dx_min^4 / dt
                                    # (the eddy-resolving mixing form)
    tdiff_factor: float = 0.005     # A_T = tdiff_factor * dx_min^2 / dt
    asselin: float = 0.1            # Robert-Asselin coefficient
    bottom_drag: float = 1.0e-6     # linear bottom drag [1/s]
    advect_momentum: bool = True
    canuto_every: int = 1           # steps between canuto updates
    check_every: int = 16           # steps between NaN checks (0 = never)
    thermocline_depth: float = 800.0  # initial stratification e-folding [m]
    t_deep: float = 2.0             # abyssal temperature [C]
    precision: PrecisionLike = "double"  # "double" | "single" | "mixed",
                                    # a {family: dtype} mapping, or a
                                    # PrecisionPolicy: per-kernel-family
                                    # dtypes (SViii mixed precision)
    n_passive: int = 0              # extra passive (dye/age) tracers
    halo_packer: str = "sliced"     # "sliced" | "kernel" | "naive" (SV-D pack)
    halo_method3d: str = "transposed"  # "transposed" | "per_level" (Fig. 5)
    graph: bool = False             # capture the step's launch sequence once,
                                    # fuse adjacent same-range launches, and
                                    # replay it through compiled per-backend
                                    # plans (bitwise identical to eager)
    jit: Optional[bool] = None      # selects nothing: graph replay is always
                                    # compiled.  Kept only because the
                                    # ocnbench medium_openmp_replay workload
                                    # builds ModelParams(jit=True); None/True
                                    # accepted, False raises
                                    # ConfigurationError
    arena: bool = True              # workspace arena for kernel scratch
                                    # arrays (zero steady-state allocations);
                                    # False reverts to per-call allocation
    trace: bool = False             # span tracing: record kernel launches,
                                    # halo phases, transfers and step/timer
                                    # regions on the context's Tracer for
                                    # Chrome-trace export (repro.trace);
                                    # False keeps the dispatch path free of
                                    # any tracing work
    forcing: ForcingParams = field(default_factory=ForcingParams)

    def __post_init__(self) -> None:
        if self.jit is False:
            raise ConfigurationError(
                "ModelParams(jit=False) is not supported: sealed graphs "
                "always replay on the compiled tier; use graph=False for "
                "eager stepping")


class LICOMKpp:
    """A performance-portable LICOM-like global ocean model (one rank).

    Parameters
    ----------
    config:
        Grid sizes and time steps (:mod:`repro.ocean.config`).
    backend:
        Execution-space name (``serial``/``openmp``/``athread``/``cuda``/
        ``hip``), an already-built :class:`ExecutionSpace`, or an
        :class:`ExecutionContext` (equivalent to passing ``context=``).
    context:
        The :class:`ExecutionContext` owning this rank's backend,
        instrumentation, workspace arena, graph cache and timers.  When
        omitted: a single-rank model adopts a backend recording into the
        process-wide ledger (exact pre-context behaviour), while a
        multi-rank model (``comm.size > 1``) gets a private context per
        rank so SimWorld runs report true per-rank statistics.
    comm / decomp:
        Simulated-MPI endpoint and decomposition; default single rank.
    flat_bottom:
        Use the idealized flat-bottom aquaplanet topography.
    """

    def __init__(
        self,
        config: ModelConfig,
        backend="serial",
        comm: Optional[SimComm] = None,
        decomp: Optional[BlockDecomposition] = None,
        params: Optional[ModelParams] = None,
        grid: Optional[Grid] = None,
        topo: Optional[Topography] = None,
        flat_bottom: bool = False,
        seed: int = 2024,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.config = config
        self.params = params or ModelParams()
        self.comm = comm if comm is not None else SingleComm()
        if context is None and isinstance(backend, ExecutionContext):
            context = backend
        if context is None:
            if isinstance(backend, ExecutionSpace):
                context = ExecutionContext.adopt(backend, rank=self.comm.rank)
            elif self.comm.size > 1:
                # one private context per rank: disjoint ledgers, arenas
                # and graph caches — true per-rank statistics (§VI-C)
                context = ExecutionContext(backend, rank=self.comm.rank)
            else:
                # single rank, named backend: adopt a default-built
                # space so counters land in the process-wide ledger
                # exactly as before contexts existed
                context = ExecutionContext.adopt(
                    make_backend(backend), rank=self.comm.rank,
                    owns_space=True)
        self.context = context
        if self.params.trace:
            context.enable_tracing()
        self.space: ExecutionSpace = context.space
        context.attach_comm(self.comm)
        self.decomp = decomp if decomp is not None else BlockDecomposition(
            config.ny, config.nx, 1, 1
        )
        self.rank = self.comm.rank
        self.timers = context.timers

        # full-depth grids bottom out exactly at the paper's 10,905 m
        # maximum topography, so the trench column activates every level
        from .topography import MARIANA_DEPTH
        depth = MARIANA_DEPTH if config.full_depth else 5000.0
        stretch = 6.0 if config.full_depth else 2.0
        self.grid = grid if grid is not None else make_grid(
            config.ny, config.nx, config.nz, depth=depth, stretch=stretch
        )
        self.topo = topo if topo is not None else make_topography(
            self.grid, with_trench=config.full_depth, flat=flat_bottom, seed=seed
        )
        self.domain: LocalDomain = make_local_domain(
            self.grid, self.topo, self.decomp, self.rank
        )
        d = self.domain
        # scratch arena the kernel apply bodies draw temporaries from;
        # disabled => fresh allocation per request, identical numerics.
        # Owned by the context: released (all threads' pools) on close.
        d.workspace = self.context.make_workspace(enabled=self.params.arena)
        #: Per-kernel-family precision policy (presets "double"/"single"/
        #: "mixed" or per-family overrides; see repro.ocean.precision).
        self.policy: PrecisionPolicy = resolve_precision(self.params.precision)
        famdt = self.policy.family_dtype
        #: Representative dtype (tracer family) — the historical
        #: uniform-precision attribute.
        self.dtype = famdt("tracer")
        self.state = ModelState(d.nz, d.ly, d.lx, space=self.space.memory_space,
                                n_passive=self.params.n_passive,
                                policy=self.policy)
        # per-family geometry: fp32 families compute against fp32 metric
        # and mask arrays so no fp64 arithmetic sneaks into their sweeps
        # (at_dtype returns the original domain for fp64 requests)
        self.dom_tracer = d.at_dtype(famdt("tracer"))
        self.dom_momentum = d.at_dtype(famdt("momentum"))
        self.dom_vmix = d.at_dtype(famdt("vmix"))
        self.dom_barotropic = d.at_dtype(famdt("barotropic"))
        self.dom_eos = d.at_dtype(famdt("eos"))
        self.dom_scan = d.at_dtype(famdt("scan"))
        self.halo = HaloUpdater(self.comm, self.decomp, self.rank,
                                method3d=self.params.halo_method3d,
                                packer=self.params.halo_packer,
                                tracer=context.tracer)

        # -- work views -----------------------------------------------------
        s3 = (d.nz, d.ly, d.lx)
        s2 = (d.ly, d.lx)
        sp = self.space.memory_space
        dt_tr = famdt("tracer")
        dt_b = famdt("barotropic")
        # per-tracer scratch so the tracer suite can run stage-by-stage
        # across all tracers (T, S, passives) with one fused halo per
        # stage; slot 0 keeps the historical single-tracer attribute
        # names alive for kernel benchmarks
        n_tr = 2 + self.params.n_passive
        self.tstar_all = [View(f"tstar{i}", s3, dtype=dt_tr, space=sp)
                          for i in range(n_tr)]
        self.tdiff_work_all = [View(f"tdiff_work{i}", s3, dtype=dt_tr, space=sp)
                               for i in range(n_tr)]
        self.rplus_all = [View(f"rplus{i}", s3, dtype=dt_tr, space=sp)
                          for i in range(n_tr)]
        self.rminus_all = [View(f"rminus{i}", s3, dtype=dt_tr, space=sp)
                           for i in range(n_tr)]
        self.tstar = self.tstar_all[0]
        self.tdiff_work = self.tdiff_work_all[0]
        self.rplus = self.rplus_all[0]
        self.rminus = self.rminus_all[0]
        self.eta = View("eta_work", s2, dtype=dt_b, space=sp)
        self.eta_prev = View("eta_prev", s2, dtype=dt_b, space=sp)
        self.um = View("umean", s2, dtype=dt_b, space=sp)
        self.vm = View("vmean", s2, dtype=dt_b, space=sp)
        self.um_old = View("umean_old", s2, dtype=dt_b, space=sp)
        self.vm_old = View("vmean_old", s2, dtype=dt_b, space=sp)
        self.gx = View("gforce_x", s2, dtype=dt_b, space=sp)
        self.gy = View("gforce_y", s2, dtype=dt_b, space=sp)
        # negated depth means for the barotropic strip: two views (not
        # one reused buffer) so the strip_u/strip_v launches are adjacent
        # and the graph fusion pass can merge them
        self.negu = View("neg_umean", s2, dtype=dt_b, space=sp)
        self.negv = View("neg_vmean", s2, dtype=dt_b, space=sp)

        # -- precision-cast shadows ------------------------------------------
        # When a consumer family is narrower than a producer family, the
        # consumer reads an explicitly cast shadow view instead of the
        # wide original; the casts are their own launches
        # (``precision_cast``), so they show up in graphs, lint and
        # traces.  Under a uniform policy every shadow aliases its
        # source and zero cast launches are emitted.
        st = self.state

        def shadow(src: View, family: str, name: str) -> View:
            if src.dtype == famdt(family):
                return src
            return View(name, src.shape, dtype=famdt(family), space=sp)

        self.p_mom = shadow(st.p, "momentum", "p_mom")
        self.rho_vmix = shadow(st.rho, "vmix", "rho_vmix")
        self.u_vmix = shadow(st.u.cur, "vmix", "u_cur_vmix")
        self.v_vmix = shadow(st.v.cur, "vmix", "v_cur_vmix")
        self.kappa_m_mom = shadow(st.kappa_m, "momentum", "kappa_m_mom")
        self.kappa_h_tr = shadow(st.kappa_h, "tracer", "kappa_h_tr")
        self.negu_mom = shadow(self.negu, "momentum", "neg_umean_mom")
        self.negv_mom = shadow(self.negv, "momentum", "neg_vmean_mom")
        self.ub_mom = shadow(st.ub, "momentum", "ub_mom")
        self.vb_mom = shadow(st.vb, "momentum", "vb_mom")
        self.u_tr = shadow(st.u.cur, "tracer", "u_cur_tr")
        self.v_tr = shadow(st.v.cur, "tracer", "v_cur_tr")
        self.w_tr = shadow(st.w, "tracer", "w_tr")

        # -- forcing, geometry ------------------------------------------------
        global_forcing = make_forcing(self.grid, self.params.forcing)

        def fam_arr(arr: np.ndarray, family: str) -> np.ndarray:
            return arr.astype(famdt(family), copy=False)

        self.taux = fam_arr(local_with_halo(
            global_forcing.taux_u, self.decomp, self.rank, sign=-1.0), "momentum")
        self.tauy = fam_arr(local_with_halo(
            global_forcing.tauy_u, self.decomp, self.rank, sign=-1.0), "momentum")
        self.sst_star = fam_arr(local_with_halo(
            global_forcing.sst_star, self.decomp, self.rank), "tracer")
        self.sss_star = fam_arr(local_with_halo(
            global_forcing.sss_star, self.decomp, self.rank), "tracer")
        self.gamma_t = global_forcing.gamma_t
        self.gamma_s = global_forcing.gamma_s
        self.hu = fam_arr(d.column_depth_u() * d.mask_u[0], "barotropic")
        self._zero2d = np.zeros((d.ly, d.lx), dtype=dt_tr)

        # -- numerics ---------------------------------------------------------
        dxm = self.grid.min_dx()
        self.visc = self.params.visc_factor * dxm * dxm / config.dt_baroclinic
        self.bivisc = self.params.biharmonic_factor * dxm ** 4 / config.dt_baroclinic
        self.tdiff = self.params.tdiff_factor * dxm * dxm / config.dt_tracer
        # eta checkerboard damping: stability requires
        # eta_diff * dt_b * (2/dx^2 + 2/dy^2) < 1/2
        self.eta_diff = 0.02 * dxm * dxm / config.dt_barotropic
        self.nstep = 0
        self.time_seconds = 0.0

        # -- step-graph capture & replay --------------------------------------
        # graphs are keyed by the step variant they recorded (first step
        # uses dt2 = dt; canuto may be intermittent); each sealed graph
        # carries the binding signature it captured under and is dropped
        # when the signature no longer matches (re-capture).  The dict
        # lives in the context's graph cache so close() drops the plans.
        self._graphs: Dict[tuple, LaunchGraph] = \
            self.context.graph_cache.setdefault(("licomkpp", id(self)), {})
        self._capture: Optional[LaunchGraph] = None
        self._graph_captures = 0

        # -- policies ---------------------------------------------------------
        h = d.halo
        self.p_full3 = MDRangePolicy([(0, d.nz), (0, d.ly), (0, d.lx)])
        self.p_int3 = MDRangePolicy([(0, d.nz), (h, d.ly - h), (h, d.lx - h)])
        self.p_full2 = MDRangePolicy([(0, d.ly), (0, d.lx)])
        self.p_int2 = MDRangePolicy([(h, d.ly - h), (h, d.lx - h)])
        # interior grown by one ring: w is read at +-1 by the momentum
        # kernel, and the (u, v) halos are 2 wide, so the ring can be
        # computed locally instead of exchanged (saves one 3-D halo).
        self.p_int2g = MDRangePolicy([(h - 1, d.ly - h + 1), (h - 1, d.lx - h + 1)])

        self._initialize_state()

    def close(self) -> None:
        """Release this rank's context-owned resources (arena, graphs).

        Multi-rank programs call this before returning from their
        SimWorld rank thread so no arena outlives the rank; the ledgers
        stay readable for aggregation.
        """
        self.context.close()

    def reset(self) -> None:
        """Return to the exact post-construction state, keeping all views.

        Every view buffer is zeroed and the analytic initial conditions
        are re-applied, so a reset model is *bitwise identical* to a
        freshly constructed one — while every ``View`` object (and with
        it every sealed launch graph, whose binding signature is made of
        view identities) stays valid.  This is what lets ``repro.serve``
        lease one engine to many jobs with the same configuration
        signature: each job gets a pristine model without paying
        construction or re-capture.
        """
        self.space.fence()
        st = self.state
        for fld in st.leapfrog_fields().values():
            fld.old.raw[...] = 0.0
            fld.cur.raw[...] = 0.0
            fld.new.raw[...] = 0.0
        views = [st.ub, st.vb, st.rho, st.p, st.w, st.kappa_h, st.kappa_m,
                 self.eta, self.eta_prev, self.um, self.vm,
                 self.um_old, self.vm_old, self.gx, self.gy,
                 self.negu, self.negv,
                 # cast shadows: alias their source under a uniform
                 # policy (zeroing twice is harmless), separate buffers
                 # under a mixed one (zeroing is then required)
                 self.p_mom, self.rho_vmix, self.u_vmix, self.v_vmix,
                 self.kappa_m_mom, self.kappa_h_tr, self.negu_mom,
                 self.negv_mom, self.ub_mom, self.vb_mom,
                 self.u_tr, self.v_tr, self.w_tr]
        views += self.tstar_all + self.tdiff_work_all
        views += self.rplus_all + self.rminus_all
        for view in views:
            view.raw[...] = 0.0
        self.nstep = 0
        self.time_seconds = 0.0
        self._initialize_state()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _initialize_state(self) -> None:
        """Analytic initial conditions: stratified, at rest."""
        d = self.domain
        p = self.params
        sst = self.sst_star                      # (ly, lx), halo-filled
        zt = d.z_t.reshape(-1, 1, 1)
        decay = np.exp(-zt / p.thermocline_depth)
        t0 = (p.t_deep + (sst[None, :, :] - p.t_deep) * decay) * d.mask_t
        s0 = 35.0 * d.mask_t
        self.state.t.set_initial(t0)
        self.state.s.set_initial(s0)
        zeros3 = np.zeros((d.nz, d.ly, d.lx))
        zeros2 = np.zeros((d.ly, d.lx))
        self.state.u.set_initial(zeros3)
        self.state.v.set_initial(zeros3)
        self.state.ssh.set_initial(zeros2)
        self.state.kappa_m.raw[...] = KAPPA_M_BACKGROUND
        self.state.kappa_h.raw[...] = KAPPA_H_BACKGROUND

    # ------------------------------------------------------------------
    # halo helpers (ledger device copies: no GPU-aware MPI on these systems)
    # ------------------------------------------------------------------

    def _ledger_halo(self, nbytes: float) -> None:
        if not self.space.memory_space.host_accessible:
            tr = self.space.inst.transfers
            tr.record_d2h(nbytes)
            tr.record_h2d(nbytes)

    def _halo3_group(self, specs) -> None:
        """Halo-update several 3-D fields in one fused exchange (one
        message per neighbour per phase, persistent pack buffers).

        ``specs`` is a list of ``(view, sign, fill)`` triples.
        """
        self.space.fence()  # exchange reads results of in-flight launches
        d = self.domain
        h = d.halo
        fields = []
        for v, sign, fill in specs:
            nz = v.raw.shape[0]
            self._ledger_halo(nz * 2 * h * (d.ly + d.lx)
                              * float(v.raw.itemsize))
            fields.append((v.raw, sign, fill))
        self.halo.update_many(fields, phase="halo3")

    def _halo2_group(self, specs) -> None:
        """2-D counterpart of :meth:`_halo3_group`."""
        self.space.fence()  # exchange reads results of in-flight launches
        d = self.domain
        h = d.halo
        fields = []
        for v, sign, fill in specs:
            self._ledger_halo(2 * h * (d.ly + d.lx) * float(v.raw.itemsize))
            fields.append((v.raw, sign, fill))
        self.halo.update_many(fields, phase="halo2")

    # ------------------------------------------------------------------
    # launch routing (eager / graph capture / graph replay)
    # ------------------------------------------------------------------

    def _run(self, label: str, policy, functor) -> None:
        """Dispatch one kernel launch, recording it when capturing."""
        if self._capture is not None:
            self._capture.add_kernel(label, policy, functor)
        self.space.parallel_for(label, policy, functor)

    def _cast(self, src: View, dst: View) -> None:
        """Emit an explicit family-boundary cast launch (no-op on alias).

        The only place a value changes precision: when ``dst`` is a
        shadow view of a different dtype, a ``precision_cast`` sweep
        copies (and converts) the full range, halos included, so the
        narrow consumer's stencils read converted ghosts.  Under a
        uniform policy every shadow aliases its source and nothing is
        launched — double-precision schedules are unchanged.
        """
        if dst is src:
            return
        policy = MDRangePolicy([(0, n) for n in dst.shape])
        if dst.ndim == 2:
            self._run("precision_cast_2d", policy, CastFunctor2D(src, dst))
        else:
            self._run("precision_cast", policy, CastFunctor(src, dst))

    def _host(self, fn, label: str = "host",
              effects: Optional[HostEffects] = None) -> None:
        """Run host-side glue, recording the closure when capturing.

        ``effects`` declares the closure's dataflow (reads, writes, halo
        refreshes, rotations, fencing) for the graphcheck verifier; an
        undeclared node is treated as an opaque barrier, which is sound
        but hides schedule bugs from the dataflow walk.
        """
        if self._capture is not None:
            self._capture.add_host(fn, label, effects)
        fn()

    def _binding_signature(self) -> tuple:
        """Identity of everything a captured graph bakes into functors.

        Leapfrog rotation swaps buffers beneath stable views
        (:meth:`~repro.kokkos.view.View.rebind`), so view *object*
        identities survive rotation and the signature stays valid step
        to step.  Replacing a view, or changing a numeric parameter that
        functor constructors copy, changes the signature and forces a
        re-capture.
        """
        st = self.state
        views = [st.w, st.rho, st.p, st.kappa_m, st.kappa_h, st.ub, st.vb,
                 self.eta, self.eta_prev, self.um, self.vm, self.um_old,
                 self.vm_old, self.gx, self.gy, self.negu, self.negv]
        for f in (st.u, st.v, st.t, st.s, st.ssh, *st.passive):
            views += [f.old, f.cur, f.new]
        views += (self.tstar_all + self.tdiff_work_all
                  + self.rplus_all + self.rminus_all)
        views += [self.p_mom, self.rho_vmix, self.u_vmix, self.v_vmix,
                  self.kappa_m_mom, self.kappa_h_tr, self.negu_mom,
                  self.negv_mom, self.ub_mom, self.vb_mom,
                  self.u_tr, self.v_tr, self.w_tr]
        nums = (self.policy.signature(),
                self.visc, self.bivisc, self.tdiff, self.eta_diff,
                self.params.asselin, self.params.bottom_drag,
                self.params.advect_momentum, self.params.n_passive,
                self.params.canuto_every,
                self.config.dt_baroclinic, self.config.dt_barotropic,
                self.gamma_t, self.gamma_s)
        return (tuple(id(v) for v in views), nums)

    # ------------------------------------------------------------------
    # one baroclinic step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the model one baroclinic time step.

        With ``params.graph`` the first step of each variant (startup
        forward step / canuto on or off) runs eagerly while recording
        into a :class:`~repro.kokkos.graph.LaunchGraph`; later steps
        replay the sealed graph through cached launch plans — bitwise
        identical, near-zero dispatch.
        """
        dt = self.config.dt_baroclinic
        dt2 = dt if self.nstep == 0 else 2.0 * dt
        canuto = bool(self.params.canuto_every
                      and self.nstep % self.params.canuto_every == 0)
        tr = self.context.tracer
        if tr.enabled:
            tr.instant("step_begin", cat="model", step=self.nstep,
                       variant="startup" if self.nstep == 0 else "leapfrog",
                       canuto=canuto)
        if not self.params.graph:
            self._step_body(dt2, canuto)
        else:
            key = (self.nstep == 0, canuto)
            sig = self._binding_signature()
            graph = self._graphs.get(key)
            if graph is not None and graph.signature != sig:
                graph = None  # bindings changed: drop and re-capture
            if graph is None:
                if tr.enabled:
                    tr.instant("graph_capture", cat="model", step=self.nstep)
                graph = LaunchGraph(self.space)
                self._capture = graph
                try:
                    self._step_body(dt2, canuto)
                finally:
                    self._capture = None
                graph.signature = sig
                self._graphs[key] = graph.seal()
                self._graph_captures += 1
            else:
                with self.timers.timer("step"):
                    graph.replay()
        self.nstep += 1
        self.time_seconds += dt
        ce = self.params.check_every
        if ce and self.nstep % ce == 0 and self.state.has_nan():
            raise StabilityError(
                f"NaN/Inf in prognostic fields at step {self.nstep} "
                f"(t = {self.time_seconds / 86400.0:.2f} days)"
            )

    def _step_body(self, dt2: float, canuto: bool) -> None:
        """The step's launch/host sequence (run eagerly, maybe recorded)."""
        st = self.state
        d = self.domain
        run = self._run

        with self.timers.timer("step"):
            # -- density / pressure / mixing coefficients -------------------
            with self.timers.timer("eos_pressure"):
                run("eos_density", self.p_full3,
                    EOSFunctor(st.t.cur, st.s.cur, st.rho,
                               self.dom_eos.mask_t))
                run("baroclinic_pressure", self.p_full2,
                    PressureFunctor(st.rho, st.p, self.dom_eos.mask_t,
                                    self.dom_eos.dz))
            if canuto:
                with self.timers.timer("canuto"):
                    self._run_canuto()

            # -- vertical velocity from current (time-centered) flow --------
            with self.timers.timer("w_diag"):
                run("vertical_velocity", self.p_int2g,
                    WFunctor(st.u.cur, st.v.cur, st.w, self.dom_momentum))

            # -- baroclinic momentum ----------------------------------------
            with self.timers.timer("momentum"):
                self._cast(st.p, self.p_mom)
                self._cast(st.kappa_m, self.kappa_m_mom)
                run("baroclinic_tendency", self.p_int3,
                    BaroclinicTendencyFunctor(
                        st.u.old, st.v.old, st.u.cur, st.v.cur, st.w,
                        self.p_mom, st.u.new, st.v.new, self.dom_momentum,
                        dt2, self.visc,
                        advect=self.params.advect_momentum,
                        biharmonic=self.bivisc))
                run("vertical_friction", self.p_int2,
                    VerticalFrictionFunctor(
                        st.u.new, st.v.new, self.kappa_m_mom, self.taux,
                        self.tauy, self.dom_momentum, dt2,
                        self.params.bottom_drag))
                # Capture the depth-mean force for the barotropic solver
                # BEFORE Coriolis rotation: the subcycle applies its own
                # Coriolis, and a rotation baked into G would double it
                # (a classic splitting instability).
                run("depth_mean_u_old", self.p_full2,
                    DepthMeanFunctor(st.u.old, self.um_old, self.dom_scan))
                run("depth_mean_v_old", self.p_full2,
                    DepthMeanFunctor(st.v.old, self.vm_old, self.dom_scan))
                run("depth_mean_u_new", self.p_full2,
                    DepthMeanFunctor(st.u.new, self.um, self.dom_scan))
                run("depth_mean_v_new", self.p_full2,
                    DepthMeanFunctor(st.v.new, self.vm, self.dom_scan))
                self._host(lambda: self._update_gforce(dt2), "gforce",
                           HostEffects(
                               reads=(self.um, self.um_old,
                                      self.vm, self.vm_old),
                               writes=(self.gx, self.gy), fences=True))
                run("coriolis_rotation", self.p_int3,
                    CoriolisRotationFunctor(st.u.new, st.v.new,
                                            st.u.old, st.v.old,
                                            self.dom_momentum, dt2))
            self._host(self._halo_uv_new, "halo_momentum",
                       HostEffects(halo_refresh=(st.u.new, st.v.new),
                                   fences=True))

            # -- split-explicit barotropic mode -----------------------------
            with self.timers.timer("barotropic"):
                self._barotropic_cycle(dt2)

            # -- tracers (transported with the time-centered velocities) -----
            with self.timers.timer("tracer"):
                self._tracer_suite(dt2)

            # -- Asselin filter + rotate ------------------------------------
            with self.timers.timer("filter"):
                a = self.params.asselin
                for f in (st.u, st.v, st.t, st.s):
                    run("asselin_filter", self.p_full3,
                        AsselinFilterFunctor(f.old, f.cur, f.new, a))
                run("asselin_filter_ssh", self.p_full2,
                    _Asselin2D(st.ssh.old, st.ssh.cur, st.ssh.new, a))
                self._host(self._rotate_state, "rotate",
                           HostEffects(
                               rotates=[(f.old, f.cur, f.new) for f in
                                        st.leapfrog_fields().values()],
                               fences=True))

    # -- host-side glue (captured as graph host nodes) -------------------

    def _update_gforce(self, dt2: float) -> None:
        self.space.fence()  # the depth means feed this host-side update
        self.gx.raw[...] = (self.um.raw - self.um_old.raw) / dt2
        self.gy.raw[...] = (self.vm.raw - self.vm_old.raw) / dt2

    def _halo_uv_new(self) -> None:
        st = self.state
        with self.timers.timer("halo_momentum"):
            self._halo3_group([(st.u.new, -1.0, 0.0), (st.v.new, -1.0, 0.0)])

    def _negate_means(self) -> None:
        self.space.fence()  # um/vm feed the host-side negation
        self.negu.raw[...] = -self.um.raw
        self.negv.raw[...] = -self.vm.raw

    def _eta_init(self) -> None:
        self.eta.raw[...] = self.state.ssh.cur.raw

    def _eta_snapshot(self) -> None:
        self.eta_prev.raw[...] = self.eta.raw

    def _halo_eta(self) -> None:
        self._halo2_group([(self.eta, 1.0, 0.0)])

    def _halo_ubvb(self) -> None:
        st = self.state
        self._halo2_group([(st.ub, -1.0, 0.0), (st.vb, -1.0, 0.0)])

    def _ssh_from_eta(self) -> None:
        self.state.ssh.new.raw[...] = self.eta.raw

    def _rotate_state(self) -> None:
        # retire all launches before the host-side rotate and the
        # NaN check read the prognostic fields
        self.space.fence()
        self.state.rotate()

    def _substep_mark(self, i: int) -> None:
        tr = self.context.tracer
        if tr.enabled:
            tr.instant("barotropic_substep", cat="model", substep=i)

    def _run_canuto(self) -> None:
        st = self.state
        self._cast(st.u.cur, self.u_vmix)
        self._cast(st.v.cur, self.v_vmix)
        self._cast(st.rho, self.rho_vmix)
        self._run(
            "canuto_mixing", self.p_int2,
            CanutoMixFunctor(self.u_vmix, self.v_vmix, self.rho_vmix,
                             st.kappa_m, st.kappa_h, self.dom_vmix))

    def _barotropic_cycle(self, dt2: float) -> None:
        """Forward-backward subcycle over ``nsub`` barotropic steps.

        The external mode is integrated *forward in time* from the
        current level over one baroclinic step: re-integrating a 2 dt
        leapfrog window every step excites the external computational
        mode.  Forward stepping is mildly dissipative for surface
        gravity waves, which is exactly what the splitting needs.
        """
        st = self.state
        run = self._run
        dom_b = self.dom_barotropic
        dtb = self.config.dt_barotropic
        steps = max(1, int(round(self.config.dt_baroclinic / dtb)))

        # strip the provisional barotropic mode from the 3-D velocity
        # (the depth-mean force gx/gy was captured pre-rotation in step());
        # both means are negated in one host node so strip_u/strip_v stay
        # adjacent (fusible) — strip_u never reads negv, so no fence between
        run("depth_mean_u_new", self.p_full2,
            DepthMeanFunctor(st.u.new, self.um, self.dom_scan))
        run("depth_mean_v_new", self.p_full2,
            DepthMeanFunctor(st.v.new, self.vm, self.dom_scan))
        self._host(self._negate_means, "negate_means",
                   HostEffects(reads=(self.um, self.vm),
                               writes=(self.negu, self.negv), fences=True))
        self._cast(self.negu, self.negu_mom)
        self._cast(self.negv, self.negv_mom)
        run("strip_barotropic_u", self.p_full3,
            AddBarotropicFunctor(st.u.new, self.negu_mom, self.dom_momentum))
        run("strip_barotropic_v", self.p_full3,
            AddBarotropicFunctor(st.v.new, self.negv_mom, self.dom_momentum))

        # subcycle state: start from (eta, ubar) at the current level
        self._host(self._eta_init, "eta_init",
                   HostEffects(reads=(st.ssh.cur,), writes=(self.eta,)))
        run("depth_mean_u_cur", self.p_full2,
            DepthMeanFunctor(st.u.cur, st.ub, self.dom_scan))
        run("depth_mean_v_cur", self.p_full2,
            DepthMeanFunctor(st.v.cur, st.vb, self.dom_scan))

        cont = BarotropicContinuityFunctor(
            st.ub, st.vb, self.eta_prev, self.eta, self.hu, dom_b, dtb,
            eta_diff=self.eta_diff,
        )
        mom = BarotropicMomentumFunctor(st.ub, st.vb, self.eta, self.gx,
                                        self.gy, dom_b, dtb)
        for i in range(steps):
            # sub-step boundary marker rides as a host node so replayed
            # graphs keep it on the timeline (no-op unless tracing)
            self._host(lambda i=i: self._substep_mark(i), "substep",
                       HostEffects())  # declared no-op: touches no field
            self._host(self._eta_snapshot, "eta_prev",
                       HostEffects(reads=(self.eta,),
                                   writes=(self.eta_prev,)))
            run("barotropic_continuity", self.p_int2, cont)
            self._host(self._halo_eta, "halo_eta",
                       HostEffects(halo_refresh=(self.eta,), fences=True))
            run("barotropic_momentum", self.p_int2, mom)
            self._host(self._halo_ubvb, "halo_ubvb",
                       HostEffects(halo_refresh=(st.ub, st.vb), fences=True))

        self._host(self._ssh_from_eta, "ssh_store",
                   HostEffects(reads=(self.eta,), writes=(st.ssh.new,)))
        # re-attach the subcycled barotropic mode
        self._cast(st.ub, self.ub_mom)
        self._cast(st.vb, self.vb_mom)
        run("add_barotropic_u", self.p_full3,
            AddBarotropicFunctor(st.u.new, self.ub_mom, self.dom_momentum))
        run("add_barotropic_v", self.p_full3,
            AddBarotropicFunctor(st.v.new, self.vb_mom, self.dom_momentum))
        self._host(self._halo_uv_new, "halo_momentum",
                   HostEffects(halo_refresh=(st.u.new, st.v.new),
                               fences=True))

    def _tracer_suite(self, dt2: float) -> None:
        """Advance every tracer (T, S, passives) one step.

        Two-step shape-preserving advection + diffusion, run *stage by
        stage across all tracers* — horizontal diffusion of every
        tracer, one fused halo; predictor of every tracer, one fused
        halo; FCT limits with all R+/R- bundled into one message; apply
        + implicit vertical, one fused halo — so the number of halo
        messages is independent of the tracer count.  Diffusion runs
        first (its explicit maximum principle keeps each field inside
        its bounds), then the FCT advection of the diffused field, then
        the implicit vertical operator, so the whole step is strictly
        bounds-preserving (the dye test relies on it).
        """
        st = self.state
        tracers = [(st.t, self.sst_star, self.gamma_t),
                   (st.s, self.sss_star, self.gamma_s)]
        tracers += [(p, self._zero2d, 0.0) for p in st.passive]
        # tracer-family shadows of the advecting velocities and the
        # mixing coefficient (aliases when families share a dtype)
        self._cast(st.u.cur, self.u_tr)
        self._cast(st.v.cur, self.v_tr)
        self._cast(st.w, self.w_tr)
        self._cast(st.kappa_h, self.kappa_h_tr)
        d = self.dom_tracer
        run = self._run
        n = len(tracers)
        work, tst = self.tdiff_work_all, self.tstar_all
        rp, rm = self.rplus_all, self.rminus_all

        def seed_work() -> None:
            # Host copies complete before any launch: interleaving a copy
            # of work[i+1] with the in-flight hdiff of work[i] would race
            # on an async backend (kernelcheck memory-space rule).
            for i, (fld, _, _) in enumerate(tracers):
                work[i].raw[...] = fld.old.raw

        def halo_work() -> None:
            with self.timers.timer("halo_tracer"):
                self._halo3_group([(work[i], 1.0, 0.0) for i in range(n)])

        def halo_tstar() -> None:
            with self.timers.timer("halo_tracer"):
                self._halo3_group([(tst[i], 1.0, 0.0) for i in range(n)])

        def halo_limits() -> None:
            with self.timers.timer("halo_tracer"):
                self._halo3_group([(rp[i], 1.0, 1.0) for i in range(n)]
                                  + [(rm[i], 1.0, 1.0) for i in range(n)])

        def halo_new() -> None:
            with self.timers.timer("halo_tracer"):
                self._halo3_group([(fld.new, 1.0, 0.0) for fld, _, _ in tracers])

        # stage 1 — diffuse-then-advect: work = old + dt * div(k grad old)
        self._host(seed_work, "tracer_seed",
                   HostEffects(reads=[fld.old for fld, _, _ in tracers],
                               writes=work[:n]))
        for i, (fld, _, _) in enumerate(tracers):
            run("tracer_hdiff", self.p_int2,
                TracerHDiffusionFunctor(fld.old, work[i], d, dt2, self.tdiff))
        self._host(halo_work, "halo_tracer",
                   HostEffects(halo_refresh=work[:n], fences=True))
        # stage 2 — low-order predictor
        for i in range(n):
            run("advect_tracer_predictor", self.p_int2,
                AdvectPredictorFunctor(work[i], self.u_tr, self.v_tr,
                                       self.w_tr, tst[i], d, dt2))
        self._host(halo_tstar, "halo_tracer",
                   HostEffects(halo_refresh=tst[:n], fences=True))
        # stage 3 — FCT limiters: every tracer's R+ and R- in one message
        for i in range(n):
            run("advect_tracer_limits", self.p_int2,
                FCTLimitFunctor(work[i], tst[i], self.u_tr, self.v_tr,
                                self.w_tr, rp[i], rm[i], d, dt2))
        self._host(halo_limits, "halo_tracer",
                   HostEffects(halo_refresh=rp[:n] + rm[:n], fences=True))
        # stage 4 — limited apply + implicit vertical operator
        for i, (fld, star2d, gamma) in enumerate(tracers):
            run("advect_tracer_apply", self.p_int2,
                FCTApplyFunctor(tst[i], self.u_tr, self.v_tr, self.w_tr,
                                rp[i], rm[i], fld.new, d, dt2))
            run("vertical_tracer_diffusion", self.p_int2,
                VerticalTracerDiffusionFunctor(fld.new, self.kappa_h_tr,
                                               star2d, gamma, d, dt2))
        self._host(halo_new, "halo_tracer",
                   HostEffects(halo_refresh=[fld.new for fld, _, _ in tracers],
                               fences=True))

    # ------------------------------------------------------------------
    # driving and output
    # ------------------------------------------------------------------

    def run_steps(self, n: int) -> None:
        """Advance ``n`` baroclinic steps."""
        for _ in range(n):
            self.step()

    def run_days(self, days: float) -> None:
        """Advance by (at least) ``days`` simulated days."""
        n = int(np.ceil(days * 86400.0 / self.config.dt_baroclinic))
        self.run_steps(n)

    def release_dye(self, index: int = 0, lon: float = 200.0, lat: float = 0.0,
                    radius_deg: float = 10.0, level_range=(0, 1)) -> None:
        """Initialise passive tracer ``index`` with a unit blob.

        The dye is bounded in [0, 1]; the shape-preserving advection must
        keep it there for the model's lifetime (tested).
        """
        if index >= len(self.state.passive):
            raise ValueError(
                f"model has {len(self.state.passive)} passive tracers; "
                f"requested index {index} (set ModelParams.n_passive)")
        from .localdomain import local_with_halo

        grid = self.grid
        lon_t = np.mod(grid.lon_t, 360.0)
        dlo = np.minimum(np.abs(lon_t - lon), 360.0 - np.abs(lon_t - lon))
        lat2, lon2 = np.meshgrid(grid.lat_t, dlo, indexing="ij")
        blob2d = np.where((lon2 / radius_deg) ** 2
                          + ((lat2 - lat) / radius_deg) ** 2 <= 1.0, 1.0, 0.0)
        local2d = local_with_halo(blob2d, self.decomp, self.rank)
        d = self.domain
        field = np.zeros((d.nz, d.ly, d.lx))
        k0, k1 = level_range
        field[k0:k1] = local2d[None, :, :]
        field *= d.mask_t
        self.state.passive[index].set_initial(field)

    # -- field access -----------------------------------------------------

    def local_interior(self, arr: np.ndarray) -> np.ndarray:
        """Strip halos off a local array (2-D or 3-D)."""
        jj, ii = self.domain.interior
        return arr[..., jj, ii]

    def sst(self) -> np.ndarray:
        """Local sea-surface temperature (interior, land as NaN)."""
        t = self.local_interior(self.state.t.cur.raw)[0].copy()
        m = self.local_interior(self.domain.mask_t)[0]
        t[m == 0.0] = np.nan
        return t

    def surface_speed(self) -> np.ndarray:
        """Local surface current speed at U points (interior)."""
        u = self.local_interior(self.state.u.cur.raw)[0]
        v = self.local_interior(self.state.v.cur.raw)[0]
        return np.hypot(u, v)

    def kinetic_energy(self) -> float:
        """Domain-summed kinetic energy density [m^2/s^2 * cells] (local)."""
        u = self.local_interior(self.state.u.cur.raw)
        v = self.local_interior(self.state.v.cur.raw)
        m = self.local_interior(self.domain.mask_u)
        return float(np.sum(0.5 * (u * u + v * v) * m))

    def tracer_content(self, which: str = "t") -> float:
        """Volume-integrated tracer content over the local interior."""
        fld = self.state.t if which == "t" else self.state.s
        tr = self.local_interior(fld.cur.raw)
        m = self.local_interior(self.domain.mask_t)
        jj, _ = self.domain.interior
        vol = (self.domain.dx_t[jj] * self.domain.dy)[None, :, None] \
            * self.domain.dz[:, None, None]
        return float(np.sum(tr * m * vol))


# ---------------------------------------------------------------------------
# distributed driver (thread- or process-backed SimWorld)
# ---------------------------------------------------------------------------


@dataclass
class RankResult:
    """What one rank of a distributed run ships back to the caller.

    Everything here is picklable (process mode sends it through a
    worker exit report): final prognostic fields as plain arrays, the
    step count, and the rank's measurement state — per-rank traffic
    ledger, instrumentation and tracer.
    """

    rank: int
    state: Dict[str, np.ndarray]
    nstep: int
    traffic: object = None
    inst: object = None
    tracer: object = None


#: Prognostic fields snapshotted into :attr:`RankResult.state`.
STATE_FIELDS = ("u", "v", "t", "s", "ssh")


def _distributed_rank_program(comm, config, backend, params, decomp,
                              steps) -> RankResult:
    """The per-rank body of :func:`run_distributed`.

    Module-level (not a closure) so process mode can pickle it for
    spawn; the config/params/decomp it needs travel as ``args``.
    """
    model = LICOMKpp(config, backend=backend, comm=comm, decomp=decomp,
                     params=params)
    try:
        model.run_steps(steps)
        state = {f: getattr(model.state, f).cur.raw.copy()
                 for f in STATE_FIELDS}
        data = model.context.export_rank_data()
        return RankResult(rank=comm.rank, state=state, nstep=model.nstep,
                          traffic=data["traffic"], inst=data["inst"],
                          tracer=data["tracer"])
    finally:
        model.close()


def run_distributed(
    config: ModelConfig,
    ranks: int,
    steps: int,
    backend: str = "serial",
    params: Optional[ModelParams] = None,
    mode: str = "thread",
    decomp: Optional[BlockDecomposition] = None,
    timeout: Optional[float] = None,
):
    """Step the model on ``ranks`` ranks; return rank-ordered results.

    ``mode="thread"`` runs ranks as threads of this process (the
    deterministic default); ``mode="process"`` spawns one OS process
    per rank with shared-memory halo traffic — same program, bitwise
    identical fields, real multi-core parallelism.

    Returns ``(results, world)``: the rank-ordered
    :class:`RankResult` list and the finished :class:`SimWorld` (its
    ``traffic`` ledger holds the whole run's message statistics).
    """
    from ..parallel.comm import DEFAULT_TIMEOUT, SimWorld
    from ..parallel.decomp import choose_process_grid

    if decomp is None:
        npy, npx = choose_process_grid(config.ny, config.nx, ranks)
        decomp = BlockDecomposition(config.ny, config.nx, npy, npx)
    # `is None` (not truthiness): an explicit timeout of 0.0 must not
    # silently widen to the global default
    world = SimWorld(ranks,
                     timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
                     mode=mode)
    results = world.launch(
        _distributed_rank_program,
        args=(config, backend, params, decomp, steps),
    )
    return results, world


@kokkos_register_for("asselin_filter_2d", ndim=2)
class _Asselin2D:
    """2-D Asselin filter body (ssh), sharing the 3-D functor's contract."""

    flops_per_point = 4.0
    bytes_per_point = 4 * 8.0

    def __init__(self, old: View, cur: View, new: View, alpha: float) -> None:
        self.old = old
        self.cur = cur
        self.new = new
        self.alpha = alpha

    def __call__(self, j: int, i: int) -> None:
        self.apply((slice(j, j + 1), slice(i, i + 1)))

    def apply(self, slices) -> None:
        sj, si = slices
        o = self.old.data[sj, si]
        c = self.cur.data[sj, si]
        n = self.new.data[sj, si]
        self.cur.data[sj, si] = c + self.alpha * (n - 2.0 * c + o)
