"""The benchmark's four workloads, their timed loops and correctness gates.

Every workload is a closed loop driven from this process with at most two
computing threads.  The workload seed sets the topography seed, the dye
release positions and (for serving) the job order; the program only sees
the generated inputs.  Operations are model steps, or serving jobs.  A
failed gate of a model workload counts every step of its run as failed;
a serving job counts as failed when it fails, is refused, or differs
from a solo run of its spec.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AdmissionError
from repro.kokkos import OpenMPBackend
from repro.ocean import LICOMKpp, ModelParams, demo
from repro.parallel import BlockDecomposition, SimWorld
from repro.parallel.decomp import choose_process_grid
from repro.serve import Job, JobSpec, JobStatus, ServeScheduler

from . import layers, stats

#: Set-ups timed per run; the median is reported as ``setup_s``.
SETUP_REPS = 9
#: Model steps of the set-up: the startup step and the first leapfrog
#: step, after which every path (eager or replay) is on its steady path.
SETUP_STEPS = 2
#: Dye values may leave [0, 1] by at most this much (rounding only).
DYE_TOL = 1e-12


@dataclass
class Inputs:
    """Everything a workload generates from its seed."""

    topo_seed: int
    dyes: List[Tuple[float, float]]
    rng: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int, n_dyes: int = 2) -> "Inputs":
        rng = np.random.default_rng(seed)
        topo_seed = int(rng.integers(1, 2 ** 31 - 1))
        dyes = [(float(rng.uniform(0.0, 360.0)), float(rng.uniform(-45.0, 45.0)))
                for _ in range(n_dyes)]
        return cls(topo_seed, dyes, rng)


@dataclass
class Measurement:
    """What one timed run observed, before it is turned into metrics."""

    setup_s: List[float]
    step_s: List[float]
    window_s: float
    sim_seconds: float
    attempted: int
    failed: int
    checks: Dict[str, bool]
    rss_mb: float
    working_set_bytes: int
    #: Serving only: submit-to-done seconds of every completed job.
    job_s: List[float] = field(default_factory=list)
    completed_jobs: int = 0
    #: Counter deltas over the timed window (traced runs read them).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Tracer-relative times the timed window opened and closed (traced
    #: runs select their spans by these).
    window_start: float = 0.0
    window_end: float = 0.0
    ranks: int = 1
    extra: Dict[str, object] = field(default_factory=dict)

    def throughput(self) -> float:
        """Operations per second over the timed window."""
        ops = self.completed_jobs if self.job_s else len(self.step_s) / self.ranks
        return ops / self.window_s


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _state_copy(model: LICOMKpp) -> Dict[str, np.ndarray]:
    """Current and previous levels of every leapfrog field."""
    out = {}
    for name, fld in model.state.leapfrog_fields().items():
        out[name + ".cur"] = fld.cur.raw.copy()
        out[name + ".old"] = fld.old.raw.copy()
    return out


def states_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """Bitwise equality of two field dicts (same keys, dtypes and bits)."""
    if a.keys() != b.keys():
        return False
    return all(a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
               for k in a)


def healthy(state: Dict[str, np.ndarray]) -> bool:
    """Prognostic fields finite and every passive dye within [0, 1]."""
    for name, arr in state.items():
        if not np.isfinite(arr).all():
            return False
        if name.startswith("ptracer") and (
                arr.min() < -DYE_TOL or arr.max() > 1.0 + DYE_TOL):
            return False
    return True


def _counter_snapshot(models) -> Dict[str, float]:
    """Ledger totals of the given models' instrumentation and worlds."""
    insts = {id(m.space.inst): m.space.inst for m in models}
    worlds = {id(m.comm.world): m.comm.world for m in models}
    snap = {"bytes": 0.0, "ws_requests": 0.0,
            "ws_allocations": 0.0, "messages": 0.0, "halo_bytes": 0.0,
            "collectives": 0.0}
    for inst in insts.values():
        snap["bytes"] += inst.total_bytes
        snap["ws_requests"] += inst.workspace.requests
        snap["ws_allocations"] += inst.workspace.allocations
    for world in worlds.values():
        snap["messages"] += world.traffic.messages
        snap["halo_bytes"] += world.traffic.bytes
        snap["collectives"] += world.traffic.collectives
    return snap


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _now_on(probe: Optional[layers.LayerProbe]) -> float:
    if probe is None:
        return 0.0
    return time.perf_counter() - probe.tracer.epoch


# -- single-process model workloads ----------------------------------------------


def _build_model(inputs: Inputs, backend, params: ModelParams) -> LICOMKpp:
    model = LICOMKpp(demo("medium"), backend=backend, params=params,
                     seed=inputs.topo_seed)
    for k, (lon, lat) in enumerate(inputs.dyes):
        model.release_dye(k, lon=lon, lat=lat, radius_deg=12.0)
    return model


def _close(model: LICOMKpp) -> None:
    model.close()
    shutdown = getattr(model.space, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _medium_run(inputs: Inputs, seconds: float, min_steps: int,
                make_backend: Callable[[], object], params: ModelParams,
                probe: Optional[layers.LayerProbe],
                snapshot_at: int = 0) -> Tuple[Measurement, LICOMKpp, dict]:
    """Set up ``SETUP_REPS`` times, then step the last model for ``seconds``."""
    def setup():
        m = _build_model(inputs, make_backend(), params)
        for _ in range(SETUP_STEPS):
            m.step()
        return m

    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            _close(model)
            del model       # one model alive at a time keeps peak RSS honest
        dt, model = _timed(setup)
        setups.append(dt)
    snapshot: dict = {}
    before = _counter_snapshot([model])
    window_start = _now_on(probe)
    step_s: List[float] = []
    clock = time.perf_counter
    t0 = clock()
    while (clock() - t0 < seconds or len(step_s) < min_steps
           or model.nstep < snapshot_at):
        a = clock()
        model.step()
        step_s.append(clock() - a)
        if model.nstep == snapshot_at:
            snapshot = _state_copy(model)
    window = clock() - t0
    window_end = _now_on(probe)
    rss = stats.peak_rss_mb()
    counters = _delta(_counter_snapshot([model]), before)
    final = _state_copy(model)
    meas = Measurement(
        setup_s=setups, step_s=step_s, window_s=window,
        sim_seconds=len(step_s) * model.config.dt_baroclinic,
        attempted=len(step_s), failed=0, checks={"healthy": healthy(final)},
        rss_mb=rss, working_set_bytes=model.state.memory_bytes(),
        counters=counters, window_start=window_start, window_end=window_end)
    return meas, model, snapshot


def _finish_checks(meas: Measurement) -> Measurement:
    if not all(meas.checks.values()):
        meas.failed = meas.attempted
    return meas


class Workload:
    """One set of inputs the benchmark runs, with its timed loop."""

    name = ""
    #: Fewest timed samples (steps, or jobs for serving) of an untraced
    #: run; fixes the tail percentile of the workload.
    min_samples = 0
    #: Fewest step samples of an untraced run; fixes the step tail.
    min_step_samples = 0
    #: Directory inside the checkout the workload may write into.
    workdir = ""
    #: Per-layer metrics this workload is expected to move.
    moves: Tuple[str, ...] = ()

    @property
    def tail_pct(self) -> float:
        """Tail percentile of the workload's operations (steps or jobs)."""
        return stats.tail_percentile(self.min_samples)

    @property
    def step_tail_pct(self) -> float:
        return stats.tail_percentile(self.min_step_samples or self.min_samples)

    def measure(self, seed: int, seconds: float, min_samples: int,
                probe: Optional[layers.LayerProbe]) -> Measurement:
        raise NotImplementedError


class MediumSerialDyes(Workload):
    """One rank, serial, eager, double, medium grid, two passive dyes.

    The plain single-threaded baseline.  It is kernel-bound (the tracer
    family leads) with no messages, casts or graph, so kernel-arithmetic
    wins show here and halo or serving changes must show no change.
    """

    name = "medium_serial_dyes"
    min_samples = 200
    moves = ("ocean.tracer_ms", "ocean.momentum_ms", "ocean.barotropic_ms",
             "ocean.vmix_ms", "ocean.eos_ms", "ocean.scan_ms",
             "ocean.gbytes_computed", "kokkos.workspace_hit_rate")

    def measure(self, seed, seconds, min_samples, probe):
        inputs = Inputs.from_seed(seed)
        meas, model, _ = _medium_run(
            inputs, seconds, min_samples, lambda: "serial",
            ModelParams(n_passive=2), probe)
        _close(model)
        return _finish_checks(meas)


class MediumOpenMPReplay(Workload):
    """The medium problem on openmp (two pool threads), compiled graph replay.

    The same kernels through sealed-graph replay and chunked dispatch, and
    the only workload on the openmp backend: a tier change that helps
    replay but costs eager, or the reverse, shows between this workload
    and :class:`MediumSerialDyes`.
    """

    name = "medium_openmp_replay"
    min_samples = 200
    moves = ("kokkos.replay_ms", "kokkos.capture_s", "ocean.tracer_ms",
             "ocean.gbps_computed", "kokkos.workspace_hit_rate")
    #: Steps of the prefix compared bitwise against serial eager.
    prefix = 8

    def measure(self, seed, seconds, min_samples, probe):
        inputs = Inputs.from_seed(seed)
        params = ModelParams(n_passive=2, graph=True, jit=True)
        meas, model, snap = _medium_run(
            inputs, seconds, min_samples, lambda: OpenMPBackend(threads=2),
            params, probe, snapshot_at=self.prefix)
        _close(model)
        ref = _build_model(inputs, "serial", ModelParams(n_passive=2))
        try:
            ref.run_steps(self.prefix)
            meas.checks["prefix_bitwise_vs_serial_eager"] = states_equal(
                snap, _state_copy(ref))
        finally:
            _close(ref)
        return _finish_checks(meas)


# -- two thread ranks ----------------------------------------------------------------


class _RankControl:
    """Benchmark-side synchronisation of the two rank threads.

    Its own barrier (not the communicator's) keeps the stop decision out
    of the program's collective counts.
    """

    def __init__(self, ranks: int) -> None:
        self.barrier = threading.Barrier(ranks, timeout=60.0)
        self.decisions: List[bool] = []
        self.setup_end = 0.0
        self.step_s: List[List[float]] = [[] for _ in range(ranks)]
        self.snapshots: List[dict] = [{} for _ in range(ranks)]
        self.finals: List[dict] = [{} for _ in range(ranks)]
        self.models: List[Optional[LICOMKpp]] = [None] * ranks
        self.window = (0.0, 0.0)
        self.window_start = 0.0
        self.window_end = 0.0
        self.before: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.rss = 0.0


class Small2RankMixed(Workload):
    """Two thread ranks, serial, eager, mixed precision, small grid.

    The only workload with inter-rank messages, fp32 halo wire bytes and
    precision casts; it is dispatch- and halo-bound.
    """

    name = "small_2rank_mixed"
    min_samples = 400
    moves = ("parallel.halo_post_ms", "parallel.halo_wait_ms",
             "parallel.messages", "parallel.halo_kb", "parallel.imbalance",
             "ocean.cast_ms", "ocean.launches", "kokkos.us_per_launch",
             "kokkos.dispatch_ms")
    ranks = 2
    #: Steps of the prefix compared bitwise against one rank.
    prefix = 16
    #: Steps between stop decisions.
    block = 8

    def _params(self) -> ModelParams:
        return ModelParams(precision="mixed")

    def _program(self, comm, ctl: _RankControl, cfg, decomp, topo_seed,
                 seconds, min_steps, setup_only, probe):
        rank = comm.rank
        model = LICOMKpp(cfg, "serial", comm=comm, decomp=decomp,
                         params=self._params(), seed=topo_seed)
        try:
            for _ in range(SETUP_STEPS):
                model.step()
            ctl.barrier.wait()
            if rank == 0:
                ctl.setup_end = time.perf_counter()
            if setup_only:
                return
            ctl.models[rank] = model
            ctl.barrier.wait()
            if rank == 0:
                ctl.before = _counter_snapshot(ctl.models)
                ctl.window_start = _now_on(probe)
            ctl.barrier.wait()
            times = ctl.step_s[rank]
            clock = time.perf_counter
            t0 = clock()
            rounds = 0
            while True:
                for _ in range(self.block):
                    a = clock()
                    model.step()
                    times.append(clock() - a)
                    if model.nstep == self.prefix:
                        ctl.snapshots[rank] = _state_copy(model)
                if rank == 0:
                    ctl.decisions.append(
                        clock() - t0 >= seconds and len(times) >= min_steps
                        and model.nstep >= self.prefix)
                ctl.barrier.wait()
                rounds += 1
                if ctl.decisions[rounds - 1]:
                    break
            if rank == 0:
                ctl.window = (t0, clock())
                ctl.window_end = _now_on(probe)
                ctl.rss = stats.peak_rss_mb()
                ctl.counters = _delta(_counter_snapshot(ctl.models), ctl.before)
            ctl.finals[rank] = _state_copy(model)
        finally:
            model.close()

    def measure(self, seed, seconds, min_samples, probe):
        inputs = Inputs.from_seed(seed, n_dyes=0)
        cfg = demo("small")
        npy, npx = choose_process_grid(cfg.ny, cfg.nx, self.ranks)
        decomp = BlockDecomposition(cfg.ny, cfg.nx, npy, npx)
        setups = []
        for rep in range(SETUP_REPS):
            ctl = _RankControl(self.ranks)
            last = rep == SETUP_REPS - 1
            t0 = time.perf_counter()
            world = SimWorld(self.ranks)
            world.launch(self._program, args=(
                ctl, cfg, decomp, inputs.topo_seed, seconds, min_samples,
                not last, probe))
            setups.append(ctl.setup_end - t0)
        steps = ctl.step_s[0]
        t0, t1 = ctl.window
        h = decomp.halo
        ref = LICOMKpp(cfg, "serial", params=self._params(),
                       seed=inputs.topo_seed)
        try:
            ref.run_steps(self.prefix)
            ref_state = _state_copy(ref)
        finally:
            ref.close()
        gathered = {k: decomp.gather_global([s[k] for s in ctl.snapshots])
                    for k in ref_state}
        interior = {k: v[..., h:-h, h:-h] for k, v in ref_state.items()}
        checks = {
            "healthy": all(healthy(f) for f in ctl.finals),
            "prefix_bitwise_vs_one_rank": states_equal(gathered, interior),
        }
        meas = Measurement(
            setup_s=setups, step_s=[s for r in ctl.step_s for s in r],
            window_s=t1 - t0, sim_seconds=len(steps) * cfg.dt_baroclinic,
            attempted=len(steps), failed=0, checks=checks, rss_mb=ctl.rss,
            working_set_bytes=sum(m.state.memory_bytes() for m in ctl.models),
            counters=ctl.counters, window_start=ctl.window_start,
            window_end=ctl.window_end, ranks=self.ranks)
        meas.extra["rank0_step_s"] = steps
        return _finish_checks(meas)


# -- serving ---------------------------------------------------------------------------


class _Completions:
    """Records when each job finishes and wakes the closed-loop client."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.done: List[Tuple[Job, float]] = []
        self._original = None

    def install(self) -> None:
        original = self._original = Job.finish
        comp = self

        def finish(job, status):
            original(job, status)
            with comp.cond:
                comp.done.append((job, time.perf_counter()))
                comp.cond.notify_all()
        Job.finish = finish

    def uninstall(self) -> None:
        if self._original is not None:
            Job.finish = self._original
            self._original = None

    def next_done(self, timeout: float = 120.0) -> Tuple[Job, float]:
        with self.cond:
            if not self.cond.wait_for(lambda: self.done, timeout):
                raise TimeoutError("no serving job finished in time")
            return self.done.pop(0)


class _StepTimer:
    """Times every ``LICOMKpp.step`` (serving steps run inside workers)."""

    def __init__(self) -> None:
        self.step_s: List[float] = []
        #: Models stepped since the last clear, by id.
        self.models: Dict[int, LICOMKpp] = {}
        self.recording = False
        self._original = None
        self._lock = threading.Lock()

    def install(self) -> None:
        original = self._original = LICOMKpp.step
        timer = self

        def step(model):
            timer.models[id(model)] = model
            a = time.perf_counter()
            original(model)
            if timer.recording:
                dt = time.perf_counter() - a
                with timer._lock:
                    timer.step_s.append(dt)
        LICOMKpp.step = step

    def uninstall(self) -> None:
        if self._original is not None:
            LICOMKpp.step = self._original
            self._original = None


class ServeSmallEnsemble(Workload):
    """``ServeScheduler`` with two workers and one client keeping two jobs in flight.

    Small jobs alternate (in seeded balanced blocks) between the double
    and the mixed shared engine, replaying sealed graphs, with a probe
    every step and a mid-job checkpoint.  A seeded share of jobs resume
    from an earlier job's final checkpoint, so restart reads sit beside
    checkpoint writes, and consecutive same-signature jobs contend for
    one engine lease.  The only workload for ``repro.serve``, admission
    pricing and restart I/O.
    """

    name = "serve_small_ensemble"
    min_samples = 40
    #: Every job runs at least ``resume_steps`` steps.
    min_step_samples = 40 * 4
    moves = ("serve.admit_ms", "perfmodel.quote_ms", "serve.queue_wait_ms",
             "serve.lease_wait_ms", "serve.run_s", "serve.engine_hit_rate",
             "serve.probe_ms", "ocean.reset_ms", "ocean.restart_save_ms",
             "ocean.restart_load_ms", "ocean.restart_mb", "kokkos.replay_ms")
    workers = 2
    in_flight = 2
    job_steps = 8
    resume_steps = 4
    resume_share = 0.25
    setup_reps = 5

    def _spec(self, name: str, precision: str, topo_seed: int, steps: int,
              resume: bool = False) -> JobSpec:
        return JobSpec(name=name, size="small", backend="serial", steps=steps,
                       precision=precision, graph=True, seed=topo_seed,
                       probe_every=1, checkpoint_every=self.job_steps // 2,
                       resume=resume, save_final=False)

    def _setup(self, topo_seed: int, root: str) -> ServeScheduler:
        sched = ServeScheduler(workers=self.workers, artifacts=root)
        warm = [sched.submit(self._spec(f"warm-{p}", p, topo_seed, SETUP_STEPS))
                for p in ("double", "mixed")]
        for job in warm:
            if not job.wait(120.0) or job.status is not JobStatus.DONE:
                raise RuntimeError(f"warm-up job failed: {job.error}")
        return sched

    def _job_order(self, inputs: Inputs):
        """Endless seeded job stream: balanced blocks of double and mixed."""
        rng = inputs.rng
        while True:
            block = ["double", "double", "mixed", "mixed"]
            rng.shuffle(block)
            yield from block

    def measure(self, seed, seconds, min_samples, probe):
        inputs = Inputs.from_seed(seed, n_dyes=0)
        topo = inputs.topo_seed
        setups = []
        timer = _StepTimer()
        timer.install()
        try:
            for rep in range(self.setup_reps):
                root = f"{self.workdir}/serve{rep}"
                timer.models.clear()
                dt, sched = _timed(lambda: self._setup(topo, root))
                setups.append(dt)
                if rep < self.setup_reps - 1:
                    sched.shutdown()
                    shutil.rmtree(root, ignore_errors=True)
        except BaseException:
            timer.uninstall()
            raise
        completions = _Completions()
        completions.install()
        try:
            result = self._closed_loop(sched, inputs, topo, seconds,
                                       min_samples, completions, timer, probe)
        finally:
            timer.uninstall()
            completions.uninstall()
            cache_stats = sched.shutdown()["cache"]
        result.setup_s = setups
        result.extra["engine_hits"] = cache_stats["hits"]
        result.extra["engine_acquires"] = cache_stats["hits"] + cache_stats["misses"]
        self._check(result)
        return result

    def _closed_loop(self, sched, inputs, topo, seconds, min_jobs,
                     completions, timer, probe) -> Measurement:
        order = self._job_order(inputs)
        #: Fresh jobs not resumed yet: (submission index, job).
        resumable: List[Tuple[int, Job]] = []
        submitted: Dict[int, float] = {}
        jobs: List[Job] = []
        finished: List[Tuple[Job, float]] = []
        rejected = [0]
        index = [0]

        def next_spec() -> JobSpec:
            # the plan depends on the seed only: a job may resume a fresh
            # job submitted at least ``in_flight + 1`` submissions earlier
            # (waiting for it in the rare case it is still running)
            i = index[0]
            index[0] += 1
            eligible = [k for k, (n, _) in enumerate(resumable)
                        if n <= i - self.in_flight - 1]
            if eligible and inputs.rng.random() < self.resume_share:
                _, src = resumable.pop(
                    eligible[int(inputs.rng.integers(len(eligible)))])
                src.wait(120.0)
                return self._spec(src.spec.name, src.spec.precision, topo,
                                  src.spec.steps + self.resume_steps,
                                  resume=True)
            return self._spec(f"job{i:04d}", next(order), topo, self.job_steps)

        def submit() -> None:
            spec = next_spec()
            t = time.perf_counter()
            try:
                job = sched.submit(spec)
            except AdmissionError:
                rejected[0] += 1
                return
            submitted[job.id] = t
            jobs.append(job)
            if not spec.resume:
                resumable.append((index[0] - 1, job))

        before = _counter_snapshot(timer.models.values())
        window_start = _now_on(probe)
        timer.recording = True
        t0 = time.perf_counter()
        for _ in range(self.in_flight):
            submit()
        stopping = False
        while len(finished) < len(jobs):
            job, t_done = completions.next_done()
            finished.append((job, t_done))
            if not stopping and (time.perf_counter() - t0 >= seconds
                                 and len(finished) >= min_jobs):
                stopping = True
            if not stopping:
                submit()
        t1 = max(t for _, t in finished)
        window_end = _now_on(probe)
        timer.recording = False
        rss = stats.peak_rss_mb()
        counters = _delta(_counter_snapshot(timer.models.values()), before)
        dt = demo("small").dt_baroclinic
        done = [j for j, _ in finished if j.status is JobStatus.DONE]
        sim_steps = sum(j.result["nstep"] - (j.result["resumed_from"] or 0)
                        for j in done)
        meas = Measurement(
            setup_s=[], step_s=list(timer.step_s), window_s=t1 - t0,
            sim_seconds=sim_steps * dt, attempted=len(jobs) + rejected[0],
            failed=len(jobs) + rejected[0] - len(done), checks={}, rss_mb=rss,
            working_set_bytes=0,
            job_s=[t - submitted[j.id] for j, t in finished
                   if j.status is JobStatus.DONE],
            completed_jobs=len(done), counters=counters,
            window_start=window_start, window_end=window_end)
        meas.extra["jobs"] = jobs
        meas.extra["submitted"] = submitted
        meas.extra["done_at"] = {j.id: t for j, t in finished}
        meas.extra["resumed_jobs"] = sum(1 for j in jobs if j.spec.resume)
        return meas

    def _check(self, meas: Measurement) -> None:
        """Every DONE job bitwise equal to a solo run of its spec.

        A job whose state differs counts as failed, like a FAILED or
        REJECTED one.
        """
        refs: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
        bad = 0
        for job in meas.extra["jobs"]:
            if job.status is not JobStatus.DONE:
                continue
            spec = job.spec
            key = (spec.precision, spec.steps)
            if key not in refs:
                solo = LICOMKpp(spec.config(), backend=spec.backend,
                                params=spec.params(), seed=spec.seed)
                try:
                    solo.run_steps(spec.steps)
                    refs[key] = {f: getattr(solo.state, f).cur.raw.copy()
                                 for f in job.result["state"]}
                    meas.working_set_bytes = max(
                        meas.working_set_bytes, solo.state.memory_bytes())
                finally:
                    solo.close()
            state = job.result["state"]
            if job.result["nstep"] != spec.steps or not states_equal(
                    state, refs[key]) or not healthy(state):
                bad += 1
        meas.checks["jobs_bitwise_vs_solo"] = bad == 0
        meas.failed += bad
        meas.extra["reference_specs"] = len(refs)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (MediumSerialDyes, MediumOpenMPReplay,
                              Small2RankMixed, ServeSmallEnsemble)
}
