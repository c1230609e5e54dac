"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class KokkosError(ReproError):
    """Base class for errors raised by the portability layer."""


class NotInitializedError(KokkosError):
    """An operation required ``kokkos.initialize()`` to have been called."""


class BackendError(KokkosError):
    """A backend could not execute the requested operation."""


class RegistrationError(KokkosError):
    """Functor registration / lookup failed (Athread dispatch path)."""


class MemorySpaceError(KokkosError):
    """An operation mixed incompatible memory spaces."""


class LDMError(KokkosError):
    """Local Data Memory (LDM) capacity or allocation failure."""


class GraphSealError(KokkosError):
    """A launch could not be prepared or lowered at ``LaunchGraph.seal``.

    The message names the kernel label and backend; the underlying
    error (an :class:`LDMError`, a failed lowering, ...) is chained as
    ``__cause__``."""


class GraphCertificationError(KokkosError):
    """A sealed launch graph failed static certification.

    Raised by ``LaunchGraph.seal(certify=True)`` when the graphcheck
    dataflow verifier proves a fused node illegal (a cross-part hazard
    a tiled eager-tier sweep cannot honour) or finds a silent
    fp32->fp64 promotion."""


class OceanError(ReproError):
    """Base class for errors raised by the ocean model."""


class ConfigurationError(OceanError):
    """An invalid model configuration was requested."""


class StabilityError(OceanError):
    """The integration became numerically unstable (NaN / CFL blow-up)."""


class ParallelError(ReproError):
    """Base class for errors from the simulated-MPI substrate."""


class DecompositionError(ParallelError):
    """A domain decomposition was infeasible or inconsistent."""


class CommunicationError(ParallelError):
    """A simulated-MPI communication call was used incorrectly."""


class RemoteRankError(CommunicationError):
    """A rank in a process-backed world failed (or its worker died).

    Raw exceptions do not pickle usefully across process boundaries, so
    the worker runtime captures the remote exception's type name,
    message and full traceback *text* and the parent re-raises this
    carrier.  ``remote_traceback`` is ``None`` when the worker was
    killed before it could report (e.g. SIGKILL / OOM).
    """

    def __init__(self, rank: int, exc_type: str, message: str,
                 remote_traceback: "str | None" = None) -> None:
        self.rank = int(rank)
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        detail = f"rank {rank} failed with {exc_type}: {message}"
        if remote_traceback:
            detail += f"\n--- remote traceback (rank {rank}) ---\n" \
                      + remote_traceback.rstrip()
        super().__init__(detail)


class TraceError(ReproError):
    """A span tracer was used out of protocol (unbalanced begin/end)."""


class ServeError(ReproError):
    """Base class for errors raised by the ensemble serving layer."""


class AdmissionError(ServeError):
    """A job was refused at admission (over budget, malformed spec).

    Raised by ``ServeScheduler.submit`` *before* the job is enqueued;
    the message carries the perfmodel quote so the caller can see what
    the job would have cost against the configured budget.
    """


class JobTimeout(ServeError):
    """A running job exceeded its per-job deadline.

    The worker thread converts this into a failed-job status; the
    scheduler itself keeps serving (a timed-out job must never wedge
    the pool)."""


class PerfModelError(ReproError):
    """Base class for errors from the machine performance model."""


class UnknownMachineError(PerfModelError):
    """An unknown machine name was requested from the registry."""
