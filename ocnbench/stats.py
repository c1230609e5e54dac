"""Order statistics and host facts for the benchmark's reports.

Timings are reported as a median and a tail percentile.  The tail is the
highest candidate percentile that still leaves at least ``TAIL_BEYOND``
samples above it, chosen once per workload from the workload's minimum
sample count, so every run of a workload reports the same percentile.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from typing import Dict, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def rank_of(pct: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``pct`` among ``n`` samples."""
    # rounded first so that e.g. 99.9% of 10000 is exactly rank 9990
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with ``TAIL_BEYOND`` samples beyond it.

    Raises ``ValueError`` when even the median leaves too few samples.
    """
    for pct in TAIL_CANDIDATES:
        if n - rank_of(pct, n) >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{n} samples are too few for a tail percentile")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank_of(pct, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _l3_bytes() -> int:
    """Size of the last-level cache of CPU 0 (0 when the OS does not say)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * scale
        if level == 3:
            best = max(best, size)
    return best


def host_facts() -> Dict[str, object]:
    """The facts a reader needs to compare numbers across machines."""
    import numpy

    try:
        import numba  # noqa: F401
        numba_present = True
    except ImportError:
        numba_present = False
    return {
        "cores": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "numba": numba_present,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
