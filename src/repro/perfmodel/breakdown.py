"""Per-component step-time breakdown (the §VII-D analysis, quantified).

The paper explains why the new Sunway underperforms ORISE despite more
cores with three observations — memory-access bottleneck, hotspot
dispersion (per-kernel fixed costs), communication overhead.  This
module decomposes the predicted step time into exactly those components
for any (configuration, machine, scale), so the argument can be read off
a table instead of asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..ocean.config import ModelConfig
from .kernelcost import DEFAULT_PROFILE, StepProfile
from .machines import MachineSpec, get_machine
from .network import OVERLAP_HIDE, block_extents, halo_update_cost, polar_fixed_cost


@dataclass(frozen=True)
class StepBreakdown:
    """Seconds per baroclinic step, by component (one rank)."""

    compute3: float      # 3-D kernels (memory-bandwidth bound)
    compute2: float      # barotropic 2-D substeps
    launches: float      # per-kernel fixed costs (hotspot dispersion)
    pack: float          # halo pack/unpack on the host path
    staging: float       # host<->device copies (no GPU-aware MPI)
    wire: float          # network alpha-beta (after overlap hiding)
    polar: float         # fixed polar-pack Amdahl term
    total: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute3": self.compute3,
            "compute2": self.compute2,
            "launches": self.launches,
            "pack": self.pack,
            "staging": self.staging,
            "wire": self.wire,
            "polar": self.polar,
            "total": self.total,
        }

    @property
    def comm_fraction(self) -> float:
        comm = self.pack + self.staging + self.wire + self.polar
        return comm / self.total if self.total else 0.0


def step_breakdown(
    cfg: ModelConfig,
    machine: MachineSpec | str,
    units: int,
    profile: StepProfile = DEFAULT_PROFILE,
    graph: bool = False,
) -> StepBreakdown:
    """Decompose the optimized step time (mirrors ``predict_step_time``).

    ``graph`` charges compiled step-graph replay: the post-fusion launch
    count with the compiled-launch discount
    (``profile.launch_overheads``); all other components are unchanged.
    """
    m = get_machine(machine) if isinstance(machine, str) else machine
    n3 = cfg.grid_points / units
    n2 = cfg.horizontal_points / units
    nsub = cfg.barotropic_substeps

    bw = m.effective_bw_unit
    peak = m.peak_flops_unit
    t3 = max(profile.bytes3 * n3 / bw, profile.flops3 * n3 / peak)
    t2 = nsub * max(profile.bytes2_sub * n2 / bw, profile.flops2_sub * n2 / peak)
    t_launch = profile.launch_overheads(nsub, graph) * m.launch_overhead

    if units == 1:
        return StepBreakdown(t3, t2, t_launch, 0.0, 0.0, 0.0, 0.0,
                             t3 + t2 + t_launch)

    nyl, nxl = block_extents(cfg, units)
    h3 = halo_update_cost(m, nyl, nxl, cfg.nz, optimized=True)
    h2 = halo_update_cost(m, nyl, nxl, 1, optimized=True)
    nodes = max(1.0, units / m.units_per_node)
    crowd = 1.0 + m.contention * math.log2(nodes)

    wire3 = profile.halo3_per_step * (h3.wire * crowd + h3.staging)
    wire3 = max(0.0, wire3 - OVERLAP_HIDE * min(wire3, t3 + t2 + t_launch))
    pack = profile.halo3_per_step * h3.pack \
        + nsub * profile.halo2_per_sub * h2.pack
    staging = nsub * profile.halo2_per_sub * h2.staging
    wire = wire3 + nsub * profile.halo2_per_sub * h2.wire * crowd
    polar = polar_fixed_cost(m, cfg, profile.halo3_per_step, optimized=True)
    total = t3 + t2 + t_launch + pack + staging + wire + polar
    return StepBreakdown(t3, t2, t_launch, pack, staging, wire, polar, total)


def format_breakdown_table(
    cfg: ModelConfig,
    cases: Sequence[tuple],
) -> str:
    """Render breakdowns for (machine, units) cases side by side."""
    rows: List[str] = [
        f"{'component':<12s}" + "".join(
            f"{name}@{units:<12d}"[:20].rjust(22) for name, units in cases
        )
    ]
    breakdowns = [step_breakdown(cfg, name, units) for name, units in cases]
    for key in ("compute3", "compute2", "launches", "pack", "staging",
                "wire", "polar", "total"):
        vals = "".join(f"{b.as_dict()[key] * 1e3:>20.2f}ms" for b in breakdowns)
        rows.append(f"{key:<12s}{vals}")
    fracs = "".join(f"{b.comm_fraction * 100:>20.1f}% " for b in breakdowns)
    rows.append(f"{'comm share':<12s}{fracs}")
    return "\n".join(rows)
