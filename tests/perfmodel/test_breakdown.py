"""Step breakdown and the CPE DMA pipeline model."""

import numpy as np
import pytest

from repro.ocean.config import PAPER_CONFIGS
from repro.perfmodel import (
    PipelineEstimate,
    cpe_pipeline_time,
    double_buffer_speedup,
    format_breakdown_table,
    predict_step_time,
    step_breakdown,
)

CFG1 = PAPER_CONFIGS["km_1km"]


class TestBreakdown:
    def test_components_sum_to_total(self):
        b = step_breakdown(CFG1, "orise", 16000)
        parts = (b.compute3 + b.compute2 + b.launches + b.pack
                 + b.staging + b.wire + b.polar)
        assert parts == pytest.approx(b.total, rel=1e-12)

    def test_matches_predict_step_time(self):
        """The decomposition must reproduce the monolithic prediction."""
        for machine, units in (("orise", 16000), ("new_sunway", 590250),
                               ("orise", 4000)):
            b = step_breakdown(CFG1, machine, units)
            t = predict_step_time(CFG1, machine, units)
            assert b.total == pytest.approx(t, rel=1e-9), (machine, units)

    def test_jit_shrinks_only_the_launch_component(self):
        # compiled graph replay vs eager dispatch
        b = step_breakdown(CFG1, "orise", 16000)
        bj = step_breakdown(CFG1, "orise", 16000, graph=True)
        assert bj.launches < b.launches
        assert bj.compute3 == b.compute3 and bj.compute2 == b.compute2
        assert bj.total < b.total

    def test_single_rank_has_no_comm(self):
        b = step_breakdown(CFG1, "orise", 1)
        assert b.pack == b.wire == b.staging == b.polar == 0.0

    def test_paper_bandwidth_argument(self):
        """§VII-D: Sunway's per-rank compute time exceeds ORISE's at the
        respective full-machine scales (memory bandwidth bound)."""
        sunway = step_breakdown(CFG1, "new_sunway", 590250)
        orise = step_breakdown(CFG1, "orise", 16000)
        assert sunway.compute3 > orise.compute3
        assert sunway.total > orise.total

    def test_comm_fraction_bounded(self):
        b = step_breakdown(CFG1, "new_sunway", 590250)
        assert 0.0 < b.comm_fraction < 0.7

    def test_as_dict_keys(self):
        b = step_breakdown(CFG1, "orise", 4000)
        assert set(b.as_dict()) == {
            "compute3", "compute2", "launches", "pack", "staging",
            "wire", "polar", "total",
        }

    def test_format_table(self):
        text = format_breakdown_table(CFG1, [("orise", 16000)])
        assert "compute3" in text and "comm share" in text


class TestCpePipeline:
    def test_estimate_fields(self):
        est = cpe_pipeline_time(100_000, 80.0, 400.0)
        assert isinstance(est, PipelineEstimate)
        assert est.tiles >= 1
        assert est.tile_points >= 1
        assert est.total_time > 0.0

    def test_double_buffering_never_hurts(self):
        for ai in (0.5, 5.0, 50.0):
            assert double_buffer_speedup(500_000, 80.0, 80.0 * ai) >= 1.0

    def test_speedup_bounded_by_two(self):
        for ai in (0.5, 10.0, 100.0):
            assert double_buffer_speedup(500_000, 80.0, 80.0 * ai) <= 2.0

    def test_peak_near_balance(self):
        """The pipeline gain peaks where DMA and compute balance and
        decays toward either extreme (the §V-C2 design point)."""
        low = double_buffer_speedup(800_000, 80.0, 80.0 * 0.5)
        peak = double_buffer_speedup(800_000, 80.0, 80.0 * 10.0)
        high = double_buffer_speedup(800_000, 80.0, 80.0 * 100.0)
        assert peak > 1.7
        assert peak > low and peak > high

    def test_dma_bound_flag(self):
        assert cpe_pipeline_time(500_000, 160.0, 8.0).dma_bound
        assert not cpe_pipeline_time(500_000, 8.0, 4000.0).dma_bound

    def test_custom_tile_points(self):
        est = cpe_pipeline_time(500_000, 80.0, 400.0, tile_points=128)
        assert est.tile_points == 128

    def test_more_points_more_time(self):
        a = cpe_pipeline_time(100_000, 80.0, 400.0)
        b = cpe_pipeline_time(1_000_000, 80.0, 400.0)
        assert b.total_time > a.total_time
