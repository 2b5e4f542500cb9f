"""Tests for accelerator configurations and the memory model."""

import pytest

from repro.arch.config import (
    DIFFY_CONFIG,
    PRA_CONFIG,
    TABLE4_CONFIGS,
    VAA_CONFIG,
    AcceleratorConfig,
)
from repro.arch.memory import (
    FIG15_NODES,
    IDEAL_MEMORY,
    MEMORY_TECHNOLOGIES,
    MemorySystem,
    memory_system,
)


class TestConfigs:
    def test_table4_peak_normalization(self):
        """All three designs are normalized to 1K MACs/cycle (Table IV)."""
        for cfg in TABLE4_CONFIGS.values():
            assert cfg.peak_macs_per_cycle == 1024

    def test_default_geometry(self):
        assert DIFFY_CONFIG.tiles == 4
        assert DIFFY_CONFIG.filters_per_tile == 16
        assert DIFFY_CONFIG.terms_per_filter == 16
        assert DIFFY_CONFIG.windows_per_tile == 16
        assert VAA_CONFIG.windows_per_tile == 1

    def test_with_tiles(self):
        scaled = DIFFY_CONFIG.with_tiles(32)
        assert scaled.tiles == 32
        assert scaled.peak_macs_per_cycle == 32 * 256
        assert "x32" in scaled.name

    def test_with_terms(self):
        t1 = DIFFY_CONFIG.with_terms(1)
        assert t1.terms_per_filter == 1
        assert "T1" in t1.name

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(name="bad", tiles=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(name="bad", sync="psychic")
        with pytest.raises(ValueError):
            AcceleratorConfig(name="bad", partition="checkerboard")

    def test_default_sync_is_row(self):
        assert DIFFY_CONFIG.sync == "row"
        assert PRA_CONFIG.sync == "row"


class TestMemory:
    def test_paper_nodes_present(self):
        for name in FIG15_NODES:
            assert name in MEMORY_TECHNOLOGIES
        assert "HBM3" in MEMORY_TECHNOLOGIES  # Fig 18

    def test_node_ordering_low_to_high(self):
        bws = [MEMORY_TECHNOLOGIES[n].peak_gbps_per_channel for n in FIG15_NODES]
        assert bws == sorted(bws)

    def test_bandwidth_and_channels(self):
        one = memory_system("LPDDR4-3200", 1)
        two = memory_system("LPDDR4-3200", 2)
        assert two.bandwidth_bytes_per_s == pytest.approx(2 * one.bandwidth_bytes_per_s)
        assert "x2" in two.name

    def test_transfer_time(self):
        mem = memory_system("DDR4-3200")
        t = mem.transfer_time_s(25.6e9 * 0.8)
        assert t == pytest.approx(1.0)

    def test_transfer_time_rejects_negative(self):
        with pytest.raises(ValueError):
            memory_system("HBM2").transfer_time_s(-1)

    def test_ideal_memory_is_instant_enough(self):
        assert memory_system("Ideal").transfer_time_s(1e12) < 1e-5
        assert IDEAL_MEMORY.technology.energy_pj_per_bit == 0.0

    def test_unknown_technology(self):
        with pytest.raises(KeyError, match="unknown memory technology"):
            memory_system("Optane")

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            MemorySystem(MEMORY_TECHNOLOGIES["HBM2"], efficiency=0.0)
