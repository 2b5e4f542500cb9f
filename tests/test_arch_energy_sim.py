"""Tests for the energy model and the end-to-end simulation driver."""

import pytest

from repro.arch.energy import AREA_TABLE, POWER_TABLE, EnergyModel
from repro.arch.memory import memory_system
from repro.arch.sim import (
    HD_RESOLUTION,
    collect_traces,
    model_for,
    simulate_network,
)


class TestEnergyModel:
    def test_power_totals_match_layout(self):
        model = EnergyModel()
        assert model.power_w("Diffy").total == pytest.approx(13.55, abs=0.05)
        assert model.power_w("VAA").total == pytest.approx(3.52, abs=0.05)

    def test_table6_power_ratios(self):
        """The paper's 'Normalized' row: ~3.9x (Diffy) and ~3.7x (PRA)."""
        model = EnergyModel()
        assert 3.5 < model.power_ratio("Diffy") < 4.2
        assert 3.4 < model.power_ratio("PRA") < 4.1
        assert model.power_ratio("PRA") < model.power_ratio("Diffy") + 0.3

    def test_table7_area_ratios(self):
        model = EnergyModel()
        # Diffy's area overhead over VAA is lower than PRA's (Table VII).
        assert model.area_ratio("Diffy") < model.area_ratio("PRA")
        assert 1.1 < model.area_ratio("Diffy") < 1.4

    def test_efficiency_formula(self):
        model = EnergyModel()
        # At the paper's speedups the efficiencies come out 1.83x / 1.34x.
        eff_diffy = model.efficiency_vs("Diffy", time_s=1 / 7.1, baseline_time_s=1.0)
        eff_pra = model.efficiency_vs("PRA", time_s=1 / 5.1, baseline_time_s=1.0)
        assert eff_diffy == pytest.approx(1.83, abs=0.12)
        assert eff_pra == pytest.approx(1.34, abs=0.12)

    def test_energy_requires_time(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.onchip_energy_j("Diffy", -1.0)
        with pytest.raises(ValueError):
            model.efficiency_vs("Diffy", 1.0)

    def test_unknown_accelerator(self):
        with pytest.raises(KeyError):
            EnergyModel().power_w("TPU")

    def test_delta_out_is_cheap(self):
        """Section III-E: Delta_out is a 'modest investment' — tiny share."""
        diffy = POWER_TABLE["Diffy"]
        assert diffy.delta_out < 0.01 * diffy.total
        assert AREA_TABLE["Diffy"].delta_out < 0.01 * AREA_TABLE["Diffy"].total

    def test_breakdown_dict(self):
        d = POWER_TABLE["Diffy"].as_dict()
        assert "total" in d and "compute" in d


class TestModelFor:
    def test_names(self):
        assert model_for("VAA").name == "VAA"
        assert model_for("PRA").name == "PRA"
        assert model_for("Diffy").name == "Diffy"
        assert model_for("SCNN50").name == "SCNN50"
        assert model_for("SCNN").name == "SCNN"

    def test_unknown(self):
        with pytest.raises(ValueError):
            model_for("Eyeriss")

    @pytest.mark.parametrize("name", ["SCNNx", "SCNN-50", "SCNN5o"])
    def test_bad_scnn_suffix_is_an_unknown_accelerator(self, name):
        with pytest.raises(ValueError, match="unknown accelerator"):
            model_for(name)


class TestCollectTraces:
    def test_cached_and_deterministic(self):
        a = collect_traces("IRCNN", "Kodak24", count=1, crop=32)
        b = collect_traces("IRCNN", "Kodak24", count=1, crop=32)
        assert a is b
        assert len(a) == 1
        assert a[0].network == "IRCNN"

    @pytest.mark.parametrize("count", [0, -1, 1.0, 1.5, True])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match="count must be"):
            collect_traces("IRCNN", "Kodak24", count=count, crop=32)

    def test_simulate_network_rejects_zero_traces(self):
        with pytest.raises(ValueError, match="count must be > 0"):
            simulate_network("IRCNN", "Diffy", dataset_name="Kodak24", trace_count=0, crop=32)


class TestSimulateNetwork:
    @pytest.fixture(scope="class")
    def results(self):
        kw = dict(dataset_name="Kodak24", trace_count=1, crop=32, memory="DDR4-3200")
        return {
            "VAA": simulate_network("IRCNN", "VAA", scheme="NoCompression", **kw),
            "PRA": simulate_network("IRCNN", "PRA", **kw),
            "Diffy": simulate_network("IRCNN", "Diffy", **kw),
        }

    def test_result_structure(self, results):
        res = results["Diffy"]
        assert res.network == "IRCNN"
        assert res.accelerator == "Diffy"
        assert res.resolution == HD_RESOLUTION
        assert len(res.layers) == 7
        assert res.total_time_s > 0
        assert res.fps == pytest.approx(1 / res.total_time_s)

    def test_speedup_ordering(self, results):
        assert results["Diffy"].speedup_over(results["VAA"]) > 1.0
        assert results["Diffy"].speedup_over(results["PRA"]) > 1.0
        assert results["PRA"].speedup_over(results["VAA"]) > 1.0

    def test_layer_time_is_max_of_compute_and_memory(self, results):
        for layer in results["Diffy"].layers:
            assert layer.time_s == max(layer.compute_time_s, layer.mem_time_s)
            assert layer.stall_s == pytest.approx(
                max(0.0, layer.mem_time_s - layer.compute_time_s)
            )

    def test_fraction_partition(self, results):
        for layer in results["Diffy"].layers:
            total = layer.useful_fraction + layer.idle_fraction + layer.stall_fraction
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_ideal_memory_removes_stalls(self):
        res = simulate_network(
            "IRCNN", "Diffy", memory="Ideal",
            dataset_name="Kodak24", trace_count=1, crop=32,
        )
        assert res.stall_s == pytest.approx(0.0)

    def test_better_memory_never_slower(self):
        kw = dict(dataset_name="Kodak24", trace_count=1, crop=32)
        slow = simulate_network("IRCNN", "Diffy", memory="LPDDR3-1600", **kw)
        fast = simulate_network("IRCNN", "Diffy", memory="HBM2", **kw)
        assert fast.total_time_s <= slow.total_time_s

    def test_compression_helps_diffy(self):
        kw = dict(dataset_name="Kodak24", trace_count=1, crop=32, memory="LPDDR3-1600")
        none = simulate_network("IRCNN", "Diffy", scheme="NoCompression", **kw)
        delta = simulate_network("IRCNN", "Diffy", scheme="DeltaD16", **kw)
        assert delta.total_time_s < none.total_time_s

    def test_resolution_scaling(self):
        kw = dict(dataset_name="Kodak24", trace_count=1, crop=32, memory="Ideal")
        hd = simulate_network("IRCNN", "VAA", resolution=(1080, 1920), **kw)
        half = simulate_network("IRCNN", "VAA", resolution=(540, 960), **kw)
        assert hd.total_cycles == pytest.approx(4 * half.total_cycles, rel=0.01)

    def test_speedup_comparison_guard(self, results):
        other = simulate_network(
            "DnCNN", "VAA", dataset_name="Kodak24", trace_count=1, crop=32
        )
        with pytest.raises(ValueError):
            results["Diffy"].speedup_over(other)

    def test_traffic_positive(self, results):
        assert results["Diffy"].traffic_bytes > 0


class TestSimulateNetworkInputs:
    KW = dict(dataset_name="Kodak24", trace_count=1, crop=32)

    @pytest.mark.parametrize("resolution", [(0, 0), (-4, 10), (1080, 0)])
    def test_non_positive_resolution_is_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution (height|width) must be > 0"):
            simulate_network("IRCNN", "Diffy", resolution=resolution, **self.KW)

    def test_prebuilt_memory_with_channels_is_rejected(self):
        with pytest.raises(ValueError, match="prebuilt MemorySystem"):
            simulate_network(
                "IRCNN", "Diffy", memory=memory_system("DDR4-3200"), channels=2, **self.KW
            )

    def test_prebuilt_memory_equals_its_name(self):
        built = simulate_network("IRCNN", "Diffy", memory=memory_system("HBM2", 2), **self.KW)
        named = simulate_network("IRCNN", "Diffy", memory="HBM2", channels=2, **self.KW)
        assert built == named
