"""Integration tests for the experiment modules.

Each experiment runs with minimal workloads (one model, tiny traces) to
verify the plumbing end to end: parameters flow and results have the
right structure.  ``run_all`` renders every committed golden document in
full, and ``tests/test_paper_claims.py``
asserts the paper's shapes on the committed goldens.  ``run()`` has no
defaults for its scale knobs, so every call here names them.
"""

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.experiments import (
    ablations,
    ext_temporal,
    fig01_entropy,
    fig02_heatmaps,
    fig03_term_cdf,
    fig04_potential,
    fig05_footprint,
    fig11_speedup,
    fig12_utilization,
    fig13_fps_hd,
    fig14_traffic,
    fig15_memnodes,
    fig16_tiling,
    fig17_lowres,
    fig19_classification,
    fig20_scnn,
    run_all,
    table1_models,
    table3_precisions,
    table4_configs,
    table5_onchip,
    table6_power,
    table7_area,
)
from repro.experiments.profiles import FULL_PROFILE
from repro.regression.goldens import goldens_root, read_golden
from repro.regression.registry import EXPERIMENT_SPECS, ExperimentSpec
from repro.regression.serialize import canonical_dumps, to_jsonable
from repro.utils.rng import DEFAULT_SEED

ONE = ("IRCNN",)  # the smallest CI model: 7 layers
#: The scale knobs of a model-sweep ``run()``: one model, one trace, its own crop.
SMALL = dict(models=ONE, trace_count=1, crop=None, seed=DEFAULT_SEED)


class TestMotivationExperiments:
    def test_fig01(self):
        result = fig01_entropy.run(**SMALL)
        assert len(result.stats) == 1

    def test_fig02(self):
        result = fig02_heatmaps.run(
            model="IRCNN", layer_name="conv_2", crop=48, seed=DEFAULT_SEED
        )
        assert result.layer == "conv_2"

    def test_fig03(self):
        result = fig03_term_cdf.run(**SMALL)
        assert result.stats.hist_raw.sum() > 0

    def test_fig04(self):
        result = fig04_potential.run(**SMALL)
        assert result.mean_delta > result.mean_raw > 1.0

    def test_fig05(self):
        result = fig05_footprint.run(**SMALL)
        assert result.ratios["IRCNN"]["NoCompression"] == pytest.approx(1.0)


class TestStructureTables:
    def test_table1(self):
        rows = table1_models.run(models=ONE, seed=DEFAULT_SEED)
        assert rows[0].conv_layers == 7

    def test_table3(self):
        rows = table3_precisions.run(**SMALL)
        assert len(rows[0].precisions) == 7
        assert rows[0].max_precision <= 16

    def test_table4(self):
        configs = table4_configs.run()
        assert "Diffy" in configs


class TestPerformanceExperiments:
    def test_fig11(self):
        result = fig11_speedup.run(**SMALL, schemes=("DeltaD16", "Ideal"))
        row = result.rows[0]
        assert row.diffy["DeltaD16"] > 1.0
        assert result.per_layer == fig11_speedup.per_layer_diffy_over_pra(**SMALL)
        assert set(result.mean_speedup["Diffy"]) == {"DeltaD16", "Ideal"}

    def test_fig12(self):
        result = fig12_utilization.run(**SMALL)
        layers = result.networks["IRCNN"]
        assert len(layers) == 7

    def test_fig13(self):
        rows = fig13_fps_hd.run(**SMALL)
        assert rows[0].vaa_fps < rows[0].diffy_fps

    def test_table5(self):
        result = table5_onchip.run(**SMALL)
        assert result.am_bytes["DeltaD16"] < result.am_bytes["NoCompression"]
        assert result.wm_bytes > 0

    def test_fig14(self):
        result = fig14_traffic.run(**SMALL, schemes=("NoCompression", "DeltaD16"))
        assert result.ratios["IRCNN"]["DeltaD16"] < 1.0

    def test_fig15(self):
        result = fig15_memnodes.run(**SMALL, nodes=("LPDDR3-1600", "HBM2"))
        cells = result.grid["IRCNN"]
        assert (
            cells["HBM2"]["DeltaD16"].speedup_over_vaa
            >= cells["LPDDR3-1600"]["DeltaD16"].speedup_over_vaa
        )

    def test_table6(self):
        result = table6_power.run(**SMALL)
        assert result.efficiencies["Diffy"] > 1.0

    def test_table7(self):
        result = table7_area.run()
        assert result.ratios["Diffy"] < result.ratios["PRA"]

    def test_fig16(self):
        result = fig16_tiling.run(**SMALL, terms=(1, 16))
        assert result.mean_speedup[1] > result.mean_speedup[16]

    def test_fig17(self):
        result = fig17_lowres.run(**SMALL, resolutions=((240, 320), (480, 512)))
        fps = result.fps["IRCNN"]
        assert fps[(240, 320)] > fps[(480, 512)]

    def test_fig19(self):
        result = fig19_classification.run(
            models=("AlexNet",), trace_count=1, crop=None, seed=DEFAULT_SEED
        )
        assert result.rows[0].diffy_over_vaa > 1.0

    def test_fig20(self):
        result = fig20_scnn.run(**SMALL, sparsities=(0.0, 0.9))
        speeds = result.speedups["IRCNN"]
        assert speeds[0.0] >= speeds[0.9]


class TestAblations:
    def test_sync(self):
        result = ablations.run_sync(**SMALL)
        assert result.diffy["row"] >= result.diffy["pallet"]

    def test_axis(self):
        result = ablations.run_axis(**SMALL)
        assert 0.5 < result.y_over_x["IRCNN"] < 2.0

    def test_group_size(self):
        result = ablations.run_group_size(**SMALL)
        assert result.ratios["IRCNN"]["DeltaD16"] < 1.0

    def test_selective(self):
        results = ablations.run_selective(**SMALL)
        assert results[0].selective_cycles <= results[0].diffy_cycles


class TestTemporalExtension:
    def test_run_one(self):
        result = ext_temporal.run_one(model="IRCNN", crop=48, seed=DEFAULT_SEED, pan_px=0)
        assert result.temporal_speedup > result.spatial_speedup
        assert sum(result.mode_counts.values()) == 7

    def test_sweep(self):
        results = ext_temporal.run(model="IRCNN", crop=48, seed=DEFAULT_SEED, pans=(0, 4))
        assert results[0].temporal_speedup > results[1].temporal_speedup


class TestExtFaults:
    def test_campaign_over_real_traces(self):
        from repro.experiments import ext_faults

        result = ext_faults.run(
            model="DnCNN", crop=48, seed=DEFAULT_SEED, rates=(1e-3,), trials=1
        )
        assert result.stored_values > 0
        assert result.amplification, "campaign must produce comparable pairs"
        assert result.min_amplification > 3.0, (
            "delta storage must show measurably longer error runs than raw"
        )


class TestExtProtection:
    def test_protected_campaign_over_real_traces(self):
        from repro.experiments import ext_protection

        result = ext_protection.run(
            model="DnCNN",
            crop=48,
            seed=DEFAULT_SEED,
            rates=(1e-4,),
            fault_models=("flip1",),
            trials=1,
        )
        assert result.stored_values > 0
        assert result.raw_ecc_silent == 0, (
            "SECDED Raw16 must show zero silent corruptions under single flips"
        )
        assert result.keyframe_bound_ok, (
            "ECC-anchored keyframes must bound measured error runs to K"
        )
        assert result.full_ladder_overhead > 1.0
        # Protected schemes are priced in the paper's own comparisons.
        assert result.footprints["Raw16-ECC"] == pytest.approx(22 / 16)
        assert result.footprints["DeltaD16-P"] > result.footprints["DeltaD16"]


class TestRunAll:
    def test_registry_complete(self):
        # Every paper table/figure id is present.
        for key in (
            "table1", "fig01", "fig02", "fig03", "fig04", "fig05",
            "table3", "table4", "fig11", "fig12", "fig13", "table5",
            "fig14", "fig15", "table6", "table7", "fig16", "fig17",
            "fig18", "fig19", "fig20", "ablations", "ext_temporal",
            "ext_faults", "ext_protection", "ext_serving", "ext_fleet",
        ):
            assert key in run_all.EXPERIMENTS

    def test_filter_no_match(self, capsys):
        assert run_all.main(["definitely-not-an-experiment"]) == 2
        assert "no experiment matches" in capsys.readouterr().out

    def test_filtered_run(self, capsys):
        assert run_all.main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "filters_per_tile" in out and "done in" in out

    def test_report_is_the_full_profile_golden(self, capsys):
        """Each report renders ``compute("full")``, the document
        ``goldens/full`` pins, not a second set of ``run()`` defaults."""
        assert run_all.main(["table4", "table7"]) == 0
        out = capsys.readouterr().out
        for exp_id, module in (("table4", table4_configs), ("table7", table7_area)):
            result = to_jsonable(module.compute("full"))
            assert json.loads(canonical_dumps(result)) == read_golden(exp_id, "full")["result"]
            assert f"\n{run_all.render(result)}\n" in out
        assert "all 2 experiments passed" in out

    def test_report_computes_at_the_full_profile(self, capsys, monkeypatch):
        """table4 and table7 ignore the profile; a stand-in module shows
        which profile ``run_all`` hands to ``compute``."""
        seen = []
        stand_in = SimpleNamespace(
            compute=lambda profile: seen.append(profile) or {"profile": profile.name},
        )
        monkeypatch.setattr(ExperimentSpec, "load", lambda spec: stand_in)
        assert run_all.main(["fig11"]) == 0
        assert seen == [FULL_PROFILE]
        assert "\nprofile: full\n" in capsys.readouterr().out

    def test_keeps_going_past_failures(self, capsys, monkeypatch):
        """One broken experiment must not hide the others' reports."""
        ran = []

        def broken():
            raise RuntimeError("synthetic experiment crash")

        monkeypatch.setattr(
            run_all,
            "EXPERIMENTS",
            {"aaa_broken": broken, "bbb_fine": lambda: ran.append("bbb")},
        )
        exit_code = run_all.main([])
        out = capsys.readouterr().out
        assert exit_code == 1, "exit code counts the failed experiments"
        assert ran == ["bbb"], "later experiments still run"
        assert "aaa_broken FAILED" in out
        assert "synthetic experiment crash" in out
        assert "Traceback" in out, "summary must carry the traceback"
        assert "1 of 2 experiments failed" in out

    def test_all_pass_summary(self, capsys, monkeypatch):
        monkeypatch.setattr(run_all, "EXPERIMENTS", {"ok": lambda: None})
        assert run_all.main([]) == 0
        assert "all 1 experiments passed" in capsys.readouterr().out

    def test_exit_code_clamped_to_125(self, capsys, monkeypatch):
        """256 failures must not wrap an 8-bit exit status back to 0, and
        the clamp stays below the 126+ range POSIX reserves for the shell."""

        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(
            run_all,
            "EXPERIMENTS",
            {f"exp{i:03d}": broken for i in range(256)},
        )
        assert run_all.main([]) == 125
        capsys.readouterr()


#: Every committed golden document, both profiles.
GOLDEN_DOCUMENTS = sorted(goldens_root().glob("*/*.json"))


def _numeric_leaves(tree):
    """JSON text of every number in a golden tree (bools are not numbers)."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        for item in tree:
            yield from _numeric_leaves(item)
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield json.dumps(tree)


class TestRender:
    def test_layout(self):
        tree = {
            "rows": [
                {"network": "A", "speedup": {"PRA": 1, "Diffy": 2.5}},
                {"network": "B", "speedup": {"PRA": 3, "Diffy": 0.125}},
            ],
            "grid": {"A": {"x": 1, "y": [2, 3]}, "B": {"x": 4, "y": [5]}},
            "mean": 1.25,
            "bins": [1, 2],
            "matrix": [[1, 2], [3, 4]],
        }
        assert run_all.render(tree) == (
            "rows:\n"
            "  network  speedup/PRA  speedup/Diffy\n"
            "  A        1            2.5\n"
            "  B        3            0.125\n"
            "grid:\n"
            "     x  y\n"
            "  A  1  2 3\n"
            "  B  4  5\n"
            "mean: 1.25\n"
            "bins: 1 2\n"
            "matrix:\n"
            "  1 2\n"
            "  3 4"
        )

    def test_every_committed_golden_is_covered(self):
        assert len(GOLDEN_DOCUMENTS) == 2 * len(EXPERIMENT_SPECS)

    @pytest.mark.parametrize(
        "path", GOLDEN_DOCUMENTS, ids=lambda p: f"{p.parent.name}/{p.stem}"
    )
    def test_prints_every_numeric_leaf(self, path):
        """The report of a golden shows each of its numbers, as the
        golden's own text, with no compute."""
        result = json.loads(path.read_text())["result"]
        shown = Counter(run_all.render(result).split())
        missing = Counter(_numeric_leaves(result)) - shown
        assert not missing, f"{path.name}: not printed: {sorted(missing)[:10]}"


class TestPerLayerStatistic:
    def test_per_layer_diffy_over_pra(self):
        stats = fig11_speedup.per_layer_diffy_over_pra(**SMALL)
        # Paper IV-A: mean 1.42 +/- 0.32, no layer loses more than 10%.
        assert 1.1 < stats["mean"] < 2.0
        assert stats["std"] < 0.6
        assert stats["min"] > 0.85
        assert stats["fraction_slower"] < 0.25
