"""The paper's shape claims, asserted on the committed goldens.

Goldens pin values; the tests here pin what those values must say, so a
regenerated golden that breaks a claim fails tier-1.  Each test names the
paper figure or table it checks and runs once per committed profile
(``goldens/ci`` and ``goldens/full``).  A derived value (a geomean, a
scheme mean, a real-time limit, Fig 3's CDFs) comes from the experiment's
own result class, rebuilt from the golden's fields.

The serving, fleet, chaos, drift and weight gates at the end sweep grids
that no golden holds, so they simulate here, at the reduced grid and at
the wider one.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.spatial import HeatmapData
from repro.analysis.terms import TermStats
from repro.arch.config import AcceleratorConfig
from repro.arch.metrics import ScalingChoice
from repro.experiments import ext_drift
from repro.experiments.ablations import AxisAblationResult
from repro.experiments.fig02_heatmaps import Fig2Result
from repro.experiments.fig05_footprint import Fig5Result
from repro.experiments.fig11_speedup import Fig11Result, Fig11Row
from repro.experiments.fig12_utilization import Fig12Result, LayerUtilization
from repro.experiments.fig14_traffic import Fig14Result
from repro.experiments.fig15_memnodes import Fig15Cell, Fig15Result
from repro.experiments.fig16_tiling import Fig16Result
from repro.experiments.fig17_lowres import Fig17Result
from repro.experiments.fig20_scnn import Fig20Result
from repro.models.registry import prepare_model
from repro.regression.goldens import golden_path, read_golden
from repro.regression.registry import EXPERIMENT_SPECS
from repro.serve.chaos.campaign import chaos_grid, run_chaos_grid
from repro.serve.chaos.schedule import ChaosSpec, generate_schedule, overload_requests
from repro.serve.fleet import FleetConfig, simulate_fleet
from repro.serve.latency import measure_service_times
from repro.serve.service import ServeConfig, serve_workload
from repro.serve.workload import WorkloadSpec, apply_scene_dynamics, generate_requests
from repro.utils.rng import DEFAULT_SEED
from repro.weights import MSRCodec, network_int8_weights, network_weight_bits
from tests import oracles

#: The committed golden profiles every claim is checked against.
PROFILE_NAMES = ("ci", "full")

#: Every experiment whose golden a claim below reads.
CLAIMED_EXPERIMENTS = (
    "table1",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "table3",
    "table4",
    "fig11",
    "fig12",
    "fig13",
    "table5",
    "fig14",
    "fig15",
    "table6",
    "table7",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "ablations",
    "ext_temporal",
    "ext_weights",
)


@pytest.fixture(params=PROFILE_NAMES)
def profile(request) -> str:
    return request.param


def golden(exp_id: str, profile: str):
    """The ``result`` tree of one committed golden; fails, never skips."""
    assert exp_id in CLAIMED_EXPERIMENTS, f"{exp_id} is missing from CLAIMED_EXPERIMENTS"
    doc = read_golden(exp_id, profile)
    assert doc is not None, f"no golden at {golden_path(exp_id, profile)}"
    return doc["result"]


def rebuild(cls, data: dict):
    """An instance of result class ``cls`` from its golden dict.

    Serialized derived properties are dropped; the rebuilt instance
    derives them again with the library's own code.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})


def rekey(per_model: dict, key) -> dict:
    """``{model: {key(k): v}}``: golden mapping keys (strings) back to ``key``'s type."""
    return {model: {key(k): v for k, v in d.items()} for model, d in per_model.items()}


def test_every_claimed_experiment_has_a_golden_in_both_profiles():
    named = set(re.findall(r'golden\("(\w+)"', Path(__file__).read_text()))
    assert named == set(CLAIMED_EXPERIMENTS)
    for exp_id in CLAIMED_EXPERIMENTS:
        assert exp_id in EXPERIMENT_SPECS, exp_id
        for profile in PROFILE_NAMES:
            doc = read_golden(exp_id, profile)
            assert doc is not None, f"no golden at {golden_path(exp_id, profile)}"
            assert doc["experiment"] == exp_id
            assert doc["profile"]["name"] == profile


# ---------------------------------------------------------------------------
# Characterization: Table I, Figs 1-5, Table III
# ---------------------------------------------------------------------------


def test_table1_models(profile):
    by_net = {r["network"]: r for r in golden("table1", profile)}
    # Table I layer counts.
    assert by_net["DnCNN"]["conv_layers"] == 20
    assert by_net["FFDNet"]["conv_layers"] == 10
    assert by_net["IRCNN"]["conv_layers"] == 7
    assert by_net["JointNet"]["conv_layers"] == 19
    assert by_net["VDSR"]["conv_layers"] == 20
    # Max per-layer filter storage: FFDNet 162KB, JointNet 144KB.
    assert round(by_net["FFDNet"]["max_layer_filter_kb"]) == 162
    assert round(by_net["JointNet"]["max_layer_filter_kb"]) == 144


def test_fig01_entropy(profile):
    result = golden("fig01", profile)
    # Fig 1's claim: both conditional and delta entropies compress H(A).
    assert result["mean_compression_conditional"] > 1.0
    assert result["mean_compression_delta"] > 1.0
    for stats in result["stats"]:
        assert stats["h_conditional"] <= stats["h_raw"] + 1e-9
        assert stats["h_delta"] < stats["h_raw"]


def test_fig02_heatmaps(profile):
    g = golden("fig02", profile)
    maps = {k: np.asarray(v) if isinstance(v, list) else v for k, v in g["heatmaps"].items()}
    result = Fig2Result(model=g["model"], layer=g["layer"], heatmaps=rebuild(HeatmapData, maps))
    hm = result.heatmaps
    # Paper: deltas are much smaller than raw values; processing them
    # reduces work; edges (negative reduction) are a minority of pixels.
    assert hm.delta.mean() < hm.raw.mean()
    assert hm.mean_terms_delta < hm.mean_terms_raw
    assert hm.potential_work_reduction > 1.0
    assert result.edge_fraction_negative < 0.5


def test_fig03_term_cdf(profile):
    g = golden("fig03", profile)["stats"]
    stats = TermStats(hist_raw=np.asarray(g["hist_raw"]), hist_delta=np.asarray(g["hist_delta"]))
    # Paper: ~43% raw sparsity; delta CDF dominates beyond the small bins;
    # deltas carry fewer mean terms.
    assert 0.3 < stats.sparsity_raw < 0.7
    assert stats.mean_terms_delta < stats.mean_terms_raw
    assert np.all(stats.cdf_delta[2:] >= stats.cdf_raw[2:] - 1e-12)


def test_fig04_potential(profile):
    potentials = golden("fig04", profile)["potentials"]
    # DeltaE beats RawE for every network; both beat ALL handily.
    for pot in potentials:
        assert pot["delta_effectual"] > pot["raw_effectual"] > 2.0
    # VDSR is the sparsity outlier with the highest potential.
    by_net = {p["network"]: p for p in potentials}
    assert by_net["VDSR"]["raw_effectual"] == max(p["raw_effectual"] for p in potentials)


def test_fig05_footprint(profile):
    result = rebuild(Fig5Result, golden("fig05", profile))
    # Paper's ordering on average: DeltaD16 < RawD16 < Profiled < 16b.
    assert (
        result.scheme_means["DeltaD16"]
        < result.scheme_means["RawD16"]
        < result.scheme_means["Profiled"]
        < 1.0
    )
    # RLE variants are far less effective than the dynamic schemes.
    assert result.scheme_means["RLEz"] > result.scheme_means["RawD16"]


def test_table3_precisions(profile):
    layers = {"DnCNN": 20, "FFDNet": 10, "IRCNN": 7, "JointNet": 19, "VDSR": 20}
    for row in golden("table3", profile):
        # The paper's band: every layer profiles well inside the 16b word.
        assert 4 <= min(row["precisions"])
        assert max(row["precisions"]) <= 14
        assert len(row["precisions"]) == layers[row["network"]]


def test_table4_configs(profile):
    configs = {k: rebuild(AcceleratorConfig, v) for k, v in golden("table4", profile).items()}
    assert set(configs) == {"VAA", "PRA", "Diffy"}
    for cfg in configs.values():
        assert cfg.peak_macs_per_cycle == 1024
        assert cfg.frequency_ghz == 1.0


# ---------------------------------------------------------------------------
# Performance: Figs 11-13
# ---------------------------------------------------------------------------


def test_fig11_speedup(profile):
    g = golden("fig11", profile)
    result = Fig11Result(
        rows=tuple(rebuild(Fig11Row, r) for r in g["rows"]),
        memory=g["memory"],
        per_layer=g["per_layer"],
    )
    diffy = result.mean_speedup["Diffy"]["DeltaD16"]
    pra = result.mean_speedup["PRA"]["DeltaD16"]
    # The paper's headline shape: Diffy > PRA > 1, a >1.2x gap between
    # them, and DeltaD16 recovering nearly all of the Ideal performance.
    assert diffy > pra > 2.0
    assert 1.15 < diffy / pra < 1.8
    assert diffy >= 0.9 * result.mean_speedup["Diffy"]["Ideal"]
    # Compression matters: NoCompression leaves performance on the table.
    assert result.mean_speedup["Diffy"]["NoCompression"] < diffy
    # VDSR is the top speedup (high activation sparsity).
    by_net = {r.network: r for r in result.rows}
    assert by_net["VDSR"].diffy["DeltaD16"] == max(r.diffy["DeltaD16"] for r in result.rows)


def test_fig11_per_layer_diffy_over_pra(profile):
    stats = golden("fig11", profile)["per_layer"]
    # Paper IV-A: per layer, Diffy/PRA is "fairly uniform with a mean of
    # 1.42x and a standard deviation of 0.32"; Diffy loses to PRA only on
    # a few noncritical layers, by at most 10%.
    assert 1.1 < stats["mean"] < 2.0
    assert stats["std"] < 0.6
    assert stats["min"] > 0.85
    assert stats["fraction_slower"] < 0.25


def test_fig12_utilization(profile):
    networks = golden("fig12", profile)["networks"]
    result = Fig12Result(
        networks={n: [rebuild(LayerUtilization, lay) for lay in ls] for n, ls in networks.items()}
    )
    dncnn = result.networks["DnCNN"]
    # That the fractions partition each layer to 1e-9 needs unrounded
    # values; 9 significant digits per fraction cannot carry it, so it is
    # tests/test_arch_energy_sim.py::TestSimulateNetwork::test_fraction_partition.
    # Paper: first layer mostly idle (3-of-16 activation lanes), last layer
    # mostly idle (3-of-64 filter lanes), and VDSR idle-dominated overall.
    assert dncnn[0].idle > 0.5
    assert dncnn[-1].idle > 0.8
    assert result.network_useful_mean("VDSR") < result.network_useful_mean("DnCNN")


def test_fig13_fps_hd(profile):
    rows = golden("fig13", profile)
    by_net = {r["network"]: r for r in rows}
    # Paper band: VAA 0.7-3.9 FPS at HD; ordering VAA < PRA < Diffy.
    for row in rows:
        assert 0.3 < row["vaa_fps"] < 6.0
        assert row["vaa_fps"] < row["pra_fps"] < row["diffy_fps"]
    # DnCNN is the heaviest model (paper: it needs the biggest scale-up).
    assert by_net["DnCNN"]["diffy_fps"] == min(r["diffy_fps"] for r in rows)


# ---------------------------------------------------------------------------
# Storage and traffic: Table V, Figs 14-15
# ---------------------------------------------------------------------------


def test_table5_onchip(profile):
    result = golden("table5", profile)
    am = result["am_bytes"]
    # Paper ordering and rough magnitudes (964/782/514/348 KB).
    assert am["DeltaD16"] < am["RawD16"] < am["Profiled"] < am["NoCompression"]
    assert 800 * 1024 < am["NoCompression"] < 1200 * 1024
    # WM is exactly the paper's 324KB (double-buffered FFDNet layer).
    assert result["wm_bytes"] == 324 * 1024


def test_fig14_traffic(profile):
    result = rebuild(Fig14Result, golden("fig14", profile))
    mean = result.scheme_means
    # Paper's qualitative ordering: dynamic schemes beat Profiled beat RLE;
    # finer raw groups help; DeltaD16 at least matches RawD16.
    assert mean["DeltaD16"] <= mean["RawD16"] + 1e-9
    assert mean["RawD8"] < mean["RawD256"]
    assert mean["RawD16"] < mean["Profiled"] < 1.0
    assert mean["RLEz"] > mean["RawD16"]
    # VDSR compresses best (highest sparsity), as in the paper.
    assert result.ratios["VDSR"]["RawD16"] == min(r["RawD16"] for r in result.ratios.values())


def test_fig15_memnodes(profile):
    g = golden("fig15", profile)
    grid = {}
    for model, per_node in g["grid"].items():
        grid[model] = {
            node: {scheme: rebuild(Fig15Cell, cell) for scheme, cell in cells.items()}
            for node, cells in per_node.items()
        }
    result = Fig15Result(grid=grid, nodes=tuple(g["nodes"]), schemes=tuple(g["schemes"]))
    for model, per_node in result.grid.items():
        # Faster memory never hurts; DeltaD16 never loses to NoCompression.
        for scheme in result.schemes:
            speeds = [per_node[n][scheme].speedup_over_vaa for n in result.nodes]
            assert speeds == sorted(speeds), (model, scheme)
        for node in result.nodes:
            assert (
                per_node[node]["DeltaD16"].speedup_over_vaa
                >= per_node[node]["NoCompression"].speedup_over_vaa - 1e-9
            )
        # Paper: with DeltaD16 and LPDDR4-3200+, performance is near max.
        assert per_node["LPDDR4-3200"]["DeltaD16"].fraction_of_max > 0.85
        assert per_node["HBM2"]["DeltaD16"].fraction_of_max > 0.97


# ---------------------------------------------------------------------------
# Energy and area: Tables VI-VII
# ---------------------------------------------------------------------------


def test_table6_power(profile):
    result = golden("table6", profile)
    # Paper: both value-aware designs are more energy efficient than VAA,
    # and Diffy beats PRA (1.83x vs 1.34x).
    assert result["efficiencies"]["Diffy"] > result["efficiencies"]["PRA"] > 1.0
    assert result["efficiencies"]["Diffy"] == pytest.approx(1.83, rel=0.35)
    # Component totals match the calibrated layout tables.
    assert result["breakdowns"]["Diffy"]["total"] == pytest.approx(13.55, abs=0.1)
    assert result["breakdowns"]["VAA"]["total"] == pytest.approx(3.52, abs=0.1)


def test_table7_area(profile):
    result = golden("table7", profile)
    # Diffy's area overhead (1.24x) is below PRA's (1.33x).
    assert 1.1 < result["ratios"]["Diffy"] < result["ratios"]["PRA"] < 1.5
    assert result["breakdowns"]["VAA"]["total"] == pytest.approx(23.56, abs=0.1)


# ---------------------------------------------------------------------------
# Sensitivity and scaling: Figs 16-20
# ---------------------------------------------------------------------------


def test_fig16_tiling(profile):
    g = golden("fig16", profile)
    result = Fig16Result(speedups=rekey(g["speedups"], int), terms=tuple(g["terms"]))
    # Paper: T_1 removes cross-lane sync, lifting the mean speedup
    # (7.1x -> 11.9x, a ~1.7x uplift); monotone in between.
    t1, t4, t16 = (result.mean_speedup[t] for t in (1, 4, 16))
    assert t1 > t4 > t16
    assert 1.3 < t1 / t16 < 2.3


def test_fig17_lowres(profile):
    g = golden("fig17", profile)
    result = Fig17Result(
        fps=rekey(g["fps"], lambda k: tuple(map(int, k.split(",")))),
        resolutions=tuple(map(tuple, g["resolutions"])),
    )
    for model, per_res in result.fps.items():
        fps = [per_res[r] for r in result.resolutions]
        # FPS decreases with resolution.
        assert all(a >= b for a, b in zip(fps, fps[1:])), model
    # Paper: real-time is reachable at low resolutions for every model;
    # DnCNN is the most constrained.
    assert result.real_time_limit_mp["IRCNN"] > 0.0
    assert result.real_time_limit_mp["DnCNN"] <= result.real_time_limit_mp["IRCNN"]


def test_fig18_scaling(profile):
    grid = {
        model: {s: cell and rebuild(ScalingChoice, cell) for s, cell in per_scheme.items()}
        for model, per_scheme in golden("fig18", profile)["grid"].items()
    }
    dncnn = grid["DnCNN"]
    ircnn = grid["IRCNN"]
    # 30 FPS HD is reachable for both under DeltaD16.
    assert dncnn["DeltaD16"] is not None
    assert ircnn["DeltaD16"] is not None
    assert dncnn["DeltaD16"].fps >= 30.0
    # Paper: DnCNN is the most demanding model (32 tiles vs IRCNN's 12).
    assert dncnn["DeltaD16"].tiles >= ircnn["DeltaD16"].tiles
    # Compression never increases the required tile count.
    if dncnn["NoCompression"] is not None:
        assert dncnn["DeltaD16"].tiles <= dncnn["NoCompression"].tiles


def test_fig19_classification(profile):
    result = golden("fig19", profile)
    # Paper: differential convolution does not degrade classification
    # models — Diffy still beats VAA by a lot, and at least matches PRA
    # overall, with the early layers clearly ahead (> 2.1x in the paper).
    assert result["mean_over_vaa"] > 2.0
    assert result["mean_over_pra"] > 0.95
    assert result["mean_first_layer_over_pra"] > 1.2


def test_fig20_scnn(profile):
    g = golden("fig20", profile)
    result = Fig20Result(speedups=rekey(g["speedups"], float), sparsities=tuple(g["sparsities"]))
    means = [result.mean_speedup[s] for s in result.sparsities]
    # Paper: Diffy wins at every sparsity level (5.4x .. 1.04x), with the
    # advantage shrinking monotonically as SCNN's models get sparser.
    assert all(m >= 0.9 for m in means)
    assert means[0] > means[-1]
    assert means == sorted(means, reverse=True)
    assert means[0] > 2.5


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md) and the spatio-temporal extension
# ---------------------------------------------------------------------------


def test_ablation_sync(profile):
    result = golden("ablations", profile)["sync"]
    # Coarser synchronization always costs performance.
    assert result["diffy"]["row"] >= result["diffy"]["lane"] >= result["diffy"]["pallet"]
    assert result["pra"]["row"] >= result["pra"]["lane"] >= result["pra"]["pallet"]
    # Diffy keeps its edge over PRA at every granularity.
    for sync in ("row", "lane", "column", "pallet"):
        assert result["diffy"][sync] > result["pra"][sync]


def test_ablation_axis(profile):
    result = rebuild(AxisAblationResult, golden("ablations", profile)["axis"])
    # Section III-C: either dimension works; cycles within ~25%.
    for model in result.cycles:
        assert 0.75 < result.y_over_x[model] < 1.35


def test_ablation_group_size(profile):
    for ratios in golden("ablations", profile)["group_size"]["ratios"].values():
        # Finer delta groups fit better despite extra headers (paper:
        # DeltaD16 beats DeltaD256).
        assert ratios["DeltaD16"] < ratios["DeltaD256"]


def test_ablation_selective(profile):
    for r in golden("ablations", profile)["selective"]:
        # Paper: reverting per layer never hurts and helps below ~1%.
        assert 0.0 <= r["improvement_over_diffy"] < 0.05
        assert r["selective_cycles"] <= r["diffy_cycles"]
        assert r["selective_cycles"] <= r["pra_cycles"]


def test_ext_temporal(profile):
    results = golden("ext_temporal", profile)
    static, fast = results[0], results[-1]
    assert static["pan_px"] == 0
    # Static scenes: temporal deltas dominate; combined picks them up.
    assert static["temporal_speedup"] > static["spatial_speedup"]
    assert static["combined_speedup"] >= static["temporal_speedup"] - 1e-9
    # Fast panning: spatial processing is the robust choice.
    assert fast["spatial_speedup"] > fast["temporal_speedup"]
    # The combined mode never loses to either pure mode.
    for r in results:
        assert r["combined_speedup"] >= max(r["spatial_speedup"], r["temporal_speedup"]) - 1e-9


# ---------------------------------------------------------------------------
# Serving, fleet, chaos, drift and weight gates.  No golden holds these
# grids, so each simulates here on one shared IRCNN service-time
# measurement, at the reduced grid and, where there is one, the wider grid.
# ---------------------------------------------------------------------------

GATE_MODEL = "IRCNN"
GATE_CROP = 48
WORKERS = 2


@pytest.fixture(scope="module")
def service_times():
    return measure_service_times(GATE_MODEL, crop=GATE_CROP, seed=DEFAULT_SEED)


def _workload(unit: float, offered_rps: float, duration_units: float, frames: int):
    spec = WorkloadSpec(
        duration_s=duration_units * unit,
        session_rate=offered_rps / frames,
        frames_per_session=frames,
        frame_interval_s=2.0 * unit,
        seed=DEFAULT_SEED,
    )
    return spec, generate_requests(spec)


def test_serving_diffy_goodput_never_below_vaa(service_times):
    """Fig 11's speedup restated as service: Diffy out-serves VAA at equal load."""
    unit = service_times["VAA"].cold_s
    for factor in (0.5, 1.0, 1.5, 2.0):
        spec, requests = _workload(unit, factor * WORKERS / unit, 40.0, frames=6)
        config = ServeConfig(
            workers=WORKERS,
            max_batch=4,
            max_wait_s=0.25 * unit,
            queue_capacity=16,
            deadline_s=4.0 * unit,
            state_capacity_bytes=8 * service_times["VAA"].state_bytes,
        )
        vaa, diffy = (
            serve_workload(requests, service_times[e], config, spec.duration_s).goodput_rps
            for e in ("VAA", "Diffy")
        )
        assert not diffy < vaa, f"load {factor}x: Diffy {diffy:.3f} < VAA {vaa:.3f} rps"


@pytest.mark.parametrize("full", (False, True), ids=("smoke", "full"))
def test_fleet_goodput_scales_and_routing_keeps_state_warm(service_times, full):
    """Fleet gates: goodput is monotone in node count for both engines, and
    Diffy's warm fraction obeys ``state_aware >= hash >= random``.  (The
    pooled == serial byte identity is ``tests/test_fleet.py::
    TestFleetSimulation::test_worker_count_invariant``.)"""
    frames = 6
    unit = service_times["VAA"].cold_s
    node_counts = (1, 2, 4, 8, 16) if full else (1, 2, 4, 8)
    ref_nodes = node_counts[len(node_counts) // 2]
    spec, requests = _workload(
        unit, 1.4 * ref_nodes * WORKERS / unit, 80.0 if full else 40.0, frames
    )
    node_config = ServeConfig(
        workers=WORKERS,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=16,
        deadline_s=4.0 * unit,
        state_capacity_bytes=8 * service_times["VAA"].state_bytes,
    )

    def fleet(engine, policy, nodes):
        config = FleetConfig(
            nodes=nodes,
            routing=policy,
            node=node_config,
            session_ttl_s=(2.0 * frames + 8.0) * unit,
            seed=DEFAULT_SEED,
        )
        return simulate_fleet(requests, service_times[engine], config, spec.duration_s)

    for engine in ("VAA", "Diffy"):
        curve = [fleet(engine, "state_aware", n).goodput_rps for n in node_counts]
        for i in range(1, len(curve)):
            assert not curve[i] < curve[i - 1], (engine, node_counts[i], curve)
    # Gated on Diffy only: VAA's warm state buys no speedup, so under deep
    # overload its warm fraction reflects shed patterns, not routing.
    warm = {
        p: fleet("Diffy", p, ref_nodes).warm_fraction for p in ("random", "hash", "state_aware")
    }
    assert warm["state_aware"] >= warm["hash"] >= warm["random"], warm


#: Chaos-gate thresholds (lower bounds on retained goodput).  Measured, the
#: chaos cell *exceeds* the no-chaos baseline — a crash sheds queued
#: requests that would have missed their deadline anyway — and the worst
#: full-ladder fault tax is ~1%.  The bounds absorb scheduling
#: discreteness at other crops/seeds while still catching a protection
#: ladder that melts under load.
MAX_CHAOS_LOSS = 0.25
MAX_FAULT_LOSS = 0.15


@pytest.mark.parametrize("full", (False, True), ids=("smoke", "full"))
def test_chaos_full_ladder_is_never_silent_and_keeps_goodput(service_times, full):
    """Chaos gates under the ``full`` protection ladder: zero silent
    corruptions at every fault rate, a bounded goodput tax for the chaos
    (crash, degrade, burst) and for the faults.  Each grid point draws
    its faults from its own coordinate, so only the gated ladder runs."""
    frames, engine = 8, "Diffy"
    rates = (0.0, 1e-3, 3e-3, 1e-2) if full else (0.0, 1e-3)
    nodes = 4 if full else 2
    times = {e: service_times[e] for e in ("VAA", engine)}
    unit = times["VAA"].cold_s
    provision_s = min(t.cold_s for t in times.values())
    spec, requests = _workload(unit, 1.15 * nodes * WORKERS / provision_s, 40.0, frames)
    requests = apply_scene_dynamics(
        requests, cut_probability=0.02, burst_probability=0.05, seed=DEFAULT_SEED
    )
    template = ChaosSpec(
        fault_model="flip1",
        crashes=1,
        crash_downtime_s=4.0 * unit,
        degrades=1,
        degrade_len_s=6.0 * unit,
        degrade_slowdown=2.0,
        bursts=1,
        burst_len_s=6.0 * unit,
        burst_fault_mult=10.0,
        burst_load_mult=1.5,
        seed=DEFAULT_SEED,
    )
    schedule = generate_schedule(template, spec.duration_s, range(nodes))
    extra = overload_requests(spec, schedule, first_session_id=10**6)
    merged = sorted(
        list(requests) + extra, key=lambda r: (r.arrival_s, r.session_id, r.frame_index)
    )
    node_config = ServeConfig(
        workers=WORKERS,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=32,
        deadline_s=2.5 * unit,
        state_capacity_bytes=48 * times[engine].state_bytes,
    )
    ttl = (2.0 * frames + 8.0) * unit
    fleet_config = FleetConfig(
        nodes=nodes, routing="state_aware", node=node_config, session_ttl_s=ttl, seed=DEFAULT_SEED
    )
    base = simulate_fleet(merged, times[engine], fleet_config, spec.duration_s).goodput_rps
    grid = run_chaos_grid(
        merged,
        times,
        chaos_grid((engine,), ("full",), rates),
        template,
        node_config,
        spec.duration_s,
        nodes=nodes,
        session_ttl_s=ttl,
        seed=DEFAULT_SEED,
    )
    full_cells = grid.cells
    assert [c.rate for c in full_cells] == list(rates)
    for c in full_cells:
        assert not c.storage_silent, f"{c.storage_silent} silent corruptions at rate {c.rate:g}"
    fault_free = next(c for c in full_cells if c.rate == 0.0)
    floor = (1.0 - MAX_CHAOS_LOSS) * base
    assert not fault_free.goodput_rps < floor, (fault_free.goodput_rps, base)
    fault_floor = (1.0 - MAX_FAULT_LOSS) * fault_free.goodput_rps
    for c in full_cells:
        assert not c.goodput_rps < fault_floor, (c.rate, c.goodput_rps, fault_floor)


#: Adaptive traffic must stay strictly under this fraction of the raw
#: 16-bit ceiling at every drift magnitude.  Measured, the worst adaptive
#: cell sits near 0.86 (IRCNN's profiled widths are wider than DnCNN's to
#: start with, and fallback frames plus recalibrated tables cost some
#: compression on top); 0.93 catches a loop that heals by simply going
#: wide while absorbing crop/seed variation.
MAX_TRAFFIC_RATIO = 0.93


@pytest.mark.parametrize(
    "magnitudes, nodes",
    [((1.0, 1.8), ext_drift.CI_NODES), ((1.0, 2.0, 2.5), ext_drift.FULL_NODES)],
    ids=("smoke", "full"),
)
def test_drift_adaptive_loop_never_clips_and_recovers(magnitudes, nodes):
    """Drift gates (IRCNN, whose profiled widths carry more headroom than
    DnCNN's, so its smallest clipping magnitude is higher than the
    ``ext_drift`` golden's): the adaptive loop serves zero clipped values,
    static calibration does clip (else the sweep is soft), every drifting
    cell recovers within the grace window, and traffic stays compressed."""
    result = ext_drift.run(
        model=GATE_MODEL, crop=GATE_CROP, magnitudes=magnitudes, nodes=nodes, seed=DEFAULT_SEED
    )
    for c in result.cells:
        if c.mode != "static":
            assert not c.clipped_values_served, (c.mode, c.magnitude)
    static = {c.magnitude: c for c in result.cells if c.mode == "static"}
    for m in result.magnitudes:
        if m > 1.0:
            assert static[m].clipped_values_served, f"static did not clip at x{m:g}"
    assert result.recovery
    for key, r in result.recovery.items():
        assert r["recovered"], (key, r)
    for c in result.cells:
        if c.mode == "adaptive":
            assert not c.traffic_ratio_vs_wide >= MAX_TRAFFIC_RATIO, c.magnitude


#: Every model's calibrated INT8 weights must keep at least this fraction
#: inside the MSR-4 in-band range.  Measured: DnCNN 0.99995, IRCNN 0.99993,
#: FFDNet 0.9969; 0.95 catches a calibration regression without tripping
#: on model-to-model variation.
MIN_COVERAGE = 0.95


@pytest.mark.parametrize("model", ("DnCNN", "IRCNN", "FFDNet"))
def test_weights_msr_coverage_and_spec_identity(model):
    """MSR weight gates: calibrated coverage, and on the largest layer the
    production codec emits the ``tests/oracles`` spec's bytes and decodes
    losslessly."""
    codec = MSRCodec(bits=8, max_msr=4, column_size=256)
    table = network_int8_weights(prepare_model(model, DEFAULT_SEED))
    flat = np.concatenate([ints for ints, _scale in table.values()])
    assert not codec.coverage(flat) < MIN_COVERAGE
    largest = max(table.values(), key=lambda t: t[0].size)[0]
    ref = oracles.msr_encode(largest, codec.bits, codec.max_msr, codec.column_size, codec.checksum)
    vec = codec.encode(largest)
    assert ref.data == vec.data and ref.bits == vec.bits
    assert np.array_equal(codec.decode(vec), largest)


@pytest.mark.parametrize("model", ("IRCNN", "FFDNet"))
def test_weights_msr4w_below_raw8w(model):
    """MSR4W compacts below Raw8W (DnCNN: ``test_ext_weights_msr4w_below_raw8w``)."""
    net = prepare_model(model, DEFAULT_SEED)
    bits = {s: sum(network_weight_bits(net, s).values()) for s in ("Raw8W", "MSR4W")}
    assert not bits["MSR4W"] >= bits["Raw8W"], bits


def test_ext_weights_msr4w_below_raw8w(profile):
    bits = golden("ext_weights", profile)["scheme_bits"]
    assert not bits["MSR4W"] >= bits["Raw8W"], bits
