"""The correctness gate, the host-noise parser and the metric catalog."""

import dataclasses
import json
from pathlib import Path

import pytest

import host
import run
import workloads
from repro.arch.sim import LayerResult, NetworkResult
from repro.compression.traffic import LayerTraffic

ROOT = Path(__file__).resolve().parents[2]


def network_result(cycles: float = 1000.0) -> NetworkResult:
    traffic = LayerTraffic(name="conv1", index=0, imap_bytes=10.0, omap_bytes=20.0,
                           weight_bytes=30.0)
    layer = LayerResult(name="conv1", index=0, windows=64, compute_cycles=cycles,
                        compute_time_s=cycles / 1e9, mem_time_s=2e-7, utilization=0.5,
                        traffic=traffic)
    return NetworkResult(network="DnCNN", accelerator="Diffy", scheme="DeltaD16",
                         memory="DDR4-3200", resolution=(1080, 1920), frequency_ghz=1.0,
                         layers=(layer,))


def unit(uid, result, failures=()):
    return {"id": uid, "fingerprints": {uid: workloads.fingerprint(result)},
            "failures": list(failures)}


def test_identical_result_passes_the_gate():
    ref = {"DnCNN/Diffy/DeltaD16": workloads.fingerprint(network_result())}
    assert run.check_units([unit("DnCNN/Diffy/DeltaD16", network_result())], ref) == []


def test_perturbed_result_fails_the_gate():
    ref = {"DnCNN/Diffy/DeltaD16": workloads.fingerprint(network_result())}
    base = network_result()
    layer = dataclasses.replace(base.layers[0], compute_cycles=1001.0)
    perturbed = dataclasses.replace(base, layers=(layer,))
    failures = run.check_units([unit("DnCNN/Diffy/DeltaD16", perturbed)], ref)
    assert len(failures) == 1 and "fingerprint" in failures[0]


def test_unit_check_failures_and_unknown_results_fail():
    ref = {"L00/plain": workloads.fingerprint("abc")}
    assert run.check_units([unit("L00/plain", "abc", ["inexact round trip"])], ref)
    assert run.check_units([unit("L01/plain", "abc")], ref)


def test_a_result_without_a_recorded_reference_fails():
    failures = run.check_units([unit("DnCNN/Diffy/DeltaD16", network_result())], {})
    assert len(failures) == 1 and "no recorded reference" in failures[0]


def test_recording_keeps_first_results_so_a_disagreeing_pass_fails():
    units = [
        {"id": "prepare", "fingerprints": {"a": "1"}, "failures": []},
        {"id": "a", "fingerprints": {"a": "2", "b": "3"}, "failures": []},
    ]
    ref = run.first_results(units)
    assert ref == {"a": "1", "b": "3"}
    assert run.check_units(units, ref) == ["a: a: fingerprint 2 != reference 1"]


def test_every_input_set_of_every_group_is_recorded():
    doc = json.loads(run.REFERENCE.read_text())
    groups = {group for group, _prepare, _unit in run.WORKLOADS.values()}
    for group in groups:
        assert sorted(doc[group], key=int) == [str(i) for i in range(run.INPUT_SETS)]
        sizes = {len(entry) for entry in doc[group].values()}
        assert len(sizes) == 1 and sizes.pop() > 0


PROC_STAT = """cpu  51106 7 7466 1760192 371 3 88 16213 40 0
cpu0 20918 0 4260 883418 343 0 69 12372 0 0
intr 522804 0 0
"""


def test_proc_stat_parser_reads_the_aggregate_line():
    ticks = host.parse_proc_stat(PROC_STAT)
    assert ticks.busy == 51106 + 7 + 7466 + 3 + 88
    assert ticks.idle == 1760192 + 371
    assert ticks.steal == 16213
    assert ticks.total == ticks.busy + ticks.idle + ticks.steal  # guest not double counted


def test_steal_fraction_is_share_of_all_ticks_between_readings():
    before = host.CpuTicks(busy=100, idle=100, steal=0)
    after = host.CpuTicks(busy=160, idle=120, steal=20)
    assert host.steal_fraction(before, after) == pytest.approx(20 / 100)
    assert host.steal_fraction(after, after) == 0.0


def test_proc_stat_parser_rejects_text_without_cpu_line():
    with pytest.raises(ValueError):
        host.parse_proc_stat("intr 1 2 3\n")


def test_nearest_rank_percentile():
    values = list(range(1, 21))
    assert run.percentile(values, 0.5) == 10
    assert run.percentile(values, 0.9) == 18
    assert run.percentile([7.0], 0.9) == 7.0


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
