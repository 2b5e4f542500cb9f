"""Self-time arithmetic, span recording and layer attribution."""

import pytest

import tracing
from tracing import Span, Tracer, layer_seconds, self_times


def span(name, start, end, parent=-1, unit=None, tag=None):
    return Span(name, start, end, parent, unit, tag)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_sum_to_root_duration():
    spans = [
        span("root", 0.0, 8.0),
        span("a", 0.5, 7.0, parent=0),
        span("b", 1.0, 2.0, parent=1),
        span("c", 2.0, 6.5, parent=1),
        span("d", 3.0, 4.0, parent=3),
    ]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_overlapping_children_are_covered_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_and_units():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.unit = "DnCNN/Diffy/DeltaD16"
    with tracer.span("sim.simulate_network"):
        with tracer.span("arch.cycles.Diffy", tag=3):
            pass
        with tracer.span("compression.traffic"):
            pass
    root, cycles, traffic = tracer.spans
    assert (root.parent, cycles.parent, traffic.parent) == (-1, 0, 0)
    assert cycles.unit == "DnCNN/Diffy/DeltaD16" and cycles.tag == 3
    assert self_times(tracer.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_layer_seconds_maps_spans_to_layer_metrics():
    unit = "DnCNN/Diffy/DeltaD16"
    spans = [
        span("sim.simulate_network", 0.0, 10.0, unit=unit),
        span("arch.cycles.Diffy", 1.0, 3.0, 0, unit, tag=7),
        span("arch.lower", 1.5, 2.0, 1, unit),
        span("compression.traffic", 4.0, 9.0, 0, unit),
        span("compression.precisions", 5.0, 8.0, 3, unit),
        span("cache.traces.compute", 9.0, 9.5, 0, unit),
        span("sim.trace_crops", 9.1, 9.4, 5, unit),
    ]
    layers = layer_seconds(spans)
    assert layers["arch.sim_s"] == pytest.approx(10.0 - 2.0 - 5.0 - 0.5)
    assert layers["arch.cycles_s.Diffy"] == pytest.approx(1.5)
    assert layers["arch.cycles_s.DnCNN.L07"] == pytest.approx(1.5)
    assert layers["arch.lower_s"] == pytest.approx(0.5)
    assert layers["compression.traffic_s"] == pytest.approx(2.0)
    assert layers["compression.precisions_s"] == pytest.approx(3.0)
    assert layers["nn.trace_s"] == pytest.approx(0.3)
    # Inclusive: the miss's whole cost, children included.
    assert layers["cache.compute_s"] == pytest.approx(0.5)
    # Every claimed second once: only the compute span's own 0.2 s is unclaimed.
    assert layers["trace.attributed_s"] == pytest.approx(10.0 - 0.2)


def test_per_network_layer_split_only_for_diffy_on_the_named_network():
    other = span("arch.cycles.Diffy", 0.0, 1.0, unit="VDSR/Diffy/DeltaD16", tag=0)
    pra = span("arch.cycles.PRA", 0.0, 1.0, unit="DnCNN/PRA/DeltaD16", tag=0)
    assert tracing.layer_metrics(other) == ["arch.cycles_s.Diffy"]
    assert tracing.layer_metrics(pra) == ["arch.cycles_s.PRA"]


def test_wrap_function_rebinds_every_import_and_restores():
    import repro.cache.store as cache_store
    import repro.serve.latency as latency

    original = cache_store.fetch_or_compute
    tracer = Tracer()
    tracer.wrap_function(cache_store, "fetch_or_compute", "cache.fetch")
    assert cache_store.fetch_or_compute is not original
    assert latency.cache_store.fetch_or_compute is cache_store.fetch_or_compute
    tracer.restore()
    assert cache_store.fetch_or_compute is original


def test_install_and_restore_leave_the_program_unchanged():
    import repro.arch.diffy as diffy
    import repro.utils.timing as timing

    before = (timing.timed, diffy.DiffyModel.layer_cycles)
    tracer = Tracer()
    tracing.install(tracer)
    assert timing.timed is not before[0]
    tracer.restore()
    assert (timing.timed, diffy.DiffyModel.layer_cycles) == before
