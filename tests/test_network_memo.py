"""The trace-set memo behind ``simulate_network``.

Per trace set, the engine's averaged cycle records, the layer shapes, the
profiled imap/omap precisions and the network traffic under each scheme
are priced once (:func:`repro.core.layer_memo.memoized_set`), and each
feature map is encoded once per scheme: where a layer's omap is the next
layer's imap, that one array is priced once.  None of it may change a
result, and none of it may outlive the traces it was computed from.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.arch import sim
from repro.compression.schemes import CompressionScheme, DeltaDynamic
from repro.core import layer_memo
from repro.regression.serialize import canonical_dumps

MODEL = "DnCNN"
CROP = 48
ENGINES = ("VAA", "PRA", "Diffy", "VP")
#: Two schemes of one name ("DeltaD16") must still price apart.
SCHEMES = {
    "NoCompression": "NoCompression",
    "RawD16": "RawD16",
    "DeltaD16": "DeltaD16",
    "DeltaD16y": DeltaDynamic(16, axis="y"),
}
RESOLUTIONS = ((1080, 1920), (480, 640))


@pytest.fixture(autouse=True)
def _fresh_memos():
    yield
    layer_memo.clear_memos()


def _sweep(clear_before_each: bool, resolutions=RESOLUTIONS[:1]) -> str:
    results = {}
    for res in resolutions:
        for engine in ENGINES:
            for label, scheme in SCHEMES.items():
                if clear_before_each:
                    layer_memo.clear_memos()
                result = sim.simulate_network(
                    MODEL, engine, scheme, crop=CROP, trace_count=2, resolution=res
                )
                results[(*res, engine, label)] = result
    return canonical_dumps(results)


def _traces(count: int):
    return sim.collect_traces(MODEL, count=count, crop=CROP)


def test_memoized_sweep_matches_a_cleared_sweep():
    layer_memo.clear_memos()
    assert _sweep(clear_before_each=False) == _sweep(clear_before_each=True)


def test_a_scheme_instance_result_serializes_under_its_name():
    result = sim.simulate_network(
        MODEL, "Diffy", DeltaDynamic(16, axis="y"), crop=CROP, trace_count=2
    )
    assert result.scheme == "DeltaD16"
    assert '"scheme": "DeltaD16"' in canonical_dumps(result)


def test_each_piece_is_computed_once_per_key(monkeypatch):
    counts: Counter = Counter()

    def counting(name, original, key=lambda *args: None):
        def wrapper(*args, **kwargs):
            counts[(name, key(*args))] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, name, wrapper)

    counting("_mean_layer_cycles", sim._mean_layer_cycles, lambda model, _: model.name)
    counting("conv_layer_shapes", sim.conv_layer_shapes, lambda _, h, w: (h, w))
    counting("imap_precisions", sim.imap_precisions)
    counting("omap_precisions", sim.omap_precisions)
    counting(
        "network_traffic",
        sim.network_traffic,
        lambda _, __, scheme, h, w, *rest: (scheme.key, h, w),
    )
    encoded = Counter()
    original_bits = CompressionScheme.encoded_bits

    def counting_bits(self, fmap, precision=16):
        encoded[(id(fmap), self.key, precision)] += 1
        return original_bits(self, fmap, precision)

    monkeypatch.setattr(CompressionScheme, "encoded_bits", counting_bits)
    layer_memo.clear_memos()
    _sweep(clear_before_each=False, resolutions=RESOLUTIONS)

    # Once per key, and one key per engine, resolution or (scheme, resolution).
    assert set(counts.values()) == {1}
    keys = Counter(name for name, _ in counts)
    assert keys == {
        "_mean_layer_cycles": len(ENGINES),
        "conv_layer_shapes": len(RESOLUTIONS),
        "imap_precisions": 1,
        "omap_precisions": 1,
        "network_traffic": len(SCHEMES) * len(RESOLUTIONS),
    }

    # Each distinct map array is encoded once per scheme, however many
    # layers (as omap and as the next imap) or resolutions read it.
    layers = [layer for t in _traces(2) for layer in t]
    maps = {id(m) for layer in layers for m in (layer.imap, layer.omap)}
    assert len(maps) < 2 * len(layers)  # some omaps are the next layer's imap
    assert set(encoded.values()) == {1}
    per_scheme = Counter(scheme_key for _, scheme_key, _ in encoded)
    assert len(per_scheme) == len(SCHEMES)
    assert set(per_scheme.values()) == {len(maps)}
    assert {map_id for map_id, _, _ in encoded} == set(maps)


def test_trace_sets_with_different_tails_miss():
    first, second, third = _traces(3)
    layer_memo.clear_memos()
    computed = []

    def price(traces):
        def compute():
            computed.append(traces)
            return len(computed)

        return layer_memo.memoized_set(traces, ("probe",), compute)

    a = price((first, second))
    b = price((first, third))
    c = price((first,))
    d = price((second, first))
    assert [a, b, c, d] == [1, 2, 3, 4]
    assert price((first, second)) == 1
    assert len(computed) == 4
    for traces in ((first, second), (first, third), (first,), (second, first)):
        assert ("probe",) in layer_memo._MEMOS[tuple(map(id, traces))]


def test_entries_vanish_with_their_traces():
    layer_memo.clear_memos()
    sim.simulate_network(MODEL, "Diffy", "DeltaD16", crop=CROP, trace_count=3)
    traces = _traces(3)
    set_key = tuple(map(id, traces))
    map_keys = {id(m) for t in traces for layer in t for m in (layer.imap, layer.omap)}
    kinds = {k[0] for k in layer_memo._MEMOS[set_key]}
    assert {"cycles", "shapes", "precisions", "traffic"} <= kinds
    for map_key in map_keys:
        assert {k[0] for k in layer_memo._MEMOS[map_key]} == {"bits"}

    alive = [weakref.ref(t) for t in traces]
    # Drop the in-process trace cache's reference, but not the memos.
    sim._collect_traces.cache_clear()
    del traces
    gc.collect()
    assert all(ref() is None for ref in alive)
    assert set_key not in layer_memo._MEMOS
    assert not map_keys & set(layer_memo._MEMOS)
