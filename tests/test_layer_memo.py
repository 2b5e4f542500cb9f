"""The per-layer memo that ``arch`` and ``compression`` share.

Each trace layer's lowering artifacts (term maps) and its cycle records
under each engine, and each map's encoded bits under each scheme, live
in :mod:`repro.core.layer_memo`: keyed so that two schemes or two engines
with one name still price separately, and gone once the layer or map is.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from repro.arch import sim, term_maps
from repro.arch.config import PRA_CONFIG
from repro.arch.cycles import LayerCycles
from repro.arch.diffy import DiffyModel
from repro.arch.pra import PRAModel
from repro.arch.predict import ValuePredictionModel
from repro.arch.scnn import SCNNModel
from repro.compression.footprint import (
    imap_precisions,
    layer_bits_per_value,
    omap_precisions,
)
from repro.compression.schemes import DeltaDynamic, RawDynamic
from repro.core import layer_memo
from repro.nn.trace import ActivationTrace, ConvLayerTrace


def _layer(imap: np.ndarray, omap: np.ndarray) -> ConvLayerTrace:
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=imap,
        imap_scale=0,
        omap=omap,
        omap_scale=0,
        out_channels=omap.shape[0],
        kernel=3,
        stride=1,
        padding=1,
        dilation=1,
        relu=True,
    )


def _trace(layer: ConvLayerTrace) -> ActivationTrace:
    return ActivationTrace(
        network="probe", input_shape=layer.imap_shape, input_scale=0, layers=[layer]
    )


def _ramp_layer() -> ConvLayerTrace:
    # Rows step by 1000 and columns by 1, so x-deltas are narrow while
    # y-deltas are as wide as the raw values: the three schemes all differ.
    h, w = np.meshgrid(np.arange(8), np.arange(20), indexing="ij")
    imap = np.stack([h * 1000 + w, h * 1000 + 2 * w]).astype(np.int64)
    return _layer(imap, np.zeros((2, 8, 20), dtype=np.int64))


class TestMemoKey:
    def test_each_scheme_prices_with_its_own_bits(self):
        layer = _ramp_layer()
        trace = _trace(layer)
        schemes = [DeltaDynamic(16), DeltaDynamic(16, axis="y"), RawDynamic(16)]
        # Two of them share the name the memo must not key on alone.
        assert schemes[0].name == schemes[1].name == "DeltaD16"
        priced = [layer_bits_per_value([trace], 0, s) for s in schemes]
        expected = [s.encoded_bits(layer.imap) / layer.imap.size for s in schemes]
        assert priced == expected
        assert len(set(priced)) == 3

    def test_second_pricing_reuses_the_bits(self):
        trace = _trace(_ramp_layer())
        first = layer_bits_per_value([trace], 0, DeltaDynamic(16), [16])
        # A fresh, equal scheme object hits the same entry.
        term_maps.reset_lowering_stats()
        assert layer_bits_per_value([trace], 0, DeltaDynamic(16), [16]) == first
        assert term_maps.lowering_stats() == {"computed": 0, "reused": 1}


#: Model pairs built with one argument changed; all but SCNN share a name.
_SPLIT_PAIRS = {
    "diffy_axis": (DiffyModel(axis="x"), DiffyModel(axis="y")),
    "vp_threshold": (ValuePredictionModel(threshold=0), ValuePredictionModel(threshold=8)),
    "vp_recovery": (
        ValuePredictionModel(recovery_cycles=2),
        ValuePredictionModel(recovery_cycles=5),
    ),
    "vp_enabled": (ValuePredictionModel(), ValuePredictionModel(enabled=False)),
    "pra_sync": (PRAModel(), PRAModel(dataclasses.replace(PRA_CONFIG, sync="lane"))),
    "scnn_sparsity": (SCNNModel(0.5), SCNNModel(0.75)),
}

#: The compression schemes the figure-iteration loop prices every engine under.
_WARM_SCHEMES = ("NoCompression", "RawD16", "DeltaD16")


class TestCycleMemo:
    @pytest.mark.parametrize("field", sorted(_SPLIT_PAIRS))
    def test_each_model_field_splits_the_key(self, field, dncnn_trace):
        layer = dncnn_trace[1]
        trace = _trace(layer)
        models = _SPLIT_PAIRS[field]
        priced = [sim._mean_layer_cycles(m, [trace])[0] for m in models]
        assert priced == [m.layer_cycles(layer) for m in models]
        assert priced[0] != priced[1]
        cycle_keys = {k for k in layer_memo._MEMOS[id(layer)] if k[0] == "cycles"}
        assert {("cycles", layer_memo.instance_key(m)) for m in models} <= cycle_keys

    @pytest.mark.parametrize("engine", ["VAA", "PRA", "Diffy", "VP"])
    def test_one_engine_is_priced_once_per_layer_across_schemes(self, engine, monkeypatch):
        cls = type(sim.model_for(engine))
        calls = []
        original = cls.layer_cycles

        def counting(self, layer):
            calls.append(layer)
            return original(self, layer)

        monkeypatch.setattr(cls, "layer_cycles", counting)
        layer_memo.clear_memos()
        kw = dict(dataset_name="Kodak24", trace_count=2, crop=32)
        results = [sim.simulate_network("IRCNN", engine, scheme=s, **kw) for s in _WARM_SCHEMES]
        layers = [layer for t in sim.collect_traces("IRCNN", "Kodak24", 2, 32) for layer in t]
        assert len(calls) == len(layers)
        assert {id(layer) for layer in calls} == {id(layer) for layer in layers}
        assert len({tuple(r.compute_cycles for r in res.layers) for res in results}) == 1

    @pytest.mark.parametrize(
        "engine", ["VAA", "PRA", "Diffy", "VP", "SCNN", "SCNN50", "SCNN75", "SCNN90"]
    )
    def test_every_engine_key_is_hashable(self, engine):
        hash(layer_memo.instance_key(sim.model_for(engine)))

    def test_schemes_key_by_the_same_rule(self):
        scheme = DeltaDynamic(16, axis="y")
        assert scheme.key == layer_memo.instance_key(scheme)


class TestMeanLayerCycles:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 12])
    def test_each_field_is_the_np_mean_of_its_traces(self, count):
        # From 8 values on, numpy's pairwise sum and a sequential sum differ.
        rng = np.random.default_rng(count)
        empty = np.zeros((1, 2, 2), dtype=np.int64)
        traces = [[_layer(empty, empty) for _ in range(4)] for _ in range(count)]
        records = {
            id(layer): LayerCycles(
                name="probe",
                index=i,
                cycles=float(rng.random() * 10.0 ** rng.integers(0, 12)),
                windows=4,
                useful_terms=float(rng.random() * 1e7),
                lane_capacity=float(rng.random() * 1e9),
                filter_occupancy=1.0,
                channel_occupancy=1.0,
            )
            for t in traces
            for i, layer in enumerate(t)
        }

        class TableModel:
            """Reads each layer's record from ``records`` (no instance fields)."""

            def layer_cycles(self, layer):
                return records[id(layer)]

        got = sim._mean_layer_cycles(TableModel(), traces)
        assert len(got) == 4
        for i, rec in enumerate(got):
            column = [records[id(t[i])] for t in traces]
            assert rec.cycles == float(np.mean([r.cycles for r in column]))
            assert rec.useful_terms == float(np.mean([r.useful_terms for r in column]))
            assert rec.lane_capacity == float(np.mean([r.lane_capacity for r in column]))
            assert rec == dataclasses.replace(
                column[0],
                cycles=rec.cycles,
                useful_terms=rec.useful_terms,
                lane_capacity=rec.lane_capacity,
            )


class TestMemoLifetime:
    def test_entries_vanish_with_their_layer(self):
        layer = _ramp_layer()
        trace = _trace(layer)
        term_maps.raw_term_map(layer)
        layer_bits_per_value([trace], 0, RawDynamic(16))
        key, map_key = id(layer), id(layer.imap)
        kinds = {k[0] for k in layer_memo._MEMOS[key]}
        assert {"raw", "range"} <= kinds
        # The raw term map is lowered from the stored imap: no padded copy.
        assert "padded" not in kinds
        # Encoded bits belong to the map itself, which a layer may share.
        assert {k[0] for k in layer_memo._MEMOS[map_key]} == {"bits"}
        del layer, trace
        gc.collect()
        assert key not in layer_memo._MEMOS
        assert map_key not in layer_memo._MEMOS


EMPTY_SHAPES = [(1, 0, 0), (1, 2, 0), (0, 2, 2)]


class TestEmptyMaps:
    @pytest.mark.parametrize("shape", EMPTY_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_empty_imap_fails_with_a_named_error(self, shape):
        trace = _trace(
            _layer(np.zeros(shape, dtype=np.int64), np.ones((1, 2, 2), dtype=np.int64))
        )
        with pytest.raises(ValueError, match="needs .*non-empty"):
            imap_precisions([trace])
        assert omap_precisions([trace]) == [1]

    @pytest.mark.parametrize("shape", EMPTY_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_empty_omap_fails_with_a_named_error(self, shape):
        trace = _trace(
            _layer(np.ones((1, 2, 2), dtype=np.int64), np.zeros(shape, dtype=np.int64))
        )
        with pytest.raises(ValueError, match="needs .*non-empty"):
            omap_precisions([trace])

    def test_an_empty_map_in_one_trace_is_skipped(self):
        full = _trace(_layer(np.full((1, 2, 2), 200), np.ones((1, 2, 2), dtype=np.int64)))
        empty = _trace(
            _layer(np.zeros((1, 0, 0), dtype=np.int64), np.ones((1, 2, 2), dtype=np.int64))
        )
        assert imap_precisions([full, empty]) == imap_precisions([full]) == [8]
