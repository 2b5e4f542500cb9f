"""The per-layer memo that ``arch`` and ``compression`` share.

Each trace layer's lowering artifacts (term maps) and its encoded bits
under each scheme live in :mod:`repro.core.layer_memo`: keyed so that
two schemes with one name still price separately, and gone once the
layer is.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.arch import term_maps
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


class TestMemoLifetime:
    def test_entries_vanish_with_their_layer(self):
        layer = _ramp_layer()
        trace = _trace(layer)
        term_maps.raw_term_map(layer)
        layer_bits_per_value([trace], 0, RawDynamic(16))
        key = id(layer)
        kinds = {k[0] for k in layer_memo._MEMOS[key]}
        assert {"padded", "raw", "range", "bits"} <= kinds
        del layer, trace
        gc.collect()
        assert key not in layer_memo._MEMOS


class TestEmptyMaps:
    @pytest.mark.parametrize("exact", [True, False])
    def test_empty_imap_fails_with_a_named_error(self, exact):
        trace = _trace(
            _layer(np.zeros((1, 0, 0), dtype=np.int64), np.ones((1, 2, 2), dtype=np.int64))
        )
        with pytest.raises(ValueError, match="needs .*non-empty"):
            imap_precisions([trace], exact=exact)
        assert omap_precisions([trace], exact=exact) == [1]

    @pytest.mark.parametrize("exact", [True, False])
    def test_empty_omap_fails_with_a_named_error(self, exact):
        trace = _trace(
            _layer(np.ones((1, 2, 2), dtype=np.int64), np.zeros((1, 0, 0), dtype=np.int64))
        )
        with pytest.raises(ValueError, match="needs .*non-empty"):
            omap_precisions([trace], exact=exact)

    def test_an_empty_map_in_one_trace_is_skipped(self):
        full = _trace(_layer(np.full((1, 2, 2), 200), np.ones((1, 2, 2), dtype=np.int64)))
        empty = _trace(
            _layer(np.zeros((1, 0, 0), dtype=np.int64), np.ones((1, 2, 2), dtype=np.int64))
        )
        assert imap_precisions([full, empty]) == imap_precisions([full]) == [8]
