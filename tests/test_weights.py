"""Weight quantization, schemes, ladders, and protected memory reads."""

import numpy as np
import pytest

from repro.compression.bitplane import pack_payload, unpack_payload
from repro.compression.codec import Encoded
from repro.compression.footprint import composed_footprints
from repro.compression.traffic import composed_traffic, network_traffic
from repro.models.registry import prepare_model
from repro.nn.layers import MAX_WEIGHT_SCALE
from repro.nn.shapes import conv_layer_shapes
from repro.protect.stream import encode_stream_chunks, read_stream
from repro.utils.bits import signed_range
from repro.weights import (
    MSRCodec,
    msr_coverage,
    network_int8_weights,
    network_weight_bits,
    quantize_weights_int8,
    weight_scale_int8,
    weight_scheme,
)


class TestQuantization:
    def test_scale_is_lossless_for_gaussian_weights(self, tiny_network):
        net, _ = tiny_network
        for layer in net.conv_layers:
            ints, scale = quantize_weights_int8(layer.weights)
            lo, hi = signed_range(8)
            assert lo <= ints.min() and ints.max() <= hi
            # Power-of-two scale: dequantization is exact up to half an LSB.
            back = ints / (1 << scale)
            assert np.abs(back - layer.weights.reshape(-1)).max() <= 0.5 / (1 << scale)

    def test_calibration_targets_the_compact_range(self):
        rng = np.random.default_rng(11)
        weights = rng.standard_normal(4096) * 0.05
        ints, _scale = quantize_weights_int8(weights)
        # The quantile calibration parks the bulk of the distribution
        # inside the 5-bit in-band range MSR-4 compacts to.
        assert msr_coverage(ints, bits=8, msr=4) >= 0.95

    def test_zero_weights(self):
        assert weight_scale_int8(np.zeros(16)) == 0
        ints, scale = quantize_weights_int8(np.zeros(16))
        assert scale == 0 and not ints.any()

    def test_scale_capped_like_the_datapath(self):
        # Tiny filters would ask for an absurd shift; INT8 calibration
        # stops at the same cap the 16-bit datapath's weights use.
        weights = np.full(16, 2e-7)
        assert weight_scale_int8(weights) == MAX_WEIGHT_SCALE
        ints, scale = quantize_weights_int8(weights)
        assert scale == MAX_WEIGHT_SCALE
        assert ints.tolist() == [3] * 16  # 2e-7 * 2**24 = 3.36

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            weight_scale_int8(np.array([1.0, np.inf]))

    def test_network_int8_weights_covers_conv_layers(self, tiny_network):
        net, _ = tiny_network
        table = network_int8_weights(net)
        assert set(table) == {layer.name for layer in net.conv_layers}
        for layer in net.conv_layers:
            ints, _scale = table[layer.name]
            assert ints.size == layer.weights.size


class TestWeightSchemes:
    def test_raw16_matches_dense_baseline(self, tiny_network):
        """Raw16W prices exactly the dense filters every ladder charges."""
        net, _ = tiny_network
        bits = network_weight_bits(net, "Raw16W")
        shapes = conv_layer_shapes(net, 32, 32)
        assert sum(bits.values()) == sum(s.weight_bytes * 8 for s in shapes)

    def test_msr_beats_raw8(self, tiny_network):
        net, _ = tiny_network
        raw8 = sum(network_weight_bits(net, "Raw8W").values())
        msr = sum(network_weight_bits(net, "MSR4W").values())
        assert msr < raw8

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="MSR4W.*Raw16W|available"):
            weight_scheme("Huffman")

    def test_scheme_accounting_matches_codec(self, tiny_network):
        codec = MSRCodec(bits=8, max_msr=4, column_size=256)
        msr = weight_scheme("MSR4W")
        net, _ = tiny_network
        for layer in net.conv_layers:
            ints, _scale = quantize_weights_int8(layer.weights)
            assert msr.encoded_bits(ints) == codec.encode(ints).bits


class TestComposedLadders:
    def test_baseline_cell_is_unity(self, dncnn_trace):
        net = prepare_model("DnCNN")
        pairs = (("NoCompression", "Raw16W"), ("DeltaD16", "MSR4W"))
        foot = composed_footprints(net, [dncnn_trace], pairs)
        traf = composed_traffic(net, [dncnn_trace], pairs, 32, 32)
        assert foot["NoCompression+Raw16W"] == pytest.approx(1.0)
        assert traf["NoCompression+Raw16W"] == pytest.approx(1.0)
        assert foot["DeltaD16+MSR4W"] < 1.0
        assert traf["DeltaD16+MSR4W"] < 1.0

    def test_weight_axis_orders_composed_cells(self, dncnn_trace):
        net = prepare_model("DnCNN")
        pairs = (
            ("DeltaD16", "Raw16W"),
            ("DeltaD16", "Raw8W"),
            ("DeltaD16", "MSR4W"),
        )
        traf = composed_traffic(net, [dncnn_trace], pairs, 32, 32)
        assert (
            traf["DeltaD16+MSR4W"]
            < traf["DeltaD16+Raw8W"]
            < traf["DeltaD16+Raw16W"]
        )

    def test_network_traffic_default_unchanged(self, dncnn_trace):
        """weight_scheme=None must reproduce the dense pricing exactly."""
        net = prepare_model("DnCNN")
        plain = network_traffic(net, [dncnn_trace], "DeltaD16", 32, 32)
        keyed = network_traffic(
            net, [dncnn_trace], "DeltaD16", 32, 32, weight_scheme=None
        )
        assert plain == keyed
        raw16 = network_traffic(
            net, [dncnn_trace], "DeltaD16", 32, 32, weight_scheme="Raw16W"
        )
        for a, b in zip(plain, raw16):
            assert a.weight_bytes == b.weight_bytes


class TestWeightStreamReads:
    """Weight streams read back through :func:`repro.protect.stream.read_stream`."""

    CODEC = MSRCodec(8, 4, 64, checksum=True)

    def _weights(self):
        rng = np.random.default_rng(5)
        return np.clip(
            (rng.standard_normal(512) * 6).round(), -127, 127
        ).astype(np.int64)

    def _read_ecc(self, hook):
        encoded = self.CODEC.encode(self._weights())
        return read_stream(self.CODEC, encoded, encode_stream_chunks(encoded), hook)

    def test_clean_roundtrip(self):
        encoded = self.CODEC.encode(self._weights())
        values, flagged, corrected, detected = read_stream(self.CODEC, encoded)
        assert np.array_equal(values, self._weights())
        assert corrected == detected == 0
        assert tuple(flagged) == ()

    def test_ecc_corrects_single_flip(self):
        def flip_one(codes):
            out = codes.copy()
            out[3] ^= 1 << 2
            return out

        values, flagged, corrected, detected = self._read_ecc(flip_one)
        assert np.array_equal(values, self._weights())
        assert corrected == 1
        assert detected == 0
        assert tuple(flagged) == ()

    def test_ecc_detection_flags_column(self):
        def flip_two(codes):
            out = codes.copy()
            out[3] ^= (1 << 2) | (1 << 9)
            return out

        values, flagged, _corrected, detected = self._read_ecc(flip_two)
        assert detected == 1
        assert len(flagged) >= 1
        # Flagged columns zero-fill — never silent garbage.
        for g in flagged:
            assert not values[g * 64 : (g + 1) * 64].any()

    def test_unprotected_fault_caught_by_checksum(self):
        def flip_bit(encoded):
            bits = unpack_payload(encoded.data, encoded.bits)
            bits[40] ^= 1
            return Encoded(
                data=pack_payload(bits), bits=encoded.bits, values=encoded.values
            )

        encoded = self.CODEC.encode(self._weights())
        _values, flagged, corrected, detected = read_stream(
            self.CODEC, encoded, hook=flip_bit
        )
        assert len(flagged) >= 1
        assert corrected == detected == 0
