"""Term-map lowering from the stored imap equals the padded-imap spec.

Production counts the raw map's Booth terms on the stored imap and pads
the counts, differences a padded imap it keeps only while it lowers,
differences two frames' stored imaps for the temporal map, and counts
VAA's nonzeros on the stored imap.  ``tests/oracles/lowering.py`` pads
the imap first and counts after.  The two must agree byte for byte,
dtype included, with the same ``precision.values_clipped`` counts, on
maps whose neighbours sit at +-32767 so that their deltas saturate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch import term_maps
from repro.arch.vaa import VAAModel
from repro.nn.trace import ConvLayerTrace
from repro.serve.latency import temporal_term_map
from repro.utils import timing
from tests.oracles import lowering

CLIPS = "precision.values_clipped"
WORD_MAX = 2**15 - 1


def _clipped(compute):
    """``compute()`` and the ``precision.values_clipped`` count it added."""
    before = timing.counter_values(CLIPS).get(CLIPS, 0)
    out = compute()
    return out, timing.counter_values(CLIPS).get(CLIPS, 0) - before


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    )


@st.composite
def frames(draw):
    """Two same-shape (C, H, W) int16 frames with a 3x3 block whose corner
    is +32767 and the rest -32767: its x and y deltas at stride 1 and 2
    saturate, and so does the frame difference at the corner."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(3, 7), st.integers(3, 7)))
    values = st.one_of(
        st.sampled_from((-(2**15), -WORD_MAX, WORD_MAX, 0)), st.integers(-(2**15), WORD_MAX)
    )
    cur = draw(hnp.arrays(np.int16, shape, elements=values))
    prev = draw(hnp.arrays(np.int16, shape, elements=values))
    c = draw(st.integers(0, shape[0] - 1))
    y = draw(st.integers(0, shape[1] - 3))
    x = draw(st.integers(0, shape[2] - 3))
    cur[c, y : y + 3, x : x + 3] = -WORD_MAX
    cur[c, y, x] = WORD_MAX
    prev[c, y, x] = -WORD_MAX
    return cur, prev


def _layer(imap: np.ndarray, padding: int, stride: int) -> ConvLayerTrace:
    _, h, w = imap.shape
    out_h = (h + 2 * padding - 3) // stride + 1
    out_w = (w + 2 * padding - 3) // stride + 1
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=imap,
        imap_scale=0,
        omap=np.zeros((2, max(out_h, 1), max(out_w, 1)), np.int16),
        omap_scale=0,
        out_channels=2,
        kernel=3,
        stride=stride,
        padding=padding,
        dilation=1,
        relu=True,
    )


class TestLoweringEqualsOracle:
    @given(
        frames(),
        st.integers(0, 2),
        st.integers(1, 2),
        st.sampled_from(["x", "y"]),
        st.integers(0, 3),
        # Past 247 the costliest miss (8 terms + bubble) needs uint16.
        st.one_of(st.integers(0, 3), st.integers(240, 300)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_map(self, pair, padding, stride, axis, threshold, recovery):
        cur, prev = pair
        layer = _layer(cur, padding, stride)
        previous = _layer(prev, padding, stride)

        assert _same_bytes(term_maps.raw_term_map(layer), lowering.raw_term_map(layer))

        got, got_clips = _clipped(lambda: term_maps.delta_term_map(layer, axis))
        want, want_clips = _clipped(lambda: lowering.delta_term_map(layer, axis))
        assert _same_bytes(got, want)
        assert got_clips == want_clips > 0

        got = term_maps.vp_term_map(layer, threshold, recovery, axis)
        want = lowering.vp_term_map(layer, threshold, recovery, axis)
        assert _same_bytes(got, want)
        assert got.dtype == (np.uint8 if recovery <= 247 else np.uint16)

        got, got_clips = _clipped(lambda: temporal_term_map(layer, previous))
        want, want_clips = _clipped(lambda: lowering.temporal_term_map(layer, previous))
        assert _same_bytes(got, want)
        assert got_clips == want_clips > 0

        assert VAAModel().layer_cycles(layer).useful_terms == lowering.vaa_useful_terms(layer)
