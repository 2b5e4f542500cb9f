"""One counter registry and one merge rule.

Every subsystem that keeps counters (cache, lowering, codecs, precision
narrowing) counts into :mod:`repro.utils.timing`, so one
``counter_values()``/``report()`` is the whole run record; and every
telemetry record merges by the one field rule of
:class:`repro.utils.timing.FieldMerge`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch import term_maps
from repro.cache import store
from repro.compression.codec import GroupCodec
from repro.nn.trace import ConvLayerTrace
from repro.serve.chaos.telemetry import ChaosTelemetry
from repro.serve.state import StateStats
from repro.serve.telemetry import CalibTelemetry, ServeTelemetry
from repro.utils import timing
from repro.utils.bits import quantize_to_width
from repro.weights import MSRCodec


def _tiny_layer() -> ConvLayerTrace:
    imap = np.arange(2 * 6 * 6, dtype=np.int64).reshape(2, 6, 6) * 37
    return ConvLayerTrace(
        name="probe",
        index=0,
        imap=imap,
        imap_scale=0,
        omap=np.zeros((3, 6, 6), dtype=np.int64),
        omap_scale=0,
        out_channels=3,
        kernel=3,
        stride=1,
        padding=1,
        dilation=1,
        relu=True,
    )


class TestRunRecord:
    def test_every_subsystem_counts_into_the_registry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        timing.reset()

        # Cache: a miss (and its store), a hit, then a corrupt entry that
        # is quarantined and recomputed; finally a bypass.
        assert store.fetch_or_compute("record", (1,), lambda: 7) == 7
        assert store.fetch_or_compute("record", (1,), lambda: 8) == 7
        entry = store._entry_path("record", store.stable_digest("record", 1))
        entry.write_bytes(b"not a pickle")
        assert store.fetch_or_compute("record", (1,), lambda: 9) == 9
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert store.fetch_or_compute("record", (1,), lambda: 10) == 10

        # Lowering: the first lookup computes, the second reuses.
        layer = _tiny_layer()
        padded = term_maps.padded_imap(layer)
        assert term_maps.padded_imap(layer) is padded

        # Codecs: one activation and one weight round-trip.
        group = GroupCodec(group_size=16, signed=True)
        group.decode(group.encode(np.arange(32, dtype=np.int64)))
        msr = MSRCodec(8, 4, 8)
        msr.decode(msr.encode(np.arange(-8, 8, dtype=np.int64)))

        # Precision narrowing that clips two values.
        _, clipped = quantize_to_width(np.array([-300, 0, 300]), 8, signed=True)
        assert clipped == 2

        counters = timing.counter_values()
        expected = {
            "cache.record.miss": 2,
            "cache.record.store": 2,
            "cache.record.hit": 1,
            "cache.record.error": 1,
            "cache.record.quarantined": 1,
            "cache.record.bypass": 1,
            "arch.lowering.computed": 1,
            "arch.lowering.reused": 1,
            "codec.activation.encodes": 1,
            "codec.activation.decodes": 1,
            "codec.activation.decoded_values": 32,
            "codec.weight.encodes": 1,
            "codec.weight.decodes": 1,
            "codec.weight.decoded_values": 16,
            "precision.values_clipped": 2,
        }
        text = timing.report()
        for name, value in expected.items():
            assert counters.get(name) == value, name
            assert name in text, name
        assert counters["codec.activation.encoded_bits"] > 0
        assert counters["codec.weight.encoded_bits"] > 0

        # The store's stats are the registry totals, field by field.
        assert dataclasses.asdict(store.cache_stats()) == {
            "hits": counters["cache.record.hit"],
            "misses": counters["cache.record.miss"],
            "stores": counters["cache.record.store"],
            "bypasses": counters["cache.record.bypass"],
            "errors": counters["cache.record.error"],
            "quarantined": counters["cache.record.quarantined"],
            "quarantine_evicted": counters.get("cache.quarantine.evicted", 0),
        }
        assert term_maps.lowering_stats() == {"computed": 1, "reused": 1}

        store.reset_stats()
        term_maps.reset_lowering_stats()
        assert store.cache_stats() == store.CacheStats()
        assert term_maps.lowering_stats() == {"computed": 0, "reused": 0}
        assert timing.counter_values("codec.")["codec.weight.encodes"] == 1
        timing.reset()


def _serve(**window):
    return ServeTelemetry(**{"max_batch": 4, "queue_capacity": 8, **window})


def _calib(**window):
    return CalibTelemetry(**{"duration_s": 10.0, **window})


def _chaos(**window):
    return ChaosTelemetry(**{"duration_s": 10.0, **window})


RECORDS = [
    (_serve, {"max_batch": 5}),
    (_calib, {"buckets": 12}),
    (_chaos, {"duration_s": 5.0}),
    (StateStats, None),
]


def _fill(record, scale: int) -> None:
    """Set every additive field to a distinct nonzero value."""
    cls = type(record)
    for i, f in enumerate(dataclasses.fields(record)):
        if f.name in cls.__merge_window__:
            continue
        value = getattr(record, f.name)
        distinct = scale * (i + 1)
        if isinstance(value, timing.StreamingHistogram):
            value.record(float(distinct % 3 + 1), weight=distinct)
        elif isinstance(value, np.ndarray):
            value[:] = np.arange(1, value.size + 1) * distinct
        elif isinstance(value, float):
            setattr(record, f.name, distinct + 0.5)
        else:
            setattr(record, f.name, distinct)


def _frozen(value):
    """A copy of a field's value to compare against after the merge."""
    return value.n if isinstance(value, timing.StreamingHistogram) else np.copy(value)


@pytest.mark.parametrize(
    "make, mismatch",
    RECORDS,
    ids=["ServeTelemetry", "CalibTelemetry", "ChaosTelemetry", "StateStats"],
)
class TestFieldMerge:
    def test_every_field_adds_or_takes_the_max(self, make, mismatch):
        a, b = make(), make()
        cls = type(a)
        for name in cls.__merge_window__ + cls.__merge_max__:
            assert name in {f.name for f in dataclasses.fields(a)}, name
        _fill(a, 1)
        _fill(b, 7)
        before = {f.name: _frozen(getattr(a, f.name)) for f in dataclasses.fields(a)}
        assert a.merge(b) is a
        for f in dataclasses.fields(a):
            mine, theirs = getattr(a, f.name), getattr(b, f.name)
            if f.name in cls.__merge_window__:
                assert mine == theirs
            elif isinstance(mine, timing.StreamingHistogram):
                assert mine.n == before[f.name] + theirs.n > 0, f.name
            elif f.name in cls.__merge_max__:
                assert mine == max(before[f.name], theirs) != before[f.name] + theirs
            else:
                np.testing.assert_array_equal(mine, before[f.name] + theirs, err_msg=f.name)
                assert np.all(before[f.name] != 0), f.name

    def test_window_mismatch_names_the_field(self, make, mismatch):
        if mismatch is None:
            assert type(make()).__merge_window__ == ()
            return
        (name,) = mismatch
        with pytest.raises(ValueError, match=f"different windows: {name}"):
            make().merge(make(**mismatch))
