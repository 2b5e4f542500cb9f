"""The serve-side weight-stream knob: off by default (byte-identical
reports), repriceable per deployment, and pluggable into the measured
service times via a compressed weight scheme."""

import dataclasses

import pytest

from repro.serve.latency import ServiceTimes, measure_service_times
from repro.serve.service import ServeConfig, serve_workload
from repro.serve.workload import WorkloadSpec, generate_requests


def _times(cold=1.0, warm=0.1, overhead=0.0, state_bytes=10, engine="Diffy"):
    return ServiceTimes(
        engine=engine,
        cold_s=cold,
        warm_s=warm,
        batch_overhead_s=overhead,
        state_bytes=state_bytes,
        frequency_ghz=1.0,
    )


def _spec(**kw):
    base = dict(
        duration_s=30.0,
        session_rate=0.4,
        frames_per_session=5,
        frame_interval_s=0.5,
        seed=42,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestBatchPolicyKnob:
    def test_default_is_off(self):
        assert ServeConfig().weight_stream_s is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="weight_stream_s"):
            ServeConfig(weight_stream_s=-0.001)
        with pytest.raises(ValueError, match="weight_stream_s"):
            ServeConfig(weight_stream_s=-1.0)

    def test_zero_is_legal(self):
        assert ServeConfig(weight_stream_s=0.0).weight_stream_s == 0.0


class TestGoldenSchemaStability:
    def test_unset_knob_invisible_to_goldens(self):
        """Serialized configs predate the knob: it must not appear in any
        golden until a config actually sets it."""
        from repro.regression.serialize import to_jsonable

        assert "weight_stream_s" not in to_jsonable(ServeConfig())
        assert to_jsonable(ServeConfig(weight_stream_s=0.25))["weight_stream_s"] == 0.25


class TestServeKnob:
    def test_default_report_byte_identical(self):
        """The knob's existence must not perturb any existing report."""
        reqs = generate_requests(_spec())
        plain = serve_workload(reqs, _times(overhead=0.02), ServeConfig(workers=2))
        keyed = serve_workload(
            reqs, _times(overhead=0.02), ServeConfig(workers=2, weight_stream_s=None)
        )
        assert plain == keyed
        assert plain.batch_overhead_s == 0.02

    def test_override_reprices_batches(self):
        reqs = generate_requests(_spec())
        times = _times(overhead=0.5)
        slow = serve_workload(reqs, times, ServeConfig(workers=2))
        fast = serve_workload(
            reqs, times, ServeConfig(workers=2, weight_stream_s=0.0)
        )
        assert slow.batch_overhead_s == 0.5
        assert fast.batch_overhead_s == 0.0
        # Cheaper batches can only help the latency distribution.
        assert fast.p99_ms <= slow.p99_ms
        assert fast.metrics["good"] >= slow.metrics["good"]

    def test_override_equals_equivalent_times(self):
        """Pricing via the knob or via ServiceTimes is the same simulation."""
        reqs = generate_requests(_spec())
        via_knob = serve_workload(
            reqs, _times(overhead=0.5), ServeConfig(workers=2, weight_stream_s=0.05)
        )
        via_times = serve_workload(
            reqs, _times(overhead=0.05), ServeConfig(workers=2)
        )
        assert via_knob == via_times


class TestMeasuredWeightScheme:
    @pytest.mark.slow
    def test_msr_shrinks_batch_overhead_only(self):
        kwargs = dict(
            model_name="DnCNN", engines=("VAA",), crop=32, frames=2,
        )
        dense = measure_service_times(**kwargs)["VAA"]
        msr = measure_service_times(weight_scheme="MSR4W", **kwargs)["VAA"]
        assert msr.batch_overhead_s < dense.batch_overhead_s
        # Only the weight-stream load changes; compute times are untouched.
        assert dataclasses.replace(
            msr, batch_overhead_s=dense.batch_overhead_s
        ) == dense

    @pytest.mark.slow
    def test_default_key_unchanged(self):
        kwargs = dict(
            model_name="DnCNN", engines=("VAA",), crop=32, frames=2,
        )
        assert measure_service_times(**kwargs) == measure_service_times(
            weight_scheme=None, **kwargs
        )
