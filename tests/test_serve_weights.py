"""The per-batch weight-stream load: every batch pays the measured
``ServiceTimes.batch_overhead_s``, and a cheaper load never hurts."""

from repro.serve.latency import ServiceTimes
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


class TestBatchOverhead:
    def test_report_carries_measured_overhead(self):
        reqs = generate_requests(_spec())
        report = serve_workload(reqs, _times(overhead=0.02), ServeConfig(workers=2))
        assert report.batch_overhead_s == 0.02

    def test_cheaper_load_never_hurts(self):
        reqs = generate_requests(_spec())
        slow = serve_workload(reqs, _times(overhead=0.5), ServeConfig(workers=2))
        fast = serve_workload(reqs, _times(overhead=0.0), ServeConfig(workers=2))
        assert slow.batch_overhead_s == 0.5
        assert fast.batch_overhead_s == 0.0
        assert fast.p99_ms <= slow.p99_ms
        assert fast.metrics["good"] >= slow.metrics["good"]
