"""Deterministic streaming-inference serving simulation (extension).

The paper stops at per-frame fps; this package restates those numbers at
the *service* level: requests, queues, batches, deadlines, and the
latency/goodput trade-offs a production deployment of a Diffy-class
accelerator would actually face.  See ``repro.experiments.ext_serving``
for the headline VAA-vs-PRA-vs-Diffy comparison under identical load.
"""

from repro.serve import chaos, fleet
from repro.serve.latency import (
    DEFAULT_ENGINES,
    ServiceTimes,
    measure_service_times,
)
from repro.serve.service import (
    ServeConfig,
    ServingReport,
    serve_workload,
)
from repro.serve.state import TemporalStateStore
from repro.serve.telemetry import CalibTelemetry, ServeTelemetry
from repro.serve.workload import (
    Request,
    WorkloadSpec,
    apply_scene_dynamics,
    generate_requests,
    generate_vfr_requests,
)

__all__ = [
    "chaos",
    "fleet",
    "DEFAULT_ENGINES",
    "ServiceTimes",
    "measure_service_times",
    "ServeConfig",
    "ServingReport",
    "serve_workload",
    "TemporalStateStore",
    "CalibTelemetry",
    "ServeTelemetry",
    "Request",
    "WorkloadSpec",
    "apply_scene_dynamics",
    "generate_requests",
    "generate_vfr_requests",
]
