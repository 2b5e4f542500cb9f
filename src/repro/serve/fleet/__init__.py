"""Fleet-scale serving: N accelerator nodes behind a session-affinity router.

One node (:func:`repro.serve.service.serve_workload`) answers "what
does serving look like on a single Diffy-class accelerator?".  This
package answers the deployment question above it: how should a *front
end* spread video sessions across a fleet so that per-session temporal
state — the thing that makes a differential engine fast — actually
stays where the next frame lands?

The pieces:

- :mod:`repro.serve.fleet.routing` — pluggable affinity policies
  (random, consistent hashing with virtual nodes, least-loaded,
  state-aware), all deterministic and drain-aware.
- :mod:`repro.serve.fleet.shard` — the per-node serving engine (queue,
  dynamic batching, state pricing, chaos and calibration hooks); the
  single-node :func:`repro.serve.service.serve_workload` runs it too.
- :mod:`repro.serve.fleet.autoscale` — a deterministic watermark
  autoscaler driving node add/drain/remove under diurnal load.
- :mod:`repro.serve.fleet.service` — the orchestration: one routing
  pass over the global arrival stream, independent per-shard clocks run
  serially in node-id order, telemetry merged exactly in that order so
  results are byte-identical across runs.
"""

from repro.serve.fleet.autoscale import Autoscaler, AutoscalePolicy, ScaleEvent
from repro.serve.fleet.routing import (
    ROUTING_POLICIES,
    ConsistentHashRouter,
    LeastLoadedRouter,
    RandomRouter,
    Router,
    StateAwareRouter,
    make_router,
)
from repro.serve.fleet.service import (
    FleetConfig,
    FleetReport,
    NodeReport,
    route_requests,
    simulate_fleet,
)
from repro.serve.fleet.shard import ShardResult, ShardStream, simulate_shard

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleEvent",
    "ROUTING_POLICIES",
    "Router",
    "RandomRouter",
    "ConsistentHashRouter",
    "LeastLoadedRouter",
    "StateAwareRouter",
    "make_router",
    "FleetConfig",
    "FleetReport",
    "NodeReport",
    "route_requests",
    "simulate_fleet",
    "ShardStream",
    "ShardResult",
    "simulate_shard",
]
