"""Chaos engineering for the serving simulation (extension).

Deterministic fault injection at three levels of the serving stack —
storage faults against per-session temporal state (priced through the
real protection ladders of :mod:`repro.protect`), node crash/degrade
events against the fleet, and correlated fault+load bursts — all drawn
ahead of time from a seeded :class:`ChaosSchedule` so a chaos run is
byte-identical across cold runs.

The grid driver lives in :mod:`repro.serve.chaos.campaign` (imported
directly, not here, to keep this package import-light for the serve and
fleet layers that depend on it).
"""

from repro.serve.chaos.schedule import (
    BurstWindow,
    ChaosSchedule,
    ChaosSpec,
    DegradeWindow,
    NodeChaos,
    NodeCrash,
    generate_schedule,
    overload_requests,
)
from repro.serve.chaos.storage import (
    SERVE_LADDERS,
    LadderPricing,
    StorageChaos,
    price_ladder,
    serve_ladder,
)
from repro.serve.chaos.telemetry import ChaosTelemetry

__all__ = [
    "ChaosSpec",
    "ChaosSchedule",
    "NodeCrash",
    "DegradeWindow",
    "BurstWindow",
    "NodeChaos",
    "generate_schedule",
    "overload_requests",
    "SERVE_LADDERS",
    "LadderPricing",
    "StorageChaos",
    "price_ladder",
    "serve_ladder",
    "ChaosTelemetry",
]
