"""Deterministic node autoscaling for the serving fleet.

The controller models the simplest production-shaped loop: every
``eval_interval_s`` of virtual time it looks at the request rate
observed over the window just ended, computes the node count that keeps
per-node load at or under ``target_rps_per_node``, and moves one step
toward it.  Scale-down is *graceful*: the victim node first drains
(router stops placing new work on it; in-flight sessions migrate on
their next frame) and is removed one evaluation later — so every
scale-down's migration/re-anchor cost is visible in the fleet report,
never waved away.

Everything is a pure function of the arrival stream and the policy:
the controller observes only arrival timestamps, all tie-breaks are by
node id, and new nodes take ids from a monotone counter — which is what
keeps fleet goldens byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.serve.fleet.routing import Router
from repro.utils.validation import check_positive

__all__ = ["AutoscalePolicy", "ScaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark knobs of the scaling loop."""

    min_nodes: int = 1
    max_nodes: int = 16
    eval_interval_s: float = 1.0
    #: Desired steady-state request rate per node; desired node count is
    #: ``ceil(observed_rate / target_rps_per_node)`` clamped to the range.
    target_rps_per_node: float = 1.0
    #: Hysteresis: scale down only when the desired count is below the
    #: current count by more than this fraction of a node's capacity
    #: worth of rate (prevents flapping at the boundary).
    down_hysteresis: float = 0.1

    def __post_init__(self) -> None:
        check_positive("min_nodes", self.min_nodes)
        check_positive("eval_interval_s", self.eval_interval_s)
        check_positive("target_rps_per_node", self.target_rps_per_node)
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) must be >= min_nodes ({self.min_nodes})"
            )
        if not 0.0 <= self.down_hysteresis < 1.0:
            raise ValueError(f"down_hysteresis must be in [0, 1), got {self.down_hysteresis}")


@dataclass(frozen=True)
class ScaleEvent:
    """One topology action the controller took (golden-serializable)."""

    time_s: float
    action: str  # "add" | "drain" | "remove"
    node_id: int
    #: Routable node count after the action.
    active_nodes: int


@dataclass
class Autoscaler:
    """Windowed-rate watermark controller driving a :class:`Router`."""

    policy: AutoscalePolicy
    router: Router
    next_node_id: int
    events: "list[ScaleEvent]" = field(default_factory=list)
    _window_count: int = 0
    _next_eval_s: float = 0.0

    def __post_init__(self) -> None:
        self._next_eval_s = self.policy.eval_interval_s

    def observe(self, arrival_s: float) -> None:
        """Account one arrival; runs any evaluations due before it."""
        while arrival_s >= self._next_eval_s:
            self._evaluate(self._next_eval_s)
            self._next_eval_s += self.policy.eval_interval_s
        self._window_count += 1

    def _record(self, when: float, action: str, node: int) -> None:
        self.events.append(
            ScaleEvent(
                time_s=when,
                action=action,
                node_id=node,
                active_nodes=len(self.router.active_nodes),
            )
        )

    def _evaluate(self, when: float) -> None:
        rate = self._window_count / self.policy.eval_interval_s
        self._window_count = 0
        # Finish the previous evaluation's scale-down: drained nodes had
        # one full interval to hand their sessions over.
        for node in self.router.draining_nodes:
            self.router.remove_node(node)
            self._record(when, "remove", node)
        active = self.router.active_nodes
        desired = max(1, math.ceil(rate / self.policy.target_rps_per_node))
        desired = min(max(desired, self.policy.min_nodes), self.policy.max_nodes)
        if desired > len(active):
            node = self.next_node_id
            self.next_node_id += 1
            self.router.add_node(node)
            self._record(when, "add", node)
        elif desired < len(active) and len(active) > self.policy.min_nodes:
            # Hysteresis: require the rate to clear the lower watermark.
            watermark = (len(active) - 1 - self.policy.down_hysteresis)
            if rate <= watermark * self.policy.target_rps_per_node:
                node = max(active)
                self.router.drain_node(node)
                self._record(when, "drain", node)

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e.action == "add")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.events if e.action == "drain")
