"""Session-affinity routing policies for the serving fleet.

A video session's frames are only cheap on the node that holds the
session's previous-frame state (:mod:`repro.serve.state`), so the
front-end router is not a plain load balancer: every placement decision
trades load spread against state locality.  Four policies span that
trade-off:

- ``random`` — per-request uniform scatter.  No affinity at all; the
  floor every stickier policy must beat on warm fraction.
- ``hash`` — consistent hashing of the session id onto a ring of
  virtual nodes.  Perfect affinity while topology is stable and minimal
  remapping when it changes, but load-blind: an unlucky hash puts more
  sessions on one node and that node sheds.
- ``least_loaded`` — per-request pick of the node with the smallest
  backlog estimate.  Excellent load spread, no affinity (consecutive
  frames scatter), so temporal state rarely helps.
- ``state_aware`` — sticky to the node that holds the session's state;
  new (or displaced) sessions are placed on the active node with the
  fewest live sessions.  Never routes to a draining node.

All policies are deterministic: node choices depend only on the arrival
stream, the seed, and topology events — never on Python ``hash()`` or
iteration order of unordered containers.  Hashing uses the repo's
BLAKE2b seed derivation (:func:`repro.utils.rng.derive_seed`), which is
stable across processes and Python versions.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Iterable, Optional, Sequence

from repro.utils.rng import DEFAULT_SEED, derive_seed, rng_for
from repro.utils.validation import check_positive

__all__ = [
    "ROUTING_POLICIES",
    "stable_hash",
    "Router",
    "RandomRouter",
    "ConsistentHashRouter",
    "LeastLoadedRouter",
    "StateAwareRouter",
    "make_router",
]

#: Policy names accepted by :func:`make_router`, in ladder order.
ROUTING_POLICIES = ("random", "hash", "least_loaded", "state_aware")


def stable_hash(*keys: object) -> int:
    """Stable 63-bit hash of the keys (BLAKE2b; process-independent)."""
    return derive_seed(0, *keys)


class Router:
    """Base router: node membership plus the draining life-cycle.

    A node is *active* (routable), *draining* (still serving what it
    has, but receives no new routes — scale-down announced) or removed.
    Subclasses implement :meth:`route`; topology mutations funnel
    through the hooks so policy-specific structures stay in sync.
    """

    policy = "base"

    def __init__(self, nodes: Iterable[int]):
        self._active: "list[int]" = sorted(set(nodes))
        if not self._active:
            raise ValueError("router needs at least one node")
        self._draining: "set[int]" = set()

    # ---- topology --------------------------------------------------------

    @property
    def active_nodes(self) -> "tuple[int, ...]":
        """Routable nodes (sorted, draining excluded)."""
        return tuple(n for n in self._active if n not in self._draining)

    @property
    def draining_nodes(self) -> "tuple[int, ...]":
        return tuple(sorted(self._draining))

    def is_routable(self, node: int) -> bool:
        return node in self._active and node not in self._draining

    def add_node(self, node: int) -> None:
        if node in self._active:
            raise ValueError(f"node {node} already present")
        bisect.insort(self._active, node)
        self._on_add(node)

    def drain_node(self, node: int) -> None:
        """Stop routing new work to ``node``; it stays up until removed."""
        if node not in self._active:
            raise ValueError(f"node {node} not present")
        if len(self._active) - len(self._draining) <= 1 and node not in self._draining:
            raise ValueError("cannot drain the last routable node")
        self._draining.add(node)

    def remove_node(self, node: int) -> None:
        if node not in self._active:
            raise ValueError(f"node {node} not present")
        self._active.remove(node)
        self._draining.discard(node)
        self._on_remove(node)

    def _on_add(self, node: int) -> None:  # pragma: no cover - hook default
        pass

    def _on_remove(self, node: int) -> None:  # pragma: no cover - hook default
        pass

    # ---- routing ---------------------------------------------------------

    def route(self, session_id: int, now: float) -> int:
        """Pick the node for one request of ``session_id`` arriving ``now``."""
        raise NotImplementedError


class RandomRouter(Router):
    """Uniform per-request scatter over the routable nodes (seeded)."""

    policy = "random"

    def __init__(self, nodes: Iterable[int], seed: int = DEFAULT_SEED):
        super().__init__(nodes)
        self._rng = rng_for(seed, "fleet-random-router")

    def route(self, session_id: int, now: float) -> int:
        candidates = self.active_nodes
        return candidates[int(self._rng.integers(len(candidates)))]


class ConsistentHashRouter(Router):
    """Consistent hashing with virtual nodes.

    Each node owns ``vnodes`` points on a hash ring; a session maps to
    the first point clockwise of its own hash.  Adding or removing one
    node remaps only the sessions whose arcs that node's points cover —
    about ``sessions / N`` of them — which is the whole reason this
    policy exists.  Draining nodes keep their ring points but lookups
    skip them, so drained traffic spills to each arc's next owner
    instead of reshuffling everyone.
    """

    policy = "hash"

    def __init__(self, nodes: Iterable[int], vnodes: int = 64):
        check_positive("vnodes", vnodes)
        self.vnodes = int(vnodes)
        self._ring: "list[tuple[int, int]]" = []  # (point, node), sorted
        super().__init__(nodes)
        for node in self._active:
            self._on_add(node)

    def _on_add(self, node: int) -> None:
        for j in range(self.vnodes):
            bisect.insort(self._ring, (stable_hash("ring", node, j), node))

    def _on_remove(self, node: int) -> None:
        self._ring = [(p, n) for p, n in self._ring if n != node]

    def route(self, session_id: int, now: float) -> int:
        point = stable_hash("session", session_id)
        start = bisect.bisect_right(self._ring, (point, -1))
        size = len(self._ring)
        for step in range(size):
            node = self._ring[(start + step) % size][1]
            if node not in self._draining:
                return node
        raise RuntimeError("no routable node on the ring")  # pragma: no cover


class LeastLoadedRouter(Router):
    """Per-request pick of the node with the smallest backlog estimate.

    The router cannot see inside the nodes (that coupling would make
    shards order-dependent), so it keeps the classic front-end estimate:
    a virtual finish time per node, advanced by ``est_service_s`` per
    routed request and floored at ``now``.  Ties break on the lowest
    node id, keeping the policy deterministic.
    """

    policy = "least_loaded"

    def __init__(self, nodes: Iterable[int], est_service_s: float):
        check_positive("est_service_s", est_service_s)
        self.est_service_s = float(est_service_s)
        super().__init__(nodes)
        self._finish: "dict[int, float]" = {n: 0.0 for n in self._active}

    def _on_add(self, node: int) -> None:
        self._finish[node] = 0.0

    def _on_remove(self, node: int) -> None:
        self._finish.pop(node, None)

    def backlog_s(self, node: int, now: float) -> float:
        return max(self._finish.get(node, 0.0) - now, 0.0)

    def route(self, session_id: int, now: float) -> int:
        best = min(self.active_nodes, key=lambda n: (self.backlog_s(n, now), n))
        self._finish[best] = max(self._finish[best], now) + self.est_service_s
        return best


class StateAwareRouter(Router):
    """Sticky routing to the node holding the session's temporal state.

    A session's first frame is placed on the routable node with the
    fewest live sessions (load-aware placement); every later frame
    follows the session to that node, because that is where its
    previous-frame state lives.  Sessions idle longer than
    ``session_ttl_s`` are expired from the table (their state would have
    been evicted anyway).  If a session's node is draining or gone, the
    session is re-placed — and pays the migration re-anchor the fleet
    report accounts for.  A draining node is **never** returned.
    """

    policy = "state_aware"

    def __init__(self, nodes: Iterable[int], session_ttl_s: float):
        check_positive("session_ttl_s", session_ttl_s)
        self.session_ttl_s = float(session_ttl_s)
        super().__init__(nodes)
        #: session -> (node, last routed time); insertion order = LRU.
        self._sessions: "OrderedDict[int, tuple[int, float]]" = OrderedDict()
        self._live: "dict[int, int]" = {n: 0 for n in self._active}

    def _on_add(self, node: int) -> None:
        self._live[node] = 0

    def _on_remove(self, node: int) -> None:
        self._live.pop(node, None)

    def _expire(self, now: float) -> None:
        while self._sessions:
            sid, (node, last) = next(iter(self._sessions.items()))
            if last + self.session_ttl_s >= now:
                break
            del self._sessions[sid]
            if node in self._live:
                self._live[node] -= 1

    def route(self, session_id: int, now: float) -> int:
        self._expire(now)
        entry = self._sessions.get(session_id)
        if entry is not None:
            node = entry[0]
            if self.is_routable(node):
                self._sessions[session_id] = (node, now)
                self._sessions.move_to_end(session_id)
                return node
            del self._sessions[session_id]
            if node in self._live:
                self._live[node] -= 1
        node = min(self.active_nodes, key=lambda n: (self._live[n], n))
        self._sessions[session_id] = (node, now)
        self._live[node] += 1
        return node


def make_router(
    policy: str,
    nodes: Sequence[int],
    seed: int = DEFAULT_SEED,
    est_service_s: float = 1.0,
    session_ttl_s: Optional[float] = None,
) -> Router:
    """Construct the named routing policy over ``nodes``."""
    if policy == "random":
        return RandomRouter(nodes, seed=seed)
    if policy == "hash":
        return ConsistentHashRouter(nodes)
    if policy == "least_loaded":
        return LeastLoadedRouter(nodes, est_service_s=est_service_s)
    if policy == "state_aware":
        return StateAwareRouter(nodes, session_ttl_s=session_ttl_s or 1e9)
    raise ValueError(f"unknown routing policy {policy!r}; expected one of {ROUTING_POLICIES}")
