"""Per-session temporal-delta state under a memory cap.

A warm session serves its next frame in *temporal* mode: the previous
frame's activations are resident, so a differential engine streams
temporal deltas (:func:`repro.core.temporal.temporal_deltas`) instead of
re-deriving everything spatially.  That residency is CBInfer's storage
cost — one full set of feature maps per session — so a real service must
bound it: this store keeps at most ``capacity_bytes`` of frame buffers
and evicts least-recently-served sessions when a new one needs room.

The store only answers *mode* questions; the actual activation arrays
live in the trace-driven latency model.  What matters for scheduling is
exactly what this tracks: which sessions are warm, and what residency
costs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.utils.timing import FieldMerge


@dataclass
class StateStats(FieldMerge):
    """Lifetime counters of one store (every field adds on merge)."""

    warm: int = 0  # frames served in temporal mode
    cold: int = 0  # frames served in spatial/raw mode
    insertions: int = 0
    evictions: int = 0
    #: Cold serves that re-anchor a session which *had* state here: the
    #: previous frame is resident but non-contiguous (shed frame gap)...
    reanchors_gap: int = 0
    #: ...or the session's state was evicted under the byte cap and the
    #: session is being re-admitted.  Both pay a cold frame that a larger
    #: store would not have charged — the honest migration/eviction cost.
    reanchors_evicted: int = 0
    #: Cold serves forced because the session's resident state was
    #: invalidated (detected storage corruption, node crash) — the
    #: protection ladder's re-anchor cost, paid instead of serving wrong.
    reanchors_lost: int = 0
    #: Cold serves forced by a scene cut: the temporal delta is useless
    #: across a cut, so the service re-anchors even with state resident.
    reanchors_cut: int = 0
    #: Cold serves forced by a calibration-table swap: resident state was
    #: written under an older precision table, so the session re-anchors
    #: under the new one — recalibration downtime, priced honestly.
    reanchors_recal: int = 0

    @property
    def reanchors(self) -> int:
        return (
            self.reanchors_gap
            + self.reanchors_evicted
            + self.reanchors_lost
            + self.reanchors_cut
            + self.reanchors_recal
        )

    @property
    def warm_fraction(self) -> float:
        total = self.warm + self.cold
        return self.warm / total if total else 0.0


class TemporalStateStore:
    """LRU store of per-session previous-frame state.

    ``bytes_per_session`` is the frame-buffer footprint of one session
    (:meth:`repro.core.temporal.FrameSequenceTrace.frame_buffer_bytes`,
    scaled to the served resolution).  ``capacity_bytes=0`` disables
    temporal state entirely — every frame is served cold, which is the
    CBInfer-less baseline the scheduling experiments compare against.
    """

    def __init__(self, capacity_bytes: int, bytes_per_session: int):
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        if bytes_per_session <= 0:
            raise ValueError(f"bytes_per_session must be > 0, got {bytes_per_session}")
        self.capacity_bytes = int(capacity_bytes)
        self.bytes_per_session = int(bytes_per_session)
        #: session_id -> last frame index whose state is resident (LRU order).
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        #: Sessions whose state was evicted under the cap (cleared when the
        #: session is re-admitted or explicitly dropped); distinguishes an
        #: eviction re-anchor from a brand-new session's first cold frame.
        self._displaced: "set[int]" = set()
        #: Sessions whose state was invalidated (detected corruption or a
        #: node crash); their next serve is a ``reanchors_lost`` cold frame.
        self._invalidated: "set[int]" = set()
        #: Current calibration-table version; state written under an older
        #: version is stale (see :meth:`set_version`).  0 when no
        #: calibration loop is attached — the legacy path never bumps it,
        #: so calibration-free runs are bit-identical to before.
        self._version = 0
        #: session_id -> version its resident state was written under.
        self._session_version: "dict[int, int]" = {}
        self.stats = StateStats()

    @property
    def resident_sessions(self) -> int:
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * self.bytes_per_session

    @property
    def max_sessions(self) -> int:
        return self.capacity_bytes // self.bytes_per_session

    def set_version(self, version: int) -> None:
        """Install a new calibration-table version (atomic swap point).

        State buffers hold activations *encoded under a precision table*;
        after a swap the resident encodings no longer match what the new
        table would produce, so every resident session's next serve
        re-anchors cold (``reanchors_recal``) and re-admits itself under
        the new version.  O(1): staleness is checked lazily at serve
        time, nothing is scanned or copied here.
        """
        self._version = int(version)

    def _fresh(self, session_id: int) -> bool:
        return self._session_version.get(session_id, self._version) == self._version

    def is_warm(self, session_id: int, frame_index: int) -> bool:
        """Would serving this frame run in temporal mode right now?"""
        last = self._resident.get(session_id)
        return last is not None and last == frame_index - 1 and self._fresh(session_id)

    def serve(self, session_id: int, frame_index: int, scene_cut: bool = False) -> str:
        """Record one frame being served; returns ``"temporal"`` or ``"spatial"``.

        Temporal mode requires the *immediately preceding* frame's state:
        a gap (shed frame, evicted session) falls back to spatial and the
        served frame re-anchors the session — the next contiguous frame
        is warm again.  ``scene_cut`` forces a spatial re-anchor even with
        contiguous state resident: across a cut the temporal delta is as
        dense as the frame itself, so the warm path buys nothing.
        """
        last = self._resident.get(session_id)
        contiguous = last is not None and last == frame_index - 1
        fresh = self._fresh(session_id)
        warm = contiguous and fresh and not scene_cut
        if warm:
            self.stats.warm += 1
        else:
            self.stats.cold += 1
            if scene_cut and contiguous and fresh:
                self.stats.reanchors_cut += 1
            elif session_id in self._resident and not fresh:
                # Resident state predates the current calibration table:
                # the swap's deferred cost lands here.
                self.stats.reanchors_recal += 1
            elif session_id in self._resident:
                self.stats.reanchors_gap += 1
            elif session_id in self._invalidated:
                # Re-admission after corruption/crash invalidation: the
                # cold frame is the protection ladder's recovery cost.
                self.stats.reanchors_lost += 1
                self._invalidated.discard(session_id)
            elif session_id in self._displaced:
                # Re-admission after a byte-cap eviction: this cold frame
                # is the eviction's deferred cost, not a fresh session.
                self.stats.reanchors_evicted += 1
                self._displaced.discard(session_id)
        self._touch(session_id, frame_index)
        return "temporal" if warm else "spatial"

    def _touch(self, session_id: int, frame_index: int) -> None:
        if session_id in self._resident:
            self._resident[session_id] = frame_index
            self._resident.move_to_end(session_id)
            self._session_version[session_id] = self._version
            return
        if self.bytes_per_session > self.capacity_bytes:
            return  # a single session cannot fit; stay cold forever
        while self.resident_bytes + self.bytes_per_session > self.capacity_bytes:
            evicted_id, _ = self._resident.popitem(last=False)
            self._session_version.pop(evicted_id, None)
            self._displaced.add(evicted_id)
            self.stats.evictions += 1
        self._resident[session_id] = frame_index
        self._session_version[session_id] = self._version
        self.stats.insertions += 1

    def invalidate(self, session_id: int) -> bool:
        """Discard one session's state as *untrustworthy* (detected fault).

        Unlike an eviction this is not a capacity decision: the ladder
        flagged the stored state, so serving from it would be wrong.  The
        session's next frame re-anchors cold as ``reanchors_lost``.
        """
        if self._resident.pop(session_id, None) is None:
            return False
        self._session_version.pop(session_id, None)
        self._displaced.discard(session_id)
        self._invalidated.add(session_id)
        return True

    def invalidate_all(self) -> "tuple[int, ...]":
        """Invalidate every resident session (node crash lost the store).

        Returns the invalidated session ids in LRU order so the caller
        can track per-session recovery times.
        """
        lost = tuple(self._resident)
        for session_id in lost:
            self._displaced.discard(session_id)
            self._invalidated.add(session_id)
        self._resident.clear()
        self._session_version.clear()
        return lost

    def drop(self, session_id: int) -> bool:
        """Explicitly release one session's state (session end)."""
        self._displaced.discard(session_id)
        self._invalidated.discard(session_id)
        self._session_version.pop(session_id, None)
        return self._resident.pop(session_id, None) is not None
