"""Seeded open-loop request generation: video sessions under load.

The unit of arrival is a *session* — one client streaming a short video
clip (the regime of :mod:`repro.data.video`): a session that starts at
``t0`` emits one inference request per frame at a fixed frame interval.
Sessions arrive by a Poisson process or a bursty (on/off-modulated
Poisson) process; both are generated ahead of the simulation from a
:func:`repro.utils.rng.rng_for` stream, so the workload is a pure
function of its parameters and the driving seed.

Open loop means arrivals never react to service latency — exactly the
regime where admission control and load shedding matter, because a slow
server cannot slow its clients down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Request:
    """One frame of one client session, offered to the service.

    ``scene_cut`` and ``motion`` carry per-frame video dynamics (see
    :func:`apply_scene_dynamics`); the defaults describe a static-pan
    clip, so workloads that never apply dynamics are unchanged.
    """

    session_id: int
    frame_index: int
    arrival_s: float
    #: Frame starts a new scene: the temporal delta is dense, so a warm
    #: serve re-anchors (pays cold) even with contiguous state resident.
    scene_cut: bool = False
    #: Relative temporal-delta density vs the calm-clip baseline (1.0);
    #: a motion burst scales the warm service time toward cold.
    motion: float = 1.0

    @property
    def is_session_head(self) -> bool:
        """First frame of its session (never has temporal state)."""
        return self.frame_index == 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated workload (golden-serializable)."""

    duration_s: float
    session_rate: float
    frames_per_session: int
    frame_interval_s: float
    process: str = "poisson"
    #: Bursty process: on-window and off-window lengths in seconds.  The
    #: on-rate is raised so the *mean* session rate stays ``session_rate``.
    burst_on_s: float = 1.0
    burst_off_s: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        check_positive("session_rate", self.session_rate)
        check_positive("frames_per_session", self.frames_per_session)
        check_positive("frame_interval_s", self.frame_interval_s)
        if self.process not in ("poisson", "bursty"):
            raise ValueError(f"process must be 'poisson' or 'bursty', got {self.process!r}")
        if self.process == "bursty":
            check_positive("burst_on_s", self.burst_on_s)
            check_positive("burst_off_s", self.burst_off_s)


def _session_starts(spec: WorkloadSpec) -> Iterator[float]:
    """Session start times in [0, duration), per the arrival process.

    The bursty process generates arrivals in *active time* at an elevated
    rate, then maps active time onto the on-windows of an on/off square
    wave — off-windows pass no arrivals, and the elevated rate exactly
    compensates so the long-run mean matches the Poisson case.
    """
    rng = rng_for(spec.seed, "serve-sessions", spec.process)
    if spec.process == "poisson":
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / spec.session_rate))
            if t >= spec.duration_s:
                return
            yield t
    else:
        on, off = spec.burst_on_s, spec.burst_off_s
        rate_on = spec.session_rate * (on + off) / on
        tau = 0.0  # active (on-window) time
        while True:
            tau += float(rng.exponential(1.0 / rate_on))
            wall = (tau // on) * (on + off) + (tau % on)
            if wall >= spec.duration_s:
                return
            yield wall


def generate_requests(spec: WorkloadSpec) -> list[Request]:
    """All frame requests of the workload, sorted by arrival time.

    Sessions starting near the end of the window still emit their full
    clip (their tail frames arrive past ``duration_s``); the tail is part
    of the offered load and identical for every engine served with the
    same spec, so cross-engine comparisons stay apples-to-apples.
    """
    requests = [
        Request(
            session_id=sid,
            frame_index=f,
            arrival_s=start + f * spec.frame_interval_s,
        )
        for sid, start in enumerate(_session_starts(spec))
        for f in range(spec.frames_per_session)
    ]
    requests.sort(key=lambda r: (r.arrival_s, r.session_id, r.frame_index))
    return requests


def offered_rps(requests: list[Request], spec: WorkloadSpec) -> float:
    """Offered request rate over the generation window."""
    return len(requests) / spec.duration_s


#: A motion burst holds ``motion=BURST_MOTION`` for ``BURST_FRAMES`` frames.
BURST_FRAMES = 3
BURST_MOTION = 2.0

#: Inter-frame interval multipliers a VFR session switches between.
VFR_INTERVAL_SCALES = (0.5, 1.0, 2.0)


def apply_scene_dynamics(
    requests: "list[Request]",
    cut_probability: float = 0.0,
    burst_probability: float = 0.0,
    seed: int = DEFAULT_SEED,
) -> "list[Request]":
    """Overlay seeded scene cuts and motion bursts on a generated workload.

    Real video sessions are not uniform pans: scenes cut (the temporal
    delta becomes dense and the serve must re-anchor) and motion bursts
    inflate delta density for a few frames.  Both are drawn per session
    from an :func:`rng_for` stream keyed by the session id alone, so the
    overlay is a pure function of ``(requests, parameters, seed)`` —
    independent of list order, worker count, or which node serves the
    session:

    - each non-head frame starts a new scene with ``cut_probability``;
    - each frame starts a motion burst with ``burst_probability``; a
      burst holds ``motion=BURST_MOTION`` for :data:`BURST_FRAMES` frames
      (bursts overlap by extension, they do not stack).

    Returns a new request list in the same order.  With both
    probabilities at 0 the input requests are returned unchanged, so
    existing workload-dependent goldens are untouched.
    """
    for name, p in (("cut_probability", cut_probability), ("burst_probability", burst_probability)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    if cut_probability == 0.0 and burst_probability == 0.0:
        return list(requests)
    frames_by_session: "dict[int, set[int]]" = {}
    for r in requests:
        frames_by_session.setdefault(r.session_id, set()).add(r.frame_index)
    dynamics: "dict[tuple[int, int], tuple[bool, float]]" = {}
    for sid in sorted(frames_by_session):
        rng = rng_for(seed, "scene-dynamics", sid)
        burst_until = -1  # last frame index still inside a burst
        for f in sorted(frames_by_session[sid]):
            cut = rng.random() < cut_probability and f > 0
            if rng.random() < burst_probability:
                burst_until = max(burst_until, f + BURST_FRAMES - 1)
            motion = BURST_MOTION if f <= burst_until else 1.0
            dynamics[(sid, f)] = (cut, motion)
    return [
        Request(
            session_id=r.session_id,
            frame_index=r.frame_index,
            arrival_s=r.arrival_s,
            scene_cut=cut,
            motion=motion,
        )
        for r in requests
        for cut, motion in (dynamics[(r.session_id, r.frame_index)],)
    ]


def generate_vfr_requests(
    spec: WorkloadSpec,
    switch_probability: float = 0.1,
    seed: "int | None" = None,
) -> list[Request]:
    """Frame requests with seeded mid-session frame-rate switches.

    Real clients renegotiate frame rate mid-stream (adaptive bitrate,
    thermal throttling, tab focus): after each frame the session switches
    with ``switch_probability`` to a fresh inter-frame interval —
    ``spec.frame_interval_s`` times a uniformly drawn entry of
    :data:`VFR_INTERVAL_SCALES`.  A faster cadence packs more frames into the
    same service capacity; a slower one stretches the session and widens
    the re-anchor exposure window — both move the drift detector's
    observation cadence, which is why the calibration experiments use
    this generator.

    Session start times are exactly those of :func:`generate_requests`
    (same arrival process, same draws); per-session switches come from an
    :func:`rng_for` stream keyed by the session id alone, so the overlay
    is order- and worker-independent.  ``switch_probability=0`` returns
    the identical request list to :func:`generate_requests`, so existing
    workload-dependent goldens are untouched.
    """
    if not 0.0 <= switch_probability <= 1.0:
        raise ValueError(f"switch_probability must be in [0, 1], got {switch_probability}")
    vfr_seed = spec.seed if seed is None else seed
    if switch_probability == 0.0:
        # Bit-identical fall-through (same floats, not just same times).
        return generate_requests(spec)
    requests = []
    for sid, start in enumerate(_session_starts(spec)):
        rng = rng_for(vfr_seed, "serve-vfr", sid)
        interval = spec.frame_interval_s
        t = start
        for f in range(spec.frames_per_session):
            requests.append(Request(session_id=sid, frame_index=f, arrival_s=t))
            if switch_probability and rng.random() < switch_probability:
                scale = VFR_INTERVAL_SCALES[int(rng.integers(len(VFR_INTERVAL_SCALES)))]
                interval = spec.frame_interval_s * scale
            t += interval
    requests.sort(key=lambda r: (r.arrival_s, r.session_id, r.frame_index))
    return requests


def diurnal_rate(t: float, session_rate: float, amplitude: float, period_s: float) -> float:
    """Instantaneous session rate of a diurnal (sinusoidal) load profile.

    The profile has mean ``session_rate``, trough ``(1 - amplitude) *
    session_rate`` at ``t = 0`` and peak ``(1 + amplitude) *
    session_rate`` at ``t = period_s / 2`` — the day/night swing an
    autoscaler has to track.
    """
    phase = 2.0 * math.pi * (t / period_s)
    return session_rate * (1.0 - amplitude * math.cos(phase))


def generate_diurnal_requests(
    spec: WorkloadSpec, amplitude: float, period_s: float
) -> list[Request]:
    """Frame requests under a diurnal session-arrival profile.

    Implemented by Poisson thinning: session starts are drawn from the
    *peak*-rate homogeneous process of ``spec`` (which must be Poisson)
    and each start at time ``t`` is kept with probability
    ``rate(t) / peak`` — the standard exact construction of an
    inhomogeneous Poisson process.  Kept sessions are renumbered densely
    so session ids stay contiguous.  A pure function of ``spec``,
    ``amplitude`` and ``period_s`` — no :class:`WorkloadSpec` fields are
    added, so existing workload goldens are untouched.
    """
    if spec.process != "poisson":
        raise ValueError(f"diurnal thinning requires a poisson spec, got {spec.process!r}")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
    check_positive("period_s", period_s)
    peak = spec.session_rate * (1.0 + amplitude)
    peak_spec = WorkloadSpec(
        duration_s=spec.duration_s,
        session_rate=peak,
        frames_per_session=spec.frames_per_session,
        frame_interval_s=spec.frame_interval_s,
        process="poisson",
        seed=spec.seed,
    )
    thin = rng_for(spec.seed, "serve-diurnal", amplitude, period_s)
    starts = [
        t
        for t in _session_starts(peak_spec)
        if thin.random() * peak < diurnal_rate(t, spec.session_rate, amplitude, period_s)
    ]
    requests = [
        Request(session_id=sid, frame_index=f, arrival_s=start + f * spec.frame_interval_s)
        for sid, start in enumerate(starts)
        for f in range(spec.frames_per_session)
    ]
    requests.sort(key=lambda r: (r.arrival_s, r.session_id, r.frame_index))
    return requests
