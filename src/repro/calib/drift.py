"""Per-layer drift detection: EWMA'd rates with hysteresis thresholds.

Two failure directions, two signals:

- **Overflow** — the serving width is too narrow for the drifted input:
  groups whose maxima exceed the width appear.  This is the dangerous
  direction (clipped values corrupt outputs), so it is measured on
  *every* frame and fed as a **binary** per-layer indicator (any group
  overflowed).  Binary rather than a group fraction on purpose: the
  overflow fraction scales with layer size and drift depth, but the
  decision the detector owns — "this table is wrong for the current
  inputs, recalibrate" — does not.  Under a gain hold, pricing is a
  pure function of (profile, gain), so overflow is all-or-nothing per
  layer: any *persistent* overflow drives the EWMA toward 1 and trips
  within a few frames, however few groups are involved, while a
  single-frame blip (a stray scene) decays without tripping.
- **Slack** — the serving width is stale-wide: the measured required
  width sits ``slack_margin_bits`` or more below the served width, and
  traffic is being wasted.  Benign, so it is measured only on shadowed
  frames and trips high.

Both rates are smoothed with an exponentially weighted moving average
(EWMA, weight ``alpha``) and compared against a *hysteresis pair* of
thresholds: a layer trips when its EWMA crosses ``*_trip`` while armed,
and does not re-arm until the EWMA falls back below ``*_clear``.  The
gap prevents chatter: a layer hovering at the trip point fires once,
not every frame.  A useful consequence for testing: starting from zero,
an EWMA that has seen ``k`` raw observations — even all ones — is at
most ``1 - (1 - alpha)^k``, so no sequence shorter than
``log(1 - trip) / log(1 - alpha)`` observations can trip the detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

__all__ = ["DriftConfig", "DriftDetector"]


#: Minimum unused bits for a shadowed frame to count as slack.
SLACK_MARGIN_BITS = 2


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds and smoothing of the drift detector (golden-stable)."""

    #: EWMA weight of the newest observation.
    alpha: float = 0.25
    #: Overflow EWMA that trips a layer.  The observation is binary (any
    #: group overflowed this frame), so with ``alpha=0.25`` persistent
    #: overflow crosses 0.5 on the third consecutive frame — fast enough
    #: that the fallback window stays short, while one or two isolated
    #: overflowing frames decay without tripping.
    overflow_trip: float = 0.5
    #: Overflow EWMA below which a tripped layer re-arms.
    overflow_clear: float = 0.1
    #: Slack-rate EWMA that trips a layer (fraction of shadowed frames
    #: whose measured width sits >= ``SLACK_MARGIN_BITS`` under the
    #: served width).
    slack_trip: float = 0.6
    #: Slack-rate EWMA below which a tripped layer re-arms.
    slack_clear: float = 0.3
    #: Shadowed observations required before slack may trip (cold-start
    #: guard: one wide-looking frame must not trigger a narrowing).
    min_sampled: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        for trip, clear, label in (
            (self.overflow_trip, self.overflow_clear, "overflow"),
            (self.slack_trip, self.slack_clear, "slack"),
        ):
            if not 0.0 < trip <= 1.0:
                raise ValueError(f"{label}_trip must be in (0, 1], got {trip}")
            if not 0.0 <= clear < trip:
                raise ValueError(
                    f"{label}_clear must be in [0, {label}_trip), got {clear}"
                )
        check_positive("min_sampled", self.min_sampled)


class _Channel:
    """One EWMA + hysteresis state machine (per layer, per signal)."""

    __slots__ = ("ewma", "armed", "observations")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.armed = True
        self.observations = 0

    def update(
        self, rate: float, alpha: float, trip: float, clear: float, may_trip: bool = True
    ) -> bool:
        """Fold in one observed rate; True iff this observation trips.

        ``may_trip=False`` folds the EWMA without arming consequences —
        used during a cold-start window where tripping is suppressed but
        the smoothed state must still build up.
        """
        self.observations += 1
        self.ewma += alpha * (rate - self.ewma)
        if self.armed and self.ewma >= trip:
            if may_trip:
                self.armed = False
                return True
            return False
        if not self.armed and self.ewma <= clear:
            self.armed = True
        return False

    def reset(self) -> None:
        self.ewma = 0.0
        self.armed = True
        self.observations = 0


class DriftDetector:
    """Per-layer drift state: two hysteresis channels per layer.

    ``update_overflow`` folds in every served frame's per-layer binary
    any-overflow indicators; ``update_slack`` folds in shadowed frames'
    slack indicators.
    Each returns the indices of layers that *newly* tripped on this
    observation.  After a table swap the detector is :meth:`reset` — the
    new table changes what overflow/slack even mean, so stale EWMAs must
    not carry over.
    """

    def __init__(self, n_layers: int, config: "DriftConfig | None" = None) -> None:
        check_positive("n_layers", n_layers)
        self.n_layers = n_layers
        self.config = config if config is not None else DriftConfig()
        self._overflow = [_Channel() for _ in range(n_layers)]
        self._slack = [_Channel() for _ in range(n_layers)]

    def update_overflow(
        self, overflowed: "list[bool]", may_trip: bool = True
    ) -> "list[int]":
        """Fold per-layer any-overflow indicators (one frame); newly tripped.

        ``may_trip=False`` (a post-swap cooldown window) folds the EWMA
        without tripping *or disarming* — overflow persisting past the
        window still trips on the first eligible frame.
        """
        self._check_len(overflowed)
        c = self.config
        return [
            i
            for i, (ch, over) in enumerate(zip(self._overflow, overflowed))
            if ch.update(
                1.0 if over else 0.0, c.alpha, c.overflow_trip, c.overflow_clear, may_trip
            )
        ]

    def update_slack(self, slack: "list[bool]", may_trip: bool = True) -> "list[int]":
        """Fold per-layer slack indicators (one shadowed frame).

        A layer may not trip before ``min_sampled`` shadowed
        observations — the trip decision needs a populated EWMA, not one
        lucky frame.  ``may_trip=False`` additionally suppresses trips
        during a cooldown window, as in :meth:`update_overflow`.
        """
        self._check_len(slack)
        c = self.config
        tripped = []
        for i, (ch, s) in enumerate(zip(self._slack, slack)):
            gate = may_trip and ch.observations + 1 >= c.min_sampled
            if ch.update(1.0 if s else 0.0, c.alpha, c.slack_trip, c.slack_clear, gate):
                tripped.append(i)
        return tripped

    def overflow_ewma(self, layer: int) -> float:
        return self._overflow[layer].ewma

    def reset(self) -> None:
        """Forget all smoothed state (called after every table swap)."""
        for ch in self._overflow:
            ch.reset()
        for ch in self._slack:
            ch.reset()

    def _check_len(self, values: "list") -> None:
        if len(values) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} per-layer values, got {len(values)}"
            )
