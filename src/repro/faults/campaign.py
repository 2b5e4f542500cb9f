"""Fault-injection campaigns: rate × site × scheme sweeps over real maps.

A campaign answers the question the paper leaves open: what does Diffy's
DeltaD16 storage win cost in reliability?  For each grid point it stores a
set of feature maps under one scheme, injects seeded faults at one site,
reconstructs, and measures end-to-end corruption
(:class:`repro.faults.metrics.CorruptionMetrics`).

Scheme → site mapping (each site corrupts the representation that scheme
actually stores):

- ``Raw16`` × ``memory`` — raw 16-bit activation words: the map stored
  with ``keyframe_interval=1`` (every value an anchor word), corrupted and
  read back by :func:`repro.faults.inject.corrupt_protected_read`.  A bit
  error corrupts exactly one value.
- ``RawD16`` × ``stream`` — the packed dynamic-precision bitstream
  (:class:`repro.compression.codec.GroupCodec`, unsigned) corrupted before
  decode; a header hit desynchronizes the rest of the stream.  No
  protected container stores raw dynamic-precision values, so this site
  keeps its own codec round trip.
- ``DeltaD16`` × ``stream`` — the packed *delta* bitstream (the map stored
  under the ``none`` policy) corrupted before decode, then differentially
  reconstructed; combines stream desync with chain-wide error
  accumulation.
- ``DeltaD16`` × ``delta`` — decoded deltas corrupted just before
  reconstruction (:func:`repro.core.deltas.reconstruct_from_deltas`);
  isolates the pure error-amplification effect of shipping differences
  instead of values.

The protected campaign reads every variant through the same
:func:`repro.faults.inject.corrupt_protected_read` /
:func:`repro.protect.read_protected` path: Raw16 is its policy at
``keyframe_interval=1``, DeltaD16 the policy itself.

Rates are per stored bit, so schemes are compared at equal raw bit-error
rates.  Every random draw derives from the root seed through
:func:`repro.utils.rng.rng_for`, making campaigns bit-deterministic.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compression.codec import GroupCodec
from repro.compression.schemes import planar_order
from repro.core.deltas import reconstruct_from_deltas, spatial_deltas
from repro.faults.inject import (
    WORD_BITS,
    corrupt_protected_read,
    inject_deltas,
    inject_encoded,
)
from repro.faults.metrics import CorruptionMetrics, ErrorAccumulator
from repro.faults.models import FaultModel, fault_model
from repro.protect import ProtectionPolicy, protection_policy, store_protected
from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_positive_integer, check_unit_interval

__all__ = [
    "SCHEME_SITES",
    "CampaignPoint",
    "CampaignRow",
    "campaign_grid",
    "run_campaign",
    "run_length_amplification",
    "PROTECTED_CONFIGS",
    "ProtectedPoint",
    "ProtectedRow",
    "run_protected_campaign",
]

#: Injection sites valid for each storage scheme (see module docstring).
SCHEME_SITES: "dict[str, tuple[str, ...]]" = {
    "Raw16": ("memory",),
    "RawD16": ("stream",),
    "DeltaD16": ("stream", "delta"),
}

#: Default per-stored-bit fault rates swept by campaigns.
DEFAULT_RATES = (1e-5, 1e-4, 1e-3)

#: Default fault models swept by campaigns.
DEFAULT_FAULT_MODELS = ("flip1", "burst4")


@dataclass(frozen=True)
class CampaignPoint:
    """One (scheme, site, fault model, rate) grid coordinate."""

    scheme: str
    site: str
    fault_model: str
    rate: float


@dataclass(frozen=True)
class CampaignRow:
    """A grid point plus its aggregated corruption measurements."""

    point: CampaignPoint
    #: Independent injection trials aggregated into the metrics.
    trials: int
    #: Feature maps stored per trial.
    maps: int
    #: Stored bits exposed to faults, summed over maps and trials.
    stored_bits: int
    #: Fault events actually injected, summed over maps and trials.
    faults: int
    metrics: CorruptionMetrics


def campaign_grid(
    schemes: Sequence[str],
    sites: Sequence[str],
    rates: Sequence[float],
    fault_models: Sequence[str],
) -> "tuple[CampaignPoint, ...]":
    """Valid (scheme, site) pairs crossed with fault models and rates."""
    points = []
    for scheme, site in itertools.product(schemes, sites):
        if scheme not in SCHEME_SITES:
            raise ValueError(
                f"unknown scheme {scheme!r}; campaigns support {sorted(SCHEME_SITES)}"
            )
        if site not in SCHEME_SITES[scheme]:
            continue
        for model_name, rate in itertools.product(fault_models, rates):
            fault_model(model_name)  # fail fast on unknown names
            points.append(CampaignPoint(scheme, site, model_name, float(rate)))
    if not points:
        raise ValueError(f"no valid (scheme, site) combination in {schemes} x {sites}")
    return tuple(points)


class _MapContext:
    """Per-map precomputation shared across every grid point and trial."""

    def __init__(self, fmap: np.ndarray):
        arr = np.asarray(fmap, dtype=np.int64)
        if arr.ndim != 3:
            raise ValueError(f"expected (C, H, W) feature map, got shape {arr.shape}")
        self.fmap = arr
        self.flat = planar_order(arr)
        self.signed = bool(self.flat.size and self.flat.min() < 0)
        self.deltas = spatial_deltas(arr)
        self._raw_stream = None
        self._protected: dict = {}

    def raw_stream(self):
        """RawD16 codec and packed stream (computed once, reused everywhere)."""
        if self._raw_stream is None:
            codec = GroupCodec(group_size=16, signed=self.signed)
            self._raw_stream = (codec, codec.encode(self.flat))
        return self._raw_stream

    def protected(self, policy: ProtectionPolicy):
        """Protected container for one policy (computed once per map)."""
        if policy not in self._protected:
            self._protected[policy] = store_protected(self.fmap, policy)
        return self._protected[policy]


#: Schemes a :class:`repro.protect.stream.ProtectedMap` stores.
_PROTECTABLE = ("Raw16", "DeltaD16")


def _storage_policy(scheme: str, policy: ProtectionPolicy) -> ProtectionPolicy:
    """``policy`` as ``scheme`` stores it: Raw16 is keyframe interval 1."""
    if scheme == "Raw16":
        return dataclasses.replace(policy, keyframe_interval=1)
    return policy


def _inject_one(
    ctx: _MapContext,
    point: CampaignPoint,
    model: FaultModel,
    rng: np.random.Generator,
) -> "tuple[np.ndarray, int, int]":
    """Store, corrupt, and reconstruct one map at one grid point.

    Returns ``(observed map, stored bits, fault event count)``.
    """
    if point.site == "delta":
        corrupted, faults = inject_deltas(ctx.deltas, point.rate, model, rng)
        return reconstruct_from_deltas(corrupted), corrupted.size * WORD_BITS, faults

    if point.scheme == "RawD16":
        codec, encoded = ctx.raw_stream()
        corrupted, faults = inject_encoded(encoded, point.rate, model, rng)
        decoded = codec.decode(corrupted, strict=False).reshape(ctx.fmap.shape)
        return decoded, encoded.bits, faults

    pmap = ctx.protected(_storage_policy(point.scheme, protection_policy("none")))
    observed, _report, faults = corrupt_protected_read(pmap, point.rate, model, rng)
    return observed, pmap.stored_bits, faults


def _check_inputs(
    caller: str, fmaps: Sequence[np.ndarray], rates: Sequence[float], trials: int
) -> None:
    """Reject bad campaign arguments before any map is prepared."""
    if not fmaps:
        raise ValueError(f"{caller} needs at least one feature map")
    check_positive_integer("trials", trials)
    for rate in rates:
        check_unit_interval("rate", rate)


def run_campaign(
    fmaps: Sequence[np.ndarray],
    schemes: Sequence[str] = ("Raw16", "DeltaD16"),
    sites: Sequence[str] = ("memory", "stream", "delta"),
    rates: Sequence[float] = DEFAULT_RATES,
    fault_models: Sequence[str] = DEFAULT_FAULT_MODELS,
    trials: int = 2,
    seed: int = DEFAULT_SEED,
) -> "list[CampaignRow]":
    """Run the full campaign grid over ``fmaps``; see module docstring.

    Deterministic: each (point, trial, map) injection draws from its own
    :func:`rng_for` stream keyed by the root ``seed``, so re-running with
    the same arguments reproduces every row bit-for-bit.
    """
    _check_inputs("run_campaign", fmaps, rates, trials)
    points = campaign_grid(schemes, sites, rates, fault_models)
    contexts = [_MapContext(f) for f in fmaps]
    rows = []
    for point in points:
        model = fault_model(point.fault_model)
        acc = ErrorAccumulator()
        stored_bits = 0
        faults = 0
        for trial in range(trials):
            for index, ctx in enumerate(contexts):
                rng = rng_for(
                    seed,
                    "faults",
                    point.scheme,
                    point.site,
                    point.fault_model,
                    point.rate,
                    trial,
                    index,
                )
                observed, bits, n = _inject_one(ctx, point, model, rng)
                acc.add(ctx.fmap, observed)
                stored_bits += bits
                faults += n
        rows.append(
            CampaignRow(
                point=point,
                trials=trials,
                maps=len(contexts),
                stored_bits=stored_bits,
                faults=faults,
                metrics=acc.finish(),
            )
        )
    return rows


def run_length_amplification(rows: Sequence[CampaignRow]) -> "dict[str, float]":
    """Error-run-length ratio DeltaD16 / Raw16 at matched (model, rate).

    The headline number of the study: how much longer corruption streaks
    become when storage ships deltas instead of raw words (the delta
    site against the raw words in memory).  Pairs where
    either side observed no error runs are omitted (nothing to compare).
    """
    raw = {
        (r.point.fault_model, r.point.rate): r.metrics.mean_run_length
        for r in rows
        if r.point.scheme == "Raw16" and r.point.site == "memory"
    }
    out: "dict[str, float]" = {}
    for row in rows:
        if row.point.scheme != "DeltaD16" or row.point.site != "delta":
            continue
        base = raw.get((row.point.fault_model, row.point.rate))
        if base and row.metrics.mean_run_length:
            key = f"{row.point.fault_model}@{row.point.rate:g}"
            out[key] = row.metrics.mean_run_length / base
    return out


#: Default protected-vs-unprotected variant grid: the two storage schemes
#: the paper compares, each with and without its natural protection.
PROTECTED_CONFIGS: "tuple[tuple[str, str], ...]" = (
    ("Raw16", "none"),
    ("Raw16", "ecc"),
    ("DeltaD16", "none"),
    ("DeltaD16", "checksum"),
    ("DeltaD16", "keyframe"),
    ("DeltaD16", "full"),
)


@dataclass(frozen=True)
class ProtectedPoint:
    """One (scheme, protection policy, fault model, rate) grid coordinate."""

    scheme: str
    policy: str
    fault_model: str
    rate: float


@dataclass(frozen=True)
class ProtectedRow:
    """A protected grid point plus recovery accounting and corruption."""

    point: ProtectedPoint
    trials: int
    maps: int
    #: Stored bits exposed to faults (protection overhead included).
    stored_bits: int
    #: Stored bits of the same scheme with no protection at all.
    baseline_bits: int
    #: Fault events actually injected.
    faults: int
    #: ECC single-bit corrections (anchor/memory words + stream chunks).
    corrected: int
    #: ECC detections that were zero-filled instead of corrected.
    detected: int
    #: Delta groups the stream checksum rejected.
    zeroed_groups: int
    #: Wrong output values the recovery layer did NOT flag as suspect —
    #: the silent-corruption count a protection scheme is judged by.
    silent_values: int
    metrics: CorruptionMetrics

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("overhead",)

    @property
    def overhead(self) -> float:
        """Protected storage cost relative to the unprotected scheme."""
        return self.stored_bits / self.baseline_bits if self.baseline_bits else 1.0


def _resolve_policy(policy: "str | ProtectionPolicy") -> ProtectionPolicy:
    if isinstance(policy, ProtectionPolicy):
        return policy
    return protection_policy(policy)


def run_protected_campaign(
    fmaps: Sequence[np.ndarray],
    configs: "Sequence[tuple[str, str | ProtectionPolicy]]" = PROTECTED_CONFIGS,
    rates: Sequence[float] = DEFAULT_RATES,
    fault_models: Sequence[str] = DEFAULT_FAULT_MODELS,
    trials: int = 2,
    seed: int = DEFAULT_SEED,
) -> "list[ProtectedRow]":
    """Protected-vs-unprotected campaign over ``fmaps``.

    Each config is ``(scheme, policy)`` with the policy given by stock
    name or as a :class:`ProtectionPolicy` (for keyframe-interval sweeps).
    Faults hit exactly what each variant stores — raw words or SECDED
    codewords for Raw16, anchor words plus the packed (possibly
    ECC-chunked) stream for DeltaD16 — at the same per-stored-bit rate,
    so variants pay for their overhead with proportionally more exposure.
    Deterministic under ``seed`` like :func:`run_campaign`.
    """
    _check_inputs("run_protected_campaign", fmaps, rates, trials)
    resolved = []
    for scheme, policy_spec in configs:
        if scheme not in _PROTECTABLE:
            raise ValueError(
                f"protected campaigns support Raw16 and DeltaD16, got {scheme!r}"
            )
        policy = _resolve_policy(policy_spec)
        resolved.append((scheme, policy, _storage_policy(scheme, policy)))
    contexts = [_MapContext(f) for f in fmaps]
    none = protection_policy("none")
    baselines = {
        scheme: sum(c.protected(_storage_policy(scheme, none)).stored_bits for c in contexts)
        for scheme in _PROTECTABLE
    }
    rows = []
    for scheme, policy, stored in resolved:
        for model_name in fault_models:
            model = fault_model(model_name)
            for rate in rates:
                point = ProtectedPoint(scheme, policy.name, model_name, float(rate))
                acc = ErrorAccumulator()
                stored_bits = 0
                faults = 0
                corrected = 0
                detected = 0
                zeroed = 0
                silent = 0
                for trial in range(trials):
                    for index, ctx in enumerate(contexts):
                        rng = rng_for(
                            seed,
                            "protect",
                            scheme,
                            policy.name,
                            model_name,
                            rate,
                            trial,
                            index,
                        )
                        pmap = ctx.protected(stored)
                        observed, rep, n = corrupt_protected_read(
                            pmap, point.rate, model, rng
                        )
                        acc.add(ctx.fmap, observed)
                        stored_bits += pmap.stored_bits
                        faults += n
                        corrected += rep.corrected
                        detected += rep.detected
                        zeroed += rep.zeroed_groups
                        silent += int(((observed != ctx.fmap) & ~rep.flagged_mask).sum())
                rows.append(
                    ProtectedRow(
                        point=point,
                        trials=trials,
                        maps=len(contexts),
                        stored_bits=stored_bits,
                        baseline_bits=baselines[scheme] * trials,
                        faults=faults,
                        corrected=corrected,
                        detected=detected,
                        zeroed_groups=zeroed,
                        silent_values=silent,
                        metrics=acc.finish(),
                    )
                )
    return rows
