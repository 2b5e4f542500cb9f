"""Extension experiment: weight-side compression + value prediction.

Every ladder so far prices activations and carries weights as dense
16-bit filters.  This experiment adds the weight axis and the
speculative engine built on it:

- **MSR compaction** — the network's weights are quantile-calibrated to
  INT8 (:mod:`repro.weights.quant`) and compacted by the per-column MSR
  codec (:mod:`repro.weights.msr`): coverage fraction, per-scheme stored
  bits (``Raw16W``/``Raw8W``/``MSR4W``), and a per-layer roundtrip
  smoke, plus a protected round trip through
  :func:`repro.protect.stream.read_stream` (SECDED + stream checksum
  composing on weights exactly as on activations).
- **Composed ladders** — Fig 5 footprints and Fig 14 traffic with
  activation x weight scheme pairs ("DeltaD16+MSR4W"), normalized to
  the dense NoCompression+Raw16W corner.
- **Value-prediction tradeoff** — the VP engine's accuracy → cycle-cost
  curve over a threshold sweep: hit fraction, prediction MSE, and mean
  frame cycles versus PRA (disabled ⇒ byte-identical to PRA by
  construction, pinned in the goldens).
- **Serve pricing** — the ratio a compressed MSR4W weight stream would
  shrink the per-batch weight-load overhead by over :data:`DEFAULT_MEMORY`
  (the serve stack itself prices batches with the measured dense
  ``ServiceTimes.batch_overhead_s``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.memory import memory_system
from repro.arch.predict import ValuePredictionModel
from repro.arch.sim import DEFAULT_MEMORY, model_for
from repro.compression.footprint import composed_footprints
from repro.compression.traffic import composed_traffic
from repro.experiments.common import traces_for
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import prepare_model
from repro.protect.stream import encode_stream_chunks, read_stream
from repro.weights import MSRCodec, network_int8_weights
from repro.weights.schemes import network_weight_bits

#: Weight schemes priced side by side (Raw16W = the dense status quo).
WEIGHT_SCHEME_NAMES = ("Raw16W", "Raw8W", "MSR4W")

#: Activation x weight cells of the composed Fig 5 / Fig 14 ladders.
COMPOSED_PAIRS = (
    ("NoCompression", "Raw16W"),
    ("DeltaD16", "Raw16W"),
    ("DeltaD16", "Raw8W"),
    ("DeltaD16", "MSR4W"),
)

#: Prediction thresholds swept by the accuracy -> cycle-cost curve.
VP_THRESHOLDS = (0, 1, 2, 4, 8)

#: Misprediction pipeline-flush cost (cycles per missed activation).
VP_RECOVERY_CYCLES = 2

#: Traces averaged by the VP curve (matches the serve layer's clip use).
TRACE_COUNT = 2


@dataclass(frozen=True)
class VPRow:
    """One operating point of the value-prediction tradeoff curve."""

    threshold: int
    hit_fraction: float
    mse: float
    mean_cycles: float
    cycles_vs_pra: float


@dataclass(frozen=True)
class WeightStudyResult:
    """Weight-compression study output, as pinned by the goldens."""

    model: str
    crop: int
    #: Total INT8 weights across the network's conv layers.
    weight_values: int
    #: Adaptive per-column MSR coverage (in-band fraction).
    msr_coverage: float
    #: Encode/decode reproduced every layer's weights exactly.
    roundtrip_ok: bool
    #: SECDED+checksum round trip through ``read_stream`` corrected
    #: an injected single-bit storage fault back to the exact weights.
    memory_roundtrip_ok: bool
    #: Stored bits per weight scheme, summed over layers.
    scheme_bits: dict
    #: Composed Fig 5 footprints, normalized to NoCompression+Raw16W.
    footprints: dict
    #: Composed Fig 14 traffic, normalized to NoCompression+Raw16W.
    traffic: dict
    #: The VP tradeoff curve over ``VP_THRESHOLDS``.
    vp_rows: tuple
    #: Mean frame cycles of plain PRA (the VP engine's substrate).
    pra_mean_cycles: float
    #: Mean frame cycles of the VP engine with prediction disabled.
    vp_disabled_mean_cycles: float
    #: MSR4W batch weight-load time over the dense Raw16W load time.
    serve_overhead_ratio: float

    __golden_properties__ = (
        "coverage_ok",
        "msr_raw8_ratio",
        "msr_below_raw8",
        "composed_delta_msr",
        "vp_hits_monotone",
        "vp_cycles_monotone",
        "vp_disabled_matches_pra",
        "bits_per_weight",
        "bits_vs_raw16w",
    )

    @property
    def coverage_ok(self) -> bool:
        """Acceptance bar: >= 95% of weights carried in-band."""
        return self.msr_coverage >= 0.95

    @property
    def msr_raw8_ratio(self) -> float:
        """MSR4W stored bits over Raw8W (the compaction headline)."""
        return self.scheme_bits["MSR4W"] / self.scheme_bits["Raw8W"]

    @property
    def msr_below_raw8(self) -> bool:
        """Acceptance bar: MSR4W measurably below uncompressed INT8."""
        return self.msr_raw8_ratio < 1.0

    @property
    def composed_delta_msr(self) -> float:
        """The DeltaD16+MSR4W cell of the composed traffic ladder."""
        return float(self.traffic["DeltaD16+MSR4W"])

    @property
    def vp_hits_monotone(self) -> bool:
        """Hit fraction is nondecreasing in the prediction threshold."""
        hits = [row.hit_fraction for row in self.vp_rows]
        return all(b >= a for a, b in zip(hits, hits[1:]))

    @property
    def vp_cycles_monotone(self) -> bool:
        """Cycle cost is nonincreasing in the prediction threshold."""
        cycles = [row.mean_cycles for row in self.vp_rows]
        return all(b <= a for a, b in zip(cycles, cycles[1:]))

    @property
    def vp_disabled_matches_pra(self) -> bool:
        """Disabled prediction degenerates to PRA exactly."""
        return self.vp_disabled_mean_cycles == self.pra_mean_cycles

    @property
    def bits_per_weight(self) -> dict:
        """Stored bits per INT8 weight, per scheme."""
        return {name: bits / self.weight_values for name, bits in self.scheme_bits.items()}

    @property
    def bits_vs_raw16w(self) -> dict:
        """Stored bits per scheme relative to Raw16W."""
        return {name: bits / self.scheme_bits["Raw16W"] for name, bits in self.scheme_bits.items()}


def _mean_frame_cycles(model, traces) -> float:
    """Mean whole-frame cycles of one model over the traces."""
    return float(
        np.mean(
            [
                sum(model.layer_cycles(layer).cycles for layer in trace)
                for trace in traces
            ]
        )
    )


def _roundtrip_ok(
    int_weights: "dict[str, tuple[np.ndarray, int]]", codec: MSRCodec
) -> bool:
    """Every layer's weights survive an encode/decode round trip."""
    return all(
        np.array_equal(codec.decode(codec.encode(weights)), weights)
        for weights, _scale in int_weights.values()
    )


def _memory_roundtrip_ok(sample: np.ndarray) -> bool:
    """Protected weight read: SECDED corrects an injected single flip."""

    def flip_one(codes: np.ndarray) -> np.ndarray:
        corrupted = codes.copy()
        corrupted[min(7, corrupted.size - 1)] ^= 1 << 3
        return corrupted

    protected = MSRCodec(bits=8, max_msr=4, column_size=256, checksum=True)
    encoded = protected.encode(sample)
    values, flagged, corrected, _ = read_stream(
        protected, encoded, encode_stream_chunks(encoded), flip_one
    )
    return np.array_equal(values, sample) and corrected == 1 and not flagged


def run(
    *,
    model: str,
    crop: int,
    seed: int,
) -> WeightStudyResult:
    """Quantize ``model``'s weights, compact, and sweep the VP curve."""
    net = prepare_model(model, seed)
    traces = traces_for(model, count=TRACE_COUNT, crop=crop, seed=seed)
    int_weights = network_int8_weights(net)
    codec = MSRCodec(bits=8, max_msr=4, column_size=256)

    total = compensated = 0
    for weights, _scale in int_weights.values():
        layout = codec.layout(weights)
        total += int(weights.size)
        compensated += int(layout.comp_counts.sum())
    coverage = 1.0 - compensated / total if total else 1.0

    scheme_bits = {
        name: sum(network_weight_bits(net, name).values())
        for name in WEIGHT_SCHEME_NAMES
    }
    roundtrip_ok = _roundtrip_ok(int_weights, codec)
    sample = next(iter(int_weights.values()))[0]

    footprints = composed_footprints(net, traces, COMPOSED_PAIRS)
    traffic = composed_traffic(net, traces, COMPOSED_PAIRS, crop, crop)

    pra = model_for("PRA")
    pra_cycles = _mean_frame_cycles(pra, traces)
    vp_disabled = ValuePredictionModel(enabled=False)
    vp_rows = []
    for threshold in VP_THRESHOLDS:
        vp = ValuePredictionModel(
            threshold=threshold, recovery_cycles=VP_RECOVERY_CYCLES
        )
        cycles = _mean_frame_cycles(vp, traces)
        stats = [vp.prediction_stats(layer) for trace in traces for layer in trace]
        vp_rows.append(
            VPRow(
                threshold=threshold,
                hit_fraction=float(np.mean([s["hit_fraction"] for s in stats])),
                mse=float(np.mean([s["mse"] for s in stats])),
                mean_cycles=cycles,
                cycles_vs_pra=cycles / pra_cycles,
            )
        )

    mem = memory_system(DEFAULT_MEMORY)
    dense_s = mem.transfer_time_s(scheme_bits["Raw16W"] / 8.0)
    msr_s = mem.transfer_time_s(scheme_bits["MSR4W"] / 8.0)

    return WeightStudyResult(
        model=model,
        crop=crop,
        weight_values=total,
        msr_coverage=coverage,
        roundtrip_ok=roundtrip_ok,
        memory_roundtrip_ok=_memory_roundtrip_ok(sample),
        scheme_bits=scheme_bits,
        footprints=footprints,
        traffic=traffic,
        vp_rows=tuple(vp_rows),
        pra_mean_cycles=pra_cycles,
        vp_disabled_mean_cycles=_mean_frame_cycles(vp_disabled, traces),
        serve_overhead_ratio=msr_s / dense_s,
    )


def compute(profile: "Profile | None" = None) -> WeightStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    return run(**resolve_profile(profile).one_model_kwargs(64))
