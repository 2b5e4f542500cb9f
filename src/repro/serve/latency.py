"""Per-request service times derived from the cycle-accurate models.

A serving simulation is only as honest as its service times.  Here they
are *measured*, not invented: a seeded video clip is traced through the
quantized network, each engine's cycle model (:mod:`repro.arch`) prices
every frame, cycles scale to the served resolution exactly the way
:func:`repro.arch.sim.simulate_network` scales them, and the engine's
clock (``frequency_ghz`` from :class:`repro.arch.config.AcceleratorConfig`)
converts cycles to seconds.

Two service times per engine:

- ``cold_s`` — the session's first frame (or any frame whose temporal
  state was shed/evicted): the engine's ordinary stream — geometry-only
  for VAA, raw terms for PRA, spatial deltas for Diffy.
- ``warm_s`` — a frame whose previous frame is resident: differential
  engines pick, per layer, the cheaper of spatial and temporal deltas
  (the DR multiplexer of Section III-E makes the per-layer switch free);
  VAA is value-agnostic and PRA has no reconstruction engine, so for
  them warm is just the same stream measured on the later frames.

Batches additionally pay one weight-stream load from off-chip memory
(``batch_overhead_s``) — the amortization dynamic batching exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.cycles import LayerCycles, serial_layer_cycles
from repro.arch.memory import memory_system
from repro.arch.sim import DEFAULT_MEMORY, HD_RESOLUTION, model_for
from repro.arch.term_maps import padded_imap
from repro.cache import store as cache_store
from repro.core.booth import WORD_BITS, booth_terms
from repro.data.video import synthesize_clip
from repro.models.inputs import adapt_input
from repro.models.registry import get_model_spec, prepare_model
from repro.nn.shapes import LayerShape, conv_layer_shapes
from repro.nn.trace import ActivationTrace, ConvLayerTrace
from repro.utils import timing
from repro.utils.bits import quantize_to_width
from repro.utils.rng import DEFAULT_SEED

#: The Fig 13 engines, in the paper's order.
DEFAULT_ENGINES = ("VAA", "PRA", "Diffy")

#: Engines whose DR datapath can stream temporal deltas when the
#: previous frame is resident.
DIFFERENTIAL_ENGINES = frozenset({"Diffy"})

#: Pixels the measured clip pans per frame.
PAN_PX = 1


@dataclass(frozen=True)
class ServiceTimes:
    """One engine's measured per-request costs at the served resolution."""

    engine: str
    cold_s: float
    warm_s: float
    batch_overhead_s: float
    #: Previous-frame activation footprint one warm session keeps resident.
    state_bytes: int
    frequency_ghz: float

    def request_s(self, mode: str, motion: float = 1.0) -> float:
        """Service time of one request.

        ``motion`` scales the warm (temporal-delta) time for frames with
        denser-than-baseline deltas, capped at the cold time — the DR
        multiplexer never streams a temporal delta costlier than the
        spatial stream.  ``motion=1.0`` reproduces the plain warm time
        exactly (same float, no arithmetic), so motion-free workloads
        are bit-identical to before.
        """
        if mode == "temporal":
            if motion != 1.0:
                return min(self.cold_s, self.warm_s * motion)
            return self.warm_s
        if mode == "spatial":
            return self.cold_s
        raise ValueError(f"unknown service mode {mode!r}")


def temporal_term_map(layer: ConvLayerTrace, previous: ConvLayerTrace) -> np.ndarray:
    """Booth term counts of the padded temporal-delta imap."""
    cur = np.asarray(padded_imap(layer), dtype=np.int64)
    prev = np.asarray(padded_imap(previous), dtype=np.int64)
    return booth_terms(quantize_to_width(cur - prev, WORD_BITS)[0])


def _frame_time_s(
    records: Sequence[LayerCycles],
    shapes: Sequence[LayerShape],
    frequency_ghz: float,
) -> float:
    """Whole-frame compute latency, scaled to the target resolution."""
    cycles = sum(rec.cycles * (shape.windows / rec.windows) for rec, shape in zip(records, shapes))
    return cycles / (frequency_ghz * 1e9)


def _warm_records(
    engine: str,
    model,
    trace: ActivationTrace,
    previous: ActivationTrace,
) -> list[LayerCycles]:
    """Per-layer cycle records for a frame served with resident state."""
    records = []
    for layer, prev_layer in zip(trace, previous):
        spatial = model.layer_cycles(layer)
        if engine in DIFFERENTIAL_ENGINES:
            temporal = serial_layer_cycles(
                layer, temporal_term_map(layer, prev_layer), model.config
            )
            # The DR multiplexer switches stream source per layer for
            # free; the scheduler-visible cost is the cheaper mode.
            records.append(min(spatial, temporal, key=lambda r: r.cycles))
        else:
            records.append(spatial)
    return records


def measure_service_times(
    model_name: str,
    engines: Sequence[str] = DEFAULT_ENGINES,
    crop: int = 64,
    frames: int = 3,
    resolution: tuple[int, int] = HD_RESOLUTION,
    seed: int = DEFAULT_SEED,
) -> dict[str, ServiceTimes]:
    """Measure cold/warm service times for each engine on one model.

    Pure function of its arguments (the clip, weights and calibration are
    all seeded), so the result is disk-cached; a cold run recomputes the
    identical values.  The clip pans :data:`PAN_PX` pixels per frame and
    weights stream from :data:`repro.arch.sim.DEFAULT_MEMORY`.
    """
    if frames < 2:
        raise ValueError(f"need >= 2 frames to measure warm service, got {frames}")
    engines = tuple(engines)
    key = (model_name, engines, crop, frames, PAN_PX, resolution, DEFAULT_MEMORY, seed)
    return cache_store.fetch_or_compute(
        "serve_times",
        key,
        lambda: _measure(model_name, engines, crop, frames, resolution, seed),
    )


def _measure(
    model_name: str,
    engines: tuple,
    crop: int,
    frames: int,
    resolution: tuple,
    seed: int,
) -> dict[str, ServiceTimes]:
    spec = get_model_spec(model_name)
    net = prepare_model(model_name, seed)
    clip = synthesize_clip(frames, crop, crop, pan_px=PAN_PX, seed=seed)
    with timing.timed("serve.trace_clip"):
        traces = [net.trace(adapt_input(spec.input_adapter, f)) for f in clip]
    shapes = conv_layer_shapes(net, *resolution)
    weight_bytes = sum(s.weight_bytes for s in shapes)
    mem = memory_system(DEFAULT_MEMORY)
    state_bytes = sum(s.imap_values * 2 for s in shapes)
    out = {}
    for engine in engines:
        model = model_for(engine)
        freq = model.config.frequency_ghz
        with timing.timed(f"serve.price.{engine}"):
            cold = _frame_time_s([model.layer_cycles(layer) for layer in traces[0]], shapes, freq)
            warm_times = [
                _frame_time_s(
                    _warm_records(engine, model, traces[i], traces[i - 1]),
                    shapes,
                    freq,
                )
                for i in range(1, frames)
            ]
        out[engine] = ServiceTimes(
            engine=engine,
            cold_s=cold,
            warm_s=float(np.mean(warm_times)),
            batch_overhead_s=mem.transfer_time_s(weight_bytes),
            state_bytes=state_bytes,
            frequency_ghz=freq,
        )
    return out
