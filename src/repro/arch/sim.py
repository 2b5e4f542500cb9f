"""End-to-end simulation: traces -> per-layer cycles -> network time/FPS.

This is the main entry point of the architecture package.  For one
(network, accelerator, compression scheme, memory system, resolution)
combination, :func:`simulate_network`:

1. collects seeded activation traces on crops (cached),
2. runs the accelerator's cycle model per layer (once per layer and
   engine: the records are memoized with the layer) and averages
   cycles-per-window over the traces (once per trace set and engine),
3. scales to the target resolution (fully-convolutional networks have
   resolution-invariant per-window statistics — see DESIGN.md),
4. applies the compression-aware off-chip traffic model (once per trace
   set, scheme and resolution) and the memory system's bandwidth to get
   per-layer stalls (double-buffered overlap: layer time = max(compute,
   memory)),
5. aggregates into a :class:`NetworkResult` with FPS, utilization
   breakdown, and energy hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.arch.config import (
    AcceleratorConfig,
    DIFFY_CONFIG,
    PRA_CONFIG,
    VAA_CONFIG,
)
from repro.arch.cycles import LayerCycles
from repro.arch.diffy import DiffyModel
from repro.arch.memory import MemorySystem, memory_system
from repro.arch.pra import PRAModel
from repro.arch.scnn import SCNNModel
from repro.arch.vaa import VAAModel
from repro.cache import store as cache_store
from repro.compression.footprint import imap_precisions, omap_precisions
from repro.compression.schemes import CompressionScheme
from repro.compression.schemes import scheme as get_scheme
from repro.compression.traffic import LayerTraffic, network_traffic
from repro.core.layer_memo import instance_key, memoized, memoized_set
from repro.data.datasets import dataset
from repro.models.inputs import adapt_input
from repro.models.registry import get_model_spec, prepare_model
from repro.nn.shapes import conv_layer_shapes
from repro.nn.trace import ActivationTrace
from repro.utils import timing
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import check_positive, check_positive_integer

#: Default off-chip memory interface of the headline results (Section IV-A).
DEFAULT_MEMORY = "DDR4-3200"

#: Default compression scheme (the paper's own).
DEFAULT_SCHEME = "DeltaD16"

#: HD resolution the paper's headline numbers target.
HD_RESOLUTION = (1080, 1920)


@dataclass(frozen=True)
class LayerResult:
    """One layer's simulated execution at the target resolution."""

    name: str
    index: int
    windows: int
    compute_cycles: float
    compute_time_s: float
    mem_time_s: float
    utilization: float
    traffic: LayerTraffic

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("time_s", "stall_fraction", "useful_fraction")

    @property
    def time_s(self) -> float:
        """Layer latency with compute/memory overlap (double buffering)."""
        return max(self.compute_time_s, self.mem_time_s)

    @property
    def stall_s(self) -> float:
        """Time the compute fabric waits on off-chip memory."""
        return max(0.0, self.mem_time_s - self.compute_time_s)

    @property
    def useful_fraction(self) -> float:
        """Fraction of the layer's wall time doing useful term work."""
        return self.utilization * self.compute_time_s / self.time_s if self.time_s else 0.0

    @property
    def idle_fraction(self) -> float:
        """Sync/underutilization idle fraction of the layer's wall time."""
        return (1.0 - self.utilization) * self.compute_time_s / self.time_s if self.time_s else 0.0

    @property
    def stall_fraction(self) -> float:
        return self.stall_s / self.time_s if self.time_s else 0.0


@dataclass(frozen=True)
class NetworkResult:
    """Simulated execution of a whole network on one accelerator."""

    network: str
    accelerator: str
    scheme: str
    memory: str
    resolution: tuple[int, int]
    frequency_ghz: float
    layers: tuple[LayerResult, ...]

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("fps", "total_time_s", "stall_fraction", "traffic_bytes")

    @property
    def total_time_s(self) -> float:
        return sum(layer.time_s for layer in self.layers)

    @property
    def compute_time_s(self) -> float:
        return sum(layer.compute_time_s for layer in self.layers)

    @property
    def stall_s(self) -> float:
        return sum(layer.stall_s for layer in self.layers)

    @property
    def total_cycles(self) -> float:
        return sum(layer.compute_cycles for layer in self.layers)

    @property
    def fps(self) -> float:
        """Frames per second at the simulated resolution."""
        return 1.0 / self.total_time_s if self.total_time_s > 0 else float("inf")

    @property
    def traffic_bytes(self) -> float:
        return sum(layer.traffic.total_bytes for layer in self.layers)

    @property
    def stall_fraction(self) -> float:
        return self.stall_s / self.total_time_s if self.total_time_s else 0.0

    def speedup_over(self, other: "NetworkResult") -> float:
        """Wall-clock speedup of this result over another."""
        if self.network != other.network or self.resolution != other.resolution:
            raise ValueError(
                "speedup comparisons require the same network and resolution"
            )
        return other.total_time_s / self.total_time_s


def collect_traces(
    model_name: str,
    dataset_name: str = "HD33",
    count: int = 2,
    crop: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> tuple[ActivationTrace, ...]:
    """Seeded activation traces for a model over dataset crops (cached).

    ``crop=None`` resolves to the model's default ``trace_crop`` *before*
    any cache lookup, so an explicit ``crop == spec.trace_crop`` and the
    default address the same entry (in memory and on disk).
    """
    count = check_positive_integer("count", count)
    spec = get_model_spec(model_name)
    size = crop if crop is not None else spec.trace_crop
    return _collect_traces(model_name, dataset_name, count, size, seed)


@lru_cache(maxsize=64)
def _collect_traces(
    model_name: str, dataset_name: str, count: int, size: int, seed: int
) -> tuple[ActivationTrace, ...]:
    return cache_store.fetch_or_compute(
        "traces",
        (model_name, dataset_name, count, size, seed),
        lambda: _trace_crops(model_name, dataset_name, count, size, seed),
    )


def _trace_crops(
    model_name: str, dataset_name: str, count: int, size: int, seed: int
) -> tuple[ActivationTrace, ...]:
    spec = get_model_spec(model_name)
    net = prepare_model(model_name, seed)
    ds = dataset(dataset_name)
    traces = []
    with timing.timed("sim.trace_crops"):
        for i in range(count):
            image = ds.crop(i % len(ds), size, seed=seed)
            traces.append(net.trace(adapt_input(spec.input_adapter, image)))
    return tuple(traces)


cache_store.register_memory_cache(_collect_traces.cache_clear)


def model_for(
    accelerator: str,
    config: Optional[AcceleratorConfig] = None,
    weight_sparsity: float = 0.0,
):
    """Instantiate a cycle model by accelerator name.

    ``accelerator`` is one of ``"VAA"``, ``"PRA"``, ``"Diffy"``, ``"VP"``
    (the speculative value-prediction engine, at its default operating
    point), or ``"SCNN"``/``"SCNN50"``/``"SCNN75"``/``"SCNN90"``.
    """
    if accelerator == "VAA":
        return VAAModel(config or VAA_CONFIG)
    if accelerator == "PRA":
        return PRAModel(config or PRA_CONFIG)
    if accelerator == "Diffy":
        return DiffyModel(config or DIFFY_CONFIG)
    if accelerator == "VP":
        from repro.arch.predict import ValuePredictionModel

        return ValuePredictionModel(config or PRA_CONFIG)
    if accelerator == "SCNN":
        return SCNNModel(weight_sparsity=weight_sparsity)
    if accelerator.startswith("SCNN") and accelerator[4:].isdigit():
        return SCNNModel(weight_sparsity=int(accelerator[4:]) / 100.0)
    raise ValueError(
        f"unknown accelerator {accelerator!r}; "
        "expected VAA, PRA, Diffy, VP, or SCNN[50|75|90]"
    )


def _mean_layer_cycles(
    model, traces: Sequence[ActivationTrace]
) -> list[LayerCycles]:
    """Per-layer cycle records averaged over traces.

    Each layer's record is memoized under the model's class and every
    field (:func:`~repro.core.layer_memo.instance_key`): it reads neither
    the scheme, the memory system nor the resolution, so one engine is
    priced once per layer however many of those a sweep visits.
    """
    key = ("cycles", instance_key(model))
    per_trace = [
        [memoized(layer, key, lambda layer=layer: model.layer_cycles(layer)) for layer in t]
        for t in traces
    ]
    fields = np.array(
        [[(r.cycles, r.useful_terms, r.lane_capacity) for r in pt] for pt in per_trace],
        dtype=np.float64,
    )
    # Traces on the contiguous last axis, so each mean is numpy's pairwise
    # sum of one layer's values, as ``np.mean`` of a list was; a strided
    # axis-0 mean adds sequentially, which differs from 8 traces on.
    means = np.ascontiguousarray(fields.transpose(1, 2, 0)).mean(axis=-1)
    return [
        replace(ref, cycles=c, useful_terms=u, lane_capacity=cap)
        for ref, (c, u, cap) in zip(per_trace[0], means.tolist())
    ]


def simulate_network(
    model_name: str,
    accelerator: str = "Diffy",
    scheme: str | CompressionScheme = DEFAULT_SCHEME,
    memory: str | MemorySystem = DEFAULT_MEMORY,
    channels: int = 1,
    resolution: tuple[int, int] = HD_RESOLUTION,
    config: Optional[AcceleratorConfig] = None,
    dataset_name: str = "HD33",
    trace_count: int = 2,
    crop: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> NetworkResult:
    """Simulate one network end to end; see module docstring.

    ``scheme`` may be a registered scheme name or a
    :class:`CompressionScheme` instance; the result records its ``name``.
    ``memory`` may be a technology name (``"DDR4-3200"``, ``"Ideal"``, ...)
    with ``channels`` channels, or a prebuilt :class:`MemorySystem`, which
    already fixes its channel count.
    """
    if isinstance(memory, MemorySystem) and channels != 1:
        raise ValueError(
            f"channels={channels!r} with a prebuilt MemorySystem; "
            "pass the technology name, or build it with memory_system(name, channels)"
        )
    for name, dim in zip(("height", "width"), resolution):
        check_positive(f"resolution {name}", dim)
    with timing.timed("sim.simulate_network"):
        return _simulate_network(
            model_name, accelerator, scheme, memory, channels, resolution,
            config, dataset_name, trace_count, crop, seed,
        )


def _simulate_network(
    model_name, accelerator, scheme, memory, channels, resolution,
    config, dataset_name, trace_count, crop, seed,
) -> NetworkResult:
    mem = memory if isinstance(memory, MemorySystem) else memory_system(memory, channels)
    traces = collect_traces(model_name, dataset_name, trace_count, crop, seed)
    net = prepare_model(model_name, seed)
    model = model_for(accelerator, config)
    cfg_freq = getattr(model.config, "frequency_ghz", 1.0)

    # Everything below but the memory system reads only the trace set
    # (which fixes the network) and one of engine, scheme or resolution,
    # so a sweep over engines and schemes prices each piece once.
    compression = get_scheme(scheme) if isinstance(scheme, str) else scheme
    res = tuple(resolution)
    with timing.timed("sim.layer_cycles"):
        cycle_records = memoized_set(
            traces,
            ("cycles", instance_key(model)),
            lambda: tuple(_mean_layer_cycles(model, traces)),
        )
    shapes = memoized_set(traces, ("shapes", res), lambda: tuple(conv_layer_shapes(net, *res)))

    def price_traffic() -> tuple:
        precisions = memoized_set(traces, ("precisions", "imap"), lambda: imap_precisions(traces))
        omap_precs = memoized_set(traces, ("precisions", "omap"), lambda: omap_precisions(traces))
        return tuple(network_traffic(net, traces, compression, *res, precisions, omap_precs))

    traffic = memoized_set(traces, ("traffic", compression.key, res), price_traffic)

    layers = []
    for record, shape, lt in zip(cycle_records, shapes, traffic):
        scale = shape.windows / record.windows
        cycles = record.cycles * scale
        compute_s = cycles / (cfg_freq * 1e9)
        mem_s = mem.transfer_time_s(lt.total_bytes)
        layers.append(
            LayerResult(
                name=record.name,
                index=record.index,
                windows=shape.windows,
                compute_cycles=cycles,
                compute_time_s=compute_s,
                mem_time_s=mem_s,
                utilization=record.utilization,
                traffic=lt,
            )
        )
    return NetworkResult(
        network=model_name,
        accelerator=model.name,
        scheme=compression.name,
        memory=mem.name,
        resolution=resolution,
        frequency_ghz=cfg_freq,
        layers=tuple(layers),
    )
