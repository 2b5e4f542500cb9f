"""Outside-in span tracing of the repro layers, on the process CPU clock.

A :class:`Tracer` records one span per call into a layer's public
function: name, start, end, parent span and the unit of work it ran
for.  Spans come from two places, both installed from this file, so
the program itself is unchanged:

- wrappers rebound over a function or method at every module attribute
  that holds it (:meth:`Tracer.wrap_function`, :meth:`Tracer.wrap_method`);
- ``repro.utils.timing.timed``, replaced by a version that also opens a
  span, so every existing timer that brackets a call (``fleet.shards``,
  ``cache.<ns>.load``, ``models.calibrate``, ...) becomes a span.

:meth:`Tracer.restore` puts every original back, so untraced passes run
the program exactly as shipped.  Spans stay in memory until
:meth:`Tracer.dump` writes them as JSON.  A span's self time is its
duration minus the part of it its child spans cover (:func:`self_times`);
:func:`layer_seconds` folds self times into per-layer metric names.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    unit: Optional[str]
    tag: Optional[int] = None  # network layer index, on cycle-model spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one process."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.spans: list[Span] = []
        self.unit: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, tag: Optional[int] = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, self.clock(), 0.0, parent, self.unit, tag)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            rec.end = self.clock()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_function(
        self, module, attr: str, name: str, only: Optional[Sequence[str]] = None
    ) -> None:
        """Wrap ``module.attr`` wherever a loaded repro module binds it.

        ``from x import f`` copies the function into the importing
        module, so every binding is rebound.  ``only`` limits rebinding
        to the named modules, for a function that counts as its own layer
        only when one particular caller calls it.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            if only is not None and mod_name not in only:
                continue
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def wrap_method(
        self,
        cls,
        attr: str,
        name: Callable[[object], str],
        tag: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Wrap a method; ``name(self)`` names each span."""
        original = getattr(cls, attr)

        def wrapper(obj, *args, **kwargs):
            with self.span(name(obj), tag(args) if tag else None):
                return original(obj, *args, **kwargs)

        self._patch(cls, attr, wrapper)

    def wrap_timing(self, timing_module) -> None:
        """Open a span inside every ``timing.timed`` block."""
        original = timing_module.timed

        @contextmanager
        def timed(name: str):
            with original(name), self.span(name):
                yield

        self._patch(timing_module, "timed", timed)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(max(0.0, s.duration - covered))
    return out


#: Span name -> per-layer metric.  The names are the wrappers installed
#: by :func:`install` and the ``timing.timed`` timers the program has.
LAYER_OF_SPAN: "tuple[tuple[str, str], ...]" = (
    (r"cache\.fetch", "cache.store_s"),
    (r"cache\.[^.]+\.load", "cache.load_s"),
    (r"data\.synthesize_(image|clip)", "data.synthesize_s"),
    (r"models\.calibrate", "models.calibrate_s"),
    (r"sim\.trace_crops|serve\.trace_clip", "nn.trace_s"),
    (r"sim\.simulate_network|sim\.layer_cycles", "arch.sim_s"),
    (r"arch\.lower", "arch.lower_s"),
    (r"compression\.traffic", "compression.traffic_s"),
    (r"compression\.profile", "compression.profile_s"),
    (r"compression\.precisions", "compression.precisions_s"),
    (r"compression\.encode", "compression.encode_s"),
    (r"compression\.decode", "compression.decode_s"),
    (r"protect\.store", "protect.store_s"),
    (r"protect\.read", "protect.read_s"),
    (r"protect\.ecc", "protect.ecc_s"),
    (r"faults\.inject_read", "faults.inject_read_s"),
    (r"weights\.msr_encode", "weights.msr_encode_s"),
    (r"weights\.msr_decode", "weights.msr_decode_s"),
    (r"serve\.generate", "serve.generate_s"),
    (r"fleet\.route", "serve.route_s"),
    (r"fleet\.shards", "serve.shard_s"),
    (r"serve\.fleet", "serve.fleet_s"),
    (r"serve\.serve_workload", "serve.serve_workload_s"),
    (r"serve\.telemetry", "serve.telemetry_s"),
)
_PATTERNS = [(re.compile(p), m) for p, m in LAYER_OF_SPAN]

#: Figures reported inclusive of their children: what a cache miss, or
#: measuring the serving service times, costs in all.  Their children's
#: self time already sits in the layers above, so these are not shares.
INCLUSIVE_OF_SPAN: "tuple[tuple[str, str], ...]" = (
    (r"cache\.[^.]+\.compute", "cache.compute_s"),
    (r"serve\.measure", "serve.measure_s"),
)
_INCLUSIVE = [(re.compile(p), m) for p, m in INCLUSIVE_OF_SPAN]

#: Cycle models whose time is reported engine by engine.
ENGINES = ("VAA", "PRA", "Diffy", "VP")

#: Network whose Diffy layers are reported one by one (the measured
#: counterpart of the paper's Fig 12 per-layer breakdown).
LAYER_NETWORK = "DnCNN"
LAYER_COUNT = 20


def layer_metrics(span: Span) -> "list[str]":
    """The per-layer metrics a span's self time counts towards."""
    if span.name.startswith("arch.cycles."):
        engine = span.name[len("arch.cycles."):]
        out = [f"arch.cycles_s.{engine}"]
        if engine == "Diffy" and span.tag is not None and (
            (span.unit or "").split("/")[0] == LAYER_NETWORK
        ):
            out.append(f"arch.cycles_s.{LAYER_NETWORK}.L{span.tag:02d}")
        return out
    for pattern, metric in _PATTERNS:
        if pattern.fullmatch(span.name):
            return [metric]
    return []


def layer_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Self seconds per layer metric, the inclusive figures, and
    ``trace.attributed_s``: the self time of every span some layer
    claims, each second counted once."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        metrics = layer_metrics(span)
        for metric in metrics:
            out[metric] += own
        if metrics:
            out["trace.attributed_s"] += own
        for pattern, metric in _INCLUSIVE:
            if pattern.fullmatch(span.name):
                out[metric] += span.duration
    return dict(out)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.arch.diffy as diffy
    import repro.arch.pra as pra
    import repro.arch.predict as predict
    import repro.arch.sim  # noqa: F401  (binds the functions wrapped below)
    import repro.arch.term_maps as term_maps
    import repro.arch.vaa as vaa
    import repro.cache.store as cache_store
    import repro.compression.codec as codec
    import repro.compression.footprint as footprint
    import repro.compression.schemes  # noqa: F401
    import repro.compression.traffic as traffic
    import repro.core.precision as precision
    import repro.data.video as video
    import repro.protect.stream as stream
    import repro.serve.chaos.storage as storage
    import repro.serve.fleet.service as fleet_service
    import repro.serve.latency as latency
    import repro.serve.service as service
    import repro.serve.workload as workload
    import repro.utils.timing as timing
    import repro.weights.msr as msr

    tracer.wrap_timing(timing)
    tracer.wrap_function(cache_store, "fetch_or_compute", "cache.fetch")
    for attr in ("padded_imap", "raw_term_map", "delta_term_map", "vp_term_map",
                 "group_geometry"):
        tracer.wrap_function(term_maps, attr, "arch.lower")
    for cls in (vaa.VAAModel, pra.PRAModel, diffy.DiffyModel, predict.ValuePredictionModel):
        tracer.wrap_method(
            cls,
            "layer_cycles",
            lambda model: f"arch.cycles.{model.name}",
            tag=lambda args: int(args[0].index),
        )
    tracer.wrap_function(traffic, "network_traffic", "compression.traffic")
    tracer.wrap_function(footprint, "imap_precisions", "compression.profile")
    tracer.wrap_function(footprint, "omap_precisions", "compression.profile")
    tracer.wrap_function(
        precision, "group_precisions", "compression.precisions",
        only=("repro.compression.schemes",),
    )
    tracer.wrap_method(codec.GroupCodec, "encode", lambda _: "compression.encode")
    tracer.wrap_method(codec.GroupCodec, "decode", lambda _: "compression.decode")
    tracer.wrap_function(stream, "store_protected", "protect.store")
    tracer.wrap_function(stream, "read_protected", "protect.read")
    for attr in ("secded_encode", "secded_decode"):
        tracer.wrap_function(stream, attr, "protect.ecc", only=("repro.protect.stream",))
    tracer.wrap_function(storage, "corrupt_protected_read", "faults.inject_read")
    tracer.wrap_method(msr.MSRCodec, "encode", lambda _: "weights.msr_encode")
    tracer.wrap_method(msr.MSRCodec, "decode", lambda _: "weights.msr_decode")
    tracer.wrap_function(video, "synthesize_clip", "data.synthesize_clip")
    tracer.wrap_function(latency, "measure_service_times", "serve.measure")
    tracer.wrap_function(workload, "generate_requests", "serve.generate")
    tracer.wrap_function(fleet_service, "simulate_fleet", "serve.fleet")
    tracer.wrap_function(service, "serve_workload", "serve.serve_workload")
    tracer.wrap_method(timing.StreamingHistogram, "record_values", lambda _: "serve.telemetry")
