"""The four benchmark workloads, as units of work a worker process times.

Each workload has three phases:

- ``prepare(seed)`` runs once per benchmark run, in its own process, and
  fills the run's private cache with what the workload reads.
- ``setup(seed)`` runs in every measuring process: it loads the inputs,
  builds requests and tables, then ``warm_up()`` runs one untimed pass,
  so that no timed pass pays one-time process work (lazy lookup tables,
  and the first-touch page faults of growing the heap to the pass's
  working set, which cost a figs_warm first pass 0.7 s of system time
  more than the next).
- ``units()`` yields the :class:`Unit` s of one pass, after
  ``begin_pass()`` has reset whatever a pass must start from.

A unit's ``run`` returns ``(results, failures)``: ``results`` maps a
result id to the simulated result (or codec output) that is fingerprinted
outside the timed region, and ``failures`` lists correctness failures
found while checking it (an inexact round trip, a silent corruption).

Both call ``tick()`` between their steps, where the worker samples the
host speed.

Everything a workload generates derives from ``seed``; the seed is the
root seed of the simulation, so it changes the synthesized images, the
calibrated weights, the traces and the request streams.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import repro.arch.sim as sim
import repro.cache.store as cache_store
import repro.compression.codec as codec
import repro.compression.schemes as schemes
import repro.core.deltas as deltas
import repro.faults.models as fault_models
import repro.models.registry as registry
import repro.protect.policy as policy
import repro.protect.stream as stream
import repro.serve.chaos.schedule as chaos_schedule
import repro.serve.chaos.storage as storage
import repro.serve.fleet.service as fleet_service
import repro.serve.latency as latency
import repro.serve.service as service
import repro.serve.workload as serve_workload
import repro.utils.rng as rng
import repro.weights.msr as msr
import repro.weights.quant as quant
from repro.regression.serialize import canonical_dumps

#: The five CI-DNNs (Table I denoisers / super-resolution networks).
CI_MODELS = ("DnCNN", "FFDNet", "IRCNN", "JointNet", "VDSR")

#: Trace crop of the CI profile, and one trace per model as in the
#: repository's other benchmarks: the per-window statistics the cycle
#: and traffic models consume are stable at this size.
CROP = 48
TRACE_COUNT = 1

COLD_ENGINES = ("VAA", "PRA", "Diffy")
WARM_ENGINES = ("VAA", "PRA", "Diffy", "VP")
WARM_SCHEMES = ("NoCompression", "RawD16", "DeltaD16")


@dataclass
class Unit:
    id: str
    work: float
    run: Callable[[], "tuple[dict, list[str]]"]


def fingerprint(result) -> str:
    """Digest of a result's canonical JSON (``repro.regression.serialize``)."""
    return hashlib.blake2b(canonical_dumps(result).encode(), digest_size=8).hexdigest()


def bytes_digest(*parts) -> str:
    """Digest of byte strings and arrays; ``None`` parts count as empty."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if part is not None:
            h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
        h.update(b"\x1f")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _simulate(model: str, engine: str, scheme: str, seed: int):
    return sim.simulate_network(
        model, engine, scheme, crop=CROP, trace_count=TRACE_COUNT, seed=seed
    )


@dataclass
class Workload:
    """Shared plumbing; subclasses define the phases."""

    name = ""

    seed: int = 0
    cache_dir: Path = field(default_factory=lambda: Path(os.environ["REPRO_CACHE_DIR"]))
    counters: dict = field(default_factory=dict)
    tick: Callable[[], None] = lambda: None

    def prepare(self) -> dict:
        """Fill the cache; returns ``{id: result}`` computed on the way."""
        return {}

    def setup(self) -> None:
        self.warm_up()

    def warm_up(self) -> None:
        self.begin_pass()
        for unit in self.units():
            unit.run()
            self.tick()
        self.counters.clear()

    def begin_pass(self) -> None:
        pass

    def units(self) -> Iterator[Unit]:
        raise NotImplementedError

    def disk_bytes(self) -> int:
        return dir_bytes(self.cache_dir) if self.cache_dir.exists() else 0


class FigsCold(Workload):
    """Every pass starts from an empty cache: synthesize, calibrate, trace."""

    name = "figs_cold"

    def _model_unit(self, model: str) -> Unit:
        def run():
            return {
                f"{model}/{e}/DeltaD16": _simulate(model, e, "DeltaD16", self.seed)
                for e in COLD_ENGINES
            }, []

        return Unit(model, 1.0, run)

    def warm_up(self) -> None:
        # A cold pass rebuilds its working set from nothing, so one model
        # covers the process-level one-time work: a first and a second
        # full pass measured the same within noise.
        self.begin_pass()
        self._model_unit("FFDNet").run()
        self.tick()

    def begin_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        cache_store.clear_memory_caches()

    def units(self) -> Iterator[Unit]:
        for model in CI_MODELS:
            yield self._model_unit(model)


class FigsWarm(Workload):
    """The figures loop on a filled cache: cycle models and traffic pricing."""

    name = "figs_warm"

    def prepare(self) -> dict:
        out = {}
        for m in CI_MODELS:
            for e in COLD_ENGINES:
                out[f"{m}/{e}/DeltaD16"] = _simulate(m, e, "DeltaD16", self.seed)
                self.tick()
        return out

    def _unit(self, model: str, engine: str, scheme: str) -> Unit:
        uid = f"{model}/{engine}/{scheme}"
        return Unit(uid, 1.0, lambda: ({uid: _simulate(model, engine, scheme, self.seed)}, []))

    def begin_pass(self) -> None:
        cache_store.clear_memory_caches()

    def units(self) -> Iterator[Unit]:
        for model in CI_MODELS:
            for engine in WARM_ENGINES:
                for scheme in WARM_SCHEMES:
                    yield self._unit(model, engine, scheme)


#: Serving scenario: the CI-profile ext_fleet/ext_serving configuration,
#: on open-loop Poisson session streams cut to a fixed request count, so
#: every call does the same amount of work whatever the seed.
SERVE_MODEL = "DnCNN"
SERVE_ENGINES = ("VAA", "Diffy")
FLEET_NODES = 4
NODE_WORKERS = 2
FRAMES_PER_SESSION = 6
REQUESTS = 4000
FLEET_LOAD = 1.4
NODE_LOAD = 1.5
STORAGE_RATE = 1e-3


class ServeFleet(Workload):
    """Routing, the shard engine, chaos draws and the per-event server."""

    name = "serve_fleet"

    def _times(self):
        return latency.measure_service_times(
            SERVE_MODEL, engines=SERVE_ENGINES, crop=CROP, seed=self.seed
        )

    def _chaos(self, unit: float) -> chaos_schedule.ChaosSpec:
        return chaos_schedule.ChaosSpec(
            storage_rate=STORAGE_RATE,
            protection="full",
            crashes=1,
            crash_downtime_s=4.0 * unit,
            seed=self.seed,
        )

    def prepare(self) -> dict:
        unit = self._times()["VAA"].cold_s
        self.tick()
        spec = self._chaos(unit)
        storage.price_ladder(
            spec.protection, spec.fault_model, spec.storage_rate,
            trials=spec.storage_trials, seed=spec.seed,
        )
        return {}

    def setup(self) -> None:
        self.times = self._times()
        self.tick()
        unit = self.times["VAA"].cold_s
        cap = 8 * self.times["VAA"].state_bytes

        def stream(load: float, nodes: int):
            """The first REQUESTS requests at ``load`` x the VAA capacity."""
            rps = load * nodes * NODE_WORKERS / unit
            spec = serve_workload.WorkloadSpec(
                duration_s=1.5 * REQUESTS / rps,
                session_rate=rps / FRAMES_PER_SESSION,
                frames_per_session=FRAMES_PER_SESSION,
                frame_interval_s=2.0 * unit,
                seed=self.seed,
            )
            requests = serve_workload.generate_requests(spec)[:REQUESTS]
            if len(requests) < REQUESTS:
                raise RuntimeError(f"seed {self.seed} drew only {len(requests)} requests")
            return requests, requests[-1].arrival_s

        self.fleet_requests, self.fleet_duration = stream(FLEET_LOAD, FLEET_NODES)
        self.node_requests, self.node_duration = stream(NODE_LOAD, 1)
        self.tick()
        node = service.ServeConfig(
            workers=NODE_WORKERS, max_batch=4, max_wait_s=0.0, queue_capacity=16,
            deadline_s=4.0 * unit, state_capacity_bytes=cap,
        )
        ttl = (2.0 * FRAMES_PER_SESSION + 8.0) * unit
        self.plain = fleet_service.FleetConfig(
            nodes=FLEET_NODES, routing="state_aware", node=node, session_ttl_s=ttl,
            seed=self.seed,
        )
        self.chaotic = fleet_service.FleetConfig(
            nodes=FLEET_NODES, routing="state_aware", node=node, session_ttl_s=ttl,
            chaos=self._chaos(unit), seed=self.seed,
        )
        self.waiting = service.ServeConfig(
            workers=NODE_WORKERS, max_batch=4, max_wait_s=0.25 * unit, queue_capacity=16,
            deadline_s=4.0 * unit, state_capacity_bytes=cap,
        )
        self.warm_up()

    def _count(self, metrics: dict, warm_served: int) -> None:
        c = self.counters
        c["serve.requests"] = c.get("serve.requests", 0) + metrics["arrived"]
        c["serve.shed"] = (
            c.get("serve.shed", 0) + metrics["shed_queue_full"] + metrics["shed_deadline"]
        )
        c["serve.warm_served"] = c.get("serve.warm_served", 0) + warm_served

    def _fleet(self, config, uid: str) -> Unit:
        def run():
            report = fleet_service.simulate_fleet(
                self.fleet_requests, self.times["Diffy"], config, self.fleet_duration
            )
            self._count(report.metrics, report.warm_served)
            failures = []
            if report.chaos is not None and report.chaos["storage_silent"]:
                failures.append(
                    f"{uid}: {report.chaos['storage_silent']} silent corruptions under full"
                )
            return {uid: report}, failures

        return Unit(uid, float(len(self.fleet_requests)), run)

    def _serve(self) -> Unit:
        def run():
            report = service.serve_workload(
                self.node_requests, self.times["Diffy"], self.waiting,
                duration_s=self.node_duration,
            )
            self._count(report.metrics, report.warm_served)
            return {"serve_workload": report}, []

        return Unit("serve_workload", float(len(self.node_requests)), run)

    def units(self) -> Iterator[Unit]:
        yield self._fleet(self.plain, "fleet")
        yield self._fleet(self.chaotic, "fleet_chaos")
        yield self._serve()


#: Bit-flip rate of the fault-injected protected reads: high enough that
#: SECDED both corrects and detects on DnCNN-sized maps.
READ_FAULT_RATE = 5e-4
CODEC_MODEL = "DnCNN"


class CodecProtect(Workload):
    """Bit-plane codec, protection ladder, fault injection and MSR weights."""

    name = "codec_protect"

    def prepare(self) -> dict:
        sim.collect_traces(CODEC_MODEL, count=TRACE_COUNT, crop=CROP, seed=self.seed)
        return {}

    def setup(self) -> None:
        (trace,) = sim.collect_traces(CODEC_MODEL, count=TRACE_COUNT, crop=CROP, seed=self.seed)
        self.maps = [np.asarray(layer.imap, dtype=np.int64) for layer in trace]
        self.deltas = [schemes.planar_order(deltas.spatial_deltas(m)) for m in self.maps]
        self.tick()
        net = registry.prepare_model(CODEC_MODEL, self.seed)
        self.weights = [w for w, _scale in quant.network_int8_weights(net).values()]
        self.codec = codec.GroupCodec(16, signed=True)
        self.msr = msr.MSRCodec(bits=8, max_msr=4, column_size=256)
        self.full = policy.protection_policy("full")
        self.fault = fault_models.fault_model("flip1")
        self.stored: dict = {}
        self.warm_up()

    def _map_units(self, i: int) -> "list[Unit]":
        fmap, flat = self.maps[i], self.deltas[i]
        mb = fmap.size * 2 / 1e6  # 16-bit stored words
        tag = f"L{i:02d}"

        def plain():
            enc = self.codec.encode(flat)
            out = self.codec.decode(enc)
            bad = [] if np.array_equal(out, flat) else [f"{tag}/plain: inexact round trip"]
            return {f"{tag}/plain": bytes_digest(enc.data, np.int64(enc.bits))}, bad

        def protected():
            pmap = stream.store_protected(fmap, self.full)
            out, report = stream.read_protected(pmap)
            bad = []
            if not np.array_equal(out, fmap) or report.detected or report.zeroed_groups:
                bad.append(f"{tag}/protected: fault-free read not exact")
            digest = bytes_digest(pmap.stream.data, pmap.anchors, pmap.stream_codes)
            self.stored[i] = pmap  # what the faulted read below attacks
            return {f"{tag}/protected": digest}, bad

        def faulted():
            gen = rng.rng_for(self.seed, "perfbench", "read", i)
            observed, report, faults = storage.corrupt_protected_read(
                self.stored[i], READ_FAULT_RATE, self.fault, gen
            )
            outcome = storage.classify_trial(fmap, observed, report)
            key = f"faults.{outcome}"
            self.counters[key] = self.counters.get(key, 0) + 1
            bad = [f"{tag}/faulted: silent corruption under full"] if outcome == "silent" else []
            return {f"{tag}/faulted": [outcome, faults, bytes_digest(observed)]}, bad

        return [
            Unit(f"{tag}/plain", mb, plain),
            Unit(f"{tag}/protected", mb, protected),
            Unit(f"{tag}/faulted", mb, faulted),
        ]

    def _weight_unit(self, i: int) -> Unit:
        weights = self.weights[i]
        tag = f"W{i:02d}/msr"

        def run():
            enc = self.msr.encode(weights)
            out = self.msr.decode(enc)
            exact = np.array_equal(np.asarray(out).reshape(weights.shape), weights)
            return {tag: bytes_digest(enc.data, np.int64(enc.bits))}, (
                [] if exact else [f"{tag}: inexact round trip"]
            )

        return Unit(tag, weights.size / 1e6, run)  # INT8: one byte a weight

    def units(self) -> Iterator[Unit]:
        for i in range(len(self.maps)):
            yield from self._map_units(i)
        for i in range(len(self.weights)):
            yield self._weight_unit(i)


WORKLOADS = {w.name: w for w in (FigsCold, FigsWarm, ServeFleet, CodecProtect)}
