"""One measuring (or cache-filling) process of a benchmark run.

``run.py`` starts this file once per role and reads one JSON object
from the last line of its standard output::

    python3 perfbench/worker.py --workload figs_warm --seed 1 --role measure \
        --share 2.0 --trace 0 --spans-out trace.json

``--role prepare`` fills the run's private cache (``REPRO_CACHE_DIR``)
and reports the results it computed on the way.  ``--role measure``
sets up, then runs whole passes until its ``--share`` of CPU seconds is
spent (at least one pass; with ``--trace 1`` at least one untraced and
one traced pass, alternating).  Every time is read from this process's
CPU clock; ``setup_cpu_s`` counts from process start, so it includes
interpreter start-up and imports, and leaves out the probe's own time.
The host-speed probe (``speed.py``) runs between units and between
set-up steps, and each pass (and the set-up) reports the factor by which
the host ran slower than nominal while it ran.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.arch.term_maps as term_maps  # noqa: E402
import repro.cache.store as cache_store  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _counters(workload) -> dict:
    stats = cache_store.cache_stats()
    lower = term_maps.lowering_stats()
    out = {
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
        "cache.stores": stats.stores,
        "arch.lowering_computed": lower["computed"],
        "arch.lowering_reused": lower["reused"],
    }
    out.update(workload.counters)
    return out


def _reset_counters(workload) -> None:
    cache_store.reset_stats()
    term_maps.reset_lowering_stats()
    workload.counters.clear()


def _phase_layers(tracer, start: int, workload) -> dict:
    """Per-layer self seconds of the spans recorded since ``start``."""
    spans = [
        tracing.Span(s.name, s.start, s.end, s.parent - start if s.parent >= start else -1,
                     s.unit, s.tag)
        for s in tracer.spans[start:]
    ]
    layers = tracing.layer_seconds(spans)
    layers.update(_counters(workload))
    return layers


def run_pass(workload, tracer, probe, traced: bool) -> dict:
    _reset_counters(workload)
    first_span = len(tracer.spans)
    if traced:
        tracing.install(tracer)
    units, samples = [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        workload.begin_pass()
        todo = list(workload.units())
        stride = max(1, len(todo) // speed.BURSTS_PER_PASS)
        per_burst = -(-speed.SAMPLES_PER_PASS // -(-len(todo) // stride))
        for i, unit in enumerate(todo):
            if i % stride == 0:
                samples.extend(probe.burst(per_burst))
            tracer.unit = unit.id
            c0 = time.process_time()
            try:
                out, bad = unit.run()
            except Exception as exc:  # a failing unit is counted, not fatal
                out, bad = {}, [f"{unit.id}: {type(exc).__name__}: {exc}"]
            units.append(
                {
                    "id": unit.id,
                    "cpu_s": time.process_time() - c0,
                    "work": unit.work,
                    "fingerprints": {k: workloads.fingerprint(v) for k, v in out.items()},
                    "failures": bad,
                }
            )
            tracer.unit = None
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        tracer.restore()
    record = {
        "traced": traced,
        "factor": probe.factor(samples),
        "cpu_s": cpu,
        "wall_s": wall,
        "sys_s": usage1.ru_stime - usage0.ru_stime,
        "page_faults": usage1.ru_minflt - usage0.ru_minflt,
        "units": units,
        "disk_bytes": workload.disk_bytes(),
    }
    if traced:
        record["layers"] = _phase_layers(tracer, first_span, workload)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("prepare", "measure"), required=True)
    ap.add_argument("--share", type=float, default=1.0, help="CPU seconds of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    probe = speed.SpeedProbe()
    probe.tick()
    workload = workloads.WORKLOADS[args.workload](seed=args.seed, tick=probe.tick)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    out: dict = {}
    try:
        _reset_counters(workload)
        if args.role == "prepare":
            results = workload.prepare()
            out["fingerprints"] = {k: workloads.fingerprint(v) for k, v in results.items()}
        else:
            workload.setup()
        out["setup_factor"] = probe.setup_factor()
        out["setup_cpu_s"] = time.process_time() - probe.spent_s
        if args.trace:
            out["setup_layers"] = _phase_layers(tracer, 0, workload)
        tracer.restore()
        if args.role == "measure":
            passes: list = []
            spent = 0.0
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append(run_pass(workload, tracer, probe, traced))
                spent += passes[-1]["cpu_s"]
                if spent >= args.share and len(passes) >= 1 + args.trace:
                    break
            out["passes"] = passes
        out["disk_bytes"] = workload.disk_bytes()
    finally:
        tracer.restore()
        if args.spans_out is not None:
            tracer.dump(args.spans_out)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
