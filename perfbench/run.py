"""The repository benchmark: the repro pipeline timed on the process CPU clock.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figs_warm --seed 1 --seconds 6 --trace 0

One run starts, one after another, a cache-filling ``prepare`` process
(for workloads that read a filled cache) and two measuring processes
(``perfbench/worker.py``), each single-threaded with pinned thread
counts, a fixed hash seed and the run's private ``REPRO_CACHE_DIR``.
Every measuring process sets up, then times whole passes of the
workload's units on its own CPU clock until its half of ``--seconds``
is spent.  A host-speed probe (``speed.py``) runs between units; every
reported time is the CPU time divided by how much slower than nominal
the probe ran during that pass (or set-up), because on a shared virtual
machine the CPU clock itself slows while a neighbour loads the core.
The unscaled CPU times and the factors are in the diagnostics line.

Workloads (see ``workloads.py``):

- ``figs_cold`` — five CI-DNNs x VAA/PRA/Diffy, DeltaD16, every pass from
  an empty cache; unit = one model.
- ``figs_warm`` — five CI-DNNs x VAA/PRA/Diffy/VP x NoCompression/RawD16/
  DeltaD16 on a filled cache; unit = one ``simulate_network`` call.
- ``serve_fleet`` — a 4-node state-aware fleet, the same fleet under
  storage chaos with the full ladder, and the per-event server with a
  batching wait; unit = one call.
- ``codec_protect`` — every DnCNN layer imap through the plain DeltaD16
  codec, the full protection ladder, and a fault-injected read, plus
  every INT8 weight tensor through MSR; unit = one round trip.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics instead, from spans recorded around calls into each layer
(``tracing.py``), alternating traced and untraced passes to measure the
tracing overhead.  The lines before it are a readable report and a
``diagnostics`` record: host steal share, wall/CPU ratio, load average
and the pinned environment.

Inputs: ``--seed n`` selects input set ``n % INPUT_SETS``, the root seed
of everything the workload generates (images, calibrated weights,
traces, request streams).  ``reference.json`` holds the fingerprint of
every simulated result and codec output of every input set, so a change
in what the program computes fails the run whatever seed it is given.
Any failed unit (exception, fingerprint mismatch against or missing from
``reference.json``, inexact round trip, silent corruption) makes the run
exit 1.  ``error_rate`` (failed / attempted units) is printed in the
report; it is 0 on a passing run, so it is not one of the gated metrics.

``--record`` stores the run's result fingerprints as the reference of
its input set, after checking that every pass computed the same ones::

    for s in 0 1 2 3 4 5 6 7 8 9; do for w in figs_warm serve_fleet codec_protect; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 0.1 --record
    done; done
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import host  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    # name: (reference group, has a prepare phase, what one unit of work is)
    "figs_cold": ("figs", False, "models"),
    "figs_warm": ("figs", True, "simulations"),
    "serve_fleet": ("serve", True, "simulated requests"),
    "codec_protect": ("codec", True, "MB of stored values"),
}

#: Measuring processes per run; ``setup_s`` is the median of their set-ups.
WORKERS = 2

#: Distinct input sets, each with its results recorded in ``reference.json``.
INPUT_SETS = 10

#: Wall-clock budget of one run, all processes included.
BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput", "1/s", "higher"),
    ("unit_p50_ms", "ms", "lower"),
    ("unit_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("disk_mb", "MB", "lower"),
)

#: Per-layer times: each layer's self seconds, the cycle models split by
#: engine and by network layer, then the inclusive figures.
_TIME_LAYERS = (
    [m for _pattern, m in tracing.LAYER_OF_SPAN]
    + [f"arch.cycles_s.{e}" for e in tracing.ENGINES]
    + [f"arch.cycles_s.{tracing.LAYER_NETWORK}.L{i:02d}" for i in range(tracing.LAYER_COUNT)]
    + [m for _pattern, m in tracing.INCLUSIVE_OF_SPAN]
)

PER_LAYER = (
    [(name, "s", "lower") for name in _TIME_LAYERS]
    + [
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("cache.stores", "count", "lower"),
        ("arch.lowering_computed", "count", "lower"),
        ("arch.lowering_reused", "count", "higher"),
        ("arch.lowering_lookups", "count", "lower"),
        ("arch.lowering_reuse_ratio", "ratio", "higher"),
        ("faults.corrected", "count", "higher"),
        ("faults.detected", "count", "lower"),
        ("faults.silent", "count", "lower"),
        ("serve.requests", "count", "higher"),
        ("serve.shed", "count", "lower"),
        ("serve.warm_served", "count", "higher"),
        ("host.speed_factor", "ratio", "lower"),
        ("host.steal_frac", "ratio", "lower"),
        ("host.wall_over_cpu", "ratio", "lower"),
        ("host.loadavg", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
)

#: Environment pinned for every process of a run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Program switches that must not reach the benchmark, recorded and unset.
UNSET_ENV = ("REPRO_PROFILE", "REPRO_NO_CACHE", "REPRO_CODEC_BACKEND", "REPRO_QUARANTINE_CAP")


class WorkerError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pinned_env(cache_dir: Path) -> "tuple[dict, dict]":
    """The environment of every process, and what the caller had set."""
    recorded = {k: os.environ.get(k) for k in (*PINNED_ENV, *UNSET_ENV, "REPRO_CACHE_DIR")}
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, recorded


def run_worker(args, role: str, env: dict, deadline: float, index: int = 0) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed % INPUT_SETS),
        "--role", role,
        "--share", repr(args.seconds / WORKERS),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = STATE / "trace" / f"{args.workload}-seed{args.seed}-{role}{index}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"{role} worker {index}: run budget of {BUDGET_S:.0f}s spent")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{role} worker {index}: exceeded the run budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker {index} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{role} worker {index} printed no result")
    return json.loads(lines[-1])


def load_reference(group: str, inputs: int) -> dict:
    """Recorded fingerprints of one input set; empty if none are recorded,
    so that every result of the run then fails the gate."""
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(group, {}).get(str(inputs), {})


def check_units(units: list, reference: dict) -> "list[str]":
    """Failures of each unit: its own checks, then fingerprint mismatches."""
    out = []
    for unit in units:
        reasons = list(unit["failures"])
        for rid, fp in unit["fingerprints"].items():
            expected = reference.get(rid)
            if expected is None:
                reasons.append(f"{rid}: no recorded reference")
            elif expected != fp:
                reasons.append(f"{rid}: fingerprint {fp} != reference {expected}")
        if reasons:
            out.append(f"{unit['id']}: " + "; ".join(reasons))
    return out


def results_digest(units: list) -> str:
    """One digest of every result fingerprint of a run (seed-dependent)."""
    observed = {rid: fp for u in units for rid, fp in u["fingerprints"].items()}
    return hashlib.blake2b(json.dumps(observed, sort_keys=True).encode(), digest_size=8).hexdigest()


def first_results(units: list) -> dict:
    """Each result's first fingerprint in the run, for ``--record``."""
    ref: dict = {}
    for unit in units:
        for rid, fp in unit["fingerprints"].items():
            ref.setdefault(rid, fp)
    return ref


def _setup_s(phase: dict) -> float:
    """A process's set-up CPU seconds at nominal host speed."""
    return phase["setup_cpu_s"] / phase["setup_factor"]


def _units_s(p: dict) -> float:
    """A pass's unit CPU seconds at nominal host speed."""
    return sum(u["cpu_s"] for u in p["units"]) / p["factor"]


def unit_times(passes: list) -> "list[float]":
    """Each unit's median CPU seconds over the passes, at nominal host speed.

    The percentiles are taken over these, one value per unit, so that a
    slow pass moves every unit a little rather than the tail a lot.
    """
    by_id: dict = {}
    for p in passes:
        for u in p["units"]:
            by_id.setdefault(u["id"], []).append(u["cpu_s"] / p["factor"])
    return [statistics.median(v) for v in by_id.values()]


def end_to_end(prepare: Optional[dict], workers: list) -> dict:
    """Unit times are CPU seconds divided by their pass's host factor."""
    passes = [p for w in workers for p in w["passes"] if not p["traced"]]
    work = sum(u["work"] for p in passes for u in p["units"])
    per_unit = unit_times(passes)
    setup = statistics.median(_setup_s(w) for w in workers)
    if prepare:
        setup += _setup_s(prepare)
    return {
        "setup_s": setup,
        "throughput": work / sum(_units_s(p) for p in passes),
        "unit_p50_ms": statistics.median(per_unit) * 1e3,
        "unit_p90_ms": percentile(per_unit, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(w["maxrss_kb"] for w in workers) * 1024 / 1e6,
        "disk_mb": statistics.median(p["disk_bytes"] for p in passes) / 1e6,
    }


#: Layers that run only while setting up: reported as the prepare
#: process's time plus the median over the measuring processes' set-ups.
SETUP_LAYERS = ("serve.measure_s", "serve.generate_s")

_SECONDS = {name for name, unit, _better in PER_LAYER if unit == "s"}


def per_layer(prepare: Optional[dict], workers: list) -> dict:
    """Per-pass values, the median over traced passes (set-up layers aside).

    Times are divided by the host factor of the pass (or set-up) they ran in.
    """
    traced = [p for w in workers for p in w["passes"] if p["traced"]]
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in SETUP_LAYERS:
            out[name] = statistics.median(
                w["setup_layers"].get(name, 0) / w["setup_factor"] for w in workers
            )
            if prepare:
                out[name] += prepare["setup_layers"].get(name, 0) / prepare["setup_factor"]
        elif name in _SECONDS:
            out[name] = statistics.median(p["layers"].get(name, 0) / p["factor"] for p in traced)
        else:
            out[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
    lookups = out["arch.lowering_computed"] + out["arch.lowering_reused"]
    out["arch.lowering_lookups"] = lookups
    out["arch.lowering_reuse_ratio"] = out["arch.lowering_reused"] / lookups if lookups else 0.0
    unit_cpu = sum(u["cpu_s"] for p in traced for u in p["units"])
    covered = sum(p["layers"].get("trace.attributed_s", 0.0) for p in traced)
    out["trace.coverage"] = covered / unit_cpu if unit_cpu else 0.0
    untraced = [_units_s(p) for w in workers for p in w["passes"] if not p["traced"]]
    out["trace.overhead"] = (
        statistics.median(_units_s(p) for p in traced) / statistics.median(untraced) - 1.0
    )
    out["host.speed_factor"] = statistics.median(
        p["factor"] for w in workers for p in w["passes"]
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="CPU seconds of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store fingerprints as the reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    group, has_prepare, work_unit = WORKLOADS[args.workload]
    cache_dir = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
    env, recorded = pinned_env(cache_dir)
    deadline = time.monotonic() + BUDGET_S
    ticks0, load0, wall0 = host.read_ticks(), host.loadavg(), time.perf_counter()
    try:
        prepare = run_worker(args, "prepare", env, deadline) if has_prepare else None
        workers = [run_worker(args, "measure", env, deadline, i) for i in range(WORKERS)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    ticks1, load1 = host.read_ticks(), host.loadavg()
    raw = STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    raw.write_text(json.dumps({"prepare": prepare, "workers": workers}))

    units = [u for w in workers for p in w["passes"] for u in p["units"]]
    checked = units
    if prepare:  # results computed while filling the cache are checked too
        checked = [{"id": "prepare", "fingerprints": prepare["fingerprints"], "failures": []}]
        checked += units
    inputs = args.seed % INPUT_SETS
    reference = first_results(checked) if args.record else load_reference(group, inputs)
    failures = check_units(checked, reference)

    passes = [p for w in workers for p in w["passes"]]
    diagnostics = {
        "host.steal_frac": host.steal_fraction(ticks0, ticks1) if ticks0 and ticks1 else None,
        "host.wall_over_cpu": sum(p["wall_s"] for p in passes) / sum(p["cpu_s"] for p in passes),
        "host.loadavg": [load0, load1],
        "run_wall_s": time.perf_counter() - wall0,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_cpu_s": [round(p["cpu_s"], 4) for p in passes],
        "pass_sys_s": [round(p["sys_s"], 4) for p in passes],
        "pass_factor": [round(p["factor"], 4) for p in passes],
        "setup_cpu_s": [w["setup_cpu_s"] for w in workers],
        "setup_factor": [round(w["setup_factor"], 4) for w in workers],
        "prepare_cpu_s": prepare["setup_cpu_s"] if prepare else None,
        "input_set": inputs,
        "results_digest": results_digest(units),
        "env_pinned": PINNED_ENV,
        "env_found": recorded,
    }
    if args.trace:
        metrics = per_layer(prepare, workers)
        metrics["host.steal_frac"] = diagnostics["host.steal_frac"] or 0.0
        metrics["host.wall_over_cpu"] = diagnostics["host.wall_over_cpu"]
        metrics["host.loadavg"] = load1 or 0.0
        catalog = PER_LAYER
    else:
        metrics = end_to_end(prepare, workers)
        catalog = END_TO_END

    print(
        f"perfbench {args.workload} seed={args.seed} (input set {inputs}) "
        f"seconds={args.seconds:g} trace={args.trace}: {len(workers)} workers, "
        f"{len(passes)} passes, {len(checked)} units; "
        f"throughput unit: {work_unit} per CPU second"
    )
    for name, unit, _better in catalog:
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<34} {len(failures) / len(checked):>14.6g} failed/attempted")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("diagnostics " + json.dumps(diagnostics))

    if args.record and not failures:
        _record(group, inputs, reference)
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalog},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _record(group: str, inputs: int, fingerprints: dict) -> None:
    data = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    entry = data.setdefault(group, {}).setdefault(str(inputs), {})
    entry.update(fingerprints)
    data[group][str(inputs)] = dict(sorted(entry.items()))
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
