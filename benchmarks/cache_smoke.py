"""Cold-vs-warm cache smoke check.

Runs a representative experiment twice in fresh subprocesses sharing one
disk cache directory: the first run populates the cache, the second must
be served from it.  The summary also reports how many megabytes the
cold run left in the cache, in total and per namespace (``crops``,
``models``, ``traces``, ...), so a cache that grows shows where.  Exits
non-zero when the warm run is slower
than the threshold — a coarse guard that catches cache regressions
(broken keys, schema churn, serialization failures) without being flaky
on loaded CI machines.

Usage::

    python benchmarks/cache_smoke.py [--crop 64] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The measured workload: one full Diffy simulation (traces + calibration
#: + cycle analysis), the same path every paper experiment exercises.
_WORKLOAD = """\
import sys
from repro.arch.sim import simulate_network
result = simulate_network("DnCNN", "Diffy", trace_count=1, crop={crop})
print(f"fps={{result.fps:.4f}}", file=sys.stderr)
"""


def _run_once(cache_dir: str, crop: int) -> float:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_NO_CACHE", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _WORKLOAD.format(crop=crop)],
        check=True,
        env=env,
        cwd=REPO_ROOT,
    )
    return time.perf_counter() - start


def _namespace_mb(cache_dir: str) -> "dict[str, float]":
    """Megabytes of files under ``cache_dir``, by top-level directory."""
    root = Path(cache_dir)
    sizes: "dict[str, int]" = {}
    for p in root.rglob("*"):
        if p.is_file():
            namespace = p.relative_to(root).parts[0] if p.parent != root else "."
            sizes[namespace] = sizes.get(namespace, 0) + p.stat().st_size
    return {name: size / 1e6 for name, size in sorted(sizes.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--crop", type=int, default=64)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail if cold/warm falls below this (generous: full runs see >5x)",
    )
    parser.add_argument(
        "--warm-ceiling-s",
        type=float,
        default=30.0,
        help="fail if the warm run exceeds this wall time outright",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable result")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as cache_dir:
        cold_s = _run_once(cache_dir, args.crop)
        namespace_mb = _namespace_mb(cache_dir)
        warm_s = _run_once(cache_dir, args.crop)

    cache_mb = sum(namespace_mb.values())

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    summary = {
        "crop": args.crop,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "cache_mb": round(cache_mb, 2),
        "namespace_mb": {name: round(mb, 2) for name, mb in namespace_mb.items()},
    }
    if args.json:
        print(json.dumps(summary))
    else:
        by_namespace = ", ".join(f"{name} {mb:.2f}" for name, mb in namespace_mb.items())
        print(
            f"cache smoke: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
            f"({speedup:.1f}x, threshold {args.min_speedup:.1f}x), "
            f"cache {cache_mb:.2f} MB ({by_namespace})"
        )

    if warm_s > args.warm_ceiling_s:
        print(f"FAIL: warm run took {warm_s:.2f}s > ceiling {args.warm_ceiling_s}s")
        return 1
    if speedup < args.min_speedup:
        print(f"FAIL: warm speedup {speedup:.2f}x < required {args.min_speedup:.2f}x")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
