"""Cold encode/decode throughput benchmark: production codec vs the spec.

Times a cold ``GroupCodec`` encode+decode pass (plain and per-group
CRC-8) and the SECDED round trip of the 16-bit words on a seeded
Laplacian delta map, once through the production (``vectorized``) path
and once through the value-at-a-time or
bit-matrix ``reference`` spec in ``tests/oracles``, measuring MB/s and
the vectorized/reference speedup.  ``--out`` writes the result JSON to a
file; without it nothing is written, so a smoke run cannot overwrite the
committed HD record in ``BENCH_codec.json``.  Exits
non-zero if any encode+decode speedup falls below ``--min-speedup`` (or
if the two ever disagree on bytes or decoded values — the benchmark
double-checks byte-identity on every stream it times, and also compares
lenient ``GroupCodec`` decodes of one bit-flipped and one truncated
stream, values and flags, with the spec).

The default size is an HD delta trace (1080x1920 values); ``--smoke``
drops to 2^16 values for CI, where the gate is 5x rather than 10x
because the reference path's fixed costs amortize less.

Usage::

    python benchmarks/codec_bench.py [--smoke] [--min-speedup 5] [--json] [--out FILE]
    python benchmarks/codec_bench.py --out BENCH_codec.json  # the HD record
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests import oracles  # noqa: E402

from repro.compression.codec import Encoded, GroupCodec  # noqa: E402
from repro.protect.ecc import secded_decode, secded_encode  # noqa: E402
from repro.utils.rng import DEFAULT_SEED  # noqa: E402

HD_VALUES = 1080 * 1920
SMOKE_VALUES = 1 << 16
BYTES_PER_VALUE = 2  # 16-bit storage words

def _group_case(checksum: bool) -> dict:
    codec = GroupCodec(16, signed=True, checksum=checksum)
    return {
        "vectorized": (codec.encode, codec.decode),
        "reference": (
            lambda data: oracles.group_encode(data, 16, True, checksum),
            lambda enc: oracles.group_decode_flagged(enc, 16, True, checksum)[0],
        ),
    }


def _secded_case() -> dict:
    return {
        "vectorized": (
            lambda data: secded_encode(data, 16, signed=True),
            lambda codes: secded_decode(codes, 16, signed=True),
        ),
        "reference": (
            lambda data: oracles.secded_encode(data, 16, signed=True),
            lambda codes: oracles.secded_decode(codes, 16, signed=True),
        ),
    }


#: Per case, the (encode, decode) pair of each implementation.
CASES = (
    ("group_plain", lambda: _group_case(checksum=False)),
    ("group_checksum", lambda: _group_case(checksum=True)),
    ("secded", _secded_case),
)


def identical(a, b) -> bool:
    """Byte and value identity of two encode or decode results."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def make_deltas(values: int, seed: int) -> np.ndarray:
    """Laplacian-ish deltas with a realistic zero fraction (post-ReLU maps)."""
    rng = np.random.default_rng(seed)
    deltas = rng.laplace(scale=40.0, size=values)
    deltas[rng.random(values) < 0.45] = 0
    return np.clip(np.round(deltas), -(1 << 15), (1 << 15) - 1).astype(np.int64)


def check_damaged_decodes(data: np.ndarray, seed: int) -> "list[str]":
    """Lenient decodes of damaged streams must match the spec.

    Flips one seeded bit of each ``GroupCodec`` stream (plain and CRC-8)
    and, separately, drops its last quarter, then compares the decoded
    values and flags with the spec's.  Returns the names of the checks.
    """
    rng = np.random.default_rng(seed)
    checked = []
    for checksum in (False, True):
        codec = GroupCodec(16, signed=True, checksum=checksum)
        encoded = codec.encode(data)
        flipped = bytearray(encoded.data)
        bit = int(rng.integers(encoded.bits))
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        damaged = {
            "bit_flipped": bytes(flipped),
            "truncated": encoded.data[: len(encoded.data) * 3 // 4],
        }
        for kind, payload in damaged.items():
            name = f"{'group_checksum' if checksum else 'group_plain'}/{kind}"
            stream = Encoded(data=payload, bits=encoded.bits, values=encoded.values)
            ref = oracles.group_decode_flagged(stream, 16, True, checksum, strict=False)
            if not identical(ref, codec.decode_flagged(stream, strict=False)):
                raise AssertionError(f"{name}: codec and spec decoded differently")
            checked.append(name)
    return checked


def time_path(encode, decode, data: np.ndarray, repeats: int) -> dict:
    """Best-of-N cold encode and decode wall times for one implementation."""
    best_enc = best_dec = float("inf")
    encoded = decoded = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        encoded = encode(data)
        t1 = time.perf_counter()
        decoded = decode(encoded)
        t2 = time.perf_counter()
        best_enc = min(best_enc, t1 - t0)
        best_dec = min(best_dec, t2 - t1)
    mb = data.size * BYTES_PER_VALUE / 1e6
    return {
        "encode_s": best_enc,
        "decode_s": best_dec,
        "encode_mb_s": mb / best_enc,
        "decode_mb_s": mb / best_dec,
        "cold_mb_s": mb / (best_enc + best_dec),
        "_encoded": encoded,
        "_decoded": decoded,
    }


def run(values: int, seed: int, repeats: dict) -> dict:
    data = make_deltas(values, seed)
    cases = {}
    for name, make in CASES:
        paths = make()
        per_path = {
            path: time_path(encode, decode, data, repeats[path])
            for path, (encode, decode) in paths.items()
        }
        ref, vec = per_path["reference"], per_path["vectorized"]
        if not identical(ref["_encoded"], vec["_encoded"]):
            raise AssertionError(f"{name}: codec and spec emitted different bytes")
        if not identical(ref["_decoded"], vec["_decoded"]):
            raise AssertionError(f"{name}: codec and spec decoded different values")
        for timing in per_path.values():
            timing.pop("_encoded")
            timing.pop("_decoded")
        cases[name] = {
            "reference": ref,
            "vectorized": vec,
            "speedup_encode": ref["encode_s"] / vec["encode_s"],
            "speedup_decode": ref["decode_s"] / vec["decode_s"],
            "speedup_cold": (ref["encode_s"] + ref["decode_s"])
            / (vec["encode_s"] + vec["decode_s"]),
        }
    return {
        "values": values,
        "bytes_per_value": BYTES_PER_VALUE,
        "seed": seed,
        "cases": cases,
        "lenient_identity": check_damaged_decodes(data, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"use the CI smoke size ({SMOKE_VALUES} values) instead of HD",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail if any cold speedup is below this (default: 10 HD, 5 smoke)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out", default=None,
        help="write the result JSON to this file (default: write no file)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the result JSON to stdout"
    )
    args = parser.parse_args(argv)

    values = SMOKE_VALUES if args.smoke else HD_VALUES
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 5.0 if args.smoke else 10.0
    # The reference path is minutes-slow at HD size; one cold pass is
    # already stable there, while the fast paths get best-of-3.
    repeats = {"reference": 1 if not args.smoke else 3, "vectorized": 3}

    result = run(values, args.seed, repeats)
    result["min_speedup"] = min_speedup
    result["smoke"] = args.smoke
    if args.out is not None:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    failures = []
    for name, case in result["cases"].items():
        line = (
            f"{name}: cold {case['speedup_cold']:.1f}x"
            f" (encode {case['speedup_encode']:.1f}x,"
            f" decode {case['speedup_decode']:.1f}x;"
            f" vectorized {case['vectorized']['cold_mb_s']:.1f} MB/s"
            f" vs reference {case['reference']['cold_mb_s']:.1f} MB/s)"
        )
        print(line, file=sys.stderr)
        if case["speedup_cold"] < min_speedup:
            failures.append(line)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    if failures:
        print(
            f"FAIL: cold speedup below the {min_speedup:.0f}x gate:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"ok: wrote {args.out}" if args.out is not None else "ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
