"""Weight-compression smoke benchmark: MSR compaction contract gates.

Quantizes each model's filters with the quantile-calibrated INT8 path
(:mod:`repro.weights.quant`), encodes them with the MSR codec, and
guards the subsystem's contract, exiting non-zero if any gate fails:

1. **Coverage** — the calibrated quantization must keep at least
   ``MIN_COVERAGE`` of every model's weights inside the MSR-4 in-band
   range; below that the compensation list is doing the codec's job.
2. **Compaction** — the MSR4W stream must be strictly smaller than the
   Raw8W stream for every model (and therefore far below the dense
   Raw16W baseline every ladder charges).
3. **Spec byte-identity** — the production codec must emit the same
   bytes as the value-at-a-time spec in ``tests/oracles`` and decode
   losslessly on each model's largest layer; a divergence here poisons
   every golden downstream.

Results land in ``BENCH_weights.json``.

Usage::

    python benchmarks/weights_bench.py [--models DnCNN IRCNN] [--full] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import numpy as np  # noqa: E402
from tests import oracles  # noqa: E402

from repro.models.registry import prepare_model  # noqa: E402
from repro.utils.rng import DEFAULT_SEED  # noqa: E402
from repro.weights import (  # noqa: E402
    MSRCodec,
    network_int8_weights,
    network_weight_bits,
)

#: Every model's calibrated INT8 weights must keep at least this
#: fraction inside the MSR-4 in-band range.  Measured: DnCNN 0.9999,
#: IRCNN and FFDNet similar; 0.95 catches a calibration regression
#: without tripping on model-to-model variation.
MIN_COVERAGE = 0.95

BENCH_MODELS = ("DnCNN",)
BENCH_FULL_MODELS = ("DnCNN", "IRCNN", "FFDNet")


def _spec_identity(int_weights: np.ndarray, codec: MSRCodec) -> dict:
    """Encode with the codec and the spec; return sizes and the identity verdict."""
    ref = oracles.msr_encode(
        int_weights, codec.bits, codec.max_msr, codec.column_size, codec.checksum
    )
    vec = codec.encode(int_weights)
    return {
        "identical": ref.data == vec.data and ref.bits == vec.bits,
        "roundtrip_ok": bool(np.array_equal(codec.decode(vec), int_weights)),
        "bits": ref.bits,
    }


def sweep(models: "tuple[str, ...]", seed: int) -> dict:
    codec = MSRCodec(bits=8, max_msr=4, column_size=256)
    rows = []
    for name in models:
        net = prepare_model(name, seed)
        table = network_int8_weights(net)
        flat = np.concatenate([ints for ints, _scale in table.values()])
        largest = max(table.values(), key=lambda t: t[0].size)[0]
        bits = {
            scheme: sum(network_weight_bits(net, scheme).values())
            for scheme in ("Raw16W", "Raw8W", "MSR4W")
        }
        rows.append(
            {
                "model": name,
                "weights": int(flat.size),
                "coverage": codec.coverage(flat),
                "bits": bits,
                "bits_per_weight": bits["MSR4W"] / flat.size,
                "msr_vs_raw8": bits["MSR4W"] / bits["Raw8W"],
                "spec_identity": _spec_identity(largest, codec),
            }
        )
    return {
        "seed": seed,
        "min_coverage": MIN_COVERAGE,
        "codec": {"bits": 8, "max_msr": 4, "column_size": 256},
        "models": rows,
    }


def check(result: dict) -> "list[str]":
    failures = []
    for row in result["models"]:
        print(
            f"{row['model']}: {row['weights']} weights, coverage "
            f"{row['coverage']:.4f}, {row['bits_per_weight']:.2f} bits/weight "
            f"({100 * row['msr_vs_raw8']:.1f}% of Raw8)",
            file=sys.stderr,
        )
        if row["coverage"] < result["min_coverage"]:
            failures.append(
                f"{row['model']}: MSR coverage {row['coverage']:.4f} below "
                f"gate {result['min_coverage']}"
            )
        if row["bits"]["MSR4W"] >= row["bits"]["Raw8W"]:
            failures.append(
                f"{row['model']}: MSR4W stream ({row['bits']['MSR4W']} bits) "
                f"not below Raw8W ({row['bits']['Raw8W']} bits)"
            )
        if not row["spec_identity"]["identical"]:
            failures.append(f"{row['model']}: codec and spec streams diverge")
        if not row["spec_identity"]["roundtrip_ok"]:
            failures.append(f"{row['model']}: MSR roundtrip is lossy")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--full", action="store_true", help="all denoising models (nightly)"
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_weights.json"),
        help="where to write the result JSON",
    )
    parser.add_argument("--json", action="store_true", help="print the result JSON to stdout")
    args = parser.parse_args(argv)

    models = tuple(args.models) if args.models else (
        BENCH_FULL_MODELS if args.full else BENCH_MODELS
    )
    result = sweep(models, args.seed)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    failures = check(result)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    if failures:
        print("FAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"ok: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
