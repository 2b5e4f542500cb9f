"""Term-map lowering: production vs the padded-imap spec, timed and compared.

Lowers the first-trace layers of the five CI-DNNs (48 px crops, seed 1)
through production (:mod:`repro.arch.term_maps`,
:func:`repro.serve.latency.temporal_term_map` and VAA's useful count)
and through the padded-imap spec in ``tests/oracles/lowering.py``, and
prints each kernel's total time both ways.  The temporal map pairs each
layer with the same layer of the model's second trace.  The memo is
cleared before every production call, so each one computes.  Exits
non-zero if any map differs from the spec in a byte or its dtype, or any
useful count differs.  There is no speed gate: shared machines are too
noisy for one.

Usage::

    python benchmarks/lowering_bench.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.oracles import lowering  # noqa: E402

from repro.arch import term_maps  # noqa: E402
from repro.arch.sim import collect_traces  # noqa: E402
from repro.arch.vaa import VAAModel  # noqa: E402
from repro.core.layer_memo import clear_memos  # noqa: E402
from repro.experiments.common import CI_MODEL_NAMES  # noqa: E402
from repro.serve.latency import temporal_term_map  # noqa: E402

CROP = 48
SEED = 1
#: The VP engine's default operating point.
VP_THRESHOLD, VP_RECOVERY = 0, 2

#: Kernel name -> (production, spec), each a function of (layer, previous).
KERNELS = {
    "raw": (
        lambda layer, _: term_maps.raw_term_map(layer),
        lambda layer, _: lowering.raw_term_map(layer),
    ),
    "delta_x": (
        lambda layer, _: term_maps.delta_term_map(layer, "x"),
        lambda layer, _: lowering.delta_term_map(layer, "x"),
    ),
    "vp": (
        lambda layer, _: term_maps.vp_term_map(layer, VP_THRESHOLD, VP_RECOVERY, "x"),
        lambda layer, _: lowering.vp_term_map(layer, VP_THRESHOLD, VP_RECOVERY, "x"),
    ),
    "temporal": (temporal_term_map, lowering.temporal_term_map),
    "vaa_useful": (
        lambda layer, _: VAAModel().layer_cycles(layer).useful_terms,
        lambda layer, _: lowering.vaa_useful_terms(layer),
    ),
}


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return (
            got.dtype == want.dtype
            and got.shape == want.shape
            and got.tobytes() == want.tobytes()
        )
    return got == want


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    pairs = []
    for model in CI_MODEL_NAMES:
        first, second = collect_traces(model, count=2, crop=CROP, seed=SEED)
        pairs += [(model, layer, prev) for layer, prev in zip(first, second)]
    print(f"{len(pairs)} layers of {len(CI_MODEL_NAMES)} CI-DNNs ({CROP} px, seed {SEED})")
    print(f"{'kernel':<12} {'production ms':>14} {'spec ms':>10} {'spec/prod':>10}")
    mismatches = []
    for name, (production, spec) in KERNELS.items():
        prod_s = spec_s = 0.0
        for model, layer, prev in pairs:
            clear_memos()
            start = time.perf_counter()
            got = production(layer, prev)
            prod_s += time.perf_counter() - start
            start = time.perf_counter()
            want = spec(layer, prev)
            spec_s += time.perf_counter() - start
            if not _same(got, want):
                mismatches.append(f"{name} {model}/{layer.name}")
        print(f"{name:<12} {prod_s * 1e3:>14.2f} {spec_s * 1e3:>10.2f} {spec_s / prod_s:>9.2f}x")
    clear_memos()
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
