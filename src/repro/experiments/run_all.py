"""Run every paper experiment and print the full report.

    python -m repro.experiments.run_all            # everything
    python -m repro.experiments.run_all fig11 t5   # substring filters

Each report is ``format_result(compute(FULL_PROFILE))``: the numbers the
committed ``goldens/full`` file holds, never a second set of defaults.
The heavy experiments share cached traces, so the full sweep is much
cheaper than the sum of its parts.  The experiment list itself lives in
:mod:`repro.regression.registry`, shared with the golden-result checker
so the two can never drift apart.

One broken experiment must not hide the other twenty reports: failures
are caught per experiment, the run keeps going, and a summary with full
tracebacks prints at the end.  The exit code is the number of failed
experiments (0 = all passed), so scripting ``run_all`` stays honest.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.experiments.profiles import FULL_PROFILE
from repro.regression.registry import EXPERIMENT_SPECS, ExperimentSpec


def print_report(spec: ExperimentSpec) -> None:
    """Print one experiment's full-profile report."""
    module = spec.load()
    print(module.format_result(module.compute(FULL_PROFILE)))


#: Ordered registry: id -> callable printing that experiment's report.
EXPERIMENTS: dict[str, Callable[[], None]] = {
    exp_id: partial(print_report, spec) for exp_id, spec in EXPERIMENT_SPECS.items()
}


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment that raised, with enough context to debug it."""

    name: str
    error: str
    traceback: str


def run_selected(
    selected: "dict[str, Callable[[], None]]",
) -> "list[ExperimentFailure]":
    """Run each experiment, keep going on failure, return the failures."""
    failures: list[ExperimentFailure] = []
    for name, fn in selected.items():
        start = time.time()
        print(f"\n{'=' * 72}\n# {name}\n{'=' * 72}")
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - keep-going is the contract
            failures.append(
                ExperimentFailure(
                    name=name,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                )
            )
            print(f"[{name} FAILED after {time.time() - start:.1f}s: {exc!r}]")
        else:
            print(f"[{name} done in {time.time() - start:.1f}s]")
    return failures


def main(argv: "list[str] | None" = None) -> int:
    filters = [f.lower() for f in (argv if argv is not None else sys.argv[1:])]
    selected = {
        name: fn
        for name, fn in EXPERIMENTS.items()
        if not filters or any(f in name for f in filters)
    }
    if not selected:
        print(f"no experiment matches {filters}; available: {list(EXPERIMENTS)}")
        return 2
    failures = run_selected(selected)
    if failures:
        print(f"\n{'=' * 72}\n# FAILURES ({len(failures)}/{len(selected)})\n{'=' * 72}")
        for f in failures:
            print(f"\n--- {f.name}: {f.error}\n{f.traceback}")
        print(
            f"{len(failures)} of {len(selected)} experiments failed: "
            f"{[f.name for f in failures]}"
        )
    else:
        print(f"\nall {len(selected)} experiments passed")
    # Exit codes are 8-bit: len(failures) == 256 would wrap to a "passing"
    # 0.  POSIX reserves 126+ for shell/signal conditions, so clamp at 125.
    return min(len(failures), 125)


if __name__ == "__main__":
    raise SystemExit(main())
