"""Run every paper experiment and print the full report.

    python -m repro.experiments.run_all            # everything
    python -m repro.experiments.run_all fig11 t5   # substring filters

Each report is ``render(to_jsonable(compute(FULL_PROFILE)))``: the
``result`` tree of the committed ``goldens/full`` document, printed by
one renderer that knows no experiment.  The heavy experiments share
cached traces, so the full sweep is much cheaper than the sum of its
parts.  The experiment list itself lives in
:mod:`repro.regression.registry`, shared with the golden-result checker
so the two can never drift apart.

One broken experiment must not hide the other reports: failures are
caught per experiment, the run keeps going, and a summary with full
tracebacks prints at the end.  The exit code is the number of failed
experiments (0 = all passed, capped at 125), so scripting ``run_all``
stays honest.
"""

from __future__ import annotations

import json
import sys
import textwrap
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.experiments.profiles import FULL_PROFILE
from repro.regression.registry import EXPERIMENT_SPECS, ExperimentSpec
from repro.regression.serialize import to_jsonable


def render(value) -> str:
    """Plain text of a golden ``result`` tree, for any experiment.

    A list (or a mapping) of two or more records whose rows share their
    columns becomes a fixed-width table; a record's own mappings flatten
    to ``outer/inner`` columns, and a mapping's keys fill the first,
    unnamed column.  Any other mapping becomes ``key: value`` lines with
    nested values indented, a list of scalars one line, and any other
    list one ``[i]:`` block per item.  Numbers print as their JSON text:
    the golden's own 9-digit values.
    """
    rows = _rows(value)
    if rows:
        cells = [list(rows[0])] + [[_text(v) for v in row.values()] for row in rows]
        widths = [max(len(line[i]) for line in cells) for i in range(len(cells[0]))]
        return "\n".join(
            "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in cells
        )
    if isinstance(value, dict):
        return "\n".join(
            f"{key}: {_text(item)}" if _is_flat(item) else f"{key}:\n{_nested(item)}"
            for key, item in value.items()
        )
    if _is_flat(value):
        return _text(value)
    return "\n".join(
        render(item) if _is_flat(item) else f"[{i}]:\n{_nested(item)}"
        for i, item in enumerate(value)
    )


def _rows(value) -> "list[dict] | None":
    """``value``'s records flattened to table rows, if they share columns."""
    if isinstance(value, dict) and all(isinstance(v, dict) for v in value.values()):
        records = [{"": key, **item} for key, item in value.items()]
    elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
        records = value
    else:
        return None
    rows = [_flatten(record) for record in records]
    if len(rows) < 2 or None in rows or any(list(row) != list(rows[0]) for row in rows):
        return None
    return rows


def _flatten(record: dict) -> "dict | None":
    """``record`` with its mappings as ``outer/inner`` keys; ``None`` if a
    leaf is not a scalar or a list of scalars."""
    flat = {}
    for key, item in record.items():
        inner = item if isinstance(item, dict) else {None: item}
        for sub, leaf in inner.items():
            if not _is_flat(leaf):
                return None
            flat[key if sub is None else f"{key}/{sub}"] = leaf
    return flat


def _is_flat(value) -> bool:
    """A scalar, or a list of scalars."""
    items = value if isinstance(value, list) else [value]
    return not any(isinstance(v, (dict, list)) for v in items)


def _nested(value) -> str:
    return textwrap.indent(render(value), "  ")


def _text(value) -> str:
    if isinstance(value, list):
        return " ".join(_text(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def print_report(spec: ExperimentSpec) -> None:
    """Print one experiment's full-profile report."""
    print(render(to_jsonable(spec.compute(FULL_PROFILE))))


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
