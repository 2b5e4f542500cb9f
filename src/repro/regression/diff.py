"""Tolerance-aware comparison of canonical result trees.

Structure (keys, lengths, types) and integer/string/bool leaves compare
exactly; float leaves compare within a relative+absolute tolerance that
can be widened per field via glob patterns on the field's path.

Paths are ``/``-joined from the root: ``rows/0/pra/DeltaD16``.  Rules
match with :func:`fnmatch.fnmatchcase`, first match wins::

    DiffConfig(rules=(ToleranceRule("rows/*/pra/*", rtol=1e-3),))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

#: Sentinel strings the serializer uses for non-finite floats.
_NON_FINITE = {"NaN", "Infinity", "-Infinity"}


def _join(path: str, key: Any) -> str:
    """Slash-join without a leading separator at the root."""
    return f"{path}/{key}" if path else str(key)


@dataclass(frozen=True)
class ToleranceRule:
    """Relative float tolerance for every path matching ``pattern``."""

    pattern: str
    rtol: float


@dataclass(frozen=True)
class DiffConfig:
    """Comparison policy: per-pattern rules, then defaults."""

    rules: tuple = ()
    default_rtol: float = 1e-6
    default_atol: float = 1e-12

    def tolerance_for(self, path: str) -> "tuple[float, float]":
        for rule in self.rules:
            if fnmatchcase(path, rule.pattern):
                return rule.rtol, 0.0
        return self.default_rtol, self.default_atol


@dataclass(frozen=True)
class Deviation:
    """One point where the actual result left the golden."""

    path: str
    kind: str  # "type" | "missing" | "extra" | "length" | "value" | "float"
    expected: Any
    actual: Any
    detail: str = ""

    def render(self) -> str:
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"  {self.path or '$'}: [{self.kind}] "
            f"expected {self.expected!r}, got {self.actual!r}{extra}"
        )


@dataclass
class _Walk:
    config: DiffConfig
    deviations: "list[Deviation]" = field(default_factory=list, init=False)

    def note(self, path: str, kind: str, expected: Any, actual: Any, detail: str = ""):
        self.deviations.append(Deviation(path, kind, expected, actual, detail))

    def visit(self, expected: Any, actual: Any, path: str) -> None:
        if _is_float_pair(expected, actual):
            self._visit_float(expected, actual, path)
            return
        if type(expected) is not type(actual):
            self.note(
                path, "type", expected, actual,
                f"{type(expected).__name__} -> {type(actual).__name__}",
            )
            return
        if isinstance(expected, dict):
            self._visit_dict(expected, actual, path)
        elif isinstance(expected, list):
            self._visit_list(expected, actual, path)
        elif expected != actual:
            self.note(path, "value", expected, actual)

    def _visit_float(self, expected: Any, actual: Any, path: str) -> None:
        if isinstance(expected, str) or isinstance(actual, str):
            # Non-finite sentinels compare exactly (and never match a number).
            if expected != actual:
                self.note(path, "float", expected, actual, "non-finite")
            return
        rtol, atol = self.config.tolerance_for(path)
        if abs(actual - expected) > atol + rtol * abs(expected):
            rel = abs(actual - expected) / abs(expected) if expected else float("inf")
            self.note(
                path, "float", expected, actual,
                f"rel err {rel:.3g} > rtol {rtol:g}",
            )

    def _visit_dict(self, expected: dict, actual: dict, path: str) -> None:
        for key in sorted(expected.keys() - actual.keys()):
            self.note(_join(path, key), "missing", expected[key], None, "key absent")
        for key in sorted(actual.keys() - expected.keys()):
            self.note(_join(path, key), "extra", None, actual[key], "unexpected key")
        for key in sorted(expected.keys() & actual.keys()):
            self.visit(expected[key], actual[key], _join(path, key))

    def _visit_list(self, expected: list, actual: list, path: str) -> None:
        if len(expected) != len(actual):
            self.note(
                path, "length", len(expected), len(actual),
                "sequence length changed",
            )
        for i, (e, a) in enumerate(zip(expected, actual)):
            self.visit(e, a, _join(path, i))


def _is_float_pair(expected: Any, actual: Any) -> bool:
    """True when the pair should go through float comparison.

    Either side being a float (or a non-finite sentinel string when the
    other side is numeric) routes to tolerance logic; int-vs-int pairs
    stay exact, and bools are never floats.
    """

    def floatish(v: Any) -> bool:
        return isinstance(v, float) or (isinstance(v, str) and v in _NON_FINITE)

    def numeric(v: Any) -> bool:
        return floatish(v) or (isinstance(v, int) and not isinstance(v, bool))

    return (floatish(expected) and numeric(actual)) or (
        floatish(actual) and numeric(expected)
    )


def compare(expected: Any, actual: Any, config: "DiffConfig | None" = None) -> "list[Deviation]":
    """All deviations of ``actual`` from the ``expected`` golden tree."""
    walk = _Walk(config or DiffConfig())
    walk.visit(expected, actual, "")
    return walk.deviations


def format_report(
    experiment: str, deviations: "list[Deviation]", limit: int = 40
) -> str:
    """Human-readable per-field report for one experiment's diff."""
    if not deviations:
        return f"{experiment}: OK"
    lines = [f"{experiment}: {len(deviations)} deviation(s) from golden"]
    lines += [d.render() for d in deviations[:limit]]
    if len(deviations) > limit:
        lines.append(f"  ... and {len(deviations) - limit} more")
    lines.append(
        "  (intended change? regenerate with: "
        f"python -m repro.regression update {experiment})"
    )
    return "\n".join(lines)
