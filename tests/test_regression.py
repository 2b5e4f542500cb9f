"""Unit tests for the golden-regression building blocks.

Covers canonical serialization (determinism, rounding, sentinels, key
canonicalization), the tolerance-aware diff, and golden file storage.
The CLI end-to-end behaviour lives in ``test_regression_cli.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.regression.diff import (
    DiffConfig,
    ToleranceRule,
    compare,
    format_report,
)
from repro.regression.goldens import (
    GOLDENS_DIR_ENV,
    golden_path,
    goldens_root,
    read_golden,
    write_golden,
)
from repro.regression.serialize import (
    UnserializableError,
    canonical_dumps,
    canonical_key,
    round_float,
    to_jsonable,
)


# ---------------------------------------------------------------------------
# round_float / canonical_key
# ---------------------------------------------------------------------------
class TestRoundFloat:
    def test_rounds_to_significant_digits(self):
        assert round_float(1.0 / 3.0, sig=4) == 0.3333

    def test_negative_zero_normalizes(self):
        assert json.dumps(round_float(-0.0)) == "0.0"

    def test_non_finite_sentinels(self):
        assert round_float(float("nan")) == "NaN"
        assert round_float(float("inf")) == "Infinity"
        assert round_float(float("-inf")) == "-Infinity"

    def test_round_trip_is_stable(self):
        value = 0.1234567891234
        once = round_float(value)
        assert round_float(once) == once


class TestCanonicalKey:
    def test_scalar_keys(self):
        assert canonical_key("a") == "a"
        assert canonical_key(3) == "3"
        assert canonical_key(True) == "true"
        assert canonical_key(0.5) == "0.5"

    def test_tuple_keys_join(self):
        assert canonical_key((1080, 1920)) == "1080,1920"

    def test_unsupported_key_raises(self):
        with pytest.raises(UnserializableError):
            canonical_key(object())


# ---------------------------------------------------------------------------
# to_jsonable / canonical_dumps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Inner:
    ratio: float

    __golden_properties__ = ("doubled",)

    @property
    def doubled(self) -> float:
        return 2 * self.ratio


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    table: dict


class TestToJsonable:
    def test_dataclass_fields_and_golden_properties(self):
        out = to_jsonable(_Inner(ratio=0.25))
        assert out == {"ratio": 0.25, "doubled": 0.5}

    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable(
            {"i": np.int64(4), "f": np.float64(0.5), "b": np.bool_(True),
             "a": np.arange(3, dtype=np.float32)}
        )
        assert out == {"i": 4, "f": 0.5, "b": True, "a": [0.0, 1.0, 2.0]}

    def test_nested_structure(self):
        obj = _Outer(
            name="x",
            inner=_Inner(ratio=1.5),
            table={(1, 2): 3, 0.5: "half", True: "yes"},
        )
        out = to_jsonable(obj)
        assert out["table"] == {"1,2": 3, "0.5": "half", "true": "yes"}
        assert out["inner"]["doubled"] == 3.0

    def test_sets_are_sorted(self):
        assert to_jsonable({"s": {3, 1, 2}}) == {"s": [1, 2, 3]}

    def test_key_collision_raises(self):
        with pytest.raises(UnserializableError, match="collide"):
            to_jsonable({1: "a", "1": "b"})

    def test_unserializable_reports_path(self):
        with pytest.raises(UnserializableError, match=r"\$/x/0"):
            to_jsonable({"x": [object()]})


class TestCanonicalDumps:
    def test_byte_identical_for_equal_inputs(self):
        doc = {"b": [1.0 / 3.0, float("inf")], "a": {"z": 1, "k": (2, 3)}}
        assert canonical_dumps(doc) == canonical_dumps(doc)

    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_insertion_order_does_not_matter(self):
        assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------
class TestCompare:
    def test_identical_trees_clean(self):
        doc = {"a": [1, 2.5, "x"], "b": {"c": True}}
        assert compare(doc, doc) == []

    def test_float_within_default_tolerance(self):
        assert compare({"v": 1.0}, {"v": 1.0 + 1e-9}) == []

    def test_float_outside_tolerance(self):
        (dev,) = compare({"v": 1.0}, {"v": 1.001})
        assert dev.kind == "float" and dev.path == "v"

    def test_int_compares_exactly(self):
        (dev,) = compare({"n": 5}, {"n": 6})
        assert dev.kind == "value"

    def test_int_vs_float_uses_tolerance(self):
        # round_float can turn 2.0 into 2 across json round-trips; the
        # pair must go through float comparison, not a type mismatch.
        assert compare({"v": 2}, {"v": 2.0 + 1e-9}) == []

    def test_bool_never_treated_as_float(self):
        (dev,) = compare({"v": True}, {"v": 1.0})
        assert dev.kind == "type"

    def test_non_finite_sentinels_compare_exactly(self):
        assert compare({"v": "Infinity"}, {"v": "Infinity"}) == []
        (dev,) = compare({"v": "Infinity"}, {"v": 3.0})
        assert dev.kind == "float" and dev.detail == "non-finite"

    def test_missing_and_extra_keys(self):
        devs = compare({"a": 1, "b": 2}, {"b": 2, "c": 3})
        kinds = {d.path: d.kind for d in devs}
        assert kinds == {"a": "missing", "c": "extra"}

    def test_list_length_change(self):
        devs = compare({"l": [1, 2, 3]}, {"l": [1, 2]})
        assert devs[0].kind == "length"

    def test_type_change(self):
        (dev,) = compare({"v": "s"}, {"v": [1]})
        assert dev.kind == "type"

    def test_tolerance_rule_overrides_default(self):
        config = DiffConfig(rules=(ToleranceRule("rows/*/speed", rtol=0.1),))
        golden = {"rows": [{"speed": 1.0, "exact": 1.0}]}
        actual = {"rows": [{"speed": 1.05, "exact": 1.05}]}
        (dev,) = compare(golden, actual, config)
        assert dev.path == "rows/0/exact"

    def test_first_matching_rule_wins(self):
        config = DiffConfig(
            rules=(
                ToleranceRule("v", rtol=1.0),
                ToleranceRule("*", rtol=1e-12),
            )
        )
        assert compare({"v": 1.0}, {"v": 1.5}, config) == []

    def test_atol_handles_zero_expected(self):
        config = DiffConfig(default_atol=1e-6)
        assert compare({"v": 0.0}, {"v": 1e-9}, config) == []


class TestFormatReport:
    def test_clean_report(self):
        assert format_report("fig01", []) == "fig01: OK"

    def test_report_mentions_update_hint_and_limit(self):
        devs = compare({"l": list(range(100))}, {"l": [x + 1 for x in range(100)]})
        report = format_report("fig01", devs, limit=5)
        assert "repro.regression update fig01" in report
        assert "... and" in report


# ---------------------------------------------------------------------------
# goldens storage
# ---------------------------------------------------------------------------
class TestGoldens:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GOLDENS_DIR_ENV, str(tmp_path))
        assert goldens_root() == tmp_path
        assert golden_path("fig01", "ci") == tmp_path / "ci" / "fig01.json"

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GOLDENS_DIR_ENV, str(tmp_path / "env"))
        assert goldens_root(tmp_path / "arg") == tmp_path / "arg"

    def test_write_read_round_trip(self, tmp_path):
        text = canonical_dumps({"experiment": "x", "result": [1, 2.5]})
        path = write_golden("x", "ci", text, tmp_path)
        assert path.read_text() == text
        assert read_golden("x", "ci", tmp_path) == json.loads(text)

    def test_read_missing_returns_none(self, tmp_path):
        assert read_golden("absent", "ci", tmp_path) is None

    def test_repo_goldens_directory_is_committed(self):
        # The default root must resolve to the repo's goldens/ with a
        # golden for every registered experiment at the ci profile.
        from repro.regression.registry import EXPERIMENT_SPECS

        committed = {p.stem for p in (goldens_root() / "ci").glob("*.json")}
        assert committed == set(EXPERIMENT_SPECS)
