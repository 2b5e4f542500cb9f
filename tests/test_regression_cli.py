"""End-to-end tests for ``python -m repro.regression``.

The exit-code contract is the CI interface: 0 clean, 1 mismatch,
2 missing golden.  Static experiments (table4, table7) keep these tests
fast; one trace-backed experiment exercises the profile plumbing.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.experiments.profiles import (
    CI_PROFILE,
    FULL_PROFILE,
    PROFILES,
    Profile,
    resolve_profile,
)
from repro.regression.cli import EXIT_MISMATCH, EXIT_MISSING, EXIT_OK, main
from repro.regression.registry import EXPERIMENT_SPECS, select_specs

STATIC_IDS = ["table4", "table7"]


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestProfiles:
    def test_resolve_none_is_ci(self):
        assert resolve_profile(None) is CI_PROFILE

    def test_resolve_by_name_and_identity(self):
        assert resolve_profile("full") is FULL_PROFILE
        custom = Profile(name="tiny", trace_count=1, crop=16)
        assert resolve_profile(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown profile"):
            resolve_profile("nope")

    def test_registry_names_match(self):
        assert all(PROFILES[name].name == name for name in PROFILES)

    def test_pick_helpers(self):
        p = Profile(name="t", crop=32, models=("DnCNN",))
        assert p.pick_models(("a", "b")) == ("DnCNN",)
        assert p.pick_crop(128) == 32
        q = Profile(name="u")
        assert q.pick_models(("a", "b")) == ("a", "b")
        assert q.pick_crop(128) == 128

    def test_run_kwargs(self):
        p = Profile(name="t", trace_count=3, crop=32, seed=7, models=("IRCNN", "VDSR"))
        assert p.sweep_kwargs(("a",)) == dict(
            models=("IRCNN", "VDSR"), trace_count=3, crop=32, seed=7
        )
        assert p.one_model_kwargs(64) == dict(model="IRCNN", crop=32, seed=7)
        q = Profile(name="u", seed=5)
        assert q.sweep_kwargs(("a",)) == dict(
            models=("a",), trace_count=q.trace_count, crop=None, seed=5
        )
        assert q.one_model_kwargs(64) == dict(model="DnCNN", crop=64, seed=5)


#: ``run()`` knobs whose values only a :class:`Profile` may supply.
SCALE_KNOBS = ("models", "model", "trace_count", "crop", "seed")


class TestRegistry:
    def test_every_module_has_one_entry_point_and_no_scale_defaults(self):
        """``compute`` is the only way in: no module keeps a ``main`` or a
        report formatter of its own (``run_all`` renders every result), and
        no ``run*`` function defaults a scale knob (a default could drift
        from the profile the goldens pin)."""
        for exp_id, spec in EXPERIMENT_SPECS.items():
            module = spec.load()
            assert callable(module.compute), exp_id
            assert not hasattr(module, "format_result"), exp_id
            assert not hasattr(module, "main"), exp_id
            runs = [
                fn
                for name, fn in inspect.getmembers(module, inspect.isfunction)
                if name.startswith("run") and fn.__module__ == module.__name__
            ]
            assert runs, exp_id
            for fn in runs:
                params = inspect.signature(fn).parameters
                defaulted = [
                    knob
                    for knob in SCALE_KNOBS
                    if knob in params and params[knob].default is not inspect.Parameter.empty
                ]
                assert not defaulted, f"{exp_id}.{fn.__name__} defaults {defaulted}"

    def test_select_specs_substring_filter(self):
        assert list(select_specs(["table"])) == [
            "table1", "table3", "table4", "table5", "table6", "table7",
        ]
        assert list(select_specs(["FIG1"])) == [
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19",
        ]
        assert select_specs(["zzz"]) == {}

    def test_no_filter_selects_all_in_order(self):
        assert list(select_specs(None)) == list(EXPERIMENT_SPECS)

    def test_run_all_registry_derives_from_specs(self):
        from repro.experiments import run_all

        assert list(run_all.EXPERIMENTS) == list(EXPERIMENT_SPECS)


class TestCliExitCodes:
    def test_missing_goldens_exit_2(self, tmp_path):
        code = run_cli("check", *STATIC_IDS, "--goldens-dir", str(tmp_path))
        assert code == EXIT_MISSING

    def test_update_then_check_exit_0(self, tmp_path):
        assert run_cli("update", *STATIC_IDS, "--goldens-dir", str(tmp_path)) == EXIT_OK
        assert run_cli("check", *STATIC_IDS, "--goldens-dir", str(tmp_path)) == EXIT_OK

    def test_perturbed_golden_exit_1_with_report(self, tmp_path, capsys):
        run_cli("update", "table7", "--goldens-dir", str(tmp_path))
        path = tmp_path / "ci" / "table7.json"
        doc = json.loads(path.read_text())

        def perturb(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    if isinstance(value, float) and value:
                        obj[key] = value * 2
                        return f"{key}"
                    found = perturb(value)
                    if found:
                        return found
            if isinstance(obj, list):
                for item in obj:
                    found = perturb(item)
                    if found:
                        return found
            return None

        field = perturb(doc["result"])
        assert field is not None
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("check", "table7", "--goldens-dir", str(tmp_path))
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert field in out and "deviation" in out
        assert "repro.regression update table7" in out

    def test_mismatch_beats_missing(self, tmp_path):
        run_cli("update", "table7", "--goldens-dir", str(tmp_path))
        path = tmp_path / "ci" / "table7.json"
        doc = json.loads(path.read_text())
        doc["result"]["--sabotage--"] = 1
        path.write_text(json.dumps(doc))
        code = run_cli("check", *STATIC_IDS, "--goldens-dir", str(tmp_path))
        assert code == EXIT_MISMATCH

    def test_unknown_filter_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("check", "zzz", "--goldens-dir", str(tmp_path))
        assert err.value.code == EXIT_MISSING

    def test_wide_tolerance_accepts_perturbation(self, tmp_path):
        run_cli("update", "table7", "--goldens-dir", str(tmp_path))
        path = tmp_path / "ci" / "table7.json"
        text = path.read_text()
        doc = json.loads(text)

        def scale(obj):
            if isinstance(obj, dict):
                return {k: scale(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [scale(v) for v in obj]
            if isinstance(obj, float):
                return obj * 1.0001
            return obj

        doc["result"] = scale(doc["result"])
        path.write_text(json.dumps(doc))
        assert (
            run_cli("check", "table7", "--goldens-dir", str(tmp_path))
            == EXIT_MISMATCH
        )
        assert (
            run_cli(
                "check", "table7", "--goldens-dir", str(tmp_path),
                "--default-rtol", "1e-2",
            )
            == EXIT_OK
        )

    def test_per_field_tol_rule(self, tmp_path, capsys):
        run_cli("update", "table7", "--goldens-dir", str(tmp_path))
        capsys.readouterr()
        assert (
            run_cli(
                "check", "table7", "--goldens-dir", str(tmp_path),
                "--tol", "result/*=1e-1",
            )
            == EXIT_OK
        )

    def test_list_reports_status(self, tmp_path, capsys):
        run_cli("update", "table4", "--goldens-dir", str(tmp_path))
        capsys.readouterr()
        assert run_cli("list", *STATIC_IDS, "--goldens-dir", str(tmp_path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "table4" in out and "golden" in out
        assert "table7" in out and "MISSING" in out


class TestTraceBackedCompute:
    """One real compute() through a tiny profile to cover the plumbing."""

    def test_tiny_profile_round_trip(self, tmp_path, monkeypatch):
        from repro.experiments import fig04_potential
        from repro.regression.serialize import canonical_dumps

        tiny = Profile(
            name="tiny", trace_count=1, crop=32, models=("DnCNN",)
        )
        result = fig04_potential.compute(tiny)
        text = canonical_dumps(
            {"experiment": "fig04", "profile": tiny.describe(), "result": result}
        )
        assert canonical_dumps(
            {"experiment": "fig04", "profile": tiny.describe(), "result": result}
        ) == text
        doc = json.loads(text)
        assert doc["profile"]["crop"] == 32
        assert doc["profile"]["models"] == ["DnCNN"]
