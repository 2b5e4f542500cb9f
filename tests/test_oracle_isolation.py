"""Production never loads the test oracles, and every export resolves.

``tests/oracles`` holds the slow executable specs the property suites
compare production against; if any ``repro`` module imported them, the
spec would stop being independent of what it checks.  The same import
sweep checks that each module's ``__all__`` names only attributes the
module defines, so a deletion cannot leave a dangling re-export behind.

It also checks that importing ``repro`` does not load scipy.  Only image
synthesis (the Gaussian blur) and VDSR's bicubic upscale call it, so a
process that reads its models and traces from the cache must never pay
for it; a two-process pair on a private cache checks that end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_PROBE = """
import importlib, json, pkgutil, sys
import repro
names = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith(".__main__")
)
dangling = []
for name in names:
    module = importlib.import_module(name)
    dangling += [
        f"{name}.{export}"
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
leaked = sorted(m for m in sys.modules if m == "tests" or m.startswith("tests."))
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"modules": len(names), "leaked": leaked, "dangling": dangling, "scipy": scipy}))
"""

# Prepares IRCNN and traces one small crop, then reports which scipy
# modules the process loaded.  Cold, this synthesizes the calibration and
# trace images; on a filled cache both calls are hits.
_PIPELINE = """
import json, sys
from repro import collect_traces, prepare_model
prepare_model("IRCNN", 1)
collect_traces("IRCNN", "Kodak24", count=1, crop=16, seed=1)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    # A fresh interpreter: this session has already imported
    # tests.oracles, so an in-process check proves nothing.  The repo root
    # is importable, so a stray import would load rather than fail.
    path = os.pathsep.join([str(REPO / "src"), str(REPO)])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_no_repro_module_loads_the_oracles(probe):
    assert probe["modules"] > 50
    assert probe["leaked"] == []


def test_every_exported_name_resolves(probe):
    assert probe["dangling"] == []


def test_importing_repro_does_not_load_scipy(probe):
    assert probe["scipy"] == []


def test_a_cache_hit_process_does_not_load_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_CACHE"}
    env.update(PYTHONPATH=str(REPO / "src"), REPRO_CACHE_DIR=str(tmp_path))

    def loaded_scipy() -> list:
        proc = subprocess.run(
            [sys.executable, "-c", _PIPELINE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout)

    # The cold run synthesizes images, so the check can see a load.
    assert "scipy" in loaded_scipy()
    assert loaded_scipy() == []
