"""Production never loads the test oracles, and every export resolves.

``tests/oracles`` holds the slow executable specs the property suites
compare production against; if any ``repro`` module imported them, the
spec would stop being independent of what it checks.  The same import
sweep checks that each module's ``__all__`` names only attributes the
module defines, so a deletion cannot leave a dangling re-export behind.
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
print(json.dumps({"modules": len(names), "leaked": leaked, "dangling": dangling}))
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
