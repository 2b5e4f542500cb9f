"""Production never loads the test oracles.

``tests/oracles`` holds the slow executable specs the property suites
compare production against; if any ``repro`` module imported them, the
spec would stop being independent of what it checks.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_PROBE = """
import importlib, pkgutil, sys
import repro
names = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith(".__main__")
)
for name in names:
    importlib.import_module(name)
leaked = sorted(m for m in sys.modules if m == "tests" or m.startswith("tests."))
print(len(names), " ".join(leaked))
"""


def test_no_repro_module_loads_the_oracles():
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
    count, _, leaked = proc.stdout.strip().partition(" ")
    assert int(count) > 50
    assert leaked == ""
