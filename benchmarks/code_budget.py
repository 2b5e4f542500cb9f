"""Count the settable values and the uncalled def lines of ``src/repro``.

Two numbers track how much code the reproduction carries beyond what its
goldens use:

* **settable values**: every keyword default (``def f(x=1)``, including
  keyword-only defaults) plus every dataclass field with a default that
  ``__init__`` takes (``field(init=False, ...)`` accumulators are state,
  not knobs), counted by an AST walk over ``src/repro``;
* **uncalled def lines**: a ``sys.setprofile`` hook records every code
  object entered while ``python -m repro.regression check`` runs at
  ``--profile ci`` and then ``--profile full``, from an empty private
  ``REPRO_CACHE_DIR``.  The lines of every outermost ``def`` (decorators
  excluded) that never ran are summed; a called function's uncalled
  nested functions count on their own.

The regression checks run in a child process, cold, so expect the second
count to take as long as one cold ``ci`` plus ``full`` check (minutes).
A check that fails does not stop the count: only which functions ran
matters here.

Usage::

    python benchmarks/code_budget.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Child process: install the hook, run both regression checks, print the
#: ``[file, first line]`` of every code object under ``src/repro`` it saw.
#: The hook keeps those pairs, not the code objects: two functions with
#: the same body and first line in different files compare equal as code
#: objects, so a set of them would drop one.
_TRACE = """\
import json, sys
from pathlib import Path
root = str(Path(sys.argv[1]).resolve())
seen = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno))
sys.setprofile(hook)
from repro.regression.cli import main
for profile in ("ci", "full"):
    main(["check", "--profile", profile])
sys.setprofile(None)
print("CALLED " + json.dumps(sorted(c for c in seen if c[0].startswith(root))))
"""


def _sources() -> "list[Path]":
    return sorted(SRC_ROOT.rglob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_knob(stmt: ast.stmt) -> bool:
    """A dataclass field with a default that ``__init__`` takes."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    return True


def settable_values(paths: "list[Path] | None" = None) -> int:
    """Keyword defaults plus dataclass fields with an ``__init__`` default."""
    count = 0
    for path in paths if paths is not None else _sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(_is_knob(stmt) for stmt in node.body)
    return count


def _called_code() -> "set[tuple[str, int]]":
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="code-budget-") as tmp:
        env["REPRO_CACHE_DIR"] = tmp
        proc = subprocess.run(
            [sys.executable, "-c", _TRACE, str(SRC_ROOT)],
            env=env,
            cwd=tmp,
            stdout=subprocess.PIPE,
            text=True,
        )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("CALLED ")]
    if not lines:
        raise SystemExit(f"regression checks died (exit {proc.returncode})")
    return {(path, line) for path, line in json.loads(lines[-1][len("CALLED "):])}


def _uncalled_lines(node: ast.AST, path: str, called: "set[tuple[str, int]]") -> int:
    total = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if (path, first) not in called:
                total += child.end_lineno - child.lineno + 1
                continue
        total += _uncalled_lines(child, path, called)
    return total


def uncalled_def_lines() -> int:
    """Lines of outermost ``def`` spans no ci/full regression check enters."""
    called = _called_code()
    return sum(
        _uncalled_lines(ast.parse(path.read_text(), str(path)), str(path.resolve()), called)
        for path in _sources()
    )


def main(argv: "list[str] | None" = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(f"settable values: {settable_values()}", flush=True)
    print(f"uncalled def lines: {uncalled_def_lines()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
