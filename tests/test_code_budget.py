"""A ceiling on the settable values of ``src/repro``.

Every keyword default and every defaulted dataclass field is a knob that
must earn its place.  This pins their count, by the same AST rule
``benchmarks/code_budget.py`` prints, at what the code carries now: a
change that adds an option has to raise the ceiling in its own diff.
"""

import ast
import importlib.util
import sys
from pathlib import Path

#: Settable values in ``src/repro`` (``python benchmarks/code_budget.py``).
SETTABLE_VALUES_CEILING = 431

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "code_budget.py"


def _code_budget():
    spec = importlib.util.spec_from_file_location("code_budget", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_values_stay_under_the_ceiling():
    count = _code_budget().settable_values()
    assert count <= SETTABLE_VALUES_CEILING, (
        f"src/repro has {count} settable values, over the ceiling of "
        f"{SETTABLE_VALUES_CEILING}: fold a knob no caller sets, or raise the ceiling"
    )


def test_rule_counts_defaults_and_defaulted_fields(tmp_path):
    # ``init=False`` fields are accumulator state no caller can pass, so
    # only ``y`` and ``w`` of the dataclass count.
    source = tmp_path / "sample.py"
    source.write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 3\n"
        "    w: list = field(default_factory=list)\n"
        "    n: int = field(default=0, init=False)\n"
        "    h: list = field(init=False)\n"
        "    e: list = field(default_factory=list, init=False)\n"
        "class Plain:\n"
        "    z: int = 4\n"
    )
    assert _code_budget().settable_values([source]) == 4


_DEF_SPANS = (
    "import functools\n"  # 1
    "def used():\n"  # 2
    "    def inner():\n"  # 3
    "        pass\n"  # 4
    "    return 1\n"  # 5
    "def unused():\n"  # 6
    "    return 2\n"  # 7
    "@functools.lru_cache(maxsize=None)\n"  # 8
    "def decorated():\n"  # 9
    "    return 3\n"  # 10
    "class K:\n"  # 11
    "    def method(self):\n"  # 12
    "        pass\n"  # 13
)


def test_uncalled_lines_sum_outermost_uncalled_spans(tmp_path):
    # ``inner`` counts on its own although ``used`` ran; ``decorated`` is
    # keyed by its decorator's line and counts nothing; ``unused`` and
    # ``method`` count their whole def spans.
    path = str(tmp_path / "spans.py")
    tree = ast.parse(_DEF_SPANS)
    called = {(path, 2), (path, 8)}
    assert _code_budget()._uncalled_lines(tree, path, called) == 2 + 2 + 2


def test_profile_hook_keys_match_the_ast_keys(tmp_path):
    # Run the sample under the same hook the script installs: every
    # function it enters must be recognised as called by the AST walk.
    path = tmp_path / "spans.py"
    path.write_text(_DEF_SPANS)
    namespace = {}
    exec(compile(_DEF_SPANS, str(path), "exec"), namespace)
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == str(path):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        namespace["used"]()
        namespace["decorated"]()
        namespace["K"]().method()
    finally:
        sys.setprofile(None)
    tree = ast.parse(_DEF_SPANS)
    assert _code_budget()._uncalled_lines(tree, str(path), seen) == 2 + 2
