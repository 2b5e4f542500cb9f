"""Golden file storage: ``goldens/<profile>/<experiment>.json``.

The goldens directory lives at the repository root and is committed; its
location can be overridden with ``REPRO_GOLDENS_DIR`` (used by tests and
by CI jobs that stage candidate goldens).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Environment override for the goldens directory.
GOLDENS_DIR_ENV = "REPRO_GOLDENS_DIR"


def goldens_root(explicit: "str | os.PathLike | None" = None) -> Path:
    """Resolve the goldens directory.

    Priority: explicit argument, ``$REPRO_GOLDENS_DIR``, the repository
    root next to ``src/`` (editable/source checkouts), finally
    ``./goldens`` under the current working directory.
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(GOLDENS_DIR_ENV)
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "goldens"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "goldens"


def golden_path(
    experiment: str,
    profile_name: str,
    root: "str | os.PathLike | None" = None,
) -> Path:
    """Where the golden for one experiment/profile pair lives."""
    return goldens_root(root) / profile_name / f"{experiment}.json"


def read_golden(
    experiment: str,
    profile_name: str,
    root: "str | os.PathLike | None" = None,
) -> "dict | None":
    """Parsed golden document, or ``None`` when no golden is committed."""
    path = golden_path(experiment, profile_name, root)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(
    experiment: str,
    profile_name: str,
    canonical_text: str,
    root: "str | os.PathLike | None" = None,
) -> Path:
    """Write pre-canonicalized JSON text for one experiment; returns path."""
    path = golden_path(experiment, profile_name, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_text, encoding="utf-8")
    return path
