"""One module per paper table/figure, plus design ablations.

Every module exposes:

- ``run(...)`` — compute the experiment's data (structured, test-friendly);
  the scale knobs (models, trace count, crop, seed) have no defaults,
- ``compute(profile)`` — ``run`` at a :class:`~repro.experiments.profiles.Profile`'s
  scale; the regression harness pins its result in a golden.  Derived
  numbers a reader wants (geomeans, ratios, averages) are properties the
  result class lists in ``__golden_properties__``, so the golden holds
  them too.

``python -m repro.experiments.run_all [ids...]`` renders
``compute(FULL_PROFILE)``, the ``goldens/full`` document, with one
generic renderer; no module formats its own report or runs as a script.

The per-experiment index lives in DESIGN.md §4; paper-vs-measured numbers
are recorded in EXPERIMENTS.md.  All experiments run on seeded synthetic
traces (see DESIGN.md §2 for the substitutions) and scale analytically to
the paper's resolutions.
"""

from repro.experiments import common

__all__ = ["common"]
