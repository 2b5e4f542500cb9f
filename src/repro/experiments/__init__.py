"""One module per paper table/figure, plus design ablations.

Every module exposes:

- ``run(...)`` — compute the experiment's data (structured, test-friendly);
  the scale knobs (models, trace count, crop, seed) have no defaults,
- ``compute(profile)`` — ``run`` at a :class:`~repro.experiments.profiles.Profile`'s
  scale; the regression harness pins its result in a golden,
- ``format_result(result)`` — render it the way the paper reports it.

``python -m repro.experiments.run_all [ids...]`` prints
``format_result(compute(FULL_PROFILE))`` for each experiment; no module
runs as a script of its own.

The per-experiment index lives in DESIGN.md §4; paper-vs-measured numbers
are recorded in EXPERIMENTS.md.  All experiments run on seeded synthetic
traces (see DESIGN.md §2 for the substitutions) and scale analytically to
the paper's resolutions.
"""

from repro.experiments import common

__all__ = ["common"]
