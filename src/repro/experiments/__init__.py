"""One module per paper table/figure, plus design ablations.

Every module exposes:

- ``run(...)``  — compute the experiment's data (structured, test-friendly),
- ``format_table(result)`` — render it the way the paper reports it,
- ``main()``    — run with defaults and print.

The per-experiment index lives in DESIGN.md §4; paper-vs-measured numbers
are recorded in EXPERIMENTS.md.  All experiments run on seeded synthetic
traces (see DESIGN.md §2 for the substitutions) and scale analytically to
the paper's resolutions.
"""

from repro.experiments import common

__all__ = ["common"]
