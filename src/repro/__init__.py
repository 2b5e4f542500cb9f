"""repro — a complete reproduction of Diffy (MICRO 2018).

Diffy is a deep-neural-network accelerator that processes *differential
convolutions*: activations enter the datapath as spatial deltas, whose
smaller magnitudes mean fewer effectual terms to compute, fewer bits to
store, and fewer bytes to move (Mahmoud, Siu, Moshovos — "Diffy: a Deja
vu-Free Differential Deep Neural Network Accelerator", MICRO 2018).

Package tour (see DESIGN.md for the full inventory):

- :mod:`repro.core` — differential convolution, Booth-term counting,
  delta transforms, precision detection (the paper's contribution),
- :mod:`repro.nn` — the 16-bit fixed-point CNN inference substrate,
- :mod:`repro.models` / :mod:`repro.data` — the model zoo and synthetic
  datasets,
- :mod:`repro.compression` — activation storage schemes and traffic,
- :mod:`repro.arch` — VAA/PRA/Diffy/SCNN simulators, memory and energy,
- :mod:`repro.analysis` — the value-stream studies of Figs 1-4,
- :mod:`repro.experiments` — one module per paper table/figure, run by ``run_all``.

Quick start::

    from repro import simulate_network
    result = simulate_network("DnCNN", "Diffy", scheme="DeltaD16")
    print(result.fps)
"""

from repro.arch.sim import simulate_network, collect_traces
from repro.core.differential import differential_conv2d
from repro.data.datasets import dataset, list_datasets
from repro.models.registry import build_model, list_models, prepare_model
from repro.utils.rng import DEFAULT_SEED

__version__ = "1.0.0"

__all__ = [
    "simulate_network",
    "collect_traces",
    "differential_conv2d",
    "dataset",
    "list_datasets",
    "build_model",
    "list_models",
    "prepare_model",
    "DEFAULT_SEED",
    "__version__",
]
