"""Table I: structure of the studied CI-DNNs.

Regenerated from the model zoo: conv/ReLU layer counts and filter storage,
to be checked against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import CI_MODEL_NAMES
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import build_model


@dataclass(frozen=True)
class Table1Row:
    network: str
    conv_layers: int
    relu_layers: int
    max_filter_kb: float
    max_layer_filter_kb: float
    total_weights_kb: float


def run(*, models: tuple[str, ...], seed: int) -> list[Table1Row]:
    rows = []
    for name in models:
        net = build_model(name, seed)
        rows.append(
            Table1Row(
                network=name,
                conv_layers=net.num_conv_layers,
                relu_layers=net.num_relu_layers,
                max_filter_kb=net.max_filter_bytes() / 1024,
                max_layer_filter_kb=net.max_layer_filter_bytes() / 1024,
                total_weights_kb=net.total_weight_bytes() / 1024,
            )
        )
    return rows


def compute(profile: Profile | None = None) -> list[Table1Row]:
    """Profile-scaled entry point for the golden-regression harness."""
    p = resolve_profile(profile)
    return run(models=p.pick_models(CI_MODEL_NAMES), seed=p.seed)
