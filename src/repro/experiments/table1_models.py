"""Table I: structure of the studied CI-DNNs.

Regenerated from the model zoo: conv/ReLU layer counts and filter storage,
to be checked against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import CI_MODEL_NAMES, format_table
from repro.experiments.profiles import Profile, resolve_profile
from repro.models.registry import build_model

#: Paper values for the comparison column (conv layers, relu layers,
#: max total filter size per layer in KB).
PAPER_TABLE1 = {
    "DnCNN": (20, 19, 72),
    "FFDNet": (10, 9, 162),
    "IRCNN": (7, 6, 72),
    "JointNet": (19, 16, 144),
    "VDSR": (20, 19, 72),
}


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


def format_result(rows: list[Table1Row]) -> str:
    table_rows = []
    for r in rows:
        paper = PAPER_TABLE1.get(r.network)
        table_rows.append(
            (
                r.network,
                r.conv_layers,
                r.relu_layers,
                f"{r.max_filter_kb:.2f}",
                f"{r.max_layer_filter_kb:.0f}",
                f"{paper[2]}" if paper else "-",
                f"{r.total_weights_kb:.0f}",
            )
        )
    return format_table(
        [
            "network",
            "conv layers",
            "ReLU layers",
            "max filter KB",
            "max layer KB",
            "paper layer KB",
            "total weights KB",
        ],
        table_rows,
        title="Table I: CI-DNNs studied",
    )
