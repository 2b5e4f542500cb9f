"""Accelerator configurations (Table IV).

All three designs are normalized to the same peak compute: the equivalent
of 1K 16x16-bit multiply-accumulate operations per cycle at 1 GHz —
4 tiles x 16 filters/tile x 16 terms/filter:

- **VAA** processes, per tile per cycle, one activation brick (16 values)
  against 16 filters (256 MACs).
- **PRA / Diffy** process, per tile, a pallet of 16 windows term-serially:
  16 windows x 16 activation lanes x 16 filters, one effectual term per
  lane per cycle.

``terms_per_filter`` is the T_x knob of Fig 16: how many activation lanes
feed each filter concurrently (T_16 default; T_1 removes cross-lane
synchronization at equal peak-normalized throughput).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.validation import check_in, check_positive


@dataclass(frozen=True)
class AcceleratorConfig:
    """Structural parameters shared by the cycle models.

    Attributes
    ----------
    name:
        Configuration label.
    tiles:
        Number of compute tiles.
    filters_per_tile:
        Filters (IP/SIP rows) processed concurrently per tile.
    terms_per_filter:
        Activation lanes per filter (brick size processed concurrently;
        the T_x of Fig 16).
    windows_per_tile:
        Window columns processed concurrently (PRA/Diffy pallet width;
        1 for VAA which processes a single window at a time).
    frequency_ghz:
        Clock frequency (1 GHz in the paper, set by SRAM timing).
    sync:
        Cross-lane synchronization granularity for term-serial designs:
        ``"row"`` (per-lane offset queues draining at window-row
        boundaries — the default, calibrated to the paper's speedups),
        ``"lane"`` (queues drain at pallet boundaries), ``"column"``
        (per-window-column brick-step sync) or ``"pallet"`` (all columns
        advance per step together; the most pessimistic ablation).
    partition:
        How work maps to tiles: ``"filters"`` (all tiles process the same
        windows with different filters — the paper's dataflow) or
        ``"hybrid"`` (tiles beyond those needed for the filter count split
        output rows — used by the Fig 18 scaling study).
    """

    name: str
    tiles: int = 4
    filters_per_tile: int = 16
    terms_per_filter: int = 16
    windows_per_tile: int = 16
    frequency_ghz: float = 1.0
    sync: str = "row"
    partition: str = "filters"

    def __post_init__(self) -> None:
        check_positive("tiles", self.tiles)
        check_positive("filters_per_tile", self.filters_per_tile)
        check_positive("terms_per_filter", self.terms_per_filter)
        check_positive("windows_per_tile", self.windows_per_tile)
        check_positive("frequency_ghz", self.frequency_ghz)
        check_in("sync", self.sync, ("lane", "row", "column", "pallet"))
        check_in("partition", self.partition, ("filters", "hybrid"))

    #: Derived metrics the golden serializer records alongside the fields.
    __golden_properties__ = ("peak_macs_per_cycle",)

    @property
    def peak_macs_per_cycle(self) -> int:
        """Peak 16x16b MAC-equivalents per cycle across all tiles."""
        return self.tiles * self.filters_per_tile * self.terms_per_filter

    def with_tiles(self, tiles: int) -> "AcceleratorConfig":
        """This configuration scaled to a different tile count."""
        return replace(self, tiles=tiles, name=f"{self.name}x{tiles}")

    def with_terms(self, terms_per_filter: int) -> "AcceleratorConfig":
        """The T_x variant of this configuration (Fig 16)."""
        return replace(
            self,
            terms_per_filter=terms_per_filter,
            name=f"{self.name}-T{terms_per_filter}",
        )


#: Table IV defaults: equal 1K-MAC/cycle peak for all three designs.
VAA_CONFIG = AcceleratorConfig(name="VAA", windows_per_tile=1)
PRA_CONFIG = AcceleratorConfig(name="PRA")
DIFFY_CONFIG = AcceleratorConfig(name="Diffy")

TABLE4_CONFIGS: dict[str, AcceleratorConfig] = {
    "VAA": VAA_CONFIG,
    "PRA": PRA_CONFIG,
    "Diffy": DIFFY_CONFIG,
}
