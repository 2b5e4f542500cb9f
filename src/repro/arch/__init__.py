"""Accelerator models: VAA, PRA, Diffy, and SCNN.

All four are cycle-approximate analytical simulators driven by *measured*
activation traces: per-window Booth term counts for the term-serial designs
(PRA, Diffy), dense work for VAA, and effectual-product counts for SCNN.
A shared off-chip memory model (technologies from LPDDR3-1600 to HBM) and
compression-aware traffic accounting turn compute cycles into end-to-end
layer times, FPS, utilization breakdowns and energy.

Entry point: :func:`repro.arch.sim.simulate_network`.
"""

from repro.arch.config import (
    AcceleratorConfig,
    VAA_CONFIG,
    PRA_CONFIG,
    DIFFY_CONFIG,
    TABLE4_CONFIGS,
)
from repro.arch.memory import MemorySystem, MEMORY_TECHNOLOGIES, memory_system
from repro.arch.cycles import LayerCycles, SyncModel
from repro.arch.vaa import VAAModel
from repro.arch.pra import PRAModel
from repro.arch.diffy import DiffyModel
from repro.arch.scnn import SCNNModel
from repro.arch.energy import EnergyModel, POWER_TABLE, AREA_TABLE
from repro.arch.metrics import ScalingChoice, minimum_tiles_for_fps
from repro.arch.sim import LayerResult, NetworkResult, simulate_network, model_for

__all__ = [
    "AcceleratorConfig",
    "VAA_CONFIG",
    "PRA_CONFIG",
    "DIFFY_CONFIG",
    "TABLE4_CONFIGS",
    "MemorySystem",
    "MEMORY_TECHNOLOGIES",
    "memory_system",
    "LayerCycles",
    "SyncModel",
    "VAAModel",
    "PRAModel",
    "DiffyModel",
    "SCNNModel",
    "EnergyModel",
    "POWER_TABLE",
    "AREA_TABLE",
    "ScalingChoice",
    "minimum_tiles_for_fps",
    "LayerResult",
    "NetworkResult",
    "simulate_network",
    "model_for",
]
