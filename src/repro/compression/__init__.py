"""Activation storage/compression schemes and footprint/traffic accounting.

Implements the paper's full scheme family bit-exactly (including metadata):
NoCompression, RLEz, RLE, Profiled, RawD{8,16,256} and DeltaD{16,256}
(Figs 5 and 14, Table V).
"""

from repro.compression.schemes import (
    CompressionScheme,
    NoCompression,
    RLEZero,
    RLERepeat,
    Profiled,
    RawDynamic,
    DeltaDynamic,
    SCHEMES,
    scheme,
)
from repro.compression.footprint import (
    LayerFootprint,
    network_footprint,
    normalized_footprints,
    am_requirement_bytes,
)
from repro.compression.codec import (
    Encoded,
    GroupCodec,
)
from repro.compression.traffic import (
    LayerTraffic,
    network_traffic,
    normalized_traffic,
)

__all__ = [
    "CompressionScheme",
    "NoCompression",
    "RLEZero",
    "RLERepeat",
    "Profiled",
    "RawDynamic",
    "DeltaDynamic",
    "SCHEMES",
    "scheme",
    "LayerFootprint",
    "network_footprint",
    "normalized_footprints",
    "am_requirement_bytes",
    "Encoded",
    "GroupCodec",
    "LayerTraffic",
    "network_traffic",
    "normalized_traffic",
]
