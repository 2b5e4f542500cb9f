"""Weight-side compression: MSR compaction, INT8 calibration, schemes.

Every activation ladder in the repo (Fig 5 footprints, Fig 14 traffic,
the serve/fleet stacks) prices weights as dense 16-bit filters.  This
package adds the weight axis:

- :mod:`repro.weights.quant` — MSR-aware symmetric INT8 weight
  quantization (quantile-calibrated power-of-two scales, lossless).
- :mod:`repro.weights.msr` — the MSR (Most-Significant-Run) compaction
  codec: per-column run-width headers, a compensation list for
  out-of-band weights.
- :mod:`repro.weights.schemes` — weight storage schemes (``Raw16W``,
  ``Raw8W``, ``MSR4W``) and network-level pricing helpers, composable
  with the activation schemes in the Fig 5/Fig 14 ladders.
"""

from repro.weights.msr import MSRCodec
from repro.weights.quant import (
    network_int8_weights,
    quantize_weights_int8,
    weight_scale_int8,
)
from repro.weights.schemes import (
    WEIGHT_SCHEMES,
    WeightScheme,
    network_weight_bits,
    weight_scheme,
)

__all__ = [
    "MSRCodec",
    "WEIGHT_SCHEMES",
    "WeightScheme",
    "network_int8_weights",
    "network_weight_bits",
    "quantize_weights_int8",
    "weight_scale_int8",
    "weight_scheme",
]
