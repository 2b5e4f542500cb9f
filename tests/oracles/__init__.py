"""Executable specifications the production fast paths are tested against.

Production keeps one implementation of each bitstream codec, cycle
kernel, ECC, group width rule, convolution and serving engine:
the whole-array numpy versions in :mod:`repro.compression`,
:mod:`repro.weights.msr`, :mod:`repro.arch.cycles`,
:mod:`repro.protect.ecc`, :mod:`repro.core.precision` and
:mod:`repro.nn.functional`, and the shard engine in
:mod:`repro.serve.fleet.shard`.  This package holds the value-at-a-time,
loop, bit-matrix, per-value, window-major and per-event versions they
replaced — legible, obviously correct, slow — as plain functions that
take the codec's or kernel's parameters, plus the virtual-clock
``InferenceService`` with its per-event ``PerEventTelemetry``, the
two-convolution calibration, the two-aggregate Diffy head splice, the
out-of-place image synthesizer (:mod:`tests.oracles.synthesis`), the
digit-level Booth recoder behind ``term_count_lut``
(:mod:`tests.oracles.booth`), the padded-imap term-map lowering
(:mod:`tests.oracles.lowering`), and the only implementation of the RLEz
token format, whose size ``RLEZero.encoded_bits`` prices.
The property suites assert production is byte-identical to them, and
``tests/test_paper_claims.py`` does so for the MSR codec on each model's
largest layer; ``benchmarks/codec_bench.py`` times production against
them.

Nothing under ``src/repro`` imports this package
(``tests/test_oracle_isolation.py`` enforces it).
"""

from tests.oracles.bitio import (
    BitReader,
    BitWriter,
    crc8_bits,
    crc8_bits_bitwise,
    crc8_table,
)
from tests.oracles.booth import r4_booth_digits
from tests.oracles.codecs import (
    group_decode_flagged,
    group_encode,
    rlez_decode,
    rlez_encode,
)
from tests.oracles.conv import calibrate_two_pass, conv2d_float, conv2d_int, im2col
from tests.oracles.cycles import (
    lane_term_totals_loops,
    serial_layer_cycles_two_aggregates,
    step_term_maxima_loops,
)
from tests.oracles.msr import msr_choose_run, msr_decode_flagged, msr_encode
from tests.oracles.precision import group_widths, required_bits
from tests.oracles.secded import (
    bits_to_words,
    secded_decode,
    secded_encode,
    words_to_bits,
)
from tests.oracles.serve import (
    BatchPolicy,
    BoundedQueue,
    InferenceService,
    PerEventTelemetry,
    QueuedRequest,
    VirtualClock,
    batch_ready,
    next_deadline_check,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "crc8_bits",
    "crc8_bits_bitwise",
    "crc8_table",
    "r4_booth_digits",
    "group_encode",
    "group_decode_flagged",
    "rlez_encode",
    "rlez_decode",
    "im2col",
    "conv2d_float",
    "conv2d_int",
    "calibrate_two_pass",
    "msr_choose_run",
    "msr_encode",
    "msr_decode_flagged",
    "required_bits",
    "group_widths",
    "step_term_maxima_loops",
    "lane_term_totals_loops",
    "serial_layer_cycles_two_aggregates",
    "secded_encode",
    "secded_decode",
    "words_to_bits",
    "bits_to_words",
    "VirtualClock",
    "BatchPolicy",
    "QueuedRequest",
    "BoundedQueue",
    "batch_ready",
    "next_deadline_check",
    "InferenceService",
    "PerEventTelemetry",
]
