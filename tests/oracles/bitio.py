"""Value-at-a-time bit I/O and the bitwise CRC-8: the spec primitives.

``BitWriter``/``BitReader`` pack and read one field at a time, MSB
first, exactly as the wire formats are defined; the production codecs
in :mod:`repro.compression.bitplane` move whole bit planes instead and
are tested byte-identical against streams built from these.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.compression.bitplane import CRC8_POLY, _crc8_shift


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits of the unsigned ``value`` (MSB first)."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit {width} unsigned bits")
        for i in reversed(range(width)):
            self._bits.append((value >> i) & 1)

    def bit_slice(self, start: int, end: int) -> "list[int]":
        """The written 0/1 bits in ``[start, end)`` (for checksumming)."""
        return self._bits[start:end]

    def __len__(self) -> int:
        return len(self._bits)

    def getvalue(self) -> bytes:
        """The buffer padded to a whole number of bytes."""
        bits = self._bits + [0] * ((-len(self._bits)) % 8)
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for b in bits[i : i + 8]:
                byte = (byte << 1) | b
            out.append(byte)
        return bytes(out)


class BitReader:
    """MSB-first bit reader over bytes."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        end = self._pos + width
        if end > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        value = 0
        for i in range(self._pos, end):
            byte = self._data[i // 8]
            bit = (byte >> (7 - (i % 8))) & 1
            value = (value << 1) | bit
        self._pos = end
        return value

    @property
    def bits_read(self) -> int:
        return self._pos

    def bit_slice(self, start: int, end: int) -> "list[int]":
        """The 0/1 bits in ``[start, end)`` without moving the cursor."""
        if start < 0 or end > len(self._data) * 8 or start > end:
            raise ValueError(f"bit range [{start}, {end}) out of bounds")
        return [
            (self._data[i // 8] >> (7 - (i % 8))) & 1 for i in range(start, end)
        ]


def to_twos_complement(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def from_twos_complement(raw: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return raw - (1 << width) if raw & sign_bit else raw


@lru_cache(maxsize=None)
def crc8_table() -> "tuple[int, ...]":
    """The 256-entry byte-wise CRC-8 LUT: ``crc' = table[crc ^ byte]``."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = _crc8_shift(crc)
        table.append(crc)
    return tuple(table)


def crc8_bits_bitwise(bits: "list[int]") -> int:
    """Bit-at-a-time CRC-8: the defining implementation the table-driven
    :func:`crc8_bits` is verified bit-exact against."""
    crc = 0
    for b in bits:
        crc ^= (b & 1) << 7
        crc = ((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def crc8_bits(bits: "list[int] | np.ndarray") -> int:
    """CRC-8 (poly 0x07, init 0) over a 0/1 bit sequence, MSB first.

    Table-driven: whole bytes go through the 256-entry LUT
    (:func:`crc8_table`), the sub-byte tail through the shift register —
    bit-exact with the per-bit definition at roughly 8x fewer
    Python-level steps.
    """
    arr = np.asarray(bits, dtype=np.uint8) & 1
    table = crc8_table()
    crc = 0
    full = arr.size - arr.size % 8
    if full:
        for byte in np.packbits(arr[:full]).tolist():
            crc = table[crc ^ byte]
    for b in arr[full:].tolist():
        crc ^= b << 7
        crc = _crc8_shift(crc)
    return crc
