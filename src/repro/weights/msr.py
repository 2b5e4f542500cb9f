"""MSR (Most-Significant-Run) weight compaction codec.

INT8 weights of trained networks concentrate near zero: the top ``r``
bits of almost every weight are a sign-extension run, so the weight fits
``bits - r + 1`` signed bits.  The Low-Cost-AI-Accelerator related work
measures 98.9-99.98% of weights carrying MSR-4 on 8-bit values, with the
few out-of-band weights handled by a small per-column compensation path
(about 3 entries per 256-weight systolic column in the worst case).

Wire format (per ``column_size``-weight column, tail zero padded):

- a run header (``run - 1`` in ``RUN_BITS`` bits): the column's MSR run
  width, chosen per column to minimize its encoded size (Dynamic-Stripes
  style adaptivity, capped at ``max_msr`` — the datapath's design point);
- a compensation count ``m`` (``COUNT_BITS`` bits) followed by ``m``
  entries of (``INDEX_BITS``-bit position, ``bits``-bit raw weight) for
  the out-of-band weights;
- ``column_size`` compact fields of ``bits - run + 1`` bits each (two's
  complement; compensated positions store a zero placeholder so payload
  offsets stay fixed and vectorizable);
- with ``checksum=True``, a CRC-8 of the column's header+entry+payload
  bits (the same detection rung the activation streams use).

Encode and decode are whole-array bit-plane operations, property-tested
byte-identical to the value-at-a-time spec in ``tests/oracles/``.  They
share the lenient-decode semantics of the activation codecs: strict
decodes raise on checksum mismatch / exhaustion / bit-count
disagreement with the same message shapes as
:class:`repro.compression.codec.GroupCodec` (with "column" in place of
"group"), lenient decodes zero-fill and flag rejected columns, keep a
partial column's shifted-in values without checksums, and flag the
whole tail on desynchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.compression.bitplane import (
    CHECKSUM_BITS,
    _chunked,
    _combine_planes,
    _sign_extend,
    crc8_contrib,
)
from repro.compression.codec import (
    Encoded,
    _as_int_stream,
    _check_encoded,
    _note_codec_call,
)
from repro.utils.bits import signed_range
from repro.utils.validation import check_integer, check_positive_integer

__all__ = ["MSRCodec", "MSRLayout"]


def _scatter_field(
    bits_arr: np.ndarray, starts: np.ndarray, values: np.ndarray, width: int
) -> None:
    """Scatter fixed-width unsigned fields at per-item bit offsets."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    planes = ((np.asarray(values, dtype=np.int64)[:, None] >> shifts) & 1).astype(
        np.uint8
    )
    pos = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(
        width, dtype=np.int64
    )
    bits_arr[pos.reshape(-1)] = planes.reshape(-1)


@dataclass(frozen=True)
class MSRLayout:
    """Accounting view of one stream's column layout (no packing)."""

    columns: int
    #: Zero-padded values, shaped (columns, column_size).
    vals: np.ndarray
    #: Chosen run width per column (1..max_msr).
    runs: np.ndarray
    #: Compensation-entry count per column.
    comp_counts: np.ndarray
    #: Encoded bits per column, checksum included.
    spans: np.ndarray
    #: Bit offset of each column's start.
    offsets: np.ndarray
    total_bits: int


class MSRCodec:
    """Per-column MSR-width compaction with a compensation list.

    ``bits`` is the raw weight width (8 for INT8), ``max_msr`` the
    largest run width the compact datapath supports (4 reproduces the
    related work's MSR-4 design point: a 5-bit compact path), and
    ``column_size`` the systolic column length the compensation path is
    provisioned per.
    """

    def __init__(
        self,
        bits: int = 8,
        max_msr: int = 4,
        column_size: int = 256,
        checksum: bool = False,
    ):
        bits = check_integer("bits", bits)
        max_msr = check_integer("max_msr", max_msr)
        column_size = check_positive_integer("column_size", column_size)
        if column_size >= 1 << 24:
            # Count and index fields must stay within the 24 bits the
            # float32 plane combine reads exactly.
            raise ValueError(f"column_size must be below 2^24, got {column_size}")
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        if not 1 <= max_msr <= bits - 1:
            raise ValueError(
                f"max_msr must be in [1, bits-1] = [1, {bits - 1}], got {max_msr}"
            )
        self.bits = bits
        self.max_msr = max_msr
        self.column_size = column_size
        self.checksum = bool(checksum)
        self._run_bits = max(1, (self.max_msr - 1).bit_length())
        if (1 << self._run_bits) > self.bits:
            # Every decodable run header must name a positive compact
            # width, or a corrupted header would be undecodable rather
            # than merely desynchronizing.
            raise ValueError(
                f"max_msr {max_msr} needs {self._run_bits}-bit run headers "
                f"whose range exceeds bits={bits}"
            )
        self._count_bits = self.column_size.bit_length()
        self._index_bits = max(1, (self.column_size - 1).bit_length())
        self._entry_bits = self._index_bits + self.bits
        self._head_bits = self._run_bits + self._count_bits

    # ---- accounting ------------------------------------------------------

    def _validated(self, values: np.ndarray) -> np.ndarray:
        flat = _as_int_stream("weights", values, signed=True)
        if flat.size:
            lo, hi = signed_range(self.bits)
            mn, mx = int(flat.min()), int(flat.max())
            if mn < lo or mx > hi:
                raise ValueError(
                    f"weights exceed the signed {self.bits}-bit range: [{mn}, {mx}]"
                )
        return flat

    def layout(self, values: np.ndarray) -> MSRLayout:
        """Column layout of a stream: runs, compensation counts, offsets."""
        return self._layout(self._validated(values))

    def _layout(self, flat: np.ndarray) -> MSRLayout:
        columns = -(-flat.size // self.column_size) if flat.size else 0
        padded = np.zeros(columns * self.column_size, dtype=np.int64)
        padded[: flat.size] = flat
        vals = padded.reshape(columns, self.column_size)
        n_runs = self.max_msr
        sizes = np.empty((columns, n_runs), dtype=np.int64)
        counts = np.empty((columns, n_runs), dtype=np.int64)
        for r in range(1, n_runs + 1):
            compact = self.bits - r + 1
            lo, hi = signed_range(compact)
            m = ((vals < lo) | (vals > hi)).sum(axis=1)
            counts[:, r - 1] = m
            sizes[:, r - 1] = m * self._entry_bits + self.column_size * compact
        # Per-column argmin; ties break toward the larger run (better
        # coverage at equal size).  Matches the spec encoder's ascending
        # scan with `<=`.
        if columns:
            choice = n_runs - 1 - sizes[:, ::-1].argmin(axis=1)
        else:
            choice = np.zeros(0, dtype=np.int64)
        runs = choice + 1
        comp_counts = counts[np.arange(columns), choice] if columns else counts.reshape(-1)
        tail = CHECKSUM_BITS if self.checksum else 0
        spans = self._head_bits + comp_counts * self._entry_bits
        spans = spans + self.column_size * (self.bits - runs + 1) + tail
        offsets = np.zeros(columns + 1, dtype=np.int64)
        np.cumsum(spans, out=offsets[1:])
        return MSRLayout(
            columns=columns,
            vals=vals,
            runs=runs,
            comp_counts=comp_counts,
            spans=spans,
            offsets=offsets[:-1],
            total_bits=int(offsets[-1]),
        )

    def encoded_bits(self, values: np.ndarray) -> int:
        """Exact encoded size in bits (the schemes' accounting hook)."""
        return self._layout(self._validated(values)).total_bits

    def coverage(self, values: np.ndarray) -> float:
        """Fraction of stored weights carried in-band (uncompensated)."""
        flat = self._validated(values)
        if not flat.size:
            return 1.0
        lay = self._layout(flat)
        return 1.0 - int(lay.comp_counts.sum()) / flat.size

    # ---- encode ----------------------------------------------------------

    def encode(self, values: np.ndarray) -> Encoded:
        """Pack a flat weight stream; tail columns are zero padded."""
        flat = self._validated(values)
        lay = self._layout(flat)
        bits_arr = np.zeros(lay.total_bits, dtype=np.uint8)
        if lay.columns:
            offs = lay.offsets
            _scatter_field(bits_arr, offs, lay.runs - 1, self._run_bits)
            _scatter_field(
                bits_arr, offs + self._run_bits, lay.comp_counts, self._count_bits
            )
            head = self._head_bits
            for r in map(int, np.unique(lay.runs)):
                sel = np.flatnonzero(lay.runs == r)
                compact = self.bits - r + 1
                lo, hi = signed_range(compact)
                sub = lay.vals[sel]
                oob = (sub < lo) | (sub > hi)
                col_i, idx_i = np.nonzero(oob)  # row-major: entry order
                if col_i.size:
                    counts = oob.sum(axis=1)
                    starts = np.repeat(np.cumsum(counts) - counts, counts)
                    rank = np.arange(col_i.size, dtype=np.int64) - starts
                    base = offs[sel][col_i] + head + rank * self._entry_bits
                    _scatter_field(bits_arr, base, idx_i, self._index_bits)
                    raw = sub[col_i, idx_i] & ((np.int64(1) << self.bits) - 1)
                    _scatter_field(bits_arr, base + self._index_bits, raw, self.bits)
                stored = np.where(oob, 0, sub) & ((np.int64(1) << compact) - 1)
                span = self.column_size * compact
                pstart = offs[sel] + head + oob.sum(axis=1) * self._entry_bits
                vshift = np.arange(compact - 1, -1, -1, dtype=np.int64)
                rel = np.arange(span, dtype=np.int64)
                for chunk in _chunked(np.arange(sel.size), span):
                    planes = ((stored[chunk][..., None] >> vshift) & 1).astype(np.uint8)
                    pos = pstart[chunk][:, None] + rel
                    bits_arr[pos.reshape(-1)] = planes.reshape(len(chunk), span).reshape(-1)
            if self.checksum:
                span_nocrc = lay.spans - CHECKSUM_BITS
                for s in map(int, np.unique(span_nocrc)):
                    sel = np.flatnonzero(span_nocrc == s)
                    contrib = crc8_contrib(s)
                    for chunk in _chunked(sel, s):
                        pos = offs[chunk][:, None] + np.arange(s, dtype=np.int64)
                        msg = bits_arr[pos.reshape(-1)].reshape(len(chunk), s)
                        crc = np.bitwise_xor.reduce(msg * contrib, axis=1)
                        _scatter_field(
                            bits_arr, offs[chunk] + s, crc.astype(np.int64), CHECKSUM_BITS
                        )
        _note_codec_call("encode", lay.total_bits, int(flat.size), codec="weight")
        return Encoded(
            data=np.packbits(bits_arr).tobytes(),
            bits=lay.total_bits,
            values=int(flat.size),
        )

    # ---- decode ----------------------------------------------------------

    def decode(self, encoded: Encoded, strict: bool = True) -> np.ndarray:
        """Unpack back to the original flat stream (padding stripped)."""
        return self.decode_flagged(encoded, strict=strict)[0]

    def decode_flagged(
        self,
        encoded: Encoded,
        strict: bool = True,
        suspect_bits: "tuple[tuple[int, int], ...]" = (),
    ) -> "tuple[np.ndarray, tuple[int, ...]]":
        """Decode and report the column indices the checksum rejected.

        Same contract as ``GroupCodec.decode_flagged``, per column: strict
        raises on any inconsistency; lenient zero-fills and flags rejected
        columns (plus the whole tail past an exhaustion or desync), keeps
        a partial column's shifted-in compact values without checksums
        (compensation applies only on column completion), and rejects any
        column overlapping a ``suspect_bits`` range even when its CRC-8
        happens to pass.
        """
        _check_encoded(encoded, strict)
        result = self._unpack(encoded, strict, tuple(suspect_bits))
        _note_codec_call("decode", encoded.bits, encoded.values, codec="weight")
        return result

    def _unpack(
        self,
        encoded: Encoded,
        strict: bool,
        suspect_bits: "Sequence[tuple[int, int]]",
    ) -> "tuple[np.ndarray, tuple[int, ...]]":
        """Whole-array bit-plane decode (post-validation)."""
        columns = -(-encoded.values // self.column_size)
        bitarr = np.unpackbits(np.frombuffer(encoded.data, dtype=np.uint8))
        phys = bitarr.size
        head = self._head_bits

        def rd(o: int, w: int) -> int:
            return int(_combine_planes(bitarr[o : o + w]))

        # Sequential O(columns) header walk: spans are data-dependent
        # (run width and compensation count), values are not.
        offs = np.empty(columns, dtype=np.int64)
        runs = np.empty(columns, dtype=np.int64)
        ms = np.empty(columns, dtype=np.int64)
        complete = 0
        eof_bits_read: "Optional[int]" = None
        partial: "Optional[tuple[int, int, int]]" = None  # (pstart, compact, done)
        o = 0
        for _g in range(columns):
            if o + self._run_bits > phys:
                eof_bits_read = o
                break
            run = rd(o, self._run_bits) + 1
            if o + head > phys:
                eof_bits_read = o + self._run_bits
                break
            m = rd(o + self._run_bits, self._count_bits)
            compact = self.bits - run + 1
            estart = o + head
            pstart = estart + m * self._entry_bits
            pend = pstart + self.column_size * compact
            if pstart > phys:
                avail = phys - estart
                full_e = avail // self._entry_bits
                rem = avail % self._entry_bits
                eof_bits_read = estart + full_e * self._entry_bits
                if rem >= self._index_bits:
                    eof_bits_read += self._index_bits
                break
            if pend > phys:
                done = (phys - pstart) // compact
                eof_bits_read = pstart + done * compact
                partial = (pstart, compact, done)
                break
            if self.checksum and pend + CHECKSUM_BITS > phys:
                eof_bits_read = pend
                break
            offs[complete] = o
            runs[complete] = run
            ms[complete] = m
            o = pend + (CHECKSUM_BITS if self.checksum else 0)
            complete += 1
        bits_read = o if eof_bits_read is None else eof_bits_read

        out = np.zeros((columns, self.column_size), dtype=np.int64)
        rejected = np.zeros(columns, dtype=bool)
        offs_c = offs[:complete]
        runs_c = runs[:complete]
        ms_c = ms[:complete]
        estarts = offs_c + head
        pstarts = estarts + ms_c * self._entry_bits
        for r in (map(int, np.unique(runs_c)) if complete else ()):
            sel = np.flatnonzero(runs_c == r)
            compact = self.bits - r + 1
            span = self.column_size * compact
            rel = np.arange(span, dtype=np.int64)
            for chunk in _chunked(sel, span):
                pos = pstarts[chunk][:, None] + rel
                planes = bitarr[pos.reshape(-1)].reshape(
                    len(chunk), self.column_size, compact
                )
                out[chunk] = _sign_extend(_combine_planes(planes), compact)

        if self.checksum and complete:
            span_nocrc = head + ms_c * self._entry_bits + (
                self.bits - runs_c + 1
            ) * self.column_size
            for s in map(int, np.unique(span_nocrc)):
                sel = np.flatnonzero(span_nocrc == s)
                contrib = crc8_contrib(s)
                for chunk in _chunked(sel, s):
                    pos = offs_c[chunk][:, None] + np.arange(s, dtype=np.int64)
                    msg = bitarr[pos.reshape(-1)].reshape(len(chunk), s)
                    calc = np.bitwise_xor.reduce(msg * contrib, axis=1)
                    cpos = (offs_c[chunk] + s)[:, None] + np.arange(
                        CHECKSUM_BITS, dtype=np.int64
                    )
                    stored = _combine_planes(
                        bitarr[cpos.reshape(-1)].reshape(len(chunk), CHECKSUM_BITS)
                    )
                    rejected[chunk] |= stored != calc
            if suspect_bits:
                span_end = offs_c + span_nocrc + CHECKSUM_BITS
                known_bad = np.zeros(complete, dtype=bool)
                for lo, hi in suspect_bits:
                    known_bad |= (offs_c < hi) & (lo < span_end)
                rejected[:complete] |= known_bad

        if strict:
            if self.checksum and rejected.any():
                g = int(np.flatnonzero(rejected)[0])
                raise ValueError(f"corrupt stream: checksum mismatch in column {g}")
            if eof_bits_read is not None:
                raise ValueError(
                    f"corrupt stream: exhausted after {bits_read} of "
                    f"{encoded.bits} bits"
                )
            if bits_read != encoded.bits:
                raise ValueError(
                    f"decoded {bits_read} bits, expected {encoded.bits}"
                )

        bad = np.flatnonzero(rejected)
        out[bad] = 0
        # Compensation entries of complete, unrejected columns; duplicate
        # or out-of-range indices (corruption) resolve exactly as the
        # spec's in-order scan: last in-range entry wins.
        live = np.flatnonzero((ms_c > 0) & ~rejected[:complete])
        out_flat = out.reshape(-1)
        for mval in (map(int, np.unique(ms_c[live])) if live.size else ()):
            sel = live[ms_c[live] == mval]
            pos = estarts[sel][:, None] + np.arange(
                mval * self._entry_bits, dtype=np.int64
            )
            ent = bitarr[pos.reshape(-1)].reshape(len(sel), mval, self._entry_bits)
            idx = _combine_planes(ent[:, :, : self._index_bits])
            val = _sign_extend(_combine_planes(ent[:, :, self._index_bits :]), self.bits)
            tcol = np.repeat(sel, mval)
            tidx = idx.reshape(-1)
            tval = val.reshape(-1)
            valid = tidx < self.column_size
            t = tcol[valid] * self.column_size + tidx[valid]
            v = tval[valid]
            rev = t[::-1]
            uniq, first = np.unique(rev, return_index=True)
            out_flat[uniq] = v[::-1][first]

        flagged: "list[int]" = [int(g) for g in bad]
        if self.checksum:
            if eof_bits_read is not None:
                flagged.extend(range(complete, columns))
            desynced = eof_bits_read is not None or (
                bool(flagged) and bits_read != encoded.bits
            )
            if desynced and flagged:
                flagged = list(range(flagged[0], columns))
        elif partial is not None:
            pstart, compact, done = partial
            if done:
                planes = bitarr[pstart : pstart + done * compact].reshape(done, compact)
                out[complete, :done] = _sign_extend(_combine_planes(planes), compact)
        return out.reshape(-1)[: encoded.values].copy(), tuple(flagged)
