"""Shared cycle-counting machinery for the term-serial designs.

PRA and Diffy process a *pallet* (16 windows) concurrently, one effectual
term per activation lane per cycle.  Their execution time is therefore a
deterministic function of the per-activation term counts plus the
synchronization granularity, modelled at three levels:

- ``row`` (default): per-lane offset queues plus round-robin column
  hand-off let lanes run ahead within a whole row of windows; the row
  completes when its busiest (lane, column-phase) does.  This models
  PRA's buffered two-stage design and calibrates closest to the paper.
- ``lane``: queues drain at pallet boundaries; the pallet completes when
  its busiest lane does.
- ``column``: each window column's lanes advance through brick steps
  together (per-step max over the 16 channel lanes), columns independent.
- ``pallet``: all 256 lanes advance per step together (per-step max over
  the whole pallet) — the most pessimistic, bufferless design.

The cross-lane synchronization loss the paper discusses in IV-A/IV-E is
exactly the gap between these aggregates and the mean term count; the
sync ablation quantifies it (its shape is asserted in
``tests/test_paper_claims.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.nn.trace import ConvLayerTrace

SyncModel = Literal["lane", "row", "column", "pallet"]


@dataclass(frozen=True)
class LayerCycles:
    """Compute-cycle accounting for one layer on one accelerator.

    Attributes
    ----------
    name, index:
        Layer identity.
    cycles:
        Compute cycles for the whole layer at the measured resolution
        (filter passes and tile partitioning applied).
    windows:
        Output windows at the measured resolution (the scaling unit).
    useful_terms:
        Effectual terms processed across all lanes (for utilization).
    lane_capacity:
        Available lane-cycles per filter pass.
    filter_occupancy:
        Fraction of filter lanes carrying real filters (< 1 when K is not
        a multiple of the concurrent filter count — e.g. 3-filter output
        layers keep 3 of 64 lanes busy).
    channel_occupancy:
        Fraction of activation lanes carrying real channels (< 1 for the
        3-channel first layer: 13 of 16 lanes idle).
    """

    name: str
    index: int
    cycles: float
    windows: int
    useful_terms: float
    lane_capacity: float
    filter_occupancy: float
    channel_occupancy: float

    @property
    def lane_occupancy(self) -> float:
        """Fraction of available lane-cycles doing useful term work."""
        if self.lane_capacity <= 0:
            return 0.0
        return min(1.0, self.useful_terms / self.lane_capacity)

    @property
    def utilization(self) -> float:
        """Overall useful fraction of the compute fabric (Fig 12's green)."""
        return self.lane_occupancy * self.filter_occupancy


def filter_passes(out_channels: int, config: AcceleratorConfig) -> float:
    """Sequential passes over the filter dimension, after tile partitioning.

    Under ``partition="filters"`` (the paper's dataflow) every tile
    processes the same windows with a different filter group, so a layer
    with K filters needs ``ceil(K / (tiles * filters_per_tile))`` passes.

    Under ``partition="hybrid"`` (the Fig 18 scaling study) tiles beyond
    the filter-group count split output rows, dividing the pass count.
    """
    groups = math.ceil(out_channels / config.filters_per_tile)
    if config.partition == "filters":
        return float(math.ceil(groups / config.tiles))
    if config.tiles >= groups:
        teams = config.tiles // groups
        return 1.0 / teams
    return float(math.ceil(groups / config.tiles))


def geometry_occupancies(
    layer: ConvLayerTrace, config: AcceleratorConfig
) -> tuple[float, float]:
    """(filter, channel) lane occupancy fractions for a layer."""
    groups = math.ceil(layer.out_channels / config.filters_per_tile)
    if config.partition == "hybrid":
        # Row-split teams keep every tile busy on real filters.
        committed = config.filters_per_tile * groups
    else:
        # All tiles work on the same windows: idle filter rows across the
        # whole machine (and across every sequential pass) count.
        committed = (
            config.filters_per_tile
            * config.tiles
            * math.ceil(groups / config.tiles)
        )
    filter_occ = min(1.0, layer.out_channels / committed)
    brick = config.terms_per_filter
    channel_occ = layer.in_channels / (math.ceil(layer.in_channels / brick) * brick)
    return filter_occ, channel_occ


def _tap_span(
    arr: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
) -> tuple[int, int]:
    """The (rows, columns) every tap of every (out_h, out_w) window reads;
    ``ValueError`` unless ``arr``'s last two axes hold them."""
    hp, wp = arr.shape[-2:]
    need_h = (kernel - 1) * dilation + (out_h - 1) * stride + 1
    need_w = (kernel - 1) * dilation + (out_w - 1) * stride + 1
    if need_h > hp or need_w > wp:
        raise ValueError(
            f"term map of spatial shape {(hp, wp)} too small for "
            f"kernel={kernel}, stride={stride}, dilation={dilation}, "
            f"out={(out_h, out_w)} (needs {(need_h, need_w)})"
        )
    return need_h, need_w


def _tap_view(
    arr: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Zero-copy (C, fy, fx, out_h, out_w) view of a (C, Hp, Wp) map.

    Element ``[c, fy, fx, oy, ox]`` of the view is the value channel
    ``c`` streams for weight tap (fy, fx) of the output window (oy, ox)
    — i.e. every operand of the loops in ``tests/oracles/cycles.py``,
    expressed as strides so the reductions below run in C.
    """
    _tap_span(arr, kernel, stride, dilation, out_h, out_w)
    sc, sh, sw = arr.strides
    return np.lib.stride_tricks.as_strided(
        arr,
        shape=(arr.shape[0], kernel, kernel, out_h, out_w),
        strides=(sc, sh * dilation, sw * dilation, sh * stride, sw * stride),
        writeable=False,
    )


def _pad_to_bricks(term_map: np.ndarray, brick: int) -> np.ndarray:
    """Channel-pad to a brick multiple.  Zero lanes are inert: term counts
    are nonnegative, so padding changes neither maxima nor sums."""
    channels = term_map.shape[0]
    pad = (-channels) % brick
    if pad:
        padded = np.zeros((channels + pad, *term_map.shape[1:]), dtype=term_map.dtype)
        padded[:channels] = term_map
        return padded
    return term_map


def _sum_dtype(arr: np.ndarray, terms: int) -> type:
    """The narrowest of ``int16``, ``int32`` and ``int64`` that no sum of
    ``terms`` values of ``arr``'s dtype can overflow.  Term maps are
    ``uint8`` (wider only for a VP map with a huge ``recovery_cycles``),
    so a 3x3 layer of up to 224 channels folds its lane sums in
    ``int16``: exact, and half the bytes of ``int32`` to add and read."""
    bound = np.iinfo(arr.dtype).max * terms
    return np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64


def step_term_maxima(
    term_map: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
    brick: int,
) -> tuple[np.ndarray, int]:
    """Per-(step, window) maxima of term counts over brick lanes.

    ``term_map`` is the (C, Hp, Wp) per-activation term-count array of the
    *spatially padded* imap.  A *step* is one (channel-brick, fy, fx)
    weight position; returns ``M`` of shape (steps, out_h, out_w) plus the
    total effectual terms across all lanes and windows.
    """
    arr = _pad_to_bricks(np.ascontiguousarray(term_map), brick)
    hp, wp = arr.shape[1:]
    # Lane-max commutes with spatial slicing, so reduce the lane axis ONCE
    # over the whole padded map — O(C·Hp·Wp) — and let each of the
    # bricks*k*k steps become a pure strided gather of the per-position
    # maxima instead of its own O(brick·out_h·out_w) reduction.
    per_pos_max = arr.reshape(-1, brick, hp, wp).max(axis=1)
    gathered = _tap_view(per_pos_max, kernel, stride, dilation, out_h, out_w)
    # (bricks, fy, fx, oh, ow) -> C-order copy matches the loop spec's
    # step ordering s = (cb*kernel + fy)*kernel + fx.  Always a copy: a
    # 1x1 layer's view is already contiguous, and callers splice into it.
    maxima = np.array(gathered, dtype=np.int64).reshape(-1, out_h, out_w)
    # Every tap revisits the same channel-summed plane shifted, so the
    # grand total is k*k strided slice-sums of one O(Hp·Wp) plane rather
    # than a sum over the full C·k·k-redundant window view.
    plane = arr.sum(axis=0, dtype=_sum_dtype(arr, arr.shape[0]))[None]
    total_terms = int(
        _tap_view(plane, kernel, stride, dilation, out_h, out_w).sum(dtype=np.int64)
    )
    return maxima, total_terms


def lane_term_totals(
    term_map: np.ndarray,
    kernel: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
    brick: int,
) -> tuple[np.ndarray, int]:
    """Per-(lane, window) total term counts for the ``lane`` sync model.

    Lane ``c`` of a window's serial IP processes channels c, c+brick,
    c+2*brick, ... across every weight tap; its busy time for the window
    is the sum of all those term counts.  Returns ``totals`` of shape
    (brick, out_h, out_w) and the grand total.

    The k*k tap sum is separable: ``kernel`` shifted strided adds along x
    fill a row buffer, then ``kernel`` shifted strided adds along y read
    it.  The counts are integers, so this order is as exact as any.
    Each lane's window total sums ``bricks * kernel**2`` term counts, so
    it folds in :func:`_sum_dtype`, one slice add per brick (a tail
    brick fills only its lanes: missing channels add nothing); the grand
    total is summed in ``int64``.
    """
    channels = term_map.shape[0]
    bricks = -(-channels // brick)
    folded = np.zeros(
        (brick, *term_map.shape[1:]), dtype=_sum_dtype(term_map, bricks * kernel**2)
    )
    for c0 in range(0, channels, brick):
        lanes = term_map[c0 : c0 + brick]
        folded[: len(lanes)] += lanes
    need_h, _ = _tap_span(folded, kernel, stride, dilation, out_h, out_w)
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    rows = folded[:, :need_h, 0:span_w:stride].copy()
    for fx in range(1, kernel):
        x0 = fx * dilation
        rows += folded[:, :need_h, x0 : x0 + span_w : stride]
    totals = rows[:, 0:span_h:stride].copy()
    for fy in range(1, kernel):
        y0 = fy * dilation
        totals += rows[:, y0 : y0 + span_h : stride]
    return totals, int(totals.sum(dtype=np.int64))


def _group_pallets(arr: np.ndarray, pallet: int) -> np.ndarray:
    """Pad the window axis (last) to a pallet multiple and group it."""
    width = arr.shape[-1]
    pad = (-width) % pallet
    if pad:
        padded = np.zeros((*arr.shape[:-1], width + pad), dtype=arr.dtype)
        padded[..., :width] = arr
        arr = padded
    return arr.reshape(*arr.shape[:-1], -1, pallet)


def pallet_cycles(
    maxima: np.ndarray, pallet: int, sync: SyncModel
) -> float:
    """Aggregate per-step window maxima into total pallet cycles.

    For ``column``/``pallet`` sync, ``maxima`` has shape
    (steps, out_h, out_w); for ``lane`` sync it is the per-lane totals of
    shape (brick, out_h, out_w).  Windows are grouped into pallets of
    ``pallet`` consecutive columns (tail pallets run with idle columns).
    """
    if sync == "row":
        # Lanes buffer across pallet boundaries; window columns are
        # assigned round-robin along the row (Section III-E), so column
        # phase j accumulates every pallet's j-th window and the row
        # completes when its busiest (lane, phase) does.  One slice add
        # per pallet; a tail pallet's idle columns add nothing.
        phase_totals = np.zeros((*maxima.shape[:-1], pallet), dtype=np.int64)
        for x0 in range(0, maxima.shape[-1], pallet):
            columns = maxima[..., x0 : x0 + pallet]
            phase_totals[..., : columns.shape[-1]] += columns
        # (brick, out_h, pallet) -> busiest lane, then busiest phase, per row.
        return float(phase_totals.max(axis=0).max(axis=-1).sum())
    grouped = _group_pallets(maxima, pallet)
    if sync == "lane":
        # (brick, out_h, pallets, pallet) -> slowest lane over the pallet.
        per_pallet = grouped.max(axis=(0, -1))
    elif sync == "column":
        column_totals = grouped.sum(axis=0)  # (out_h, pallets, pallet)
        per_pallet = column_totals.max(axis=-1)
    elif sync == "pallet":
        per_pallet = grouped.max(axis=-1).sum(axis=0)  # (out_h, pallets)
    else:
        raise ValueError(f"unknown sync model {sync!r}")
    return float(per_pallet.sum())


def assemble_layer_cycles(
    layer: ConvLayerTrace,
    aggregate: np.ndarray,
    total_terms: float,
    config: AcceleratorConfig,
) -> LayerCycles:
    """Turn a per-window aggregate into a :class:`LayerCycles` record."""
    k_out = layer.omap_shape[0]
    base = pallet_cycles(aggregate, config.windows_per_tile, config.sync)
    passes = filter_passes(k_out, config)
    cycles = base * passes
    filter_occ, channel_occ = geometry_occupancies(layer, config)
    # Occupancy is per filter pass: the same terms re-stream each pass, so
    # the ratio of useful term-cycles to available lane-cycles is
    # pass-invariant.
    lane_capacity = base * config.windows_per_tile * config.terms_per_filter
    return LayerCycles(
        name=layer.name,
        index=layer.index,
        cycles=cycles,
        windows=layer.windows,
        useful_terms=float(total_terms),
        lane_capacity=lane_capacity,
        filter_occupancy=filter_occ,
        channel_occupancy=channel_occ,
    )


def serial_layer_cycles(
    layer: ConvLayerTrace,
    term_map: np.ndarray,
    config: AcceleratorConfig,
    head_term_map: Optional[np.ndarray] = None,
    axis: str = "x",
) -> LayerCycles:
    """Cycle accounting for one layer of a term-serial accelerator.

    ``term_map`` supplies the per-activation term counts the serial IPs
    stream (raw for PRA, deltas for Diffy).  If ``head_term_map`` is
    given, the *head windows* of each differential chain (the leftmost
    window per row for ``axis="x"``) are re-aggregated from it — this is
    how Diffy's raw-first-window dataflow is modelled without corrupting
    the overlapping delta windows.  Under ``lane``/``row`` sync the body
    terms the head replaces are the head column's (row's) lane totals,
    read before the splice; step maxima do not sum to terms, so
    ``column``/``pallet`` sync re-count them over the head windows.
    """
    _, out_h, out_w = layer.omap_shape
    cfg = config
    geom = (layer.kernel, layer.stride, layer.dilation)
    aggregate_fn = (
        lane_term_totals if cfg.sync in ("lane", "row") else step_term_maxima
    )
    aggregate, total = aggregate_fn(
        term_map, *geom, out_h, out_w, cfg.terms_per_filter
    )
    if head_term_map is not None:
        if axis == "x":
            head_out, head = (out_h, 1), (..., slice(None), slice(0, 1))
        elif axis == "y":
            head_out, head = (1, out_w), (..., slice(0, 1), slice(None))
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        head_agg, head_terms = aggregate_fn(
            head_term_map, *geom, *head_out, cfg.terms_per_filter
        )
        if aggregate_fn is lane_term_totals:
            body_terms = aggregate[head].sum(dtype=np.int64)
        else:
            _, body_terms = aggregate_fn(
                term_map, *geom, *head_out, cfg.terms_per_filter
            )
        aggregate[head] = head_agg
        total = int(total) - int(body_terms) + int(head_terms)
    return assemble_layer_cycles(layer, aggregate, float(total), cfg)
