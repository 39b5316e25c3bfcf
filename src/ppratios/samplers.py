"""Exact samplers for ordered points, ratio patterns, and the limit process.

Everything is driven by the inverse-tail representation: the i-th largest
point of the intensity-``t * tail`` Poisson process equals
``inverse_tail(gamma_i / t)`` where ``gamma_1 < gamma_2 < ...`` are unit-rate
Poisson arrivals.  Each trial owns one counter-based stream, and row ``i``
of every batch sampler replays stream ``stream_start + i``, so it is
bit-identical to the single-trial form run on that stream.

The open-ended samplers (ratio configurations and both constructions of the
negative binomial limit process) draw arrivals until a row crosses its
threshold.  One ragged engine, :func:`_extend`, does this for a set of rows:
it extends every row that has not crossed yet by a number of counters that
depends only on the round index -- 4 in the first round, doubling each round
up to ``_CHUNK`` (4, 8, 16, 32, 64, 64, ...; see :func:`_round_widths`) --
and a per-round hook collects the points (single-trial forms, which run the
engine on one row) or reduces them into probe sums (batch forms, row-blocked
by :func:`_map_row_blocks`).  A round runs in slabs of consecutive active
rows, at most ``_SLAB`` counters each (2^17, 1 MiB of float64; see
:func:`_slabs`), so a worker's round temporaries stay the same size however
many rows are active; the ``mixed_poisson`` placement chunks take the same
slabs.  Every block of arrivals, a round's slab or a dense sampler's, is
drawn line-major by :func:`_arrivals`: one contiguous line of rows per
counter, so the running sum is a loop of whole-line adds in the same order
as ``np.cumsum`` along a row, and every arrival keeps its bits.  The
negative binomial points reach ``on_points`` row-major again, so a probe
sum adds each row's cells along a contiguous axis.  Both forms therefore
share

* one cap rule: before each round, :class:`TruncationError` is raised once
  ``cap`` arrivals past the head have been drawn (rounds end 4, 12, 28, 60,
  124, 188, ... arrivals past the head), and
* one cursor rule: a single-trial draw leaves its stream's cursor just after
  the last counter it consumed -- the crossing arrival, or for
  ``mixed_poisson`` the last placed point.

Batch samplers run in blocks of ``_ROW_BLOCK`` rows (2^14) on ``threads``
worker threads; ``threads=None`` (the default) uses the CPUs the process
may run on, at most 4.  Neither the block, the slab nor the thread count
changes any draw, count, point or probe sum, only wall time and memory.
Every block writes its rows into one output allocated after block 0, so
a batch holds its output once, never a list of parts.  With more than
one thread, blocks run concurrently, so a caller's ``probe`` must be
thread-safe unless ``threads=1`` is passed.

Ordered points are handled on the log scale internally so the slowly
varying family stays finite deep into the small-time regime.  The dense
batch samplers (pivot, log-trim and successive ratios, time scales) reduce
each row block to their statistic and invert only the arrival lines it
reads (:func:`_map_log_points`), so no trials-by-columns matrix of log
points is built; the ratio configurations' head does the same
(:func:`_ratio_head`).  Matrix outputs are returned row-major, one row per
trial.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .rng import RngStream, uniforms_at
from .tail_models import TailModel, log_inverse_tail, tail_at_log

LIMIT_RATIOS = "limit_ratios"
MIXED_POISSON = "mixed_poisson"
NB_METHODS = frozenset({LIMIT_RATIOS, MIXED_POISSON})

_CHUNK = 64  # widest engine round and placement chunk, in counters per row
_ROW_BLOCK = 1 << 14  # rows per thread task in batch samplers
_SLAB = 1 << 17  # counters per engine slab: 1 MiB per float64 temporary


class TruncationError(RuntimeError):
    """Open-ended sampling hit the point cap before crossing epsilon.

    A single-trial ratio configuration sets ``partial`` to what it drew.
    """

    partial = None


@dataclass
class OrderedSample:
    """One realization of the largest points of the process at time t."""

    t: float
    gammas: np.ndarray  # increasing unit-rate Poisson arrivals
    points: np.ndarray  # non-increasing ordered points
    count: int


@dataclass
class RatioConfiguration:
    """The ratio pattern normalized by the (r+n)-th largest point.

    ``above`` holds the n-1 ratios >= 1, largest first; ``below`` the ratios
    in (epsilon, 1); ``w_rn`` the pivot-to-top ratio (absent when r = 0).
    """

    r: int
    n: int
    above: np.ndarray
    below: np.ndarray
    epsilon: float
    w_rn: Optional[float] = None


@dataclass
class NBSample:
    """Points in (epsilon, 1) of one draw of the limiting point process."""

    n: int
    alpha: float
    points: np.ndarray
    epsilon: float
    method: str


def _validate_ratio_args(t: float, r: int, n: int, epsilon: float, cap: int):
    if r < 0 or n < 1:
        raise ValueError("require r >= 0 and n >= 1")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if cap < r + n + 1:
        raise ValueError("cap must be at least r + n + 1")
    if not t > 0:
        raise ValueError("t must be positive")


def _validate_nb_args(n: int, alpha: float, epsilon: float, method: str):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < alpha < math.inf:  # alpha = inf puts every point at 1: no finite count
        raise ValueError("alpha must be positive and finite")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    try:
        epsilon**-alpha  # the points' scale, computed as the samplers do
    except OverflowError:
        raise ValueError(f"epsilon**-alpha overflows for epsilon={epsilon!r}, "
                         f"alpha={alpha!r}") from None
    if method not in NB_METHODS:
        raise ValueError(f"unknown sampler method: {method!r}")


# ---------------------------------------------------------------------------
# the ragged engine and the open-ended constructions built on it


def _round_widths():
    """Counters per active row in each round of :func:`_extend`: 4, 8, 16, 32, then ``_CHUNK``.

    Most rows keep only a few points, so small first rounds waste few
    draws; doubling bounds the rounds a long row needs.  The schedule
    depends on the round index alone, so a row's draws do not depend on
    the other rows it is extended with.
    """
    width = 4
    while True:
        yield width
        width = min(2 * width, _CHUNK)


def _slabs(rows: np.ndarray, width: int):
    """``(position, piece)`` of ``rows`` cut into consecutive pieces of ``_SLAB // width``.

    A round or placement chunk of ``width`` counters per row then holds at
    most ``_SLAB`` values per temporary (one row when ``width`` exceeds it).
    """
    step = max(_SLAB // width, 1)
    for lo in range(0, rows.size, step):
        yield lo, rows[lo:lo + step]


def _arrivals(master_seed, streams, start, count):
    """Line-major ``(count, rows)`` arrivals of counters ``start .. start + count - 1``.

    Line ``j`` holds counter ``start + j`` of every stream in ``streams``,
    so it is contiguous, and the running sum of ``-log u`` down the lines is
    ``count - 1`` whole-line adds in the order ``np.cumsum`` takes along a
    row: each value is bit-identical to ``np.cumsum(-np.log(u), axis=1)``
    of the row-major block.
    """
    arr = uniforms_at(master_seed, streams[None, :], start + np.arange(count)[:, None])
    # a - log u is a + (-log u) exactly
    np.log(arr, out=arr)
    np.negative(arr[0], out=arr[0])
    for j in range(1, count):
        np.subtract(arr[j - 1], arr[j], out=arr[j])
    return arr


def _rows(lines: np.ndarray) -> np.ndarray:
    """A line-major ``(columns, rows)`` array as a C-ordered ``(rows, columns)`` one."""
    return np.ascontiguousarray(lines.T)


def _log_lines(model, t, g, lines):
    """Log points of the arrival lines ``g[lines]`` of a line-major block at ``t > 0``.

    Arrivals increase down the lines, so the first and last lines raise
    every domain error that inverting all of them would.
    """
    if not np.all(_scaled_arrivals(g[[0, -1]], t) > 0):
        raise ValueError("y must be strictly positive")
    return ordered_log_points(model, t, g[lines])


def _extend(master_seed, streams, start, last, accept, cap, on_round=None):
    """Extend each row's arrivals until the first one ``accept`` rejects.

    Row ``i`` reads stream ``streams[i]`` from counter ``start`` on and
    continues from the arrival ``last[i]``.  Each round draws the next
    width of :func:`_round_widths` for every row still active (at most
    ``_CHUNK`` counters per row), one slab of consecutive active rows at a
    time (:func:`_slabs`: at most ``_SLAB`` counters), each as a line-major
    ``(width, slab rows)`` array (:func:`_arrivals`).  ``accept(rows, arr)``
    returns ``(kept, values)`` in that layout for those rows and their new
    arrivals, where ``kept`` is a prefix of each column, and
    ``on_round(rows, values, kept)`` sees every slab.  A row's draws, sums
    and hook calls do not depend on the slab it falls in; the cap rule is
    checked once per round and the survivors keep their order.  Returns the
    per-row kept counts and the counter just after each row's crossing
    arrival.
    """
    counts = np.zeros(streams.size, dtype=np.int64)
    finish = np.empty(streams.size, dtype=np.int64)
    last = np.array(last, dtype=float)
    act = np.arange(streams.size)
    offset = start
    widths = _round_widths()
    while act.size:
        if offset - start >= cap:
            raise TruncationError(
                f"cap={cap} arrivals drawn before the epsilon crossing in "
                f"{act.size} of {streams.size} rows (epsilon or cap too small)"
            )
        width = next(widths)
        live = np.empty(act.size, dtype=bool)
        for lo, rows in _slabs(act, width):
            arr = _arrivals(master_seed, streams[rows], offset, width)
            arr += last[rows]
            kept, values = accept(rows, arr)
            if on_round is not None:
                on_round(rows, values, kept)
            k = np.count_nonzero(kept, axis=0)
            counts[rows] += k
            done = k < width
            finish[rows[done]] = offset + k[done] + 1
            last[rows] = arr[-1]
            live[lo:lo + rows.size] = ~done
            del arr, kept, values  # freed before the next slab is drawn
        act = act[live]
        offset += width
    return counts, finish


def _ratio_head(model, t, r, n, master_seed, streams, start):
    """Last head arrival, log pivot, above ratios and w_rn (or None) per row.

    Only the lines ``max(r - 1, 0) .. r + n - 1`` of the head are inverted.
    """
    g = _arrivals(master_seed, streams, start, r + n)
    lp = _log_lines(model, t, g, slice(max(r - 1, 0), None))
    pivot = lp[-1]
    above = _rows(np.exp(lp[-n:-1] - pivot))
    w = np.exp(pivot - lp[0]) if r >= 1 else None
    return g[-1], pivot, above, w


def _ratio_below(model, t, epsilon, master_seed, streams, start, last, pivot,
                 cap, on_below=None):
    """Below-1 log ratios above log(epsilon), via the engine; hook as in :func:`_extend`."""
    log_eps = math.log(epsilon)

    def accept(rows, arr):
        log_ratios = ordered_log_points(model, t, arr)
        log_ratios -= pivot[rows]
        return log_ratios > log_eps, log_ratios

    return _extend(master_seed, streams, start, last, accept, cap, on_below)


def _negbin_rows(n, alpha, epsilon, method, master_seed, streams, start, cap,
                 on_points=None):
    """Counts of the limiting process on (epsilon, 1), each row read from ``start`` on.

    Returns the counts and the counter just after the last one each row
    consumes.  ``on_points(rows, x, mask)`` receives the points in chunks;
    without it no ``mixed_poisson`` point is placed.
    """
    inv_alpha = 1.0 / alpha
    ea = epsilon**-alpha
    u0 = uniforms_at(master_seed, streams[:, None], start + np.arange(n))
    g = np.sum(-np.log(u0), axis=1)
    bound = g * (ea - 1.0)

    def accept(rows, arr):
        return arr <= bound[rows], arr

    def transform(rows, arr, kept):
        # row-major points, so a probe sums each row along a contiguous axis
        x = np.divide(arr.T, g[rows, None], order="C")
        x += 1.0
        x **= -inv_alpha
        on_points(rows, x, np.ascontiguousarray(kept.T))

    limit = method == LIMIT_RATIOS
    on_round = transform if limit and on_points is not None else None
    counts, finish = _extend(master_seed, streams, start + n, np.zeros(streams.size),
                             accept, cap, on_round)
    if limit:
        return counts, finish

    # mixed_poisson: the count of arrivals below the gamma-scaled mean is
    # the mixed Poisson count; place that many i.i.d. points by inverse CDF
    # of the truncated base density, one counter each after the crossing.
    # Only the masked cells are drawn; the others hold u = 1 (the point 1).
    # Chunk widths follow the round schedule, and rows are taken in slabs as
    # in the engine, so a row's chunks, and with them its probe sum, do not
    # depend on the other rows of its block.
    if on_points is not None:
        max_count = int(counts.max())
        col = 0
        for width in _round_widths():
            if col >= max_count:
                break
            cols = col + np.arange(width)
            for _, idx in _slabs(np.flatnonzero(counts > col), width):
                mask = cols[None, :] < counts[idx, None]
                rows, cs = np.nonzero(mask)
                u = np.ones(mask.shape)
                u[rows, cs] = uniforms_at(master_seed, streams[idx[rows]],
                                          finish[idx[rows]] + cols[cs])
                on_points(idx, (ea - u * (ea - 1.0)) ** -inv_alpha, mask)
            col += width
    return counts, finish + counts


# ---------------------------------------------------------------------------
# single-trial samplers


def sample_gamma_arrivals(count: int, rng: RngStream) -> np.ndarray:
    """First ``count`` arrivals of a unit-rate Poisson process."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.cumsum(rng.exponentials(count))


def sample_ordered_points(
    model: TailModel,
    t: float,
    count: int,
    rng: RngStream,
) -> OrderedSample:
    """The ``count`` largest points of the Poisson process at time t, exactly."""
    if not t > 0:
        raise ValueError("t must be positive")
    gammas = sample_gamma_arrivals(count, rng)
    points = np.exp(ordered_log_points(model, t, gammas))
    return OrderedSample(t=float(t), gammas=gammas, points=points, count=count)


def sample_ratio_configuration(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    epsilon: float,
    rng: RngStream,
    cap: int = 1_000_000,
) -> RatioConfiguration:
    """One ratio configuration, extending arrivals until the below ratios cross epsilon.

    Reads ``rng`` from its cursor and leaves the cursor just after the
    crossing arrival.  On truncation the error's ``partial`` holds the
    configuration drawn so far.
    """
    _validate_ratio_args(t, r, n, epsilon, cap)
    streams = np.array([rng.stream_index])
    last, pivot, above, w = _ratio_head(model, t, r, n, rng.master_seed, streams,
                                        rng.cursor)
    below: list[np.ndarray] = []

    def collect(rows, log_ratios, kept):
        below.append(np.exp(log_ratios[kept[:, 0], 0]))

    def configuration() -> RatioConfiguration:
        return RatioConfiguration(
            r=r, n=n, above=above[0], below=np.concatenate(below), epsilon=epsilon,
            w_rn=float(w[0]) if w is not None else None,
        )

    try:
        _, finish = _ratio_below(model, t, epsilon, rng.master_seed, streams,
                                 rng.cursor + r + n, last, pivot, cap, collect)
    except TruncationError as err:
        err.partial = configuration()
        raise
    rng.cursor = int(finish[0])
    return configuration()


def sample_negbin_process(
    n: int,
    alpha: float,
    epsilon: float,
    method: str,
    rng: RngStream,
    cap: int = 1_000_000,
) -> NBSample:
    """One draw of the limiting below-1 point process, restricted to (epsilon, 1).

    ``limit_ratios`` realizes the points as transformed Poisson arrival
    ratios; ``mixed_poisson`` draws a gamma-mixed Poisson count and then
    i.i.d. points from the normalized base density.  Both constructions
    target the identical law.  The draw reads ``rng`` from its cursor and
    leaves the cursor just after the last counter consumed.
    """
    _validate_nb_args(n, alpha, epsilon, method)
    points: list[np.ndarray] = []

    def collect(rows, x, mask):
        points.append(x[0, mask[0]])

    _, after = _negbin_rows(n, alpha, epsilon, method, rng.master_seed,
                            np.array([rng.stream_index]), rng.cursor, cap, collect)
    rng.cursor = int(after[0])
    pts = np.concatenate(points) if points else np.empty(0)
    return NBSample(n=n, alpha=alpha, points=pts, epsilon=epsilon, method=method)


# ---------------------------------------------------------------------------
# batch samplers (row i of a batch replays stream stream_start + i)


def _default_threads() -> int:
    """Threads a batch uses when ``threads`` is None: the CPUs this process may run on, at most 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _map_row_blocks(fn: Callable[[int, int], np.ndarray], n_trials: int,
                    threads: Optional[int], stream_start: int):
    """Apply fn(row_offset, n_rows) over fixed row blocks, written into one preallocated output.

    Blocks of ``_ROW_BLOCK`` rows keep a block's temporaries cache-sized and
    bound peak memory.  Block 0 runs first; each output column is then
    allocated once, with block 0's dtype and trailing shape, and every
    block writes its slice of it and drops its part, so no list of parts
    and no concatenated copy is held.  A tuple result is handled column by
    column; a column that is None stays None.  A single block's result is
    returned as it is.  Block boundaries are fixed, so the output (and the
    error of the first failing block) is identical for any thread count.
    ``threads`` None means :func:`_default_threads`; an explicit count
    overrides it and must be at least 1.  Rows read streams
    ``stream_start .. stream_start + n_trials - 1``, which must all lie in
    ``[0, 2**64)``.
    """
    threads = _resolve_threads(threads)
    if n_trials < 1:
        raise ValueError("trials must be >= 1")
    first_stream = operator.index(stream_start)
    if first_stream < 0 or first_stream + n_trials > 2**64:
        raise ValueError(f"stream indices stream_start={stream_start} to stream_start + "
                         f"{n_trials} - 1 must lie in [0, 2**64)")
    first = fn(0, min(_ROW_BLOCK, n_trials))
    if n_trials <= _ROW_BLOCK:
        return first
    is_tuple = isinstance(first, tuple)
    out = tuple(None if part is None
                else np.empty((n_trials,) + part.shape[1:], dtype=part.dtype)
                for part in (first if is_tuple else (first,)))

    def write(offset: int, result) -> None:
        for col, part in zip(out, result if is_tuple else (result,)):
            if col is not None:
                col[offset:offset + len(part)] = part

    write(0, first)
    del first
    offsets = range(_ROW_BLOCK, n_trials, _ROW_BLOCK)

    def run(offset: int) -> None:
        write(offset, fn(offset, min(_ROW_BLOCK, n_trials - offset)))

    _run_blocks(run, offsets, threads)
    return out if is_tuple else out[0]


def _resolve_threads(threads: Optional[int]) -> int:
    """``threads``, or :func:`_default_threads` for None; ``ValueError`` below 1."""
    if threads is None:
        threads = _default_threads()
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return threads


def _run_blocks(fn: Callable, offsets, threads: Optional[int]) -> list:
    """``[fn(offset) for offset in offsets]`` on ``threads`` worker threads.

    Results keep the order of ``offsets``, and the first failing offset's
    error is raised, for any thread count.  ``threads`` as in
    :func:`_resolve_threads`.
    """
    threads = _resolve_threads(threads)
    if threads == 1:
        return [fn(offset) for offset in offsets]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, offsets))


def _block_streams(first: int, rows: int) -> np.ndarray:
    """Stream indices ``first .. first + rows - 1`` as uint64, so indices past 2**63 work."""
    return np.uint64(first) + np.arange(rows, dtype=np.uint64)


def gamma_matrix(
    master_seed: int,
    n_trials: int,
    count: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """(n_trials, count) matrix of Poisson arrivals; row i replays stream i."""

    def block(offset: int, rows: int) -> np.ndarray:
        return _rows(_arrivals(master_seed, _block_streams(stream_start + offset, rows), 0,
                               count))

    return _map_row_blocks(block, n_trials, threads, stream_start)


def _scaled_arrivals(gammas, t: float) -> np.ndarray:
    """``gammas / t``; raises ValueError when it overflows (``t`` too small)."""
    with np.errstate(over="ignore"):
        y = np.divide(gammas, t)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"t={t!r} is too small: arrivals / t overflow to inf")
    return y


def ordered_log_points(
    model: TailModel,
    t: float,
    gammas: np.ndarray,
) -> np.ndarray:
    """log of ordered points for an arrival matrix (vectorized inverse).

    Raises ValueError when ``t`` is not positive or ``gammas / t``
    overflows (``t`` too small).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    y = _scaled_arrivals(gammas, t)
    return log_inverse_tail(model, y.ravel()).reshape(y.shape)


def _map_log_points(model, t, n_cols, cols, statistic, n_trials, master_seed,
                    stream_start, threads):
    """``statistic`` of the log points in columns ``cols`` of each row block.

    Each block draws its arrivals line-major, ``(n_cols, rows)``
    (:func:`_arrivals`), and inverts only the lines ``cols`` (a slice), so
    no ``(n_trials, n_cols)`` matrix of log points is ever built.
    ``statistic`` takes those log points line-major, one line per column,
    and returns each row's values; they are written into one preallocated
    output in row order (:func:`_map_row_blocks`).
    """
    if not t > 0:
        raise ValueError("t must be positive")

    def block(offset: int, rows: int):
        g = _arrivals(master_seed, _block_streams(stream_start + offset, rows), 0, n_cols)
        return statistic(_log_lines(model, t, g, cols))

    return _map_row_blocks(block, n_trials, threads, stream_start)


def ordered_log_points_batch(
    model: TailModel,
    t: float,
    n_cols: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """(n_trials, n_cols) matrix of log ordered points at time t."""
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    return _map_log_points(model, t, n_cols, slice(None), _rows, n_trials,
                           master_seed, stream_start, threads)


def pivot_ratio_batch(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Per-trial pivot ratios (r+n-th over r-th largest point); requires r, n >= 1."""
    if r < 1 or n < 1:
        raise ValueError("the pivot ratio requires r >= 1 and n >= 1")
    # columns r-1 and r+n-1 only
    return _map_log_points(model, t, r + n, slice(r - 1, None, n),
                           lambda lp: np.exp(lp[1] - lp[0]), n_trials,
                           master_seed, stream_start, threads)


def successive_ratio_batch(
    model: TailModel,
    t: float,
    r: int,
    count: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Matrix of successive below-1 ratios R_k, k = r .. r+count-1 (columns)."""
    if r < 1 or count < 1:
        raise ValueError("require r >= 1 and count >= 1")
    return _map_log_points(model, t, r + count, slice(r - 1, None),
                           lambda lp: _rows(np.exp(lp[1:] - lp[:-1])), n_trials,
                           master_seed, stream_start, threads)


def log_trim_ratio_batch(
    model: TailModel,
    t: float,
    r: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Per-trial log of the above-1 ratio (r-th over (r+1)-th largest point)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return _map_log_points(model, t, r + 1, slice(r - 1, None),
                           lambda lp: lp[0] - lp[1], n_trials, master_seed,
                           stream_start, threads)


def time_scale_batch(
    model: TailModel,
    t: float,
    kmax: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Matrix of t * tail(k-th largest point) for k = 1..kmax (columns)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")

    def scales(lp):
        return _rows(t * tail_at_log(model, lp))

    return _map_log_points(model, t, kmax, slice(None), scales, n_trials, master_seed,
                           stream_start, threads)


def pivot_ratio_with_scales_batch(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
):
    """Per-trial (W, Z, A): pivot ratio, pivot time scale, top time scale.

    Z = t*tail(r+n-th largest), A = t*tail(r-th largest); used by the
    conditional-law checks.  Requires r >= 1 and n >= 1.
    """
    if r < 1 or n < 1:
        raise ValueError("require r >= 1 and n >= 1")

    def scales(lp):  # columns r-1 and r+n-1 only
        w = np.exp(lp[1] - lp[0])
        z = t * tail_at_log(model, lp[1])
        a = t * tail_at_log(model, lp[0])
        return w, z, a

    return _map_log_points(model, t, r + n, slice(r - 1, None, n), scales, n_trials,
                           master_seed, stream_start, threads)


def ratio_configuration_batch(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    epsilon: float,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    cap: int = 1_000_000,
    threads: Optional[int] = None,
):
    """Batch ratio configurations: (above matrix, w_rn array or None, below counts).

    Row i matches :func:`sample_ratio_configuration` on a fresh stream
    ``stream_start + i`` (above ratios, pivot ratio, and the number of
    below-1 ratios exceeding epsilon).
    """
    _validate_ratio_args(t, r, n, epsilon, cap)

    def block(offset: int, rows: int):
        streams = _block_streams(stream_start + offset, rows)
        last, pivot, above, w = _ratio_head(model, t, r, n, master_seed, streams, 0)
        counts, _ = _ratio_below(model, t, epsilon, master_seed, streams, r + n,
                                 last, pivot, cap)
        return above, w, counts

    return _map_row_blocks(block, n_trials, threads, stream_start)


def negbin_batch(
    n: int,
    alpha: float,
    epsilon: float,
    method: str,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    probe: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    cap: int = 1_000_000,
    threads: Optional[int] = None,
):
    """Batch draws of the limiting point process on (epsilon, 1).

    Returns ``(counts, probe_sums)`` per trial; ``probe_sums`` is None when
    no probe is given.  Row i matches :func:`sample_negbin_process` on a
    fresh stream ``stream_start + i``.  ``probe`` is called from worker
    threads, concurrently, unless ``threads=1``: it must be thread-safe.
    """
    _validate_nb_args(n, alpha, epsilon, method)

    def block(offset: int, rows: int):
        streams = _block_streams(stream_start + offset, rows)
        if probe is None:
            counts, _ = _negbin_rows(n, alpha, epsilon, method, master_seed, streams, 0, cap)
            return counts, None
        sums = np.zeros(rows)

        def reduce(idx, x, mask):
            sums[idx] += np.sum(probe(x) * mask, axis=1)

        counts, _ = _negbin_rows(n, alpha, epsilon, method, master_seed, streams, 0, cap,
                                 reduce)
        return counts, sums

    return _map_row_blocks(block, n_trials, threads, stream_start)
