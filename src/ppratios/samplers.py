"""Exact samplers for ordered points, ratio patterns, and the limit process.

Everything is driven by the inverse-tail representation: the i-th largest
point of the intensity-``t * tail`` Poisson process equals
``inverse_tail(gamma_i / t)`` where ``gamma_1 < gamma_2 < ...`` are unit-rate
Poisson arrivals.  Each trial owns one counter-based stream, and row ``i``
of every batch sampler replays stream ``stream_start + i``, so it is
bit-identical to the single-trial form run on that stream.  A single-trial
sampler returns only what it drew, never its arguments: the arrivals and
points (:class:`OrderedSample`), the above and below ratios and the pivot
ratio (:class:`RatioConfiguration`), or the limit process's points as an
array.

The open-ended samplers (ratio configurations and both constructions of the
negative binomial limit process) count the unit-rate arrivals below a
per-row bound, fixed by the row's head: ``Gamma_n * (epsilon**-alpha - 1)``
past the head for the limit process, and ``t * tail(epsilon * X_p)`` for a
ratio configuration with pivot point ``X_p``, since a later point's ratio
to the pivot exceeds epsilon exactly when its arrival lies below it.  Given
the head, the later arrivals are a unit-rate Poisson process past its last
arrival ``g``, so that count is Poisson(``mu``), ``mu = bound - g``.

Ratio configurations and ``mixed_poisson`` draw the count first: one
uniform per row, from the counter right after the head, inverted by
:func:`_poisson_quantile` (exact to the integer up to mean 1e5).  Given the
count, the arrivals below the bound are i.i.d. uniform on ``(g, bound)``,
so a single-trial ratio configuration places its below ratios from the
next ``count`` counters, sorted; ``mixed_poisson`` places its i.i.d. points
from the truncated base density the same way, in chunks of the round
schedule below taken in slabs (:func:`_slabs`), so a row's probe sum does
not depend on the other rows of its block.

``limit_ratios`` keeps its points as transformed arrival ratios, so it
walks the arrivals.  One ragged engine, :func:`_extend`, does this for a
set of rows: it extends every row that has not crossed its bound yet by a
number of counters that depends only on the round index -- 4 in the first
round, doubling each round up to ``_CHUNK`` (4, 8, 16, 32, 64, 64, ...; see
:func:`_round_widths`) -- and a per-round hook turns the kept arrivals into
points (row-major again, so a probe sum adds each row's cells along a
contiguous axis).  A round runs in slabs of consecutive active rows, at
most ``_SLAB`` counters each (2^17, 1 MiB of float64), so a worker's round
temporaries stay the same size however many rows are active.  Every block
of arrivals, a round's slab or a dense sampler's, is drawn line-major by
:func:`_arrivals`: one contiguous line of rows per counter, so the running
sum is a loop of whole-line adds in the same order as ``np.cumsum`` along a
row, and every arrival keeps its bits.  Single-trial and batch forms share

* one cap rule: ``cap >= 1`` before any draw, then one
  :class:`TruncationError` per call, counting every row whose count
  exceeds ``cap`` (``mu = inf`` among them).  A block whose counts are
  drawn first places no point once one exceeds ``cap``; a walked row stops
  within one round past ``cap``; and
* one cursor rule: a single-trial draw leaves its stream's cursor after the
  head, one counter for the count (for ``limit_ratios``, the crossing
  arrival) and one per point: ``r + n + 1 + count`` or ``n + 1 + count``.

Batch samplers run in fixed row blocks on ``threads`` worker threads: the
dense ones in blocks of ``_ROW_BLOCK`` rows (2^14), the open-ended ones in
blocks of ``2 * _ROW_BLOCK`` (2^15, :func:`_open_block_rows`), which
amortise their many short numpy calls.  ``threads=None`` (the default)
uses the CPUs the process may run on, at most 4.  Neither the block, the
slab nor the thread count changes any draw, count, point or probe sum,
only wall time and memory.
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
(:func:`_ratio_head`).  The dense ratio samplers return log ratios, finite
where a ratio underflows or overflows; every ratio limit reads the tail
index alpha only through ``R**alpha = exp(alpha * log R)``, so a check
scores that against the law at index 1.  :func:`pivot_ratio_batch` alone
returns W itself.  Matrix outputs are returned row-major, one row per trial.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri, pdtr, pdtrc

from .rng import RngStream, uniforms_at
from .tail_models import TailModel, log_inverse_tail, tail_at_log

LIMIT_RATIOS = "limit_ratios"
MIXED_POISSON = "mixed_poisson"
NB_METHODS = frozenset({LIMIT_RATIOS, MIXED_POISSON})

_CHUNK = 64  # widest engine round and placement chunk, in counters per row
_ROW_BLOCK = 1 << 14  # rows per thread task in batch samplers
_SLAB = 1 << 17  # counters per engine slab: 1 MiB per float64 temporary

# the inverse Poisson CDF (:func:`_poisson_quantile`)
_CHOP_MU = 6.0  # rows with a smaller mean try the chop-down sum first
_CHOP_STEPS = 12  # chop-down terms summed before a row moves on
_MU_MAX = 2.0**52  # past it a count is not a float64 unit step from the next
_TOL = 1e-12  # margin for the error of the chop-down sums compared with u


class TruncationError(RuntimeError):
    """Open-ended sampling found more than ``cap`` points before crossing epsilon."""


@dataclass
class OrderedSample:
    """One realization of the largest points of the process at time t."""

    gammas: np.ndarray  # increasing unit-rate Poisson arrivals
    points: np.ndarray  # non-increasing ordered points


@dataclass
class RatioConfiguration:
    """The ratio pattern normalized by the (r+n)-th largest point.

    ``above`` holds the n-1 ratios >= 1, largest first; ``below`` the ratios
    in (epsilon, 1); ``w_rn`` the pivot-to-top ratio (None when r = 0).
    """

    above: np.ndarray
    below: np.ndarray
    w_rn: Optional[float]


def _validate_epsilon_cap(epsilon: float, cap: int):
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if cap < 1:  # cap counts arrivals past the head
        raise ValueError("cap must be at least 1")


def _validate_ratio_args(t: float, r: int, n: int, epsilon: float, cap: int):
    if r < 0 or n < 1:
        raise ValueError("require r >= 0 and n >= 1")
    _validate_epsilon_cap(epsilon, cap)
    if not t > 0:
        raise ValueError("t must be positive")


def _validate_nb_args(n: int, alpha: float, epsilon: float, method: str, cap: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < alpha < math.inf:  # alpha = inf puts every point at 1: no finite count
        raise ValueError("alpha must be positive and finite")
    _validate_epsilon_cap(epsilon, cap)
    try:
        epsilon**-alpha  # the points' scale, computed as the samplers do
    except OverflowError:
        raise ValueError(f"epsilon**-alpha overflows for epsilon={epsilon!r}, "
                         f"alpha={alpha!r}") from None
    if method not in NB_METHODS:
        raise ValueError(f"unknown sampler method: {method!r}")


# ---------------------------------------------------------------------------
# the ragged engine, the count-first draw and the open-ended constructions


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


def _extend(master_seed, streams, start, bound, cap, on_round=None):
    """Each row's count of arrivals below ``bound[row]``, walked from counter ``start``.

    Row ``i`` reads stream ``streams[i]`` from counter ``start`` on, its
    arrivals counted from 0 at that counter.  Each round draws the next
    width of :func:`_round_widths` for every row still active (at most
    ``_CHUNK`` counters per row), one slab of consecutive active rows at a
    time (:func:`_slabs`: at most ``_SLAB`` counters), each as a line-major
    ``(width, slab rows)`` array of arrivals (:func:`_arrivals`).  The
    arrivals below their row's bound are kept, a prefix of each column,
    and ``on_round(rows, arr, kept)`` sees every slab's arrivals and mask.
    A row's draws, sums and hook calls do not depend on the slab it falls
    in.  An active row has kept every arrival it drew, so the walk stops
    once those exceed ``cap``, and :func:`_capped` marks its row.
    """
    counts = np.zeros(streams.size, dtype=np.int64)
    last = np.zeros(streams.size)
    act = np.arange(streams.size)
    offset = start
    widths = _round_widths()
    while act.size and offset - start <= cap:
        width = next(widths)
        live = np.empty(act.size, dtype=bool)
        for lo, rows in _slabs(act, width):
            arr = _arrivals(master_seed, streams[rows], offset, width)
            arr += last[rows]
            kept = arr < bound[rows]
            if on_round is not None:
                on_round(rows, arr, kept)
            k = np.count_nonzero(kept, axis=0)
            counts[rows] += k
            last[rows] = arr[-1]
            live[lo:lo + rows.size] = k == width
            del arr, kept  # freed before the next slab is drawn
        act = act[live]
        offset += width
    return _capped(counts, cap)


def _poisson_quantile(mu, u):
    """Smallest ``k >= 0`` with ``pdtr(k, mu) >= u``, row by row, as float64.

    Rows with ``u > 1/2`` test ``pdtrc(k, mu) <= 1 - u`` instead (``1 - u``
    is exact there), so the upper tail keeps its relative precision.  A row
    with ``mu <= 0`` (or nan) counts 0, as a walk whose bound lies at its
    start keeps no arrival; ``mu = inf``, or above ``2**52``, where counts
    are no longer a float64 unit step apart, counts inf.

    Each row takes the first of three searches that counts it, chosen from
    its own ``(mu, u)``: a chop-down sum from 0 (``mu < _CHOP_MU``) or
    Giles's central start with its proven error bound (``mu >= _CHOP_MU``,
    no special function but one ``ndtri``), each certifying ``k`` only where
    its error bound leaves it no other integer, then :func:`_gallop` on the
    test itself from the central start (from ``_CHOP_STEPS`` below
    ``_CHOP_MU``: but for near-ties, the chop-down leaves only larger
    counts).  So every row gets the count of the test (Giles, "Algorithm
    955", ACM TOMS 42(1), 2016).  That count is exact to the integer for
    ``mu <= 1e5``, and beyond it wherever the first two searches certify
    it.  Other rows are exact to scipy's test only, which loses accuracy in
    the upper tail past about 4.5 standard deviations once ``mu`` exceeds
    about 3e5.
    """
    k = np.where(mu > _MU_MAX, math.inf, -1.0)  # -1: not counted yet
    k[~(mu > 0)] = 0.0
    small = np.flatnonzero((mu > 0) & (mu < _CHOP_MU))
    k[small] = _chop_down(mu[small], u[small])
    start = np.full(mu.size, float(_CHOP_STEPS))  # where the chop-down stopped
    central = np.flatnonzero((mu >= _CHOP_MU) & (mu <= _MU_MAX))
    k[central], start[central] = _central(mu[central], u[central])
    rows = np.flatnonzero(k < 0)
    k[rows] = _gallop(mu[rows], u[rows], start[rows])
    return k


def _chop_down(mu, u):
    """Each row's count from the sums ``F(j) = pmf(0) + ... + pmf(j)``, j < ``_CHOP_STEPS``.

    A row is counted ``j`` where ``F(j - 1) < u - _TOL`` and ``F(j) >= u +
    _TOL``, else -1; a sum of at most 12 positive terms is good to 1e-14.
    """
    k = np.full(mu.size, -1.0)
    act = np.arange(mu.size)
    lo, hi = u - _TOL, u + _TOL
    p = np.exp(-mu)  # pmf(j)
    f = p.copy()  # F(j)
    for j in range(_CHOP_STEPS):
        k[act[f >= hi]] = j
        go = np.flatnonzero(f < lo)
        if not go.size:
            break
        act, mu, lo, hi, p, f = act[go], mu[go], lo[go], hi[go], p[go], f[go]
        p *= mu / (j + 1)
        f += p
    return k


def _central(mu, u):
    """Each row's count from Giles's central normal-asymptotic start where it is certain, else -1.

    With ``w = ndtri(u)`` and ``r = sqrt(mu)``, the start is ``s = mu + r w
    + (1/3 + w^2/6) (1 - w / (12 r)) + delta``, ``delta = (1/40 + w^2/80 +
    w^4/160) / mu``.  For ``|w| < 3`` and ``mu >= _CHOP_MU`` it lies above
    the continuous ``y`` with ``Q(y, mu) = u`` (the regularized upper
    incomplete gamma, so that ``pdtr(k, mu) = Q(k + 1, mu)``) by less than
    ``2 delta`` (Giles 2016, after Temme 1979), and the count is
    ``floor(y)``.  So ``floor(s)`` is certified where the fraction of ``s``
    clears ``2 delta`` below and the rounding of ``s`` on both sides: about
    99% of uniforms.  ``mu`` must lie in ``[_CHOP_MU, _MU_MAX]``.  Returns
    the counts and every row's ``s``, the start of :func:`_gallop`.
    """
    w = ndtri(u)
    np.clip(w, -40.0, 40.0, out=w)  # u = 0 or 1: a finite start, and no inf - inf
    r = np.sqrt(mu)
    w2 = w * w
    delta = w2 / 160.0
    delta += 1.0 / 80.0
    delta *= w2
    delta += 1.0 / 40.0
    delta /= mu
    # (1/3 + w^2/6) (1 - w / (12 r))
    corr = w / (12.0 * r)
    np.subtract(1.0, corr, out=corr)
    w2 /= 6.0
    w2 += 1.0 / 3.0
    corr *= w2
    s = r
    s *= w
    s += mu
    s += corr
    s += delta
    k = np.floor(s)
    frac = s - k
    # the rounding of s: a few units in its last place
    slack = np.abs(s, out=w2)
    slack *= 8e-16
    slack += 1e-13
    sure = frac < 1.0 - slack
    delta *= 2.0
    delta += slack
    sure &= frac > delta
    sure &= np.abs(w) < 3.0
    k[~sure] = -1.0
    return k, s


def _gallop(mu, u, start):
    """Each row's count by the test itself, searched from ``start``; for rows no sum certifies.

    The test (as in :func:`_poisson_quantile`) is taken at ``max(floor(start),
    0)``; the search then gallops away from it, down where it holds and up
    where it fails, by steps of 1, 2, 4, ... until it flips, and bisects the
    bracket.  It relies only on the test being monotone in ``k`` (Bentley and
    Yao, "An almost optimal algorithm for unbounded searching", IPL 5(3),
    1976), so ``start`` sets the cost, never the count.
    """
    upper = u > 0.5
    q = np.minimum(u, 1.0 - u)

    def holds(k, rows):
        m, v, up = mu[rows], q[rows], upper[rows]
        h = np.empty(k.size, dtype=bool)
        h[up] = pdtrc(k[up], m[up]) <= v[up]
        low = ~up
        h[low] = pdtr(k[low], m[low]) >= v[low]
        return h

    k = np.maximum(np.floor(start), 0.0)
    down = holds(k, slice(None))
    lo = np.where(down, -1.0, k)  # the test fails at lo and holds at hi:
    hi = np.where(down, k, 2.0**53)  # pdtr is 1 and pdtrc 0 there for mu <= 2**52
    galloping = np.ones(mu.size, dtype=bool)
    rows = np.flatnonzero(hi - lo > 1)
    step = 1.0
    while rows.size:
        a, b = lo[rows], hi[rows]
        # a galloping row probes ``step`` past its last probe, inside the bracket
        k = np.where(down[rows], np.maximum(b - step, a + 1), np.minimum(a + step, b - 1))
        k = np.where(galloping[rows], k, np.floor((a + b) / 2))
        h = holds(k, rows)
        galloping[rows] &= h == down[rows]  # the test flipped: bisect from now on
        hi[rows] = np.where(h, k, b)
        lo[rows] = np.where(h, a, k)
        rows = rows[hi[rows] - lo[rows] > 1]
        step *= 2.0
    return hi


def _draw_counts(master_seed, streams, counter, mu, cap):
    """Each row's Poisson(``mu``) count, inverted from its uniform at ``counter``.

    A count above ``cap`` (``mu = inf`` among them) comes back as -1
    (:func:`_capped`), so a caller sees it before placing any point.
    """
    return _capped(_poisson_quantile(mu, uniforms_at(master_seed, streams, counter)), cap)


def _capped(counts, cap):
    """``counts`` as int64, with -1 for each row whose count exceeds ``cap`` (or is inf).

    ``counts`` is the caller's own array and is marked in place.
    """
    # finite counts stay below 2**53, so a larger cap lets them all through
    counts[~(counts <= min(cap, 2**53))] = -1
    return counts.astype(np.int64, copy=False)


def _check_cap(counts, cap):
    """``counts`` (from :func:`_capped`); :class:`TruncationError` counting the rows marked -1.

    A batch calls it once on all its rows, so the message does not depend
    on the row block or the thread count.
    """
    over = np.count_nonzero(counts < 0)
    if over:
        raise TruncationError(
            f"more than cap={cap} arrivals before the epsilon crossing in {over} of "
            f"{counts.size} rows (epsilon or cap too small)"
        )
    return counts


def _ratio_head(model, t, r, n, master_seed, streams, start):
    """Last head arrival, log pivot, above ratios and w_rn (or None) per row.

    Only the lines ``max(r - 1, 0) .. r + n - 1`` of the head are inverted.
    """
    g = _arrivals(master_seed, streams, start, r + n)
    lp = _log_lines(model, t, g, slice(max(r - 1, 0), None))
    pivot = lp[-1]
    with np.errstate(over="ignore"):
        above = _rows(np.exp(lp[-n:-1] - pivot))
    if not np.all(np.isfinite(above)):
        raise ValueError(f"above-1 ratios exceed float64 at t={t!r}; take a larger t")
    w = np.exp(pivot - lp[0]) if r >= 1 else None
    return g[-1], pivot, above, w


def _ratio_bound(model, t, epsilon, pivot):
    """Each row's arrival bound ``t * tail(epsilon * X_p)``, from its log pivot point.

    A later point's ratio to the pivot X_p exceeds epsilon exactly when its
    arrival lies below it.  Where it overflows it is inf, and so is the
    row's count: the row truncates.
    """
    with np.errstate(over="ignore"):
        return t * tail_at_log(model, math.log(epsilon) + pivot)


def _negbin_rows(n, alpha, epsilon, method, master_seed, streams, start, cap,
                 on_points=None):
    """Counts of the limiting process on (epsilon, 1), each row read from ``start`` on.

    ``on_points(rows, x, mask)`` receives the points in chunks; without it
    no ``mixed_poisson`` point is placed.
    """
    inv_alpha = 1.0 / alpha
    ea = epsilon**-alpha
    g = _arrivals(master_seed, streams, start, n)[-1].copy()  # not a view holding all n lines
    if method == LIMIT_RATIOS:
        def transform(rows, arr, kept):
            # row-major points, so a probe sums each row along a contiguous axis
            x = np.divide(arr.T, g[rows, None], order="C")
            x += 1.0
            x **= -inv_alpha
            on_points(rows, x, np.ascontiguousarray(kept.T))

        return _extend(master_seed, streams, start + n, g * (ea - 1.0), cap,
                       transform if on_points is not None else None)

    # mixed_poisson: the arrivals past the head below g * (ea - 1) number
    # Poisson(g * (ea - 1)), the gamma-mixed Poisson count, drawn from the
    # counter after the head; then place that many i.i.d. points by inverse
    # CDF of the truncated base density, one counter each.  Each slab is
    # drawn whole; ``mask`` marks the cells within a row's count, and every
    # consumer reads only those.
    # Chunk widths follow the engine's round schedule, and rows are taken in
    # slabs as in the engine, so a row's chunks, and with them its probe
    # sum, do not depend on the other rows of its block.
    counts = _draw_counts(master_seed, streams, start + n, g * (ea - 1.0), cap)
    if on_points is not None and counts.min() >= 0:  # nothing is returned past the cap
        max_count = int(counts.max())
        col = 0
        for width in _round_widths():
            if col >= max_count:
                break
            cols = col + np.arange(width)
            for _, idx in _slabs(np.flatnonzero(counts > col), width):
                mask = cols < counts[idx, None]
                u = uniforms_at(master_seed, streams[idx, None], start + n + 1 + cols)
                on_points(idx, (ea - u * (ea - 1.0)) ** -inv_alpha, mask)
            col += width
    return counts


# ---------------------------------------------------------------------------
# single-trial samplers


def sample_gamma_arrivals(count: int, rng: RngStream) -> np.ndarray:
    """First ``count`` arrivals of a unit-rate Poisson process."""
    if count < 1:
        raise ValueError("count must be >= 1")
    gammas = _arrivals(rng.master_seed, np.array([rng.stream_index]), rng.cursor, count)
    rng.cursor += count
    return gammas[:, 0]


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
    return OrderedSample(gammas=gammas, points=points)


def sample_ratio_configuration(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    epsilon: float,
    rng: RngStream,
    cap: int = 1_000_000,
) -> RatioConfiguration:
    """One ratio configuration: the head, then the below ratios down to epsilon.

    Given the head, the arrivals past the pivot's are a unit-rate Poisson
    process, so those below the row's bound number Poisson(bound - pivot
    arrival) and, given their count, are i.i.d. uniform between the two.
    Reads ``rng`` from its cursor: the head's ``r + n`` counters, one for
    the count, then one per below ratio, where it leaves the cursor.
    """
    _validate_ratio_args(t, r, n, epsilon, cap)
    streams = np.array([rng.stream_index])
    last, pivot, above, w = _ratio_head(model, t, r, n, rng.master_seed, streams,
                                        rng.cursor)
    mu = _ratio_bound(model, t, epsilon, pivot) - last
    at = rng.cursor + r + n  # the count's counter
    count = int(_check_cap(_draw_counts(rng.master_seed, streams, at, mu, cap), cap)[0])
    u = uniforms_at(rng.master_seed, rng.stream_index, at + 1 + np.arange(count))
    arrivals = np.sort(last[0] + mu[0] * u)
    rng.cursor = at + 1 + count
    return RatioConfiguration(
        above=above[0],
        below=np.exp(ordered_log_points(model, t, arrivals) - pivot[0]),
        w_rn=float(w[0]) if w is not None else None,
    )


def sample_negbin_process(
    n: int,
    alpha: float,
    epsilon: float,
    method: str,
    rng: RngStream,
    cap: int = 1_000_000,
) -> np.ndarray:
    """One draw of the limiting below-1 point process, restricted to (epsilon, 1).

    ``limit_ratios`` realizes the points as transformed Poisson arrival
    ratios; ``mixed_poisson`` draws a gamma-mixed Poisson count and then
    i.i.d. points from the normalized base density.  Both constructions
    target the identical law.  Returns the points as a 1-D float64 array.
    The draw reads ``rng`` from its cursor and leaves the cursor just after
    the last counter consumed.
    """
    _validate_nb_args(n, alpha, epsilon, method, cap)
    points: list[np.ndarray] = []

    def collect(rows, x, mask):
        points.append(x[0, mask[0]])

    counts = _check_cap(_negbin_rows(n, alpha, epsilon, method, rng.master_seed,
                                     np.array([rng.stream_index]), rng.cursor, cap, collect),
                        cap)
    rng.cursor += n + 1 + int(counts[0])
    return np.concatenate(points) if points else np.empty(0)


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
                    threads: Optional[int], stream_start: int,
                    block_rows: Optional[int] = None):
    """Apply fn(row_offset, n_rows) over fixed row blocks, written into one preallocated output.

    Blocks of ``block_rows`` rows (None: ``_ROW_BLOCK``) keep a block's
    temporaries cache-sized and bound peak memory.  Block 0 runs first;
    each output column is then allocated once, with block 0's dtype and
    trailing shape, and every block writes its slice of it and drops its
    part, so no list of parts and no concatenated copy is held.  A tuple
    result is handled column by column; a column that is None stays None.
    A single block's result is returned as it is.  Block boundaries are
    fixed, so the output is identical for any thread count.  ``threads``
    None means :func:`_default_threads`; an explicit count overrides it and
    must be at least 1.  Rows read streams ``stream_start .. stream_start + n_trials -
    1``, which must all lie in ``[0, 2**64)``.
    """
    threads = _resolve_threads(threads)
    if n_trials < 1:
        raise ValueError("trials must be >= 1")
    first_stream = operator.index(stream_start)
    if first_stream < 0 or first_stream + n_trials > 2**64:
        raise ValueError(f"stream indices stream_start={stream_start} to stream_start + "
                         f"{n_trials} - 1 must lie in [0, 2**64)")
    step = _ROW_BLOCK if block_rows is None else block_rows
    first = fn(0, min(step, n_trials))
    if n_trials <= step:
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
    offsets = range(step, n_trials, step)

    def run(offset: int) -> None:
        write(offset, fn(offset, min(step, n_trials - offset)))

    _run_blocks(run, offsets, threads)
    return out if is_tuple else out[0]


def _open_block_rows() -> int:
    """Rows per block of the open-ended batch samplers: ``2 * _ROW_BLOCK``, read when called.

    Their blocks make many short numpy calls per row (the count search, the
    engine's rounds, the placement chunks), each passing the interpreter
    lock between threads, so larger blocks amortise them; the dense
    samplers' arrays would leave the cache at that size.
    """
    return 2 * _ROW_BLOCK


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
    w = log_pivot_ratio_batch(model, t, r, n, n_trials, master_seed, stream_start, threads)
    return np.exp(w, out=w)


def log_pivot_ratio_batch(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Per-trial log pivot ratios, log(r+n-th / r-th largest point); requires r, n >= 1.

    The log stays finite where the ratio itself underflows to 0.
    """
    if r < 1 or n < 1:
        raise ValueError("the pivot ratio requires r >= 1 and n >= 1")
    # columns r-1 and r+n-1 only
    return _map_log_points(model, t, r + n, slice(r - 1, None, n),
                           lambda lp: lp[1] - lp[0], n_trials, master_seed,
                           stream_start, threads)


def log_successive_ratio_batch(
    model: TailModel,
    t: float,
    r: int,
    count: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Matrix of log successive below-1 ratios, log R_k, k = r .. r+count-1 (columns)."""
    if r < 1 or count < 1:
        raise ValueError("require r >= 1 and count >= 1")
    return _map_log_points(model, t, r + count, slice(r - 1, None),
                           lambda lp: _rows(lp[1:] - lp[:-1]), n_trials,
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


def log_pivot_ratio_with_scales_batch(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    n_trials: int,
    master_seed: int,
    stream_start: int = 0,
    threads: Optional[int] = None,
):
    """Per-trial (log W, Z, A): log pivot ratio, pivot time scale, top time scale.

    Z = t*tail(r+n-th largest), A = t*tail(r-th largest); used by the
    conditional-law checks.  Requires r >= 1 and n >= 1.
    """
    if r < 1 or n < 1:
        raise ValueError("require r >= 1 and n >= 1")

    def scales(lp):  # columns r-1 and r+n-1 only
        return lp[1] - lp[0], t * tail_at_log(model, lp[1]), t * tail_at_log(model, lp[0])

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
        mu = _ratio_bound(model, t, epsilon, pivot) - last
        return above, w, _draw_counts(master_seed, streams, r + n, mu, cap)

    above, w, counts = _map_row_blocks(block, n_trials, threads, stream_start,
                                       _open_block_rows())
    return above, w, _check_cap(counts, cap)


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
    _validate_nb_args(n, alpha, epsilon, method, cap)

    def block(offset: int, rows: int):
        streams = _block_streams(stream_start + offset, rows)
        if probe is None:
            return _negbin_rows(n, alpha, epsilon, method, master_seed, streams, 0, cap), None
        sums = np.zeros(rows)

        def reduce(idx, x, mask):
            sums[idx] += np.sum(np.where(mask, probe(x), 0.0), axis=1)

        return _negbin_rows(n, alpha, epsilon, method, master_seed, streams, 0, cap, reduce), sums

    counts, sums = _map_row_blocks(block, n_trials, threads, stream_start, _open_block_rows())
    return _check_cap(counts, cap), sums
