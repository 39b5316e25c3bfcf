import itertools
import math
import os
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

from ppratios import samplers as sp
from ppratios import tail_models as tm
from ppratios.rng import RngStream, uniform_grid
from ppratios.verify import (
    EmpiricalDistribution,
    ks_distance,
    two_sample_ks,
    two_sample_threshold,
)


# --- gamma arrivals ---------------------------------------------------------


def test_gamma_arrivals_increasing_positive():
    g = sp.sample_gamma_arrivals(100, RngStream(3, 0))
    assert np.all(np.diff(g) > 0) and g[0] > 0


def test_gamma_arrival_moments_at_scale():
    g = sp.gamma_matrix(101, 1_000_000, 5)
    assert g[:, 0].mean() == pytest.approx(1.0, abs=0.01)
    assert g[:, 4].mean() == pytest.approx(5.0, abs=0.02)


def test_gamma_ratio_uniform_ks():
    # Gamma_1/Gamma_2 is Uniform(0,1): KS below 0.002 at 10^6 trials
    g = sp.gamma_matrix(2718, 1_000_000, 2)
    ratio = g[:, 0] / g[:, 1]
    emp = EmpiricalDistribution.from_samples(ratio)
    assert ks_distance(emp, lambda x: np.clip(x, 0, 1)) < 0.002


def test_gamma_matrix_rows_replay_streams():
    g = sp.gamma_matrix(55, 10, 4, stream_start=20)
    for i in (0, 3, 9):
        single = sp.sample_gamma_arrivals(4, RngStream(55, 20 + i))
        assert np.array_equal(g[i], single)


# --- ordered points ---------------------------------------------------------


def test_ordered_points_pareto_closed_form():
    s = sp.sample_ordered_points(tm.pareto(1.0), 1.0, 8, RngStream(7, 1))
    assert np.allclose(s.points, 1.0 / s.gammas, rtol=1e-12)


def test_ordered_points_nonincreasing_many_trials():
    model = tm.pareto_log(1.0, 1.5)
    for i in range(200):
        s = sp.sample_ordered_points(model, 0.3, 6, RngStream(11, i))
        assert np.all(np.diff(s.points) <= 0)


@pytest.mark.parametrize("model", [tm.pareto(0.5), tm.pareto_log(1.0, 2.0),
                                   tm.pareto_perturbed(1, 1, 1),
                                   tm.rapid_zero(), tm.slow_zero()])
def test_log_points_nonincreasing_at_scale(model):
    # every realization keeps the ordering, 10^5 trials per family
    lp = sp.ordered_log_points_batch(model, 0.2, 5, 100_000, 23)
    assert np.all(np.diff(lp, axis=1) <= 0)


def test_ordered_points_deterministic():
    a = sp.sample_ordered_points(tm.pareto(2.0), 0.5, 5, RngStream(9, 4))
    b = sp.sample_ordered_points(tm.pareto(2.0), 0.5, 5, RngStream(9, 4))
    assert np.array_equal(a.points, b.points) and np.array_equal(a.gammas, b.gammas)


@pytest.mark.parametrize("model", [tm.pareto(1.5), tm.rapid_zero(), tm.slow_zero()])
def test_representation_consistency(model):
    # t * tail(point_i) recovers gamma_i for analytic-inverse families
    t = 0.7
    s = sp.sample_ordered_points(model, t, 6, RngStream(21, 5))
    assert np.allclose(t * tm.eval_tail(model, s.points), s.gammas, rtol=1e-9)


def test_time_scale_batch_gamma_law():
    # t * tail(k-th point) is Gamma(k, 1) exactly for the power family:
    # KS below 0.002 at 10^6 trials
    scales = sp.time_scale_batch(tm.pareto(2.0), 1.0, 2, 1_000_000, 33)
    for k in (1, 2):
        emp = EmpiricalDistribution.from_samples(scales[:, k - 1])
        assert ks_distance(emp, lambda z, k=k: gammainc(k, z)) < 0.002


@pytest.mark.parametrize("t", [1e-3, 1e-8])
def test_slow_zero_time_scales_are_the_arrivals(t):
    # t * tail(k-th point) is the k-th arrival exactly; at these t the slowly
    # varying family's points underflow float64, so the scales are taken
    # from their logs
    g = sp.gamma_matrix(1, 1000, 2)
    scales = sp.time_scale_batch(tm.slow_zero(), t, 2, 1000, 1)
    assert np.allclose(scales, g, rtol=1e-15, atol=0)
    _, z, a = sp.pivot_ratio_with_scales_batch(tm.slow_zero(), t, 1, 1, 1000, 1)
    assert np.allclose(np.column_stack([a, z]), g, rtol=1e-15, atol=0)


# --- ratio configurations ---------------------------------------------------


def test_ratio_configuration_invariants():
    model = tm.pareto(1.0)
    for i in range(100):
        cfg = sp.sample_ratio_configuration(model, 0.5, 2, 3, 0.2, RngStream(13, i))
        assert cfg.above.size == cfg.n - 1
        assert np.all(cfg.above >= 1.0)
        assert np.all(np.diff(cfg.above) <= 0)
        assert np.all((cfg.below > cfg.epsilon) & (cfg.below <= 1.0))
        assert 0 < cfg.w_rn <= 1.0
        if cfg.above.size:
            assert cfg.w_rn * cfg.above[0] <= 1.0 + 1e-12
    cfg0 = sp.sample_ratio_configuration(model, 0.5, 0, 2, 0.2, RngStream(13, 1))
    assert cfg0.w_rn is None


def test_ratio_configuration_above_exact_for_pareto():
    # the representation cancels t: above ratios are pure gamma powers
    alpha, r, n = 2.0, 1, 3
    rng = RngStream(41, 2)
    cfg = sp.sample_ratio_configuration(tm.pareto(alpha), 0.25, r, n, 0.1, rng)
    g = sp.sample_gamma_arrivals(r + n, RngStream(41, 2))
    expected = (g[r : r + n - 1] / g[r + n - 1]) ** (-1.0 / alpha)
    assert np.allclose(cfg.above, expected, rtol=1e-12)
    # the cursor sits just after the crossing arrival
    assert rng.cursor == r + n + cfg.below.size + 1


def test_ratio_configuration_truncation_error():
    with pytest.raises(sp.TruncationError) as err:
        sp.sample_ratio_configuration(
            tm.pareto(1.0), 1.0, 1, 1, 1e-6, RngStream(1, 0), cap=50)
    assert err.value.partial is not None
    assert err.value.partial.below.size > 0


@pytest.mark.parametrize("model", [tm.pareto(1.3), tm.pareto_log(1.0, 1.5),
                                   tm.pareto_perturbed(1, 1, 1),
                                   tm.rapid_zero(), tm.slow_zero()], ids=lambda m: m.kind)
def test_ratio_configuration_batch_rows_match_single_trials(model):
    above, w, counts = sp.ratio_configuration_batch(model, 0.05, 1, 3, 0.5, 40, 19,
                                                    stream_start=7)
    for i in (0, 13, 39):
        cfg = sp.sample_ratio_configuration(model, 0.05, 1, 3, 0.5, RngStream(19, 7 + i))
        assert np.array_equal(above[i], cfg.above)
        assert w[i] == cfg.w_rn
        assert counts[i] == cfg.below.size


def _same_bytes(a, b) -> bool:
    """Whether two outputs (arrays or None) hold the same dtype, shape and raw bytes."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: (engine slab size, threads) runs: the module's slab at every thread
#: setting, and slabs of 64 counters, one row per slab once rounds are 64 wide.
_SLAB_RUNS = [(sp._SLAB, 1), (sp._SLAB, 2), (sp._SLAB, None), (64, 1), (64, 2)]


def test_ratio_configuration_blocks_and_threads_do_not_change_output(monkeypatch):
    args = (tm.pareto_log(1.0, 1.5), 0.01, 1, 2, 0.1, 5_000, 61)
    whole = sp.ratio_configuration_batch(*args)
    monkeypatch.setattr(sp, "_ROW_BLOCK", 1_024)
    for slab, threads in _SLAB_RUNS:
        monkeypatch.setattr(sp, "_SLAB", slab)
        blocked = sp.ratio_configuration_batch(*args, threads=threads)
        for a, b in zip(whole, blocked):
            assert _same_bytes(a, b), (slab, threads)


def test_dense_batches_blocks_and_threads_do_not_change_output(monkeypatch):
    model = tm.pareto_perturbed(1.0, 1.0, 1.0)
    rows = sp._ROW_BLOCK + 1_000  # two blocks at the module's block size
    calls = {
        "gamma_matrix": lambda threads: sp.gamma_matrix(5, rows, 3, 9, threads),
        "ordered_log_points_batch": lambda threads: sp.ordered_log_points_batch(
            model, 0.1, 3, rows, 5, 9, threads),
        "time_scale_batch": lambda threads: sp.time_scale_batch(
            model, 0.1, 3, rows, 5, 9, threads),
        "pivot_ratio_with_scales_batch": lambda threads: sp.pivot_ratio_with_scales_batch(
            model, 0.1, 1, 2, rows, 5, 9, threads),
    }
    for name, call in calls.items():
        whole = np.asarray(call(1))  # a tuple of columns stacks into rows
        for block in (sp._ROW_BLOCK, 1_024):
            with monkeypatch.context() as m:
                m.setattr(sp, "_ROW_BLOCK", block)
                for threads in (1, 2, None):
                    out = np.asarray(call(threads))
                    assert np.array_equal(whole, out), (name, block, threads)


def _row_major_dense(model, t, stream_start, rows):
    """Every dense sampler in row-major form, kept as a reference.

    Each draws the ``(rows, columns)`` uniform grid, sums it with
    ``np.cumsum(axis=1)`` and inverts every column.
    """

    def arrivals(count):
        return np.cumsum(-np.log(uniform_grid(5, stream_start, rows, count)), axis=1)

    def log_points(count):
        return sp.ordered_log_points(model, t, arrivals(count))

    def scale(lp):
        return t * tm.tail_at_log(model, lp)

    lp5, lp3 = log_points(5), log_points(3)
    head = log_points(4)  # r = 1, n = 3
    return {
        "gamma_matrix": arrivals(4),
        "ordered_log_points_batch": log_points(4),
        "pivot_ratio_batch": np.exp(lp5[:, 4] - lp5[:, 1]),
        "successive_ratio_batch": np.exp(lp5[:, 2:] - lp5[:, 1:-1]),
        "log_trim_ratio_batch": lp3[:, 1] - lp3[:, 2],
        "time_scale_batch": scale(log_points(4)),
        "pivot_ratio_with_scales_batch": (np.exp(lp5[:, 4] - lp5[:, 1]), scale(lp5[:, 4]),
                                          scale(lp5[:, 1])),
        "ratio_head": (arrivals(4)[:, -1], head[:, 3], np.exp(head[:, 1:3] - head[:, 3:]),
                       np.exp(head[:, 3] - head[:, 0])),
    }


def _line_major_dense(model, t, stream_start, rows, threads):
    streams = sp._block_streams(stream_start, rows)
    run = (rows, 5, stream_start, threads)
    return {
        "gamma_matrix": sp.gamma_matrix(5, rows, 4, stream_start, threads),
        "ordered_log_points_batch": sp.ordered_log_points_batch(model, t, 4, *run),
        "pivot_ratio_batch": sp.pivot_ratio_batch(model, t, 2, 3, *run),
        "successive_ratio_batch": sp.successive_ratio_batch(model, t, 2, 3, *run),
        "log_trim_ratio_batch": sp.log_trim_ratio_batch(model, t, 2, *run),
        "time_scale_batch": sp.time_scale_batch(model, t, 4, *run),
        "pivot_ratio_with_scales_batch": sp.pivot_ratio_with_scales_batch(model, t, 2, 3, *run),
        "ratio_head": sp._ratio_head(model, t, 1, 3, 5, streams, 0),
    }


@pytest.mark.parametrize("model", [tm.pareto(1.3), tm.pareto_log(1.0, 1.5),
                                   tm.pareto_log(2.0, -0.5), tm.pareto_perturbed(1, 1, 1),
                                   tm.rapid_zero(), tm.slow_zero()],
                         ids=["pareto", "pareto_log_beta_pos", "pareto_log_beta_neg",
                              "pareto_perturbed", "rapid_zero", "slow_zero"])
def test_line_major_dense_samplers_match_the_row_major_reference(monkeypatch, model):
    # each counter is one contiguous line and the running sum takes
    # np.cumsum's order, so every value is bit-identical to the row-major
    # block, over one block and over three
    t, stream_start, rows = 0.05, 11, 2_500
    reference = _row_major_dense(model, t, stream_start, rows)
    for block in (sp._ROW_BLOCK, 1_000):
        with monkeypatch.context() as m:
            m.setattr(sp, "_ROW_BLOCK", block)
            for threads in (1, 2):
                got = _line_major_dense(model, t, stream_start, rows, threads)
                for name, expected in reference.items():
                    _assert_same_columns(expected, got[name], (name, block, threads))


# --- row blocks written into one preallocated output -------------------------

_BLOCK = 64  # rows per block in the tests below, so that a few blocks stay small
_MODEL = tm.pareto_perturbed(1.0, 1.0, 1.0)
# every batch sampler as (n_trials, stream_start, threads) -> output
_BATCHES = {
    "gamma_matrix": lambda m, s, th: sp.gamma_matrix(5, m, 3, s, th),
    "ordered_log_points_batch": lambda m, s, th: sp.ordered_log_points_batch(
        _MODEL, 0.1, 3, m, 5, s, th),
    "pivot_ratio_batch": lambda m, s, th: sp.pivot_ratio_batch(
        _MODEL, 0.1, 1, 2, m, 5, s, th),
    "successive_ratio_batch": lambda m, s, th: sp.successive_ratio_batch(
        _MODEL, 0.1, 1, 2, m, 5, s, th),
    "log_trim_ratio_batch": lambda m, s, th: sp.log_trim_ratio_batch(
        _MODEL, 0.1, 1, m, 5, s, th),
    "time_scale_batch": lambda m, s, th: sp.time_scale_batch(
        _MODEL, 0.1, 3, m, 5, s, th),
    "pivot_ratio_with_scales_batch": lambda m, s, th: sp.pivot_ratio_with_scales_batch(
        _MODEL, 0.1, 1, 2, m, 5, s, th),
    # r = 0: the w_rn column is None
    "ratio_configuration_batch": lambda m, s, th: sp.ratio_configuration_batch(
        _MODEL, 0.1, 0, 3, 0.3, m, 5, s, threads=th),
    # no probe: the probe-sum column is None
    "negbin_batch": lambda m, s, th: sp.negbin_batch(
        2, 1.0, 0.3, sp.MIXED_POISSON, m, 5, s, threads=th),
    "negbin_batch_probe": lambda m, s, th: sp.negbin_batch(
        2, 1.0, 0.3, sp.LIMIT_RATIOS, m, 5, s, probe=lambda x: x, threads=th),
}


def _columns(out):
    return out if isinstance(out, tuple) else (out,)


def _assert_same_columns(expected, actual, label):
    assert len(_columns(expected)) == len(_columns(actual)), label
    for a, b in zip(_columns(expected), _columns(actual)):
        if a is None:
            assert b is None, label
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), label
        assert a.tobytes() == b.tobytes(), label


@pytest.mark.parametrize("n_trials", [_BLOCK - 1, 3 * _BLOCK, 3 * _BLOCK + 1],
                         ids=["below_one_block", "three_blocks", "three_blocks_plus_1"])
def test_blocked_output_equals_one_block(monkeypatch, n_trials):
    for name, call in _BATCHES.items():
        whole = call(n_trials, 7, 1)  # one block at the module's block size
        with monkeypatch.context() as m:
            m.setattr(sp, "_ROW_BLOCK", _BLOCK)
            for threads in (1, 2):
                _assert_same_columns(whole, call(n_trials, 7, threads),
                                     (name, threads))


def test_row_blocks_write_slices_and_return_one_block_unchanged(monkeypatch):
    monkeypatch.setattr(sp, "_ROW_BLOCK", _BLOCK)
    calls = []

    def fn(offset, rows):
        calls.append((offset, rows))
        col = np.arange(offset, offset + rows, dtype=np.int32)
        return col, None, np.stack([col, -col], axis=1).astype(np.float32)

    for threads in (1, 2):
        calls.clear()
        a, none, b = sp._map_row_blocks(fn, 2 * _BLOCK + 5, threads, 0)
        assert calls[0] == (0, _BLOCK)  # block 0 runs first, before the others
        assert sorted(calls) == [(0, _BLOCK), (_BLOCK, _BLOCK), (2 * _BLOCK, 5)]
        assert none is None and a.dtype == np.int32 and b.dtype == np.float32
        assert np.array_equal(a, np.arange(2 * _BLOCK + 5))
        assert np.array_equal(b, np.stack([a, -a], axis=1))
    part = np.arange(_BLOCK)
    assert sp._map_row_blocks(lambda offset, rows: part, _BLOCK, 2, 0) is part


def test_row_blocks_written_concurrently_lose_no_rows(monkeypatch):
    # more workers than cores and a short switch interval: every block's
    # slice of the shared output must still hold its own rows
    monkeypatch.setattr(sp, "_ROW_BLOCK", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = sp._map_row_blocks(lambda offset, rows: np.arange(offset, offset + rows),
                                 16 * 300 + 7, 8, 0)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.arange(16 * 300 + 7))


def test_row_blocks_raise_the_first_failing_block_for_any_thread_count(monkeypatch):
    monkeypatch.setattr(sp, "_ROW_BLOCK", _BLOCK)

    def fn(offset, rows):
        if offset >= 3 * _BLOCK:
            raise ValueError(f"block at row {offset}")
        return np.zeros(rows)

    for threads in (1, 2, 4):
        with pytest.raises(ValueError, match=f"block at row {3 * _BLOCK}$"):
            sp._map_row_blocks(fn, 8 * _BLOCK, threads, 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_dense_batch_peak_memory_stays_near_its_output(threads):
    # 2^20 rows: the output is 8 MiB.  Parts concatenated at the end held
    # about twice that; writing each block into one output holds about one
    # output plus the blocks in flight.
    import tracemalloc

    n_trials = 1 << 20
    tracemalloc.start()
    try:
        w = sp.pivot_ratio_batch(tm.pareto(1.0), 1.0, 1, 1, n_trials, 3, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.shape == (n_trials,)
    assert peak < 1.5 * w.nbytes, peak / w.nbytes


@pytest.mark.parametrize("threads", [1, 2])
def test_engine_batch_peak_memory_is_its_output_and_a_few_slabs_per_thread(threads):
    # each engine round runs in slabs of at most _SLAB counters, so a
    # thread holds its block's per-row vectors and a few slab temporaries,
    # however many rows a round has active
    import tracemalloc

    per_thread = 8 * (16 * sp._ROW_BLOCK + 4 * sp._SLAB)  # bytes
    calls = {
        "negbin_batch": lambda: sp.negbin_batch(3, 2.0, 0.3, sp.LIMIT_RATIOS, 1 << 20, 3,
                                                threads=threads),
        "ratio_configuration_batch": lambda: sp.ratio_configuration_batch(
            tm.pareto(1.5), 0.01, 1, 2, 0.1, 1 << 18, 3, threads=threads),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(col.nbytes for col in out if col is not None)
        assert peak - size < threads * per_thread, (name, (peak - size) / per_thread)


@pytest.mark.parametrize("name", sorted(_BATCHES))
def test_batch_samplers_reach_the_last_stream_and_no_further(name):
    call = _BATCHES[name]
    last = 2**64 - 1
    top = call(4, last - 3, 2)
    _assert_same_columns(tuple(None if c is None else c[3:] for c in _columns(top)),
                         _columns(call(1, last, 2)), name)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        call(4, last - 2, 2)
    with pytest.raises(ValueError):
        call(4, -1, 2)


def test_last_stream_rows_equal_the_single_trial_forms():
    last = 2**64 - 1
    g = sp.gamma_matrix(5, 4, 3, last - 3)
    assert np.array_equal(g[3], sp.sample_gamma_arrivals(3, RngStream(5, last)))
    model = tm.pareto(1.0)
    above, w, counts = sp.ratio_configuration_batch(model, 0.1, 1, 3, 0.3, 4, 5, last - 3)
    cfg = sp.sample_ratio_configuration(model, 0.1, 1, 3, 0.3, RngStream(5, last))
    assert np.array_equal(above[3], cfg.above) and w[3] == cfg.w_rn
    assert counts[3] == cfg.below.size
    for method in sorted(sp.NB_METHODS):
        counts, _ = sp.negbin_batch(2, 1.0, 0.3, method, 4, 5, last - 3)
        single = sp.sample_negbin_process(2, 1.0, 0.3, method, RngStream(5, last))
        assert counts[3] == single.points.size


def test_default_threads_between_1_and_4(monkeypatch):
    assert 1 <= sp._default_threads() <= 4
    # without an affinity API the CPU count is used, and 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert sp._default_threads() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sp._default_threads() == 1


@pytest.mark.parametrize("n_trials", [0, -1])
def test_batch_rejects_nonpositive_trials(n_trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sp.gamma_matrix(5, n_trials, 3)


def test_single_and_batch_share_the_cap_rule():
    # a row whose crossing comes in the round after the boundary b (the
    # arrivals past the head that the first four rounds draw) truncates
    # under cap=b and completes under cap=b+1, in both forms
    b, b_next = np.cumsum(list(itertools.islice(sp._round_widths(), 5)))[3:]
    model, t, eps = tm.pareto(1.0), 1.0, 0.01
    _, _, counts = sp.ratio_configuration_batch(model, t, 0, 1, eps, 50, 5)
    i = int(np.flatnonzero((counts >= b) & (counts < b_next))[0])
    with pytest.raises(sp.TruncationError) as err:
        sp.sample_ratio_configuration(model, t, 0, 1, eps, RngStream(5, i), cap=b)
    assert err.value.partial.below.size == b
    with pytest.raises(sp.TruncationError):
        sp.ratio_configuration_batch(model, t, 0, 1, eps, 1, 5, stream_start=i, cap=b)
    cfg = sp.sample_ratio_configuration(model, t, 0, 1, eps, RngStream(5, i), cap=b + 1)
    _, _, one = sp.ratio_configuration_batch(model, t, 0, 1, eps, 1, 5, stream_start=i,
                                             cap=b + 1)
    assert cfg.below.size == one[0] == counts[i]
    for method in sp.NB_METHODS:
        c, _ = sp.negbin_batch(1, 1.0, 1 / 101, method, 50, 5)
        i = int(np.flatnonzero((c >= b) & (c < b_next))[0])
        with pytest.raises(sp.TruncationError):
            sp.sample_negbin_process(1, 1.0, 1 / 101, method, RngStream(5, i), cap=b)
        with pytest.raises(sp.TruncationError):
            sp.negbin_batch(1, 1.0, 1 / 101, method, 1, 5, stream_start=i, cap=b)
        single = sp.sample_negbin_process(1, 1.0, 1 / 101, method, RngStream(5, i),
                                          cap=b + 1)
        one, _ = sp.negbin_batch(1, 1.0, 1 / 101, method, 1, 5, stream_start=i, cap=b + 1)
        assert single.points.size == one[0] == c[i]


def test_round_schedule_doubles_to_the_widest_round():
    widths = list(itertools.islice(sp._round_widths(), 7))
    assert widths == [4, 8, 16, 32, 64, 64, 64] and sp._CHUNK == 64
    assert np.cumsum(widths)[:6].tolist() == [4, 12, 28, 60, 124, 188]


def _row_major_extend(master_seed, streams, start, last, accept, cap, on_round=None):
    """The engine's round in its earlier row-major order, kept as a reference.

    Each round draws an ``(active rows, width)`` array and sums it with
    ``np.cumsum(axis=1)``.  The hooks take the engine's round-major layout,
    so they see the transposes.
    """
    counts = np.zeros(streams.size, dtype=np.int64)
    finish = np.empty(streams.size, dtype=np.int64)
    last = np.array(last, dtype=float)
    act = np.arange(streams.size)
    offset = start
    widths = sp._round_widths()
    while act.size:
        if offset - start >= cap:
            raise sp.TruncationError(f"cap={cap}")
        width = next(widths)
        u = sp.uniforms_at(master_seed, streams[act, None], offset + np.arange(width))
        arr = last[act, None] + np.cumsum(-np.log(u), axis=1)
        kept, values = accept(act, arr.T)
        if on_round is not None:
            on_round(act, values, kept)
        k = kept.T.sum(axis=1)
        counts[act] += k
        done = k < width
        finish[act[done]] = offset + k[done] + 1
        last[act] = arr[:, -1]
        act = act[~done]
        offset += width
    return counts, finish


def _engine_outputs():
    """Every kind of output the engine feeds: counts, finish counters, float
    probe sums, single-trial points and cursors, ratio configurations."""
    from ppratios.limit_laws import LINEAR_RAMP, LaplaceProbe

    probe = LaplaceProbe(0.9, 0.1, 0.8, LINEAR_RAMP)
    rows = 3_000
    out = []
    for method in sorted(sp.NB_METHODS):
        out += sp.negbin_batch(2, 1.0, 0.05, method, rows, 61, probe=probe)
        out += sp._negbin_rows(2, 1.0, 0.05, method, 61, np.arange(rows), 0, 10**6)
        for i in (0, 1_500, rows - 1):
            rng = RngStream(61, i)
            out += [sp.sample_negbin_process(2, 1.0, 0.05, method, rng).points, rng.cursor]
    for model in (tm.pareto(1.3), tm.pareto_log(1.0, 1.5), tm.pareto_perturbed(1, 1, 1),
                  tm.rapid_zero(), tm.slow_zero()):
        out += sp.ratio_configuration_batch(model, 0.05, 1, 3, 0.5, rows, 61)
        for i in (0, rows - 1):
            rng = RngStream(61, i)
            cfg = sp.sample_ratio_configuration(model, 0.05, 1, 3, 0.5, rng)
            out += [cfg.above, cfg.below, cfg.w_rn, rng.cursor]
    return out


def test_round_major_engine_matches_the_row_major_reference(monkeypatch):
    # the running sum as whole-line adds takes np.cumsum's order, so every
    # output is bit-identical to the row-major round, over three row blocks
    monkeypatch.setattr(sp, "_ROW_BLOCK", 1_024)
    engine = _engine_outputs()
    monkeypatch.setattr(sp, "_extend", _row_major_extend)
    reference = _engine_outputs()
    assert len(engine) == len(reference)
    for i, (a, b) in enumerate(zip(engine, reference)):
        assert np.array_equal(a, b), i


def test_engine_draws_at_most_twice_what_it_consumes(monkeypatch):
    # mean count 1: a fixed wide round would draw far more than the rows use
    drawn = []
    real = sp.uniforms_at

    def counting(*args):
        u = real(*args)
        drawn.append(u.size)
        return u

    monkeypatch.setattr(sp, "uniforms_at", counting)
    n, rows = 1, 10_000
    for method, probe in itertools.product(sp.NB_METHODS, (None, np.sqrt)):
        drawn.clear()
        counts, _ = sp.negbin_batch(n, 1.0, 0.5, method, rows, 9, probe=probe)
        # consumed as in the cursor rule: n + count + 1, or n + 2*count + 1
        per_point = 2 if method == sp.MIXED_POISSON else 1
        consumed = int(np.sum(n + per_point * counts + 1))
        assert sum(drawn) <= 2 * consumed + 4 * rows


def test_ratio_configuration_mean_below_count():
    # mean below-count approaches E[Gamma_{r+n}] * (eps^-alpha - 1) = 1 for
    # r=0, n=1, alpha=1, eps=0.5 (mixed-Poisson mean)
    _, _, counts = sp.ratio_configuration_batch(
        tm.pareto(1.0), 1e-3, 0, 1, 0.5, 200_000, 99)
    assert counts.mean() == pytest.approx(1.0, abs=0.02)


def test_pivot_ratio_t_free_for_pareto():
    # exactness: distribution identical at t=1 and t=1e-6
    w1 = sp.pivot_ratio_batch(tm.pareto(1.0), 1.0, 1, 1, 50_000, 5, stream_start=0)
    w2 = sp.pivot_ratio_batch(tm.pareto(1.0), 1e-6, 1, 1, 50_000, 5, stream_start=50_000)
    assert two_sample_ks(w1, w2) < two_sample_threshold(w1.size, w2.size)


def test_pivot_ratio_uniform_for_unit_alpha():
    w = sp.pivot_ratio_batch(tm.pareto(1.0), 1.0, 1, 1, 1_000_000, 17)
    emp = EmpiricalDistribution.from_samples(w)
    assert ks_distance(emp, lambda x: np.clip(x, 0, 1)) < 0.002


def test_batch_threads_do_not_change_output():
    a = sp.pivot_ratio_batch(tm.pareto(1.5), 0.5, 1, 2, 300_000, 8, threads=1)
    b = sp.pivot_ratio_batch(tm.pareto(1.5), 0.5, 1, 2, 300_000, 8, threads=2)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="threads"):
        sp.pivot_ratio_batch(tm.pareto(1.5), 0.5, 1, 2, 10, 8, threads=0)


_DENSE_SAMPLERS = {
    "pivot_ratio_batch": lambda t: sp.pivot_ratio_batch(tm.pareto(1.0), t, 2, 3, 200, 4),
    "log_trim_ratio_batch": lambda t: sp.log_trim_ratio_batch(tm.pareto(1.0), t, 2, 200, 4),
    "successive_ratio_batch": lambda t: sp.successive_ratio_batch(
        tm.pareto(1.0), t, 2, 3, 200, 4),
    "pivot_ratio_with_scales_batch": lambda t: sp.pivot_ratio_with_scales_batch(
        tm.pareto(1.0), t, 2, 3, 200, 4),
    "ordered_log_points_batch": lambda t: sp.ordered_log_points_batch(
        tm.pareto(1.0), t, 5, 200, 4),
    "time_scale_batch": lambda t: sp.time_scale_batch(tm.pareto(1.0), t, 5, 200, 4),
}


@pytest.mark.parametrize("name", sorted(_DENSE_SAMPLERS))
@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, 1e-308, math.inf],
                         ids=["zero", "negative", "nan", "overflow", "zero_y"])
def test_dense_samplers_reject_t_outside_the_domain(name, t):
    # 1e-308: the first arrivals / t stay finite, the last ones overflow;
    # inf: every arrival / t is 0.  The samplers that invert only some
    # columns raise for these exactly as inverting every column does.
    with pytest.raises(ValueError):
        _DENSE_SAMPLERS[name](t)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_ordered_log_points_rejects_t_before_dividing(t):
    # no divide-by-zero or invalid-value warning precedes the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t must be positive"):
            sp.ordered_log_points(tm.pareto(1.0), t, np.array([[0.5, 1.0]]))


@pytest.mark.parametrize("name", sorted(_DENSE_SAMPLERS))
def test_dense_samplers_accept_extreme_finite_t(name):
    for t in (1e-306, 1e300):
        assert np.all(np.isfinite(_DENSE_SAMPLERS[name](t)))


# --- negative binomial process ----------------------------------------------


def test_nb_sample_points_inside_interval():
    for method in sp.NB_METHODS:
        s = sp.sample_negbin_process(2, 1.0, 0.3, method, RngStream(4, 0))
        assert np.all((s.points > 0.3) & (s.points < 1.0))


def test_nb_batch_matches_single_trials():
    # eps = 0.02 has mean count 98, so rows cross four round boundaries
    for (n, alpha, eps), method in itertools.product([(3, 1.5, 0.4), (2, 1.0, 0.02)],
                                                     sp.NB_METHODS):
        counts, _ = sp.negbin_batch(n, alpha, eps, method, 64, 12, stream_start=0)
        if eps < 0.1:
            assert counts.max() >= 60
        for i in (0, 7, 33, 63, int(np.argmax(counts))):
            rng = RngStream(12, i)
            single = sp.sample_negbin_process(n, alpha, eps, method, rng)
            assert single.points.size == counts[i]
            # the cursor sits just after the last counter consumed
            placed = counts[i] if method == sp.MIXED_POISSON else 0
            assert rng.cursor == n + counts[i] + 1 + placed


def test_negbin_blocks_and_threads_do_not_change_output(monkeypatch):
    from ppratios.limit_laws import LINEAR_RAMP, LaplaceProbe

    # a ramp makes the probe sums depend on the order they are added in
    probe = LaplaceProbe(0.9, 0.1, 0.8, LINEAR_RAMP)
    for method in sp.NB_METHODS:
        args = (2, 1.0, 0.05, method, 5_000, 61)
        whole = sp.negbin_batch(*args, probe=probe)
        for slab, threads in _SLAB_RUNS:
            with monkeypatch.context() as m:
                m.setattr(sp, "_ROW_BLOCK", 1_024)
                m.setattr(sp, "_SLAB", slab)
                blocked = sp.negbin_batch(*args, probe=probe, threads=threads)
                for a, b in zip(whole, blocked):
                    assert _same_bytes(a, b), (method, slab, threads)


def test_mixed_poisson_probe_sums_do_not_depend_on_the_row_block(monkeypatch):
    # placement chunks follow the round schedule, so each row's float probe
    # sum adds the same groups of points whatever the other rows of its block
    from ppratios.limit_laws import LaplaceProbe

    args = (2, 1.0, 0.5, sp.MIXED_POISSON, 200_000, 5)
    probe = LaplaceProbe(0.9, 0.5, 1.0)
    outputs = []
    for block in (1 << 13, 1 << 14, 1 << 15):
        monkeypatch.setattr(sp, "_ROW_BLOCK", block)
        for threads in (1, 2):
            counts, sums = sp.negbin_batch(*args, probe=probe, threads=threads)
            outputs.append(counts.tobytes() + sums.tobytes())  # raw, unrounded bits
    assert len(set(outputs)) == 1


def test_nb_consecutive_draws_continue_the_stream():
    # a second draw on one stream reads on from the cursor the first one left
    n = 2
    for method in sp.NB_METHODS:
        rng = RngStream(3, 1)
        first = sp.sample_negbin_process(n, 1.0, 0.3, method, rng)
        after_first = rng.cursor
        second = sp.sample_negbin_process(n, 1.0, 0.3, method, rng)
        per_point = 2 if method == sp.MIXED_POISSON else 1
        assert after_first == n + per_point * first.points.size + 1
        assert rng.cursor == after_first + n + per_point * second.points.size + 1
        assert not np.array_equal(first.points, second.points)


def test_nb_void_probability():
    # P(no points in (a,1)) = a^{n*alpha}
    n, alpha, a = 2, 1.0, 0.5
    counts, _ = sp.negbin_batch(n, alpha, a, "limit_ratios", 400_000, 31)
    void = np.mean(counts == 0)
    se = math.sqrt(0.25 * 0.75 / counts.size)
    assert abs(void - a ** (n * alpha)) < 3 * se


def test_nb_geometric_count_law():
    # n=1, alpha=1, eps=0.5: counts are Geometric(1/2), P(k) = 2^-(k+1)
    counts, _ = sp.negbin_batch(1, 1.0, 0.5, "mixed_poisson", 400_000, 37)
    for k in (0, 1, 2, 3):
        want = 2.0 ** -(k + 1)
        got = float(np.mean(counts == k))
        se = math.sqrt(want * (1 - want) / counts.size)
        assert abs(got - want) < 4 * se


def test_nb_methods_agree_in_distribution():
    # two independent seeds; the count distributions must match
    c1, _ = sp.negbin_batch(3, 2.0, 0.3, "limit_ratios", 300_000, 71, stream_start=0)
    c2, _ = sp.negbin_batch(3, 2.0, 0.3, "mixed_poisson", 300_000, 72, stream_start=0)
    assert two_sample_ks(c1, c2) < 0.004


def test_nb_mean_count():
    # mean count is n * (eps^-alpha - 1)
    counts, _ = sp.negbin_batch(2, 1.0, 0.25, "limit_ratios", 200_000, 41)
    want = 2 * (4.0 - 1.0)
    assert counts.mean() == pytest.approx(want, abs=0.05)


def test_nb_truncation_cap():
    with pytest.raises(sp.TruncationError):
        sp.negbin_batch(1, 1.0, 1e-8, "limit_ratios", 100, 3, cap=64)
    with pytest.raises(sp.TruncationError):
        sp.sample_negbin_process(1, 1.0, 1e-8, "mixed_poisson", RngStream(3, 0), cap=64)


def test_nb_validation():
    with pytest.raises(ValueError):
        sp.sample_negbin_process(0, 1.0, 0.5, "limit_ratios", RngStream(1, 0))
    with pytest.raises(ValueError):
        sp.sample_negbin_process(1, 1.0, 1.5, "limit_ratios", RngStream(1, 0))
    with pytest.raises(ValueError):
        sp.sample_negbin_process(1, 1.0, 0.5, "bogus", RngStream(1, 0))
    # alpha = inf puts every point at 1; it would draw to the cap
    with pytest.raises(ValueError, match="finite"):
        sp.negbin_batch(1, math.inf, 0.5, "limit_ratios", 10, 1)


def test_nb_probe_sums_match_manual():
    from ppratios.limit_laws import LaplaceProbe

    probe = LaplaceProbe(0.9, 0.5, 0.8)
    counts, sums = sp.negbin_batch(2, 1.0, 0.4, "limit_ratios", 32, 3, probe=probe)
    for i in (0, 5, 31):
        single = sp.sample_negbin_process(2, 1.0, 0.4, "limit_ratios", RngStream(3, i))
        assert sums[i] == pytest.approx(float(np.sum(probe(single.points))), rel=1e-12)
        assert counts[i] == single.points.size
