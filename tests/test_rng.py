import numpy as np
import pytest

from ppratios import rng


def test_same_stream_replays_identically():
    a = rng.RngStream(1234, 56).uniforms(100)
    b = rng.RngStream(1234, 56).uniforms(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = rng.RngStream(1234, 56).uniforms(100)
    b = rng.RngStream(1234, 57).uniforms(100)
    c = rng.RngStream(1235, 56).uniforms(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cursor_advances_and_fresh_stream_replays():
    s = rng.RngStream(9, 0)
    first = s.uniforms(10)
    second = s.uniforms(10)
    assert not np.array_equal(first, second)
    replay = rng.RngStream(9, 0).uniforms(20)
    assert np.array_equal(replay, np.concatenate([first, second]))


def test_grid_rows_match_single_streams():
    grid = rng.uniform_grid(42, 100, 8, 32)
    for i in range(8):
        assert np.array_equal(grid[i], rng.RngStream(42, 100 + i).uniforms(32))


def test_grid_reaches_the_last_stream_and_does_not_wrap():
    last = 2**64 - 1
    grid = rng.uniform_grid(1, last - 2, 3, 2)
    assert np.array_equal(grid[2], rng.RngStream(1, last).uniforms(2))
    # a row past the last stream would be stream 0 again
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rng.uniform_grid(1, last, 3, 2)


def test_uniform_block_arbitrary_indices():
    idx = np.array([3, 900, 17], dtype=np.uint64)
    blk = rng.uniforms_at(7, idx[:, None], np.arange(16))
    for row, stream in enumerate(idx):
        assert np.array_equal(blk[row], rng.RngStream(7, int(stream)).uniforms(16))
    # the ragged engine's round-major layout reads the same words
    assert np.array_equal(rng.uniforms_at(7, idx[None, :], np.arange(16)[:, None]), blk.T)


def test_uniforms_at_matches_grid():
    grid = rng.uniform_grid(5, 0, 4, 10)
    streams = np.array([[0], [2]])
    counters = np.array([[1, 3], [0, 9]])
    vals = rng.uniforms_at(5, streams, counters)
    assert vals[0, 0] == grid[0, 1]
    assert vals[0, 1] == grid[0, 3]
    assert vals[1, 0] == grid[2, 0]
    assert vals[1, 1] == grid[2, 9]


def test_counter_offset_is_positional():
    full = rng.uniform_grid(11, 0, 2, 20)
    tail = rng.uniforms_at(11, np.arange(2)[:, None], 12 + np.arange(8))
    assert np.array_equal(tail, full[:, 12:])


def test_uniforms_open_interval_and_moments():
    u = rng.uniform_grid(2024, 0, 2000, 500).ravel()
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 5e-4
    assert abs(u.var() - 1.0 / 12.0) < 5e-4


def test_uniformity_ks_at_scale():
    # 1% critical value at n = 10^6 is 0.00163
    u = rng.uniform_grid(314159, 0, 1000, 1000).ravel()
    u.sort()
    n = u.size
    grid = np.arange(1, n + 1) / n
    d = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
    assert d < 1.63 / np.sqrt(n)


def test_cross_stream_independence_correlation():
    a = rng.uniform_grid(7, 0, 200, 5000)
    # adjacent streams: sample correlation should be at noise level ~1/sqrt(n)
    corr = [np.corrcoef(a[i], a[i + 1])[0, 1] for i in range(0, 198, 7)]
    assert np.max(np.abs(corr)) < 5.0 / np.sqrt(5000)


def test_exponentials_positive_and_unit_mean():
    e = -np.log(rng.uniform_grid(99, 0, 1000, 200).ravel())
    assert np.all(e > 0)
    assert abs(e.mean() - 1.0) < 5e-3


@pytest.mark.parametrize("seed,stream", [(0, 0), (2**63, 2**40), (123, 2**64 - 1)])
def test_extreme_indices_valid(seed, stream):
    u = rng.RngStream(seed, stream).uniforms(16)
    assert np.all((u > 0) & (u < 1))


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_out_of_range_words_rejected(seed, stream):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rng.RngStream(seed, stream).uniforms(4)
    with pytest.raises(ValueError):
        rng.uniform_grid(seed, stream, 2, 4)
    with pytest.raises(ValueError):
        rng.uniforms_at(seed, np.array([stream]), np.arange(4))
