"""The bulk CSV cell formatter against ``float.__repr__`` and ``str(int)``."""

import numpy as np

from ppratios import _csvtext


def _texts(values):
    return _csvtext.rows([values], len(values)).decode().split("\n")[:-1]


def _rounded(rng, n):
    """Doubles nearest to decimals of 1..17 significant digits."""
    values = rng.random(n) * 10.0 ** rng.integers(-6, 18, n)
    digits = rng.integers(1, 18, n)
    return np.array([float(f"{v:.{d - 1}e}") for v, d in zip(values.tolist(), digits.tolist())])


def _grid(rng, per):
    """Decimals of 1..17 digits at every decimal-point position of repr's
    fixed notation, ``per`` of each: 0.000d.. (point -3) to d..d.0 (point 16)."""
    return np.array([float(f"{m}e{point - count}")
                     for point in range(-3, 17) for count in range(1, 18)
                     for m in rng.integers(10**(count - 1), 10**count, per).tolist()])


def test_float_cells_match_repr():
    rng = np.random.default_rng(20)
    decades = 10.0 ** np.arange(-5, 18)
    values = np.concatenate([
        # every exponent, subnormals, nan and infinities
        rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False).view(np.float64),
        # exact halves at the 17th digit (1234567890123456.75 and .25)
        rng.integers(2**49, 2**53, 40_000) / 2.0 ** rng.integers(0, 12, 40_000),
        np.nextafter(decades, np.inf), decades, np.nextafter(decades, -np.inf),
        2.0 ** np.arange(-20, 60),
        _rounded(rng, 20_000),
        rng.random(20_000) * 10.0 ** rng.integers(-4, 16, 20_000),  # the whole domain
        [0.0, 1e-4, 1234567890123456.75, 1234567890123456.25],
        _grid(rng, 20),
    ])
    values = np.concatenate([values, -values])
    assert len(values) >= 200_000
    assert _texts(values) == list(map(float.__repr__, values.tolist()))


def test_narrow_floats_are_widened_first():
    values = np.random.default_rng(21).standard_normal(1_000).astype(np.float32)
    assert _texts(values) == [repr(float(v)) for v in values.tolist()]


def test_integer_cells_match_str():
    rng = np.random.default_rng(22)
    ints = rng.integers(-2**63, 2**63 - 1, 20_000, endpoint=True) >> rng.integers(0, 64, 20_000)
    powers = 10 ** np.arange(19)  # the least value of every width 1..19
    edges = np.concatenate([[-2**63, 2**63 - 1, 0], powers, -powers, powers[1:] - 1,
                            1 - powers[1:]]).astype(np.int64)
    unsigned = np.concatenate([[0, 2**64 - 1, 10**19, 10**19 - 1],
                               powers.astype(np.uint64) - np.uint64(1)])
    for column in (np.concatenate([ints, edges]), unsigned, np.arange(-300, 300, dtype=np.int16),
                   np.arange(256, dtype=np.uint8)):
        assert _texts(column) == list(map(str, column.tolist()))


def test_rows_join_cells_of_every_kind():
    floats = np.array([0.5, -2.5, 1e-5])
    ints = np.array([1, -22, 333])
    texts = [b"a", b"", b"a text wider than any numeric cell"]
    got = _csvtext.rows([floats, b"x", ints, texts, b""], 3)
    assert got == b"0.5,x,1,a,\n-2.5,x,-22,,\n1e-05,x,333,a text wider than any numeric cell,\n"
