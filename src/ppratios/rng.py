"""Counter-based random number streams.

Every trial of a Monte Carlo experiment gets its own stream, addressed by
``(master_seed, stream_index)``.  A draw is a stateless hash of
``(master_seed, stream_index, counter)`` (SplitMix64 finalizer over an
affine counter lattice), and :func:`uniforms_at` is the one accessor that
computes it: stream and counter arrays broadcast against each other, so a
dense batch (rows = streams, columns = counters), a ragged set of rows each
at its own counter, and a single stream's next values are the same call.
Consequently

* the same ``(master_seed, stream_index)`` always reproduces the same
  sequence, independent of scheduling or worker count, and
* row ``i`` of any batch is bit-identical to drawing stream ``i`` alone.

Seeds, stream indices and counters are 64-bit words and must lie in
``[0, 2**64)``; anything else raises ``ValueError``.  Exponential variates
are ``-log(u)`` of these uniforms, so the mapping from counters to variates
stays explicit and portable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)

# Uniforms are midpoints of 2^53 equal bins, so they lie strictly inside (0, 1)
# and -log(u) is always finite and positive.
_INV_2_53 = float(2.0**-53)


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _words(values, what: str) -> np.ndarray:
    """``values`` as uint64, or ``ValueError`` if any lies outside ``[0, 2**64)``."""
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
    if arr.dtype.kind == "i" and not np.any(arr < 0):
        return arr.astype(np.uint64)
    raise ValueError(f"{what} must be an integer in [0, 2**64)")


def uniforms_at(master_seed: int, streams, counters) -> np.ndarray:
    """Uniform(0,1) of stream ``streams[...]`` at counter ``counters[...]``, broadcasting.

    ``uniforms_at(seed, s[:, None], c0 + np.arange(k))`` is a dense block,
    ``uniforms_at(seed, s[:, None], c[:, None] + np.arange(k))`` gives each
    row its own counter offset, and a scalar stream with a counter range is
    one stream's next ``k`` values.
    """
    seed = _words(master_seed, "master seed")
    idx = _words(streams, "stream index")
    ctr = _words(counters, "counter")
    with np.errstate(over="ignore"):
        bases = _mix64(_mix64(seed + _GOLDEN) + idx * _STREAM_SALT)
        words = _mix64(bases + ctr * _GOLDEN)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def uniform_grid(
    master_seed: int,
    stream_start: int,
    n_streams: int,
    n_draws: int,
    counter_start: int = 0,
) -> np.ndarray:
    """Uniform(0,1) matrix; row i is stream ``stream_start+i``, column j is counter ``counter_start+j``.

    The dense form of :func:`uniforms_at`.  Row ``i`` equals
    ``RngStream(master_seed, stream_start+i)`` drawing ``n_draws`` uniforms
    from counter ``counter_start``.
    """
    first = _words(stream_start, "stream index")
    with np.errstate(over="ignore"):
        streams = first + np.arange(n_streams, dtype=np.uint64)
    counters = _words(counter_start, "counter") + np.arange(n_draws, dtype=np.uint64)
    return uniforms_at(master_seed, streams[:, None], counters)


@dataclass
class RngStream:
    """One reproducible random stream, addressed by ``(master_seed, stream_index)``.

    ``cursor`` is the next counter the stream reads; drawing advances it,
    and the single-trial samplers leave it just after the last counter they
    consumed.  A freshly constructed stream always replays the same variates
    in the same order.
    """

    master_seed: int
    stream_index: int = 0
    cursor: int = field(default=0, repr=False, compare=False)

    def spawn(self, stream_index: int) -> "RngStream":
        """Fresh stream with the same master seed and a new index."""
        return RngStream(self.master_seed, stream_index)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` Uniform(0,1) variates, advancing the cursor."""
        out = uniforms_at(self.master_seed, self.stream_index,
                          self.cursor + np.arange(n, dtype=np.uint64))
        self.cursor += n
        return out

    def exponentials(self, n: int) -> np.ndarray:
        """Next ``n`` unit-mean exponentials, advancing the cursor."""
        return -np.log(self.uniforms(n))
