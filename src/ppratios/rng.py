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

# Uniforms are (w + 0.5) * 2^-53 for a 53-bit word w: the midpoints of 2^53
# equal bins below 1/2; above it w + 0.5 rounds to an even integer, and the
# top word would give exactly 1.0, so every value is clamped to 1 - 2^-53.
# They lie strictly inside (0, 1), and -log(u) is always finite and positive.
_INV_2_53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, written back into it; returns ``z``.

    The shifted copy is the only temporary, so a large draw touches two
    buffers instead of one new one per step.
    """
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            np.bitwise_xor(z, tmp, out=z)
            if mult is not None:
                np.multiply(z, np.uint64(mult), out=z)
    return z


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
    # each sum is a fresh array (0-d for scalars), mixed in place; the last
    # one, the broadcast of streams and counters, is also shifted and turned
    # into floats in place
    with np.errstate(over="ignore"):
        key = _mix64(np.asarray(seed + _GOLDEN))
        bases = _mix64(np.asarray(key + idx * _STREAM_SALT))
        words = _mix64(np.asarray(bases + ctr * _GOLDEN))
    np.right_shift(words, np.uint64(11), out=words)
    out = words.view(np.float64)
    np.add(words, 0.5, out=out)  # the words convert exactly; w + 0.5 rounds past 2^52
    np.multiply(out, _INV_2_53, out=out)
    np.minimum(out, 1.0 - _INV_2_53, out=out)  # only w = 2^53 - 1 moves, from 1.0
    return out[()]


def uniform_grid(master_seed: int, stream_start: int, n_streams: int, n_draws: int) -> np.ndarray:
    """Uniform(0,1) matrix; row i is stream ``stream_start+i``, column j is counter ``j``.

    The dense form of :func:`uniforms_at`.  Row ``i`` equals the first
    ``n_draws`` uniforms of ``RngStream(master_seed, stream_start+i)``.
    Every stream index must lie in ``[0, 2**64)``, so
    ``stream_start + n_streams`` may not exceed ``2**64``.
    """
    first = _words(stream_start, "stream index")
    if int(first) + n_streams > 2**64:
        raise ValueError(f"stream indices {int(first)} to {int(first)} + {n_streams} - 1 "
                         "must lie in [0, 2**64)")
    streams = first + np.arange(n_streams, dtype=np.uint64)
    return uniforms_at(master_seed, streams[:, None], np.arange(n_draws, dtype=np.uint64))


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

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` Uniform(0,1) variates, advancing the cursor."""
        out = uniforms_at(self.master_seed, self.stream_index,
                          self.cursor + np.arange(n, dtype=np.uint64))
        self.cursor += n
        return out
