"""Pinned digests of small outputs: the determinism contract as a tier-1 check.

Every output is a pure function of its seed, so a change to the draws (the
SplitMix64 constants, the round schedule, the order of a running sum)
fails here, while a change to the row blocks or the thread count does not.
A change that alters draws must update these pins and say why.

Integer outputs and raw uniforms are exact integer arithmetic, so they are
hashed bit for bit.  Float outputs that pass through ``log``, ``exp`` or
``pow`` may differ in the last ulp on another CPU, so they are hashed after
rounding the mantissa to 40 bits.
"""

import hashlib

import numpy as np
import pytest

from ppratios import samplers as sp
from ppratios import tail_models as tm
from ppratios.limit_laws import LINEAR_RAMP, LaplaceProbe
from ppratios.rng import uniforms_at


def _raw_digest(*arrays):
    """SHA-256 of each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _rounded_digest(*arrays, bits=40):
    """SHA-256 of each float's exponent and its mantissa rounded to ``bits`` bits."""
    h = hashlib.sha256()
    for a in arrays:
        mantissa, exponent = np.frexp(np.asarray(a, dtype=np.float64))
        h.update(np.rint(np.ldexp(mantissa, bits)).astype("<i8").tobytes())
        h.update(exponent.astype("<i4").tobytes())
    return h.hexdigest()


def _int_digest(*columns):
    h = hashlib.sha256()
    for col in columns:
        assert np.array_equal(col, np.round(col))
        h.update(np.asarray(col, dtype="<i8").tobytes())
    return h.hexdigest()


# --- raw uniforms -------------------------------------------------------------

_TOP = np.uint64(2**64 - 1)
_STREAMS = np.arange(50)

_PINNED_UNIFORMS = {
    # 50 streams x counters 0..15
    "dense": (lambda: uniforms_at(2024, _STREAMS[:, None], np.arange(16)),
              "2112d33e5ef95ca3a4ca3bf376fd8b65852037fcd7e7b308e1a998a45b1edf69"),
    # stream i from counter 7*i on, 12 counters each
    "ragged": (lambda: uniforms_at(2024, _STREAMS[:, None],
                                   (7 * _STREAMS)[:, None] + np.arange(12)),
               "2789fd1627887070d621d7dd743449fcade9975d19b26c0ef3271d2666801e94"),
    # a 0-d draw stays a numpy scalar
    "scalar": (lambda: uniforms_at(2024, 5, 7),
               "b710274a870eafdb7ea86d75709c7c2409c755bc61bc435816453c19e182096f"),
    # seed, streams and counters at the top of the 64-bit range wrap, not raise
    "top": (lambda: uniforms_at(_TOP, _TOP - np.arange(6, dtype=np.uint64)[:, None],
                                _TOP - np.arange(8, dtype=np.uint64)),
            "80990c984531a0e940e39cc37cbc1f5c98d22b07c3da01244473cd3ee1a2e9fe"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_UNIFORMS))
def test_uniforms_at_pinned_digest(case):
    draw, pinned = _PINNED_UNIFORMS[case]
    u = draw()
    if case == "scalar":
        assert isinstance(u, np.float64)
    assert _raw_digest(u) == pinned


# --- batch samplers -----------------------------------------------------------

_PINNED_NEGBIN = {
    sp.LIMIT_RATIOS: "b4c017013f6f450ab54daa35d64f2438f5dc0e92090d14743d5c5e9c7621506e",
    sp.MIXED_POISSON: "1c7009d309d1880aaf74cb45c224e16072b5d6c1cee3918de26d7c3dfab6d3e3",
}
_PINNED_RATIO_COUNTS = "5267bffe4e20f48296bcc633e4f68e29e9f05bbb92d672615c8a7d265825dcf8"

_NEGBIN_COUNTS = "0cc883f9670143dd5eb5ceb6483c43b3f9ed6b7501531cca803b7166c512473a"
_PINNED_FLOAT_PROBE_SUMS = {
    sp.LIMIT_RATIOS: "d19721d10f5123587af6317c6c634a213c3421d930d498cf58a8d1a5fd267ce4",
    sp.MIXED_POISSON: "1aca199b901213efa09679dd14ca4586f11e61d873efaddbb5051034048c9fdf",
}


@pytest.mark.parametrize("method", sorted(sp.NB_METHODS))
def test_negbin_batch_pinned_digest(method):
    # counts and the number of points above 0.6, an integer probe sum
    counts, above = sp.negbin_batch(2, 1.0, 0.3, method, 50_000, 2024,
                                    probe=lambda x: x > 0.6)
    assert _int_digest(counts, above) == _PINNED_NEGBIN[method]


@pytest.mark.parametrize("method", sorted(sp.NB_METHODS))
def test_negbin_batch_float_probe_pinned_digest(method):
    # a ramp probe: each sum depends on the order its terms are added in
    probe = LaplaceProbe(0.9, 0.1, 0.8, LINEAR_RAMP)
    counts, sums = sp.negbin_batch(2, 1.0, 0.05, method, 4_000, 2024, probe=probe)
    assert _raw_digest(counts) == _NEGBIN_COUNTS
    assert _rounded_digest(sums) == _PINNED_FLOAT_PROBE_SUMS[method]


def test_ratio_configuration_batch_pinned_digest():
    _, _, counts = sp.ratio_configuration_batch(tm.pareto(1.0), 0.1, 1, 2, 0.2,
                                                50_000, 2024)
    assert _int_digest(counts) == _PINNED_RATIO_COUNTS
