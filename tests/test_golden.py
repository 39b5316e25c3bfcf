"""Pinned digests of small outputs: the determinism contract as a tier-1 check.

Every output is a pure function of its seed, so a change to the draws (the
SplitMix64 constants, the round schedule, the order of a running sum, the
counter a count is drawn from)
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
    sp.MIXED_POISSON: "cf94ad9ffb80ce4c423fb51ccd29f2950b40b0a5750c4f8fd7b11ec4fb891b6e",
}
_PINNED_RATIO_COUNTS = "d24bde0e08d4e7ef3705e8e9980044644e0b9bad716ecb682443a11bc0795790"

# the walk's counts (limit_ratios) and the counts drawn by inversion
_NEGBIN_COUNTS = {
    sp.LIMIT_RATIOS: "0cc883f9670143dd5eb5ceb6483c43b3f9ed6b7501531cca803b7166c512473a",
    sp.MIXED_POISSON: "1392b3ed55beb9c2490e0adfcd2bc2e72db76e95525dc26126b3c09e504ef0b0",
}
_PINNED_FLOAT_PROBE_SUMS = {
    sp.LIMIT_RATIOS: "d19721d10f5123587af6317c6c634a213c3421d930d498cf58a8d1a5fd267ce4",
    sp.MIXED_POISSON: "e3a0eebde48133ec349ad3cbd81d9ff30ba72eab0853acbc96825acff6121629",
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
    assert _raw_digest(counts) == _NEGBIN_COUNTS[method]
    assert _rounded_digest(sums) == _PINNED_FLOAT_PROBE_SUMS[method]


def test_ratio_configuration_batch_pinned_digest():
    _, _, counts = sp.ratio_configuration_batch(tm.pareto(1.0), 0.1, 1, 2, 0.2,
                                                50_000, 2024)
    assert _int_digest(counts) == _PINNED_RATIO_COUNTS


# --- dense samplers and the other families, over several row blocks -----------

_ROWS = 20_000  # more than one row block at every block size below
_PERTURBED = tm.pareto_perturbed(1.0, 1.0, 1.0)


def _exp_first(columns):
    """``columns`` with its first column, a log ratio, exponentiated."""
    return (np.exp(columns[0]),) + columns[1:]


_PINNED_DENSE = {
    "gamma_matrix": (
        lambda threads: sp.gamma_matrix(2024, _ROWS, 5, threads=threads),
        "21071cb9c29d2ad2d3bb75a8ae028637fbbcb34ef9882c45a92e1e066837219b"),
    # r=2, n=3: the columns between the two ratio points are not needed
    "pivot_ratio_batch": (
        lambda threads: sp.pivot_ratio_batch(_PERTURBED, 0.1, 2, 3, _ROWS, 2024,
                                             threads=threads),
        "89d62d780dc11d0ff61e5727b78a5946ad3aa6302ad4fa9ecbcbec26949263eb"),
    "log_trim_ratio_batch": (
        lambda threads: sp.log_trim_ratio_batch(tm.pareto_log(1.0, 1.5), 0.01, 2, _ROWS,
                                                2024, threads=threads),
        "c12d7498faea89c35067a818a18c7337071cbafab4065139d778301f67b67df8"),
    # the ratios, exponentiated from their logs
    "log_successive_ratio_batch": (
        lambda threads: np.exp(sp.log_successive_ratio_batch(tm.slow_zero(), 0.01, 2, 3, _ROWS,
                                                             2024, threads=threads)),
        "d34156d40f0ec15b53d965fa7f80a7a17de79d8fcb129826c96c80c1b2fcce55"),
    # W (exponentiated from its log), Z and A
    "log_pivot_ratio_with_scales_batch": (
        lambda threads: _exp_first(sp.log_pivot_ratio_with_scales_batch(
            _PERTURBED, 0.1, 2, 3, _ROWS, 2024, threads=threads)),
        "29125b39d489e9965525773e36ad55b7dd6ae27dd1b0d7de0f3a6013599b5a87"),
}

_PINNED_FAMILY_RATIO_COUNTS = {
    tm.pareto_log(1.0, 1.5):
        "b608a3375996e6729497a064568f6ca37467f131945b7f6059a90a7e28aabf48",
    tm.pareto_perturbed(1.0, 1.0, 1.0):
        "6679e95a36c4c8a1055de72b7b5dabdfc3f1cbc85c41154bc87ce0efbb52e10e",
    tm.rapid_zero(): "e75cec5d0585f3b73249457fbd507ac7eaab25849a8baec4ac13588fd3f94614",
    tm.slow_zero(): "8312db86e15afcac31ad71a5e661380f871b673fa9f3cb9243a86d17d69a4f11",
}

_BLOCKS_AND_THREADS = pytest.mark.parametrize(
    "block, threads", [(b, th) for b in (1 << 13, 1 << 14, 1 << 15) for th in (1, 2)])


@_BLOCKS_AND_THREADS
def test_dense_samplers_pinned_digest(monkeypatch, block, threads):
    monkeypatch.setattr(sp, "_ROW_BLOCK", block)
    for name, (draw, pinned) in _PINNED_DENSE.items():
        out = draw(threads)
        assert _rounded_digest(*(out if isinstance(out, tuple) else (out,))) == pinned, name


@_BLOCKS_AND_THREADS
def test_ratio_configuration_counts_pinned_for_each_family(monkeypatch, block, threads):
    monkeypatch.setattr(sp, "_ROW_BLOCK", block)
    for model, pinned in _PINNED_FAMILY_RATIO_COUNTS.items():
        _, _, counts = sp.ratio_configuration_batch(model, 0.5, 1, 3, 0.5, _ROWS, 2024,
                                                    threads=threads)
        assert _int_digest(counts) == pinned, model.kind
