"""Canonical heavy-tailed intensity tail functions and their inverses.

A tail function here is a non-increasing, right-continuous map
``(0, inf) -> (0, inf)`` that blows up at 0 and vanishes at infinity.  Five
parametric families are shipped, chosen so that every variation regime at 0
is represented with exact closed forms available for oracle testing:

``pareto``            ``x**-alpha``; index ``alpha`` in (0, inf).
``pareto_log``        ``x**-alpha * (1 + log(1/x))**beta`` for ``x < 1``,
                      continued as ``x**-alpha`` for ``x >= 1``.
``pareto_perturbed``  ``x**-alpha * (1 + c*x**gamma)`` for ``x <= 1``,
                      continued as ``(1+c) * x**-alpha`` for ``x > 1``.
``rapid_zero``        ``exp(1/x) - 1``; varies rapidly at 0 (index "inf").
``slow_zero``         ``log(1 + 1/x)``; varies slowly at 0 (index 0).

The perturbed and log families keep their defining formula near 0 (where the
small-time asymptotics live) and are continued with a plain power tail on
``x > 1``.  The formula itself is non-increasing on ``(0, 1]`` only in part
of the parameter space, so the constructors accept exactly the parameters
that give genuine tails of locally finite measures: ``alpha + beta >= 0``
when ``beta < 0`` for ``pareto_log``, and ``c * (gamma - alpha) <= alpha``
for ``pareto_perturbed``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import wrightomega

PARETO = "pareto"
PARETO_LOG = "pareto_log"
PARETO_PERTURBED = "pareto_perturbed"
RAPID_ZERO = "rapid_zero"
SLOW_ZERO = "slow_zero"

KINDS = frozenset({PARETO, PARETO_LOG, PARETO_PERTURBED, RAPID_ZERO, SLOW_ZERO})

#: Ceiling used instead of overflowing for the rapidly varying family.
TAIL_SATURATION = 1e300

#: Newton evaluations allowed per value before :class:`InversionError`; the
#: most seen is 30, at the monotonicity boundaries next to the threshold.
_NEWTON_MAX_ITER = 64
_NEWTON_BLOCK = 1 << 14  # values per block of the Newton iteration


class TailOverflowWarning(RuntimeWarning):
    """Raised as a warning when a tail evaluation saturates at TAIL_SATURATION."""


class InversionError(RuntimeError):
    """Numeric inversion failed; carries the bracket ``[iterate, other end]`` in x."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (last bracket: [{bracket[0]:g}, {bracket[1]:g}])")
        self.bracket = bracket


@dataclass(frozen=True)
class TailModel:
    """One member of the shipped tail function families.

    Use the constructors (:func:`pareto`, :func:`pareto_log`, ...) rather
    than filling fields by hand; they validate the parameter ranges.
    """

    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    c: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown tail kind: {self.kind!r}")
        if self.kind in (PARETO, PARETO_LOG, PARETO_PERTURBED):
            if self.alpha is None or not self.alpha > 0:
                raise ValueError(f"{self.kind} requires alpha > 0")
        else:
            if self.alpha is not None:
                raise ValueError(f"{self.kind} does not take alpha")
        if self.kind == PARETO_LOG:
            if self.beta is None:
                raise ValueError("pareto_log requires beta")
            if self.beta < 0 and self.alpha + self.beta < 0:
                # monotonicity on (0,1) fails once the log factor decays
                # faster than the power grows
                raise ValueError("pareto_log requires alpha + beta >= 0")
        elif self.beta is not None:
            raise ValueError(f"{self.kind} does not take beta")
        if self.kind == PARETO_PERTURBED:
            if self.c is None or self.c < 0 or self.gamma is None or self.gamma < 0:
                raise ValueError("pareto_perturbed requires c >= 0 and gamma >= 0")
            if self.c * (self.gamma - self.alpha) > self.alpha:
                # the derivative's sign on (0, 1] is that of
                # c*(gamma - alpha)*x**gamma - alpha, largest at x = 1
                raise ValueError("pareto_perturbed requires c * (gamma - alpha) <= alpha")
        elif self.c is not None or self.gamma is not None:
            raise ValueError(f"{self.kind} does not take c/gamma")

    @property
    def rv_index(self) -> float:
        """Variation index at 0: ``alpha`` for the power families, 0 or inf otherwise."""
        if self.kind == RAPID_ZERO:
            return math.inf
        if self.kind == SLOW_ZERO:
            return 0.0
        return float(self.alpha)

    def to_record(self) -> dict:
        """Flat key-value record (absent fields omitted); inverse of :func:`from_record`."""
        rec = {"kind": self.kind}
        for name in ("alpha", "beta", "c", "gamma"):
            value = getattr(self, name)
            if value is not None:
                rec[name] = float(value)
        return rec

    @staticmethod
    def from_record(rec: dict) -> "TailModel":
        known = {k: rec[k] for k in ("kind", "alpha", "beta", "c", "gamma") if k in rec}
        extra = set(rec) - set(known)
        if extra:
            raise ValueError(f"unknown tail model fields: {sorted(extra)}")
        return TailModel(**known)


def pareto(alpha: float) -> TailModel:
    return TailModel(PARETO, alpha=float(alpha))


def pareto_log(alpha: float, beta: float) -> TailModel:
    return TailModel(PARETO_LOG, alpha=float(alpha), beta=float(beta))


def pareto_perturbed(alpha: float, c: float, gamma: float) -> TailModel:
    return TailModel(PARETO_PERTURBED, alpha=float(alpha), c=float(c), gamma=float(gamma))


def rapid_zero() -> TailModel:
    return TailModel(RAPID_ZERO)


def slow_zero() -> TailModel:
    return TailModel(SLOW_ZERO)


def _validate_positive(values: np.ndarray, what: str):
    if not np.all(values > 0):
        raise ValueError(f"{what} must be strictly positive")


def eval_tail(model: TailModel, x):
    """Evaluate the tail function at ``x`` (scalar or array), elementwise.

    Raises ``ValueError`` for non-positive ``x``.  For the rapidly varying
    family the value saturates at :data:`TAIL_SATURATION` near 0 and a
    :class:`TailOverflowWarning` is issued.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _validate_positive(arr, "x")
    a = model.alpha
    if model.kind == PARETO:
        out = arr ** -a
    elif model.kind == PARETO_LOG:
        out = arr ** -a
        low = arr < 1.0
        if np.any(low):
            out[low] *= (1.0 + np.log(1.0 / arr[low])) ** model.beta
    elif model.kind == PARETO_PERTURBED:
        out = arr ** -a
        low = arr <= 1.0
        out[low] *= 1.0 + model.c * arr[low] ** model.gamma
        out[~low] *= 1.0 + model.c
    elif model.kind == RAPID_ZERO:
        with np.errstate(over="ignore"):
            out = np.expm1(1.0 / arr)
        saturated = ~np.isfinite(out) | (out > TAIL_SATURATION)
        if np.any(saturated):
            out[saturated] = TAIL_SATURATION
            warnings.warn(
                "rapid_zero tail saturated at 1e300 near x=0", TailOverflowWarning
            )
    else:  # SLOW_ZERO
        out = np.log1p(1.0 / arr)
    return float(out[0]) if scalar else out


def tail_at_log(model: TailModel, lx):
    """``eval_tail(model, exp(lx))``, also where ``exp(lx)`` underflows.

    Deep in the small-time regime the slowly varying family's points
    underflow float64; there ``log1p(1/x) = -log x + log1p(x)`` is ``-lx``
    to double precision, so it is taken from the log directly.
    """
    lx = np.asarray(lx, dtype=float)
    if model.kind != SLOW_ZERO:
        return eval_tail(model, np.exp(lx))
    return np.where(lx < -700.0, -lx, eval_tail(model, np.exp(np.maximum(lx, -700.0))))


def log_inverse_tail(model: TailModel, y):
    """``log`` of the right-continuous inverse of the tail function.

    The inverse is ``inf{x > 0 : tail(x) <= y}``.  Working on the log scale
    keeps the slowly varying family usable deep in the small-time regime,
    where the inverse itself underflows float64.
    """
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)  # read only, never written: no copy
    _validate_positive(arr, "y")
    a = model.alpha
    if model.kind == PARETO:
        out = -np.log(arr) / a
    elif model.kind == RAPID_ZERO:
        out = -np.log(np.log1p(arr))
    elif model.kind == SLOW_ZERO:
        # log of 1/(e^y - 1): stable at both ends
        small = arr <= 30.0
        out = np.empty_like(arr)
        out[small] = -np.log(np.expm1(arr[small]))
        big = ~small
        out[big] = -(arr[big] + np.log1p(-np.exp(-arr[big])))
    elif model.kind == PARETO_PERTURBED:
        limit = 1.0 + model.c  # tail value at x = 1
        out = np.empty_like(arr)
        outer = arr <= limit
        out[outer] = (np.log1p(model.c) - np.log(arr[outer])) / a
        inner = ~outer
        if np.any(inner):
            # log(y/(1 + c)) from the difference y - (1 + c), exact next to the limit
            out[inner] = _perturbed_log_inverse(model, np.log1p((arr[inner] - limit) / limit))
    else:  # PARETO_LOG
        out = np.empty_like(arr)
        outer = arr <= 1.0  # tail value at x = 1 is exactly 1
        out[outer] = -np.log(arr[outer]) / a
        inner = ~outer
        if np.any(inner):
            out[inner] = _pareto_log_log_inverse(model, np.log(arr[inner]))
    return float(out[0]) if scalar else out


def eval_inverse_tail(model: TailModel, y):
    """Right-continuous inverse ``inf{x > 0 : tail(x) <= y}``.

    Closed form where the family admits one, otherwise monotone Newton
    iteration on log-x (see :func:`log_inverse_tail`).
    """
    return np.exp(log_inverse_tail(model, y))


def _pareto_log_log_inverse(model: TailModel, log_y: np.ndarray) -> np.ndarray:
    """log x < 0 solving ``alpha*u + beta*log1p(u) = log y`` in ``u = log(1/x)``."""
    a, b = model.alpha, model.beta
    if abs(b) < a * 2.0**-60:
        # beta*log1p(u) stays below half an ulp of alpha*u: the pareto formula
        return -log_y / a
    if b > 0:
        # s = 1 + u = (beta/alpha)*w turns the equation into w + log w = z,
        # solved by the Wright omega function
        z = math.log(a / b) + (log_y + a) / b
        return 1.0 - b / a * wrightomega(z)

    # beta < 0: decreasing and convex in l = -u; log1p(u) <= (1 + u)/e bounds
    # the root from the left, and beta*log1p(u) <= 0 from the right
    def g(l, log_y):
        u = -l
        return a * u + b * np.log1p(u) - log_y, -(a + b + a * u) / (1.0 + u)

    lo = (b / math.e - log_y) / (a + b / math.e)
    return _newton_rise(g, lo, log_y, lambda ly: -ly / a)


def _perturbed_log_inverse(model: TailModel, log_rel_y: np.ndarray) -> np.ndarray:
    """log x < 0 solving ``-alpha*l + log1p(c*exp(gamma*l)) = log y`` in ``l = log x``.

    Takes ``log_rel_y = log(y/(1 + c)) > 0``, so that y next to the tail
    value ``1 + c`` at x = 1 keeps its distance from it.
    """
    a, c, gamma = model.alpha, model.c, model.gamma
    log1p_c = math.log1p(c)

    # decreasing and convex in l given c*(gamma - alpha) <= alpha;
    # x**-alpha <= tail <= (1 + c)*x**-alpha brackets the root.  g is taken
    # relative to its value log(1 + c) at l = 0, so the O(1) terms cancel
    # exactly and g stays accurate next to a near-double root at l = 0.
    # log1p(rel) loses 1 + rel to cancellation once (1 + p)/(1 + c) is small
    # (large c); there the difference of logs is at most -log 2 and does not
    # cancel, so it is used instead.
    def g(l, log_rel_y):
        p = c * np.exp(gamma * l)
        rel = c * np.expm1(gamma * l) / (1.0 + c)
        near = rel > -0.5
        rel[near] = np.log1p(rel[near])
        rel[~near] = np.log1p(p[~near]) - log1p_c
        return rel - a * l - log_rel_y, gamma * p / (1.0 + p) - a

    return _newton_rise(g, -(log_rel_y + log1p_c) / a, log_rel_y, lambda d: -d / a)


def _newton_rise(g, l: np.ndarray, log_y: np.ndarray, other_end) -> np.ndarray:
    """Roots of ``g(l, log_y)``, decreasing and convex in ``l``, overwriting ``l``.

    ``g`` returns its value and slope.  Newton iterates from the start ``l``,
    where ``g >= 0``, rise monotonically to the root while ``g`` falls.  Each
    value stops on its own once a step no longer moves it up or no longer
    lowers ``g`` (rounding, next to a near-double root), so it does not
    depend on the other values inverted with it.  ``other_end(log_y)`` is
    the bracket end beyond the root, reported on failure.  Values are taken
    in blocks of ``_NEWTON_BLOCK`` to bound the temporaries' memory.
    """
    for start in range(0, l.size, _NEWTON_BLOCK):
        lb, yb = l[start : start + _NEWTON_BLOCK], log_y[start : start + _NEWTON_BLOCK]
        last = np.full(lb.size, np.inf)
        act = np.arange(lb.size)
        for _ in range(_NEWTON_MAX_ITER):
            cur = lb[act]
            value, slope = g(cur, yb[act])
            step = cur - value / slope
            go = (step > cur) & (value < last[act])
            act = act[go]
            if not act.size:
                break
            lb[act] = step[go]
            last[act] = value[go]
        else:
            i = act[0]
            raise InversionError(
                f"Newton iteration still moving after {_NEWTON_MAX_ITER} steps",
                (float(np.exp(lb[i])), float(np.exp(other_end(yb[i])))),
            )
    return l


def rv_limit_table(model: TailModel, u: float, y: float, t_grid) -> np.ndarray:
    """``t * tail(u * inverse_tail(y/t))`` along a decreasing grid of t.

    For a power-law family with index ``alpha`` the values converge to
    ``u**-alpha * y`` as t shrinks (exactly, for pure Pareto); the slow and
    rapid families converge to ``y`` (u > 1) and diverge (u < 1) instead.
    """
    if not (u > 0 and y > 0):
        raise ValueError("u and y must be positive")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.diff(t) < 0):
        raise ValueError("t_grid must be a strictly decreasing sequence")
    _validate_positive(t, "t_grid")
    with np.errstate(over="ignore"):
        yt = y / t
    if not np.all(np.isfinite(yt)):
        raise ValueError(f"t={float(t[~np.isfinite(yt)][0])!r} is too small: "
                         "y / t overflows to inf")
    return t * tail_at_log(model, math.log(u) + log_inverse_tail(model, yt))
