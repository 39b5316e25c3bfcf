import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppratios import tail_models as tm

ALL_MODELS = [
    tm.pareto(0.5),
    tm.pareto(1.0),
    tm.pareto(2.0),
    tm.pareto_log(1.0, 2.0),
    tm.pareto_log(1.5, -0.5),
    tm.pareto_perturbed(1.0, 1.0, 1.0),
    tm.pareto_perturbed(2.0, 0.5, 0.7),
    tm.rapid_zero(),
    tm.slow_zero(),
]


# --- evaluation -----------------------------------------------------------


def test_pareto_values():
    assert tm.eval_tail(tm.pareto(1.0), 2.0) == pytest.approx(0.5)
    assert tm.eval_tail(tm.pareto(2.0), 0.1) == pytest.approx(100.0)


def test_perturbed_value():
    assert tm.eval_tail(tm.pareto_perturbed(1, 1, 1), 0.5) == pytest.approx(3.0)


def test_eval_rejects_nonpositive():
    with pytest.raises(ValueError):
        tm.eval_tail(tm.pareto(1.0), 0.0)
    with pytest.raises(ValueError):
        tm.eval_tail(tm.slow_zero(), np.array([1.0, -2.0]))


def test_rapid_zero_saturates_with_warning():
    with pytest.warns(tm.TailOverflowWarning):
        v = tm.eval_tail(tm.rapid_zero(), 1e-6)
    assert v == tm.TAIL_SATURATION


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.alpha}")
def test_tail_nonincreasing_and_locally_finite(model):
    x = np.geomspace(1e-3 if model.kind == "rapid_zero" else 1e-8, 1e8, 400)
    if model.kind == "rapid_zero":
        # the grid's first points lie in the saturation region (x < ~1.4e-3)
        with pytest.warns(tm.TailOverflowWarning):
            y = tm.eval_tail(model, x)
    else:
        y = tm.eval_tail(model, x)
    assert np.all(np.isfinite(y))
    assert np.all(np.diff(y) <= 1e-12 * y[:-1])  # non-increasing up to roundoff


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.alpha}")
def test_tail_blows_up_at_zero(model):
    # tail(0+) = inf: any bound is exceeded close enough to 0 (the slowly
    # varying family climbs logarithmically, so probe it with modest bounds)
    bounds = (10.0, 100.0, 400.0) if model.kind == "slow_zero" else (10.0, 1e3, 1e5)
    for bound in bounds:
        x = 1e-2
        while tm.eval_tail(model, x) <= bound:
            x /= 10.0
            assert x > 1e-200
        assert tm.eval_tail(model, x) > bound


def test_variation_regimes_at_zero():
    lam = 0.5
    # stay above the saturation region of the rapid family (x ~ 1.4e-3)
    x = np.geomspace(1e-1, 4e-3, 24)
    rapid = tm.eval_tail(tm.rapid_zero(), lam * x) / tm.eval_tail(tm.rapid_zero(), x)
    assert rapid[-1] > 1e6 and np.all(np.diff(rapid) > 0)
    x = np.geomspace(1e-1, 1e-8, 24)  # slow variation converges logarithmically
    slow = tm.eval_tail(tm.slow_zero(), lam * x) / tm.eval_tail(tm.slow_zero(), x)
    assert abs(slow[-1] - 1.0) < 0.05
    par = tm.eval_tail(tm.pareto(2.0), lam * x) / tm.eval_tail(tm.pareto(2.0), x)
    assert np.allclose(par, lam**-2.0)


# --- inversion ------------------------------------------------------------


def test_closed_form_inverses():
    assert tm.eval_inverse_tail(tm.pareto(2.0), 4.0) == pytest.approx(0.5)
    assert tm.eval_inverse_tail(tm.pareto(1.0), 10.0) == pytest.approx(0.1)


def test_newton_inverse_matches_example():
    model = tm.pareto_perturbed(1, 1, 1)
    assert tm.eval_inverse_tail(model, 3.0) == pytest.approx(0.5, rel=1e-9)


def test_newton_matches_closed_form_gamma_equals_alpha():
    # gamma == alpha admits the closed form (y - c)**(-1/alpha) on the inner branch
    model = tm.pareto_perturbed(2.0, 0.8, 2.0)
    y = np.geomspace(2.0, 1e8, 50)  # inner branch: y > 1 + c
    got = tm.eval_inverse_tail(model, y)
    expected = ((y - 0.8) / 1.0) ** (-1 / 2.0)
    assert np.allclose(got, expected, rtol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.alpha}")
def test_right_continuous_inverse_contract(model):
    # for slow_zero the inverse underflows float64 beyond y ~ 700 (the log
    # form stays exact there; see the dedicated log-identity test)
    y_hi = 500.0 if model.kind == "slow_zero" else 1e6
    y = np.geomspace(1e-6, y_hi, 61)
    inv = tm.eval_inverse_tail(model, y)
    # tail(inv(y)) <= y and tail(inv(y)*(1 - 1e-11)) >= y, up to float roundoff
    assert np.all(tm.eval_tail(model, inv) <= y * (1 + 1e-9))
    assert np.all(tm.eval_tail(model, inv * (1 - 10 * 1e-12)) >= y * (1 - 1e-9))


def test_slow_zero_log_inverse_identity_deep_range():
    # log-scale identity log(tail(exp(log_inv(y)))) == log(y) across the full grid
    y = np.geomspace(1e-6, 1e6, 61)
    log_inv = tm.log_inverse_tail(tm.slow_zero(), y)
    # tail(x) = log1p(1/x); with log x = -log(e^y - 1) this recovers y exactly
    small = y <= 30
    recovered = np.where(small, np.log1p(np.exp(-np.where(small, log_inv, 0.0))), y)
    assert np.allclose(recovered[small], y[small], rtol=1e-12)
    assert np.all(np.isfinite(log_inv))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.alpha}")
def test_inverse_nonincreasing_in_y(model):
    y = np.geomspace(1e-6, 1e6, 201)
    inv = tm.eval_inverse_tail(model, y)
    assert np.all(np.diff(inv) <= 1e-9 * inv[:-1])


@st.composite
def perturbed_models(draw):
    """pareto_perturbed models over the accepted domain c * (gamma - alpha) <= alpha."""
    alpha = draw(st.floats(0.2, 5.0))
    gamma = draw(st.floats(0.0, 3.0))
    c_max = 3.0 if gamma <= alpha else min(3.0, alpha / (gamma - alpha))
    return tm.pareto_perturbed(alpha, draw(st.floats(0.0, c_max)), gamma)


@settings(max_examples=60, deadline=None)
@given(model=perturbed_models(), log_y=st.floats(-13.0, 13.0))
def test_inverse_round_trip_perturbed(model, log_y):
    y = math.exp(log_y)
    x = tm.eval_inverse_tail(model, y)
    assert tm.eval_tail(model, x) == pytest.approx(y, rel=1e-8)


def _assert_generalized_inverse(model, y):
    # inf{x : tail(x) <= y}: tail(x) <= y at the inverse, tail > y everywhere
    # to its left (a non-monotone tail fails the second part)
    x = tm.eval_inverse_tail(model, y)
    assert tm.eval_tail(model, x) <= y * (1 + 1e-9)
    left = x * np.geomspace(1e-6, 1 - 10 * 1e-12, 400)
    assert np.all(tm.eval_tail(model, left) >= y * (1 - 1e-9))


@settings(max_examples=60, deadline=None)
@given(model=perturbed_models(), log_y=st.floats(-13.0, 13.0))
def test_inverse_is_generalized_inverse_perturbed(model, log_y):
    _assert_generalized_inverse(model, math.exp(log_y))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.2, 5.0), beta_share=st.floats(-1.0, 1.0),
       log_y=st.floats(-13.0, 13.0))
def test_inverse_is_generalized_inverse_pareto_log(alpha, beta_share, log_y):
    # beta over the accepted [-alpha, 3]: closed form above 0, Newton below
    beta = beta_share * alpha if beta_share <= 0 else beta_share * 3.0
    _assert_generalized_inverse(tm.pareto_log(alpha, beta), math.exp(log_y))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.3, 4.0), beta=st.floats(-0.2, 3.0), log_y=st.floats(-13.0, 13.0))
def test_inverse_round_trip_pareto_log(alpha, beta, log_y):
    model = tm.pareto_log(alpha, beta)
    y = math.exp(log_y)
    x = tm.eval_inverse_tail(model, y)
    assert tm.eval_tail(model, x) == pytest.approx(y, rel=1e-8)


def test_log_inverse_deep_small_time_stays_finite():
    # slowly varying family: the inverse underflows but its log must not
    log_inv = tm.log_inverse_tail(tm.slow_zero(), 1e5)
    assert np.isfinite(log_inv)
    assert log_inv == pytest.approx(-1e5, rel=1e-6)


def test_inversion_failure_carries_bracket(monkeypatch):
    # one Newton evaluation cannot settle y = 3; the error carries the
    # exact bracket [iterate, other end] around the root
    monkeypatch.setattr(tm, "_NEWTON_MAX_ITER", 1)
    y = 3.0
    for model in (tm.pareto_log(1.0, -0.5), tm.pareto_perturbed(1.0, 1.0, 1.0)):
        with pytest.raises(tm.InversionError) as info:
            tm.eval_inverse_tail(model, y)
        lo, hi = info.value.bracket
        assert 0 < lo < hi < 1
        assert tm.eval_tail(model, lo) >= y >= tm.eval_tail(model, hi)


NUMERIC_MODELS = [
    tm.pareto_log(1.0, 1.0),
    tm.pareto_log(0.5, 3.0),
    tm.pareto_log(2.0, -0.5),
    tm.pareto_log(1.0, -1.0),  # alpha + beta = 0
    tm.pareto_perturbed(1.0, 1.0, 1.0),
    tm.pareto_perturbed(2.0, 0.5, 0.7),
    tm.pareto_perturbed(1.0, 0.5, 3.0),  # c * (gamma - alpha) = alpha
    tm.pareto_perturbed(1.0, 3.0, 0.0),
    tm.pareto_perturbed(1.0, 1e6, 0.5),  # 1 + rel cancels where p is near 1
    tm.pareto_perturbed(1.0, 1e17, 0.5),  # c/(1 + c) rounds to 1
]


def _log_tail_below_one(model, log_x):
    """log tail on x < 1, evaluated from log x so that tiny x do not underflow."""
    if model.kind == "pareto_log":
        return -model.alpha * log_x + model.beta * np.log1p(-log_x)
    return -model.alpha * log_x + np.log1p(model.c * np.exp(model.gamma * log_x))


def _model_id(model):
    return "-".join(f"{v:g}" if isinstance(v, float) else v for v in model.to_record().values())


@pytest.mark.parametrize("model", NUMERIC_MODELS, ids=_model_id)
def test_log_inverse_residual_up_to_1e300(model):
    threshold = float(tm.eval_tail(model, 1.0))
    y = threshold * np.concatenate([1.0 + np.geomspace(1e-15, 1e-3, 40),
                                    np.geomspace(1.01, 1e300 / threshold, 200)])
    log_y = np.log(y)
    log_x = tm.log_inverse_tail(model, y)
    assert np.all(log_x < 0)
    residual = np.abs(_log_tail_below_one(model, log_x) - log_y)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, log_y))


@pytest.mark.parametrize("model", [tm.pareto_perturbed(2.0, 2.0, 3.0),
                                   tm.pareto_perturbed(1.0, 0.5, 3.0)], ids=_model_id)
def test_inverse_nonincreasing_next_to_near_double_root(model):
    # c * (gamma - alpha) = alpha: g has a near-double root at x = 1, y = 1 + c
    y = (1.0 + model.c) * np.linspace(1.0 - 1e-13, 1.0 + 1e-13, 2001)
    assert np.all(np.diff(tm.log_inverse_tail(model, y)) <= 0.0)


@pytest.mark.parametrize("model", NUMERIC_MODELS, ids=_model_id)
def test_inverse_batch_independent(model):
    # each value is inverted on its own: batch neighbours do not move its bits
    ys = [2.0 * float(tm.eval_tail(model, 1.0)), 1e30, 1.5, 1e300]
    alone = [tm.log_inverse_tail(model, [y])[0] for y in ys]
    assert tm.log_inverse_tail(model, ys).tolist() == alone
    assert tm.log_inverse_tail(model, ys[::-1]).tolist() == alone[::-1]


# --- regular-variation limit table ---------------------------------------


def test_rv_limit_table_exact_for_pareto():
    t_grid = np.geomspace(1e-1, 1e-8, 8)
    vals = tm.rv_limit_table(tm.pareto(1.0), u=2.0, y=3.0, t_grid=t_grid)
    assert np.allclose(vals, 1.5, rtol=1e-12)
    vals = tm.rv_limit_table(tm.pareto(2.0), u=0.5, y=1.0, t_grid=t_grid)
    assert np.allclose(vals, 4.0, rtol=1e-12)


def test_rv_limit_table_perturbed_converges():
    t_grid = np.geomspace(1e-1, 1e-8, 8)
    vals = tm.rv_limit_table(tm.pareto_perturbed(1, 1, 1), u=2.0, y=1.0, t_grid=t_grid)
    assert abs(vals[-1] - 0.5) < 0.01 * 0.5


def test_rv_limit_table_rapid_diverges_slow_converges():
    t_grid = np.geomspace(1e-1, 1e-8, 8)
    vals = tm.rv_limit_table(tm.rapid_zero(), u=0.5, y=1.0, t_grid=t_grid)
    assert vals[-1] > 1e6 and np.all(np.diff(vals) > 0)
    vals = tm.rv_limit_table(tm.slow_zero(), u=2.0, y=1.0, t_grid=t_grid)
    assert abs(vals[-1] - 1.0) < 0.01


def test_rv_limit_table_validates_grid():
    with pytest.raises(ValueError):
        tm.rv_limit_table(tm.pareto(1.0), 1.0, 1.0, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        tm.rv_limit_table(tm.pareto(1.0), -1.0, 1.0, [1e-2, 1e-3])


def test_rv_limit_table_names_subnormal_t():
    # y / 1e-320 overflows to inf, which used to fail as "x must be strictly positive"
    with pytest.raises(ValueError, match=r"t=1e-320 is too small"):
        tm.rv_limit_table(tm.pareto(1.0), 2.0, 1.0, [1e-1, 1e-320])


# --- model records --------------------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.kind}-{m.alpha}")
def test_record_round_trip(model):
    rec = model.to_record()
    assert set(rec) <= {"kind", "alpha", "beta", "c", "gamma"}
    assert tm.TailModel.from_record(rec) == model


def test_record_rejects_unknown_fields():
    with pytest.raises(ValueError):
        tm.TailModel.from_record({"kind": "pareto", "alpha": 1.0, "mystery": 2})


def test_model_validation():
    with pytest.raises(ValueError):
        tm.pareto(-1.0)
    with pytest.raises(ValueError):
        tm.TailModel("pareto")  # alpha missing
    with pytest.raises(ValueError):
        tm.TailModel("rapid_zero", alpha=1.0)
    with pytest.raises(ValueError):
        tm.pareto_log(0.5, -1.0)  # alpha + beta < 0 breaks monotonicity
    with pytest.raises(ValueError):
        tm.pareto_perturbed(1.0, -0.5, 1.0)
    with pytest.raises(ValueError, match="gamma - alpha"):
        tm.pareto_perturbed(1.0, 1.0, 3.0)  # tail rises towards x = 1
    tm.pareto_perturbed(1.0, 0.5, 3.0)  # c * (gamma - alpha) == alpha: still a tail


def test_rv_index():
    assert tm.pareto(2.5).rv_index == 2.5
    assert tm.rapid_zero().rv_index == math.inf
    assert tm.slow_zero().rv_index == 0.0
