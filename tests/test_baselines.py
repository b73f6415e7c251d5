"""Persistence and closed-form regression checks."""

import numpy as np
import pytest

from stationcast import baselines as bl
from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast.errors import ConfigError, RegressionError

from helpers import traced_peak

RNG = np.random.default_rng


def windows_from_series(series, w_in, w_out):
    # series: [N, T] -> inputs [B, N, w_in], targets [B, N, w_out]
    n, t = series.shape
    b = t - w_in - w_out + 1
    x = np.stack([series[:, o:o + w_in] for o in range(b)])
    y = np.stack([series[:, o + w_in:o + w_in + w_out] for o in range(b)])
    return x, y


# ---------------------------------------------------------------------------
# persistence


def test_persistence_repeats_last_value():
    x = RNG(0).standard_normal((4, 6, 2))
    x[1, -1, :] = 7.0
    out = bl.persistence_forecast(x, 3)
    assert out.shape == (4, 3, 2)
    assert np.array_equal(out[1], np.full((3, 2), 7.0))


def test_persistence_constant_series_zero_error():
    x = np.full((2, 5, 1), 3.14)
    out = bl.persistence_forecast(x, 4)
    assert np.array_equal(out, np.full((2, 4, 1), 3.14))


def test_persistence_batched():
    x = RNG(1).standard_normal((3, 2, 5, 1))
    out = bl.persistence_forecast(x, 2)
    assert out.shape == (3, 2, 2, 1)
    assert np.array_equal(out[:, :, 0, :], x[:, :, -1, :])


def test_persistence_error_grows_on_random_walk():
    rng = RNG(2)
    walk = np.cumsum(rng.standard_normal((3, 500)), axis=1)
    x, y = windows_from_series(walk, 12, 12)
    pred = bl.persistence_forecast(x[:, :, :, None], 12)[:, :, :, 0]
    mae = np.abs(pred - y).mean(axis=(0, 1))
    assert mae[11] >= mae[0]


# ---------------------------------------------------------------------------
# linear / ridge


def test_linear_recovers_exact_linear_map():
    rng = RNG(3)
    n, w_in, w_out = 2, 5, 3
    true_beta = rng.standard_normal((w_in, w_out))
    x = rng.standard_normal((40, n, w_in))
    y = np.stack([x[:, s, :] @ true_beta + 2.0 for s in range(n)], axis=1)
    model = bl.fit_regression(x, y, "linear")
    pred = bl.predict_regression(model, x)
    assert np.abs(pred - y).max() < 1e-8


def test_ridge_large_lambda_predicts_training_mean():
    rng = RNG(4)
    x = rng.standard_normal((30, 1, 4))
    y = rng.standard_normal((30, 1, 2)) + 5.0
    model = bl.fit_regression(x, y, "ridge", lam=1e12)
    pred = bl.predict_regression(model, rng.standard_normal((8, 1, 4)))
    want = y.mean(axis=0)
    assert np.abs(pred - want).max() < 1e-6


def test_linear_singular_design_advises_ridge():
    rng = RNG(5)
    x = rng.standard_normal((20, 1, 4))
    x[:, :, 3] = x[:, :, 0]  # duplicate column: rank-deficient gram
    y = rng.standard_normal((20, 1, 2))
    with pytest.raises(RegressionError, match="ridge"):
        bl.fit_regression(x, y, "linear")


def test_kernel_singular_solve_advises_ridge():
    rng = RNG(5)
    # every training window appears twice: K has repeated rows
    x = np.repeat(rng.standard_normal((5, 1, 4)), 2, axis=0)
    y = rng.standard_normal((10, 1, 2))
    with pytest.raises(RegressionError, match="lam > 0"):
        bl.fit_regression(x, y, "kernel_ridge", gamma=1.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_kernel_rejects_bad_gamma(gamma):
    rng = RNG(5)
    with pytest.raises(ConfigError, match="gamma"):
        bl.fit_regression(rng.standard_normal((20, 1, 4)),
                          rng.standard_normal((20, 1, 2)), "kernel_ridge",
                          lam=1.0, gamma=gamma)


@pytest.mark.parametrize("kind,settings,field", [
    ("ridge", {"lam": "1"}, "lam"), ("linear", {"lam": "1"}, "lam"),
    ("kernel_ridge", {"lam": 1.0, "gamma": "1"}, "gamma")],
    ids=["ridge-lam", "linear-lam", "kernel_ridge-gamma"])
def test_string_penalty_or_bandwidth_is_a_config_error(kind, settings, field):
    rng = RNG(5)
    with pytest.raises(ConfigError, match=f"^{field} '1' is not"):
        bl.fit_regression(rng.standard_normal((20, 1, 4)),
                          rng.standard_normal((20, 1, 2)), kind, **settings)


def test_ridge_continuity_in_lambda():
    rng = RNG(6)
    x = rng.standard_normal((50, 2, 6))
    y = rng.standard_normal((50, 2, 3))
    q = rng.standard_normal((10, 2, 6))
    p1 = bl.predict_regression(bl.fit_regression(x, y, "ridge", lam=0.5), q)
    p2 = bl.predict_regression(bl.fit_regression(x, y, "ridge", lam=0.5 + 1e-7), q)
    assert np.abs(p1 - p2).max() < 1e-5


def test_prediction_shift_is_algebraic():
    # adding a constant c to the window shifts prediction by sum(beta)*c
    rng = RNG(7)
    x = rng.standard_normal((60, 1, 4))
    y = rng.standard_normal((60, 1, 2))
    model = bl.fit_regression(x, y, "ridge", lam=0.1)
    q = rng.standard_normal((5, 1, 4))
    base = bl.predict_regression(model, q)
    shifted = bl.predict_regression(model, q + 3.0)
    want = base + 3.0 * model.beta[0].sum(axis=0)
    assert np.abs(shifted - want).max() < 1e-9


def test_duplicate_windows_duplicate_predictions():
    rng = RNG(8)
    x = rng.standard_normal((30, 1, 5))
    y = rng.standard_normal((30, 1, 2))
    model = bl.fit_regression(x, y, "ridge", lam=0.3)
    q = rng.standard_normal((1, 1, 5))
    qq = np.concatenate([q, q])
    pred = bl.predict_regression(model, qq)
    assert np.array_equal(pred[0], pred[1])


def test_unfitted_model_errors():
    model = bl.RegressionModel(kind="ridge", w_in=3, w_out=2)
    with pytest.raises(RegressionError, match="not fitted"):
        bl.predict_regression(model, np.zeros((1, 1, 3)))


def test_linear_rejects_penalty():
    with pytest.raises(ConfigError):
        bl.fit_regression(np.zeros((5, 1, 2)), np.zeros((5, 1, 1)),
                          "linear", lam=0.1)


# ---------------------------------------------------------------------------
# kernel ridge


def test_kernel_ridge_interpolates_with_tiny_lambda():
    rng = RNG(9)
    x = rng.standard_normal((20, 1, 4))
    y = rng.standard_normal((20, 1, 2))
    model = bl.fit_regression(x, y, "kernel_ridge", lam=1e-10)
    pred = bl.predict_regression(model, x)
    assert np.abs(pred - y).max() < 1e-4


def test_kernel_ridge_solve_oracle():
    # independent dense solve of the dual system
    rng = RNG(10)
    x = rng.standard_normal((15, 1, 3))
    y = rng.standard_normal((15, 1, 2))
    lam, gamma = 0.05, 0.7
    model = bl.fit_regression(x, y, "kernel_ridge", lam=lam, gamma=gamma)
    q = rng.standard_normal((4, 1, 3))
    pred = bl.predict_regression(model, q)
    xc = x[:, 0, :] - x[:, 0, :].mean(axis=0)
    qc = q[:, 0, :] - x[:, 0, :].mean(axis=0)
    k = np.exp(-gamma * ((xc[:, None] - xc[None]) ** 2).sum(-1))
    kq = np.exp(-gamma * ((qc[:, None] - xc[None]) ** 2).sum(-1))
    want = kq @ np.linalg.solve(k + lam * np.eye(15),
                                y[:, 0, :] - y[:, 0, :].mean(axis=0)) \
        + y[:, 0, :].mean(axis=0)
    assert np.abs(pred[:, 0, :] - want).max() < 1e-10


def test_rbf_gram_form_matches_explicit_differences():
    # desk scale: 177 windows of 12 steps per station, levels far from 0,
    # and some windows repeated at other positions
    rng = RNG(15)
    b, n, w = 177, 5, 12
    x = rng.standard_normal((b, n, w)).cumsum(axis=2) + \
        rng.uniform(-800.0, 800.0, n)[:, None]
    x[[170, 176, 90]] = x[[3, 0, 89]]
    y = rng.standard_normal((b, n, 4)) + 300.0
    lam = 1.0
    model = bl.fit_regression(x, y, "kernel_ridge", lam=lam)
    for s in range(n):
        xs = x[:, s, :]
        want = np.exp(-model.gamma * ((xs[:, None] - xs[None]) ** 2).sum(-1))
        got = bl._kernel_matrix(xs, xs, model.gamma)
        assert (np.abs(got - want) <= 1e-12 * want).all()
        assert got.max() == 1.0
        assert (np.diag(got) == 1.0).all()
        assert got[170, 3] == got[3, 170] == got[176, 0] == got[90, 89] == 1.0
        # query windows that repeat training windows: rounding may not
        # push a squared distance below 0, so no entry exceeds 1
        xq = xs[::-1] + 0.0
        cross = bl._kernel_matrix(xq, xs, model.gamma)
        assert (np.abs(cross - want[::-1]) <= 1e-12 * want[::-1]).all()
        assert cross.max() <= 1.0
        xc = model.x_train[:, s, :]
        k = np.exp(-model.gamma * ((xc[:, None] - xc[None]) ** 2).sum(-1))
        dual = np.linalg.solve(k + lam * np.eye(b), y[:, s] - y[:, s].mean(0))
        assert np.abs(model.dual[s] - dual).max() <= \
            1e-12 * np.abs(dual).max()


def test_default_gamma_recorded():
    rng = RNG(12)
    x = rng.standard_normal((25, 1, 6))
    y = rng.standard_normal((25, 1, 2))
    model = bl.fit_regression(x, y, "kernel_ridge", lam=0.1)
    var = (x - x.mean(axis=0)).var()
    assert model.gamma == pytest.approx(1.0 / (6 * var))


def test_shape_validation():
    with pytest.raises(ConfigError):
        bl.fit_regression(np.zeros((5, 2, 3)), np.zeros((4, 2, 2)), "ridge",
                          lam=0.1)
    model = bl.fit_regression(np.zeros((5, 1, 3)) + RNG(13).standard_normal((5, 1, 3)),
                              RNG(14).standard_normal((5, 1, 2)), "ridge", lam=1.0)
    with pytest.raises(ConfigError):
        bl.predict_regression(model, np.zeros((2, 1, 4)))


# ---------------------------------------------------------------------------
# fitting on window views


def _stack_centred_fit(x, y, kind, lam):
    # the fit as it once ran: centre the whole window stack, then solve
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    out = []
    for s in range(x.shape[1]):
        xs, ys = xc[:, s, :], yc[:, s, :]
        if kind == "kernel_ridge":
            gamma = 1.0 / (x.shape[2] * float(xc.var()))
            k = bl._kernel_matrix(xs, xs, gamma)
            out.append(np.linalg.solve(k + lam * np.eye(len(k)), ys))
        else:
            out.append(np.linalg.solve(xs.T @ xs + lam * np.eye(x.shape[2]),
                                       xs.T @ ys))
    return np.stack(out), xc


@pytest.mark.parametrize("w_in, w_out", [(12, 12), (6, 3)])
@pytest.mark.parametrize("kind, lam", [("linear", 0.0), ("ridge", 1.0),
                                       ("kernel_ridge", 0.5)])
def test_fit_on_window_views_equals_fit_on_stacked_windows(kind, lam, w_in,
                                                           w_out):
    ds = dt.generate_synthetic(dt.SynthConfig(n=7, t=150, d=1, seed=3))
    views = ev._series_windows(ds, w_in, w_out)
    batch = next(dt.make_windows(ds, w_in, w_out))
    stacked = (batch.inputs[..., 0], batch.targets[..., 0])
    for view, stack in zip(views, stacked):
        assert view.base is not None  # a view, no stack of its own
        assert np.array_equal(view, stack)
    a = bl.fit_regression(*views, kind, lam=lam)
    b = bl.fit_regression(*stacked, kind, lam=lam)
    for name in ("beta", "dual", "x_train", "x_mean", "y_mean"):
        got, want = getattr(a, name), getattr(b, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.tobytes() == want.tobytes(), name
    assert a.gamma == b.gamma
    ref, xc = _stack_centred_fit(*stacked, kind, lam)
    if kind == "kernel_ridge":
        assert a.x_train.flags.c_contiguous
        assert a.x_train.tobytes() == xc.tobytes()
        assert a.dual.tobytes() == ref.tobytes()
        assert a.gamma == 1.0 / (w_in * float(xc.var()))
    else:
        assert a.beta.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind, limit", [("ridge", 0.25),
                                         ("kernel_ridge", 2.5)])
def test_fit_on_window_views_forms_no_window_stack(kind, limit):
    ds = dt.generate_synthetic(dt.SynthConfig(n=300, t=200, d=1, seed=0))
    inputs, targets = ev._series_windows(ds, 12, 12)
    stack = inputs.shape[0] * inputs.shape[1] * 12 * 8  # bytes of one stack
    # ridge: one station's centred windows at a time; kernel_ridge keeps
    # the centred inputs as x_train and its duals, one stack each
    peak = traced_peak(lambda: bl.fit_regression(inputs, targets, kind,
                                                 lam=1.0))
    assert peak < limit * stack, peak / stack


@pytest.mark.parametrize("kind", ["ridge", "kernel_ridge"])
def test_predict_holds_one_forecast_sized_array(kind):
    ds = dt.generate_synthetic(dt.SynthConfig(n=100, t=600, d=1, seed=0))
    train, _, test = dt.split_temporal(ds, (3, 1, 2))
    model = bl.fit_regression(*ev._series_windows(train, 12, 12), kind,
                              lam=1.0)
    view, _ = dt.window_view(test, 12, 12)
    inputs = view[:, :, :12, 0]
    out = bl.predict_regression(model, inputs)
    # the centred stack the forecast used to be formed from, to the byte
    xc = inputs - model.x_mean
    want = np.empty_like(out)
    for s in range(ds.n_stations):
        if kind == "ridge":
            want[:, s] = xc[:, s] @ model.beta[s]
        else:
            want[:, s] = bl._kernel_matrix(
                xc[:, s], model.x_train[:, s], model.gamma) @ model.dual[s]
    assert out.tobytes() == (want + model.y_mean).tobytes()
    if kind == "ridge":
        # one station's centred windows and products beside the forecast
        peak = traced_peak(lambda: bl.predict_regression(model, inputs))
        assert peak <= 1.25 * out.nbytes, peak / out.nbytes
