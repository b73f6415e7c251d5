"""Reference forecasters: persistence and closed-form regressions.

All regressors are univariate and per-station: features are one station's
most recent input window of the target factor, and each horizon step gets
its own independent regressor (direct multi-step).  Features and targets
are centered on their training means, so the intercept is the training
mean and stays unpenalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, RegressionError

REGRESSION_KINDS = ("linear", "ridge", "kernel_ridge")


def persistence_forecast(window_inputs: np.ndarray, w: int) -> np.ndarray:
    """Repeat the last observed step across the whole horizon.

    Accepts [N, W', D] or [B, N, W', D]; the horizon axis replaces W'.
    """
    if w < 1:
        raise ConfigError("horizon must be at least 1")
    last = window_inputs[..., -1:, :]
    return np.repeat(last, w, axis=-2)


@dataclass
class RegressionModel:
    """Per-station direct multi-step regressor bank."""

    kind: str
    w_in: int
    w_out: int
    lam: float = 0.0
    gamma: Optional[float] = None
    # linear/ridge: beta [N, W', W]; kernel: dual [N, B, W] + train features
    beta: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None
    x_train: Optional[np.ndarray] = None
    x_mean: Optional[np.ndarray] = None
    y_mean: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in REGRESSION_KINDS:
            raise ConfigError(f"unknown regression kind {self.kind!r}")
        if not 0.0 <= self.lam < np.inf:
            raise ConfigError(f"ridge penalty {self.lam} is not nonnegative "
                              "and finite")
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma {self.gamma} is not positive and finite")


def _kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    # Gram form |a|^2 + |b|^2 - 2 a.b, on inputs shifted to b's mean: the
    # distances do not move, but the cancellation does.  Two shifted copies
    # keep a @ b.T on one GEMM kernel, so a self kernel that takes its norms
    # from the Gram diagonal puts equal windows at distance exactly 0; the
    # clamp keeps rounding from going negative.
    shift = b.mean(axis=0)
    same = a is b
    a, b = a - shift, b - shift
    gram = a @ b.T
    if same:
        na = nb = np.diag(gram)
    else:
        na, nb = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
    sq = np.maximum(na[:, None] + nb - 2.0 * gram, 0.0)
    return np.exp(-gamma * sq)


def fit_regression(inputs: np.ndarray, targets: np.ndarray, kind: str,
                   lam: float = 0.0, gamma: Optional[float] = None
                   ) -> RegressionModel:
    """Fit per-station regressors from stacked windows.

    inputs: [B, N, W'] windows of the target factor; targets: [B, N, W].
    linear/ridge solve the normal equations (X'X + lam I) beta = X'y per
    horizon; kernel_ridge stores dual weights (K + lam I)^{-1} y for RBF K.
    """
    if inputs.ndim != 3 or targets.ndim != 3:
        raise ConfigError(f"expected [B, N, W'] inputs and [B, N, W] targets, "
                          f"got {inputs.shape} and {targets.shape}")
    if inputs.shape[:2] != targets.shape[:2]:
        raise ConfigError(f"window counts disagree: {inputs.shape} vs "
                          f"{targets.shape}")
    b, n, w_in = inputs.shape
    w_out = targets.shape[2]
    if kind == "linear" and lam != 0.0:
        raise ConfigError("linear regression takes no ridge penalty")
    model = RegressionModel(kind=kind, w_in=w_in, w_out=w_out, lam=lam,
                            gamma=gamma)
    x_mean = inputs.mean(axis=0)    # [N, W']
    y_mean = targets.mean(axis=0)   # [N, W]
    xc = inputs - x_mean
    yc = targets - y_mean
    model.x_mean, model.y_mean = x_mean, y_mean

    if kind in ("linear", "ridge"):
        beta = np.empty((n, w_in, w_out))
        for s in range(n):
            x = xc[:, s, :]
            gram = x.T @ x
            if lam == 0.0:
                if np.linalg.matrix_rank(gram) < w_in:
                    raise RegressionError(
                        "normal equations are singular; use ridge (lam > 0) "
                        "or add more training windows")
            beta[s] = np.linalg.solve(gram + lam * np.eye(w_in),
                                      x.T @ yc[:, s, :])
        model.beta = beta
    else:
        if gamma is None:
            var = float(xc.var())
            if var <= 0.0:
                raise RegressionError("training windows are constant, kernel "
                                      "bandwidth undefined")
            gamma = 1.0 / (w_in * var)
            model.gamma = gamma
        dual = np.empty((n, b, w_out))
        for s in range(n):
            x = xc[:, s, :]
            k = _kernel_matrix(x, x, gamma)
            try:
                dual[s] = np.linalg.solve(k + lam * np.eye(b), yc[:, s, :])
            except np.linalg.LinAlgError:
                raise RegressionError(
                    "kernel matrix is singular; use a ridge penalty "
                    "lam > 0") from None
        model.dual = dual
        model.x_train = xc
    return model


def predict_regression(model: RegressionModel,
                       inputs: np.ndarray) -> np.ndarray:
    """Forecast [B, N, W] from windows [B, N, W']."""
    if model.beta is None and model.dual is None:
        raise RegressionError("model is not fitted")
    if inputs.ndim != 3 or inputs.shape[2] != model.w_in:
        raise ConfigError(f"expected [B, N, {model.w_in}] inputs, got "
                          f"{inputs.shape}")
    b, n, _ = inputs.shape
    xc = inputs - model.x_mean
    out = np.empty((b, n, model.w_out))
    for s in range(n):
        if model.kind in ("linear", "ridge"):
            out[:, s, :] = xc[:, s, :] @ model.beta[s]
        else:
            k = _kernel_matrix(xc[:, s, :], model.x_train[:, s, :],
                               model.gamma)
            out[:, s, :] = k @ model.dual[s]
    return out + model.y_mean
