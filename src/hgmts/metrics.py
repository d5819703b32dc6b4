"""Forecast error metrics and the persistence sanity baseline."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor


def _check_shapes(y: np.ndarray, y_hat: np.ndarray) -> None:
    if y.shape != y_hat.shape:
        raise ShapeMismatch(f"metric shapes disagree: {y.shape} vs {y_hat.shape}")


def mse(y, y_hat, axis=None):
    """Mean squared error over all entries, or over ``axis`` only (an array)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_shapes(y, y_hat)
    out = np.mean((y - y_hat) ** 2, axis=axis)
    return float(out) if axis is None else out


def mae(y, y_hat, axis=None):
    """Mean absolute error over all entries, or over ``axis`` only (an array)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_shapes(y, y_hat)
    out = np.mean(np.abs(y - y_hat), axis=axis)
    return float(out) if axis is None else out


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Differentiable MSE against a constant target."""
    t = np.asarray(target, dtype=np.float64)
    _check_shapes(prediction.values, t)
    diff = ad.sub(prediction, Tensor(t))
    return ad.mean(ad.mul(diff, diff))


def persistence_forecast(x: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat each node's last observed value across the horizon."""
    x = np.asarray(x, dtype=np.float64)
    return np.repeat(x[:, -1:], horizon, axis=1)
