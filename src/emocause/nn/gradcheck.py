"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_EPS = 1e-4
REL_FLOOR = 1e-8


def numerical_gradient(loss_fn: Callable[[], float], param: np.ndarray,
                       eps: float = DEFAULT_EPS) -> np.ndarray:
    """Central differences of loss_fn w.r.t. every element of param,
    perturbing param in place."""
    grad = np.empty_like(param)
    flat = param.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + eps
        plus = loss_fn()
        flat[k] = saved - eps
        minus = loss_fn()
        flat[k] = saved
        gflat[k] = (plus - minus) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(loss_fn: Callable[[], float], theta: np.ndarray,
                   analytic: np.ndarray, eps: float = DEFAULT_EPS) -> float:
    """Max elementwise relative error between the analytic gradient and
    central finite differences over the flat parameter vector theta.

    loss_fn must recompute the loss from the current (mutated) values of
    theta, with any internal randomness fixed.
    """
    return max_relative_error(analytic, numerical_gradient(loss_fn, theta, eps=eps))
