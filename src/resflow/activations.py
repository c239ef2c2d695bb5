"""Scalar activation functions and their first two derivatives.

The residual branches use LipSwish, ``z * sigmoid(beta * z) / 1.1``, whose
slope stays strictly below 1 for every ``beta > 0`` while its curvature
stays bounded away from zero near the maximal-slope region.  Softplus
reparameterizes ``beta`` and is the saturating reference of the curvature
comparison tests; the branch network itself always uses LipSwish.

All functions broadcast over numpy arrays and are total (no domain
errors).  ``beta`` enters the network through a softplus reparameterization
so it is strictly positive; see :func:`beta_from_raw`.
"""

from __future__ import annotations

import numpy as np

# Swish's maximal slope is ~1.0998, so dividing by 1.1 keeps |d/dz| < 1.
LIPSWISH_SCALE = 1.1


def sigmoid(t):
    """Numerically stable logistic function.

    ``1 / (1 + e)`` for ``t >= 0`` and ``e / (1 + e)`` otherwise, with
    ``e = exp(-|t|)``; the numerator ``max(e, t >= 0)`` picks between the
    two without a branch, bit for bit.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    out = np.maximum(e, t >= 0)
    out /= 1.0 + e
    if out.ndim == 0:
        return float(out)
    return out


def _sigmoid_d1(t):
    s = sigmoid(t)
    return s * (1.0 - s)


def _sigmoid_d2(t):
    s = sigmoid(t)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def lipswish(z, beta):
    """``z * sigmoid(beta * z) / 1.1``."""
    z = np.asarray(z, dtype=np.float64)
    return z * sigmoid(beta * z) / LIPSWISH_SCALE


def lipswish_d1(z, beta):
    """First derivative in ``z``; bounded by 1 in magnitude for beta > 0."""
    z = np.asarray(z, dtype=np.float64)
    t = beta * z
    return (sigmoid(t) + t * _sigmoid_d1(t)) / LIPSWISH_SCALE


def lipswish_d2(z, beta):
    """Second derivative in ``z``."""
    z = np.asarray(z, dtype=np.float64)
    t = beta * z
    return beta * (2.0 * _sigmoid_d1(t) + t * _sigmoid_d2(t)) / LIPSWISH_SCALE


def lipswish_dbeta(z, beta):
    """Derivative of ``lipswish`` with respect to ``beta``."""
    z = np.asarray(z, dtype=np.float64)
    return z * z * _sigmoid_d1(beta * z) / LIPSWISH_SCALE


def lipswish_d1_dbeta(z, beta):
    """Mixed derivative d/dbeta of the slope ``lipswish_d1``.

    Needed by the bilinear parameter gradient: the Jacobian of the branch
    contains diag(lipswish_d1(z)), so differentiating the Jacobian with
    respect to beta differentiates the slope.
    """
    z = np.asarray(z, dtype=np.float64)
    t = beta * z
    return z * (2.0 * _sigmoid_d1(t) + t * _sigmoid_d2(t)) / LIPSWISH_SCALE


def beta_from_raw(raw_beta: float) -> float:
    """Strictly positive activation parameter via softplus."""
    return float(softplus(raw_beta))


def beta_raw_chain(raw_beta: float) -> float:
    """d(beta)/d(raw_beta) for backpropagation into the raw parameter."""
    return float(sigmoid(raw_beta))


def raw_from_beta(beta: float) -> float:
    """Inverse softplus; used to initialize the raw parameter."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    # log(expm1(beta)) computed stably for both small and large beta
    if beta > 30:
        return float(beta)
    return float(np.log(np.expm1(beta)))


# -- softplus: beta's reparameterization and the saturating reference ------


def softplus(z):
    """``log(1 + exp(z))``, computed stably."""
    z = np.asarray(z, dtype=np.float64)
    return np.logaddexp(0.0, z)


def softplus_d1(z):
    return sigmoid(z)


def softplus_d2(z):
    return _sigmoid_d1(z)

