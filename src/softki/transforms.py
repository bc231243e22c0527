"""Bijections between unconstrained optimizer variables and model parameters.

Positive quantities (noise, output scale, temperatures) go through softplus;
lengthscales go through a sigmoid scaled onto a closed interval so the
optimizer cannot push them past the cap.
"""

import numpy as np

from .errors import InvalidConfig


def softplus(u):
    u = np.asarray(u, dtype=float)
    # max(u, 0) + log1p(exp(-|u|)) avoids overflow for large |u|
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def softplus_inv(v):
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise InvalidConfig(f"softplus_inv requires positive input, got {float(v.min())}")
    # log(e^v - 1) = v + log(1 - e^-v)
    return v + np.log(-np.expm1(-v))


def softplus_deriv(u):
    return sigmoid(u)


def sigmoid(u):
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bounded_sigmoid(u, lo, hi):
    """Map the real line onto the open interval (lo, hi)."""
    return lo + (hi - lo) * sigmoid(u)


def bounded_sigmoid_inv(v, lo, hi):
    v = np.asarray(v, dtype=float)
    bad = v[(v <= lo) | (v >= hi)]
    if bad.size:
        raise InvalidConfig(f"bounded_sigmoid_inv: {float(bad[0])} is outside ({lo}, {hi})")
    t = (v - lo) / (hi - lo)
    return np.log(t) - np.log1p(-t)


def bounded_sigmoid_deriv(u, lo, hi):
    s = sigmoid(u)
    return (hi - lo) * s * (1.0 - s)
