"""The hyperparameter record of every model, the softmax interpolation weights
from data points onto its points, and the low-rank kernel approximation built
from them.

``Hyperparams(noise, kernel, z, temperatures)`` serves all three models: the
paper's SoftKI is SGPR's inducing-point set (noise, kernel, points z) plus
per-dimension softmax temperatures, and the exact GP is that set with no
learned points. temperatures is (d,) for softki and empty for SGPR and the
exact GP, whose z is (0, d) until its fit (``posterior.fit``) puts the
training inputs there.

Row i of the weight matrix is a softmax over interpolation points:

    W[i, j] = exp(-||x_i / T - z_j||_2) / sum_k exp(-||x_i / T - z_k||_2)

T is a per-dimension temperature dividing the data coordinates only (the
interpolation points are not divided), so T = 1 recovers the plain scheme.
The approximate cross covariance is  Khat = W K_zz  and the approximate Gram
matrix is  W K_zz W^T.
"""

from dataclasses import dataclass

import numpy as np

from .data import points, real
from .errors import DimensionMismatch, NonFiniteInput
from .kernel import MaternParams, far_rows, matern32, scaled_distance


@dataclass
class Hyperparams:
    """Noise standard deviation, kernel parameters, points and temperatures."""

    noise: float
    kernel: MaternParams
    z: np.ndarray                  # (m, d); (0, d) for a trained exact GP
    temperatures: np.ndarray = ()  # (d,) strictly positive for softki, else (0,)

    def __post_init__(self):
        self.noise = real(self.noise, "noise", 0.0)
        self.z = points(self.z, "z")
        self.temperatures = real(self.temperatures, "temperatures", 0.0,
                                 vector=(0, self.z.shape[1]))
        if self.kernel.lengthscales.shape[0] != self.z.shape[1]:
            raise DimensionMismatch(f"{self.kernel.lengthscales.shape[0]} lengthscales "
                                    f"for d={self.z.shape[1]}")
        # the softmax sums z's squares against data and divides x by the
        # temperatures, and K_zz pairs the scaled z with itself: a z row whose
        # squares or K_zz pairs overflow, or a temperature whose 1/T^2 does,
        # turns every prediction into nan
        z = self.z.astype(float, copy=False)
        with np.errstate(over="ignore"):
            zz = np.sum((z / self.kernel.lengthscales)**2, axis=1)
            far = ~np.isfinite(np.sum(z**2, axis=1)) | far_rows(zz, zz)
            t_fits = np.isfinite(self.temperatures.astype(float, copy=False) ** -2.0)
        if far.any():
            raise NonFiniteInput(f"z row {np.argmax(far)} (0-based) overflows the "
                                 "squared distance in float64")
        if not t_fits.all():
            raise NonFiniteInput(f"temperatures[{np.argmin(t_fits)}]: 1/T^2 overflows float64")


def softmax_weights(x: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Row-stochastic (n, m) weight matrix, computed with max-subtraction and
    written over its distances, so the fit and prediction hold one (n, m)
    array per row block, not two."""
    one = np.empty((len(x), hp.z.shape[0]), x.dtype)
    return softmax_forward(x, hp, out=(one, one))[0]


def softmax_forward(x: np.ndarray, hp: Hyperparams, out: tuple | None = None):
    """(W, dist) in x's dtype: the softmax weights and their distances
    dist[i, j] = ||x_i / T - z_j||, the inputs ``softmax_weights_backward`` reads.

    out, when given, is a pair of C-ordered (n, m) arrays of x's dtype that
    receive W and dist; one array twice receives W alone, written over the
    distances."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected (n, d) inputs, got {x.shape}")
    if x.shape[1] != hp.z.shape[1]:
        raise DimensionMismatch(f"x has d={x.shape[1]} but z has d={hp.z.shape[1]}")
    if hp.temperatures.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"softmax weights need {x.shape[1]} temperatures, "
                                f"got {hp.temperatures.shape[0]}")
    temps = hp.temperatures.astype(x.dtype)
    with np.errstate(over="ignore"):  # an overflowing row is refused by its norm below
        xt = x / temps
    w_out, dist_out = (None, None) if out is None else out
    dist = scaled_distance(xt, hp.z.astype(x.dtype), np.ones(x.shape[1], x.dtype), out=dist_out)
    # the logits -dist less their row max -min(dist), exactly: dmin - d is
    # (-d) + dmin. Then W in place
    w = np.subtract(dist.min(axis=1, keepdims=True), dist, out=w_out)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w, dist


def softmax_weights_backward(
    x: np.ndarray,
    hp: Hyperparams,
    w: np.ndarray,
    dist: np.ndarray,
    upstream: np.ndarray,
    out: np.ndarray | None = None,
    mask: np.ndarray | None = None,
):
    """Chain an upstream dL/dW through the softmax onto z and T.

    w and dist are ``softmax_forward(x, hp)``. Returns (g_z, g_temps).
    Runs in x's dtype: z and T are cast to it, as in ``softmax_forward``, so
    a float32 upstream gets no float64 (n, m) copy. Distance gradients at
    coincident points (d_ij = 0) are taken as 0. out, when given, is a
    C-ordered (n, m) array of x's dtype, upstream itself or another, that
    the logits' sensitivities are written into instead of a new array, and
    mask an (n, m) bool array that marks those points instead of a new one.
    """
    if upstream.shape != w.shape:
        raise DimensionMismatch(f"upstream shape {upstream.shape} != {w.shape}")

    # softmax backward: dL/d logits = W * (U - rowsum(U * W))
    rowdot = np.einsum("ij,ij->i", upstream, w)
    # C order, as W is, whatever upstream's layout: the sums and GEMMs below
    # then visit a in one fixed order
    a = np.subtract(upstream, rowdot[:, None], out=out, order="C")
    a *= w

    # logits = -d_ij, d_ij = ||x/T - z_j||; zero distance contributes zero
    with np.errstate(divide="ignore", invalid="ignore"):
        a /= dist
    np.copyto(a, 0.0, where=np.logical_not(np.greater(dist, 0, out=mask), out=mask))

    temps = hp.temperatures.astype(x.dtype)
    z = hp.z.astype(x.dtype, copy=False)
    xt = x / temps
    arow = a.sum(axis=1)                       # (n,)
    acol = a.sum(axis=0)                       # (m,)

    # d logits_ij / d z_j = (xt_i - z_j) / d_ij
    g_z = a.T @ xt - z * acol[:, None]

    # d logits_ij / d T_c = (xt_ic - z_jc) x_ic / (d_ij T_c^2), summed as
    # x xt arow - x az with each (n, d) product formed in place; x xt arow is
    # in a's dtype, as az is, so it is a new array only when x's is narrower
    az = a @ z                                 # (n, d)
    xt *= x
    t = np.multiply(xt, arow[:, None], out=xt if xt.dtype == az.dtype else None)
    t -= np.multiply(x, az, out=az)
    g_t = t.sum(axis=0) / temps**2
    return g_z, g_t


def softki_cross(x: np.ndarray, hp: Hyperparams):
    """Weights, interpolation-point Gram matrix, and the product Khat = W K_zz."""
    w = softmax_weights(x, hp)
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    return w, k_zz, w @ k_zz
