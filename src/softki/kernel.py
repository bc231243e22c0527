"""Matern-3/2 kernel with per-dimension lengthscales and an output scale.

k(x, z) = s2 * (1 + sqrt(3) r) exp(-sqrt(3) r),  r = ||(x - z) / ell||_2

with the division taken elementwise. The kernel is once differentiable;
derivatives with respect to inputs and lengthscales stay finite at r = 0
(the r in the denominator cancels), and the gradient at exactly coincident
inputs is 0.

The kernel has the forward/backward contract of the softmax in interp.py:
``matern32_forward`` builds (K, e) with e = exp(-sqrt(3) r) once, and
``matern32_param_grads`` reads that pair instead of building it again.
"""

from dataclasses import dataclass

import numpy as np

from .data import real
from .errors import DimensionMismatch, NonFiniteInput

SQRT3 = float(np.sqrt(3.0))  # python float: keeps float32 operands in float32

LENGTHSCALE_MIN = 0.01
LENGTHSCALE_MAX = 5.0


@dataclass
class MaternParams:
    """Constrained kernel hyperparameters.

    lengthscales: (d,) positive, kept inside [LENGTHSCALE_MIN, LENGTHSCALE_MAX]
    outputscale:  scalar variance s2 > 0
    """

    lengthscales: np.ndarray
    outputscale: float

    def __post_init__(self):
        self.lengthscales = real(self.lengthscales, "lengthscales", LENGTHSCALE_MIN,
                                 LENGTHSCALE_MAX, "[]", vector=True)
        self.outputscale = real(self.outputscale, "outputscale", 0.0)


def far_rows(sq: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Which rows form a pair with a row of other, no larger than their own,
    whose squared distance can overflow.

    sq and other hold the rows' scaled squared norms, in the distance's
    dtype. A pair overflows the augmented product's terms, |a|^2, |b|^2 and
    -2 a.b, when |a|^2 + |b|^2 + 2|a||b| = (|a| + |b|)^2 exceeds the dtype's
    max, which is compared here as |a| + |b| against its root, where nothing
    overflows. Pairing a row with other's largest norm up to its own names
    the farther row of each such pair, and only it. An inf norm is far; a
    nan one is not.
    """
    partner = np.sqrt(np.minimum(sq, np.fmax.reduce(other, initial=0.0)))
    partner += np.sqrt(sq)  # in place: one n-vector fewer at the forward's peak
    return partner > np.sqrt(np.finfo(sq.dtype).max)


def augmented(a: np.ndarray, ell: np.ndarray | float, left: bool) -> np.ndarray:
    """The rows of a / ell augmented so that a left operand's row times a
    right operand's row is their squared distance, [a/ell, |a/ell|^2, 1] on
    the left and [-2 a/ell, 1, |a/ell|^2] on the right, stored as the
    columns of a new C-ordered (d + 2, n) array of a / ell's dtype. Each
    coordinate is a contiguous row, so no ufunc here buffers, and a squared
    norm adds its d squares in sequence. A row whose norm overflows gets
    inf, which ``far_rows`` names."""
    n, d = a.shape
    out = np.empty((d + 2, n), np.result_type(a, ell))
    scaled, ell = out[:d], np.reshape(ell, (-1, 1))
    with np.errstate(over="ignore"):
        np.sum(np.square(np.divide(a.T, ell, out=scaled), out=scaled), axis=0,
               out=out[d if left else d + 1])
        # a / (ell / -2) is -2 (a / ell) exactly, short of subnormal quotients:
        # both scale by a power of two
        np.divide(a.T, ell if left else ell / -2.0, out=scaled)
    out[d + 1 if left else d] = 1.0
    return out


def scaled_distance(x: np.ndarray, z: np.ndarray, lengthscales: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise ||(x_i - z_j) / ell||_2 without an (n, m, d) intermediate.

    The squared distances are one product of ``augmented`` rows (as
    GPyTorch forms them), [x/ell, |x/ell|^2, 1] [-2 z/ell, 1, |z/ell|^2]^T,
    clamped at 0 and square-rooted in place. out, when given, is a
    C-ordered (n, m) array of x's dtype that receives the result; without
    it the result is a new array, and the arithmetic is the same either
    way. Raises NonFiniteInput when a pair can overflow x's dtype, naming
    the first far row (``far_rows``) of x, else of z; ``row`` is set to an
    x row's index. The check reads the augmented rows' squared norms before
    the product, so it costs a pass over n + m values, and a far row prints
    no warning.
    """
    x, z = np.asarray(x), np.asarray(z)
    d = x.shape[1]
    if z.shape[1] != d:
        raise DimensionMismatch(f"x has d={d} but z has d={z.shape[1]}")
    ell = np.asarray(lengthscales, dtype=x.dtype)
    xa, za = augmented(x, ell, True), augmented(z, ell, False)
    for name, far in (("x", far_rows(xa[d], za[d + 1])), ("z", far_rows(za[d + 1], xa[d]))):
        if far.any():  # a nan row is left to give nan distances
            row = int(np.argmax(far))
            raise NonFiniteInput(f"{name} row {row} (0-based) overflows the squared "
                                 f"distance in {x.dtype}", row if name == "x" else None)
    sq = np.matmul(xa.T, za, out=out)
    # the product can go slightly negative from cancellation
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def matern32_forward(x: np.ndarray, z: np.ndarray, params: MaternParams,
                     out: tuple | None = None):
    """(K, e) with e = exp(-sqrt(3) r): two buffers, each built once. The pair
    is what ``matern32_param_grads`` reads.

    out, when given, is a pair of distinct C-ordered (n, m) arrays of x's
    dtype that receive K and e.
    """
    k_out, e_out = (None, None) if out is None else out
    k = scaled_distance(x, z, params.lengthscales, out=k_out)
    k *= SQRT3
    e = np.negative(k, out=e_out)
    np.exp(e, out=e)
    k += 1.0
    k *= params.outputscale
    k *= e
    return k, e


def matern32(x: np.ndarray, z: np.ndarray, params: MaternParams) -> np.ndarray:
    """Kernel matrix K with K[i, j] = k(x_i, z_j)."""
    return matern32_forward(x, z, params)[0]


@dataclass
class MaternGrads:
    lengthscales: np.ndarray        # (d,)
    outputscale: float
    x: np.ndarray | None = None     # (n, d)
    z: np.ndarray | None = None     # (m, d)


def matern32_param_grads(
    x: np.ndarray,
    z: np.ndarray,
    params: MaternParams,
    k: np.ndarray,
    e: np.ndarray,
    upstream: np.ndarray,
    want_x: bool = False,
    want_z: bool = True,
    scratch: np.ndarray | None = None,
) -> MaternGrads:
    """Contract dK/dtheta with an upstream sensitivity matrix.

    (k, e) is ``matern32_forward(x, z, params)``; neither is written to.
    Returns sum_ij upstream[i, j] * dK[i, j]/dtheta for theta in
    {lengthscales, outputscale} and, on request, the input-point gradients
    (z for learning interpolation/inducing points; x for completeness).

    When x and z are the same points, K depends on them through both slots;
    callers pass want_x=want_z=True and add the two pieces.

    scratch, when given, is a C-ordered (n, m) array of k's dtype that the
    products with upstream are written into instead of a new one.

    Derivatives used (r cancels, so everything is finite at r = 0):
        dk/d ell_c = 3 s2 e^{-sqrt(3) r} (x_c - z_c)^2 / ell_c^3
        dk/d x_c   = -3 s2 e^{-sqrt(3) r} (x_c - z_c) / ell_c^2
        dk/d z_c   = -dk/d x_c
        dk/d s2    = k / s2
    """
    x = np.asarray(x)
    z = np.asarray(z)
    upstream = np.asarray(upstream)
    shape = (x.shape[0], z.shape[0])
    if upstream.shape != shape:
        raise DimensionMismatch(f"upstream shape {upstream.shape} != {shape}")
    if k.shape != shape or e.shape != shape:
        raise DimensionMismatch(f"forward shapes {k.shape}, {e.shape} != {shape}")
    ell = params.lengthscales
    s2 = params.outputscale

    # one scratch buffer holds each product with upstream in turn
    w = np.multiply(k, upstream, out=scratch)
    g_s2 = float(np.sum(w) / s2)
    np.multiply(e, 3.0 * s2, out=w)          # in e's dtype, then cast into w
    w *= upstream                            # shared factor, (n, m)
    row = w.sum(axis=1)                      # (n,)
    col = w.sum(axis=0)                      # (m,)
    wz = w @ z                               # (n, d)

    # sum_ij w_ij (x_ic - z_jc)^2 expanded to avoid an (n, m, d) array
    g_ell = (x * x).T @ row - 2.0 * np.einsum("ic,ic->c", x, wz) + (z * z).T @ col
    g_ell /= ell**3

    g_x = None
    g_z = None
    inv2 = 1.0 / ell**2
    if want_x:
        g_x = -(x * row[:, None] - wz) * inv2[None, :]
    if want_z:
        g_z = (w.T @ x - z * col[:, None]) * inv2[None, :]
    return MaternGrads(lengthscales=g_ell, outputscale=g_s2, x=g_x, z=g_z)
