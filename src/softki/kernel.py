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
    dtype. A pair overflows the expanded form |a|^2 + |b|^2 - 2 a.b when
    |a|^2 + |b|^2 + 2|a||b| = (|a| + |b|)^2 exceeds the dtype's max, which
    is compared here as |a| + |b| against its root, where nothing overflows.
    Pairing a row with other's largest norm up to its own names the farther
    row of each such pair, and only it. An inf norm is far; a nan one is not.
    """
    partner = np.minimum(sq, np.fmax.reduce(other, initial=0.0))
    return np.sqrt(sq) + np.sqrt(partner) > np.sqrt(np.finfo(sq.dtype).max)


def scaled_distance(x: np.ndarray, z: np.ndarray, lengthscales: np.ndarray,
                    out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Pairwise ||(x_i - z_j) / ell||_2 without an (n, m, d) intermediate.

    out and scratch, when given, are distinct C-ordered (n, m) arrays of x's
    dtype: the result is written into out and the cross term into scratch,
    which is left holding garbage. Without them both are new arrays; the
    arithmetic is the same either way. Raises NonFiniteInput when a pair
    can overflow x's dtype, naming the first far row (``far_rows``) of x,
    else of z; ``row`` is set to an x row's index. The row sums below are
    what the check reads, so it costs a pass over n + m values, and a far
    row prints no warning.
    """
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape[1] != z.shape[1]:
        raise DimensionMismatch(f"x has d={x.shape[1]} but z has d={z.shape[1]}")
    ell = np.asarray(lengthscales, dtype=x.dtype)
    with np.errstate(over="ignore"):
        xs, zs = x / ell, z / ell
        xx, zz = np.sum(xs * xs, axis=1), np.sum(zs * zs, axis=1)
    for name, far in (("x", far_rows(xx, zz)), ("z", far_rows(zz, xx))):
        if far.any():  # a nan row is left to give nan distances
            row = int(np.argmax(far))
            raise NonFiniteInput(f"{name} row {row} (0-based) overflows the squared "
                                 f"distance in {x.dtype}", row if name == "x" else None)
    # 2 x.z: doubling xs is exact, so this is bitwise the doubled product
    xs *= 2.0
    cross = np.matmul(xs, zs.T, out=scratch)
    # |x|^2 + |z|^2 as a broadcast copy of |z|^2 plus |x|^2 (addition commutes
    # exactly): one broadcast operand in the ufunc instead of add.outer's two
    sq = np.empty_like(cross) if out is None else out
    np.copyto(sq, zz)
    sq += xx[:, None]
    sq -= cross
    # expanded-norm form can go slightly negative from cancellation
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def matern32_forward(x: np.ndarray, z: np.ndarray, params: MaternParams,
                     out: tuple | None = None):
    """(K, e) with e = exp(-sqrt(3) r): two buffers, each built once. The pair
    is what ``matern32_param_grads`` reads.

    out, when given, is a pair of distinct C-ordered (n, m) arrays of x's
    dtype that receive K and e; e's array holds ``scaled_distance``'s cross
    term until e is written.
    """
    k_out, e_out = (None, None) if out is None else out
    k = scaled_distance(x, z, params.lengthscales, out=k_out, scratch=e_out)
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
