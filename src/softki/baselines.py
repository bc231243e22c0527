"""Inducing-point variational baseline (SGPR) and a dense exact GP oracle.

The SGPR collapsed bound on a batch is

    elbo = log N(y | 0, Q + beta^2 I) - tr(K_xx - Q) / (2 beta^2),
    Q = K_xz K_zz^-1 K_zx = B B^T,    B = K_xz U^-1

with U the upper Cholesky factor of K_zz. log N is the low-rank Gaussian of
the softki likelihood with Phi = B and u = None (L = I), evaluated in m-space
by ``objective.lowrank_gaussian`` on the route softki's ``exact_mll`` takes
too (S = B^T B, and one factorization and one triangular inverse of
beta^2 I + S, as in Titsias, 2009); the whitened B keeps K_zz^-1 out of S.
tr(K_xx) is n * outputscale for a stationary kernel and tr(Q) = tr(S). The
posterior, fit by the stacked QR of ``posterior.fit`` as softki's is, uses
C = K_zz + K_zx K_xz / beta^2 with mean K_*z C^-1 K_zx y / beta^2 and variance
K_** - K_*z (K_zz^-1 - C^-1) K_z*, i.e. the posterior form with phi = K_*z,
v = alpha and P = K_zz^-1 - C^-1. The exact GP is the same form with the
training inputs as points and P = K^-1; its likelihood and its fit take
K^-1 y, log det K and K^-1 from one ``objective.dense_gaussian`` of
K = K_XX + beta^2 I.

Both models read softki's ``interp.Hyperparams`` record with no temperatures.
SGPR's points are its z; the exact GP has none to learn, and ``exact_fit``
puts the training inputs in the z of the posterior's record.

The kernel backward reads its forward, as softki's does: ``sgpr_elbo`` builds
(K_zz, e) and (K_xz, e) once each with ``kernel.matern32_forward`` and hands
both pairs to ``kernel.matern32_param_grads``. ``exact_gp_mll`` builds K_XX a
second time at its gradient instead of holding K and e through the dense
solve.

B is formed by products, not by substitution. U^-1 comes from one LAPACK
?trtri, and B^T = U^-T K_xz^T from one in-place ?trmm on the Fortran-ordered
transpose of B's buffer; every other product with U^-1 (P^T a, the factor of
the K_xz sensitivity and the K_zz sensitivity) is a GEMM with it. At
(n, m) = (3000, 128) and one BLAS thread the wide ?trsm took 4.9 ms against
1.7 ms for ?trtri and ?trmm. The (n, m) arrays of a call live in the four
buffers of ``sgpr_workspace``: K_xz; e, which holds the distances' cross term
until e is written; B, which turns into the kernel backward's scratch once
the upstream is formed; and the upstream B (Z S / beta^2) U^-T, which takes
its rank-one term a (P^T a)^T in place by ?ger. ``trainer.train_sgpr`` makes
one workspace and passes it to every step.
"""

from dataclasses import replace

import numpy as np
from scipy.linalg.blas import dger as ger, dtrmm as trmm

from . import linalg
from .data import Dataset
from .errors import DimensionMismatch, InvalidConfig, TooLarge
from .interp import Hyperparams
from .kernel import MaternParams, matern32, matern32_forward, matern32_param_grads
from .objective import LOG_2PI, ObjectiveReport, dense_gaussian, lowrank_gaussian
from .posterior import Posterior, fit, predict_mean, predict_var, test_metrics

EXACT_GP_MAX_POINTS = 4096


def sgpr_workspace(n: int, m: int) -> np.ndarray:
    """The four float64 (n, m) buffers of one ``sgpr_elbo`` call on n points
    with m inducing points, as one (4, n, m) array: K_xz, e, B and the
    upstream sensitivity."""
    return np.empty((4, n, m))


def sgpr_elbo(x: np.ndarray, y: np.ndarray, hp: Hyperparams, *,
              workspace: np.ndarray | None = None) -> ObjectiveReport:
    """Collapsed variational bound and its analytic gradients.

    workspace, when given, is ``sgpr_workspace(n, m)`` or another C-ordered
    float64 (4, n, m) array, whose contents are overwritten; without it the
    call makes one. A caller that evaluates many full batches of the same
    size passes one workspace to every call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = y.shape[0], hp.z.shape[0]
    if workspace is None:
        workspace = sgpr_workspace(n, m)
    elif (workspace.shape != (4, n, m) or workspace.dtype != np.float64
          or not workspace.flags.c_contiguous):
        # BLAS writes into these buffers in place; a copy would be written instead
        raise DimensionMismatch(f"workspace is {workspace.dtype} {workspace.shape}, "
                                f"expected a C-ordered float64 {(4, n, m)} array")
    k_xz, e_xz, b, up_xz = workspace
    beta = hp.noise
    beta2 = beta * beta

    k_zz, e_zz = matern32_forward(hp.z, hp.z, hp.kernel)
    u_zz, jit = linalg.cholesky_upper(k_zz)
    v = linalg.tri_inverse_upper(u_zz)                         # U^-1
    del u_zz  # only U^-1 is read below: one m x m array less at the step's peak
    matern32_forward(x, hp.z, hp.kernel, out=(k_xz, e_xz))
    # B^T = U^-T K_xz^T in place on the F-ordered transpose of b's buffer
    np.copyto(b, k_xz)
    trmm(1.0, v, b.T, trans_a=1, overwrite_b=1)
    lr = lowrank_gaussian(b, y, None, beta2)
    log_n = -0.5 * (lr.quad + lr.logdet + n * LOG_2PI)

    trace_gap = n * hp.kernel.outputscale - float(np.trace(lr.s))
    value = log_n - trace_gap / (2.0 * beta2)

    # G = (a a^T - D^-1)/2 and P = K_xz K_zz^-1 = B U^-T: d/dK_xz is
    # 2 G P + P / beta^2 = a (P^T a)^T + B (Z S / beta^2) U^-T and d/dK_zz is
    # -P^T G P - P^T P / (2 beta^2), with B^T D^-1 B from lowrank_gaussian
    pa = v @ lr.phi_a                                          # P^T a
    np.matmul(b, (lr.zs / beta2) @ v.T, out=up_xz)
    ger(1.0, pa, lr.a, a=up_xz.T, overwrite_a=1)               # += a pa^T
    # B is dead once the upstream holds it: its buffer is the backward's scratch
    g1 = matern32_param_grads(x, hp.z, hp.kernel, k_xz, e_xz, up_xz,
                              want_x=False, want_z=True, scratch=b)
    inner = v @ (lr.phi_dinv_phi - lr.s / beta2)
    up_zz = 0.5 * (v @ inner.T - np.outer(pa, pa))
    g2 = matern32_param_grads(hp.z, hp.z, hp.kernel, k_zz, e_zz, up_zz,
                              want_x=True, want_z=True)
    tr_g = 0.5 * (float(lr.a @ lr.a) - lr.tr_d_inv)

    grads = {
        "noise": 2.0 * beta * tr_g + trace_gap / beta**3,
        "lengthscales": g1.lengthscales + g2.lengthscales,
        "outputscale": g1.outputscale + g2.outputscale - n / (2.0 * beta2),
        "z": g1.z + g2.x + g2.z,
    }
    return ObjectiveReport(
        value=float(value), gradients=grads, mode_used="exact",
        diagnostics={"jitter": jit, "jitter_inner": lr.jitter, "trace_gap": trace_gap},
    )


def sgpr_fit(data: Dataset, hp: Hyperparams, solver: str = "qr") -> Posterior:
    """Fit the inducing-point posterior; see ``posterior.fit``. solver must be "qr"."""
    if solver != "qr":
        raise InvalidConfig(f"sgpr_fit solves only by qr, got solver {solver!r}")
    return fit("sgpr", data, hp)


def sgpr_predict_mean(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return predict_mean(post, xs)


def sgpr_predict_var(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return predict_var(post, xs)


def sgpr_test_metrics(post: Posterior, xs: np.ndarray, ys: np.ndarray):
    return test_metrics(post, xs, ys)


# ---------------------------------------------------------------------------
# dense exact GP


def _dense_gp(x: np.ndarray, y: np.ndarray, beta2: float, kernel: MaternParams):
    """``dense_gaussian`` of K = K_XX + beta^2 I, refused above the size cap."""
    n = y.shape[0]
    if n > EXACT_GP_MAX_POINTS:
        raise TooLarge(f"exact GP capped at {EXACT_GP_MAX_POINTS} points, got {n}")
    return dense_gaussian(matern32(x, x, kernel) + beta2 * np.eye(n), y)


def exact_gp_mll(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> ObjectiveReport:
    """Dense marginal log likelihood with gradients for (noise, kernel); hp.z is unused."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    quad, logdet, a, k_inv, jit = _dense_gp(x, y, hp.noise * hp.noise, hp.kernel)
    value = -0.5 * (quad + logdet + y.shape[0] * LOG_2PI)

    g = 0.5 * (np.outer(a, a) - k_inv)
    del k_inv  # one n x n array less while the kernel backward runs
    # the one kernel forward built twice: holding K_XX and its e through the
    # dense solve would add two n x n arrays (256 MB at the size cap) to save
    # an O(n^2 d) build beside an O(n^3) factorization
    k, e = matern32_forward(x, x, hp.kernel)
    kg = matern32_param_grads(x, x, hp.kernel, k, e, g, want_x=False, want_z=False)
    grads = {
        "noise": 2.0 * hp.noise * float(np.trace(g)),
        "lengthscales": kg.lengthscales,
        "outputscale": kg.outputscale,
    }
    return ObjectiveReport(value=float(value), gradients=grads, mode_used="exact",
                           diagnostics={"jitter": jit})


def exact_fit(data: Dataset, hp: Hyperparams) -> Posterior:
    """Dense exact GP posterior: v = K^-1 y and P = K^-1, K = K_XX + noise^2 I.

    The posterior's points are the training inputs, whatever hp.z holds.
    """
    x = np.asarray(data.x, dtype=float)
    _, _, v, p, jit = _dense_gp(x, data.y, hp.noise * hp.noise, hp.kernel)
    return Posterior("exact", replace(hp, z=x), v, p, {"jitter": jit})
