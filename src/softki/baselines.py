"""Inducing-point variational baseline (SGPR) and a dense exact GP oracle.

The SGPR collapsed bound on a batch is

    elbo = log N(y | 0, Q + beta^2 I) - tr(K_xx - Q) / (2 beta^2),
    Q = K_xz K_zz^-1 K_zx = B B^T,    B = K_xz U^-1

with U the upper Cholesky factor of K_zz. log N is the low-rank Gaussian of
the softki likelihood with Phi = B and L = I, evaluated in m-space by
``objective.lowrank_gaussian`` (S = B^T B and one factorization of
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
"""

from dataclasses import replace

import numpy as np

from . import linalg
from .data import Dataset
from .errors import InvalidConfig, TooLarge
from .interp import Hyperparams
from .kernel import MaternParams, matern32, matern32_forward, matern32_param_grads
from .objective import LOG_2PI, ObjectiveReport, dense_gaussian, lowrank_gaussian
from .posterior import Posterior, fit, predict_mean, predict_var, test_metrics

EXACT_GP_MAX_POINTS = 4096


def sgpr_elbo(x: np.ndarray, y: np.ndarray, hp: Hyperparams) -> ObjectiveReport:
    """Collapsed variational bound and its analytic gradients."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    beta = hp.noise
    beta2 = beta * beta

    k_zz, e_zz = matern32_forward(hp.z, hp.z, hp.kernel)
    u_zz, jit = linalg.cholesky_upper(k_zz)
    k_xz, e_xz = matern32_forward(x, hp.z, hp.kernel)
    b = linalg.tri_solve_upper(u_zz, k_xz.T, transpose=True).T
    lr = lowrank_gaussian(b, y, None, beta2)
    log_n = -0.5 * (lr.quad + lr.logdet + n * LOG_2PI)

    trace_gap = n * hp.kernel.outputscale - float(np.trace(lr.s))
    value = log_n - trace_gap / (2.0 * beta2)

    # G = (a a^T - D^-1)/2 and P = K_xz K_zz^-1 = B U^-T: d/dK_xz is
    # 2 G P + P / beta^2 = a (P^T a)^T + B (Z S / beta^2) U^-T and d/dK_zz is
    # -P^T G P - P^T P / (2 beta^2), with B^T D^-1 B from lowrank_gaussian
    pa = linalg.tri_solve_upper(u_zz, lr.phi_a)                  # P^T a
    up_xz = b @ linalg.tri_solve_upper(u_zz, lr.zs.T / beta2).T
    del b  # freed before the n x m outer product, so the traced peak does not rise
    up_xz += np.outer(lr.a, pa)
    g1 = matern32_param_grads(x, hp.z, hp.kernel, k_xz, e_xz, up_xz,
                              want_x=False, want_z=True)
    inner = linalg.tri_solve_upper(u_zz, lr.phi_dinv_phi - lr.s / beta2)
    up_zz = 0.5 * (linalg.tri_solve_upper(u_zz, inner.T) - np.outer(pa, pa))
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
        diagnostics={"jitter": jit, "trace_gap": trace_gap},
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
