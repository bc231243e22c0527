"""Inducing-point variational baseline (SGPR) and a dense exact GP oracle.

The SGPR collapsed bound on a batch is

    elbo = log N(y | 0, Q + beta^2 I) - tr(K_xx - Q) / (2 beta^2),
    Q = K_xz K_zz^-1 K_zx

evaluated through B = K_xz U^-1 (U upper Cholesky of K_zz), so neither K_xx
nor Q is ever materialized: tr(K_xx) is n * outputscale for a stationary
kernel and tr(Q) = ||B||_F^2. The posterior uses C = K_zz + K_zx K_xz / beta^2
with mean K_*z C^-1 K_zx y / beta^2 and variance
K_** - K_*z (K_zz^-1 - C^-1) K_z*; the QR variant solves for alpha through the
same stacked row-block factorization the interpolation posterior uses.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import Dataset
from .errors import TooLarge
from .kernel import MaternParams, matern32, matern32_param_grads
from .objective import Gradients, ObjectiveReport, LOG_2PI
from .posterior import normal_equations, score, stacked_qr_solve

EXACT_GP_MAX_POINTS = 4096


@dataclass
class SGPRHyperparams:
    noise: float
    kernel: MaternParams
    z: np.ndarray

    def __post_init__(self):
        self.noise = float(self.noise)
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        if self.noise <= 0:
            raise ValueError("noise must be positive")


def sgpr_elbo(x: np.ndarray, y: np.ndarray, hp: SGPRHyperparams,
              jitter_schedule=None) -> ObjectiveReport:
    """Collapsed variational bound and its analytic gradients."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    m = hp.z.shape[0]
    beta = hp.noise
    beta2 = beta * beta

    k_xz = matern32(x, hp.z, hp.kernel)
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    u_zz, jit = linalg.cholesky_upper(k_zz, jitter_schedule)

    b = linalg.tri_solve_upper(u_zz, k_xz.T, transpose=True).T   # K_xz U^-1
    m_mat = beta2 * np.eye(m) + b.T @ b
    u_m, _ = linalg.cholesky_upper(m_mat, jitter_schedule)
    a = (y - b @ linalg.chol_solve(u_m, b.T @ y)) / beta2
    quad = float(y @ a)
    logdet = (n - m) * float(np.log(beta2)) + 2.0 * float(np.sum(np.log(np.diagonal(u_m))))
    log_n = -0.5 * (quad + logdet + n * LOG_2PI)

    trace_gap = n * hp.kernel.outputscale - float(np.sum(b * b))
    value = log_n - trace_gap / (2.0 * beta2)

    # gradients: G = (a a^T - D^-1)/2 acts through K_xz and K_zz
    p = linalg.tri_solve_upper(u_zz, b.T).T                      # K_xz K_zz^-1
    pa = p.T @ a
    d_inv_p = (p - b @ linalg.chol_solve(u_m, b.T @ p)) / beta2
    gp = 0.5 * (np.outer(a, a @ p) - d_inv_p)                    # G P, (n, m)
    pt_d_inv_p = (p.T @ p - (p.T @ b) @ linalg.chol_solve(u_m, b.T @ p)) / beta2
    pt_g_p = 0.5 * (np.outer(pa, pa) - pt_d_inv_p)               # P^T G P

    u_m_inv = linalg.tri_solve_upper(u_m, np.eye(m))
    tr_d_inv = (n - m + beta2 * float(np.sum(u_m_inv * u_m_inv))) / beta2
    tr_g = 0.5 * (float(a @ a) - tr_d_inv)

    up_xz = 2.0 * gp + p / beta2
    up_zz = -pt_g_p - (p.T @ p) / (2.0 * beta2)
    g1 = matern32_param_grads(x, hp.z, hp.kernel, up_xz, want_x=False, want_z=True)
    g2 = matern32_param_grads(hp.z, hp.z, hp.kernel, up_zz, want_x=True, want_z=True)

    grads = Gradients(
        noise=2.0 * beta * tr_g + trace_gap / beta**3,
        lengthscales=g1.lengthscales + g2.lengthscales,
        outputscale=g1.outputscale + g2.outputscale - n / (2.0 * beta2),
        z=g1.z + g2.x + g2.z,
        temperatures=None,
    )
    return ObjectiveReport(
        value=float(value), gradients=grads, mode_used="exact",
        diagnostics={"jitter": jit, "trace_gap": trace_gap},
    )


@dataclass
class SGPRPosterior:
    hp: SGPRHyperparams
    u_zz: np.ndarray       # (m, m) upper, U^T U = K_zz (+ jitter)
    factor: np.ndarray     # (m, m) upper, factor^T factor = C
    alpha: np.ndarray      # (m,)
    diagnostics: dict = field(default_factory=dict)


def sgpr_fit(data: Dataset, hp: SGPRHyperparams, solver: str = "qr") -> SGPRPosterior:
    """Fit inducing-point representer weights by QR stacking or a dense solve."""
    x, y = data.x, data.y
    beta = hp.noise
    k_xz = matern32(x, hp.z, hp.kernel)
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    u_zz, jit = linalg.cholesky_upper(k_zz)
    diag = {"jitter": jit, "solver": solver}

    if solver == "qr":
        r, c, _, qr_diag = stacked_qr_solve(
            iter([(k_xz / beta, y / beta)]), u_zz
        )
        alpha = linalg.tri_solve_upper(r, c)
        diag.update(qr_diag)
        factor = r
    elif solver == "direct":
        c_mat, rhs = normal_equations(k_zz, k_xz, y, beta)
        factor, jc = linalg.cholesky_upper(c_mat)
        diag["jitter_c"] = jc
        alpha = linalg.chol_solve(factor, rhs)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return SGPRPosterior(hp=hp, u_zz=u_zz, factor=factor, alpha=alpha, diagnostics=diag)


def sgpr_predict_mean(post: SGPRPosterior, xs: np.ndarray) -> np.ndarray:
    k_sz = matern32(np.atleast_2d(xs), post.hp.z, post.hp.kernel)
    return k_sz @ post.alpha


def sgpr_predict_var(post: SGPRPosterior, xs: np.ndarray) -> np.ndarray:
    k_sz = matern32(np.atleast_2d(xs), post.hp.z, post.hp.kernel)
    prior_term = linalg.tri_solve_upper(post.u_zz, k_sz.T, transpose=True)
    post_term = linalg.tri_solve_upper(post.factor, k_sz.T, transpose=True)
    var = (
        post.hp.kernel.outputscale
        - np.einsum("ij,ij->j", prior_term, prior_term)
        + np.einsum("ij,ij->j", post_term, post_term)
    )
    return np.maximum(var, 0.0)


def sgpr_test_metrics(post: SGPRPosterior, xs: np.ndarray, ys: np.ndarray):
    return score(ys, sgpr_predict_mean(post, xs), sgpr_predict_var(post, xs),
                 post.hp.noise)


# ---------------------------------------------------------------------------
# dense exact GP


def exact_gp_mll(x: np.ndarray, y: np.ndarray, noise: float,
                 kernel: MaternParams) -> ObjectiveReport:
    """Dense marginal log likelihood with gradients for (noise, kernel)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n > EXACT_GP_MAX_POINTS:
        raise TooLarge(f"exact GP capped at {EXACT_GP_MAX_POINTS} points, got {n}")
    beta2 = noise * noise
    k = matern32(x, x, kernel) + beta2 * np.eye(n)
    u, jit = linalg.cholesky_upper(k)
    a = linalg.chol_solve(u, y)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(u))))
    value = -0.5 * (float(y @ a) + logdet + n * LOG_2PI)

    k_inv = linalg.chol_solve(u, np.eye(n))
    g = 0.5 * (np.outer(a, a) - k_inv)
    kg = matern32_param_grads(x, x, kernel, g, want_x=False, want_z=False)
    grads = Gradients(
        noise=2.0 * noise * float(np.trace(g)),
        lengthscales=kg.lengthscales,
        outputscale=kg.outputscale,
    )
    return ObjectiveReport(value=float(value), gradients=grads, mode_used="exact",
                           diagnostics={"jitter": jit})


@dataclass
class ExactGP:
    x: np.ndarray
    noise: float
    kernel: MaternParams
    u: np.ndarray
    alpha: np.ndarray

    @classmethod
    def fit(cls, data: Dataset, noise: float, kernel: MaternParams) -> "ExactGP":
        x, y = data.x, data.y
        n = y.shape[0]
        if n > EXACT_GP_MAX_POINTS:
            raise TooLarge(f"exact GP capped at {EXACT_GP_MAX_POINTS} points, got {n}")
        k = matern32(x, x, kernel) + noise**2 * np.eye(n)
        u, _ = linalg.cholesky_upper(k)
        alpha = linalg.chol_solve(u, y)
        return cls(x=np.asarray(x, dtype=float), noise=float(noise), kernel=kernel,
                   u=u, alpha=alpha)

    def predict_mean(self, xs: np.ndarray) -> np.ndarray:
        k_sx = matern32(np.atleast_2d(xs), self.x, self.kernel)
        return k_sx @ self.alpha

    def predict_var(self, xs: np.ndarray) -> np.ndarray:
        k_sx = matern32(np.atleast_2d(xs), self.x, self.kernel)
        half = linalg.tri_solve_upper(self.u, k_sx.T, transpose=True)
        var = self.kernel.outputscale - np.einsum("ij,ij->j", half, half)
        return np.maximum(var, 0.0)

    def test_metrics(self, xs: np.ndarray, ys: np.ndarray):
        return score(ys, self.predict_mean(xs), self.predict_var(xs), self.noise)
