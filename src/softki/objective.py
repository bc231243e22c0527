"""Training objectives for the softmax-interpolation GP.

The model covariance of a batch is D = W K_zz W^T + beta^2 I with W the
row-stochastic interpolation weights. The exact marginal log likelihood

    value = -1/2 [ y^T D^-1 y + log det D + n log(2 pi) ]

comes from one of two Gaussian cores. ``lowrank_gaussian`` (training, and the
SGPR bound) takes D = Phi L L^T Phi^T + beta^2 I (softki: Phi = W, L = U_zz^T;
SGPR: Phi = K_xz U_zz^-1, L = I), factorizes only the m-by-m
M = beta^2 I + L^T S L with S = Phi^T Phi, and gets D^-1 y, log det D and
D^-1 Phi = Phi (I - Z S) / beta^2, Z = L M^-1 L^T, by the Woodbury identity
and the determinant lemma. ``dense_gaussian``, one Cholesky of a formed D,
serves the dense referees: ``exact_mll(path="dense")`` and the exact GP.

When K_zz stops being numerically positive definite, or the exact value or
gradient goes non-finite, a Hutchinson-style pseudoloss takes over: solve
D [u_0, u_1..u_l] = [y, w_1..w_l] by conjugate gradients with unit-norm
Gaussian probes w_j, then

    value = -1/2 [ u_0^T D u_0 + (1/l) sum_j u_j^T (D w_j) ]

with the solutions u treated as constants (no differentiation through the
solver). Gradients of both objectives share one assembly: for any symmetric
sensitivity G with dL = <G, dD>,

    dL/d beta   = 2 beta tr(G)
    dL/d K_zz   = W^T G W      (kernel parameters and z through K_zz)
    dL/d W      = 2 G W K_zz   (z and temperatures through the softmax)

For the exact objective G = (a a^T - D^-1)/2 with a = D^-1 y; for the
pseudoloss G = u_0 u_0^T / 2 - (n / 2l) sym(sum_j u_j w_j^T): the probes have
unit norm, so E[w w^T] = I/n and the trace estimate is scaled by n to target
tr(D^-1 dD). Every objective reads its parameters from one
``interp.Hyperparams`` record. Gradients are a dict keyed by
``trainer.PARAMS`` names, in constrained space; a failed report has a nan
value and none.

Dtype policy: a batch carries its working dtype, and ``stabilized_objective``
casts x and y to ``TrainConfig.dtype`` once. The softmax forward, K_zz, the
factorizations and the CG solves run in it; the softmax and kernel backward
run in float64. Each objective call builds W and its distances once and the
backward reads them; a float32 batch builds one more, float64, forward for
the backward, since its float32 distances are what the fallback is for.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite, ObjectiveFailed
from .interp import Hyperparams, softmax_forward, softmax_weights_backward
from .kernel import matern32, matern32_param_grads

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ObjectiveReport:
    value: float
    gradients: dict                     # trainer.PARAMS name -> gradient
    mode_used: str                      # "exact" or "pseudoloss"
    diagnostics: dict = field(default_factory=dict)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.value)) and all(
            np.all(np.isfinite(g)) for g in self.gradients.values())


def draw_probes(n: int, count: int, seed) -> np.ndarray:
    """(n, count) Gaussian probe vectors, each normalized to unit length."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, count))
    p /= np.linalg.norm(p, axis=0, keepdims=True)
    return p


@dataclass
class LowRankGaussian:
    """m-space solves of D = Phi L L^T Phi^T + beta^2 I; see the module docstring."""

    quad: float                 # y^T D^-1 y
    logdet: float               # log det D
    a: np.ndarray               # D^-1 y, (n,)
    phi_a: np.ndarray           # Phi^T a, (m,)
    phi_dinv_phi: np.ndarray    # Phi^T D^-1 Phi, (m, m)
    zs: np.ndarray              # Z S, so D^-1 Phi = Phi (I - Z S) / beta^2, (m, m)
    tr_d_inv: float             # tr D^-1
    s: np.ndarray               # Phi^T Phi, (m, m)
    jitter: float               # rung used to factor M


def lowrank_gaussian(phi: np.ndarray, y: np.ndarray, l: np.ndarray,
                     beta2) -> LowRankGaussian:
    """Quadratic form, log determinant and solves of a low-rank-plus-noise D.

    Raises NotPositiveDefinite when M fails to factorize after the jitter
    schedule. L must be well scaled (a Cholesky factor, not the inverse of
    one): S is formed before L is applied, so its rounding grows by ||L||^2.
    Z is applied only through U_m^-T L^T and U_m^-T L^T S, never multiplied
    out, because it is huge along directions a batch barely covers.
    """
    n, m = phi.shape
    s = phi.T @ phi
    lt_s = l.T @ s
    u_m, jitter = linalg.cholesky_upper(beta2 * np.eye(m, dtype=phi.dtype) + lt_s @ l)
    g = linalg.tri_solve_upper(u_m, l.T, transpose=True)     # U_m^-T L^T
    h = linalg.tri_solve_upper(u_m, lt_s, transpose=True)    # U_m^-T L^T S
    zs = g.T @ h
    a = (y - phi @ (g.T @ (g @ (phi.T @ y)))) / beta2
    return LowRankGaussian(
        quad=float(y @ a),
        logdet=(n - m) * float(np.log(beta2))
        + 2.0 * float(np.sum(np.log(np.diagonal(u_m)))),
        a=a,
        phi_a=phi.T @ a,
        phi_dinv_phi=(s - h.T @ h) / beta2,
        zs=zs,
        tr_d_inv=(n - float(np.trace(zs))) / beta2,
        s=s,
        jitter=jitter,
    )


def dense_gaussian(d: np.ndarray, y: np.ndarray):
    """(y^T D^-1 y, log det D, D^-1 y, D^-1, jitter) from one Cholesky of D.

    Raises NotPositiveDefinite when D fails to factorize after the jitter
    schedule.
    """
    u, jitter = linalg.cholesky_upper(d)
    a = linalg.chol_solve(u, y)
    return (float(y @ a), 2.0 * float(np.sum(np.log(np.diagonal(u)))), a,
            linalg.chol_inverse(u), jitter)


def _batch(x, y, hp):
    """(x, y, W, dist, K_zz) of one batch, all in x's dtype; see softmax_forward."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    w, dist = softmax_forward(x, hp)
    z = hp.z.astype(x.dtype, copy=False)
    return x, np.asarray(y, dtype=x.dtype), w, dist, matern32(z, z, hp.kernel)


def _assemble_gradients(x, hp, w, dist, g_k, g_w, tr_g) -> dict:
    """Map sensitivities on (K_zz, W, beta) to parameter gradients, in float64."""
    kg = matern32_param_grads(
        hp.z, hp.z, hp.kernel, np.asarray(g_k, dtype=float),
        want_x=True, want_z=True,
    )
    if x.dtype != np.float64:  # the backward runs in float64; see the module docstring
        x = x.astype(float)
        w, dist = softmax_forward(x, hp)
    z_soft, g_t = softmax_weights_backward(x, hp, w, dist, np.asarray(g_w, dtype=float))
    return {
        "noise": 2.0 * hp.noise * float(tr_g),
        "lengthscales": kg.lengthscales,
        "outputscale": kg.outputscale,
        "z": kg.x + kg.z + z_soft,
        "temperatures": g_t,
    }


def exact_mll(
    x: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    path: str = "lowrank",
) -> ObjectiveReport:
    """Exact marginal log likelihood of one batch, with analytic gradients.

    The forward and the solves run in x's dtype. path="lowrank" factorizes
    K_zz and the m-by-m inner matrix only; path="dense" factorizes D itself
    (test-scale cross-check). Raises NotPositiveDefinite when the required
    Cholesky fails after the jitter schedule.
    """
    x, y, w, dist, k_zz = _batch(x, y, hp)
    n = y.shape[0]
    beta = x.dtype.type(hp.noise)
    beta2 = beta * beta

    diag = {}
    if path == "dense":
        quad, logdet, a, d_inv, diag["jitter"] = dense_gaussian(
            w @ k_zz @ w.T + beta2 * np.eye(n, dtype=x.dtype), y)
        g = 0.5 * (np.outer(a, a) - d_inv)
        g_k = w.T @ g @ w
        g_w = 2.0 * g @ (w @ k_zz)
        tr_g = float(np.trace(g))
    elif path == "lowrank":
        u_zz, diag["jitter"] = linalg.cholesky_upper(k_zz)
        lr = lowrank_gaussian(w, y, u_zz.T, beta2)
        diag["jitter_inner"] = lr.jitter
        a, quad, logdet = lr.a, lr.quad, lr.logdet
        g_k = 0.5 * (np.outer(lr.phi_a, lr.phi_a) - lr.phi_dinv_phi)
        g_w = w @ ((k_zz - lr.zs @ k_zz) / beta2)
        np.negative(g_w, out=g_w)
        g_w += np.outer(a, lr.phi_a @ k_zz)
        tr_g = 0.5 * (float(a @ a) - lr.tr_d_inv)
    else:
        raise ValueError(f"unknown path {path!r}")

    value = -0.5 * (quad + logdet + n * LOG_2PI)
    grads = _assemble_gradients(x, hp, w, dist, g_k, g_w, tr_g)
    return ObjectiveReport(value=float(value), gradients=grads, mode_used="exact",
                           diagnostics=diag)


def hutchinson_pseudoloss(
    x: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    probes: np.ndarray,
    cg_tol: float,
    cg_max_iters: int,
) -> ObjectiveReport:
    """Factorization-free objective: CG solves against D, probe-based trace.

    Runs in x's dtype, the probes included; ``TrainConfig`` holds the CG
    defaults. The CG solutions are constants of the gradient (the solver is
    not differentiated through). The value keeps the literal unscaled trace
    term; the gradient's trace estimate is scaled by n, so it targets the
    exact gradient's tr(D^-1 dD).
    """
    x, y, w, dist, k_zz = _batch(x, y, hp)
    probes = np.asarray(probes, dtype=x.dtype)
    n = y.shape[0]
    ell = probes.shape[1]
    beta = x.dtype.type(hp.noise)
    beta2 = beta * beta

    def matvec(v):
        return w @ (k_zz @ (w.T @ v)) + beta2 * v

    rhs = np.concatenate([y[:, None], probes], axis=1)
    rep = linalg.block_cg(matvec, rhs, tol=cg_tol, max_iters=cg_max_iters)
    u0 = rep.solutions[:, 0]
    us = rep.solutions[:, 1:]

    d_probes = matvec(probes)
    value = -0.5 * (float(u0 @ matvec(u0)) + float(np.mean(
        np.einsum("ij,ij->j", us, d_probes)
    )))

    c = float(n)
    wk = w @ k_zz
    wu0 = w.T @ u0
    ws = w.T @ us
    wp = w.T @ probes
    g_k = 0.5 * np.outer(wu0, wu0) - (c / (4.0 * ell)) * (ws @ wp.T + wp @ ws.T)
    g_w = us @ (probes.T @ wk)
    g_w += probes @ (us.T @ wk)
    g_w *= c / (2.0 * ell)
    np.negative(g_w, out=g_w)
    g_w += np.outer(u0, u0 @ wk)
    tr_g = 0.5 * float(u0 @ u0) - (c / (2.0 * ell)) * float(
        np.einsum("ij,ij->", us, probes)
    )

    grads = _assemble_gradients(x, hp, w, dist, g_k, g_w, tr_g)
    return ObjectiveReport(
        value=float(value),
        gradients=grads,
        mode_used="pseudoloss",
        diagnostics={
            "cg_iterations": rep.iterations,
            "cg_converged": rep.converged,
            "cg_max_residual": float(rep.final_residual_norms.max()),
        },
    )


def stabilized_objective(
    x: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    cfg,
    probe_seed=0,
) -> ObjectiveReport:
    """Exact MLL with automatic fallback to the pseudoloss.

    Reads objective_mode, probes, cg_tol, cg_max_iters and dtype from cfg, a
    ``trainer.TrainConfig``; probe_seed is anything ``default_rng`` accepts.
    x and y are cast to cfg.dtype once, and both objectives run in it.
    objective_mode="auto": try the exact objective; on NotPositiveDefinite or
    any non-finite value/gradient, recompute with the pseudoloss. Raises
    ObjectiveFailed only if both are non-finite. Forced modes run a single
    objective and report nan on failure instead of raising.
    """
    x = np.asarray(x, dtype=cfg.dtype)
    y = np.asarray(y, dtype=cfg.dtype)
    failure = None
    if cfg.objective_mode in ("auto", "exact"):
        try:
            rep = exact_mll(x, y, hp, path="lowrank")
            if rep.is_finite():
                return rep
            failure = "non-finite exact value or gradient"
        except NotPositiveDefinite as err:
            failure = str(err)
        if cfg.objective_mode == "exact":
            return ObjectiveReport(float("nan"), {}, "exact", {"failure": failure})

    probes = draw_probes(y.shape[0], cfg.probes, probe_seed)
    rep = hutchinson_pseudoloss(
        x, y, hp, probes,
        cg_tol=cfg.cg_tol, cg_max_iters=cfg.cg_max_iters,
    )
    if failure is not None:
        rep.diagnostics["fallback_reason"] = failure
    if rep.is_finite():
        return rep
    if cfg.objective_mode == "pseudoloss":
        return ObjectiveReport(float("nan"), {}, "pseudoloss", rep.diagnostics)
    raise ObjectiveFailed(
        f"exact objective failed ({failure}); pseudoloss non-finite as well"
    )