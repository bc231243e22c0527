"""Training objectives for the softmax-interpolation GP.

The model covariance of a batch is D = W K_zz W^T + beta^2 I with W the
row-stochastic interpolation weights. The exact marginal log likelihood

    value = -1/2 [ y^T D^-1 y + log det D + n log(2 pi) ]

comes from one of two Gaussian cores. ``lowrank_gaussian`` (training, and the
SGPR bound) takes D = Phi L L^T Phi^T + beta^2 I, factorizes only the m-by-m
M = beta^2 I + L^T S L with S = Phi^T Phi, and gets D^-1 y, log det D and
D^-1 Phi = Phi (I - Z S) / beta^2, Z = L M^-1 L^T, by the Woodbury identity
and the determinant lemma. Both models take one route through it: softki
passes Phi = W and u = U_zz, K_zz's upper Cholesky factor (L = U_zz^T);
SGPR passes the whitened Phi = K_xz U_zz^-1 and u = None (L = I). M is
formed by triangular products, factored once and inverted once by ?trtri,
and every product with U_m^-1 is a ?trmm. ``dense_gaussian``, one Cholesky
of a formed D, serves the dense referees: ``exact_mll(path="dense")`` and
the exact GP.

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
tr(D^-1 dD). The pseudoloss applies D only inside CG. After the solve, with
S = [u_0 | U | P], U = [u_1..u_l] and P = [w_1..w_l], G = S C S^T for the
(2l+1)-square C that holds 1/2 at (u_0, u_0) and -n/4l at each (u_j, w_j)
pair, and u^T D v = (W^T u)^T K_zz (W^T v) + beta^2 u^T v. So one product
W^T S gives everything, and W K_zz is never formed:

    S^T D S     = (W^T S)^T K_zz (W^T S) + beta^2 S^T S    (the value's terms)
    W^T G W     = (W^T S) C (W^T S)^T
    2 G W K_zz  = S (2C) (K_zz W^T S)^T                    (one n x m product)
    tr(G)       = <C, S^T S>

Every objective reads its parameters from one ``interp.Hyperparams`` record.
Gradients are a dict keyed by ``trainer.PARAMS`` names, in constrained space;
a failed report has a nan value and none.

Dtype policy: a batch carries its working dtype, and ``stabilized_objective``
casts x and y to ``TrainConfig.dtype`` once. One rule places every product,
after Higham & Mary ("Mixed precision algorithms in numerical linear
algebra", Acta Numerica 2022): factor in the higher precision, run the large
products in the lower. The softmax forward and backward, every n-by-m product
and the CG solves run in the batch dtype. K_zz and every product formed with
it run in float64, and each such product is cast once, where it meets W or S:
K_zz and its e are built from float64 z and factored there,
``lowrank_gaussian``'s m-space stays there, and the exact gradient's
(K_zz - Z S K_zz) / beta^2 and K_zz W^T a and the pseudoloss's K_zz W^T v
(in each CG matvec) and K_zz W^T S (after the solve) are formed there. The
kernel backward reads the float64 (K_zz, e); only the dense referee casts
K_zz itself to the batch dtype. For a float64 batch each cast returns the
same array. Built from float32 z, the expanded-norm distances on the
clustered benchmark's raw coordinates (near 50) put K_zz's entries off by up
to 8.8e-4 and its smallest eigenvalue at -2.1e-3, where float64's is
+1.3e-5, and every float32 batch there fell back to the pseudoloss. In
float32 ricker's beta^2 (about 2.5e-5) lies under M's rounding: training at
the ricker-m128 config ended above 1e-2 test RMSE on 32 of 36 sub-seeds with
that m-space in float32 and on 8 of 36 in float64. Each
``stabilized_objective`` call builds one ``Batch`` (W and its distances in
the batch dtype; z, K_zz and e = exp(-sqrt(3) r) in float64), which the
exact attempt and the pseudoloss it may fall back to both read. The backward
reads the same arrays: ``softmax_weights_backward`` the (W, dist) of
``softmax_forward`` and ``matern32_param_grads`` the (K_zz, e) of
``matern32_forward``, so each point set goes through each forward once per
call, in float32 as in float64.

Entries of W and of each cast K_zz product below the batch dtype's smallest
normal (``finfo.tiny``, about 1.2e-38 in float32) are set to 0: OpenBLAS's
float32 GEMM slows to a crawl on subnormal operands. On a clustered float32
batch at (1024, 128) whose W holds 22036 subnormal entries of 131072, a
stabilized call that fell back to the pseudoloss (17 CG iterations) took
144-153 ms with them and 10-11 ms without, at one BLAS thread. On the same
batch the exact gradient's (K_zz - Z S K_zz) / beta^2 holds 2327 float32
subnormals of 16384 entries when cast, and W times it took 35 ms with them
and 14 ms without. A zeroed entry drops product terms below tiny times the
largest entry of the other operand; W's entries are at most 1, so a zeroed
entry of a cast product drops terms below tiny. The float64 K_zz that is
factored and differentiated keeps its entries as built. In float64
finfo.tiny is 2.2e-308, and the four benchmark workloads train, fit and
predict bitwise the same at sub-seeds 100-102 with and without the cast
products' zeroing.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import linalg
from .errors import InvalidConfig, NotPositiveDefinite
from .interp import Hyperparams, softmax_forward, softmax_weights_backward
from .kernel import matern32_forward, matern32_param_grads

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
    phi_dinv_phi: np.ndarray    # Phi^T D^-1 Phi, (m, m), float64
    zs: np.ndarray              # Z S, so D^-1 Phi = Phi (I - Z S) / beta^2, (m, m), float64
    tr_d_inv: float             # tr D^-1
    s: np.ndarray               # Phi^T Phi, (m, m)
    jitter: float               # rung used to factor M


def lowrank_gaussian(phi: np.ndarray, y: np.ndarray, u: np.ndarray | None,
                     beta2) -> LowRankGaussian:
    """Quadratic form, log determinant and solves of a low-rank-plus-noise D.

    u is K_zz's upper Cholesky factor (L = U^T) or None (L = I): a Cholesky
    factor, not the inverse of one, since S is formed before L is applied and
    its rounding grows by ||L||^2. Z is applied only through g = U_m^-T U and
    h = U_m^-T U S, never multiplied out: it is huge along directions a batch
    barely covers. The m-space runs in float64 and its m-by-m results
    (phi_dinv_phi and zs) stay there; a, phi_a and s are in phi's dtype.
    Raises NotPositiveDefinite when M fails every jitter rung.
    """
    n, m = phi.shape
    s = phi.T @ phi
    s64 = s.astype(np.float64, copy=False)
    trmm, = scipy.linalg.get_blas_funcs(("trmm",), (s64,))
    u = None if u is None else u.astype(np.float64, copy=False)
    us = s64 if u is None else trmm(1.0, u, s64)              # U S
    m_mat = us.copy() if u is None else trmm(1.0, u, us, side=1, trans_a=1)  # U S U^T
    np.fill_diagonal(m_mat, m_mat.diagonal() + beta2)
    u_m, jitter = linalg.cholesky_upper(m_mat)
    del m_mat
    u_inv = linalg.tri_inverse_upper(u_m)
    g = u_inv.T if u is None else trmm(1.0, u_inv, u, trans_a=1)   # U_m^-T U
    h = trmm(1.0, u_inv, us, trans_a=1)                       # U_m^-T U S
    zs = g.T @ h
    a = (y - phi @ (g.T @ (g @ (phi.T @ y))).astype(phi.dtype, copy=False)) / beta2
    phi_dinv_phi = h.T @ h                                    # (S - h^T h) / beta^2
    np.subtract(s64, phi_dinv_phi, out=phi_dinv_phi)
    phi_dinv_phi /= beta2
    return LowRankGaussian(
        quad=float(y @ a),
        logdet=(n - m) * float(np.log(beta2))
        + 2.0 * float(np.sum(np.log(np.diagonal(u_m)))),
        a=a,
        phi_a=phi.T @ a,
        phi_dinv_phi=phi_dinv_phi,
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


class Batch(NamedTuple):
    """One batch's forward, read by every objective and backward of a call."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray           # softmax weights, x's dtype
    dist: np.ndarray        # their distances, x's dtype
    z: np.ndarray           # the points, float64
    k_zz: np.ndarray        # K_zz, float64
    e_zz: np.ndarray        # its exp(-sqrt(3) r), float64


def _batch(x, y, hp) -> Batch:
    """The ``Batch`` of (x, y): W and its distances from ``softmax_forward``
    in x's dtype, with W's entries below that dtype's smallest normal zeroed
    (see the module docstring), and K_zz and e_zz from ``matern32_forward``
    on float64 z. No objective and no backward writes into these arrays, so
    one batch can serve several objectives.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    w, dist = softmax_forward(x, hp)
    w[w < np.finfo(w.dtype).tiny] = 0.0
    z = hp.z.astype(np.float64, copy=False)
    k_zz, e_zz = matern32_forward(z, z, hp.kernel)
    return Batch(x, np.asarray(y, dtype=x.dtype), w, dist, z, k_zz, e_zz)


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    """a, a float64 product with K_zz, cast to the batch dtype where it meets
    W or S, with its entries below that dtype's smallest normal zeroed."""
    a = a.astype(dtype, copy=False)
    a[np.abs(a) < np.finfo(dtype).tiny] = 0.0
    return a


def _assemble_gradients(b: Batch, hp, g_k, g_w, tr_g) -> dict:
    """Map sensitivities on (K_zz, W, beta) to parameter gradients.

    Each backward reads the batch's own forward, the one the objective read:
    the kernel backward (K_zz, e_zz) in float64, and the softmax backward
    (W, dist) in x's dtype.
    """
    kg = matern32_param_grads(b.z, b.z, hp.kernel, b.k_zz, b.e_zz, g_k,
                              want_x=True, want_z=True)
    z_soft, g_t = softmax_weights_backward(b.x, hp, b.w, b.dist, g_w)
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
    *,
    batch=None,
) -> ObjectiveReport:
    """Exact marginal log likelihood of one batch, with analytic gradients.

    The n-by-m products run in x's dtype. path="lowrank" factorizes K_zz
    and the m-by-m inner matrix only, both in float64, and forms every
    m-by-m factor of the gradient in float64 before casting it to x's dtype
    where it meets W; path="dense" factorizes D itself, formed in x's dtype
    from K_zz cast to it (test-scale cross-check). Raises
    NotPositiveDefinite when the required Cholesky fails after the jitter
    schedule. batch, when given, is ``_batch(x, y, hp)`` built by the caller.
    """
    b = _batch(x, y, hp) if batch is None else batch
    x, y, w, k_zz = b.x, b.y, b.w, b.k_zz
    n = y.shape[0]
    beta = x.dtype.type(hp.noise)
    beta2 = beta * beta

    diag = {}
    if path == "dense":
        k_zz = k_zz.astype(x.dtype, copy=False)
        quad, logdet, a, d_inv, diag["jitter"] = dense_gaussian(
            w @ k_zz @ w.T + beta2 * np.eye(n, dtype=x.dtype), y)
        g = 0.5 * (np.outer(a, a) - d_inv)
        g_k = w.T @ g @ w
        g_w = 2.0 * g @ (w @ k_zz)
        tr_g = float(np.trace(g))
    elif path == "lowrank":
        u_zz, diag["jitter"] = linalg.cholesky_upper(k_zz)
        lr = lowrank_gaussian(w, y, u_zz, beta2)
        diag["jitter_inner"] = lr.jitter
        a, quad, logdet = lr.a, lr.quad, lr.logdet
        phi_a = lr.phi_a.astype(np.float64, copy=False)
        g_k = 0.5 * (np.outer(phi_a, phi_a) - lr.phi_dinv_phi)
        g_w = w @ _cast((k_zz - lr.zs @ k_zz) / beta2, x.dtype)
        np.negative(g_w, out=g_w)
        g_w += np.outer(a, _cast(phi_a @ k_zz, x.dtype))
        tr_g = 0.5 * (float(a @ a) - lr.tr_d_inv)
    else:
        raise InvalidConfig(f"exact_mll path must be lowrank or dense, got {path!r}")

    value = -0.5 * (quad + logdet + n * LOG_2PI)
    grads = _assemble_gradients(b, hp, g_k, g_w, tr_g)
    return ObjectiveReport(value=float(value), gradients=grads, mode_used="exact",
                           diagnostics=diag)


def hutchinson_pseudoloss(
    x: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    probes: np.ndarray,
    cg_tol: float,
    cg_max_iters: int,
    *,
    batch=None,
) -> ObjectiveReport:
    """Factorization-free objective: CG solves against D, probe-based trace.

    The probes, CG and every n-by-m product run in x's dtype; K_zz W^T v (in
    each CG matvec) and K_zz W^T S (after the solve) are formed in float64
    and cast once, where they meet W or S, and the kernel backward runs in
    float64. ``TrainConfig`` holds the CG defaults. Each CG column stops at
    cg_tol or at the residual x's dtype can reach on it, whichever is larger
    (see ``linalg.block_cg``), and ``cg_tol_used`` reports the largest
    tolerance a column was held to. The CG solutions are
    constants of the gradient (the solver is not differentiated through).
    The value keeps the literal unscaled trace term; the gradient's trace
    estimate is scaled by n, so it targets the exact gradient's tr(D^-1 dD).
    batch, when given, is ``_batch(x, y, hp)`` built by the caller.
    """
    b = _batch(x, y, hp) if batch is None else batch
    x, y, w, k_zz = b.x, b.y, b.w, b.k_zz
    probes = np.asarray(probes, dtype=x.dtype)
    n, ell = probes.shape
    beta = x.dtype.type(hp.noise)
    beta2 = beta * beta

    def matvec(v):
        return w @ _cast(k_zz @ (w.T @ v), x.dtype) + beta2 * v

    rhs = np.concatenate([y[:, None], probes], axis=1)
    rep = linalg.block_cg(matvec, rhs, tol=cg_tol, max_iters=cg_max_iters)
    # S = [u_0 | U | P] and G = S C S^T: every product with D or G after the
    # solve goes through W^T S once; see the module docstring
    s = np.concatenate([rep.solutions, probes], axis=1)
    ws = w.T @ s
    kws = _cast(k_zz @ ws, x.dtype)
    gram = s.T @ s
    sds = ws.T @ kws + beta2 * gram             # S^T D S
    j = np.arange(1, ell + 1)                   # u_j is column j, w_j column l + j
    value = -0.5 * (float(sds[0, 0]) + float(np.mean(sds[j, ell + j])))
    c = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=x.dtype)
    c[0, 0] = 0.5
    c[j, ell + j] = c[ell + j, j] = -n / (4.0 * ell)
    g_k = ws @ c @ ws.T
    g_w = s @ (2.0 * c @ kws.T)
    tr_g = float(np.sum(c * gram))

    grads = _assemble_gradients(b, hp, g_k, g_w, tr_g)
    return ObjectiveReport(
        value=float(value),
        gradients=grads,
        mode_used="pseudoloss",
        diagnostics={
            "cg_iterations": rep.iterations,
            "cg_converged": rep.converged,
            "cg_hit_cap": rep.hit_cap,
            "cg_max_residual": float(rep.final_residual_norms.max()),
            "cg_tol_used": float(rep.tolerances.max()),
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
    x and y are cast to cfg.dtype once, and both objectives run in it and
    share one ``_batch``. objective_mode="auto": try the exact objective; on
    NotPositiveDefinite or any non-finite value/gradient, recompute with the
    pseudoloss, whose diagnostics then carry ``fallback_reason``. Every mode
    has one failure exit: when its last objective fails it returns a nan
    report with no gradients, whose diagnostics hold ``failure`` (plus the
    pseudoloss's CG keys once it ran), and the trainer counts the batch as
    failed. The exact attempt runs with numpy's overflow and invalid-value
    warnings off, since its non-finite result is handled as a failure.
    """
    x = np.asarray(x, dtype=cfg.dtype)
    batch = _batch(x, y, hp)
    diag = {}
    if cfg.objective_mode != "pseudoloss":
        try:
            # an overflow here is a failure that the is_finite check below handles
            with np.errstate(over="ignore", invalid="ignore"):
                rep = exact_mll(x, y, hp, path="lowrank", batch=batch)
            if rep.is_finite():
                return rep
            diag["failure"] = "non-finite exact value or gradient"
        except NotPositiveDefinite as err:
            diag["failure"] = str(err)
    if cfg.objective_mode != "exact":
        probes = draw_probes(batch.y.shape[0], cfg.probes, probe_seed)
        rep = hutchinson_pseudoloss(
            x, y, hp, probes,
            cg_tol=cfg.cg_tol, cg_max_iters=cfg.cg_max_iters, batch=batch,
        )
        if diag:
            rep.diagnostics["fallback_reason"] = diag["failure"]
        if rep.is_finite():
            return rep
        diag = {**rep.diagnostics, "failure": "non-finite pseudoloss value or gradient"}
    mode = "exact" if cfg.objective_mode == "exact" else "pseudoloss"
    return ObjectiveReport(float("nan"), {}, mode, diag)
