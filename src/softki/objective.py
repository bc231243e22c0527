"""Training objectives of the three models: softki, SGPR and the exact GP.

softki's model covariance of a batch is D = W K_zz W^T + beta^2 I with W
the row-stochastic interpolation weights. The exact marginal log likelihood

    value = -1/2 [ y^T D^-1 y + log det D + n log(2 pi) ]

is the ``log_n`` of one of two Gaussian cores, the only code that forms it.
``lowrank_gaussian`` (training, and the SGPR bound) takes
D = Phi L L^T Phi^T + beta^2 I, factorizes only the m-by-m
M = beta^2 I + L^T S L with S = Phi^T Phi, and gets D^-1 y, log det D and
D^-1 Phi = Phi (I - Z S) / beta^2, Z = L M^-1 L^T, by the Woodbury identity
and the determinant lemma; it also returns the noise-trace term
tr_g = (a^T a - tr D^-1) / 2 that both its callers' noise gradients read.
With U_m M's upper Cholesky factor and g = U_m^-T L^T, Z = g^T g, which it
returns (one ?syrk), and tr(Z S) = tr(g^T h) with h = g S. For softki
(L = U_zz^T, K_zz = L L^T) the exact gradient's W-factor is Z itself:

    K_zz - Z S K_zz = L M^-1 (M - L^T S L) L^T = beta^2 L M^-1 L^T = beta^2 Z,

so neither Z S nor Z S K_zz is formed; for SGPR (L = I) Z = M^-1 and
Z S / beta^2 = I / beta^2 - Z.
Both models take one route through it: softki
passes Phi = W and u = U_zz, K_zz's upper Cholesky factor (L = U_zz^T);
SGPR passes the whitened Phi = K_xz U_zz^-1 and u = None (L = I). M is
formed by triangular products, factored once and inverted once by ?trtri,
and every product with U_m^-1 is a ?trmm. ``dense_gaussian``, one Cholesky
of a formed D, serves the exact GP (``exact_gp_mll``, and its fit in
``posterior``) and the tests' dense referee of ``exact_mll``.

softki's two objectives, ``exact_mll(b, hp)`` and ``hutchinson_pseudoloss(b,
hp, probes, cg_tol, cg_max_iters)``, read the ``Batch`` b = ``_batch(x, y, hp)``
that ``stabilized_objective`` builds once per step; a direct evaluation of one
of them is ``stabilized_objective`` with that ``objective_mode``.

Every per-step buffer of softki and SGPR lives in one ``Workspace`` record,
built by ``step_workspace`` and checked by ``_step_buffers``, which refuses
one of another dtype, m or layout, or with too few rows, by
DimensionMismatch. Every field is an array, and a model's record holds only
the buffers its step reads: the (n, m) rows in the step dtype (softki's W,
its distances and the W-gradient, which the softmax backward overwrites in
place; SGPR's four below) and softki's one bool mask; K_zz and its e; U_zz;
and ``lowrank_gaussian``'s m-space, S in the step dtype and five float64
m-by-m buffers, in which every ?trmm, the Cholesky factors and the
triangular inverses run in place on Fortran-ordered views. Each row of
``posterior.MODELS`` makes one record per training run and passes it to
every step, whose last short batch uses the leading rows; a call without
one makes its own. The arithmetic is the same either way. A wide-m512 step
(m = 512, d = 26) took about 6,400 minor page faults when it allocated its
arrays afresh, as glibc gave the freed blocks back and faulted them in
again; with one record the steps after the first take none.

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

SGPR's collapsed bound on a batch (``sgpr_elbo``) is

    elbo = log N(y | 0, Q + beta^2 I) - tr(K_xx - Q) / (2 beta^2),
    Q = K_xz K_zz^-1 K_zx = B B^T,    B = K_xz U^-1

with U the upper Cholesky factor of K_zz: log N is ``lowrank_gaussian`` with
Phi = B and u = None (S = B^T B, as in Titsias, 2009); the whitened B keeps
K_zz^-1 out of S. tr(K_xx) is n * outputscale for a stationary kernel and
tr(Q) = tr(S). Its kernel backward reads its forward, as softki's does: the
bound builds (K_zz, e) and (K_xz, e) once each with ``matern32_forward``.
B is formed by products, not by substitution: U^-1 comes from one ?trtri,
and B^T = U^-T K_xz^T from one in-place ?trmm on the Fortran-ordered
transpose of B's buffer; every other product with U^-1 is a GEMM with it.
At (n, m) = (3000, 128) and one BLAS thread the wide ?trsm took 4.9 ms
against 1.7 ms for ?trtri and ?trmm. Its record's rows are K_xz; e; B,
which turns into the kernel backward's scratch once the upstream is formed; and
the upstream B (Z S / beta^2) U^-T, which takes its rank-one term
a (P^T a)^T in place by ?ger. U_zz turns into U^-1 in place, and then into
the K_zz backward's scratch; the gradient's m-by-m products go into the
m-space buffers that ``lowrank_gaussian`` leaves free.

The exact GP's likelihood (``exact_gp_mll``) takes K^-1 y, log det K and
K^-1 from one ``dense_gaussian`` of K = K_XX + beta^2 I, refused above
``EXACT_GP_MAX_POINTS``; it builds K_XX a second time at its gradient instead
of holding K and e through the dense solve.

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
Z = (K_zz - Z S K_zz) / beta^2 and K_zz W^T a and the pseudoloss's K_zz W^T v
(in each CG matvec) and K_zz W^T S (after the solve) are formed there. The
kernel backward reads the float64 (K_zz, e), and K_zz itself is never cast
to the batch dtype. For a float64 batch each cast returns the
same array. Built from float32 z, the expanded-norm distances on the
clustered benchmark's raw coordinates (near 50) put K_zz's entries off by up
to 8.8e-4 and its smallest eigenvalue at -2.1e-3, where float64's is
+1.3e-5, and every float32 batch there fell back to the pseudoloss. In
float32 ricker's beta^2 (about 2.5e-5) lies under M's rounding: training at
the ricker-m128 config ended above 1e-2 test RMSE on 32 of 36 sub-seeds with
that m-space in float32 and on 8 of 36 in float64. Each
``stabilized_objective`` call builds one ``Batch`` (W, its distances and
beta^2 in the batch dtype; z, K_zz and e = exp(-sqrt(3) r) in float64),
which the exact attempt and the pseudoloss it may fall back to both read.
The backward reads the same arrays: ``softmax_weights_backward`` the
(W, dist) of ``softmax_forward`` and ``matern32_param_grads`` the (K_zz, e)
of ``matern32_forward``, so each point set goes through each forward once
per call, in float32 as in float64.

Entries of W and of each cast K_zz product below the batch dtype's smallest
normal (``finfo.tiny``, about 1.2e-38 in float32) are set to 0: OpenBLAS's
float32 GEMM slows to a crawl on subnormal operands. On a clustered float32
batch at (1024, 128) whose W holds 22036 subnormal entries of 131072, a
stabilized call that fell back to the pseudoloss (17 CG iterations) took
144-153 ms with them and 10-11 ms without, at one BLAS thread. On the same
batch the exact gradient's Z = (K_zz - Z S K_zz) / beta^2 holds 2327 float32
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

from scipy.linalg.blas import dger as ger, dtrmm as trmm

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite, TooLarge
from .interp import Hyperparams, softmax_forward, softmax_weights_backward
from .kernel import MaternParams, matern32, matern32_forward, matern32_param_grads

LOG_2PI = float(np.log(2.0 * np.pi))
EXACT_GP_MAX_POINTS = 4096


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


class Workspace(NamedTuple):
    """Every buffer of one model's training steps on up to n points with m
    points z, built by ``step_workspace`` and checked by ``_step_buffers``;
    a shorter batch uses the leading rows of each (n, m) buffer."""

    rows: np.ndarray      # (k, n, m), step dtype: softki's W, dist and W-gradient;
                          # SGPR's K_xz, e, B and upstream
    masks: np.ndarray     # (j, n, m) bool: softki's W entries to zero, then zero
                          # distances; SGPR's none
    kernel: np.ndarray    # (2, m, m) float64: K_zz and e_zz
    u_zz: np.ndarray      # (m, m) float64: U_zz (SGPR's turns into U^-1), then the
                          # K_zz backward's scratch
    s: np.ndarray         # (m, m) step dtype: lowrank_gaussian's S, then softki's cast Z
    m_space: np.ndarray   # (5, m, m) float64: lowrank_gaussian's S, U S, M, work and factor


# (k, j) of each model's step: its (n, m) buffers in the step dtype and its masks
SOFTKI_ROWS = (3, 1)
SGPR_ROWS = (4, 0)


def step_workspace(n: int, m: int, dtype, rows: tuple) -> Workspace:
    """The ``Workspace`` of a model's steps on up to n points with m points z
    in dtype; rows is the model's (k, j), ``SOFTKI_ROWS`` or ``SGPR_ROWS``.
    For float64 s is the m-space's S."""
    m_space = np.empty((5, m, m))
    s = m_space[0] if np.dtype(dtype) == np.float64 else np.empty((m, m), dtype)
    return Workspace(np.empty((rows[0], n, m), dtype), np.empty((rows[1], n, m), dtype=bool),
                     np.empty((2, m, m)), np.empty((m, m)), s, m_space)


def _step_buffers(ws: Workspace | None, n: int, m: int, dtype, rows: tuple) -> Workspace:
    """The record a step on n points writes into: a new ``step_workspace``
    when ws is None, else ws cut to the leading n rows of its (n, m) buffers
    after the one check of a step's record, which raises DimensionMismatch
    unless ws is a ``step_workspace`` of dtype, at least n rows, m and the
    model's rows whose (n, m) buffers are C-ordered, as BLAS writes them in
    place."""
    if ws is None:
        return step_workspace(n, m, dtype, rows)
    (k, j), r, masks = rows, ws.rows, ws.masks
    if (r.dtype != dtype or r.shape[0] != k or r.shape[1] < n or r.shape[2] != m
            or not r.flags.c_contiguous or masks.shape != (j, *r.shape[1:])):
        raise DimensionMismatch(f"workspace rows are {r.dtype} {r.shape} with {masks.shape[0]} "
                                f"masks, expected {np.dtype(dtype)} ({k}, >= {n}, {m}) with {j}")
    return ws._replace(rows=r[:, :n], masks=masks[:, :n])


@dataclass
class LowRankGaussian:
    """log N(y | 0, D), its noise-trace term and the m-space solves of
    D = Phi L L^T Phi^T + beta^2 I; see the module docstring."""

    log_n: float                # log N(y | 0, D)
    a: np.ndarray               # D^-1 y, (n,)
    phi_a: np.ndarray           # Phi^T a, (m,)
    phi_dinv_phi: np.ndarray    # Phi^T D^-1 Phi, (m, m), float64
    z: np.ndarray               # Z = g^T g, so D^-1 Phi = Phi (I - Z S) / beta^2, (m, m), float64
    tr_g: float                 # tr G = (a^T a - tr D^-1) / 2, G = d log_n / dD
    s: np.ndarray               # Phi^T Phi, (m, m)
    jitter: float               # rung used to factor M


def lowrank_gaussian(phi: np.ndarray, y: np.ndarray, u: np.ndarray | None,
                     beta2, out: Workspace) -> LowRankGaussian:
    """Log density, noise-trace term and solves of a low-rank-plus-noise D.

    u is K_zz's upper Cholesky factor (L = U^T) or None (L = I): a Cholesky
    factor, not the inverse of one, since S is formed before L is applied and
    its rounding grows by ||L||^2. Z is formed only as g^T g with
    g = U_m^-T U, one ?syrk, and Z S never: products with Z S go through g
    and h = U_m^-T U S, and tr(Z S) = tr(g^T h) is summed off the two. The
    m-space runs in float64
    and its m-by-m results (phi_dinv_phi and z) stay there; a, phi_a and s
    are in phi's dtype.
    Every m-by-m array is a buffer of out, a ``Workspace`` of phi's dtype and
    m (its s and m_space): each ?trmm and the triangular inverse run in place
    on a Fortran-ordered view, so the returned phi_dinv_phi, z and s are
    views into out.
    Raises NotPositiveDefinite when M fails every jitter rung.
    """
    n, m = phi.shape
    s = np.matmul(phi.T, phi, out=out.s)
    s64 = out.m_space[0]
    np.copyto(s64, s)  # returns at once for float64, where s is this view
    trmm, = scipy.linalg.get_blas_funcs(("trmm",), (s64,))
    # Fortran-ordered views of the C-ordered m-space, which ?trmm writes in place
    us, m_mat, work, factor = out.m_space[1].T, out.m_space[2].T, out.m_space[3], out.m_space[4]
    np.copyto(us, s64)
    if u is not None:
        u = u.astype(np.float64, copy=False)
        us = trmm(1.0, u, us, overwrite_b=1)                  # U S
    np.copyto(m_mat, us)
    if u is not None:
        m_mat = trmm(1.0, u, m_mat, side=1, trans_a=1, overwrite_b=1)  # U S U^T
    np.fill_diagonal(m_mat, m_mat.diagonal() + beta2)
    u_m, jitter = linalg.cholesky_upper(m_mat, out=(work, factor))
    logdet = (n - m) * float(np.log(beta2)) + 2.0 * float(np.sum(np.log(np.diagonal(u_m))))
    u_inv = linalg.tri_inverse_upper(u_m, overwrite=True)    # over U_m
    if u is None:
        g = u_inv.T
    else:                                                     # U_m^-T U, over M
        np.copyto(m_mat, u)
        g = trmm(1.0, u_inv, m_mat, trans_a=1, overwrite_b=1)
    h = trmm(1.0, u_inv, us, trans_a=1, overwrite_b=1)        # U_m^-T U S, over U S
    z = np.matmul(g.T, g, out=work)                           # Z = g^T g, by ?syrk
    tr_zs = float(np.einsum("ij,ij->", g, h))                 # tr(Z S) = tr(g^T h)
    a = (y - phi @ (g.T @ (g @ (phi.T @ y))).astype(phi.dtype, copy=False)) / beta2
    phi_dinv_phi = np.matmul(h.T, h, out=factor)              # (S - h^T h) / beta^2, over U_m^-1
    np.subtract(s64, phi_dinv_phi, out=phi_dinv_phi)
    phi_dinv_phi /= beta2
    return LowRankGaussian(
        log_n=-0.5 * (float(y @ a) + logdet + n * LOG_2PI),
        a=a,
        phi_a=phi.T @ a,
        phi_dinv_phi=phi_dinv_phi,
        z=z,
        tr_g=0.5 * (float(a @ a) - (n - tr_zs) / beta2),
        s=s,
        jitter=jitter,
    )


def dense_gaussian(d: np.ndarray, y: np.ndarray):
    """(log N(y | 0, D), D^-1 y, D^-1, jitter) from one Cholesky of D.

    Raises NotPositiveDefinite when D fails to factorize after the jitter
    schedule.
    """
    u, jitter = linalg.cholesky_upper(d)
    a = linalg.chol_solve(u, y)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(u))))
    return (-0.5 * (float(y @ a) + logdet + y.shape[0] * LOG_2PI), a,
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
    beta2: np.floating      # noise^2, x's dtype
    workspace: Workspace    # its leading rows: w, dist, k_zz, e_zz and the step's other buffers


def _batch(x: np.ndarray, y, hp, workspace: Workspace | None = None) -> Batch:
    """The ``Batch`` of (x, y), x a float array: W and its distances from
    ``softmax_forward`` in x's dtype, with W's entries below that dtype's
    smallest normal zeroed (see the module docstring), and K_zz and e_zz from
    ``matern32_forward`` on float64 z. No objective and no backward writes
    into these arrays, so one batch can serve several objectives.

    workspace, when given, is a ``step_workspace`` of x's dtype with at
    least x's rows, hp's m and ``SOFTKI_ROWS``, whose contents are
    overwritten; without it the batch makes one.
    """
    ws = _step_buffers(workspace, x.shape[0], hp.z.shape[0], x.dtype, SOFTKI_ROWS)
    w, dist = softmax_forward(x, hp, out=(ws.rows[0], ws.rows[1]))
    np.copyto(w, 0.0, where=np.less(w, np.finfo(w.dtype).tiny, out=ws.masks[0]))
    z = hp.z.astype(np.float64, copy=False)
    k_zz, e_zz = matern32_forward(z, z, hp.kernel, tuple(ws.kernel))
    beta = x.dtype.type(hp.noise)
    return Batch(x, np.asarray(y, dtype=x.dtype), w, dist, z, k_zz, e_zz, beta * beta, ws)


def _cast(a: np.ndarray, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """a, a float64 product with K_zz, cast to the batch dtype where it meets
    W or S, with its entries below that dtype's smallest normal zeroed; a
    itself, zeroed in place, for float64. out, when given, is an array of
    a's shape in dtype that receives the cast in place of a new one."""
    if out is not None and a.dtype != dtype:
        np.copyto(out, a)
        a = out
    a = a.astype(dtype, copy=False)
    tiny = np.finfo(dtype).tiny
    # |a| < tiny as two comparisons: no float temporary of a's size
    small = np.less(a, tiny)
    np.copyto(a, 0.0, where=np.logical_and(small, np.greater(a, -tiny), out=small))
    return a


def _assemble_gradients(b: Batch, hp, g_k, g_w, tr_g) -> dict:
    """Map sensitivities on (K_zz, W, beta) to parameter gradients.

    Each backward reads the batch's own forward, the one the objective read:
    the kernel backward (K_zz, e_zz) in float64, and the softmax backward
    (W, dist) in x's dtype. Their (m, m) and (n, m) products go into the
    batch's U_zz buffer and W-gradient buffer; g_k may not be the first,
    and g_w may be the second.
    """
    ws = b.workspace
    kg = matern32_param_grads(b.z, b.z, hp.kernel, b.k_zz, b.e_zz, g_k,
                              want_x=True, want_z=True, scratch=ws.u_zz)
    z_soft, g_t = softmax_weights_backward(b.x, hp, b.w, b.dist, g_w, out=ws.rows[2],
                                           mask=ws.masks[0])
    return {
        "noise": 2.0 * hp.noise * float(tr_g),
        "lengthscales": kg.lengthscales,
        "outputscale": kg.outputscale,
        "z": kg.x + kg.z + z_soft,
        "temperatures": g_t,
    }


def exact_mll(b: Batch, hp: Hyperparams) -> ObjectiveReport:
    """Exact marginal log likelihood of batch b = ``_batch(x, y, hp)``, with
    analytic gradients.

    The n-by-m products run in x's dtype. K_zz and the m-by-m inner matrix
    are factored in float64, and every m-by-m factor of the gradient is
    formed in float64 before it is cast to x's dtype where it meets W.
    Raises NotPositiveDefinite when a Cholesky fails after the jitter
    schedule.
    """
    dtype, w, k_zz, ws = b.x.dtype, b.w, b.k_zz, b.workspace
    u_zz, jitter = linalg.cholesky_upper(k_zz, out=(ws.m_space[3], ws.u_zz))
    lr = lowrank_gaussian(w, b.y, u_zz, b.beta2, out=ws)
    phi_a = lr.phi_a.astype(np.float64, copy=False)
    # lowrank_gaussian's U S buffer is free: g_k
    g_k = np.multiply.outer(phi_a, phi_a, out=ws.m_space[1])
    np.subtract(g_k, lr.phi_dinv_phi, out=g_k)
    g_k *= 0.5
    # 2 G W K_zz = a (K_zz W^T a)^T - W (K_zz - Z S K_zz) / beta^2, and the
    # second factor is Z (see the module docstring): one ?gemm takes W Z off
    # the rank-one term in place, on the Fortran-ordered transposes. Z is
    # cast into S's buffer, which nothing reads after lowrank_gaussian
    z = _cast(lr.z, dtype, out=ws.s)
    g_w = np.multiply.outer(lr.a, _cast(phi_a @ k_zz, dtype), out=ws.rows[2])
    gemm, = scipy.linalg.get_blas_funcs(("gemm",), (w,))
    gemm(-1.0, z.T, w.T, beta=1.0, c=g_w.T, overwrite_c=1)

    grads = _assemble_gradients(b, hp, g_k, g_w, lr.tr_g)
    return ObjectiveReport(value=lr.log_n, gradients=grads, mode_used="exact",
                           diagnostics={"jitter": jitter, "jitter_inner": lr.jitter})


def hutchinson_pseudoloss(b: Batch, hp: Hyperparams, probes: np.ndarray, cg_tol: float,
                          cg_max_iters: int) -> ObjectiveReport:
    """Factorization-free objective of batch b = ``_batch(x, y, hp)``: CG
    solves against D, probe-based trace.

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
    """
    dtype, w, k_zz, beta2 = b.x.dtype, b.w, b.k_zz, b.beta2
    probes = np.asarray(probes, dtype=dtype)
    n, ell = probes.shape

    def matvec(v):
        return w @ _cast(k_zz @ (w.T @ v), dtype) + beta2 * v

    rhs = np.concatenate([b.y[:, None], probes], axis=1)
    rep = linalg.block_cg(matvec, rhs, tol=cg_tol, max_iters=cg_max_iters)
    # S = [u_0 | U | P] and G = S C S^T: every product with D or G after the
    # solve goes through W^T S once; see the module docstring
    s = np.concatenate([rep.solutions, probes], axis=1)
    ws = w.T @ s
    kws = _cast(k_zz @ ws, dtype)
    gram = s.T @ s
    sds = ws.T @ kws + beta2 * gram             # S^T D S
    j = np.arange(1, ell + 1)                   # u_j is column j, w_j column l + j
    value = -0.5 * (float(sds[0, 0]) + float(np.mean(sds[j, ell + j])))
    c = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=dtype)
    c[0, 0] = 0.5
    c[j, ell + j] = c[ell + j, j] = -n / (4.0 * ell)
    g_k = ws @ c @ ws.T
    g_w = np.matmul(s, 2.0 * c @ kws.T, out=b.workspace.rows[2])
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
    workspace: Workspace | None = None,
) -> ObjectiveReport:
    """Exact MLL with automatic fallback to the pseudoloss.

    Reads objective_mode, probes, cg_tol, cg_max_iters and dtype from cfg, a
    ``trainer.TrainConfig``; probe_seed is anything ``default_rng`` accepts.
    x and y are cast to cfg.dtype once, and both objectives run in it and
    read one ``_batch``. objective_mode="auto": try the exact objective; on
    NotPositiveDefinite or any non-finite value/gradient, recompute with the
    pseudoloss, whose diagnostics then carry ``fallback_reason``; "exact" and
    "pseudoloss" evaluate that one objective. Every mode
    has one failure exit: when its last objective fails it returns a nan
    report with no gradients, whose diagnostics hold ``failure`` (plus the
    pseudoloss's CG keys once it ran), and the trainer counts the batch as
    failed. The exact attempt runs with numpy's overflow and invalid-value
    warnings off, since its non-finite result is handled as a failure.
    workspace is ``_batch``'s: a caller that evaluates many batches passes
    one ``step_workspace`` to every call.
    """
    b = _batch(np.asarray(x, dtype=cfg.dtype), y, hp, workspace)
    diag = {}
    if cfg.objective_mode != "pseudoloss":
        try:
            # an overflow here is a failure that the is_finite check below handles
            with np.errstate(over="ignore", invalid="ignore"):
                rep = exact_mll(b, hp)
            if rep.is_finite():
                return rep
            diag["failure"] = "non-finite exact value or gradient"
        except NotPositiveDefinite as err:
            diag["failure"] = str(err)
    if cfg.objective_mode != "exact":
        probes = draw_probes(b.y.shape[0], cfg.probes, probe_seed)
        rep = hutchinson_pseudoloss(b, hp, probes, cfg.cg_tol, cfg.cg_max_iters)
        if diag:
            rep.diagnostics["fallback_reason"] = diag["failure"]
        if rep.is_finite():
            return rep
        diag = {**rep.diagnostics, "failure": "non-finite pseudoloss value or gradient"}
    mode = "exact" if cfg.objective_mode == "exact" else "pseudoloss"
    return ObjectiveReport(float("nan"), {}, mode, diag)


# ---------------------------------------------------------------------------
# SGPR's collapsed bound and the dense exact GP


def sgpr_elbo(x: np.ndarray, y: np.ndarray, hp: Hyperparams, *,
              workspace: Workspace | None = None) -> ObjectiveReport:
    """Collapsed variational bound and its analytic gradients.

    workspace, when given, is a float64 ``step_workspace`` with at least n
    rows, hp's m and ``SGPR_ROWS``, whose contents are overwritten; without
    it the call makes one. A caller that evaluates many full batches of the
    same size passes one workspace to every call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = y.shape[0], hp.z.shape[0]
    ws = _step_buffers(workspace, n, m, np.float64, SGPR_ROWS)
    k_xz, e_xz, b, up_xz = ws.rows
    beta = hp.noise
    beta2 = beta * beta

    k_zz, e_zz = matern32_forward(hp.z, hp.z, hp.kernel, out=tuple(ws.kernel))
    u_zz, jit = linalg.cholesky_upper(k_zz, out=(ws.m_space[3], ws.u_zz))
    v = linalg.tri_inverse_upper(u_zz, overwrite=True)         # U^-1, over U
    matern32_forward(x, hp.z, hp.kernel, out=(k_xz, e_xz))
    # B^T = U^-T K_xz^T in place on the F-ordered transpose of b's buffer
    np.copyto(b, k_xz)
    trmm(1.0, v, b.T, trans_a=1, overwrite_b=1)
    lr = lowrank_gaussian(b, y, None, beta2, out=ws)
    trace_gap = n * hp.kernel.outputscale - float(np.trace(lr.s))
    value = lr.log_n - trace_gap / (2.0 * beta2)

    # G = (a a^T - D^-1)/2 and P = K_xz K_zz^-1 = B U^-T: d/dK_xz is
    # 2 G P + P / beta^2 = a (P^T a)^T + B (Z S / beta^2) U^-T and d/dK_zz is
    # -P^T G P - P^T P / (2 beta^2), with B^T D^-1 B from lowrank_gaussian.
    # With L = I, Z = M^-1 and Z S / beta^2 = I / beta^2 - Z. The m x m
    # products go into lowrank_gaussian's U S and M buffers, which it leaves free
    pa = v @ lr.phi_a                                          # P^T a
    zs = np.negative(lr.z, out=lr.z)
    zs.flat[:: m + 1] += 1.0 / beta2
    free, spare = ws.m_space[1:3]
    np.matmul(b, np.matmul(zs, v.T, out=free), out=up_xz)
    ger(1.0, pa, lr.a, a=up_xz.T, overwrite_a=1)               # += a pa^T
    # B is dead once the upstream holds it: its buffer is the backward's scratch
    g1 = matern32_param_grads(x, hp.z, hp.kernel, k_xz, e_xz, up_xz,
                              want_x=False, want_z=True, scratch=b)
    np.subtract(lr.phi_dinv_phi, np.divide(lr.s, beta2, out=free), out=free)
    inner = np.matmul(v, free, out=spare)                      # U^-1 (B^T D^-1 B - S / beta^2)
    up_zz = np.matmul(v, inner.T, out=free)
    up_zz -= np.multiply.outer(pa, pa, out=zs)                 # Z S is dead
    up_zz *= 0.5
    # U^-1 is dead too: its buffer is the K_zz backward's scratch
    g2 = matern32_param_grads(hp.z, hp.z, hp.kernel, k_zz, e_zz, up_zz,
                              want_x=True, want_z=True, scratch=ws.u_zz)

    grads = {
        "noise": 2.0 * beta * lr.tr_g + trace_gap / beta**3,
        "lengthscales": g1.lengthscales + g2.lengthscales,
        "outputscale": g1.outputscale + g2.outputscale - n / (2.0 * beta2),
        "z": g1.z + g2.x + g2.z,
    }
    return ObjectiveReport(
        value=float(value), gradients=grads, mode_used="exact",
        diagnostics={"jitter": jit, "jitter_inner": lr.jitter, "trace_gap": trace_gap},
    )


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
    log_n, a, k_inv, jit = _dense_gp(x, y, hp.noise * hp.noise, hp.kernel)

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
    return ObjectiveReport(value=log_n, gradients=grads, mode_used="exact",
                           diagnostics={"jitter": jit})
