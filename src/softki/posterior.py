"""QR-stabilized posterior fit and the one prediction form of every model.

softki and SGPR share one fit (``fit``): the representer weights alpha solve
Chat alpha = X^T y / beta^2 with Chat = K_zz + X^T X / beta^2, where the
design rows are X = W K_zz for softki and X = K_xz for SGPR. Instead of
forming Chat (which squares the condition number), stack

    A = [ X / beta ]           rhs = [ y / beta ]
        [ U_zz     ]                 [ 0        ]

where U_zz^T U_zz = K_zz, so A^T A = Chat, and take a thin QR of A. Then
R alpha = Q^T rhs. The stack is reduced in row blocks: each block is absorbed
into a carried [R | Q^T rhs] factor by re-triangularizing, so the full Q is
never formed and peak extra memory is O(block_rows * m) independent of n.

Every fitted model (softki, sgpr, exact) is a ``Posterior`` that predicts as

    mean = phi(x) v,    var = prior - rowsum((phi(x) P) * phi(x)),

with phi and prior from ``FORMS``. v and P are computed once at fit time, so
a prediction is one feature build and one GEMM; no factor is solved against
per call. For softki phi = W, prior = 0, v = K_zz alpha and
P = -K_zz Chat^-1 K_zz: the approximate prior variance cancels exactly
against the Nystrom-form correction, leaving var = khat^T Chat^-1 khat.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from . import linalg
from .data import Dataset
from .errors import InvalidConfig, NonFiniteInput, RankDeficient, SoftKIError
from .interp import Hyperparams, softki_cross, softmax_weights
from .kernel import MaternParams, matern32

DEFAULT_BLOCK_ROWS = 8192


@dataclass
class Posterior:
    """A fitted model: mean = phi(x) v, var = prior - rowsum((phi(x) P) * phi(x))."""

    variant: str               # softki | sgpr | exact, a key of FORMS
    hp: Hyperparams
    v: np.ndarray              # (m,)
    p: np.ndarray              # (m, m) symmetric
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        # a checkpoint reads P back C-ordered; the same layout here keeps the
        # GEMM, and so restored predictions, bitwise equal to live ones
        self.p = np.ascontiguousarray(self.p)


# variant -> (phi(hp, xs), prior(hp)); the exact GP is the sgpr form with the
# training inputs as its points (z = X)
FORMS = {
    "softki": (lambda hp, xs: softmax_weights(xs, hp), lambda hp: 0.0),
    "sgpr": (lambda hp, xs: matern32(xs, hp.z, hp.kernel),
             lambda hp: hp.kernel.outputscale),
}
FORMS["exact"] = FORMS["sgpr"]


def stacked_qr_solve(blocks, u_zz: np.ndarray):
    """Streaming thin QR of a stacked system.

    blocks yields (a_block, b_block) pairs of pre-scaled rows; the
    interpolation-regularizer rows [u_zz | 0] are appended automatically.
    Returns (r, projected_rhs, residual_norm, diag) where r is (m, m) upper,
    R alpha = projected_rhs is the least-squares solution, and residual_norm
    is the accumulated orthogonal-complement magnitude of the rhs.
    """
    m = u_zz.shape[0]
    carry = None
    max_stack = 0
    n_blocks = 0
    rows_seen = 0

    def absorb(carry, a_blk, b_blk):
        b_blk = np.asarray(b_blk, dtype=a_blk.dtype)
        aug = np.concatenate([a_blk, b_blk[:, None]], axis=1)
        stack = aug if carry is None else np.vstack([carry, aug])
        # "raw" takes triu of the top m + 1 rows only, not of a full-height copy
        r = scipy.linalg.qr(stack, mode="raw")[1]  # upper trapezoid, Householder
        return r, stack.shape[0]

    for a_blk, b_blk in blocks:
        a_blk = np.atleast_2d(np.asarray(a_blk))
        if a_blk.dtype.kind != "f":
            a_blk = a_blk.astype(float)
        rows_seen += a_blk.shape[0]
        n_blocks += 1
        carry, stacked = absorb(carry, a_blk, b_blk)
        max_stack = max(max_stack, stacked)

    carry, stacked = absorb(carry, u_zz, np.zeros(m))
    max_stack = max(max_stack, stacked)
    n_blocks += 1

    r_full = carry
    r = np.triu(r_full[:m, :m])
    d = np.abs(np.diagonal(r))
    if d.size == 0 or np.any(d < linalg.RANK_TOL * d.max()):
        raise RankDeficient("stacked system is numerically rank deficient")
    c = r_full[:m, m]
    residual = float(np.abs(r_full[m, m])) if r_full.shape[0] > m else 0.0
    diag = {
        "blocks": n_blocks,
        "max_stack_rows": max_stack,
        "rows": rows_seen + m,
    }
    return r, c, residual, diag


def _alpha(variant: str, data: Dataset, hp, solver: str, block_rows: int):
    """K_zz, its factor U_zz, R with R^T R = Chat, alpha and diagnostics."""
    phi = partial(FORMS[variant][0], hp)
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    design = (lambda xs: phi(xs) @ k_zz) if variant == "softki" else phi
    u_zz, jitter = linalg.cholesky_upper(k_zz)
    x, y, beta = data.x, data.y, hp.noise
    if solver == "qr":
        blocks = ((design(x[i : i + block_rows]) / beta, y[i : i + block_rows] / beta)
                  for i in range(0, y.shape[0], block_rows))
        r, c, residual, diag = stacked_qr_solve(blocks, u_zz)
        diag.update({"block_rows": block_rows, "residual": residual})
        alpha = linalg.tri_solve_upper(r, c)
    else:
        chat, rhs = normal_equations(k_zz, design(x), y, beta)
        res = _solve(solver, chat, rhs)
        if res.error or not np.all(np.isfinite(res.alpha)):
            raise SoftKIError(f"{solver} solve failed: {res.error or 'non-finite'}")
        alpha = res.alpha
        r, jitter_c = linalg.cholesky_upper(chat)
        diag = {"jitter_c": jitter_c}
    diag.update({"jitter": jitter, "solver": solver})
    return k_zz, u_zz, r, alpha, diag


def fit(variant: str, data: Dataset, hp, solver: str = "qr",
        block_rows: int = DEFAULT_BLOCK_ROWS) -> Posterior:
    """Fit softki or SGPR through the shared Chat = K_zz + X^T X / beta^2.

    "qr" streams X (W K_zz or K_xz) through ``stacked_qr_solve`` and takes R
    (R^T R = Chat) from it; "direct", "cholesky" and "cg:<tol>" assemble
    Chat, take R from its Cholesky factor and raise SoftKIError when they
    fail, CG also when it stops above tol; ``solver_route`` rejects a bad
    route. softki: v = K_zz alpha, P = -B^T B with B = R^-T K_zz; SGPR:
    v = alpha, P = K_zz^-1 - Chat^-1.
    """
    k_zz, u_zz, r, alpha, diag = _alpha(variant, data, hp, solver, block_rows)
    if variant == "softki":
        b = linalg.tri_solve_upper(r, k_zz, transpose=True)
        return Posterior(variant, hp, k_zz @ alpha, -(b.T @ b), diag)
    p = linalg.chol_inverse(u_zz) - linalg.chol_inverse(r)
    return Posterior(variant, hp, alpha, p, diag)


def fit_qr(data: Dataset, hp: Hyperparams,
           block_rows: int = DEFAULT_BLOCK_ROWS) -> Posterior:
    """Fit the interpolation posterior through the stacked QR."""
    return fit("softki", data, hp, "qr", block_rows)


def _features(post: Posterior, xs: np.ndarray) -> np.ndarray:
    """phi(xs); raises NonFiniteInput naming the first row with a nan or inf."""
    xs = np.atleast_2d(xs)
    if not np.isfinite(xs).all():  # the flat test is the cheap one; rows only on failure
        row = np.argmin(np.isfinite(xs).all(axis=1))
        raise NonFiniteInput(f"query row {row} (0-based) has a nan or inf")
    return FORMS[post.variant][0](post.hp, xs)


def predict(post: Posterior, xs: np.ndarray):
    """(mean, latent variance) from a single build of phi(xs); noise excluded."""
    phi = _features(post, xs)
    prior = FORMS[post.variant][1](post.hp)
    # clamp the small negatives rounding leaves where the data pins f down
    return phi @ post.v, np.maximum(prior - np.einsum("ij,ij->i", phi @ post.p, phi), 0.0)


def predict_mean(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return _features(post, xs) @ post.v


def predict_var(post: Posterior, xs: np.ndarray) -> np.ndarray:
    """Latent predictive variance (noise excluded)."""
    return predict(post, xs)[1]


def gaussian_nll(y: np.ndarray, mean: np.ndarray, total_var: np.ndarray) -> float:
    """Average negative log density of y under N(mean, total_var)."""
    return float(np.mean(
        0.5 * np.log(2.0 * np.pi * total_var) + (y - mean) ** 2 / (2.0 * total_var)
    ))


def score(ys: np.ndarray, mean: np.ndarray, var: np.ndarray, noise: float):
    """(rmse, nll) of latent predictions; nll adds the noise variance."""
    rmse = float(np.sqrt(np.mean((mean - ys) ** 2)))
    return rmse, gaussian_nll(ys, mean, var + noise * noise)


def test_metrics(post: Posterior, xs: np.ndarray, ys: np.ndarray):
    """(rmse, nll) on the standardized scale."""
    return score(ys, *predict(post, xs), post.hp.noise)


@dataclass
class AltSolveResult:
    method: str
    alpha: np.ndarray | None
    residual: float            # ||Chat alpha - rhs|| / ||rhs||
    iterations: int = 0
    error: str | None = None
    history: list = field(default_factory=list)


def normal_equations(k_zz: np.ndarray, cross: np.ndarray, y: np.ndarray, noise: float):
    """Chat = K_zz + cross^T cross / noise^2, symmetrized, and cross^T y / noise^2."""
    beta2 = noise * noise
    chat = k_zz + (cross.T @ cross) / beta2
    return 0.5 * (chat + chat.T), cross.T @ y / beta2


def solver_route(method: str):
    """(route, cg tolerance or None) of qr, direct, cholesky or cg:<tol>.

    Raises ValueError for text that is not a route and InvalidConfig for a
    tolerance that is not finite and > 0 (nan or inf stop CG after one
    iteration, <= 0 never)."""
    if method in ("qr", "direct", "cholesky"):
        return method, None
    if not method.startswith("cg:"):
        raise ValueError(f"expected qr, direct, cholesky, or cg:<tol>, got {method!r}")
    tol = float(method[3:])
    if not 0.0 < tol < np.inf:
        raise InvalidConfig(f"solver {method!r} needs a finite cg tolerance > 0")
    return "cg", tol


def _solve(method: str, chat: np.ndarray, rhs: np.ndarray, qr_alpha=None) -> AltSolveResult:
    """One solve route on Chat alpha = rhs; "qr" calls the qr_alpha thunk."""
    def residual(alpha):
        return float(np.linalg.norm(chat @ alpha - rhs) / np.linalg.norm(rhs))

    def checked(alpha):
        if not np.all(np.isfinite(alpha)):
            return AltSolveResult(method, alpha, np.inf, error="non-finite solution")
        return AltSolveResult(method, alpha, residual(alpha))

    route, tol = solver_route(method)
    if route == "qr":
        try:
            alpha = qr_alpha()
        except Exception as err:  # recorded, not raised, to match the others
            return AltSolveResult(method, None, np.inf, error=str(err))
        return AltSolveResult(method, alpha, residual(alpha))

    if route == "direct":
        try:
            alpha = np.linalg.solve(chat, rhs)
        except np.linalg.LinAlgError as err:
            return AltSolveResult(method, None, np.inf, error=str(err))
        return checked(alpha)

    if route == "cholesky":
        try:
            u = scipy.linalg.cholesky(chat, lower=False)  # no jitter: raw method
        except scipy.linalg.LinAlgError as err:
            return AltSolveResult(method, None, np.inf, error=str(err))
        alpha = scipy.linalg.solve_triangular(
            u, scipy.linalg.solve_triangular(u, rhs, lower=False, trans="T"),
            lower=False,
        )
        return checked(alpha)

    rep = linalg.block_cg(lambda v: chat @ v, rhs, tol=tol,
                          max_iters=max(1000, 10 * chat.shape[0]))
    alpha = rep.solutions
    return AltSolveResult(
        method, alpha, residual(alpha), iterations=rep.iterations,
        error=None if rep.converged else "cg did not converge",
        history=rep.history,
    )


DEFAULT_STUDY_METHODS = ("qr", "direct", "cholesky", "cg:1e-1", "cg:1e-2",
                         "cg:1e-3", "cg:1e-4")


def near_degenerate_instance(n: int = 400, m: int = 24, d: int = 2,
                             delta: float = 1e-3, noise: float = 1e-4,
                             weak_fraction: float = 0.3, seed: int = 0,
                             dtype="float32"):
    """Dataset plus hyperparameters whose projected system is near singular.

    Interpolation points come in pairs ``delta`` apart, so the projected
    cross-covariance has near-coincident columns and the normal-equations
    matrix squares an already extreme condition number. The targets are built
    inside the model's span and mix each pair's shared response with its
    (tiny-norm) difference response, so about ``weak_fraction`` of the signal
    variance lives in directions a squared-condition solve cannot resolve at
    working precision while the stacked factorization still can. The default
    dtype is float32, the precision where that separation shows; everything
    downstream (weights, factors, solves) stays in the instance dtype.
    Returns (data, hp). Raises InvalidConfig unless m is even and
    2 <= m <= n.
    """
    if m < 2 or m % 2:
        raise InvalidConfig(f"m must be an even number >= 2, got {m}")
    if n < m:
        raise InvalidConfig(f"n must be >= m = {m}, got {n}")
    dt = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    base = x[rng.choice(n, size=m // 2, replace=False)]
    z = np.repeat(base, 2, axis=0)
    z[1::2] += delta
    hp = Hyperparams(
        noise=noise,
        kernel=MaternParams(lengthscales=np.ones(d, dtype=dt), outputscale=1.0),
        z=z.astype(dt),
        temperatures=np.ones(d, dtype=dt),
    )

    khat = softki_cross(x.astype(dt), hp)[2]
    shared = khat @ np.repeat(rng.standard_normal(m // 2), 2).astype(dt)
    shared /= np.linalg.norm(shared)
    weak = np.zeros(n, dtype=dt)
    for j in range(m // 2):
        diff = khat[:, 2 * j] - khat[:, 2 * j + 1]
        norm = np.linalg.norm(diff)
        if norm > 0:
            weak += dt.type(rng.standard_normal()) * diff / norm
    norm = np.linalg.norm(weak)
    if norm > 0:
        weak *= dt.type(weak_fraction) / norm
    y = shared + weak
    y = ((y - y.mean()) / y.std()).astype(dt)
    return Dataset(x=x.astype(dt), y=y, stats=None, split="train"), hp


def solver_study(data: Dataset, hp: Hyperparams,
                 methods=DEFAULT_STUDY_METHODS):
    """Score each solve route by training-set RMSE of the resulting mean.

    Returns a list of (AltSolveResult, rmse) pairs; a failed or non-finite
    solve scores inf so orderings stay well defined.
    """
    _, k_zz, khat = softki_cross(data.x, hp)
    chat, rhs = normal_equations(k_zz, khat, data.y, hp.noise)
    rows = []
    for method in methods:
        res = _solve(method, chat, rhs,
                     lambda: _alpha("softki", data, hp, "qr", DEFAULT_BLOCK_ROWS)[3])
        if res.alpha is None or not np.all(np.isfinite(res.alpha)):
            rmse = np.inf
        else:
            mean = khat @ res.alpha
            rmse = float(np.sqrt(np.mean((mean - data.y) ** 2)))
            if not np.isfinite(rmse):
                rmse = np.inf
        rows.append((res, rmse))
    return rows

