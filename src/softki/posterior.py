"""The model table, the fits and the one prediction form of every model.

``MODELS`` has one ``Model`` row per model (softki, sgpr, exact): the
``trainer.PARAMS`` names it learns, its step objective and batch rule, its
features phi and variance term, and its fit. ``trainer.train``, ``fit``,
``predict``, ``checkpoint.load_checkpoint`` and the CLI's ``--model``
choices all read it, and no other module tells the models apart by name.

softki and SGPR are fit by one stacked QR. Both are Bayesian linear
regressions on a feature matrix phi (Rasmussen & Williams, 2006, sec. 2.1):
softki's phi = W with weights u ~ N(0, K_zz), SGPR's phi = K_xz with weights
a ~ N(0, K_zz^-1) (Titsias, 2009). With Lambda the weights' prior precision
and S its upper root (S^T S = Lambda), the posterior precision is
Lambda + phi^T phi / beta^2. Instead of forming it (which squares the
condition number), stack

    A = [ phi / beta ]         rhs = [ y / beta ]
        [ S          ]               [ 0        ]

so A^T A is that precision, and take a thin QR of A. Then the posterior mean
of the weights is v = R^-1 c with c = Q^T rhs, and their covariance is
R^-1 R^-T. The stack is reduced in row blocks: the seed rows [S | 0] start a
carried (m+1)-square upper triangle [R | c], and each feature block is
absorbed into it by one triangular-pentagonal QR (LAPACK ?tpqrt), which
costs about 2 block_rows m^2 flops and never re-factors the carried rows.
The full Q is never formed, and peak extra memory is O((block_rows + m) * m)
independent of n: at large m the carried triangle, not the block, bounds
it. It is the only route to their v; ``solver_study`` scores the routes that
solve the formed K-form system Chat alpha = X^T y / beta^2, Chat = K_zz +
X^T X / beta^2 with X = W K_zz (direct, Cholesky, CG), against the same
stacked QR run on [U_zz; X / beta]. The exact GP is fit by one dense
Cholesky of K = K_XX + beta^2 I (``objective.exact_gp_mll``'s core), with
the training inputs as its points.

Every fitted model is a ``Posterior`` that predicts as mean = phi(x) v, with
phi and the variance term from its row. It carries the statistics of the
data it was fit on and checks its own arrays, and it is what a checkpoint
holds: ``checkpoint.load_checkpoint`` returns one. v and an m x m matrix are computed
once at fit time, so a prediction is, per row block of the query, one
feature build, one product with v and one m x m product; no factor is solved
against per call. softki keeps the upper root T = R^-1 of the weights'
posterior covariance T T^T (one ?trtri of R) and predicts

    var = rowsum((phi(x) T)^2),

a sum of squares (Rasmussen & Williams, 2006, Alg. 2.1) that one in-place
?trmm per block forms in half the flops of a GEMM with the full matrix; the
approximate prior variance cancels exactly against the Nystrom-form
correction, leaving var = w (Lambda + W^T W / beta^2)^-1 w^T. SGPR and the
exact GP keep P = K_zz^-1 - R^-1 R^-T (K^-1 for exact) and predict

    var = prior - rowsum((phi(x) P) * phi(x)),

clamped at 0. Restored predictions are bitwise the live ones. Across block
sizes the mean is bitwise, and the variance agrees to rounding: GEMM and
?trmm may round an entry differently with the number of rows in the product.
16-row blocks against one 1100-row block differed by at most 2.0e-16 of max
var for softki and 1.7e-14 for SGPR at m = 33 and 100.

A query row whose scaled squared distance to a point can overflow its dtype
raises NonFiniteInput naming the row: ``kernel.scaled_distance`` reads it
off the row sums it forms, so far rows cost no extra pass and print no
warning.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from . import linalg
from .data import Dataset, Standardization, identity_stats, integer, points, real, stream
from .errors import (DimensionMismatch, InvalidConfig, NonFiniteInput, NonFiniteResult,
                     RankDeficient, SoftKIError)
from .interp import Hyperparams, softki_cross, softmax_weights
from .kernel import MaternParams, matern32
from .objective import (SGPR_ROWS, SOFTKI_ROWS, _dense_gp, exact_gp_mll, sgpr_elbo,
                        stabilized_objective, step_workspace)

# rows per block of every pass over data or query rows (fit's design blocks,
# prediction). A block's block_rows x m temporaries are small enough for the
# allocator to reuse from call to call instead of mapping them afresh: no page
# faults per 10k-point prediction at m=512, against 2044 unblocked. 1024 rows
# predicted faster than 2048 on every benchmark workload.
DEFAULT_BLOCK_ROWS = 1024


class Model(NamedTuple):
    """One row of ``MODELS``: what a model learns, and how it trains, fits
    and predicts."""

    params: tuple         # the trainer.PARAMS names it learns
    full_batch: bool      # every step reads all n points, not cfg.batch_size
    objective: Callable   # (cfg, n) -> step(x, y, hp, probe_rng) -> ObjectiveReport
    modes: bool           # its step reads cfg.objective_mode
    phi: Callable         # (hp, xs) -> the (len(xs), m) features of xs
    var: Callable         # (post, phi) -> latent variance; may overwrite phi
    root: bool            # p is an upper root, whose lower triangle var never reads
    fit: Callable         # (data, hp, phi) -> (hp, v, p, diagnostics) of its Posterior


def model_row(name) -> Model:
    """The ``MODELS`` row of name; InvalidConfig names an unknown one."""
    if not (isinstance(name, str) and name in MODELS):
        raise InvalidConfig(f"unknown model {name!r}; the models are {', '.join(MODELS)}")
    return MODELS[name]


@dataclass
class Posterior:
    """A fitted model: mean = phi(x) v, var from p by its row's variance term.

    It is what a checkpoint holds, and it checks its own arrays as the other
    records do: DimensionMismatch for a v that is not (m,), a p that is not
    (m, m) or statistics of another d than its points; InvalidConfig naming v
    or p for a nan or inf in either, and for a root (its row's ``root``) with
    a non-zero entry below its diagonal, which prediction's triangular
    product would silently ignore. Then DimensionMismatch for no points z,
    and for temperatures other than its row learns (d for softki, none for
    sgpr and exact): the one rule of which temperatures a model holds."""

    variant: str               # a key of MODELS
    hp: Hyperparams
    v: np.ndarray              # (m,)
    p: np.ndarray              # (m, m): softki's upper root T, else the symmetric P
    stats: Standardization | None = None  # of the fit data; None is the identity
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        row = model_row(self.variant)
        m, d = self.hp.z.shape
        if self.stats is None:
            self.stats = identity_stats(d)
        if self.stats.x_mean.shape != (d,):
            raise DimensionMismatch(f"statistics of d={self.stats.x_mean.shape[0]} "
                                    f"for points of d={d}")
        self.v = real(self.v, "v", vector=(m,))
        # a checkpoint reads p back C-ordered, and the same layout here keeps
        # restored predictions bitwise equal to live ones. For softki it is
        # also the layout ?trmm reads without a copy: T.T is F-ordered
        self.p = np.ascontiguousarray(self.p)
        if self.p.shape != (m, m):
            raise DimensionMismatch(f"p must be ({m}, {m}) for m={m} points, "
                                    f"got shape {self.p.shape}")
        real(self.p.ravel(), "p", vector=True)
        if row.root and np.tril(self.p, -1).any():  # the m x m copy lives only here
            raise InvalidConfig(f"p, {self.variant}'s upper root T, has non-zero "
                                "entries below its diagonal")
        if m == 0:
            raise DimensionMismatch("a posterior needs at least one point z, got m=0")
        learned = (d if "temperatures" in row.params else 0,)
        if self.hp.temperatures.shape != learned:
            raise DimensionMismatch(f"{self.variant}'s temperatures must have {learned[0]} "
                                    f"entries at d={d}, got {self.hp.temperatures.shape[0]}")

    @property
    def noise(self) -> float:
        """Benchmark shim: perfbench/worker.py reads ``load_checkpoint(...).noise``."""
        return self.hp.noise


def _sum_of_squares(post, phi: np.ndarray) -> np.ndarray:
    """rowsum((phi T)^2) with T = post.p upper, by one ?trmm that overwrites
    phi's buffer: (phi T)^T = T^T phi^T, where T.T is the F-ordered lower
    triangle of the C-ordered root and phi.T the F-ordered view of phi."""
    trmm, = scipy.linalg.get_blas_funcs(("trmm",), (post.p, phi))
    pt = trmm(1.0, post.p.T, phi.T, lower=1, overwrite_b=1).T
    return np.einsum("ij,ij->i", pt, pt)


def _prior_less_quadratic(post, phi: np.ndarray) -> np.ndarray:
    """prior - rowsum((phi P) * phi), prior the kernel's outputscale; the
    small negatives rounding leaves where the data pins f down are clamped."""
    return np.maximum(post.hp.kernel.outputscale
                      - np.einsum("ij,ij->i", phi @ post.p, phi), 0.0)


def stacked_qr_solve(blocks, seed: np.ndarray):
    """Streaming thin QR of a stacked system.

    blocks yields (a_block, b_block) pairs of pre-scaled rows, a float
    (rows, m) array and its (rows,) targets; the carry is promoted to each
    block's dtype. The seed rows [seed | 0], seed an (m, m) upper triangle
    such as the root of a prior precision, start the carried (m+1)-square
    upper triangle [R | c; 0 | rho] and count as one block; each data block
    is then absorbed by one
    triangular-pentagonal QR (LAPACK ?tpqrt), which reduces [carry; a_block |
    b_block] without re-factoring the carried rows. Returns (r,
    projected_rhs, residual_norm, diag) where r is (m, m) upper, R x =
    projected_rhs is the least-squares solution, and residual_norm = |rho|
    is the accumulated orthogonal-complement magnitude of the rhs. Raises
    NonFiniteResult when the carried triangle is not finite, which a nan or
    inf in any design row or target leaves behind.
    """
    m = seed.shape[0]
    carry = np.zeros((m + 1, m + 1), dtype=seed.dtype, order="F")
    carry[:m, :m] = seed
    # ?tpqrt's inner block; at one thread and 1024-row blocks the fastest
    # measured was 8 at m = 64 and 128, 16 at m = 256 and 24-40 at m = 512
    inner = min(m + 1, max(8, min(32, (m + 1) // 16)))
    n_blocks = 1
    rows_seen = 0
    widest = 0

    for a_blk, b_blk in blocks:
        rows = a_blk.shape[0]
        rows_seen += rows
        n_blocks += 1
        widest = max(widest, rows)
        carry = carry.astype(np.result_type(carry, a_blk), order="F", copy=False)
        # [a_blk | b_blk] written once, in the Fortran order ?tpqrt reduces
        # in place (into its Householder vectors, which are not kept). The
        # transposing copy goes 64 rows at a time, whose source stays in
        # cache: 1.1 ms against 3.0 ms in one pass at (1024, 512)
        stack = np.empty((rows, m + 1), dtype=carry.dtype, order="F")
        for part in _row_blocks(rows, 64):
            stack[part, :m] = a_blk[part]
        stack[:, m] = b_blk
        del a_blk, b_blk  # copied into the stack; LAPACK reduces it without them
        tpqrt, = scipy.linalg.get_lapack_funcs(("tpqrt",), (carry,))
        carry = tpqrt(0, inner, carry, stack, overwrite_a=1, overwrite_b=1)[0]
        del stack

    if not np.isfinite(carry).all():
        raise NonFiniteResult("stacked QR factor is not finite: a design row "
                              "or target held a nan or inf")
    r = np.triu(carry[:m, :m])
    d = np.abs(np.diagonal(r))
    if d.size == 0 or np.any(d < linalg.RANK_TOL * d.max()):
        raise RankDeficient("stacked system is numerically rank deficient")
    diag = {
        "blocks": n_blocks,
        "max_stack_rows": widest + m + 1,
        "rows": rows_seen + m,
    }
    return r, carry[:m, m], float(np.abs(carry[m, m])), diag


def _row_blocks(n: int, block_rows: int):
    """Consecutive row slices of at most block_rows rows covering range(n)."""
    return (slice(i, i + block_rows) for i in range(0, n, block_rows))


def _features(phi, hp, xs: np.ndarray, rows: slice, name: str) -> np.ndarray:
    """phi(hp, xs[rows]); a row whose scaled squares overflow is named by its
    0-based index in xs, under name."""
    try:
        return phi(hp, xs[rows])
    except NonFiniteInput as err:
        if err.row is None:  # not a row of xs
            raise
        far = rows.start + err.row
        raise NonFiniteInput(f"{name} row {far} (0-based) overflows the squared "
                             f"distance in {xs.dtype}", far) from None


def _stacked_fit(phi, data: Dataset, hp, seed: np.ndarray, jitter: float):
    """(R, c, diagnostics) of the stacked QR of [seed | 0; phi(x) / beta | y / beta].

    Streams phi(x[rows]) / beta through ``stacked_qr_solve`` in row blocks of
    ``DEFAULT_BLOCK_ROWS`` (read at each call), seeded with the root of the
    weights' prior precision, so R^T R = seed^T seed + phi^T phi / beta^2.
    jitter is the rung the seed's factor used, recorded in the diagnostics.
    """
    beta = hp.noise

    def scaled(rows):  # a new array of phi(x[rows]), divided by beta in place
        a = _features(phi, hp, data.x, rows, "x")
        a /= beta
        return a

    # a generator expression keeps no reference to a block it has yielded
    blocks = ((scaled(rows), data.y[rows] / beta)
              for rows in _row_blocks(data.y.shape[0], DEFAULT_BLOCK_ROWS))
    r, c, residual, diag = stacked_qr_solve(blocks, seed)
    diag.update({"block_rows": DEFAULT_BLOCK_ROWS, "residual": residual,
                 "jitter": jitter})
    return r, c, diag


def _fit_softki(data: Dataset, hp, phi):
    """softki's u ~ N(0, K_zz) have precision K_zz^-1. From U_rev^T U_rev =
    J K_zz J, J reversing the order, K_zz = L^T L with L = J U_rev J lower, so
    its upper root is S = L^-T = J U_rev^-T J. Keeps the root T = R^-1 of the
    weights' posterior covariance."""
    u_rev, jitter = linalg.cholesky_upper(matern32(hp.z, hp.z, hp.kernel)[::-1, ::-1])
    seed = linalg.tri_inverse_upper(u_rev)[::-1, ::-1].T
    del u_rev  # one m x m array less while the blocks stream
    r, c, diag = _stacked_fit(phi, data, hp, seed, jitter)
    return hp, linalg.tri_solve_upper(r, c), linalg.tri_inverse_upper(r), diag


def _fit_sgpr(data: Dataset, hp, phi):
    """SGPR's a ~ N(0, K_zz^-1) have precision K_zz, with root S = U_zz.
    Keeps P = S^-1 S^-T - R^-1 R^-T, the prior covariance K_zz^-1 less the
    posterior one."""
    seed, jitter = linalg.cholesky_upper(matern32(hp.z, hp.z, hp.kernel))
    r, c, diag = _stacked_fit(phi, data, hp, seed, jitter)
    p = -linalg.chol_inverse(r)
    p += linalg.chol_inverse(seed)
    return hp, linalg.tri_solve_upper(r, c), p, diag


def _fit_exact(data: Dataset, hp, phi):
    """v = K^-1 y and P = K^-1 from one dense Cholesky of K = K_XX + noise^2 I
    (phi is not read: K is formed whole). The record's points are the
    training inputs, whatever hp.z holds."""
    x = np.asarray(data.x, dtype=float)
    _, v, p, jit = _dense_gp(x, data.y, hp.noise * hp.noise, hp.kernel)
    return replace(hp, z=x), v, p, {"jitter": jit}


def _softki_steps(cfg, n: int):
    # as sgpr's: one objective.Workspace per run holds every (n, m) and
    # (m, m) array of a step, the exact objective's too in a run that never
    # tries it, and the last short batch uses its leading rows
    workspace = step_workspace(min(n, cfg.batch_size), cfg.m, cfg.dtype, SOFTKI_ROWS)
    return lambda x, y, hp, probes: stabilized_objective(x, y, hp, cfg, probes,
                                                         workspace=workspace)


def _sgpr_steps(cfg, n: int):
    # every step writes its (n, m) and (m, m) arrays into this one
    # objective.Workspace, so the steps allocate nothing of either size and
    # the allocator has no large block to give back and fault in again
    workspace = step_workspace(n, cfg.m, np.float64, SGPR_ROWS)
    return lambda x, y, hp, probes: sgpr_elbo(x, y, hp, workspace=workspace)


def _exact_steps(cfg, n: int):
    return lambda x, y, hp, probes: exact_gp_mll(x, y, hp)


# the rows call the traced objective and feature functions by their names in
# this module. The exact GP predicts in sgpr's form, with the training inputs
# as its points; it and sgpr learn no temperatures, and it learns no points
MODELS = {
    "softki": Model(params=("noise", "lengthscales", "outputscale", "z", "temperatures"),
                    full_batch=False, objective=_softki_steps, modes=True,
                    phi=lambda hp, xs: softmax_weights(xs, hp),
                    var=_sum_of_squares, root=True, fit=_fit_softki),
    "sgpr": Model(params=("noise", "lengthscales", "outputscale", "z"),
                  full_batch=True, objective=_sgpr_steps, modes=False,
                  phi=lambda hp, xs: matern32(xs, hp.z, hp.kernel),
                  var=_prior_less_quadratic, root=False, fit=_fit_sgpr),
}
MODELS["exact"] = MODELS["sgpr"]._replace(params=("noise", "lengthscales", "outputscale"),
                                          objective=_exact_steps, fit=_fit_exact)


def fit(model: str, data: Dataset, hp) -> Posterior:
    """The posterior of model (a key of ``MODELS``) on data at hp, by its row's
    fit, carrying data's statistics. It drops temperatures the model does not
    learn, which its ``Posterior`` refuses."""
    row = model_row(model)
    if hp.temperatures.size and "temperatures" not in row.params:
        hp = replace(hp, temperatures=())
    hp, v, p, diagnostics = row.fit(data, hp, row.phi)
    return Posterior(model, hp, v, p, data.stats, diagnostics)


def fit_qr(data: Dataset, hp: Hyperparams) -> Posterior:
    """``fit("softki", data, hp)``."""
    return fit("softki", data, hp)


def _fill(out, n: int, rows: slice, block: np.ndarray) -> np.ndarray:
    """out[rows] = block; a None out is first allocated at length n in block's dtype."""
    if out is None:
        out = np.empty(n, dtype=block.dtype)
    out[rows] = block
    return out


def _predict(post: Posterior, xs: np.ndarray, want_mean: bool, want_var: bool):
    """(mean or None, var or None), filled one row block of xs at a time; xs
    is read by ``data.points`` under the name query."""
    xs = points(xs, "query")
    row = model_row(post.variant)
    n = xs.shape[0]
    mean = var = None
    # an empty query still runs one (empty) block, which sets the dtypes
    for rows in _row_blocks(max(n, 1), DEFAULT_BLOCK_ROWS):
        phi = _features(row.phi, post.hp, xs, rows, "query")
        if want_mean:
            mean = _fill(mean, n, rows, phi @ post.v)
        if want_var:  # after the mean: var may overwrite phi
            var = _fill(var, n, rows, row.var(post, phi))
        del phi  # gone before the next block is built
    return mean, var


def predict(post: Posterior, xs: np.ndarray):
    """(mean, latent variance) from one build of phi per row block; noise excluded."""
    return _predict(post, xs, True, True)


def predict_mean(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return _predict(post, xs, True, False)[0]


def predict_var(post: Posterior, xs: np.ndarray) -> np.ndarray:
    """Latent predictive variance (noise excluded)."""
    return _predict(post, xs, False, True)[1]


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
    train_rmse: float = np.inf  # of the training mean W K_zz alpha; inf without alpha


def solver_route(method: str):
    """(route, cg tolerance or None) of qr, direct, cholesky or cg:<tol>.

    Raises InvalidConfig naming the text when it is not a route, or when its
    cg tolerance is not a number in (0, inf) (nan or inf stop CG after one
    iteration, <= 0 never)."""
    if method in ("qr", "direct", "cholesky"):
        return method, None
    if not (isinstance(method, str) and method.startswith("cg:")):
        raise InvalidConfig(f"expected qr, direct, cholesky, or cg:<tol>, got {method!r}")
    try:
        tol = float(method[3:])
    except ValueError:
        tol = method[3:]  # not a number: real names it
    return "cg", real(tol, f"solver {method!r} cg tolerance", 0.0)


def _solve(method: str, chat: np.ndarray, rhs: np.ndarray, qr_alpha=None) -> AltSolveResult:
    """One solve route on Chat alpha = rhs; "qr" calls the qr_alpha thunk.

    Every route is scored alike: a LinAlgError or SoftKIError it raises is
    recorded as its error (alpha None, residual inf), a non-finite alpha as
    "non-finite solution" (alpha None, residual inf), and otherwise the
    residual is ||Chat alpha - rhs|| / ||rhs||. So alpha is None exactly
    when the route gave no finite solution. Any other exception propagates.
    """
    route, tol = solver_route(method)
    res = AltSolveResult(method, None, np.inf)
    try:
        if route == "qr":
            res.alpha = qr_alpha()
        elif route == "direct":
            res.alpha = np.linalg.solve(chat, rhs)
        elif route == "cholesky":
            u = scipy.linalg.cholesky(chat, lower=False)  # no jitter: raw method
            res.alpha = linalg.chol_solve(u, rhs)
        else:
            rep = linalg.block_cg(lambda v: chat @ v, rhs, tol=tol,
                                  max_iters=max(1000, 10 * chat.shape[0]))
            res.alpha, res.history = rep.solutions, rep.history
            res.iterations = rep.iterations
            if not rep.converged:
                res.error = "cg did not converge"
    except (np.linalg.LinAlgError, SoftKIError) as err:
        res.error = str(err)
        return res
    if not np.all(np.isfinite(res.alpha)):
        res.alpha, res.error = None, "non-finite solution"
    else:
        res.residual = float(np.linalg.norm(chat @ res.alpha - rhs) / np.linalg.norm(rhs))
    return res


DEFAULT_STUDY_METHODS = ("qr", "direct", "cholesky", "cg:1e-1", "cg:1e-2",
                         "cg:1e-3", "cg:1e-4")


def near_degenerate_instance(n: int = 400, m: int = 24, d: int = 2,
                             delta: float = 1e-3, noise: float = 1e-4,
                             seed: int = 0, dtype="float32"):
    """Dataset plus hyperparameters whose projected system is near singular.

    Interpolation points come in pairs ``delta`` apart, so the projected
    cross-covariance has near-coincident columns and the normal-equations
    matrix squares an already extreme condition number. The targets are built
    inside the model's span and mix each pair's shared response with its
    (tiny-norm) difference response, so about 0.3 of the signal variance
    lives in directions a squared-condition solve cannot resolve at working
    precision while the stacked factorization still can. The default
    dtype is float32, the precision where that separation shows; everything
    downstream (weights, factors, solves) stays in the instance dtype.
    Returns (data, hp). Raises InvalidConfig unless n, m and d are
    integers >= 1, m is even and m <= n, delta lies in [-1, 1] and seed is
    an integer >= 0: the points lie in [-2, 2]^d, and a pair further apart is
    not near coincident (one 1e300 apart overflowed the points' squares).
    """
    n, m, d = integer(n, "n", 1), integer(m, "m", 2), integer(d, "d", 1)
    delta = real(delta, "delta", -1.0, 1.0, "[]")
    if m % 2:
        raise InvalidConfig(f"m must be an even number >= 2, got {m}")
    if n < m:
        raise InvalidConfig(f"n must be >= m = {m}, got {n}")
    dt = np.dtype(dtype)
    rng = stream(seed)
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
        weak *= dt.type(0.3) / norm
    y = shared + weak
    y = ((y - y.mean()) / y.std()).astype(dt)
    return Dataset(x=x.astype(dt), y=y, stats=None, split="train"), hp


def solver_study(data: Dataset, hp: Hyperparams,
                 methods=DEFAULT_STUDY_METHODS):
    """Score each solve route by training-set RMSE of the resulting mean.

    Every method is checked (``solver_route``) before any route runs. Returns
    one ``AltSolveResult`` per method, in order; ``train_rmse`` is read from
    its alpha and is inf when the route gave none or the RMSE is not finite,
    so orderings stay well defined.
    """
    for method in methods:
        solver_route(method)
    _, k_zz, khat = softki_cross(data.x, hp)
    beta2 = hp.noise * hp.noise
    chat = k_zz + (khat.T @ khat) / beta2  # the normal equations, symmetrized
    chat, rhs = 0.5 * (chat + chat.T), khat.T @ data.y / beta2

    def qr_alpha():  # the stacked QR of [U_zz; W K_zz / beta], on the rows built above
        blocks = ((khat[rows] / hp.noise, data.y[rows] / hp.noise)
                  for rows in _row_blocks(data.y.shape[0], DEFAULT_BLOCK_ROWS))
        r, c, _, _ = stacked_qr_solve(blocks, linalg.cholesky_upper(k_zz)[0])
        return linalg.tri_solve_upper(r, c)

    results = [_solve(method, chat, rhs, qr_alpha) for method in methods]
    for res in results:
        if res.alpha is not None:
            rmse = float(np.sqrt(np.mean((khat @ res.alpha - data.y) ** 2)))
            res.train_rmse = rmse if np.isfinite(rmse) else np.inf
    return results
