"""Dense linear-algebra kernels: jittered Cholesky, triangular solves and
inverses, and conjugate gradients for several right-hand sides against a
black-box operator; and the thread policy of the BLAS runtimes they run on:
the count the environment asks for, a scoped cap, and the counts read back.

Matrices are plain numpy arrays. Upper-triangular factors U satisfy
M = U^T U (LAPACK convention, lower=False).
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
import warnings

import numpy as np
import scipy.linalg

from .errors import (
    CGNotConvergedWarning,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularTriangular,
)

# Relative jitter rungs tried in order; absolute jitter is rung * mean(diag(M)).
DEFAULT_JITTER_MULTIPLIERS = (0.0, 1e-8, 1e-6, 1e-4)

RANK_TOL = 1e-12


# (package, thread-count setter, getter) of the OpenBLAS builds that numpy and
# scipy each bundle; OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads
_OPENBLAS = (
    (np, "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_threads() -> dict:
    """package name -> (set, get) thread-count functions of its bundled
    OpenBLAS, for each package whose library and symbols are found."""
    found = {}
    for pkg, set_name, get_name in _OPENBLAS:
        site = Path(pkg.__file__).resolve().parent.parent
        libs = sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "libscipy_openblas*.so")))
        if not libs:
            continue
        lib = ctypes.CDLL(libs[0])  # the copy the package already loaded
        setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        found[pkg.__name__] = (setter, getter)
    return found


def blas_thread_counts() -> dict:
    """Thread count read back from numpy's and scipy's OpenBLAS; None where
    the library or its symbol is missing, so no count can be set there."""
    found = _openblas_threads()
    return {pkg.__name__: found[pkg.__name__][1]() if pkg.__name__ in found else None
            for pkg, _, _ in _OPENBLAS}


@contextmanager
def blas_thread_limit(threads: int | None):
    """Run the body with both bundled OpenBLAS runtimes at ``threads``
    threads and restore their counts after it; None changes nothing."""
    found = _openblas_threads() if threads is not None else {}
    before = {name: getter() for name, (_, getter) in found.items()}
    for setter, _ in found.values():
        setter(threads)
    try:
        yield
    finally:
        for name, (setter, _) in found.items():
            setter(before[name])


def blas_threads() -> int:
    """The first positive integer among SOFTKI_THREADS, OPENBLAS_NUM_THREADS
    and OMP_NUM_THREADS, else the CPU count."""
    for var in ("SOFTKI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        val = os.environ.get(var)
        if val:
            try:
                threads = int(val)
            except ValueError:
                continue
            if threads >= 1:
                return threads
    return os.cpu_count() or 1


def default_jitter_schedule(m: np.ndarray) -> list[float]:
    scale = float(np.mean(np.diagonal(m)))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    return [mult * scale for mult in DEFAULT_JITTER_MULTIPLIERS]


def cholesky_upper(m: np.ndarray):
    """Upper Cholesky factor of an SPD matrix with a jitter escalation ladder.

    Tries A = M + eps*I for each eps of ``default_jitter_schedule`` (relative
    rungs {0, 1e-8, 1e-6, 1e-4} times mean(diag M)) and returns ``(U, eps_used)``
    for the first factorization that succeeds with min diag(U)^2 >= m *
    macheps * max diag(A), macheps the dtype's machine epsilon: a smaller
    pivot is rounding, not rank (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., ch. 10), as when an inducing point is repeated and
    K_zz is singular. A rung that leaves the diagonal unchanged (1e-8 in
    float32) is skipped, as it would refactor the same matrix. Raises
    NotPositiveDefinite if every rung fails, the input is not finite, or
    M + M^T overflows.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    # symmetrize: callers build M from products that are symmetric only to
    # rounding, and potrf reads a single triangle anyway; each rung resets the
    # diagonal of this one buffer, which potrf copies
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.add(m, m.T, dtype=np.result_type(m, 0.5))
    if not np.all(np.isfinite(a)):
        if not np.all(np.isfinite(m)):
            raise NotPositiveDefinite("matrix has non-finite entries")
        raise NotPositiveDefinite("M + M^T overflows")
    a *= 0.5
    diag = a.diagonal().copy()
    tol = a.shape[0] * np.finfo(a.dtype).eps
    top = diag.max(initial=0.0)
    tried, attempts = None, 0
    for eps in default_jitter_schedule(a):
        rung = diag + eps
        if tried is not None and np.array_equal(rung, tried):
            continue
        tried, attempts = rung, attempts + 1
        np.fill_diagonal(a, rung)
        try:
            u = scipy.linalg.cholesky(a, lower=False, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
        pivot = np.diagonal(u).min(initial=np.inf)
        if np.all(np.isfinite(u)) and pivot * pivot >= tol * (top + eps):
            return u, float(eps)
    raise NotPositiveDefinite(f"Cholesky failed for all {attempts} jitter values tried")


def _check_triangular(r: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """r as an array after the checks every triangular routine here makes:
    square, rows matching b's when given, no exact zero on the diagonal."""
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatch(f"expected a square triangular matrix, got {r.shape}")
    if b is not None and b.shape[0] != r.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != order {r.shape[0]}")
    if np.any(np.diagonal(r) == 0.0):
        raise SingularTriangular("exact zero on the triangular diagonal")
    return r


def tri_solve_upper(r: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve R x = b (or R^T x = b) for upper-triangular R by substitution."""
    b = np.asarray(b)
    r = _check_triangular(r, b)
    return scipy.linalg.solve_triangular(r, b, lower=False, trans="T" if transpose else "N")


def tri_inverse_upper(r: np.ndarray) -> np.ndarray:
    """R^-1 of an upper-triangular R, upper triangular, from one LAPACK ?trtri.

    Only R's upper triangle is read; the inverse's strict lower triangle is
    R's (zero for a Cholesky factor). Forming R^-1 once turns a wide solve
    R^-T X into a triangular product, which runs at GEMM speed where ?trsm
    does not. For a well-conditioned R the product is as accurate as
    substitution (Du Croz & Higham, 1992); for an ill-conditioned one, such
    as the factor of a jittered K_zz, it can be several times less accurate.
    """
    r = _check_triangular(r)
    trtri, = scipy.linalg.get_lapack_funcs(("trtri",), (r,))
    inv, info = trtri(r, lower=0)
    if info > 0:
        raise SingularTriangular(f"exact zero at diagonal entry {info - 1} (0-based)")
    return inv


def chol_solve(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (U^T U) x = b given the upper Cholesky factor U."""
    return tri_solve_upper(u, tri_solve_upper(u, b, transpose=True))


# columns mirrored per step of chol_inverse: the copy's temporary stays a
# thin (n, block) strip instead of a second n x n array
_MIRROR_BLOCK = 256


def chol_inverse(u: np.ndarray) -> np.ndarray:
    """(U^T U)^-1 given the upper Cholesky factor U, by one LAPACK ?potri.

    ?potri writes the upper triangle of the inverse; it is mirrored into the
    lower one a block of columns at a time, so the result is exactly
    symmetric and no second full-size temporary is made.
    """
    u = _check_triangular(u)
    potri, = scipy.linalg.get_lapack_funcs(("potri",), (u,))
    inv, info = potri(u, lower=0)
    if info > 0:
        raise SingularTriangular(f"exact zero at diagonal entry {info - 1} (0-based)")
    n = inv.shape[0]
    for j0 in range(0, n, _MIRROR_BLOCK):
        j1 = min(j0 + _MIRROR_BLOCK, n)
        diag = inv[j0:j1, j0:j1]
        np.copyto(diag, diag.T, where=np.tri(j1 - j0, k=-1, dtype=bool))
        inv[j1:, j0:j1] = inv[j0:j1, j1:].T
    return inv


@dataclass
class CGReport:
    """Outcome of a multi-RHS conjugate-gradient solve."""

    solutions: np.ndarray          # (n, k)
    iterations: int
    final_residual_norms: np.ndarray  # (k,) relative to each ||b_j||
    converged: bool
    hit_cap: bool                  # max_iters ran out before the recursive residuals met tol
    tolerances: np.ndarray         # (k,) the tolerance each column was held to
    history: list = field(default_factory=list)  # per-iteration max relative residual


def block_cg(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> CGReport:
    """Conjugate gradients on an SPD black-box operator, one recurrence per
    column, run in lockstep across all right-hand sides.

    Each column is held to what rhs's dtype can reach on it, or to tol if
    that is larger: the recursive residual ||r|| / ||b|| drifts from the true
    one by up to about eps ||A|| max_k ||x_k|| / ||b|| (Greenbaum 1997), so a
    column's tolerance is raised to that drift as the solve runs. ||A|| is
    the largest Rayleigh quotient p^T A p / p^T p of the search directions, a
    lower bound that the Lanczos process behind CG tightens fast. The solve
    stops when every column's recursive residual meets its tolerance, or
    after max_iters. The true residual ||b - A x|| / ||b|| is then checked
    against the tolerance plus one drift; if a column is above it,
    converged=False and the iterates are returned with a
    CGNotConvergedWarning that names which stop happened. A drift of 1 or
    more is no tolerance (x = 0 meets it): such a column converges only on
    tol.
    """
    rhs = np.asarray(rhs)
    if rhs.dtype.kind != "f":
        rhs = rhs.astype(float)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    n, k = rhs.shape

    b_norms = np.linalg.norm(rhs, axis=0)
    safe = np.where(b_norms > 0, b_norms, 1.0)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.einsum("ij,ij->j", r, r)
    active = b_norms > 0  # zero rhs columns are solved by x = 0
    history: list[float] = []
    iters = 0
    tols = np.full(k, float(tol))
    drift = np.zeros(k)
    eps = float(np.finfo(rhs.dtype).eps)
    a_norm = x_max = 0.0

    for iters in range(1, max_iters + 1):
        ap = matvec(p)
        pap = np.einsum("ij,ij->j", p, ap)
        # frozen columns keep alpha = 0 so their iterates stay put
        alpha = np.where(active & (pap > 0), rs / np.where(pap > 0, pap, 1.0), 0.0)
        x += alpha * p
        r -= alpha * ap
        rs_new = np.einsum("ij,ij->j", r, r)
        rel = np.sqrt(rs_new) / safe
        history.append(float(rel.max()))
        pp = np.einsum("ij,ij->j", p, p)
        a_norm = max(a_norm, float(np.max(pap / np.where(pp > 0, pp, 1.0))))
        x_max = np.maximum(x_max, np.linalg.norm(x, axis=0))
        drift = eps * a_norm * x_max / safe
        tols = np.maximum(tol, drift)
        active = rel > tols
        if not active.any():
            break
        beta = np.where(rs > 0, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p = r + beta * p
        rs = rs_new

    final = np.linalg.norm(rhs - matvec(x), axis=0) / safe
    unsolvable = drift >= 1.0
    converged = bool(np.all(final <= np.where(unsolvable, tol, tols + drift)))
    hit_cap = bool(active.any())
    if not converged:
        if hit_cap:
            why = f"reached its cap of {max_iters} iterations"
        elif unsolvable.any():
            why = (f"stopped after {iters} iterations: {rhs.dtype} cannot solve a "
                   f"column whose residual drifts by {drift.max():.1e}")
        else:
            why = (f"stopped after {iters} iterations: the recursive residual met "
                   f"tol {tols.max():.1e}, the true one did not")
        warnings.warn(f"CG {why}; max true rel residual {final.max():.3e}",
                      CGNotConvergedWarning)
    sols = x[:, 0] if squeeze else x
    return CGReport(
        solutions=sols,
        iterations=iters,
        final_residual_norms=final,
        converged=converged,
        hit_cap=hit_cap,
        tolerances=tols,
        history=history,
    )
