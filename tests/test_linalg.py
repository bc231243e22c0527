"""Factorization, triangular-solve, and conjugate-gradient oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from softki.errors import (
    CGNotConvergedWarning,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularTriangular,
)
from softki.linalg import (
    DEFAULT_JITTER_MULTIPLIERS,
    block_cg,
    chol_inverse,
    chol_solve,
    cholesky_upper,
    default_jitter_schedule,
    tri_inverse_upper,
    tri_solve_upper,
)

SQRT2 = float(np.sqrt(2.0))


# -------------------------------------------------------------- cholesky


def test_cholesky_identity():
    u, eps = cholesky_upper(np.eye(2))
    assert eps == 0.0
    assert np.allclose(u, np.eye(2))


def test_cholesky_fixed_2x2():
    m = np.array([[4.0, 2.0], [2.0, 3.0]])
    u, eps = cholesky_upper(m)
    assert eps == 0.0
    assert np.allclose(u, [[2.0, 1.0], [0.0, SQRT2]])
    assert np.linalg.norm(u.T @ u - m) <= 1e-12


def test_cholesky_indefinite_raises():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(m)


@pytest.mark.parametrize("dtype, rungs", [(np.float64, 4), (np.float32, 3)])
def test_cholesky_failure_counts_the_rungs_it_tried(dtype, rungs):
    # in float32 the 1e-8 rung leaves a unit diagonal unchanged and is skipped
    m = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=dtype)
    with pytest.raises(NotPositiveDefinite,
                       match=f"Cholesky failed for all {rungs} jitter values tried"):
        cholesky_upper(m)


def test_cholesky_rejects_non_finite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_upper(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_cholesky_rejects_a_matrix_whose_symmetrizing_sum_overflows():
    # finite entries whose M + M^T is inf: scipy's bare ValueError and an
    # overflow RuntimeWarning before this was caught
    m = np.array([[1.5e308, 1.2e308], [1.2e308, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite, match="overflows"):
            cholesky_upper(m)


def test_cholesky_jitter_ladder_reports_the_rung_used():
    # exactly singular: rank-1 outer product, rescued by the first nonzero rung
    v = np.array([1.0, 2.0, 3.0])
    m = np.outer(v, v)
    u, eps = cholesky_upper(m)
    assert eps in [mult * np.mean(np.diag(m)) for mult in DEFAULT_JITTER_MULTIPLIERS]
    assert eps > 0
    assert np.linalg.norm(u.T @ u - (m + eps * np.eye(3))) <= 1e-10 * np.linalg.norm(m)


def test_cholesky_climbs_past_a_rounding_level_pivot():
    # a repeated row and column make the matrix exactly singular; potrf still
    # finishes on some of these 20 (its last pivot then sits at rounding
    # level), and no such factor is returned
    rung0 = 0
    for seed in range(20):
        b = np.random.default_rng(seed).standard_normal((19, 40))
        idx = [*range(19), 0]
        m = (b @ b.T / 40)[np.ix_(idx, idx)]
        try:
            scipy.linalg.cholesky(m, lower=False)
            rung0 += 1
        except scipy.linalg.LinAlgError:
            pass
        u, eps = cholesky_upper(m)
        assert eps > 0
        floor = 20 * np.finfo(float).eps * (np.max(np.diag(m)) + eps)
        assert np.min(np.diag(u)) ** 2 >= floor
    assert rung0 > 0


def test_cholesky_skips_a_rung_that_leaves_the_diagonal_unchanged(monkeypatch):
    # float32 [[1, c], [c, 1]] with c one ulp under 1: its pivot^2 1.2e-7 is
    # under the floor 2.4e-7, and 1e-8 added to a unit diagonal rounds away,
    # so after rung 0 the next factorization is the 1e-6 rung's
    c = np.nextafter(np.float32(1.0), np.float32(0.0))
    m = np.array([[1.0, c], [c, 1.0]], dtype=np.float32)
    potrf = scipy.linalg.cholesky
    seen = []

    def counted(a, **kwargs):
        seen.append(a.diagonal().copy())
        return potrf(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", counted)
    _, eps = cholesky_upper(m)
    assert eps == pytest.approx(1e-6)
    assert len(seen) == 2 and not np.array_equal(seen[0], seen[1])


def test_default_jitter_schedule_scales_with_diagonal():
    m = np.diag([2.0, 4.0])
    assert default_jitter_schedule(m) == [mult * 3.0 for mult in DEFAULT_JITTER_MULTIPLIERS]


def test_a_zero_diagonal_falls_back_to_a_scale_of_one():
    assert default_jitter_schedule(np.zeros((2, 2))) == list(DEFAULT_JITTER_MULTIPLIERS)
    # rung 0 leaves the zero matrix, which potrf refuses; the next rung is 1e-8 * 1
    u, eps = cholesky_upper(np.zeros((2, 2)))
    assert eps == 1e-8
    assert np.array_equal(u, np.sqrt(1e-8) * np.eye(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0, max_value=2**31))
def test_cholesky_reconstructs_random_spd(order, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order))
    m = a @ a.T + 0.5 * np.eye(order)
    u, eps = cholesky_upper(m)
    assert np.linalg.norm(u.T @ u - (m + eps * np.eye(order))) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("rank", [None, 3])
def test_cholesky_holds_two_matrices(rank):
    # the symmetrized buffer and potrf's copy of it, on rung 0 (full rank) and
    # on a jittered rung (rank 3); building eye, eps * eye and their sum as
    # well holds 4 n x n arrays
    n = 600
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, rank or n))
    m = a @ a.T + (0.0 if rank else 1.0) * np.eye(n)
    tracemalloc.start()
    try:
        _, eps = cholesky_upper(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (eps > 0) == bool(rank)
    assert peak / m.nbytes <= 2.5


# -------------------------------------------------------------- triangular


def test_tri_solve_identity():
    assert np.allclose(tri_solve_upper(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0])


def test_tri_solve_fixed_system():
    r = np.array([[2.0, 1.0], [0.0, SQRT2]])
    x = tri_solve_upper(r, np.array([3.0, SQRT2]))
    assert np.allclose(x, [1.0, 1.0])


def test_tri_solve_transpose_flag():
    rng = np.random.default_rng(0)
    r = np.triu(rng.standard_normal((5, 5))) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    assert np.allclose(tri_solve_upper(r, b, transpose=True), np.linalg.solve(r.T, b))


def test_tri_solve_residual_small():
    rng = np.random.default_rng(1)
    r = np.triu(rng.standard_normal((8, 8))) + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    x = tri_solve_upper(r, b)
    assert np.linalg.norm(r @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_tri_solve_zero_diagonal_raises():
    r = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularTriangular):
        tri_solve_upper(r, np.ones(2))


def test_tri_inverse_is_upper_and_inverts():
    rng = np.random.default_rng(4)
    r = np.triu(rng.standard_normal((9, 9))) + 9.0 * np.eye(9)
    inv = tri_inverse_upper(r)
    assert np.array_equal(inv, np.triu(inv))
    assert np.linalg.norm(inv @ r - np.eye(9)) <= 1e-14 * 9
    assert np.allclose(inv @ np.arange(9.0), tri_solve_upper(r, np.arange(9.0)), rtol=1e-13)


def test_tri_inverse_zero_diagonal_raises():
    with pytest.raises(SingularTriangular):
        tri_inverse_upper(np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_tri_inverse_non_square_raises(shape):
    with pytest.raises(DimensionMismatch):
        tri_inverse_upper(np.ones(shape))


@pytest.mark.parametrize("order", [1, 7, 300])  # 300 spans two mirrored column blocks
def test_chol_inverse_matches_two_solves_and_is_symmetric(order):
    rng = np.random.default_rng(order)
    a = rng.standard_normal((order, order))
    u, _ = cholesky_upper(a @ a.T + order * np.eye(order))
    inv = chol_inverse(u)
    by_solves = chol_solve(u, np.eye(order))
    assert np.array_equal(inv, inv.T)
    assert np.max(np.abs(inv - by_solves)) <= 1e-14 * np.max(np.abs(by_solves))


def test_chol_inverse_makes_no_second_full_size_array():
    # the inverse and a mirrored strip (1.21 n x n arrays measured at
    # n = 600); two solves against an identity held three
    n = 600
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    u, _ = cholesky_upper(a @ a.T + n * np.eye(n))
    tracemalloc.start()
    try:
        chol_inverse(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / u.nbytes <= 1.5


# -------------------------------------------------------------- block cg


def test_cg_identity_one_iteration():
    rhs = np.random.default_rng(0).standard_normal((6, 3))
    rep = block_cg(lambda v: v, rhs, tol=1e-12)
    assert rep.iterations == 1
    assert rep.converged
    assert not rep.hit_cap
    assert np.allclose(rep.solutions, rhs)


def test_cg_diagonal_vs_direct():
    d = np.diag(np.arange(1.0, 6.0))
    rhs = np.eye(5)
    rep = block_cg(lambda v: d @ v, rhs, tol=1e-12)
    assert np.linalg.norm(rep.solutions - np.linalg.solve(d, rhs)) <= 1e-8


def test_cg_truncation_reports_nonconvergence():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    m = a @ a.T + 1e-6 * np.eye(40)  # ill conditioned
    rhs = rng.standard_normal(40)
    with pytest.warns(CGNotConvergedWarning):
        rep = block_cg(lambda v: m @ v, rhs, tol=1e-12, max_iters=1)
    assert not rep.converged
    assert rep.iterations == 1
    assert np.all(rep.final_residual_norms > 1e-12)


def test_cg_warning_names_the_iteration_cap():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    m = a @ a.T + 1e-6 * np.eye(40)
    with pytest.warns(CGNotConvergedWarning, match="reached its cap of 3 iterations"):
        rep = block_cg(lambda v: m @ v, rng.standard_normal(40), tol=1e-12, max_iters=3)
    assert rep.iterations == 3
    assert rep.history[-1] > 1e-12
    assert rep.hit_cap


def test_cg_warning_names_a_recursive_residual_below_a_true_one_above_tol():
    # float32 at condition number 1e3: the recursive residual falls past the
    # tolerance the drift raised 1e-7 to (8.9e-6) while the true residual
    # stalls near 2.4e-5
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    m = ((q * np.geomspace(1.0, 1e3, 60)) @ q.T).astype(np.float32)
    rhs = rng.standard_normal(60).astype(np.float32)
    with pytest.warns(CGNotConvergedWarning,
                      match="recursive residual met tol 8.9e-06, the true one did not"):
        rep = block_cg(lambda v: m @ v, rhs, tol=1e-7, max_iters=500)
    assert rep.iterations < 500
    assert rep.history[-1] <= rep.tolerances.max()
    assert not rep.converged
    assert not rep.hit_cap
    assert np.all(rep.final_residual_norms > 2.0 * rep.tolerances)


def low_rank_plus_noise_float32(beta2, n=200, rank=8, seed=0):
    """float32 operator 1e3 V V^T + beta2 I with orthonormal V, and two
    right-hand sides: two eigenvalues, far apart at small beta2."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    a = (1e3 * v @ v.T + beta2 * np.eye(n)).astype(np.float32)
    return a, rng.standard_normal((n, 2)).astype(np.float32)


def test_cg_attainable_tolerance_lets_a_float32_solve_converge():
    # at beta2 1e-2 the float32 residuals drift by about 1e-2 (measured
    # 1.1e-2): held to that, the solve stops after 3 iterations with its true
    # residual at 2.3e-3
    a, rhs = low_rank_plus_noise_float32(1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CGNotConvergedWarning)
        rep = block_cg(lambda v: a @ v, rhs, tol=1e-6)
    assert rep.converged
    assert np.all(rep.tolerances > 1e-6)
    assert np.all(rep.final_residual_norms <= rep.tolerances)


def textbook_cg(m, rhs, tol):
    """Plain CG on one right-hand side, stopped at the relative residual tol."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = r @ r
    history = []
    while True:
        ap = m @ p
        alpha = rs / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = r @ r
        history.append(float(np.sqrt(rs_new) / np.linalg.norm(rhs)))
        if history[-1] <= tol:
            return x, history
        p = r + rs_new / rs * p
        rs = rs_new


def test_cg_attainable_tolerance_leaves_a_solve_that_meets_tol_alone():
    # the float64 drift stays far under tol: the iterates of textbook CG
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30))
    m = a @ a.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    rep = block_cg(lambda v: m @ v, rhs, tol=1e-10)
    x, history = textbook_cg(m, rhs, 1e-10)
    assert np.allclose(rep.solutions, x, rtol=1e-12, atol=0.0)
    assert rep.iterations == len(history)
    assert np.allclose(rep.history, history, rtol=1e-8, atol=0.0)
    assert np.all(rep.tolerances == 1e-10)


def test_cg_reports_a_column_whose_residual_drifts_past_one():
    # at beta2 1e-5 the float32 drift exceeds 1 (measured 1.9 to 14), which
    # x = 0 meets: the columns count only on tol, and the solve stops
    # unconverged short of the cap
    a, rhs = low_rank_plus_noise_float32(1e-5)
    with pytest.warns(CGNotConvergedWarning, match="float32 cannot solve a column"):
        rep = block_cg(lambda v: a @ v, rhs, tol=1e-6)
    assert not rep.converged
    assert not rep.hit_cap
    assert np.all(rep.tolerances >= 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_cg_stops_a_float32_solve_that_cannot_converge_long_before_its_cap(seed):
    # the float32 recursion loses touch with the true residual within tens of
    # iterations (7-43 measured); held to tol 1e-6 alone, CG ran all 500 and
    # returned true residuals of 312 to 5.6e6
    a, rhs = low_rank_plus_noise_float32(1e-5, seed=seed)
    with pytest.warns(CGNotConvergedWarning, match="float32 cannot solve a column"):
        rep = block_cg(lambda v: a @ v, rhs, tol=1e-6)
    assert rep.iterations <= 50
    assert not rep.converged
    assert not rep.hit_cap


def test_cg_stops_a_column_at_a_direction_of_non_positive_curvature():
    # A = diag(3, -1): from b = (1, 1) the first step gives x = (1, 1), and the
    # second direction (2, 6) has p^T A p = -24. The column stops there and
    # keeps x; a column that stays on A's positive eigenvector converges
    a = np.diag([3.0, -1.0])
    rhs = np.array([[1.0, 1.0], [1.0, 0.0]])       # columns (1, 1) and (1, 0)
    with pytest.warns(CGNotConvergedWarning,
                      match="p\\^T A p <= 0 along a search direction"):
        rep = block_cg(lambda v: a @ v, rhs, tol=1e-10)
    assert rep.iterations == 2
    assert not rep.converged
    assert not rep.hit_cap
    assert np.array_equal(rep.solutions[:, 0], [1.0, 1.0])
    assert np.allclose(rep.solutions[:, 1], [1.0 / 3.0, 0.0], rtol=1e-15, atol=0.0)


def test_cg_zero_rhs_column_is_solved_by_zero():
    m = np.diag([1.0, 2.0, 3.0])
    rhs = np.zeros((3, 2))
    rhs[:, 1] = [1.0, 1.0, 1.0]
    rep = block_cg(lambda v: m @ v, rhs, tol=1e-12)
    assert rep.converged
    assert np.allclose(rep.solutions[:, 0], 0.0)


def test_cg_history_is_monotone_enough_to_plot():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30))
    m = a @ a.T + 30.0 * np.eye(30)
    rep = block_cg(lambda v: m @ v, rng.standard_normal(30), tol=1e-10)
    assert len(rep.history) == rep.iterations
    assert rep.history[-1] <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=256), st.integers(min_value=0, max_value=2**31))
def test_cg_agrees_with_dense_solve(order, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order))
    m = a @ a.T + order * np.eye(order)
    rhs = rng.standard_normal((order, 2))
    rep = block_cg(lambda v: m @ v, rhs, tol=1e-10, max_iters=10 * order + 50)
    direct = np.linalg.solve(m, rhs)
    assert np.linalg.norm(rep.solutions - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))
