"""Streaming QR posterior against dense oracles, plus the solver study."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import softki.interp
import softki.linalg
import softki.posterior
from conftest import chol_solve_ld, cholesky_ld
from softki import fit_qr
from softki import test_metrics as metrics_of
from softki.data import Dataset
from softki.baselines import exact_fit, sgpr_fit
from softki.errors import (
    CGNotConvergedWarning,
    InvalidConfig,
    NonFiniteInput,
    NonFiniteResult,
    RankDeficient,
)
from softki.interp import Hyperparams, softmax_weights
from softki.kernel import MaternParams, matern32
from softki.posterior import (
    DEFAULT_STUDY_METHODS,
    FORMS,
    _solve,
    fit,
    gaussian_nll,
    near_degenerate_instance,
    predict,
    predict_mean,
    predict_var,
    solver_route,
    solver_study,
    stacked_qr_solve,
)


def make_instance(seed, n, m, d=2, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    hp = Hyperparams(
        noise=noise,
        kernel=MaternParams(
            lengthscales=rng.uniform(0.5, 2.0, d),
            outputscale=float(rng.uniform(0.5, 2.0)),
        ),
        z=rng.standard_normal((m, d)),
        temperatures=rng.uniform(0.5, 2.0, d),
    )
    return Dataset(x, y), hp


def fitted(variant, n, m, seed=7):
    """A posterior of the variant; the exact GP's points are its n training inputs."""
    data, hp = make_instance(seed, n, m)
    if variant == "softki":
        return fit_qr(data, hp)
    if variant == "sgpr":
        return sgpr_fit(data, Hyperparams(noise=hp.noise, kernel=hp.kernel, z=hp.z))
    return exact_fit(data, Hyperparams(noise=hp.noise, kernel=hp.kernel,
                                       z=np.empty((0, 2))))


def dense_pieces(data, hp):
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    w = softmax_weights(data.x, hp)
    return k_zz, w @ k_zz


# ------------------------------------------------------------ factor oracles


def test_r_factor_reproduces_normal_equations_matrix():
    data, hp = make_instance(0, 200, 16)
    k_zz, khat = dense_pieces(data, hp)
    chat = khat.T @ khat / hp.noise**2 + k_zz
    blocks = iter([(khat / hp.noise, data.y / hp.noise)])
    r = stacked_qr_solve(blocks, np.linalg.cholesky(k_zz).T)[0]
    assert np.max(np.abs(r.T @ r - chat)) <= 1e-9 * np.max(np.abs(chat))
    # fit_qr keeps the upper root T of (K_zz^-1 + W^T W / beta^2)^-1, so
    # -T T^T is the same -K_zz Chat^-1 K_zz
    t = fit_qr(data, hp).p
    assert np.array_equal(t, np.triu(t))
    oracle = -k_zz @ np.linalg.solve(chat, k_zz)
    assert np.max(np.abs(-t @ t.T - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def test_alpha_matches_dense_solve():
    data, hp = make_instance(0, 200, 16)
    post = fit_qr(data, hp)
    k_zz, khat = dense_pieces(data, hp)
    chat = khat.T @ khat / hp.noise**2 + k_zz
    v = k_zz @ np.linalg.solve(chat, khat.T @ data.y / hp.noise**2)
    assert np.max(np.abs(post.v - v)) <= 1e-8 * np.max(np.abs(v))


def test_single_interpolation_point_scalar_formula():
    data, hp = make_instance(3, 50, 1, noise=0.4)
    post = fit_qr(data, hp)
    k_s = matern32(hp.z, hp.z, hp.kernel)[0, 0]
    col = softmax_weights(data.x, hp)[:, 0] * k_s
    chat = col @ col / hp.noise**2 + k_s
    alpha = (col @ data.y / hp.noise**2) / chat
    xs = np.random.default_rng(1).standard_normal((5, 2))
    mean = predict_mean(post, xs)
    assert np.ptp(mean) == 0.0  # one basis function: the mean is constant
    assert mean[0] == pytest.approx(k_s * alpha, rel=1e-12)


# -------------------------------------------------------- prediction oracles


def test_mean_and_variance_match_dense_gp_formulas():
    data, hp = make_instance(1, 300, 24)
    post = fit_qr(data, hp)
    k_zz, khat = dense_pieces(data, hp)
    xs = np.random.default_rng(99).standard_normal((20, 2))
    ws = softmax_weights(xs, hp)
    ksx = ws @ k_zz @ softmax_weights(data.x, hp).T
    cov = khat @ np.linalg.solve(k_zz, khat.T) + hp.noise**2 * np.eye(len(data))
    mean = ksx @ np.linalg.solve(cov, data.y)
    prior = np.einsum("ij,ij->i", ws @ k_zz, ws)
    var = prior - np.einsum("ij,ij->i", ksx, np.linalg.solve(cov, ksx.T).T)

    got_mean = predict_mean(post, xs)
    got_var = predict_var(post, xs)
    assert np.max(np.abs(got_mean - mean)) <= 1e-6 * np.max(np.abs(mean))
    assert np.max(np.abs(got_var - var)) <= 1e-6 * np.max(np.abs(var))
    assert np.all(got_var >= 0)
    assert np.all(got_var <= prior + 1e-12)


def test_duplicate_query_points_get_identical_predictions():
    data, hp = make_instance(2, 80, 8)
    post = fit_qr(data, hp)
    xs = np.repeat(np.random.default_rng(0).standard_normal((1, 2)), 2, axis=0)
    assert predict_mean(post, xs)[0] == predict_mean(post, xs)[1]
    assert predict_var(post, xs)[0] == predict_var(post, xs)[1]


def test_large_noise_limit_recovers_the_prior():
    data, hp = make_instance(2, 100, 8, noise=1e3)
    post = fit_qr(data, hp)
    xs = np.random.default_rng(5).standard_normal((10, 2))
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    ws = softmax_weights(xs, hp)
    prior = np.einsum("ij,ij->i", ws @ k_zz, ws)
    assert np.max(np.abs(predict_mean(post, xs))) <= 1e-4
    assert np.max(np.abs(predict_var(post, xs) - prior) / prior) <= 1e-3


# ------------------------------------------------------------------- metrics


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("variant", ["softki", "sgpr"])
def test_non_finite_query_rows_are_rejected(variant, bad):
    data, hp = make_instance(9, n=40, m=6)
    if variant == "softki":
        post = fit_qr(data, hp)
    else:
        post = sgpr_fit(data, Hyperparams(noise=hp.noise, kernel=hp.kernel,
                                          z=hp.z))
    xs = data.x[:6].copy()
    xs[3, 1] = bad
    xs[5, 0] = bad
    for fn in (predict, predict_mean, predict_var):
        with pytest.raises(NonFiniteInput, match=r"query row 3, column 1 \(0-based\)"):
            fn(post, xs)
    with pytest.raises(NonFiniteInput, match="query row 0, column 1 "):
        predict(post, xs[3])   # a single point is row 0
    mean, var = predict(post, xs[:3])
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))


# ---------------------------------------------------------- blocked prediction

VARIANTS = ["softki", "sgpr", "exact"]
BLOCK = 16


def counted_features(monkeypatch, variant):
    """Row counts of each feature build prediction makes for the variant."""
    calls = []
    phi, var = FORMS[variant]

    def counting(hp, xs):
        calls.append(len(xs))
        return phi(hp, xs)

    monkeypatch.setitem(FORMS, variant, (counting, var))
    return calls


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_prediction_is_bitwise_one_block_prediction(variant, monkeypatch):
    post = fitted(variant, n=120, m=12)
    xs = np.random.default_rng(3).standard_normal((3 * BLOCK + 7, 2))
    calls = counted_features(monkeypatch, variant)
    outputs = {}
    for block_rows in (BLOCK, len(xs)):
        monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", block_rows)
        outputs[block_rows] = (*predict(post, xs), predict_mean(post, xs),
                               predict_var(post, xs))
    assert calls == 3 * [BLOCK, BLOCK, BLOCK, 7] + 3 * [len(xs)]
    for blocked, whole in zip(outputs[BLOCK], outputs[len(xs)]):
        assert np.array_equal(blocked, whole)
    mean, var = outputs[BLOCK][:2]
    assert np.array_equal(mean, outputs[BLOCK][2])
    assert np.array_equal(var, outputs[BLOCK][3])


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_prediction_names_the_global_bad_row(variant, monkeypatch):
    post = fitted(variant, n=120, m=12)
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", BLOCK)
    xs = np.random.default_rng(3).standard_normal((3 * BLOCK + 7, 2))
    xs[2 * BLOCK + 1, 0] = np.nan
    calls = counted_features(monkeypatch, variant)
    for fn in (predict, predict_mean, predict_var):
        with pytest.raises(NonFiniteInput,
                           match=rf"query row {2 * BLOCK + 1}, column 0 \(0-based\)"):
            fn(post, xs)
    assert calls == []  # checked over every row before the first block is built


def _predict_peak(post, n):
    xs = np.random.default_rng(4).standard_normal((n, 2))
    predict(post, xs)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        predict(post, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", VARIANTS)
def test_prediction_peak_does_not_grow_with_n(variant, monkeypatch):
    # one block's feature build and phi P at a time; only the length-n mean
    # and variance grow with the query
    block_rows, m = 128, 256
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", block_rows)
    post = fitted(variant, n=m if variant == "exact" else 2 * m, m=m)
    small, large = (_predict_peak(post, n) - 2 * n * 8
                    for n in (block_rows, 8 * block_rows))
    assert large <= 1.1 * small, (small, large)


# across block sizes the mean is bitwise and the variance agrees to these
# fractions of max var: GEMM and ?trmm may round an entry differently with the
# number of rows in the product. Measured with 16-row blocks against one
# 1100-row block at m = 33: at most 5.6e-17 (softki) and 5.4e-15 (SGPR and
# exact), differing on 39-916 rows
BLOCKED_VAR_RTOL = {"softki": 1e-15, "sgpr": 1e-12, "exact": 1e-12}


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_prediction_agrees_with_one_block_to_rounding(variant, monkeypatch):
    m = 33
    post = fitted(variant, n=m if variant == "exact" else 120, m=m)
    xs = np.random.default_rng(3).standard_normal((1100, 2))
    outputs = {}
    for block_rows in (BLOCK, len(xs)):
        monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", block_rows)
        outputs[block_rows] = predict(post, xs)
    (mean, var), (whole_mean, whole_var) = outputs[BLOCK], outputs[len(xs)]
    assert np.array_equal(mean, whole_mean)
    assert np.max(np.abs(var - whole_var)) <= BLOCKED_VAR_RTOL[variant] * np.max(whole_var)


def test_softki_prediction_makes_no_copy_of_the_root():
    # ?trmm reads the transpose of the C-ordered root in place. A root in
    # another layout is copied on every call: one 16-row block at m = 256
    # then traced 1.06 m x m arrays, against 0.21 in this layout
    m = 256
    live = fitted("softki", n=2 * m, m=m)
    rebuilt = softki.posterior.Posterior("softki", live.hp, live.v, np.asfortranarray(live.p))
    xs = np.random.default_rng(4).standard_normal((BLOCK, 2))
    for post in (live, rebuilt):
        assert post.p.flags.c_contiguous
        predict(post, xs)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            predict(post, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * m * m * 8, peak / (m * m * 8)


def test_empty_query_predicts_empty_outputs():
    post = fitted("softki", n=40, m=6)
    mean, var = predict(post, np.empty((0, 2)))
    assert mean.shape == var.shape == (0,)
    assert predict_mean(post, np.empty((0, 2))).shape == (0,)


def test_gaussian_nll_closed_forms():
    var = np.full(4, 1.0 / (2.0 * np.pi))
    y = np.ones(4)
    assert gaussian_nll(y, y, var) == pytest.approx(0.0, abs=1e-14)

    rng = np.random.default_rng(8)
    y, mean = rng.standard_normal(30), rng.standard_normal(30)
    v = rng.uniform(0.1, 2.0, 30)
    brute = np.mean([0.5 * math.log(2 * math.pi * vi) + (yi - mi) ** 2 / (2 * vi)
                     for yi, mi, vi in zip(y, mean, v)])
    assert gaussian_nll(y, mean, v) == pytest.approx(brute, rel=1e-12)


def test_test_metrics_composition():
    data, hp = make_instance(4, 60, 6)
    post = fit_qr(data, hp)
    rmse, nll = metrics_of(post, data.x, data.y)
    mean = predict_mean(post, data.x)
    var = predict_var(post, data.x)
    assert rmse == pytest.approx(float(np.sqrt(np.mean((mean - data.y) ** 2))))
    assert nll == pytest.approx(gaussian_nll(data.y, mean, var + hp.noise**2))


# --------------------------------------------------------------- QR plumbing


def test_rank_deficient_stack_is_rejected():
    blocks = iter([(np.zeros((3, 2)), np.zeros(3))])
    with pytest.raises(RankDeficient):
        stacked_qr_solve(blocks, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["design", "target"])
def test_non_finite_rows_are_named_not_passed_to_scipy(where, bad):
    rng = np.random.default_rng(0)
    blocks = [(rng.standard_normal((5, 3)), rng.standard_normal(5)) for _ in range(2)]
    if where == "design":
        blocks[1][0][2, 1] = bad
    else:
        blocks[1][1][4] = bad
    with pytest.raises(NonFiniteResult, match="design row or target held a nan or inf"):
        stacked_qr_solve(iter(blocks), np.eye(3))


@pytest.mark.parametrize("temperature", [1e-154, 1e-160, 1e-200, 1e-300])
def test_fit_with_overflowing_temperatures_raises_a_softki_error(temperature):
    # the softmax of these temperatures overflows to nan weights, which used
    # to reach scipy's finiteness check as a bare ValueError. The record
    # rejects a temperature whose inverse square overflows float64; 1e-154
    # passes it, and the stacked QR's carry check names the nan weights of
    # this data (|x| up to 3.3)
    data, hp = make_instance(3, 50, 6)
    error = NonFiniteResult if temperature == 1e-154 else NonFiniteInput
    with np.errstate(all="ignore"), pytest.raises(error):
        fit_qr(data, Hyperparams(noise=hp.noise, kernel=hp.kernel, z=hp.z,
                                 temperatures=np.full(2, temperature)))


def test_streaming_blocks_bound_memory_and_count_rows(monkeypatch):
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", 64)
    data, hp = make_instance(4, 500, 16)
    post = fit_qr(data, hp)
    diag = post.diagnostics
    assert diag["blocks"] == math.ceil(500 / 64) + 1  # data blocks + regularizer
    assert diag["rows"] == 500 + 16
    assert diag["max_stack_rows"] <= 64 + 16 + 1  # block + carried [R | c]
    assert diag["block_rows"] == 64


@pytest.mark.parametrize("variant", ["softki", "sgpr"])
def test_block_size_does_not_change_the_solution(variant, monkeypatch):
    # 17 rows and 5 rows, the latter fewer than the m + 1 = 13 carried ones
    data, hp = make_instance(6, 150, 12)
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", 150)
    wide = fit(variant, data, hp)
    xs = np.random.default_rng(2).standard_normal((7, 2))
    for block_rows in (17, 5):
        monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", block_rows)
        narrow = fit(variant, data, hp)
        assert np.allclose(wide.v, narrow.v, rtol=1e-10, atol=1e-12)
        assert np.allclose(predict_var(wide, xs), predict_var(narrow, xs),
                           rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sizes", [[40], [25, 30], 8 * [9], [5, 40]],
                         ids=["1 block", "2 blocks", "8 short blocks", "short then tall"])
def test_stacked_qr_solve_matches_one_qr_of_the_whole_stack(sizes, dtype):
    # referee: one Householder QR of [a_1 | b_1; ...; a_k | b_k; u_zz | 0] in
    # float64, whose R row signs may differ from the streamed factor's
    m = 12
    rng = np.random.default_rng(len(sizes))
    u_zz = (np.triu(rng.standard_normal((m, m))) + 4.0 * np.eye(m)).astype(dtype)
    blocks = [(rng.standard_normal((k, m)).astype(dtype),
               rng.standard_normal(k).astype(dtype)) for k in sizes]
    r, c, residual, diag = stacked_qr_solve(iter(blocks), u_zz)

    stack = np.vstack([np.column_stack(blk) for blk in blocks]
                      + [np.column_stack([u_zz, np.zeros(m, dtype)])]).astype(np.float64)
    full = np.linalg.qr(stack, mode="r")
    signs = np.sign(np.diagonal(full)[:m]) * np.sign(np.diagonal(r))
    tol = 1e-12 if dtype == np.float64 else 1e-5
    scale = np.max(np.abs(full))
    assert r.dtype == c.dtype == dtype
    assert np.max(np.abs(signs[:, None] * full[:m, :m] - r)) <= tol * scale
    assert np.max(np.abs(signs * full[:m, m] - c)) <= tol * scale
    assert abs(abs(full[m, m]) - residual) <= tol * scale
    assert diag == {"blocks": len(sizes) + 1, "max_stack_rows": max(sizes) + m + 1,
                    "rows": sum(sizes) + m}


# ------------------------------------------------------------- solver routes


def test_alternative_solvers_agree_on_well_conditioned_system():
    data, hp = make_instance(5, 120, 10)
    reference, *others = solver_study(data, hp, ("qr", "direct", "cholesky", "cg:1e-10"))
    for res in others:
        assert res.error is None
        assert np.allclose(res.alpha, reference.alpha, rtol=1e-6, atol=1e-9)
    with pytest.raises(InvalidConfig, match="cg:<tol>, got 'lu'"):
        solver_study(data, hp, ("lu",))


def test_cholesky_route_solves_through_linalg(monkeypatch):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 8))
    chat, rhs = a.T @ a + 0.1 * np.eye(8), rng.standard_normal(8)
    u = scipy.linalg.cholesky(chat, lower=False)
    by_hand = scipy.linalg.solve_triangular(
        u, scipy.linalg.solve_triangular(u, rhs, lower=False, trans="T"), lower=False)
    calls = []
    chol_solve = softki.linalg.chol_solve

    def spy(*args):
        calls.append(args)
        return chol_solve(*args)

    monkeypatch.setattr(softki.linalg, "chol_solve", spy)
    res = _solve("cholesky", chat, rhs)
    assert len(calls) == 1 and res.error is None
    assert np.array_equal(res.alpha, by_hand)  # the same two LAPACK solves


def test_solve_records_a_non_finite_qr_solution_like_the_other_routes():
    res = _solve("qr", np.eye(3), np.ones(3), lambda: np.array([1.0, np.nan, 1.0]))
    assert (res.alpha, res.residual, res.error) == (None, np.inf, "non-finite solution")


def test_solve_records_a_route_failure_and_raises_a_programming_error():
    def failing(err):
        def thunk():
            raise err
        return thunk

    res = _solve("qr", np.eye(3), np.ones(3), failing(RankDeficient("rank deficient")))
    assert (res.alpha, res.residual, res.error) == (None, np.inf, "rank deficient")
    with pytest.raises(TypeError, match="not a route failure"):
        _solve("qr", np.eye(3), np.ones(3), failing(TypeError("not a route failure")))


def test_cg_history_tightens_with_tolerance():
    data, hp = make_instance(5, 120, 10)
    loose, tight = solver_study(data, hp, ("cg:1e-2", "cg:1e-8"))
    assert tight.residual <= loose.residual
    assert tight.iterations >= loose.iterations
    assert len(tight.history) == tight.iterations
    assert tight.history[-1] <= 1e-8


@pytest.mark.parametrize("solver", ["cg:nan", "cg:inf", "cg:-1", "cg:0", "cg:abc"])
def test_solver_route_rejects_a_bad_cg_tolerance(solver):
    data, hp = make_instance(5, 120, 10)
    match = re.escape(f"solver {solver!r} cg tolerance must be ")
    with pytest.raises(InvalidConfig, match=match):
        solver_route(solver)
    with pytest.raises(InvalidConfig, match=match):
        solver_study(data, hp, ("qr", solver))


def test_solver_study_checks_every_method_before_any_route_runs(monkeypatch):
    data, hp = make_instance(5, 120, 10)
    calls = []
    solve = softki.posterior._solve

    def spy(method, *args):
        calls.append(method)
        return solve(method, *args)

    monkeypatch.setattr(softki.posterior, "_solve", spy)
    with pytest.raises(InvalidConfig, match="'cg:0' cg tolerance must be in"):
        solver_study(data, hp, ("qr", "direct", "cg:0"))
    assert calls == []


def test_solver_study_records_an_unconverged_cg_route():
    # the float32 normal equations of this instance are indefinite (smallest
    # eigenvalue about -1e4 in float64): CG stops at the first search
    # direction with p^T A p <= 0, after 151 of its 1000 iterations at residual
    # 0.011 (it ran to the cap at 3.66 while it kept that direction), which
    # the study records instead of raising
    data, hp = near_degenerate_instance(seed=1)
    with pytest.warns(CGNotConvergedWarning,
                      match="p\\^T A p <= 0 along a search direction"):
        [res] = solver_study(data, hp, ("cg:1e-6",))
    assert res.error == "cg did not converge"
    assert np.isfinite(res.train_rmse) and 0 < res.iterations < 1000


def test_fit_solves_only_through_the_stacked_qr():
    assert "solver" not in inspect.signature(fit).parameters
    data, hp = make_instance(5, 120, 10)
    post = fit("softki", data, hp)
    assert post.diagnostics.keys() == {"block_rows", "blocks", "jitter",
                                       "max_stack_rows", "residual", "rows"}


@pytest.mark.parametrize("variant", ["softki", "sgpr"])
def test_fit_streams_the_features_against_the_root_of_the_prior_precision(
        variant, monkeypatch):
    data, hp = make_instance(5, 150, 12)
    seen = []
    original = softki.posterior.stacked_qr_solve

    def spy(blocks, seed):
        blocks = [(a.copy(), b.copy()) for a, b in blocks]
        seen.append((blocks, seed.copy()))
        return original(iter(blocks), seed)

    monkeypatch.setattr(softki.posterior, "stacked_qr_solve", spy)
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", 64)
    post = fit(variant, data, hp)
    [(blocks, seed)] = seen
    assert len(blocks) == 3
    for (a, b), rows in zip(blocks, (slice(0, 64), slice(64, 128), slice(128, 150))):
        phi = (softmax_weights(data.x[rows], hp) if variant == "softki"
               else matern32(data.x[rows], hp.z, hp.kernel))
        assert np.array_equal(a, phi / hp.noise)
        assert np.array_equal(b, data.y[rows] / hp.noise)

    # S^T S is the weights' prior precision: (K_zz + eps I)^-1 for softki's
    # u ~ N(0, K_zz), K_zz + eps I for SGPR's a ~ N(0, K_zz^-1)
    assert np.array_equal(seed, np.triu(seed))
    k_zz = matern32(hp.z, hp.z, hp.kernel) + post.diagnostics["jitter"] * np.eye(12)
    if variant == "softki":
        assert np.max(np.abs(seed.T @ seed @ k_zz - np.eye(12))) <= 1e-10
    else:
        assert np.max(np.abs(seed.T @ seed - k_zz)) <= 1e-14 * np.max(np.abs(k_zz))


def posterior_80bit(data, hp, xs, jitter):
    """softki's mean and variance at xs in 80-bit extended precision, whitened:
    with K_zz + jitter I = L L^T, Phi = W L and M = beta^2 I + Phi^T Phi, the
    mean is W_s L M^-1 Phi^T y and the variance beta^2 W_s L M^-1 L^T W_s^T."""
    ld = np.longdouble
    k = matern32(hp.z, hp.z, hp.kernel).astype(ld)
    k[np.diag_indices_from(k)] += ld(jitter)
    lo = cholesky_ld(k)
    phi = softmax_weights(data.x, hp).astype(ld) @ lo
    phi_s = softmax_weights(xs, hp).astype(ld) @ lo
    beta2 = ld(hp.noise) ** 2
    l_m = cholesky_ld(beta2 * np.eye(len(k), dtype=ld) + phi.T @ phi)
    mean = phi_s @ chol_solve_ld(l_m, phi.T @ data.y.astype(ld))
    var = beta2 * np.einsum("ij,ji->i", phi_s, chol_solve_ld(l_m, phi_s.T))
    return mean.astype(float), var.astype(float)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_softki_fit_matches_an_80bit_referee_on_near_degenerate_points(delta, seed):
    # measured at most 2.4e-14 (mean) and 1.3e-13 (variance) relative; the
    # K-form stack [U_zz; W K_zz / beta] measured 1.4e-15 and 1.0e-14
    data, hp = near_degenerate_instance(delta=delta, noise=0.1, seed=seed,
                                        dtype="float64")
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, (200, 2))
    post = fit_qr(data, hp)
    mean, var = predict(post, xs)
    ref_mean, ref_var = posterior_80bit(data, hp, xs, post.diagnostics["jitter"])
    assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
    assert np.max(np.abs(var - ref_var)) <= 1e-11 * np.max(ref_var)


def _fit_peak(monkeypatch, variant, n, block_rows, m):
    monkeypatch.setattr(softki.posterior, "DEFAULT_BLOCK_ROWS", block_rows)
    data, hp = make_instance(0, n, m)
    fit(variant, data, hp)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        fit(variant, data, hp)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["softki", "sgpr"])
def test_fit_peak_does_not_grow_with_n(variant, monkeypatch):
    # the stack holds one row block and the carried factor, whatever n is
    block_rows, m = 256, 64
    small = _fit_peak(monkeypatch, variant, 2 * block_rows, block_rows, m)
    large = _fit_peak(monkeypatch, variant, 32 * block_rows, block_rows, m)
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("variant", ["softki", "sgpr"])
def test_fit_holds_one_design_block_at_a_time(variant, monkeypatch):
    # each block is divided by beta in place and dropped before the next is
    # built: 3.09-3.14 block_rows x m arrays measured, 3.34-3.39 while softki
    # streamed W K_zz and K_zz lived through the stream, 4.9 while two blocks
    # lived
    block_rows, m = 256, 64
    peak = _fit_peak(monkeypatch, variant, 8 * block_rows, block_rows, m)
    assert peak <= 3.25 * block_rows * m * 8, peak / (block_rows * m * 8)


def test_stacked_qr_solve_peak_holds_one_stack():
    # the design block and the rhs are written into one array that LAPACK
    # absorbs into the carried factor in place, after the block is dropped:
    # 2.30 block_rows x m arrays measured, 2.57 while the carried rows were
    # re-factored with each block, 3.16 while the block lived through the
    # factorization, 6.3 when the concatenated, stacked and LAPACK-side copies
    # all lived
    block_rows, m = 256, 64
    u_zz = np.triu(np.random.default_rng(1).standard_normal((m, m))) + 5.0 * np.eye(m)

    def blocks():
        rng = np.random.default_rng(0)
        for _ in range(8):
            yield rng.standard_normal((block_rows, m)), rng.standard_normal(block_rows)

    stacked_qr_solve(blocks(), u_zz)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        stacked_qr_solve(blocks(), u_zz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2.30 * block_rows * m * 8, peak / (block_rows * m * 8)


@pytest.mark.parametrize("n, m, key", [(400, 5, "m"), (400, 0, "m"), (20, 24, "n")])
def test_near_degenerate_instance_names_the_bad_size(n, m, key):
    with pytest.raises(InvalidConfig, match=f"^{key} must be"):
        near_degenerate_instance(n=n, m=m)


def test_solver_study_builds_the_instance_once(monkeypatch):
    data, hp = near_degenerate_instance()
    calls = []
    forward = softki.interp.softmax_forward

    def counting(x, hp):
        calls.append(len(x))
        return forward(x, hp)

    monkeypatch.setattr(softki.interp, "softmax_forward", counting)
    results = solver_study(data, hp)
    monkeypatch.undo()
    assert calls == [len(data)]

    # the qr route's alpha is bitwise the K-form stacked QR of [U_zz; W K_zz / beta]
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    u_zz = softki.linalg.cholesky_upper(k_zz)[0]
    design = softmax_weights(data.x, hp) @ k_zz / hp.noise
    r, c, _, _ = stacked_qr_solve(iter([(design, data.y / hp.noise)]), u_zz)
    [qr] = [res for res in results if res.method == "qr"]
    assert np.array_equal(qr.alpha, softki.linalg.tri_solve_upper(r, c))


def test_solver_study_ranks_qr_first_on_near_degenerate_system():
    data, hp = near_degenerate_instance()
    results = solver_study(data, hp)
    assert [res.method for res in results] == list(DEFAULT_STUDY_METHODS)
    scores = {res.method: res.train_rmse for res in results}
    assert all(np.isfinite(r) or r == np.inf for r in scores.values())
    for method, rmse in scores.items():
        if method != "qr":
            assert scores["qr"] < rmse
