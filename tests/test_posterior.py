"""Streaming QR posterior against dense oracles, plus the solver study."""

import math

import numpy as np
import pytest

from softki import fit_qr
from softki import test_metrics as metrics_of
from softki.data import Dataset
from softki.baselines import sgpr_fit
from softki.errors import InvalidConfig, NonFiniteInput, RankDeficient, SoftKIError
from softki.interp import Hyperparams, softmax_weights
from softki.kernel import MaternParams, matern32
from softki.posterior import (
    DEFAULT_STUDY_METHODS,
    fit,
    gaussian_nll,
    near_degenerate_instance,
    predict,
    predict_mean,
    predict_var,
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
    # fit_qr keeps P = -K_zz Chat^-1 K_zz from that factor
    p = fit_qr(data, hp).p
    oracle = -k_zz @ np.linalg.solve(chat, k_zz)
    assert np.max(np.abs(p - oracle)) <= 1e-9 * np.max(np.abs(oracle))


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
        with pytest.raises(NonFiniteInput, match=r"query row 3 \(0-based\)"):
            fn(post, xs)
    with pytest.raises(NonFiniteInput, match="query row 0"):
        predict(post, xs[3])   # a single point is row 0
    mean, var = predict(post, xs[:3])
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))


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


def test_streaming_blocks_bound_memory_and_count_rows():
    data, hp = make_instance(4, 500, 16)
    post = fit_qr(data, hp, block_rows=64)
    diag = post.diagnostics
    assert diag["blocks"] == math.ceil(500 / 64) + 1  # data blocks + regularizer
    assert diag["rows"] == 500 + 16
    assert diag["max_stack_rows"] <= 64 + 16 + 1  # block + carried [R | c]
    assert diag["block_rows"] == 64


def test_block_size_does_not_change_the_solution():
    data, hp = make_instance(6, 150, 12)
    wide = fit_qr(data, hp, block_rows=150)
    narrow = fit_qr(data, hp, block_rows=17)
    assert np.allclose(wide.v, narrow.v, rtol=1e-10, atol=1e-12)
    xs = np.random.default_rng(2).standard_normal((7, 2))
    assert np.allclose(predict_var(wide, xs), predict_var(narrow, xs),
                       rtol=1e-8, atol=1e-12)


# ------------------------------------------------------------- solver routes


def test_alternative_solvers_agree_on_well_conditioned_system():
    data, hp = make_instance(5, 120, 10)
    (reference, _), *others = solver_study(data, hp, ("qr", "direct", "cholesky",
                                                      "cg:1e-10"))
    for res, _ in others:
        assert res.error is None
        assert np.allclose(res.alpha, reference.alpha, rtol=1e-6, atol=1e-9)
    with pytest.raises(ValueError):
        solver_study(data, hp, ("lu",))


def test_cg_history_tightens_with_tolerance():
    data, hp = make_instance(5, 120, 10)
    (loose, _), (tight, _) = solver_study(data, hp, ("cg:1e-2", "cg:1e-8"))
    assert tight.residual <= loose.residual
    assert tight.iterations >= loose.iterations
    assert len(tight.history) == tight.iterations
    assert tight.history[-1] <= 1e-8


@pytest.mark.filterwarnings("ignore::softki.errors.CGNotConvergedWarning")
@pytest.mark.parametrize("solver, error, match", [
    ("cg:nan", InvalidConfig, "solver 'cg:nan'"),
    ("cg:inf", InvalidConfig, "solver 'cg:inf'"),
    ("cg:-1", InvalidConfig, "solver 'cg:-1'"),
    ("cg:0", InvalidConfig, "solver 'cg:0'"),
    # finite and > 0, but below what float64 CG can reach: it stops at the cap
    ("cg:1e-30", SoftKIError, "cg:1e-30 solve failed: cg did not converge"),
])
def test_fit_rejects_a_bad_or_unconverged_cg_route(solver, error, match):
    data, hp = make_instance(5, 120, 10)
    for variant in ("softki", "sgpr"):
        with pytest.raises(error, match=match):
            fit(variant, data, hp, solver)


@pytest.mark.parametrize("n, m, key", [(400, 5, "m"), (400, 0, "m"), (20, 24, "n")])
def test_near_degenerate_instance_names_the_bad_size(n, m, key):
    with pytest.raises(InvalidConfig, match=f"^{key} must be"):
        near_degenerate_instance(n=n, m=m)


def test_solver_study_ranks_qr_first_on_near_degenerate_system():
    data, hp = near_degenerate_instance()
    rows = solver_study(data, hp)
    assert [res.method for res, _ in rows] == list(DEFAULT_STUDY_METHODS)
    scores = {res.method: rmse for res, rmse in rows}
    assert all(np.isfinite(r) or r == np.inf for r in scores.values())
    for method, rmse in scores.items():
        if method != "qr":
            assert scores["qr"] < rmse
