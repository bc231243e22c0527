"""SGPR and exact-GP baselines: variational bounds, solver parity, oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import softki.objective
import softki.posterior
from conftest import dense_exact_mll, lowrank_gaussian_by_solves
from softki import TrainConfig, fit_qr, train
from softki import test_metrics as softki_metrics
from softki.baselines import sgpr_fit
from softki.data import Dataset
from softki.errors import DimensionMismatch, InvalidConfig, TooLarge
from softki.interp import Hyperparams
from softki.kernel import MaternParams, matern32, matern32_forward, matern32_param_grads
from softki.linalg import cholesky_upper, tri_solve_upper
from softki.objective import _batch, exact_gp_mll, exact_mll, sgpr_elbo, sgpr_workspace
from softki.posterior import fit, predict_mean, predict_var


def random_sgpr_instance(seed, n=40, m=8, d=2, noise=0.4):
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
    )
    return x, y, hp


def smooth_1d(seed=4, n=60, t=40, noise=0.05):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3, 3, (n, 1)), axis=0)
    y = np.sin(x[:, 0]) + noise * rng.standard_normal(n)
    xs = np.sort(rng.uniform(-3, 3, (t, 1)), axis=0)
    return Dataset(x, y), xs, np.sin(xs[:, 0])


# ----------------------------------------------------------------- the bound


def test_inducing_equals_data_closes_the_bound():
    x, y, _ = random_sgpr_instance(0)
    kernel = MaternParams(lengthscales=[1.1, 0.9], outputscale=1.3)
    hp = Hyperparams(noise=0.4, kernel=kernel, z=x.copy())
    rep = sgpr_elbo(x, y, hp)
    exact = exact_gp_mll(x, y, hp)
    assert rep.value == pytest.approx(exact.value, abs=1e-6)
    assert rep.diagnostics["trace_gap"] == pytest.approx(0.0, abs=1e-10)


def test_elbo_never_exceeds_exact_mll():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(20, 201)), int(rng.integers(2, 15))
        x, y, _ = random_sgpr_instance(seed, n=n, m=m)
        hp = Hyperparams(
            noise=float(rng.uniform(0.2, 1.0)),
            kernel=MaternParams(lengthscales=rng.uniform(0.5, 2.0, 2),
                                outputscale=float(rng.uniform(0.5, 2.0))),
            z=rng.standard_normal((m, 2)),
        )
        bound = sgpr_elbo(x, y, hp).value
        exact = exact_gp_mll(x, y, hp).value
        assert bound <= exact + 1e-8


def test_nystrom_gap_diagonal_is_nonnegative():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((50, 2))
        kernel = MaternParams(lengthscales=rng.uniform(0.5, 2.0, 2),
                              outputscale=float(rng.uniform(0.5, 2.0)))
        z = rng.standard_normal((7, 2))
        k_xz = matern32(x, z, kernel)
        k_zz = matern32(z, z, kernel)
        nystrom = np.einsum("ij,ij->i", k_xz, np.linalg.solve(k_zz, k_xz.T).T)
        assert np.min(kernel.outputscale - nystrom) >= -1e-8


# ----------------------------------------------------------------- gradients


def sgpr_value(x, y, noise, ell, s2, z):
    hp = Hyperparams(
        noise=noise,
        kernel=MaternParams(lengthscales=ell, outputscale=s2),
        z=z,
    )
    return sgpr_elbo(x, y, hp).value


def test_elbo_gradients_match_central_differences():
    x, y, hp = random_sgpr_instance(1, n=24, m=4)
    rep = sgpr_elbo(x, y, hp)
    g = rep.gradients
    h = 1e-6
    base = (hp.noise, hp.kernel.lengthscales, hp.kernel.outputscale, hp.z)

    def fd(bump):
        args_up = [b + db for b, db in zip(base, bump)]
        args_dn = [b - db for b, db in zip(base, bump)]
        return (sgpr_value(x, y, *args_up) - sgpr_value(x, y, *args_dn)) / (2 * h)

    checks = [(g["noise"], (h, 0.0, 0.0, 0.0))]
    for k in range(2):
        e = np.zeros(2); e[k] = h
        checks.append((g["lengthscales"][k], (0.0, e, 0.0, 0.0)))
    checks.append((g["outputscale"], (0.0, 0.0, h, 0.0)))
    for idx in np.ndindex(*hp.z.shape):
        e = np.zeros_like(hp.z); e[idx] = h
        checks.append((g["z"][idx], (0.0, 0.0, 0.0, e)))
    for analytic, bump in checks:
        numeric = fd(bump)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-7)
    assert "temperatures" not in g


# ------------------------------------------------- the triangular-product route


def sgpr_elbo_by_solves(x, y, hp):
    """(value, gradients, jitter) of the bound by triangular solves: B and
    every product with U_zz^-1 by substitution, and the m-space by
    ``lowrank_gaussian_by_solves`` with an explicit L = I."""
    n, m = y.shape[0], hp.z.shape[0]
    beta2 = hp.noise * hp.noise
    k_zz, e_zz = matern32_forward(hp.z, hp.z, hp.kernel)
    u_zz, jit = cholesky_upper(k_zz)
    k_xz, e_xz = matern32_forward(x, hp.z, hp.kernel)
    b = tri_solve_upper(u_zz, k_xz.T, transpose=True).T
    lr = lowrank_gaussian_by_solves(b, y, np.eye(m), beta2)
    trace_gap = n * hp.kernel.outputscale - float(np.trace(lr.s))
    value = lr.log_n - trace_gap / (2.0 * beta2)
    pa = tri_solve_upper(u_zz, lr.phi_a)
    up_xz = b @ tri_solve_upper(u_zz, lr.zs.T / beta2).T + np.outer(lr.a, pa)
    g1 = matern32_param_grads(x, hp.z, hp.kernel, k_xz, e_xz, up_xz)
    inner = tri_solve_upper(u_zz, lr.phi_dinv_phi - lr.s / beta2)
    up_zz = 0.5 * (tri_solve_upper(u_zz, inner.T) - np.outer(pa, pa))
    g2 = matern32_param_grads(hp.z, hp.z, hp.kernel, k_zz, e_zz, up_zz, want_x=True)
    grads = {
        "noise": 2.0 * hp.noise * lr.tr_g + trace_gap / hp.noise**3,
        "lengthscales": g1.lengthscales + g2.lengthscales,
        "outputscale": g1.outputscale + g2.outputscale - n / (2.0 * beta2),
        "z": g1.z + g2.x + g2.z,
    }
    return value, grads, jit


def assert_gradients_close(got, want, tol):
    assert got.keys() == want.keys()
    for name, g in want.items():
        scale = np.max(np.abs(g))
        assert np.max(np.abs(np.asarray(got[name]) - g)) <= tol * scale, name


def test_elbo_matches_the_solve_route():
    x, y, hp = random_sgpr_instance(3, n=300, m=20)
    value, grads, jit = sgpr_elbo_by_solves(x, y, hp)
    rep = sgpr_elbo(x, y, hp)
    assert jit == 0.0 and rep.diagnostics["jitter"] == 0.0
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert_gradients_close(rep.gradients, grads, 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_elbo_matches_the_solve_route_on_a_jittered_k_zz(seed):
    # a repeated inducing point: K_zz is singular and factors on a jittered
    # rung (cond(K_zz + eps I) near 1e9); on seeds 0, 3, 5, 6 and 9 potrf
    # passes rung 0 with a rounding-level pivot, which cholesky_upper refuses.
    # The value and the kernel and noise gradients agree as on a
    # well-conditioned K_zz. The z gradients differ by 1.8e-9 to 1.3e-7 of
    # their largest entry here: over 20 such instances at
    # (n, m) = (200, 16), an 80-bit evaluation put the solve route 0.9e-9 to
    # 3e-8 of it away and the product route 1.2e-9 to 2.2e-7
    x, y, hp = random_sgpr_instance(seed, n=300, m=20)
    hp.z[-1] = hp.z[0]
    value, grads, jit = sgpr_elbo_by_solves(x, y, hp)
    rep = sgpr_elbo(x, y, hp)
    assert jit > 0.0 and rep.diagnostics["jitter"] == jit
    assert rep.value == pytest.approx(value, rel=1e-12)
    z_got, z_want = rep.gradients.pop("z"), grads.pop("z")
    assert np.max(np.abs(z_got - z_want)) <= 1e-6 * np.max(np.abs(z_want))
    assert_gradients_close(rep.gradients, grads, 1e-9)


def test_elbo_with_and_without_a_workspace_agree_bitwise():
    x, y, hp = random_sgpr_instance(5, n=60, m=7)
    workspace = sgpr_workspace(60, 7)
    workspace.fill(np.nan)  # nothing is read before it is written
    with_ws = sgpr_elbo(x, y, hp, workspace=workspace)
    without = sgpr_elbo(x, y, hp)
    assert with_ws.value == without.value
    for name, g in without.gradients.items():
        assert np.array_equal(with_ws.gradients[name], g), name
    assert with_ws.diagnostics == without.diagnostics


@pytest.mark.parametrize("workspace", [
    np.empty((4, 60, 6)), np.empty((3, 60, 7)), np.empty((4, 60, 7), dtype=np.float32),
    np.empty((4, 60, 14))[:, :, ::2], np.empty((4, 7, 60)).transpose(0, 2, 1),
])
def test_elbo_rejects_a_workspace_it_cannot_write_in_place(workspace):
    x, y, hp = random_sgpr_instance(5, n=60, m=7)
    with pytest.raises(DimensionMismatch, match="workspace"):
        sgpr_elbo(x, y, hp, workspace=workspace)


def test_elbo_reports_the_inner_jitter_rung(monkeypatch):
    seen = []
    original = softki.objective.lowrank_gaussian

    def marked(phi, y, u, beta2):
        lr = replace(original(phi, y, u, beta2), jitter=0.25)
        seen.append(lr.jitter)
        return lr

    monkeypatch.setattr(softki.objective, "lowrank_gaussian", marked)
    x, y, hp = random_sgpr_instance(6, m=5)
    rep = sgpr_elbo(x, y, hp)
    assert seen == [0.25]
    assert rep.diagnostics["jitter_inner"] == 0.25
    assert rep.diagnostics.keys() == {"jitter", "jitter_inner", "trace_gap"}


# -------------------------------------------------------------------- solves


def test_direct_and_qr_posteriors_agree():
    x, y, hp = random_sgpr_instance(2)
    via_qr = sgpr_fit(Dataset(x, y), hp)
    # dense referee: solve the formed C = K_zz + K_zx K_xz / beta^2 directly
    beta2 = hp.noise**2
    k_zz, k_xz = matern32(hp.z, hp.z, hp.kernel), matern32(x, hp.z, hp.kernel)
    c = k_zz + k_xz.T @ k_xz / beta2
    alpha = np.linalg.solve(c, k_xz.T @ y / beta2)
    p = np.linalg.inv(k_zz) - np.linalg.inv(c)
    assert np.max(np.abs(via_qr.v - alpha)) <= 1e-6
    xs = np.random.default_rng(0).standard_normal((10, 2))
    k_sz = matern32(xs, hp.z, hp.kernel)
    assert np.allclose(predict_mean(via_qr, xs), k_sz @ alpha, atol=1e-6)
    assert np.allclose(predict_var(via_qr, xs),
                       hp.kernel.outputscale - np.einsum("ij,ij->i", k_sz @ p, k_sz),
                       atol=1e-6)
    for solver in ("svd", "direct"):
        with pytest.raises(InvalidConfig, match=f"solver '{solver}'"):
            sgpr_fit(Dataset(x, y), hp, solver=solver)


def test_small_noise_with_full_inducing_set_interpolates():
    data, _, _ = smooth_1d(n=50, noise=0.0)
    hp = Hyperparams(
        noise=1e-3,
        kernel=MaternParams(lengthscales=[1.0], outputscale=1.0),
        z=data.x.copy(),
    )
    post = sgpr_fit(data, hp)
    assert np.max(np.abs(predict_mean(post, data.x) - data.y)) <= 1e-3


def test_huge_noise_recovers_the_prior():
    x, y, hp = random_sgpr_instance(3, noise=1e4, m=6)
    post = sgpr_fit(Dataset(x, y), hp)
    xs = np.random.default_rng(1).standard_normal((10, 2))
    assert np.max(np.abs(predict_mean(post, xs))) <= 1e-6
    var = predict_var(post, xs)
    s2 = hp.kernel.outputscale
    assert np.max(np.abs(var - s2)) <= 1e-6 * s2


def test_qr_route_is_the_shared_posterior_solver(monkeypatch):
    calls = []
    original = softki.posterior.stacked_qr_solve

    def counting(blocks, u_zz):
        calls.append(u_zz.shape)
        return original(blocks, u_zz)

    monkeypatch.setattr(softki.posterior, "stacked_qr_solve", counting)
    x, y, hp = random_sgpr_instance(6, m=5)
    sgpr_fit(Dataset(x, y), hp)
    assert calls == [(5, 5)]


def test_lowrank_objectives_share_lowrank_gaussian(monkeypatch):
    # both objectives read the one lowrank_gaussian of their module
    assert sgpr_elbo.__module__ == exact_mll.__module__ == "softki.objective"
    calls = []
    original = softki.objective.lowrank_gaussian

    def counting(phi, y, u, beta2):
        calls.append(phi.shape)
        return original(phi, y, u, beta2)

    monkeypatch.setattr(softki.objective, "lowrank_gaussian", counting)
    x, y, hp = random_sgpr_instance(6, m=5)
    sgpr_elbo(x, y, hp)
    soft = Hyperparams(
        noise=hp.noise, kernel=hp.kernel,
        z=hp.z, temperatures=np.ones(2),
    )
    exact_mll(_batch(x, y, soft), soft)
    assert calls == [(40, 5), (40, 5)]


# ------------------------------------------------------------------ exact GP


def test_single_point_mll_closed_form():
    y0, s2, beta = 0.7, 1.3, 0.4
    kernel = MaternParams(lengthscales=[1.0], outputscale=s2)
    hp = Hyperparams(noise=beta, kernel=kernel, z=np.empty((0, 1)))
    rep = exact_gp_mll(np.zeros((1, 1)), np.array([y0]), hp)
    total = s2 + beta**2
    expected = -0.5 * (y0**2 / total + np.log(total) + np.log(2 * np.pi))
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_exact_gp_interpolates_as_noise_vanishes():
    data, _, _ = smooth_1d(n=50, noise=0.0)
    gp = fit("exact", data, Hyperparams(
        noise=1e-4, kernel=MaternParams(lengthscales=[1.0], outputscale=1.0),
        z=np.empty((0, 1))))
    assert np.max(np.abs(predict_mean(gp, data.x) - data.y)) <= 1e-3
    assert np.all(predict_var(gp, data.x) >= 0)


def test_dense_guardrail():
    hp = Hyperparams(noise=0.1, kernel=MaternParams(lengthscales=[1.0], outputscale=1.0),
                     z=np.empty((0, 1)))
    with pytest.raises(TooLarge):
        exact_gp_mll(np.zeros((4097, 1)), np.zeros(4097), hp)
    with pytest.raises(TooLarge):
        fit("exact", Dataset(np.zeros((4097, 1)), np.zeros(4097)), hp)


def test_exact_gp_peak_allocation():
    # in n x n float64 arrays, measured: the likelihood peaks at 4.0 in the
    # kernel backward, where G, K, e and the backward's scratch are alive
    # (5.0 while K^-1 lived through it too), and the fit at 3.1 with K^-1 by
    # one ?potri, where two solves against an identity took it to 5.0
    n = 1000
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, (n, 2))
    y = np.sin(x[:, 0])
    hp = Hyperparams(noise=0.1, kernel=MaternParams([0.8, 1.2], 1.0), z=np.empty((0, 2)))
    peaks = []
    for call in (lambda: exact_gp_mll(x, y, hp), lambda: fit("exact", Dataset(x, y), hp)):
        call()  # warm caches outside the measurement
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / (n * n * 8))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4.1 and peaks[1] <= 3.5, peaks


def test_dense_referees_share_dense_gaussian(monkeypatch):
    # the exact GP's likelihood and fit read the one dense_gaussian of objective
    assert exact_gp_mll.__module__ == "softki.objective"
    calls = []
    original = softki.objective.dense_gaussian

    def counting(d, y):
        calls.append(d.shape)
        return original(d, y)

    monkeypatch.setattr(softki.objective, "dense_gaussian", counting)
    x, y, hp = random_sgpr_instance(6, m=5)
    soft = Hyperparams(
        noise=hp.noise, kernel=hp.kernel,
        z=hp.z, temperatures=np.ones(2),
    )
    dense_exact_mll(_batch(x, y, soft), soft)
    exact_gp_mll(x, y, hp)
    fit("exact", Dataset(x, y), hp)
    assert calls == [(40, 40)] * 3


def test_exact_gp_likelihood_and_fit_factor_the_same_matrix(monkeypatch):
    # at this noise noise**2 and noise * noise differ in the last bit; a small
    # output scale keeps that bit in the diagonal of K = K_XX + noise^2 I
    noise = 0.4515528601377755
    assert noise**2 != noise * noise
    seen = []
    original = softki.objective.dense_gaussian

    def capture(d, y):
        seen.append(d.copy())
        return original(d, y)

    monkeypatch.setattr(softki.objective, "dense_gaussian", capture)
    x, y, _ = random_sgpr_instance(7)
    hp = Hyperparams(noise=noise, kernel=MaternParams(lengthscales=[1.0, 1.0],
                                                      outputscale=0.01),
                     z=np.empty((0, 2)))
    exact_gp_mll(x, y, hp)
    fit("exact", Dataset(x, y), hp)
    assert len(seen) == 2
    assert np.array_equal(seen[0], seen[1])


def test_softmax_interpolation_cannot_beat_the_exact_oracle():
    # paired evaluation with identical hyperparameters; sanity direction only
    data, xs, ys = smooth_1d()
    hp, _ = train(data, TrainConfig(epochs=30, learning_rate=0.1,
                                    noise_init=0.1, seed=0), model="exact")
    gp = fit("exact", data, hp)
    exact_rmse = softki_metrics(gp, xs, ys)[0]

    soft = Hyperparams(
        noise=hp.noise,
        kernel=hp.kernel,
        z=data.x.copy(),
        temperatures=np.ones(1),
    )
    soft_rmse = softki_metrics(fit_qr(data, soft), xs, ys)[0]
    assert soft_rmse >= exact_rmse - 1e-12
