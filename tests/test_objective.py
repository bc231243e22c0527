"""Exact-likelihood and probe-based objective oracles, plus fallback logic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softki.interp
from softki.baselines import sgpr_elbo
from softki.trainer import TrainConfig
from softki.errors import NotPositiveDefinite, ObjectiveFailed
from softki.interp import Hyperparams, softmax_weights
from softki.kernel import MaternParams, matern32, scaled_distance
from softki.linalg import block_cg
from softki.objective import (
    LOG_2PI,
    dense_gaussian,
    draw_probes,
    exact_mll,
    hutchinson_pseudoloss,
    lowrank_gaussian,
    stabilized_objective,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::softki.errors.CGNotConvergedWarning"
)

# the CG settings a training run uses unless told otherwise
CG_DEFAULTS = {"cg_tol": TrainConfig().cg_tol, "cg_max_iters": TrainConfig().cg_max_iters}


def random_instance(seed, n=20, m=4, d=2, noise=0.3):
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
    return x, y, hp


def dense_pieces(x, hp):
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    w = softmax_weights(x, hp)
    d_mat = w @ k_zz @ w.T + hp.noise**2 * np.eye(x.shape[0])
    return w, k_zz, d_mat


def flat_grads(g):
    return np.concatenate(
        [[g["noise"]], g["lengthscales"], [g["outputscale"]], g["z"].ravel(),
         g["temperatures"]]
    )


def near_coincident_batch(seed=0, n=128):
    """float32 batch whose interpolation points sit in tight far-out clusters.

    True separations inside a cluster are below the float32 cancellation noise
    of the expanded-norm distance at that coordinate magnitude, so the computed
    K_zz stops being numerically positive definite in 32-bit while the same
    configuration is healthy in 64-bit.
    """
    rng = np.random.default_rng(seed)
    centers = np.array([[50.0, -50.0], [-50.0, 50.0], [50.0, 50.0]])
    x = (centers[rng.integers(0, 3, n)]
         + 0.01 * rng.standard_normal((n, 2))).astype(np.float32)
    y = np.sin(0.1 * x[:, 0]).astype(np.float32)
    z = np.concatenate(
        [c + 0.01 * rng.standard_normal((3, 2)) for c in centers]
    ).astype(np.float32)
    hp = Hyperparams(
        noise=0.1,
        kernel=MaternParams(lengthscales=np.ones(2, dtype=np.float32),
                            outputscale=1.0),
        z=z, temperatures=np.ones(2, dtype=np.float32),
    )
    return x, y, hp


# -------------------------------------------------------------- exact value


def test_single_point_unit_variance_value():
    # W = [[1]], K_zz = 0.5, noise^2 = 0.5, so D = [[1]] and y = 0
    hp = Hyperparams(
        noise=np.sqrt(0.5),
        kernel=MaternParams(lengthscales=[1.0], outputscale=0.5),
        z=[[0.0]], temperatures=[1.0],
    )
    rep = exact_mll(np.zeros((1, 1)), np.zeros(1), hp)
    assert rep.value == pytest.approx(-0.5 * LOG_2PI, rel=1e-12)
    assert rep.value == pytest.approx(-0.918939, abs=1e-6)


def test_value_against_dense_log_density():
    x, y, hp = random_instance(0)
    _, _, d_mat = dense_pieces(x, hp)
    sign, logdet = np.linalg.slogdet(d_mat)
    assert sign > 0
    expected = -0.5 * (y @ np.linalg.solve(d_mat, y) + logdet + len(y) * LOG_2PI)
    for path in ("lowrank", "dense"):
        rep = exact_mll(x, y, hp, path=path)
        assert rep.value == pytest.approx(expected, rel=1e-9)
        assert rep.mode_used == "exact"


def test_unknown_path_rejected():
    x, y, hp = random_instance(1, n=4)
    with pytest.raises(ValueError):
        exact_mll(x, y, hp, path="qr")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_lowrank_and_dense_paths_agree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 257))
    m = int(rng.integers(1, 33))
    x, y, hp = random_instance(seed, n=n, m=m)
    low = exact_mll(x, y, hp, path="lowrank")
    dense = exact_mll(x, y, hp, path="dense")
    assert low.value == pytest.approx(dense.value, rel=1e-8)
    assert np.allclose(flat_grads(low.gradients), flat_grads(dense.gradients),
                       rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("form", ["softki", "sgpr"])
def test_lowrank_gaussian_matches_dense_algebra(form):
    # softki: Phi = W, L = U_zz^T; sgpr: Phi = K_xz, L = U_zz^-1
    x, y, hp = random_instance(3, n=15, m=6)
    k_zz = matern32(hp.z, hp.z, hp.kernel)
    u_zz = np.linalg.cholesky(k_zz).T
    if form == "softki":
        phi, l = softmax_weights(x, hp), u_zz.T
    else:
        phi, l = matern32(x, hp.z, hp.kernel), np.linalg.inv(u_zz)
    beta2 = hp.noise**2
    d_mat = phi @ l @ l.T @ phi.T + beta2 * np.eye(15)
    d_inv = np.linalg.inv(d_mat)
    a = d_inv @ y

    lr = lowrank_gaussian(phi, y, l, beta2)
    assert lr.quad == pytest.approx(y @ a, rel=1e-10)
    assert lr.logdet == pytest.approx(np.linalg.slogdet(d_mat)[1], rel=1e-10)
    assert lr.tr_d_inv == pytest.approx(np.trace(d_inv), rel=1e-10)
    assert np.allclose(lr.a, a, rtol=1e-9, atol=1e-12)
    assert np.allclose(lr.phi_a, phi.T @ a, rtol=1e-9, atol=1e-12)
    r = (np.eye(6) - lr.zs) / beta2
    assert np.allclose(phi @ r, d_inv @ phi, rtol=1e-9, atol=1e-12)
    assert np.allclose(lr.phi_dinv_phi, phi.T @ d_inv @ phi, rtol=1e-9, atol=1e-12)
    assert np.allclose(lr.s, phi.T @ phi, rtol=1e-12, atol=1e-14)


def test_dense_gaussian_matches_numpy_and_climbs_the_jitter_ladder():
    x, y, hp = random_instance(4, n=15, m=6)
    _, _, d_mat = dense_pieces(x, hp)
    quad, logdet, a, d_inv, jitter = dense_gaussian(d_mat, y)
    assert quad == pytest.approx(y @ np.linalg.solve(d_mat, y), rel=1e-10)
    assert logdet == pytest.approx(np.linalg.slogdet(d_mat)[1], rel=1e-10)
    assert np.allclose(a, np.linalg.solve(d_mat, y), rtol=1e-9, atol=1e-12)
    assert np.allclose(d_inv, np.linalg.inv(d_mat), rtol=1e-9, atol=1e-12)
    assert jitter == 0.0

    # the default ladder: rung 0 fails on the singular matrix, 1e-8 * mean(diag) holds
    assert dense_gaussian(np.ones((4, 4)), np.ones(4))[4] == 1e-8
    with pytest.raises(NotPositiveDefinite):  # eigenvalue -1 outlasts every rung
        dense_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


def test_non_positive_definite_propagates():
    x, y, hp = near_coincident_batch()
    with pytest.raises(NotPositiveDefinite):
        exact_mll(x, y, hp)  # float32 inputs: the objective runs in float32


@pytest.mark.parametrize("dtype, forwards", [(np.float64, 1), (np.float32, 2)])
@pytest.mark.parametrize("objective", ["lowrank", "dense", "pseudoloss"])
def test_one_softmax_forward_per_call(monkeypatch, objective, dtype, forwards):
    # the backward reads the objective's weights and distances; a float32
    # batch adds one float64 forward for the backward to chain through
    calls = []

    def counting(*args):
        calls.append(args[0].dtype)
        return scaled_distance(*args)

    monkeypatch.setattr(softki.interp, "scaled_distance", counting)
    x, y, hp = random_instance(10, n=32, m=6)
    x, y = x.astype(dtype), y.astype(dtype)
    if objective == "pseudoloss":
        rep = hutchinson_pseudoloss(x, y, hp, draw_probes(32, 3, seed=0), **CG_DEFAULTS)
    else:
        rep = exact_mll(x, y, hp, path=objective)
    assert rep.is_finite()
    assert calls == [np.dtype(dtype)] + [np.dtype(np.float64)] * (forwards - 1)


# -------------------------------------------------------------- exact grads


def perturbed_value(x, y, hp, name, index, h):
    noise, ell = hp.noise, hp.kernel.lengthscales.copy()
    s2, z = hp.kernel.outputscale, hp.z.copy()
    temps = hp.temperatures.copy()
    if name == "noise":
        noise += h
    elif name == "lengthscales":
        ell[index] += h
    elif name == "outputscale":
        s2 += h
    elif name == "z":
        z[index] += h
    else:
        temps[index] += h
    hp2 = Hyperparams(
        noise=noise,
        kernel=MaternParams(lengthscales=ell, outputscale=s2),
        z=z, temperatures=temps,
    )
    return exact_mll(x, y, hp2).value


def central_differences(x, y, hp, h=1e-6):
    d = hp.kernel.lengthscales.shape[0]
    parts = {
        "noise": [None],
        "lengthscales": range(d),
        "outputscale": [None],
        "z": list(np.ndindex(*hp.z.shape)),
        "temperatures": range(d),
    }
    out = []
    for name, indices in parts.items():
        for index in indices:
            up = perturbed_value(x, y, hp, name, index, h)
            down = perturbed_value(x, y, hp, name, index, -h)
            out.append((up - down) / (2 * h))
    return np.array(out)


def test_exact_gradients_match_central_differences():
    for seed in (0, 1, 2):
        x, y, hp = random_instance(seed, n=12, m=3, d=2)
        rep = exact_mll(x, y, hp)
        numeric = central_differences(x, y, hp)
        analytic = flat_grads(rep.gradients)
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) <= 1e-5


def test_gradients_finite_whenever_value_finite():
    for seed in range(8):
        x, y, hp = random_instance(seed, n=30, m=6, d=3,
                                   noise=float(10.0 ** -(seed % 4)))
        rep = exact_mll(x, y, hp)
        if np.isfinite(rep.value):
            assert rep.is_finite()


def test_batch_sum_gradient_decomposition():
    # gradient of a sum of disjoint-batch objectives = sum of batch gradients,
    # independent of summation order
    x, y, hp = random_instance(5, n=48, m=4)
    batches = [slice(i, i + 8) for i in range(0, 48, 8)]

    reports = [exact_mll(x[b], y[b], hp) for b in batches]
    summed = np.sum([flat_grads(r.gradients) for r in reports], axis=0)
    reversed_sum = np.sum([flat_grads(r.gradients) for r in reversed(reports)],
                          axis=0)
    assert np.max(np.abs(summed - reversed_sum)) <= 1e-10

    h = 1e-6
    for name, index, position in (("noise", None, 0), ("outputscale", None, 3)):
        up = sum(perturbed_value(x[b], y[b], hp, name, index, h) for b in batches)
        down = sum(perturbed_value(x[b], y[b], hp, name, index, -h) for b in batches)
        fd = (up - down) / (2 * h)
        assert summed[position] == pytest.approx(fd, rel=1e-6)


# -------------------------------------------------------------- probes


def test_probes_unit_norm_and_deterministic():
    p = draw_probes(50, 20, seed=123)
    assert p.shape == (50, 20)
    assert np.max(np.abs(np.linalg.norm(p, axis=0) - 1.0)) <= 1e-12
    assert np.array_equal(p, draw_probes(50, 20, seed=123))


# -------------------------------------------------------------- pseudoloss


def test_pseudoloss_identity_operator_value():
    # vanishing kernel leaves D = I at unit noise, so u_j = w_j exactly
    rng = np.random.default_rng(0)
    n = 16
    x = rng.standard_normal((n, 1))
    y = rng.standard_normal(n)
    hp = Hyperparams(
        noise=1.0,
        kernel=MaternParams(lengthscales=[1.0], outputscale=1e-14),
        z=[[0.0]], temperatures=[1.0],
    )
    rep = hutchinson_pseudoloss(x, y, hp, draw_probes(n, 5, seed=1),
                                cg_tol=1e-12, cg_max_iters=CG_DEFAULTS["cg_max_iters"])
    assert rep.value == pytest.approx(-0.5 * (y @ y + 1.0), rel=1e-8)
    assert rep.mode_used == "pseudoloss"
    assert rep.diagnostics["cg_converged"]


def test_scaled_probe_trace_within_two_percent():
    rng = np.random.default_rng(42)
    n = 100
    a = rng.standard_normal((n, n))
    d_mat = a @ a.T + n * np.eye(n)
    true_trace = np.trace(np.linalg.inv(d_mat))
    probes = draw_probes(n, 1000, seed=7)
    rep = block_cg(lambda v: d_mat @ v, probes, tol=1e-10, max_iters=2000)
    est = n * np.mean(np.einsum("ij,ij->j", probes, rep.solutions))
    assert abs(est - true_trace) <= 0.02 * abs(true_trace)


def test_pseudoloss_gradient_cosine_against_exact():
    x, y, hp = random_instance(3, n=64, m=8)
    exact = exact_mll(x, y, hp)
    pseudo = hutchinson_pseudoloss(x, y, hp, draw_probes(64, 500, seed=11),
                                   cg_tol=1e-10, cg_max_iters=2000)
    ge, gp = flat_grads(exact.gradients), flat_grads(pseudo.gradients)
    cosine = ge @ gp / (np.linalg.norm(ge) * np.linalg.norm(gp))
    assert cosine >= 0.99


def test_pseudoloss_noise_gradient_scales_probe_trace_by_batch_size():
    n, ell = 32, 50
    x, y, hp = random_instance(4, n=n, m=4)
    probes = draw_probes(n, ell, seed=2)
    rep = hutchinson_pseudoloss(x, y, hp, probes, cg_tol=1e-12,
                                cg_max_iters=CG_DEFAULTS["cg_max_iters"])
    # dense solves D [u_0, U] = [y, probes]; the trace term carries the factor n
    _, _, d_mat = dense_pieces(x, hp)
    sol = np.linalg.solve(d_mat, np.concatenate([y[:, None], probes], axis=1))
    u0, us = sol[:, 0], sol[:, 1:]
    tr_g = 0.5 * u0 @ u0 - n / (2.0 * ell) * np.sum(us * probes)
    assert rep.gradients["noise"] == pytest.approx(2.0 * hp.noise * tr_g, rel=1e-8)


# -------------------------------------------------------------- stabilized


def test_auto_mode_uses_exact_on_stable_batch():
    x, y, hp = random_instance(6)
    rep = stabilized_objective(x, y, hp, TrainConfig())
    assert rep.mode_used == "exact"
    assert rep.is_finite()


def test_forced_pseudoloss_tracks_exact_gradients():
    x, y, hp = random_instance(7, n=64, m=8)
    exact = exact_mll(x, y, hp)
    rep = stabilized_objective(
        x, y, hp,
        TrainConfig(objective_mode="pseudoloss", probes=500, cg_tol=1e-10,
                    cg_max_iters=2000),
        probe_seed=3,
    )
    assert rep.mode_used == "pseudoloss"
    assert rep.is_finite()
    ge, gp = flat_grads(exact.gradients), flat_grads(rep.gradients)
    cosine = ge @ gp / (np.linalg.norm(ge) * np.linalg.norm(gp))
    assert cosine >= 0.99


def test_near_coincident_float32_falls_back():
    x, y, hp = near_coincident_batch()
    cfg = TrainConfig(objective_mode="auto", dtype="float32")
    rep = stabilized_objective(x, y, hp, cfg)
    assert rep.mode_used == "pseudoloss"
    assert np.isfinite(rep.value)
    assert "fallback_reason" in rep.diagnostics

    forced = stabilized_objective(x, y, hp, TrainConfig(objective_mode="exact",
                                                        dtype="float32"))
    assert forced.mode_used == "exact"
    assert np.isnan(forced.value)
    assert forced.gradients == {}
    assert not forced.is_finite()

    healthy = exact_mll(x.astype(np.float64), y.astype(np.float64), hp)
    assert np.isfinite(healthy.value)


def test_forced_exact_failure_reports_nan_instead_of_raising():
    x, y, hp = near_coincident_batch(seed=1)
    rep = stabilized_objective(x, y, hp, TrainConfig(objective_mode="exact",
                                                     dtype="float32"))
    assert np.isnan(rep.value)
    assert "failure" in rep.diagnostics


def test_both_paths_failing_raises_objective_failed():
    x, y, hp = random_instance(8, n=8, m=2)
    x = x.copy()
    x[0, 0] = np.nan  # poisons both objectives
    with pytest.raises(ObjectiveFailed):
        stabilized_objective(x, y, hp, TrainConfig())


def test_forced_pseudoloss_failure_reports_nan():
    x, y, hp = random_instance(9, n=8, m=2)
    x = x.copy()
    x[0, 0] = np.nan
    rep = stabilized_objective(x, y, hp, TrainConfig(objective_mode="pseudoloss"))
    assert rep.mode_used == "pseudoloss"
    assert np.isnan(rep.value)


# The bound sits between the peaks of the out-of-place elementwise chains
# (6.9 arrays for exact_mll, 8.3 for sgpr_elbo) and those of the in-place
# ones (5.0 and 4.4): a step that builds an (n, m) array twice fails it.
@pytest.mark.parametrize("objective, n, bound", [
    ("exact_mll", 1024, 6.0),
    ("sgpr_elbo", 3000, 6.0),
])
def test_training_step_peak_allocation(objective, n, bound):
    """Peak traced allocation of one float64 call at m = 128, d = 2, in (n, m) arrays."""
    m = 128
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.5, 2.5, (n, 2))
    y = np.sin(x[:, 0]) * np.cos(x[:, 1])
    hp = Hyperparams(noise=0.1, kernel=MaternParams(np.array([0.8, 1.2]), 1.0),
                     z=x[rng.choice(n, m, replace=False)],
                     temperatures=np.ones(2) if objective == "exact_mll" else ())
    call = {"exact_mll": exact_mll, "sgpr_elbo": sgpr_elbo}[objective]
    call(x, y, hp)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        call(x, y, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * m * 8) <= bound
