"""One test per acceptance criterion; the terminal summary prints a line each.

Criteria 2 and 3 need the pol and elevators CSV files, which are not bundled;
point SOFTKI_DATA_DIR at a directory containing pol.csv / elevators.csv to run
them, otherwise they skip.
"""

import numpy as np
import pytest

from conftest import refuse_objective_factors, uci_csv_path
from softki import TrainConfig, fit_qr, train
from softki import test_metrics as softki_metrics
from softki.baselines import exact_gp_mll, sgpr_elbo
from softki.data import Dataset, load_csv, split_standardize
from softki.interp import Hyperparams, softmax_weights
from softki.kernel import MaternParams, matern32
from softki.linalg import block_cg
from softki.objective import (
    draw_probes,
    exact_mll,
    hutchinson_pseudoloss,
)
from softki.posterior import (
    near_degenerate_instance,
    predict_mean,
    predict_var,
    solver_study,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::softki.errors.CGNotConvergedWarning"
)


def random_softki_instance(rng, n, m, d):
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    hp = Hyperparams(
        noise=float(rng.uniform(0.05, 0.3)),
        kernel=MaternParams(
            lengthscales=rng.uniform(0.5, 2.0, d),
            outputscale=float(rng.uniform(0.5, 2.0)),
        ),
        z=rng.standard_normal((m, d)),
        temperatures=rng.uniform(0.5, 2.0, d),
    )
    return x, y, hp


# --------------------------------------------------------------- criterion 1


@pytest.mark.criterion(1, "ricker")
def test_ricker_reproduction(ricker_runs):
    softki_rmses = [ricker_runs["softki"][s]["rmse"] for s in (0, 1, 2)]
    sgpr_rmses = [ricker_runs["sgpr"][s]["rmse"] for s in (0, 1, 2)]
    assert float(np.mean(softki_rmses)) <= 1e-2
    assert float(np.mean(sgpr_rmses)) <= 2e-2
    assert ricker_runs["seconds"] < 600.0


# ------------------------------------------------------------ criteria 2 & 3


def uci_mean_rmse(path):
    full = load_csv(path)
    rmses = []
    for seed in (0, 1, 2):
        train_data, test_data = split_standardize(full, train_fraction=0.9,
                                                  seed=seed)
        cfg = TrainConfig(seed=seed, m=512, epochs=50, learning_rate=0.01,
                          batch_size=1024)
        hp, _ = train(train_data, cfg)
        post = fit_qr(train_data, hp)
        rmses.append(softki_metrics(post, test_data.x, test_data.y)[0])
    return float(np.mean(rmses))


@pytest.mark.criterion(2, "pol")
def test_pol_benchmark():
    path = uci_csv_path("pol")
    if path is None:
        pytest.skip("pol.csv not present; set SOFTKI_DATA_DIR to run")
    assert uci_mean_rmse(path) <= 0.10


@pytest.mark.criterion(3, "elevators")
def test_elevators_benchmark():
    path = uci_csv_path("elevators")
    if path is None:
        pytest.skip("elevators.csv not present; set SOFTKI_DATA_DIR to run")
    assert uci_mean_rmse(path) <= 0.42


# --------------------------------------------------------------- criterion 4


@pytest.mark.criterion(4, "posterior-oracle")
def test_qr_posterior_matches_dense_oracle():
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(50, 301))
        m = int(rng.integers(4, 25))
        d = int(rng.integers(1, 4))
        x, y, hp = random_softki_instance(rng, n, m, d)
        xs = rng.standard_normal((40, d))

        post = fit_qr(Dataset(x, y), hp)
        k_zz = matern32(hp.z, hp.z, hp.kernel)
        w = softmax_weights(x, hp)
        ws = softmax_weights(xs, hp)
        cov = w @ k_zz @ w.T + hp.noise**2 * np.eye(n)
        cross = ws @ k_zz @ w.T
        solve = np.linalg.solve(cov, np.concatenate([y[:, None], cross.T], axis=1))
        mean = cross @ solve[:, 0]
        var = (np.einsum("ij,ij->i", ws @ k_zz, ws)
               - np.einsum("ij,ji->i", cross, solve[:, 1:]))

        got_mean = predict_mean(post, xs)
        got_var = predict_var(post, xs)
        assert np.max(np.abs(got_mean - mean)) <= 1e-6 * max(np.max(np.abs(mean)), 1e-12)
        assert np.max(np.abs(got_var - var)) <= 1e-6 * np.max(np.abs(var))


# --------------------------------------------------------------- criterion 5


def softki_value(x, y, state):
    hp = Hyperparams(
        noise=state["noise"],
        kernel=MaternParams(lengthscales=state["lengthscales"],
                            outputscale=state["outputscale"]),
        z=state["z"],
        temperatures=state["temperatures"],
    )
    return exact_mll(x, y, hp).value


def sgpr_value(x, y, state):
    hp = Hyperparams(
        noise=state["noise"],
        kernel=MaternParams(lengthscales=state["lengthscales"],
                            outputscale=state["outputscale"]),
        z=state["z"],
    )
    return sgpr_elbo(x, y, hp).value


def check_gradients(x, y, state, value_fn, grads, names, h=1e-6):
    flat_names = []
    analytic = []
    for name in names:
        g = grads[name]
        if np.ndim(g) == 0:
            flat_names.append((name, None))
            analytic.append(float(g))
        else:
            for idx in np.ndindex(*np.shape(g)):
                flat_names.append((name, idx))
                analytic.append(float(np.asarray(g)[idx]))
    for (name, idx), got in zip(flat_names, analytic):
        up, down = dict(state), dict(state)
        if idx is None:
            up[name] = state[name] + h
            down[name] = state[name] - h
        else:
            up[name] = np.array(state[name], dtype=float)
            down[name] = np.array(state[name], dtype=float)
            up[name][idx] += h
            down[name][idx] -= h
        numeric = (value_fn(x, y, up) - value_fn(x, y, down)) / (2 * h)
        assert got == pytest.approx(numeric, rel=1e-5, abs=1e-7), (name, idx)


@pytest.mark.criterion(5, "gradients")
def test_analytic_gradients_match_finite_differences():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 65))
        m, d = 4, 2
        x, y, hp = random_softki_instance(rng, n, m, d)
        state = {
            "noise": hp.noise,
            "lengthscales": hp.kernel.lengthscales,
            "outputscale": hp.kernel.outputscale,
            "z": hp.z,
            "temperatures": hp.temperatures,
        }
        rep = exact_mll(x, y, hp)
        check_gradients(x, y, state, softki_value, rep.gradients,
                        ("noise", "lengthscales", "outputscale", "z",
                         "temperatures"))

        sgpr_hp = Hyperparams(noise=state["noise"],
                              kernel=hp.kernel, z=state["z"])
        rep = sgpr_elbo(x, y, sgpr_hp)
        check_gradients(x, y, state, sgpr_value, rep.gradients,
                        ("noise", "lengthscales", "outputscale", "z"))


# --------------------------------------------------------------- criterion 6


@pytest.mark.criterion(6, "hutchinson")
def test_probe_trace_and_gradient_cosine():
    rng = np.random.default_rng(42)
    n = 100
    a = rng.standard_normal((n, n))
    d_mat = a @ a.T + n * np.eye(n)
    probes = draw_probes(n, 1000, seed=7)
    solves = block_cg(lambda v: d_mat @ v, probes, tol=1e-10, max_iters=2000)
    estimate = n * np.mean(np.einsum("ij,ij->j", probes, solves.solutions))
    true_trace = np.trace(np.linalg.inv(d_mat))
    assert abs(estimate - true_trace) <= 0.02 * abs(true_trace)

    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 2))
    y = rng.standard_normal(64)
    hp = Hyperparams(
        noise=0.3,
        kernel=MaternParams(lengthscales=[0.8, 1.2], outputscale=1.5),
        z=rng.standard_normal((8, 2)),
        temperatures=np.ones(2),
    )
    exact = exact_mll(x, y, hp)
    pseudo = hutchinson_pseudoloss(x, y, hp, draw_probes(64, 500, seed=11),
                                   cg_tol=1e-10, cg_max_iters=2000)

    def flatten(g):
        return np.concatenate([[g["noise"]], g["lengthscales"], [g["outputscale"]],
                               g["z"].ravel(), g["temperatures"]])

    ge, gp = flatten(exact.gradients), flatten(pseudo.gradients)
    cosine = ge @ gp / (np.linalg.norm(ge) * np.linalg.norm(gp))
    assert cosine >= 0.99


# --------------------------------------------------------------- criterion 7


@pytest.mark.criterion(7, "stability-fallback")
def test_forced_exact_records_nan_while_auto_completes(monkeypatch):
    # every factor the objectives take is refused, as on a K_zz that fails
    # every jitter rung: these clusters did while K_zz was built from float32
    # z, and train exact now that it is built and factored in float64
    refuse_objective_factors(monkeypatch)
    rng = np.random.default_rng(0)
    centers = np.array([[50.0, -50.0], [-50.0, 50.0], [50.0, 50.0]])
    n = 600
    x = (centers[rng.integers(0, 3, n)]
         + 0.01 * rng.standard_normal((n, 2))).astype(np.float32)
    y = np.sin(0.1 * x[:, 0]).astype(np.float32)
    data = Dataset(x, y)
    base = dict(m=9, epochs=3, batch_size=128, learning_rate=0.01, seed=0,
                dtype="float32")

    _, forced = train(data, TrainConfig(objective_mode="exact", **base))
    batches_per_epoch = -(-n // base["batch_size"])
    assert forced.failed_batches == base["epochs"] * batches_per_epoch
    assert all(np.isnan(v) for v in forced.epoch_objectives)

    _, auto = train(data, TrainConfig(objective_mode="auto", **base))
    assert all(np.isfinite(v) for v in auto.epoch_objectives)
    assert auto.mode_counts["pseudoloss"] > 0
    assert auto.failed_batches == 0


# --------------------------------------------------------------- criterion 8


@pytest.mark.criterion(8, "solver-study")
def test_qr_solve_beats_alternatives_on_near_degenerate_system():
    data, hp = near_degenerate_instance()
    scores = {res.method: res.train_rmse for res in solver_study(data, hp)}
    assert set(scores) == {"qr", "direct", "cholesky", "cg:1e-1", "cg:1e-2",
                           "cg:1e-3", "cg:1e-4"}
    assert np.isfinite(scores["qr"])
    for method, rmse in scores.items():
        if method != "qr":
            assert scores["qr"] < rmse, method


# --------------------------------------------------------------- criterion 9


@pytest.mark.criterion(9, "invariants")
def test_invariant_suite():
    rng = np.random.default_rng(11)

    # softmax rows sum to one
    for _ in range(5):
        n, m, d = (int(v) for v in rng.integers(2, 40, 3))
        x, _, hp = random_softki_instance(rng, n, max(m, 1), max(d, 1))
        w = softmax_weights(x, hp)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(w > 0)

        # PSD of the interpolation-point gram and the induced kernel
        k_zz = matern32(hp.z, hp.z, hp.kernel)
        scale = hp.kernel.outputscale
        assert np.min(np.linalg.eigvalsh(k_zz)) >= -1e-8 * scale
        induced = w @ k_zz @ w.T
        assert np.min(np.linalg.eigvalsh(induced)) >= -1e-8 * scale

        # Nystrom gap diagonal stays nonnegative
        z = hp.z
        k_xz = matern32(x, z, hp.kernel)
        gap = scale - np.einsum("ij,ij->i", k_xz,
                                np.linalg.solve(k_zz, k_xz.T).T)
        assert np.min(gap) >= -1e-8

    # variational bound below the exact likelihood
    x = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    kernel = MaternParams(lengthscales=[1.0, 1.3], outputscale=0.9)
    hp_s = Hyperparams(noise=0.3, kernel=kernel,
                       z=rng.standard_normal((6, 2)))
    assert sgpr_elbo(x, y, hp_s).value <= exact_gp_mll(x, y, hp_s).value + 1e-8

    # fixed seeds give bitwise-identical training runs
    data = Dataset(x, np.sin(x[:, 0]))
    cfg = TrainConfig(m=6, epochs=2, batch_size=32, learning_rate=0.05, seed=5)
    hp1, trace1 = train(data, cfg)
    hp2, trace2 = train(data, cfg)
    assert np.array_equal(hp1.z, hp2.z)
    assert np.array_equal(hp1.kernel.lengthscales, hp2.kernel.lengthscales)
    assert hp1.noise == hp2.noise
    assert trace1.epoch_objectives == trace2.epoch_objectives
