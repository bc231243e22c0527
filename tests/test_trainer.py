"""Optimizer, k-means seeding, batching, and the training loops."""

import dataclasses

import numpy as np
import pytest

from softki import TrainConfig, ricker_dataset, train, train_exact, train_sgpr
from softki.data import Dataset
from softki.trainer import DTYPES, OBJECTIVE_MODES
from softki.errors import InvalidConfig, TooFewPoints
from softki.interp import Hyperparams
from softki.kernel import LENGTHSCALE_MAX, LENGTHSCALE_MIN
from softki.trainer import (
    EXACT_PARAMS,
    NOISE_FLOOR,
    PARAMS,
    SCALE_FLOOR,
    SGPR_PARAMS,
    SOFTKI_PARAMS,
    TEMP_FLOOR,
    Adam,
    _KMEANS,
    _SHUFFLE,
    _epoch_batches,
    _rng,
    blas_threads,
    chain,
    kmeans,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::softki.errors.CGNotConvergedWarning"
)


def toy_dataset(seed=0, n=64, d=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y)


def blob_dataset():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    x = np.concatenate([c + 0.05 * rng.standard_normal((50, 2)) for c in centers])
    return x, centers


def destabilized_dataset(n=240):
    rng = np.random.default_rng(0)
    centers = np.array([[50.0, -50.0], [-50.0, 50.0], [50.0, 50.0]])
    x = (centers[rng.integers(0, 3, n)]
         + 0.01 * rng.standard_normal((n, 2))).astype(np.float32)
    y = np.sin(0.1 * x[:, 0]).astype(np.float32)
    return Dataset(x, y)


# -------------------------------------------------------------------- kmeans


def test_kmeans_one_center_is_the_mean():
    x = np.random.default_rng(0).standard_normal((40, 3))
    centers = kmeans(x, 1, seed=0)
    assert np.allclose(centers[0], x.mean(axis=0), atol=1e-12)


def test_kmeans_m_equals_n_returns_the_points():
    x = np.random.default_rng(1).standard_normal((12, 2))
    centers = kmeans(x, 12, seed=0)
    order_c = np.lexsort(centers.T)
    order_x = np.lexsort(x.T)
    assert np.allclose(centers[order_c], x[order_x], atol=1e-12)


def test_kmeans_recovers_separated_blobs():
    x, true_centers = blob_dataset()
    centers = kmeans(x, 3, seed=0)
    for c in true_centers:
        nearest = centers[np.argmin(np.sum((centers - c) ** 2, axis=1))]
        assert np.linalg.norm(nearest - c) < 0.1


def test_kmeans_too_few_points():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((3, 2)), 4)


def kmeans_loop_reference(x, m, seed=0, max_iters=100):
    """k-means with a boolean-mask centroid update per cluster; also returns
    the number of empty-cluster reseeds."""
    n = x.shape[0]
    rng = _rng(seed, _KMEANS)
    centroids = np.empty((m, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    assign, reseeds = None, 0
    for _ in range(max_iters):
        d2_all = (np.sum(x * x, axis=1)[:, None] - 2.0 * x @ centroids.T
                  + np.sum(centroids * centroids, axis=1)[None, :])
        new_assign = np.argmin(d2_all, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        nearest = d2_all[np.arange(n), assign]
        for j in range(m):
            mask = assign == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
            else:
                far = int(np.argmax(nearest))
                centroids[j] = x[far]
                nearest[far] = 0.0
                reseeds += 1
    return centroids, reseeds


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,m,d", [(3000, 128, 2), (600, 40, 5)])
def test_kmeans_matches_the_loop_update_bitwise(n, m, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    assert np.array_equal(kmeans(x, m, seed=seed),
                          kmeans_loop_reference(x, m, seed=seed)[0])


@pytest.mark.parametrize("seed", [1, 5, 15])
def test_kmeans_reseeds_empty_clusters_like_the_loop(seed):
    # 10 distinct points for 12 centers: clusters empty out while some points
    # still sit away from every centroid, so the reseed order matters
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.repeat(rng.standard_normal((4, 2)), 10, axis=0),
                        rng.standard_normal((6, 2))])
    expected, reseeds = kmeans_loop_reference(x, 12, seed=seed)
    assert reseeds > 0
    assert np.array_equal(kmeans(x, 12, seed=seed), expected)


def test_kmeans_deterministic_and_handles_duplicates():
    x, _ = blob_dataset()
    assert np.array_equal(kmeans(x, 5, seed=3), kmeans(x, 5, seed=3))
    same = kmeans(np.ones((6, 2)), 2, seed=0)
    assert np.all(np.isfinite(same)) and np.allclose(same, 1.0)


# ---------------------------------------------------------------------- adam


def test_adam_first_step_is_learning_rate_sized_ascent():
    params = {"a": np.zeros(3)}
    grads = {"a": np.array([1.0, -2.0, 1e-3])}
    opt = Adam(params, lr=0.1)
    opt.step(grads)
    step = params["a"]
    assert np.all(np.sign(step) == np.sign(grads["a"]))
    assert np.all(np.abs(step) <= 0.1 + 1e-15)
    assert np.all(np.abs(step) >= 0.09)


def test_adam_lr_override_and_counter():
    params = {"a": np.zeros(1)}
    opt = Adam(params, lr=1.0)
    opt.step({"a": np.array([1.0])}, lr=0.25)
    assert opt.t == 1
    assert params["a"][0] == pytest.approx(0.25, rel=1e-6)


# ------------------------------------------------------------------ batching


def test_epoch_batches_partition_the_data():
    rng = _rng(0, _SHUFFLE, 0)
    batches = list(_epoch_batches(10, 4, rng))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_epoch_batch_count_matches_ceiling_rule():
    rng = _rng(0, _SHUFFLE, 0)
    assert len(list(_epoch_batches(2048, 1024, rng))) == 2
    rng = _rng(0, _SHUFFLE, 1)
    assert len(list(_epoch_batches(2049, 1024, rng))) == 3


def test_blas_threads_env_precedence(monkeypatch):
    monkeypatch.setenv("SOFTKI_THREADS", "3")
    assert blas_threads() == 3
    monkeypatch.setenv("SOFTKI_THREADS", "not-a-number")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert blas_threads() == 2
    monkeypatch.delenv("SOFTKI_THREADS")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert blas_threads() >= 1


# ------------------------------------------------------------------ training


def test_train_trace_shapes_and_constraint_floors():
    data = toy_dataset()
    cfg = TrainConfig(m=8, epochs=2, batch_size=32, learning_rate=0.05, seed=0)
    hp, trace = train(data, cfg)
    assert len(trace.epoch_objectives) == 2
    assert len(trace.epoch_seconds) == 2
    assert sum(trace.mode_counts.values()) == 4  # two batches per epoch
    assert trace.failed_batches == 0
    assert trace.config["m"] == 8
    assert isinstance(hp, Hyperparams)
    assert hp.noise >= NOISE_FLOOR
    assert hp.kernel.outputscale >= SCALE_FLOOR
    assert np.all(hp.temperatures >= TEMP_FLOOR)
    assert np.all(hp.kernel.lengthscales > LENGTHSCALE_MIN)
    assert np.all(hp.kernel.lengthscales < LENGTHSCALE_MAX)
    assert hp.z.shape == (8, 2)


def test_train_is_bitwise_deterministic():
    data = toy_dataset(seed=3)
    cfg = TrainConfig(m=6, epochs=2, batch_size=16, learning_rate=0.05, seed=42)
    hp1, trace1 = train(data, cfg)
    hp2, trace2 = train(data, cfg)
    assert hp1.noise == hp2.noise
    assert hp1.kernel.outputscale == hp2.kernel.outputscale
    assert np.array_equal(hp1.kernel.lengthscales, hp2.kernel.lengthscales)
    assert np.array_equal(hp1.z, hp2.z)
    assert np.array_equal(hp1.temperatures, hp2.temperatures)
    assert trace1.epoch_objectives == trace2.epoch_objectives


def test_train_zero_epochs_returns_kmeans_init():
    data = toy_dataset(seed=5)
    cfg = TrainConfig(m=5, epochs=0, seed=9, noise_init=0.3,
                      temperature_init=1.5)
    hp, trace = train(data, cfg)
    assert np.array_equal(hp.z, kmeans(data.x, 5, seed=9))
    assert hp.noise == pytest.approx(0.3, rel=1e-12)
    assert np.allclose(hp.temperatures, 1.5, rtol=1e-12)
    assert trace.epoch_objectives == []


def test_zero_learning_rate_leaves_parameters_at_init():
    data = toy_dataset(seed=2)
    cfg = TrainConfig(m=4, epochs=2, batch_size=32, learning_rate=0.0, seed=1)
    hp, _ = train(data, cfg)
    assert np.array_equal(hp.z, kmeans(data.x, 4, seed=1))
    assert hp.noise == pytest.approx(cfg.noise_init, rel=1e-12)


def test_learning_rate_step_schedule(monkeypatch):
    seen = []
    original = Adam.step

    def spy(self, grads, lr=None):
        seen.append(lr)
        return original(self, grads, lr=lr)

    monkeypatch.setattr(Adam, "step", spy)
    data = toy_dataset(seed=1, n=32)
    cfg = TrainConfig(m=4, epochs=4, batch_size=32, learning_rate=0.2,
                      lr_step_epochs=2, lr_step_factor=0.5, seed=0)
    train(data, cfg)
    assert seen == [0.2, 0.2, 0.1, 0.1]


def test_objective_trend_improves_on_smooth_target():
    train_data, _ = ricker_dataset(n_train=256, n_test=50, radius=2.5, seed=0)
    cfg = TrainConfig(m=16, epochs=8, learning_rate=0.1, batch_size=64, seed=0)
    _, trace = train(train_data, cfg)
    assert trace.epoch_objectives[-1] > trace.epoch_objectives[0]


def test_forced_exact_on_degenerate_float32_marks_failures():
    data = destabilized_dataset()
    base = dict(m=9, epochs=1, batch_size=120, learning_rate=0.01, seed=0,
                dtype="float32")
    hp, trace = train(data, TrainConfig(objective_mode="exact", **base))
    assert trace.failed_batches == 2
    assert np.isnan(trace.epoch_objectives[0])
    # every step was skipped, so parameters never moved
    assert np.array_equal(hp.z, kmeans(data.x, 9, seed=0))

    hp, trace = train(data, TrainConfig(objective_mode="auto", **base))
    assert trace.failed_batches == 0
    assert np.isfinite(trace.epoch_objectives[0])
    assert trace.mode_counts["pseudoloss"] > 0


def test_train_sgpr_runs_full_batch():
    data = toy_dataset(seed=4, n=48)
    cfg = TrainConfig(m=6, epochs=3, batch_size=8, learning_rate=0.05, seed=0)
    hp, trace = train_sgpr(data, cfg)
    assert sum(trace.mode_counts.values()) == 3  # one batch per epoch
    assert isinstance(hp, Hyperparams) and hp.temperatures.shape == (0,)
    assert hp.z.shape == (6, 2)
    assert hp.noise >= NOISE_FLOOR


def test_train_exact_returns_kernel_and_noise():
    data = toy_dataset(seed=6, n=32)
    cfg = TrainConfig(epochs=3, learning_rate=0.05, seed=0)
    hp, trace = train_exact(data, cfg)
    assert isinstance(hp, Hyperparams)
    assert hp.z.shape == (0, 2) and hp.temperatures.shape == (0,)
    assert hp.noise >= NOISE_FLOOR
    assert len(trace.epoch_objectives) == 3
    assert trace.epoch_objectives[-1] >= trace.epoch_objectives[0]


# ------------------------------------------------------------ parameter table


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_parameter_table_round_trips(name):
    to_constrained, to_raw, _ = PARAMS[name]
    u = np.linspace(-4.0, 4.0, 9)
    assert np.allclose(to_raw(to_constrained(u)), u, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("names", [SOFTKI_PARAMS, SGPR_PARAMS, EXACT_PARAMS],
                         ids=["softki", "sgpr", "exact"])
def test_chain_matches_finite_differences_of_the_table(names):
    rng = np.random.default_rng(0)
    shapes = {"noise": (1,), "lengthscales": (3,), "outputscale": (1,),
              "z": (4, 3), "temperatures": (3,)}
    raw = {name: rng.standard_normal(shapes[name]) for name in names}
    upstream = {name: rng.standard_normal(shapes[name]) for name in names}
    grads = {**upstream, "noise": float(upstream["noise"][0]),
             "outputscale": float(upstream["outputscale"][0])}
    out = chain(grads, raw)
    assert set(out) == set(names)
    h = 1e-6
    for name in names:
        # every transform is elementwise, so one shifted evaluation gives
        # each element's own derivative
        f = PARAMS[name][0]
        fd = (f(raw[name] + h) - f(raw[name] - h)) / (2.0 * h)
        np.testing.assert_allclose(out[name], upstream[name] * fd,
                                   rtol=1e-6, atol=1e-9, err_msg=name)


# ------------------------------------------------------------ configuration


@pytest.mark.parametrize("field, value", [
    ("objective_mode", "exakt"), ("dtype", "float16"), ("batch_size", 0),
    ("m", 0), ("probes", 0), ("cg_max_iters", 0), ("epochs", -1),
    ("lr_step_epochs", -1), ("learning_rate", -0.01),
    ("learning_rate", float("nan")),
    # ints that are not ints, and floats that are not finite or in range
    ("epochs", 1.5), ("batch_size", 64.0), ("probes", True), ("seed", -1),
    ("cg_max_iters", 10.5), ("m", 16.5), ("lr_step_epochs", 1.5),
    ("learning_rate", float("inf")), ("cg_tol", float("nan")),
    ("lr_step_factor", -1.0), ("noise_init", float("nan")),
    ("outputscale_init", 0.0), ("temperature_init", -1.0),
    ("lengthscale_init", LENGTHSCALE_MAX),
    # at the open floors of the transforms the inits feed
    ("noise_init", 1e-4), ("outputscale_init", 1e-8), ("temperature_init", 1e-6),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(InvalidConfig, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_train_config_cannot_be_changed_past_its_checks():
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.objective_mode = "exakt"
    with pytest.raises(InvalidConfig, match="^objective_mode must be"):
        dataclasses.replace(cfg, objective_mode="exakt")


def test_train_config_accepts_its_boundary_values():
    for mode in OBJECTIVE_MODES:
        for dtype in DTYPES:
            TrainConfig(objective_mode=mode, dtype=dtype)
    TrainConfig(batch_size=1, m=1, probes=1, cg_max_iters=1, epochs=0,
                lr_step_epochs=0, learning_rate=0.0)
