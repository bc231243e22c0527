"""Optimizer, k-means seeding, batching, and the training loops."""

import ctypes
import dataclasses
import glob
import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import softki.objective
import softki.posterior
import softki.trainer
from conftest import refuse_objective_factors
from softki import TrainConfig, fit_qr, predict_mean, ricker_dataset, train, train_sgpr
from softki.data import Dataset, stream
from softki.trainer import DTYPES, OBJECTIVE_MODES
from softki.errors import (DimensionMismatch, InvalidConfig, NonFiniteInput, NonFiniteResult,
                           TooFewPoints)
from softki.posterior import DEFAULT_BLOCK_ROWS, MODELS
from softki.interp import Hyperparams
from softki.kernel import LENGTHSCALE_MAX, LENGTHSCALE_MIN, augmented, matern32
from softki.trainer import (
    NOISE_FLOOR,
    PARAMS,
    SCALE_FLOOR,
    TEMP_FLOOR,
    Adam,
    _KMEANS,
    _SHUFFLE,
    _epoch_batches,
    _kmeans_pp,
    _lloyd,
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
    """k-means++ seeding, then lloyd_loop_reference's steps."""
    n = x.shape[0]
    rng = stream(seed, _KMEANS)
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
    return lloyd_loop_reference(x, centroids, max_iters)


def lloyd_loop_reference(x, centroids, max_iters=100):
    """Lloyd's iterations from a copy of the given centroids; also returns,
    per step, the centroids that moved since the step before (None for the
    first), the rows whose own centroid moved, and the reseeds after it.

    A centroid is its points' sum in row order over their count: a running
    sum, because numpy's mean of a single column (d = 1) sums pairwise."""
    n, m = x.shape[0], len(centroids)
    centroids = np.array(centroids, dtype=float)
    assign, previous, steps = None, None, []
    for _ in range(max_iters):
        d2_all = (np.sum(x * x, axis=1)[:, None] - 2.0 * x @ centroids.T
                  + np.sum(centroids * centroids, axis=1)[None, :])
        new_assign = np.argmin(d2_all, axis=1)
        step = {"moved": None, "own_moved": None, "reseeds": 0}
        steps.append(step)
        if previous is not None:
            step["moved"] = np.any(centroids != previous, axis=1)
            step["own_moved"] = step["moved"][assign]
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        nearest = d2_all[np.arange(n), assign]
        previous = centroids.copy()
        for j in range(m):
            mask = assign == j
            if mask.any():
                centroids[j] = np.cumsum(x[mask], axis=0)[-1] / np.count_nonzero(mask)
            else:
                far = int(np.argmax(nearest))
                centroids[j] = x[far]
                nearest[far] = 0.0
                step["reseeds"] += 1
    return centroids, steps


def partial_steps(steps, m):
    """Indices of the steps kmeans evaluates in part: after a step that
    reseeded nothing, with a centroid moved and at most half of the n x m
    distances to evaluate."""
    partial = []
    for i in range(1, len(steps)):
        moved, own = steps[i]["moved"], steps[i]["own_moved"]
        if steps[i - 1]["reseeds"] or not moved.any():
            continue
        n, k, rows = len(own), np.count_nonzero(moved), np.count_nonzero(own)
        if 2 * (rows * m + (n - rows) * k) <= n * m:
            partial.append(i)
    return partial


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,m,d", [
    (3000, 128, 2), (600, 40, 5), (2048, 128, 26),
    # d on both sides of 8, above which the seeding's sum in sequence and the
    # reference's pairwise (n, d) row sum round differently, up to d = 300
    (1100, 24, 1), (700, 24, 7), (2048, 32, 8), (1500, 32, 9), (1025, 32, 16),
    (1300, 16, 129), (900, 16, 300),
    # m=512 blocks hold 256 rows: nine, the last one ending at n
    (2 * DEFAULT_BLOCK_ROWS + 5, 512, 26),
])
def test_kmeans_matches_the_loop_update_bitwise(n, m, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    assert np.array_equal(kmeans(x, m, seed=seed),
                          kmeans_loop_reference(x, m, seed=seed)[0])


# 100-row distance blocks: n below one block, and eleven, the last one ending at n
@pytest.mark.parametrize("n", [61, 1025])
@pytest.mark.parametrize("layout", ["float64", "float32", "fortran"])
def test_kmeans_matches_the_loop_in_row_blocks(n, layout, monkeypatch):
    monkeypatch.setattr(softki.trainer, "DEFAULT_BLOCK_ROWS", 100)
    monkeypatch.setattr(softki.trainer, "_KMEANS_BLOCK_VALUES", 0)
    x = np.random.default_rng(n).standard_normal((n, 11))
    if layout == "float32":
        x = x.astype(np.float32)
    elif layout == "fortran":
        x = np.asfortranarray(x)
    # kmeans works on a C-ordered float64 copy, so the reference sees that copy
    expected = kmeans_loop_reference(np.ascontiguousarray(x, dtype=float), 48, seed=4)[0]
    assert np.array_equal(kmeans(x, 48, seed=4), expected)


def lloyd(x, start):
    """kmeans' Lloyd iterations on x's augmented rows from a copy of start."""
    return _lloyd(augmented(x, np.ones(x.shape[1]), True), start.copy())


def test_kmeans_breaks_a_near_tie_in_the_last_row_like_the_full_product():
    # at m=512 the blocks hold 256 rows, so n = 1025 leaves one row past the
    # fourth block, and the last block is the last 256 rows. That row sits
    # midway between the closest pair of start centroids, 393 and 416, where
    # a one-row product (gemv) and the full product chose different ones of
    # the two (found by a search over seeds at one OpenBLAS thread). A short
    # last block, one row here, still fails this test at 256-row blocks
    x = np.random.default_rng(8).standard_normal((1025, 2))
    start = x[:512].copy()
    x[-1] = 0.5 * (start[393] + start[416])
    expected, _ = lloyd_loop_reference(x, start)
    assert np.array_equal(lloyd(x, start), expected)


@pytest.mark.parametrize("seed", [1, 5, 15])
def test_kmeans_reseeds_empty_clusters_like_the_loop(seed):
    # 10 distinct points for 12 centers: clusters empty out while some points
    # still sit away from every centroid, so the reseed order matters
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.repeat(rng.standard_normal((4, 2)), 10, axis=0),
                        rng.standard_normal((6, 2))])
    expected, steps = kmeans_loop_reference(x, 12, seed=seed)
    assert sum(step["reseeds"] for step in steps) > 0
    assert np.array_equal(kmeans(x, 12, seed=seed), expected)


def on_a_line(points, starts):
    """Points and start centroids on the first axis, with ten far clusters
    of two points each around start centroids that never move, so that
    kmeans evaluates Lloyd's later steps in part."""
    far = [100.0 * (i + 1) for i in range(10)]
    points = [*points, *(c + s for c in far for s in (-1.0, 1.0))]
    starts = [*starts, *far]
    return (np.column_stack([points, np.zeros(len(points))]),
            np.column_stack([starts, np.zeros(len(starts))]))


@pytest.mark.parametrize("moved_first", [True, False], ids=["lower", "higher"])
def test_kmeans_partial_step_breaks_ties_with_a_moved_centroid_like_argmin(moved_first):
    # step 1 keeps the centroid at 0 (members -2 and 2) and moves the one at
    # 5 to 4 (members 3 and 5); step 2, a partial one, finds the point at 2
    # 2 away from both, and argmin takes the lower index
    starts = [5.0, 0.0] if moved_first else [0.0, 5.0]
    x, start = on_a_line([-2.0, 2.0, 3.0, 5.0], starts)
    expected, steps = lloyd_loop_reference(x, start)
    assert 1 in partial_steps(steps, len(start))
    moved = steps[1]["moved"]
    assert moved[starts.index(5.0)] and not moved[starts.index(0.0)]
    assert np.array_equal(lloyd(x, start), expected)


def test_kmeans_reseeds_after_a_partial_step_and_goes_on_in_part():
    # step 1 keeps the centroid at 0 (members -1 and 1) and moves those at
    # -3 and 3 to -1.875 and 1.875; in step 2, a partial one, -1 and 1 leave
    # for them, so the cluster at 0 empties and is reseeded
    x, start = on_a_line([-1.0, 1.0, -1.75, -2.0, 1.75, 2.0], [0.0, -3.0, 3.0])
    expected, steps = lloyd_loop_reference(x, start)
    partial = partial_steps(steps, len(start))
    assert 1 in partial and steps[1]["reseeds"] == 1
    assert max(partial) > 2
    assert np.array_equal(lloyd(x, start), expected)


def test_kmeans_partial_steps_evaluate_fewer_distances(monkeypatch):
    # 0.43 of the distances that full steps would evaluate, measured
    n, m = 4096, 128
    x = np.random.default_rng(0).standard_normal((n, 2))
    expected, steps = kmeans_loop_reference(x, m, seed=0)
    evaluated = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        out = matmul(*args, **kwargs)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(np, "matmul", counting)
    assert np.array_equal(kmeans(x, m, seed=0), expected)
    assert sum(evaluated) <= 0.5 * len(steps) * n * m


def _kmeans_peak(n, m, d=26):
    """kmeans's traced peak in bytes."""
    x = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        kmeans(x, m, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_builds_its_distances_in_one_buffer():
    # 0.20 n x m float64 arrays measured (a 512-row block and the (n, d + 2)
    # augmented rows; 0.30 when x^T and 2x were held, 0.48 with 2048-row
    # blocks); 1.15 with one n x m distance buffer, 3.04 when each iteration
    # built three n x m temporaries
    n, m = 8192, 256
    assert _kmeans_peak(n, m) <= 0.5 * n * m * 8


def test_kmeans_peak_grows_no_faster_than_its_distance_buffer():
    # less the per-row working set, the augmented rows [x, |x|^2, 1] (26 + 2
    # values per row) and about four more 8-byte values per row (the
    # seeding's distances and its two scratch rows, then Lloyd's nearest
    # distances and two assignments; 31.9 measured in all, 57.0 when x^T and
    # 2x were held), the peak is the block x m distance buffer for any n; at
    # m=512 a block holds 256 rows, so DEFAULT_BLOCK_ROWS rows are four blocks
    m = 512
    assert softki.trainer._KMEANS_BLOCK_VALUES // m == DEFAULT_BLOCK_ROWS // 4

    def peak_less_rows(n):
        return _kmeans_peak(n, m) - (26 + 2 + 4) * n * 8

    small = peak_less_rows(DEFAULT_BLOCK_ROWS)
    large = peak_less_rows(8 * DEFAULT_BLOCK_ROWS)
    assert abs(large - small) <= 0.1 * small, (small, large)


@pytest.mark.parametrize("x,m,error", [
    (np.zeros((5, 2)), 0, InvalidConfig), (np.zeros((5, 2)), -1, InvalidConfig),
    (np.zeros((5, 2)), 2.0, InvalidConfig), (np.zeros((5, 2)), True, InvalidConfig),
    (np.zeros(5), 2, TooFewPoints), (np.zeros((5, 2, 1)), 1, DimensionMismatch),
], ids=["m=0", "m=-1", "m=2.0", "m=True", "1-D", "3-D"])
def test_kmeans_rejects_a_bad_m_or_shape(x, m, error):
    # a 1-D x is one row, too few for two centroids
    with pytest.raises(error, match="m must|need at least 2 points|x must"):
        kmeans(x, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points_naming_the_row(bad):
    x = np.random.default_rng(0).standard_normal((40, 3))
    x[17, 2] = bad
    x[30, 0] = bad
    with pytest.raises(NonFiniteInput, match=r"^x row 17, column 2 \(0-based\)"):
        kmeans(x, 4)


def test_kmeans_rejects_distances_that_overflow():
    x = np.random.default_rng(0).standard_normal((40, 3))
    x[5, 1] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteResult, match="overflow"):
        kmeans(x, 4)


def repeated_rows(k, d, seed, offset, spread):
    """k distinct rows offset + spread N(0, 1), each three times, shuffled."""
    rng = np.random.default_rng(seed)
    rows = offset + spread * rng.standard_normal((k, d))
    return rows, rng.permutation(np.repeat(rows, 3, axis=0))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [2, 26])
def test_kmeans_on_repeated_rows_returns_each_row_once(d, seed):
    # k distinct rows three times each, for m = k centroids: the centroids
    # are the k rows, each to the rounding of its three copies' mean
    rows, x = repeated_rows(40, d, seed, 0.0, 3.0)
    centers = kmeans(x, 40, seed=seed)
    assert len(np.unique(centers, axis=0)) == 40
    assert np.allclose(np.sort(centers, axis=0), np.sort(rows, axis=0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [2, 26])
def test_kmeans_seeding_never_draws_a_repeated_row(d, seed):
    # far from the origin the augmented product's rounding, about
    # (d + 2) eps |x|^2, is as large as the squared distances between the
    # distinct rows, so it can leave a row equal to a drawn centroid as
    # likely a draw as they are (9 of these 12 cases drew one when the
    # product's values were only clamped at 0); the seeding puts such a row
    # at exactly 0, so it is never drawn again (a repeated point makes K_zz
    # singular)
    _, x = repeated_rows(40, d, seed, 1e4, 1e-3)
    seeds = _kmeans_pp(augmented(x, np.ones(d), True), 40, stream(seed, _KMEANS))
    assert len(np.unique(seeds, axis=0)) == 40


def test_kmeans_deterministic_and_handles_duplicates():
    x, _ = blob_dataset()
    assert np.array_equal(kmeans(x, 5, seed=3), kmeans(x, 5, seed=3))
    same = kmeans(np.ones((6, 2)), 2, seed=0)
    assert np.all(np.isfinite(same)) and np.allclose(same, 1.0)


# ---------------------------------------------------------------------- adam


def test_adam_first_step_is_learning_rate_sized_ascent():
    params = {"lengthscales": np.zeros(3)}
    grads = {"lengthscales": np.array([1.0, -2.0, 1e-3])}
    opt = Adam(params)
    opt.step(grads, 0.1)
    step = params["lengthscales"]
    assert np.all(np.sign(step) == np.sign(grads["lengthscales"]))
    assert np.all(np.abs(step) <= 0.1 + 1e-15)
    assert np.all(np.abs(step) >= 0.09)


def test_adam_lr_override_and_counter():
    params = {"noise": np.zeros(1)}
    opt = Adam(params)
    opt.step({"noise": np.array([1.0])}, 0.25)
    assert opt.t == 1
    assert params["noise"][0] == pytest.approx(0.25, rel=1e-6)


# ------------------------------------------------------------------ batching


def test_epoch_batches_partition_the_data():
    rng = stream(0, _SHUFFLE, 0)
    batches = list(_epoch_batches(10, 4, rng))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_epoch_batch_count_matches_ceiling_rule():
    rng = stream(0, _SHUFFLE, 0)
    assert len(list(_epoch_batches(2048, 1024, rng))) == 2
    rng = stream(0, _SHUFFLE, 1)
    assert len(list(_epoch_batches(2049, 1024, rng))) == 3


@pytest.mark.parametrize("pkg, symbol", [
    (np, "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_get_num_threads"),
])
def test_bundled_blas_runs_at_the_environment_thread_count(pkg, symbol):
    # conftest sets OPENBLAS_NUM_THREADS to 1 before numpy and scipy load their
    # OpenBLAS; OpenBLAS caps the count at the usable cores
    site = Path(pkg.__file__).resolve().parent.parent
    libs = sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "libscipy_openblas*.so")))
    if not libs:
        pytest.skip(f"{pkg.__name__} bundles no OpenBLAS")
    get_threads = getattr(ctypes.CDLL(libs[0]), symbol)
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    cores = len(os.sched_getaffinity(0))
    assert get_threads() == min(int(os.environ["OPENBLAS_NUM_THREADS"]), cores)


# ------------------------------------------------------------------ training


def test_train_trace_shapes_and_constraint_floors():
    data = toy_dataset()
    cfg = TrainConfig(m=8, epochs=2, batch_size=32, learning_rate=0.05, seed=0)
    hp, trace = train(data, cfg)
    assert len(trace.epoch_objectives) == 2
    assert len(trace.epoch_seconds) == 2
    assert sum(trace.mode_counts.values()) == 4  # two batches per epoch
    assert trace.failed_batches == 0
    assert hp.z.shape == (8, 2)  # the trained points follow cfg.m
    assert isinstance(hp, Hyperparams)
    assert hp.noise >= NOISE_FLOOR
    assert hp.kernel.outputscale >= SCALE_FLOOR
    assert np.all(hp.temperatures >= TEMP_FLOOR)
    assert np.all(hp.kernel.lengthscales > LENGTHSCALE_MIN)
    assert np.all(hp.kernel.lengthscales < LENGTHSCALE_MAX)
    assert hp.z.shape == (8, 2)


def run_child(source: str) -> str:
    """stdout of source run in a fresh interpreter that imports this softki."""
    src = Path(softki.trainer.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(source)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trim threshold")
def test_softki_training_keeps_its_heap_after_kmeans():
    # glibc sets its trim threshold to twice the largest block it has
    # unmapped, and k-means's distance block is now 1 MiB; the steps write
    # into one workspace, so none of them gives a large block back for the
    # next to fault in again. A fresh interpreter, so no earlier test has
    # shaped the heap: 1.5k minor faults measured for this train. Steps that
    # allocated their arrays afresh took 31.9k after this block and 2.3k
    # after a 4 MiB one
    faults = run_child("""
        import resource, warnings
        from softki import TrainConfig, ricker_dataset, train
        data, _ = ricker_dataset(radius=2.5, seed=0)
        config = TrainConfig(seed=0, m=128, epochs=10, learning_rate=0.5, batch_size=1024)
        warnings.simplefilter("ignore")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(data, config)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert int(faults) < 10_000


def wide_step_faults(dtype: str) -> list:
    """Minor page faults of each of the ten steps of a fresh m = 512 train in dtype."""
    faults = run_child(f"""
        import json, resource, warnings
        import numpy as np
        from softki import Dataset, TrainConfig, train
        from softki.posterior import MODELS

        row = MODELS["softki"]
        per_step = []

        def counted_steps(cfg, n):
            step = row.objective(cfg, n)

            def counted(*args):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                report = step(*args)
                per_step.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                return report
            return counted

        MODELS["softki"] = row._replace(objective=counted_steps)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4096, 26))
        data = Dataset(x, np.sin(x[:, 0]) + 0.1 * rng.standard_normal(4096))
        warnings.simplefilter("ignore")
        train(data, TrainConfig(seed=0, m=512, epochs=2, learning_rate=0.01, batch_size=1000,
                                dtype="{dtype}"))
        print(json.dumps(per_step))
    """)
    per_step = json.loads(faults)
    assert len(per_step) == 10, per_step  # four full batches and a short one per epoch
    return per_step


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trim threshold")
def test_wide_softki_steps_after_the_first_fault_in_no_memory():
    # m = 512, d = 26: a step's arrays are about 30 MB. Allocated afresh on
    # every step they took about 6,400 minor faults a step; in the training
    # run's one workspace, the steps after the first take none. In float32
    # the second step grows glibc's heap once (64-178 faults measured), so
    # the bound holds from the third step on; with its cast of Z allocated
    # per step, 1 MiB at m = 512, later float32 steps took up to 383
    for dtype, settled in (("float64", 1), ("float32", 2)):
        per_step = wide_step_faults(dtype)
        assert max(per_step[settled:]) < 100, (dtype, per_step)


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


def test_forced_exact_on_degenerate_float32_marks_failures(monkeypatch):
    # these far-out clusters failed every K_zz factor while it was built
    # from float32 z; built and factored in float64 they train exact
    data = destabilized_dataset()
    base = dict(m=9, epochs=1, batch_size=120, learning_rate=0.01, seed=0,
                dtype="float32")
    _, trace = train(data, TrainConfig(objective_mode="exact", **base))
    assert trace.mode_counts == {"exact": 2, "pseudoloss": 0}
    assert trace.failed_batches == 0

    # with every factor refused, forced exact marks each batch failed
    refuse_objective_factors(monkeypatch)
    hp, trace = train(data, TrainConfig(objective_mode="exact", **base))
    assert trace.failed_batches == 2
    assert np.isnan(trace.epoch_objectives[0])
    # every step was skipped, so parameters never moved
    assert np.array_equal(hp.z, kmeans(data.x, 9, seed=0))

    hp, trace = train(data, TrainConfig(objective_mode="auto", **base))
    assert trace.failed_batches == 0
    assert np.isfinite(trace.epoch_objectives[0])
    assert trace.mode_counts["pseudoloss"] > 0


def test_batches_both_objectives_fail_are_counted_and_training_finishes(monkeypatch):
    def failing(mode):
        return lambda *args, **kwargs: softki.objective.ObjectiveReport(
            float("nan"), {}, mode)

    monkeypatch.setattr(softki.objective, "exact_mll", failing("exact"))
    monkeypatch.setattr(softki.objective, "hutchinson_pseudoloss", failing("pseudoloss"))
    data = toy_dataset()
    hp, trace = train(data, TrainConfig(m=8, epochs=2, batch_size=16, seed=0))
    steps = 2 * len(data) // 16
    assert trace.failed_batches == steps
    assert trace.mode_counts == {"exact": 0, "pseudoloss": steps}
    assert np.isnan(trace.epoch_objectives).all()
    assert np.array_equal(hp.z, kmeans(data.x, 8, seed=0))  # no step was taken


def test_a_failed_batch_leaves_the_epoch_objective_to_the_others(monkeypatch):
    exact = softki.objective.exact_mll
    values = []  # per-point value of each batch, None for the one that fails

    def first_call_fails(b, hp):
        if not values:
            values.append(None)
            return softki.objective.ObjectiveReport(float("nan"), {}, "exact")
        report = exact(b, hp)
        values.append(report.value / len(b.y))
        return report

    monkeypatch.setattr(softki.objective, "exact_mll", first_call_fails)
    _, trace = train(toy_dataset(), TrainConfig(m=8, epochs=2, batch_size=16, seed=0,
                                                objective_mode="exact"))
    assert trace.failed_batches == 1 and len(values) == 8
    assert trace.epoch_objectives == [np.mean(values[1:4]), np.mean(values[4:])]


def test_float32_ricker_training_stays_exact_and_near_float64():
    # at noise about 0.005 ricker's M is singular to float32 working
    # precision; factored in float32, M failed the pivot test, and the three
    # seeds fell back on 17, 3 and 4 of 100 steps and ended at 3.3x float64's
    # mean test RMSE. Measured with M in float64: no fallback, 1.07x
    rmse = {"float32": [], "float64": []}
    for seed in range(3):
        train_data, test_data = ricker_dataset(n_train=1024, n_test=2000,
                                               radius=2.5, seed=seed)
        for dtype in rmse:
            cfg = TrainConfig(m=128, epochs=100, learning_rate=0.5, batch_size=1024,
                              lr_step_epochs=25, lr_step_factor=0.5, seed=seed,
                              dtype=dtype)
            hp, trace = train(train_data, cfg)
            assert trace.mode_counts["pseudoloss"] == 0, (dtype, seed)
            mean = predict_mean(fit_qr(train_data, hp), test_data.x)
            rmse[dtype].append(np.sqrt(np.mean((mean - test_data.y) ** 2)))
    assert np.mean(rmse["float32"]) <= 1.25 * np.mean(rmse["float64"])


def test_ricker_points_move_at_most_the_rate_cap_and_train_sub_seed_300():
    # the ricker protocol's lr of 0.5 moved each point up to 0.5 standard
    # deviations a step; on sub-seed 300 of the benchmark's ricker-m128
    # config that ended in the high-noise optimum at test RMSE 0.0456.
    # Measured with z at min(lr, 0.1): 0.0068
    train_data, test_data = ricker_dataset(n_train=3000, n_test=2000, radius=2.5, seed=300)
    cfg = TrainConfig(m=128, epochs=100, learning_rate=0.5, batch_size=1024,
                      lr_step_epochs=25, lr_step_factor=0.5, seed=300)
    hp, trace = train(train_data, cfg)
    assert trace.failed_batches == 0
    mean = predict_mean(fit_qr(train_data, hp), test_data.x)
    assert np.sqrt(np.mean((mean - test_data.y) ** 2)) <= 1e-2


def test_adam_caps_the_rate_of_a_group_with_a_max_rate():
    # z's first step is about min(lr, 0.1) per coordinate; the other groups
    # move by about lr
    assert PARAMS["z"].max_rate == 0.1
    assert all(PARAMS[name].max_rate is None for name in PARAMS if name != "z")
    params = {"z": np.zeros((2, 2)), "noise": np.zeros(1)}
    Adam(params).step({"z": np.ones((2, 2)), "noise": np.ones(1)}, 0.5)
    assert np.allclose(params["z"], 0.1, rtol=1e-6)
    assert params["noise"][0] == pytest.approx(0.5, rel=1e-6)
    below = {"z": np.zeros(1)}
    Adam(below).step({"z": np.ones(1)}, 0.05)
    assert below["z"][0] == pytest.approx(0.05, rel=1e-6)


def clustered_dataset(n, seed):
    """The clustered benchmark's layout: eight tight clusters at raw
    coordinates up to 50, passed through unstandardized."""
    centers = np.random.default_rng(2410).uniform(-50.0, 50.0, size=(8, 2))
    rng = np.random.default_rng(seed)
    x = centers[rng.integers(8, size=n)] + 0.05 * rng.standard_normal((n, 2))
    y = np.sin(x[:, 0] / 7.0) + np.cos(x[:, 1] / 9.0) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y)


@pytest.mark.parametrize("seed", range(3))
def test_float32_clustered_training_stays_exact_and_matches_float64(seed):
    # a K_zz built from float32 z was indefinite on these clusters, and every
    # float32 batch fell back to the pseudoloss (20 of 20 here); built and
    # factored in float64 none does. Measured: float32 RMSE within 1e-5 of
    # float64's relative
    train_data, test_data = clustered_dataset(1024, seed), clustered_dataset(4000, seed + 1000)
    rmse = {}
    for dtype in ("float64", "float32"):
        cfg = TrainConfig(m=64, epochs=10, batch_size=512, learning_rate=0.01, seed=seed,
                          dtype=dtype)
        hp, trace = train(train_data, cfg)
        assert trace.mode_counts == {"exact": 20, "pseudoloss": 0}, dtype
        mean = predict_mean(fit_qr(train_data, hp), test_data.x)
        rmse[dtype] = np.sqrt(np.mean((mean - test_data.y) ** 2))
    assert rmse["float32"] <= 1.01 * rmse["float64"]


def test_float32_training_hands_no_subnormal_k_zz_to_the_objectives(monkeypatch):
    # at lengthscale 1.8 the clusters, 100 apart, sit where sqrt(3) r is
    # about 96: their K_zz entries cast to float32 are subnormals. Each batch
    # holds one K_zz, in float64, and every K_zz product the pseudoloss hands
    # to W or S is cast to float32 with its subnormals zeroed
    tiny = np.finfo(np.float32).tiny
    build, cast = softki.objective._batch, softki.objective._cast
    raw_subnormals, handed, products = [], [], []

    def spy_batch(x, y, hp, workspace=None):
        batch = build(x, y, hp, workspace)
        raw = batch.k_zz.astype(np.float32)
        raw_subnormals.append(int(np.sum((raw > 0) & (raw < tiny))))
        handed.append(batch.k_zz)
        return batch

    def spy_cast(a, dtype, out=None):
        products.append(cast(a, dtype, out))
        return products[-1]

    monkeypatch.setattr(softki.objective, "_batch", spy_batch)
    monkeypatch.setattr(softki.objective, "_cast", spy_cast)
    cfg = TrainConfig(m=9, epochs=2, batch_size=120, learning_rate=0.01, seed=0,
                      dtype="float32", lengthscale_init=1.8, objective_mode="pseudoloss")
    _, trace = train(destabilized_dataset(), cfg)
    assert trace.failed_batches == 0
    assert trace.mode_counts["pseudoloss"] == 4
    assert len(handed) == 4  # one batch per call
    assert all(n > 0 for n in raw_subnormals)
    assert all(k.dtype == np.float64 for k in handed)
    assert products and all(p.dtype == np.float32 for p in products)
    assert not any(np.any((p != 0) & (np.abs(p) < tiny)) for p in products)


def test_train_sgpr_runs_full_batch():
    data = toy_dataset(seed=4, n=48)
    cfg = TrainConfig(m=6, epochs=3, batch_size=8, learning_rate=0.05, seed=0)
    hp, trace = train_sgpr(data, cfg)
    assert sum(trace.mode_counts.values()) == 3  # one batch per epoch
    assert isinstance(hp, Hyperparams) and hp.temperatures.shape == (0,)
    assert hp.z.shape == (6, 2)
    assert hp.noise >= NOISE_FLOOR


@pytest.mark.parametrize("trainer", ["train_sgpr", "train_exact"])
def test_dtype_is_softki_only(trainer):
    # the baselines train in float64 whatever TrainConfig.dtype says, and its
    # help says so
    data = toy_dataset(seed=4, n=48)
    model = trainer.removeprefix("train_")
    runs = [train(data, TrainConfig(m=6, epochs=3, learning_rate=0.05, dtype=dtype), model)
            for dtype in ("float64", "float32")]
    (hp64, trace64), (hp32, trace32) = runs
    for a, b in ((hp64.noise, hp32.noise), (hp64.kernel.lengthscales, hp32.kernel.lengthscales),
                 (hp64.kernel.outputscale, hp32.kernel.outputscale), (hp64.z, hp32.z),
                 (trace64.epoch_objectives, trace32.epoch_objectives)):
        assert np.array_equal(a, b)
    help_text = {f.name: f.metadata["help"] for f in dataclasses.fields(TrainConfig)}
    assert "softki only" in help_text["dtype"]


def test_train_sgpr_steps_allocate_no_full_batch_array(monkeypatch):
    # each step writes its (n, m) and (m, m) arrays into the one workspace
    # train_sgpr holds; 0.11 n x m arrays measured above it per step (n and
    # n x d arrays), against 0.43 when every step allocated its m x m arrays
    # and 4.33 when it allocated its n x m ones too
    n, m = 2048, 64
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.5, 2.5, (n, 2))
    data = Dataset(x, np.sin(x[:, 0]) * np.cos(x[:, 1]))
    peaks, workspaces = [], []
    sgpr_elbo = softki.posterior.sgpr_elbo

    def measured(*args, **kwargs):
        workspaces.append(kwargs.get("workspace"))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = sgpr_elbo(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return rep

    monkeypatch.setattr(softki.posterior, "sgpr_elbo", measured)
    tracemalloc.start()
    try:
        train_sgpr(data, TrainConfig(m=m, epochs=4, learning_rate=0.1, seed=0))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert workspaces[0] is not None and all(w is workspaces[0] for w in workspaces)
    assert max(peaks[1:]) < n * m * 8, [p / (n * m * 8) for p in peaks]


@pytest.mark.parametrize("model", list(MODELS))
def test_training_on_no_points_raises_too_few_points(model):
    empty = Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(TooFewPoints, match="got 0$"):
        train(empty, TrainConfig(m=4, epochs=1), model=model)


def test_train_exact_returns_kernel_and_noise():
    data = toy_dataset(seed=6, n=32)
    cfg = TrainConfig(epochs=3, learning_rate=0.05, seed=0)
    hp, trace = train(data, cfg, model="exact")
    assert isinstance(hp, Hyperparams)
    assert hp.z.shape == (0, 2) and hp.temperatures.shape == (0,)
    assert hp.noise >= NOISE_FLOOR
    assert len(trace.epoch_objectives) == 3
    assert trace.epoch_objectives[-1] >= trace.epoch_objectives[0]


# ------------------------------------------------------------ parameter table


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_parameter_table_round_trips(name):
    to_constrained, to_raw = PARAMS[name].to_constrained, PARAMS[name].to_raw
    u = np.linspace(-4.0, 4.0, 9)
    assert np.allclose(to_raw(to_constrained(u)), u, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("names", [row.params for row in MODELS.values()], ids=list(MODELS))
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
        f = PARAMS[name].to_constrained
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
