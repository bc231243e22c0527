"""Minibatch hyperparameter training.

The loop is Algorithm-style: k-means initializes the interpolation points,
then Adam takes ascent steps on the stabilized objective, one shuffled pass
over the data per epoch (the last short batch is kept and normalized by its
own size). Everything is driven by (seed, config, data), so two runs with the
same inputs produce bitwise-identical parameters when they also share the
BLAS thread count, the numpy, scipy and OpenBLAS builds, and the CPU kernel
OpenBLAS picks; a change in any of these changes the rounding of the BLAS
reductions and with it the trajectory.

Optimization happens on unconstrained variables: noise, output scale and
temperatures through softplus (plus a small floor), lengthscales through a
sigmoid scaled onto their allowed interval, interpolation points raw. The
``PARAMS`` table holds each transform and each group's largest Adam rate,
and each model's row of
``posterior.MODELS`` lists the names it optimizes, its batch rule and its
step objective: one loop trains every model.
"""

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import transforms
from .data import Dataset, integer, points, real, stream
from .errors import InvalidConfig, NonFiniteResult, TooFewPoints
from .interp import Hyperparams
from .kernel import LENGTHSCALE_MAX, LENGTHSCALE_MIN, MaternParams, augmented
from .posterior import DEFAULT_BLOCK_ROWS, model_row

NOISE_FLOOR = 1e-4
SCALE_FLOOR = 1e-8
TEMP_FLOOR = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
KMEANS_MAX_ITERS = 100  # Lloyd steps, unless the assignments stop changing first

# fixed stream tags so each RNG consumer is independent of the others
_KMEANS, _SHUFFLE, _PROBES = 11, 13, 17

# Lloyd's distance block holds about 1 MiB of float64, which stays in a 2 MiB
# L2 cache, in 128 to DEFAULT_BLOCK_ROWS rows: at m=512 (256 rows) a full
# assignment step over 10240 points in 26 dimensions took 16.0 ms against
# 19.5 ms in 1024-row blocks of 4 MiB, at one BLAS thread (medians of 6)
_KMEANS_BLOCK_VALUES = 2**17
_KMEANS_MIN_ROWS = 128


OBJECTIVE_MODES = ("auto", "exact", "pseudoloss")
DTYPES = ("float64", "float32")

def _setting(default, help="", flag=None, **allowed):
    """A TrainConfig field, declared once: its allowed values (minimum=<int>,
    interval=(low, high, ends) as ``data.real`` reads them, or
    choices=<tuple>), its ``softki train`` flag where that is not the field
    name with dashes, and the flag's help."""
    return field(default=default, metadata={"help": help, "flag": flag, **allowed})


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; frozen, so every value passed the checks in __post_init__."""

    epochs: int = _setting(50, minimum=0)
    batch_size: int = _setting(1024, minimum=1)
    learning_rate: float = _setting(0.01, "Adam step size", flag="lr",
                                    interval=(0.0, math.inf, "[)"))  # 0 takes no steps
    probes: int = _setting(10, "Hutchinson probe count", minimum=1)
    seed: int = _setting(0, "seed of the split, the ricker data and training", minimum=0)
    objective_mode: str = _setting("auto", "objective mode", flag="objective",
                                   choices=OBJECTIVE_MODES)
    cg_tol: float = _setting(1e-6, interval=(0.0, math.inf, "()"))
    cg_max_iters: int = _setting(500, minimum=1)
    m: int = _setting(512, "number of interpolation / inducing points", minimum=1)
    # the inits must lie above the floors of the transforms they feed
    noise_init: float = _setting(0.5, interval=(NOISE_FLOOR, math.inf, "()"))
    lengthscale_init: float = _setting(
        1.0, interval=(LENGTHSCALE_MIN, LENGTHSCALE_MAX, "()"))
    outputscale_init: float = _setting(1.0, interval=(SCALE_FLOOR, math.inf, "()"))
    temperature_init: float = _setting(1.0, interval=(TEMP_FLOOR, math.inf, "()"))
    lr_step_epochs: int = _setting(
        0, "multiply the step size by --lr-step-factor this often (0 = off)", minimum=0)
    lr_step_factor: float = _setting(0.5, interval=(0.0, math.inf, "()"))
    dtype: str = _setting("float64", "objective dtype (softki only)", choices=DTYPES)

    def __post_init__(self):
        for f in fields(self):
            name, value, spec = f.name, getattr(self, f.name), f.metadata
            if "choices" in spec:
                if value not in spec["choices"]:
                    raise InvalidConfig(f"{name} must be one of "
                                        f"{', '.join(spec['choices'])}, got {value!r}")
            elif "minimum" in spec:
                integer(value, name, spec["minimum"])
            else:
                real(value, name, *spec["interval"])


@dataclass
class TrainTrace:
    # mean per-point value of the epoch's batches that did not fail; nan when all did
    epoch_objectives: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    mode_counts: dict = field(default_factory=lambda: {"exact": 0, "pseudoloss": 0})
    failed_batches: int = 0


class Adam:
    """Ascent-form Adam on a dict of arrays keyed by ``PARAMS`` names; each
    step takes its rate, which a group's ``max_rate`` caps."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict, lr: float):
        self.t += 1
        for key, g in grads.items():
            cap = PARAMS[key].max_rate
            rate = lr if cap is None else min(lr, cap)
            g = np.asarray(g, dtype=float)
            self.m[key] = ADAM_BETA1 * self.m[key] + (1 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[key] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[key] / (1 - ADAM_BETA2**self.t)
            self.params[key] = self.params[key] + rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


def kmeans(x: np.ndarray, m: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    x is read by ``data.points`` (a 1-D x is one row), m must be an
    integer >= 1 and seed one >= 0. Raises NonFiniteResult, before any
    product, when the squared distances or their sum over the rows can
    overflow float64: n (2 max |x|)^2 bounds that sum.

    Every squared distance is one product of ``kernel.augmented`` rows,
    [x, |x|^2, 1] [-2c, 1, |c|^2]^T. x's side is built once, as the float64
    (d + 2, n) array that holds x^T, |x|^2 and ones, whatever x's dtype and
    layout, so the centroids depend on neither. The seeding takes one gemv
    per centroid. Its rounding only decides which rows of x become
    centroids, and the rows it puts within a rounding margin of the new
    centroid get the exact sum of their squared differences instead: a
    row equal to a centroid is at exactly 0 and is never drawn again (a
    point drawn twice makes K_zz singular).

    Runs to an assignment fixpoint or KMEANS_MAX_ITERS Lloyd steps; empty
    clusters are reseeded to the point currently farthest from its nearest
    centroid. A Lloyd step is one GEMM per row block, and a centroid is its
    cluster's rows summed in row order over their count.

    The first Lloyd step evaluates every distance. A later step evaluates
    only what can change: the distances from each row to the centroids
    that moved, and whole rows for the rows whose own centroid moved or
    that a moved centroid may now be nearest to. A decision made on these
    partial products stands only when it holds with a rounding margin to
    spare; a row block holding a row too close to call is evaluated again
    as the full step would, so the assignments, and with them the
    centroids, are those of full steps. A step is full again after an
    empty cluster is reseeded, and when the partial one would evaluate more
    than half of the n x m distances; a partial step that empties a cluster
    is evaluated again in full before the reseed, which reads the nearest
    distances.
    """
    m = integer(m, "m", 1)
    x = points(x, "x")
    n, d = x.shape
    if n < m:
        raise TooFewPoints(f"need at least {m} points, got {n}")
    xa = augmented(x, np.ones(d), True)
    if not 4.0 * n * float(xa[d].max()) < math.inf:  # a python float overflows to inf
        raise NonFiniteResult("k-means' squared distances can overflow float64; x has "
                              f"coordinates beyond about 1e154 / sqrt(4 n), n = {n}")
    return _lloyd(xa, _kmeans_pp(xa, m, stream(seed, _KMEANS)))


def _kmeans_pp(xa: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on x's augmented (d + 2, n) array xa."""
    d, n = xa.shape[0] - 2, xa.shape[1]
    xt, xx = xa[:d], xa[d]
    d2, row, scratch = np.empty(n), np.empty(n), np.empty(n)
    c = np.ones(d + 2)  # a centroid's augmented row [-2c, 1, |c|^2]
    rmax = math.sqrt(xx.max())

    def squared_distances(i, out):
        """From row i to every row: one gemv, then the exact sums of the rows
        within Lloyd's margin, which bounds the gemv's rounding more than
        four times over (see ``_lloyd``), so every row equal to row i among them."""
        c[:d], c[d + 1] = -2.0 * xt[:, i], xx[i]
        np.dot(c, xa, out=out)
        near = np.flatnonzero(out <= (d + 4) * 2.0**-49 * (rmax + math.sqrt(xx[i])) ** 2)
        out[near] = np.sum((xt[:, near] - xt[:, i, None]) ** 2, axis=0)
        return out

    picks = [rng.integers(n)]
    squared_distances(picks[0], d2)
    for _ in range(1, m):
        total = d2.sum()
        if total <= 0:
            picks.append(rng.integers(n))
        else:
            # what rng.choice(n, p=d2 / total) runs after its checks: the same
            # index from the same stream
            cdf = np.cumsum(np.divide(d2, total, out=scratch), out=scratch)
            cdf /= cdf[-1]
            picks.append(cdf.searchsorted(rng.random(), side="right"))
        np.minimum(d2, squared_distances(picks[-1], row), out=d2)
    return xt[:, picks].T.copy()


def _lloyd(xa: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Lloyd's iterations on x's augmented (d + 2, n) array xa from the
    given centroids, updated in place."""
    d, n = xa.shape[0] - 2, xa.shape[1]
    m = len(centroids)
    xt, xx = xa[:d], xa[d]
    # a full step evaluates the products of x's augmented rows with the
    # centroids' [-2c, 1, |c|^2] (ca), one row block at a time, as one GEMM
    # into one buffer of block x m values. BLAS rounds an entry of a short
    # product (one row goes to gemv) differently from a tall one, so every
    # block has the same rows, the last one starting at n - rows. The buffer
    # holds d + 2 values more, so that a partial step's gathered rows always
    # fit beside their distances
    block_rows = min(n, DEFAULT_BLOCK_ROWS, max(_KMEANS_MIN_ROWS, _KMEANS_BLOCK_VALUES // m))
    n_blocks = -(-n // block_rows)
    buf = np.empty(block_rows * m + d + 2)
    nearest = np.empty(n)
    assign = np.full(n, -1, dtype=np.intp)  # argmin never yields -1
    new_assign = np.empty(n, dtype=np.intp)
    previous = np.empty_like(centroids)
    # BLAS rounds an entry of a product differently with the product's
    # shape. An entry sums d + 2 terms whose magnitudes add up to at most
    # (|x| + |c|)^2, so two evaluations of one distance that sum in
    # different orders differ by at most (d + 2) 2^-52 (|x| + |c|)^2. A
    # partial step's decision compares two such values, so it needs a gap
    # of twice that; it stands only on a gap above margin (|x| + max |c|)^2,
    # at least four times more
    margin = (d + 4) * 2.0**-49

    def full_block(b):
        """Evaluate the block_rows rows from b * block_rows, or the last
        block_rows rows of x where those would run past n."""
        start = min(b * block_rows, n - block_rows)
        rows = slice(start, start + block_rows)
        block = buf[: block_rows * m].reshape(block_rows, m)
        np.matmul(xa[:, rows].T, ca, out=block)
        np.argmin(block, axis=1, out=new_assign[rows])
        nearest[rows] = block[np.arange(block_rows), new_assign[rows]]

    def distances(ids, c):
        """Distances from the rows ids to the augmented centroids c, in buf;
        the columns of xa are gathered behind them."""
        size = len(ids) * c.shape[1]
        xb = buf[size: size + len(ids) * (d + 2)].reshape(d + 2, len(ids))
        np.take(xa, ids, axis=1, out=xb, mode="clip")  # "raise" would buffer
        return np.matmul(xb.T, c, out=buf[:size].reshape(len(ids), c.shape[1]))

    def chunks(ids, width):
        step = min(block_rows, buf.size // (width + d + 2))
        return (ids[i: i + step] for i in range(0, len(ids), step))

    def partial_step(moved, own):
        """Assign from the centroids that moved (own: the rows whose centroid
        moved); returns the rows that need a full evaluation of their block."""
        cmax = math.sqrt(ca[d + 1].max())
        c_moved = ca[:, moved]
        new_assign[:] = assign
        recheck = [np.flatnonzero(own)]
        for ids in chunks(np.flatnonzero(~own), c_moved.shape[1]):
            tol = margin * (np.sqrt(xx[ids]) + cmax) ** 2
            best = distances(ids, c_moved).min(axis=1)
            recheck.append(ids[best <= nearest[ids] + tol])
        unsure = [np.empty(0, dtype=np.intp)]
        for ids in chunks(np.concatenate(recheck), m):
            tol = margin * (np.sqrt(xx[ids]) + cmax) ** 2
            out = distances(ids, ca)
            at = np.arange(len(ids))
            first = np.argmin(out, axis=1)
            new_assign[ids] = first
            nearest[ids] = out[at, first]
            out[at, first] = np.inf
            unsure.append(ids[out.min(axis=1) <= nearest[ids] + tol])
        return np.concatenate(unsure)

    full = True
    for _ in range(KMEANS_MAX_ITERS):
        ca = augmented(centroids, 1.0, False)
        if not full:
            moved = np.any(centroids != previous, axis=1)
            if not moved.any():  # a full step would repeat the last assignment
                break
            own = moved[assign]
            n_own = np.count_nonzero(own)
            full = 2 * (n_own * m + (n - n_own) * np.count_nonzero(moved)) > n * m
        blocks = (range(n_blocks) if full
                  else np.unique(partial_step(moved, own) // block_rows))
        for b in blocks:
            full_block(b)
        if np.array_equal(new_assign, assign):
            break
        assign, new_assign = new_assign, assign
        # bincount adds each column's weights in row order, like a loop over rows
        counts = np.bincount(assign, minlength=m)
        filled = counts > 0
        if not full and not filled.all():
            # the reseeds read nearest as a full step leaves it
            for b in range(n_blocks):
                full_block(b)
        previous[:] = centroids
        for k, col in enumerate(xt):
            sums = np.bincount(assign, weights=col, minlength=m)
            centroids[filled, k] = sums[filled] / counts[filled]
        for j in np.flatnonzero(~filled):
            far = int(np.argmax(nearest))
            centroids[j] = xt[:, far]
            nearest[far] = 0.0
        full = not filled.all()  # a reseed zeroed an entry of nearest
    return centroids


# --------------------------------------------------------------------------
# raw <-> constrained parameter plumbing


class Param(NamedTuple):
    """One row of ``PARAMS``: a parameter group's transform and its rate."""

    to_constrained: Callable
    to_raw: Callable
    deriv: Callable                # d constrained / d raw
    max_rate: float | None = None  # Adam moves the group at min(lr, max_rate)


def _positive(floor: float) -> Param:
    return Param(
        lambda u: floor + transforms.softplus(u),
        lambda v: transforms.softplus_inv(v - floor),
        transforms.softplus_deriv,
    )


# Adam moves each raw coordinate by about its rate per step, whatever the
# gradient's scale (Kingma & Ba, 2015, sec. 2). The points are raw
# coordinates of the training inputs, so their cap is in the units training
# sees: 0.1 standard deviations of standardized inputs. At the ricker
# protocol's lr of 0.5 each point could move 0.5 a step across a domain
# about 3.5 wide with points about 0.3 apart; with the cap, all 90 sub-seeds
# of the ricker-m128 config reach test RMSE <= 1e-2, against 84 without
PARAMS = {
    "noise": _positive(NOISE_FLOOR),
    "lengthscales": Param(
        lambda u: transforms.bounded_sigmoid(u, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
        lambda v: transforms.bounded_sigmoid_inv(v, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
        lambda u: transforms.bounded_sigmoid_deriv(u, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
    ),
    "outputscale": _positive(SCALE_FLOOR),
    "z": Param(lambda u: u, lambda v: np.array(v, dtype=float), lambda u: 1.0, max_rate=0.1),
    "temperatures": _positive(TEMP_FLOOR),
}


def raw_init(names, cfg: TrainConfig, data: Dataset) -> dict:
    """Unconstrained starting values of the named parameters; points by k-means."""
    d = data.x.shape[1]
    start = {
        "noise": cfg.noise_init,
        "lengthscales": np.full(d, cfg.lengthscale_init),
        "outputscale": cfg.outputscale_init,
        "temperatures": np.full(d, cfg.temperature_init),
    }
    if "z" in names:
        start["z"] = kmeans(data.x, cfg.m, seed=cfg.seed)
    return {name: np.atleast_1d(PARAMS[name].to_raw(start[name])) for name in names}


def from_raw(raw: dict) -> Hyperparams:
    """Constrained hyperparameters; a model without z or temperatures gets them empty."""
    c = {name: PARAMS[name].to_constrained(u) for name, u in raw.items()}
    return Hyperparams(
        noise=float(c["noise"][0]),
        kernel=MaternParams(lengthscales=c["lengthscales"],
                            outputscale=float(c["outputscale"][0])),
        z=c.get("z", np.empty((0, c["lengthscales"].shape[0]))),
        temperatures=c.get("temperatures", ()),
    )


def chain(grads: dict, raw: dict) -> dict:
    """Map constrained-space gradients onto the unconstrained variables."""
    return {name: grads[name] * PARAMS[name].deriv(u) for name, u in raw.items()}


# --------------------------------------------------------------------------
# training loops


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _train(data: Dataset, cfg: TrainConfig, model: str):
    """Adam over the model's parameters on the step objective of its row."""
    row = model_row(model)
    x, y = data.x, data.y
    n = y.shape[0]
    if n == 0:
        raise TooFewPoints("need at least 1 point, got 0")
    objective = row.objective(cfg, n)
    batch_size = n if row.full_batch else cfg.batch_size
    adam = Adam(raw_init(row.params, cfg, data))
    trace = TrainTrace()
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.learning_rate
        if cfg.lr_step_epochs > 0:
            lr *= cfg.lr_step_factor ** (epoch // cfg.lr_step_epochs)
        batch_values = []
        for idx in _epoch_batches(n, batch_size, stream(cfg.seed, _SHUFFLE, epoch)):
            hp = from_raw(adam.params)
            report = objective(x[idx], y[idx], hp, stream(cfg.seed, _PROBES, step))
            nb = idx.shape[0]
            trace.mode_counts[report.mode_used] += 1
            if report.is_finite():
                batch_values.append(report.value / nb)
                grads = chain(report.gradients, adam.params)
                adam.step({k: np.asarray(v) / nb for k, v in grads.items()}, lr)
            else:
                trace.failed_batches += 1
            step += 1
            # the next step's peak holds neither this step's report nor its gradients
            report = grads = None
        trace.epoch_objectives.append(
            float(np.mean(batch_values)) if batch_values else math.nan)
        trace.epoch_seconds.append(time.perf_counter() - t0)
    return from_raw(adam.params), trace


def train(data: Dataset, cfg: TrainConfig, model: str = "softki"):
    """Train the hyperparameters of model, a key of ``posterior.MODELS``;
    returns (Hyperparams, TrainTrace).

    softki takes minibatches of cfg.batch_size; SGPR and the exact GP (dense,
    small n only) take every point at every step, and train in float64
    whatever cfg.dtype says.
    """
    return _train(data, cfg, model)


def train_sgpr(data: Dataset, cfg: TrainConfig):
    """``train(data, cfg, model="sgpr")``, under the name the benchmark calls."""
    return _train(data, cfg, "sgpr")
