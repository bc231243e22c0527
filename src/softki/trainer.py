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
``PARAMS`` table holds each transform, and each model lists the names it
optimizes.
"""

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import transforms
from .baselines import exact_gp_mll, sgpr_elbo, sgpr_workspace
from .data import Dataset
from .errors import InvalidConfig, NonFiniteInput, NonFiniteResult, TooFewPoints
from .interp import Hyperparams
from .kernel import LENGTHSCALE_MAX, LENGTHSCALE_MIN, MaternParams
from .objective import stabilized_objective
from .posterior import DEFAULT_BLOCK_ROWS, _row_blocks

NOISE_FLOOR = 1e-4
SCALE_FLOOR = 1e-8
TEMP_FLOOR = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
KMEANS_MAX_ITERS = 100  # Lloyd steps, unless the assignments stop changing first

# fixed stream tags so each RNG consumer is independent of the others
_KMEANS, _SHUFFLE, _PROBES = 11, 13, 17

# Lloyd's distance block holds about 4 MiB of float64 and at least
# DEFAULT_BLOCK_ROWS rows. glibc sets its heap trim threshold to twice the
# largest block it has unmapped; after a 1 MiB block (1024 rows at m=128) the
# training steps that follow k-means give their heap back and fault it in
# again on every step (a ricker train at m=128: 349k minor faults and 3.1 s,
# against 2.3k and 2.5 s after a 3 MiB block)
_KMEANS_BLOCK_VALUES = 2**19


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


OBJECTIVE_MODES = ("auto", "exact", "pseudoloss")
DTYPES = ("float64", "float32")

def _setting(default, help="", flag=None, **allowed):
    """A TrainConfig field, declared once: its allowed values (minimum=<int>,
    interval=(low, high, low_closed) with high never allowed, or
    choices=<tuple>), its ``softki train`` flag where that is not the field
    name with dashes, and the flag's help."""
    return field(default=default, metadata={"help": help, "flag": flag, **allowed})


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; frozen, so every value passed the checks in __post_init__."""

    epochs: int = _setting(50, minimum=0)
    batch_size: int = _setting(1024, minimum=1)
    learning_rate: float = _setting(0.01, "Adam step size", flag="lr",
                                    interval=(0.0, math.inf, True))  # 0 takes no steps
    probes: int = _setting(10, "Hutchinson probe count", minimum=1)
    seed: int = _setting(0, "seed of the split, the ricker data and training", minimum=0)
    objective_mode: str = _setting("auto", "objective mode", flag="objective",
                                   choices=OBJECTIVE_MODES)
    cg_tol: float = _setting(1e-6, interval=(0.0, math.inf, False))
    cg_max_iters: int = _setting(500, minimum=1)
    m: int = _setting(512, "number of interpolation / inducing points", minimum=1)
    # the inits must lie above the floors of the transforms they feed
    noise_init: float = _setting(0.5, interval=(NOISE_FLOOR, math.inf, False))
    lengthscale_init: float = _setting(
        1.0, interval=(LENGTHSCALE_MIN, LENGTHSCALE_MAX, False))
    outputscale_init: float = _setting(1.0, interval=(SCALE_FLOOR, math.inf, False))
    temperature_init: float = _setting(1.0, interval=(TEMP_FLOOR, math.inf, False))
    lr_step_epochs: int = _setting(
        0, "multiply the step size by --lr-step-factor this often (0 = off)", minimum=0)
    lr_step_factor: float = _setting(0.5, interval=(0.0, math.inf, False))
    dtype: str = _setting("float64", "objective dtype", choices=DTYPES)

    def __post_init__(self):
        for f in fields(self):
            name, value, spec = f.name, getattr(self, f.name), f.metadata
            if "choices" in spec:
                if value not in spec["choices"]:
                    raise InvalidConfig(f"{name} must be one of "
                                        f"{', '.join(spec['choices'])}, got {value!r}")
            elif "minimum" in spec:
                if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                    raise InvalidConfig(f"{name} must be an integer, got {value!r}")
                if value < spec["minimum"]:
                    raise InvalidConfig(
                        f"{name} must be >= {spec['minimum']}, got {value!r}")
            else:
                low, high, closed = spec["interval"]
                if not (isinstance(value, numbers.Real)    # nan fails both comparisons
                        and (low <= value if closed else low < value) and value < high):
                    bracket = "[" if closed else "("
                    raise InvalidConfig(f"{name} must be a number in "
                                        f"{bracket}{low}, {high}), got {value!r}")


@dataclass
class TrainTrace:
    epoch_objectives: list = field(default_factory=list)   # mean per-point value
    epoch_seconds: list = field(default_factory=list)
    mode_counts: dict = field(default_factory=lambda: {"exact": 0, "pseudoloss": 0})
    failed_batches: int = 0


class Adam:
    """Ascent-form Adam on a dict of named arrays; each step takes its rate."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict, lr: float):
        self.t += 1
        for key, g in grads.items():
            g = np.asarray(g, dtype=float)
            self.m[key] = ADAM_BETA1 * self.m[key] + (1 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[key] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[key] / (1 - ADAM_BETA2**self.t)
            self.params[key] = self.params[key] + lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def kmeans(x: np.ndarray, m: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    Runs to an assignment fixpoint or KMEANS_MAX_ITERS Lloyd steps; empty
    clusters are reseeded to the point currently farthest from its nearest
    centroid. Lloyd's sums are taken in the order of the plain expressions
    on C-ordered float64 (n, d) rows, so the centroids do not depend on x's
    dtype or memory layout. The seeding adds each row's d squares in sequence, numpy's order
    for d < 8; its sums only decide which rows of x become centroids.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidConfig(f"k-means needs x as a 2-D (n, d) array, got shape {x.shape}")
    if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 1:
        raise InvalidConfig(f"k-means needs m to be an integer >= 1, got {m!r}")
    x = np.ascontiguousarray(x, dtype=float)
    if not np.isfinite(x).all():  # the flat test is the cheap one; rows only on failure
        row = np.argmin(np.isfinite(x).all(axis=1))
        raise NonFiniteInput(f"k-means row {row} (0-based) has a nan or inf")
    n = x.shape[0]
    if n < m:
        raise TooFewPoints(f"need at least {m} points, got {n}")
    rng = _rng(seed, _KMEANS)

    # seeding on x^T: each step subtracts and squares whole length-n rows in
    # one (d, n) scratch and sums them down its columns
    xt = np.ascontiguousarray(x.T)
    scratch = np.empty_like(xt)
    cdf = np.empty(n)
    row = np.empty(n)
    centroids = np.empty((m, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    np.square(np.subtract(xt, centroids[0][:, None], out=scratch), out=scratch)
    d2 = np.sum(scratch, axis=0)
    for j in range(1, m):
        total = d2.sum()
        if not math.isfinite(total):
            raise NonFiniteResult("k-means++ squared distances overflow float64; "
                                  "x has coordinates beyond about 1e154")
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            # what rng.choice(n, p=d2 / total) runs after its checks: the same
            # index from the same stream
            np.cumsum(np.divide(d2, total, out=cdf), out=cdf)
            cdf /= cdf[-1]
            centroids[j] = x[cdf.searchsorted(rng.random(), side="right")]
        np.square(np.subtract(xt, centroids[j][:, None], out=scratch), out=scratch)
        np.minimum(d2, np.sum(scratch, axis=0, out=row), out=d2)
    del scratch, cdf, row

    # |x|^2 - (2x) c^T + |c|^2 evaluated left to right, one row block at a
    # time in one block x m buffer: bitwise the plain expression, which the
    # tests' loop reference computes
    xx = np.sum(x * x, axis=1)
    x2 = 2.0 * x
    block_rows = max(DEFAULT_BLOCK_ROWS, _KMEANS_BLOCK_VALUES // m)
    dist = np.empty((min(n, block_rows), m))
    nearest = np.empty(n)
    assign = np.full(n, -1, dtype=np.intp)  # argmin never yields -1
    new_assign = np.empty(n, dtype=np.intp)
    for _ in range(KMEANS_MAX_ITERS):
        cc = np.sum(centroids * centroids, axis=1)
        for rows in _row_blocks(n, block_rows):
            xb = x2[rows]
            block = dist[: len(xb)]
            np.matmul(xb, centroids.T, out=block)
            np.subtract(xx[rows, None], block, out=block)
            block += cc
            np.argmin(block, axis=1, out=new_assign[rows])
            nearest[rows] = block[np.arange(len(xb)), new_assign[rows]]
        if np.array_equal(new_assign, assign):
            break
        assign, new_assign = new_assign, assign
        # bincount adds each column's weights in row order, like a loop over rows
        counts = np.bincount(assign, minlength=m)
        filled = counts > 0
        for k, col in enumerate(xt):
            sums = np.bincount(assign, weights=col, minlength=m)
            centroids[filled, k] = sums[filled] / counts[filled]
        for j in np.flatnonzero(~filled):
            far = int(np.argmax(nearest))
            centroids[j] = x[far]
            nearest[far] = 0.0
    return centroids


# --------------------------------------------------------------------------
# raw <-> constrained parameter plumbing


def _positive(floor: float):
    return (
        lambda u: floor + transforms.softplus(u),
        lambda v: transforms.softplus_inv(v - floor),
        transforms.softplus_deriv,
    )


# name -> (to constrained, to raw, d constrained / d raw)
PARAMS = {
    "noise": _positive(NOISE_FLOOR),
    "lengthscales": (
        lambda u: transforms.bounded_sigmoid(u, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
        lambda v: transforms.bounded_sigmoid_inv(v, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
        lambda u: transforms.bounded_sigmoid_deriv(u, LENGTHSCALE_MIN, LENGTHSCALE_MAX),
    ),
    "outputscale": _positive(SCALE_FLOOR),
    "z": (lambda u: u, lambda v: np.array(v, dtype=float), lambda u: 1.0),
    "temperatures": _positive(TEMP_FLOOR),
}

SOFTKI_PARAMS = ("noise", "lengthscales", "outputscale", "z", "temperatures")
SGPR_PARAMS = ("noise", "lengthscales", "outputscale", "z")
EXACT_PARAMS = ("noise", "lengthscales", "outputscale")


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
    return {name: np.atleast_1d(PARAMS[name][1](start[name])) for name in names}


def from_raw(raw: dict) -> Hyperparams:
    """Constrained hyperparameters; a model without z or temperatures gets them empty."""
    c = {name: PARAMS[name][0](u) for name, u in raw.items()}
    return Hyperparams(
        noise=float(c["noise"][0]),
        kernel=MaternParams(lengthscales=c["lengthscales"],
                            outputscale=float(c["outputscale"][0])),
        z=c.get("z", np.empty((0, c["lengthscales"].shape[0]))),
        temperatures=c.get("temperatures", ()),
    )


def chain(grads: dict, raw: dict) -> dict:
    """Map constrained-space gradients onto the unconstrained variables."""
    return {name: grads[name] * PARAMS[name][2](u) for name, u in raw.items()}


# --------------------------------------------------------------------------
# training loops


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _run_loop(data: Dataset, cfg: TrainConfig, names, objective):
    """Adam over the named parameters; objective(x, y, hp, step) -> ObjectiveReport."""
    x, y = data.x, data.y
    n = y.shape[0]
    adam = Adam(raw_init(names, cfg, data))
    trace = TrainTrace()
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.learning_rate
        if cfg.lr_step_epochs > 0:
            lr *= cfg.lr_step_factor ** (epoch // cfg.lr_step_epochs)
        batch_values = []
        for idx in _epoch_batches(n, cfg.batch_size, _rng(cfg.seed, _SHUFFLE, epoch)):
            hp = from_raw(adam.params)
            report = objective(x[idx], y[idx], hp, step)
            nb = idx.shape[0]
            batch_values.append(report.value / nb)
            trace.mode_counts[report.mode_used] = (
                trace.mode_counts.get(report.mode_used, 0) + 1
            )
            if report.is_finite():
                grads = chain(report.gradients, adam.params)
                adam.step({k: np.asarray(v) / nb for k, v in grads.items()}, lr)
            else:
                trace.failed_batches += 1
            step += 1
        trace.epoch_objectives.append(float(np.mean(batch_values)))
        trace.epoch_seconds.append(time.perf_counter() - t0)
    return from_raw(adam.params), trace


def train(data: Dataset, cfg: TrainConfig):
    """Train interpolation-GP hyperparameters; returns (Hyperparams, trace)."""

    def objective(xb, yb, hp, step):
        return stabilized_objective(
            xb, yb, hp, cfg, np.random.SeedSequence([cfg.seed, _PROBES, step]))

    return _run_loop(data, cfg, SOFTKI_PARAMS, objective)


def train_sgpr(data: Dataset, cfg: TrainConfig):
    """Full-batch SGPR training with the same loop and optimizer.

    Every step writes its (n, m) arrays into one workspace made here, so the
    steps allocate nothing of that size and the allocator has no large block
    to give back and fault in again between them.
    """
    workspace = sgpr_workspace(len(data), cfg.m)
    return _run_loop(data, replace(cfg, batch_size=len(data)), SGPR_PARAMS,
                     lambda xb, yb, hp, step: sgpr_elbo(xb, yb, hp, workspace=workspace))


def train_exact(data: Dataset, cfg: TrainConfig):
    """Full-batch exact GP hyperparameter training (dense, small n only)."""
    return _run_loop(data, replace(cfg, batch_size=len(data)), EXACT_PARAMS,
                     lambda xb, yb, hp, step: exact_gp_mll(xb, yb, hp))
