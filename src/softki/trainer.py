"""Minibatch hyperparameter training.

The loop is Algorithm-style: k-means initializes the interpolation points,
then Adam takes ascent steps on the stabilized objective, one shuffled pass
over the data per epoch (the last short batch is kept and normalized by its
own size). Everything is driven by (seed, config, data), so two identical runs
at the same BLAS thread count produce bitwise-identical parameters; a
different thread count changes the rounding of the BLAS reductions and with it
the trajectory.

Optimization happens on unconstrained variables: noise, output scale and
temperatures through softplus (plus a small floor), lengthscales through a
sigmoid scaled onto their allowed interval, interpolation points raw. The
``PARAMS`` table holds each transform, and each model lists the names it
optimizes.
"""

import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import transforms
from .baselines import exact_gp_mll, sgpr_elbo
from .data import Dataset
from .errors import InvalidConfig, TooFewPoints
from .interp import Hyperparams
from .kernel import LENGTHSCALE_MAX, LENGTHSCALE_MIN, MaternParams
from .objective import stabilized_objective

NOISE_FLOOR = 1e-4
SCALE_FLOOR = 1e-8
TEMP_FLOOR = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# fixed stream tags so each RNG consumer is independent of the others
_KMEANS, _SHUFFLE, _PROBES = 11, 13, 17


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
    threads: int = 1
    config: dict = field(default_factory=dict)


def blas_threads() -> int:
    for var in ("SOFTKI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        val = os.environ.get(var)
        if val:
            try:
                return int(val)
            except ValueError:
                pass
    return os.cpu_count() or 1


class Adam:
    """Ascent-form Adam on a dict of named arrays."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict, lr: float | None = None):
        self.t += 1
        lr = self.lr if lr is None else lr
        for key, g in grads.items():
            g = np.asarray(g, dtype=float)
            self.m[key] = ADAM_BETA1 * self.m[key] + (1 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[key] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[key] / (1 - ADAM_BETA2**self.t)
            self.params[key] = self.params[key] + lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def kmeans(x: np.ndarray, m: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    Runs to an assignment fixpoint or max_iters; empty clusters are reseeded
    to the point currently farthest from its nearest centroid.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < m:
        raise TooFewPoints(f"need at least {m} points, got {n}")
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

    assign = None
    for _ in range(max_iters):
        d2_all = (
            np.sum(x * x, axis=1)[:, None]
            - 2.0 * x @ centroids.T
            + np.sum(centroids * centroids, axis=1)[None, :]
        )
        new_assign = np.argmin(d2_all, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        nearest = d2_all[np.arange(n), assign]
        counts = np.bincount(assign, minlength=m)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
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
    adam = Adam(raw_init(names, cfg, data), cfg.learning_rate)
    trace = TrainTrace(threads=blas_threads(), config=asdict(cfg))
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
                adam.step({k: np.asarray(v) / nb for k, v in grads.items()}, lr=lr)
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
    """Full-batch SGPR training with the same loop and optimizer."""
    return _run_loop(data, replace(cfg, batch_size=len(data)), SGPR_PARAMS,
                     lambda xb, yb, hp, step: sgpr_elbo(xb, yb, hp))


def train_exact(data: Dataset, cfg: TrainConfig):
    """Full-batch exact GP hyperparameter training (dense, small n only)."""
    return _run_loop(data, replace(cfg, batch_size=len(data)), EXACT_PARAMS,
                     lambda xb, yb, hp, step: exact_gp_mll(xb, yb, hp))
