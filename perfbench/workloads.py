"""The four benchmark workloads and the inputs each one is built from.

Every input is drawn from the run's ``--seed``: worker ``k`` of a run uses
the sub-seed ``100 * seed + k`` for its data and its training seed, so the
same run seed always produces the same inputs. The shape of each target
function is fixed; only the samples change with the seed.

``prepare`` runs once per benchmark run in the parent process (it writes the
wide workload's CSV). ``load`` runs inside each worker and is the part of
set-up the user pays for: input generation or CSV load, then standardization.
"""

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# prediction is timed in calls of this many query points
CALL_POINTS = 10_000

# file name of the wide workload's CSV in the run's work directory
WIDE_CSV = "wide.csv"

# the wavelet task of tests/conftest.py and the seeds acceptance criterion 1
# averages over (tests/test_acceptance.py)
RICKER_RADIUS = 2.5
CRITERION1_SEEDS = (0, 1, 2)

# fixed shape of the wide target and of the cluster layout; independent of
# the run seed, which only draws the samples
_SHAPE_SEED = 2410
_WIDE_D = 26
_CLUSTERS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str                  # "softki" or "sgpr"
    data: str                   # "ricker", "wide" or "clustered"
    n_train: int
    n_query: int
    train: dict                 # TrainConfig fields other than seed
    rmse_limit: float | None    # criterion 1's level for the mean RMSE over CRITERION1_SEEDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ricker-m128",
            why="paper 2-D wavelet protocol; per-step fixed costs (dispatch, "
                "128x128 factors, Adam, softmax) dominate",
            model="softki",
            data="ricker",
            n_train=3000,
            n_query=30_000,
            train=dict(m=128, epochs=100, learning_rate=0.5, batch_size=1024,
                       lr_step_epochs=25, lr_step_factor=0.5),
            rmse_limit=1e-2,
        ),
        Workload(
            name="wide-m512",
            why="d=26 CSV at m=512; n_b*m^2 GEMMs, multi-block fit_qr, "
                "per-call K_zz rebuild in prediction and Python-loop k-means dominate",
            model="softki",
            data="wide",
            n_train=10_240,
            n_query=20_000,
            train=dict(m=512, epochs=1, learning_rate=0.01, batch_size=1024),
            rmse_limit=None,
        ),
        Workload(
            name="clustered-f32",
            why="float32 tight clusters; every exact attempt fails the jitter "
                "ladder and falls back to the CG pseudoloss",
            model="softki",
            data="clustered",
            n_train=2048,
            n_query=30_000,
            train=dict(m=128, epochs=20, learning_rate=0.01, batch_size=1024,
                       dtype="float32"),
            rmse_limit=None,
        ),
        Workload(
            name="sgpr-ricker",
            why="SGPR baseline on the wavelet data; measures baselines, "
                "never calls interp",
            model="sgpr",
            data="ricker",
            n_train=3000,
            n_query=30_000,
            train=dict(m=128, epochs=100, learning_rate=0.1, noise_init=0.01),
            rmse_limit=2e-2,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """Tiny variant for the harness test: one epoch, small n, no criterion 1."""
    m = w.train["m"]
    return dataclasses.replace(
        w,
        n_train=max(2 * m, 1024),
        n_query=2000,
        train={**w.train, "epochs": 1},
        rmse_limit=None,
    )


def sub_seed(seed: int, index: int) -> int:
    return 100 * seed + index


def prepare(w: Workload, seed: int, workdir: Path) -> None:
    """Parent-side inputs shared by a run's workers: the wide workload's CSV."""
    if w.data != "wide":
        return
    rng = np.random.default_rng(seed)
    x, y = _wide_rows(rng, w.n_train + w.n_query)
    np.savetxt(workdir / WIDE_CSV, np.column_stack([x, y]), delimiter=",", fmt="%.17g")


def load(softki, w: Workload, seed: int, workdir: Path):
    """Worker-side set-up: returns standardized (train, query) datasets."""
    if w.data == "ricker":
        return softki.ricker_dataset(n_train=w.n_train, n_test=w.n_query,
                                     radius=RICKER_RADIUS, seed=seed)
    if w.data == "wide":
        full = softki.load_csv(workdir / WIDE_CSV)
        frac = w.n_train / len(full)
        return softki.split_standardize(full, train_fraction=frac, seed=seed)
    if w.data == "clustered":
        return _clustered(softki, w, seed)
    raise ValueError(f"unknown data kind {w.data!r}")


def _wide_rows(rng, n):
    proj = np.random.default_rng(_SHAPE_SEED).standard_normal((_WIDE_D, 3))
    proj /= np.sqrt(_WIDE_D)
    x = rng.standard_normal((n, _WIDE_D))
    u = x @ proj
    y = (np.sin(2.0 * u[:, 0]) + 0.5 * np.cos(3.0 * u[:, 1]) + 0.5 * u[:, 2]
         + 0.1 * rng.standard_normal(n))
    return x, y


def _clustered(softki, w: Workload, seed: int):
    """Unstandardized inputs in tight clusters, passed through raw.

    Identity statistics stand in for standardization, as in a CLI run with
    ``--standardize false``.
    """
    centers = np.random.default_rng(_SHAPE_SEED).uniform(-50.0, 50.0, size=(_CLUSTERS, 2))
    rng = np.random.default_rng(seed)

    def draw(n):
        x = centers[rng.integers(_CLUSTERS, size=n)] + 0.05 * rng.standard_normal((n, 2))
        y = np.sin(x[:, 0] / 7.0) + np.cos(x[:, 1] / 9.0) + 0.1 * rng.standard_normal(n)
        return x, y

    stats = softki.data.identity_stats(2)
    (xt, yt), (xq, yq) = draw(w.n_train), draw(w.n_query)
    return (softki.Dataset(x=xt, y=yt, stats=stats, split="train"),
            softki.Dataset(x=xq, y=yq, stats=stats, split="test"))
