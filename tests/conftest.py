"""Shared fixtures and the acceptance-summary terminal hook.

Tests marked ``@pytest.mark.criterion(n, slug)`` report one summary line each
at the end of the run, so the acceptance outcome is readable without digging
through the full log.

A RuntimeWarning (numpy's overflow and invalid-value reports) or a
CGNotConvergedWarning fails a test here unless the test expects it, with
``pytest.warns`` or a filterwarnings mark of its own.

The suite runs BLAS at one thread unless the environment says otherwise:
OpenBLAS reads its thread count once, when numpy and scipy load it, so the
default is set here before anything imports them. On small matrices threads
only contend; a setting made outside the run still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from softki import (  # noqa: E402
    TrainConfig,
    fit_qr,
    ricker_dataset,
    sgpr_fit,
    test_metrics,
    train,
    train_sgpr,
)
import softki.linalg  # noqa: E402
import softki.objective  # noqa: E402
from softki.errors import CGNotConvergedWarning, NotPositiveDefinite  # noqa: E402
from softki.linalg import cholesky_upper, tri_solve_upper  # noqa: E402
from softki.objective import LOG_2PI, LowRankGaussian, ObjectiveReport  # noqa: E402

_CRITERIA = {}

_WARNINGS_AS_ERRORS = pytest.mark.filterwarnings(
    "error::RuntimeWarning", "error::softki.errors.CGNotConvergedWarning")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, slug): acceptance-criterion identity"
    )


def pytest_collection_modifyitems(config, items):
    # first among each test's own marks, so a test's or module's own filter wins
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(_WARNINGS_AS_ERRORS, append=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    key = (marker.args[0], marker.args[1])
    if report.skipped:
        _CRITERIA[key] = "SKIP"
    elif report.when == "call":
        _CRITERIA[key] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup or teardown error
        _CRITERIA[key] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, slug in sorted(_CRITERIA):
        terminalreporter.write_line(
            f"ACCEPTANCE {number} ({slug}): {_CRITERIA[(number, slug)]}"
        )


def uci_csv_path(name: str):
    """Locate an optional UCI-style csv; None when the file is not provided."""
    base = os.environ.get("SOFTKI_DATA_DIR", "data")
    path = Path(base) / f"{name}.csv"
    return path if path.is_file() else None


def lowrank_gaussian_by_solves(phi, y, l, beta2):
    """Referee for ``objective.lowrank_gaussian`` with a general L, by
    substitution: M = beta^2 I + L^T S L from GEMMs, and g = U_m^-T L^T and
    h = U_m^-T L^T S from two wide triangular solves against M's factor.
    Pass L = U_zz^T for softki and L = I for SGPR's whitened Phi."""
    n, m = phi.shape
    s = phi.T @ phi
    lt_s = l.T @ s
    u_m, jitter = cholesky_upper(beta2 * np.eye(m, dtype=phi.dtype) + lt_s @ l)
    g = tri_solve_upper(u_m, l.T, transpose=True)
    h = tri_solve_upper(u_m, lt_s, transpose=True)
    zs = g.T @ h
    a = (y - phi @ (g.T @ (g @ (phi.T @ y)))) / beta2
    logdet = (n - m) * float(np.log(beta2)) + 2.0 * float(np.sum(np.log(np.diagonal(u_m))))
    return LowRankGaussian(
        log_n=-0.5 * (float(y @ a) + logdet + n * LOG_2PI),
        a=a,
        phi_a=phi.T @ a,
        phi_dinv_phi=(s - h.T @ h) / beta2,
        zs=zs,
        tr_g=0.5 * (float(a @ a) - (n - float(np.trace(zs))) / beta2),
        s=s,
        jitter=jitter,
    )


def dense_exact_mll(b, hp):
    """The dense referee of ``objective.exact_mll`` on batch b: the same
    value and gradients from one ``dense_gaussian`` of the formed
    D = W K_zz W^T + beta^2 I, in x's dtype with K_zz cast to it."""
    w, n = b.w, b.y.shape[0]
    k_zz = b.k_zz.astype(w.dtype, copy=False)
    log_n, a, d_inv, jitter = softki.objective.dense_gaussian(
        w @ k_zz @ w.T + b.beta2 * np.eye(n, dtype=w.dtype), b.y)
    g = 0.5 * (np.outer(a, a) - d_inv)
    grads = softki.objective._assemble_gradients(
        b, hp, w.T @ g @ w, 2.0 * g @ (w @ k_zz), float(np.trace(g)))
    return ObjectiveReport(value=log_n, gradients=grads, mode_used="exact",
                           diagnostics={"jitter": jitter})


def overflowing_csv(path, column):
    """Write a 5-row, 3-column CSV to path whose column (the last is the
    target) alternates between 1e160 and -1e160, so that its squares
    overflow float64; return path."""
    cells = np.arange(15.0).reshape(5, 3)
    cells[:, column] = [1e160, -1e160, 1e160, -1e160, 1e160]
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in cells))
    return path


def refuse_objective_factors(monkeypatch):
    """Make every Cholesky factor the training objectives take (K_zz's and
    M's) raise NotPositiveDefinite, as a matrix that fails every jitter rung
    does; the posterior's factors run as before. With K_zz built and factored
    in float64 no float32 training batch at hand fails that way."""
    def refuse(m):
        raise NotPositiveDefinite("factor refused by the test")

    refusing = types.SimpleNamespace(**vars(softki.linalg))
    refusing.cholesky_upper = refuse
    monkeypatch.setattr(softki.objective, "linalg", refusing)


def cholesky_ld(a):
    """Lower Cholesky factor of a small SPD matrix, in a's (extended) precision."""
    lo = np.zeros_like(a)
    for j in range(a.shape[0]):
        lo[j, j] = np.sqrt(a[j, j] - lo[j, :j] @ lo[j, :j])
        lo[j + 1:, j] = (a[j + 1:, j] - lo[j + 1:, :j] @ lo[j, :j]) / lo[j, j]
    return lo


def chol_solve_ld(lo, b):
    """(lo lo^T)^-1 b by substitution, in the operands' (extended) precision."""
    x = b.copy()
    for i in range(len(x)):
        x[i] = (x[i] - lo[i, :i] @ x[:i]) / lo[i, i]
    for i in reversed(range(len(x))):
        x[i] = (x[i] - lo[i + 1:, i] @ x[i + 1:]) / lo[i, i]
    return x


# 2-D wavelet protocol: m = 128 k-means interpolation points, 100 epochs.
# The domain radius is a free parameter of the synthetic task; 2.5 keeps the
# bump wide enough relative to the domain for an m = 128 budget to resolve.
RICKER_RADIUS = 2.5

SOFTKI_RICKER = dict(
    m=128, epochs=100, learning_rate=0.5, batch_size=1024,
    lr_step_epochs=25, lr_step_factor=0.5,
)
SGPR_RICKER = dict(m=128, epochs=100, learning_rate=0.1, noise_init=0.01)


@pytest.fixture(scope="session")
def ricker_runs():
    """Three-seed wavelet training runs shared by trainer and acceptance tests."""
    runs = {"softki": {}, "sgpr": {}}
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        train_data, test_data = ricker_dataset(radius=RICKER_RADIUS, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CGNotConvergedWarning)
            hp, trace = train(train_data, TrainConfig(seed=seed, **SOFTKI_RICKER))
            post = fit_qr(train_data, hp)
            rmse, nll = test_metrics(post, test_data.x, test_data.y)
            runs["softki"][seed] = {"trace": trace, "rmse": rmse, "nll": nll}

            hp, trace = train_sgpr(train_data, TrainConfig(seed=seed, **SGPR_RICKER))
            post = sgpr_fit(train_data, hp)
            rmse, nll = test_metrics(post, test_data.x, test_data.y)
            runs["sgpr"][seed] = {"trace": trace, "rmse": rmse, "nll": nll}
    runs["seconds"] = time.perf_counter() - t0
    return runs
