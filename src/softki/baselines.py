"""The SGPR names the benchmark calls, each the library's own or a delegation.

SGPR and the exact GP are rows of ``posterior.MODELS``: their objectives
(``sgpr_elbo``, ``exact_gp_mll``) live in ``objective`` beside the Gaussian
cores they call, and ``posterior.fit`` and ``posterior.predict`` fit and
predict them. This module keeps only the names the benchmark under
perfbench/ reaches, as ``checkpoint.bundle_*`` does, until the harness calls
the library's own: ``sgpr_elbo`` is ``objective.sgpr_elbo`` itself, so a
traced run counts each call once, and the rest call the posterior's
functions.
"""

import numpy as np

from .data import Dataset
from .errors import InvalidConfig
from .interp import Hyperparams
from .objective import sgpr_elbo  # noqa: F401  (re-exported for the benchmark)
from .posterior import Posterior, fit, predict_mean, predict_var, test_metrics


def sgpr_fit(data: Dataset, hp: Hyperparams, solver: str = "qr") -> Posterior:
    """``posterior.fit("sgpr", data, hp)``; solver must be "qr"."""
    if solver != "qr":
        raise InvalidConfig(f"sgpr_fit solves only by qr, got solver {solver!r}")
    return fit("sgpr", data, hp)


def sgpr_predict_mean(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return predict_mean(post, xs)


def sgpr_predict_var(post: Posterior, xs: np.ndarray) -> np.ndarray:
    return predict_var(post, xs)


def sgpr_test_metrics(post: Posterior, xs: np.ndarray, ys: np.ndarray):
    return test_metrics(post, xs, ys)
