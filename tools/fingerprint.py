"""Fingerprints of the benchmark workloads' numbers: a change that should
leave them as they were shows the same lines before and after.

For each workload config of perfbench/workloads.py and each sub-seed it
builds the inputs a benchmark worker builds, trains, fits and predicts
through the library's API at one BLAS thread, and prints one line per
quantity:

    <workload> <sub-seed> <name> <value>

where the value is the sha256 (first 16 hex digits) of the float64 bytes of
the k-means centroids, of each trained hyperparameter (noise, lengthscales,
outputscale, z, temperatures) and of the predictive mean and variance of
the first CALL_POINTS (10k) query points, and the full-precision test_rmse
and test_gm_density (exp(-NLL), NLL with the noise variance added) over the
whole query set, as the benchmark scores them.

    python3 tools/fingerprint.py [--workload NAME ...] [--sub-seeds S ...]

The defaults are every workload and sub-seeds 100, 101 and 102 (worker k of
run seed s uses sub-seed 100 s + k). The wide workload's CSV is written to a
temporary directory; nothing under perfbench/ is written.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import softki  # noqa: E402
import workloads  # noqa: E402


def digest(a) -> str:
    data = np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(w: workloads.Workload, sub_seed: int, workdir: Path):
    """(name, value) pairs of one workload config at one sub-seed."""
    workloads.prepare(w, sub_seed // 100, workdir)
    train_data, query = workloads.load(softki, w, sub_seed, workdir)
    cfg = softki.TrainConfig(seed=sub_seed, **w.train)
    yield "centroids", digest(softki.kmeans(train_data.x, cfg.m, seed=cfg.seed))
    hp, _ = softki.train(train_data, cfg, model=w.model)
    yield "noise", digest(hp.noise)
    yield "lengthscales", digest(hp.kernel.lengthscales)
    yield "outputscale", digest(hp.kernel.outputscale)
    yield "z", digest(hp.z)
    yield "temperatures", digest(hp.temperatures)
    post = softki.fit(w.model, train_data, hp)
    mean, var = softki.predict(post, query.x)
    yield "mean", digest(mean[:workloads.CALL_POINTS])
    yield "var", digest(var[:workloads.CALL_POINTS])
    rmse, nll = softki.posterior.score(query.y, mean, var, post.hp.noise)
    yield "test_rmse", repr(rmse)
    yield "test_gm_density", repr(math.exp(-nll))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--sub-seeds", type=int, nargs="+", default=[100, 101, 102])
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", softki.CGNotConvergedWarning)
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(workloads.WORKLOADS):
            for sub_seed in args.sub_seeds:
                for key, value in fingerprint(workloads.WORKLOADS[name], sub_seed, Path(tmp)):
                    print(name, sub_seed, key, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
