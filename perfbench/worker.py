"""One fresh benchmark process: set-up, train, fit, predict, check.

Started by run.py, never imported. It pins both OpenBLAS runtimes to one
thread before numpy is imported, reads the thread counts back, and refuses to
measure if either is not 1. It prints one JSON object as its last line of
standard output.

Phases, each timed on its own and reported in seconds at the nominal
speed of the reference load in refspeed.py, sampled just before and just
after each phase:
  setup    process start (the parent's spawn time) through imports, input
           generation or CSV load and standardization, up to ``train*``
  train    ``train`` / ``train_sgpr`` including k-means
  fit      ``fit_qr`` / ``sgpr_fit``, bundle, ``save_checkpoint``,
           ``load_checkpoint`` and ``restore``: the path ``softki train``
           followed by ``softki eval`` takes
  predict  mean plus variance through the restored predictor, per call of
           ``CALL_POINTS`` query points
Output checks run outside the timed regions.

With ``--criterion1`` it instead runs acceptance criterion 1 for the workload
(see ``criterion1``) and prints its RMSEs.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import softki  # noqa: E402
from softki.errors import CGNotConvergedWarning  # noqa: E402

import refspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# restored predictions must match the live posterior to this relative error
MATCH_RTOL = 1e-12
MATCH_SAMPLE = 512

# untraced workers repeat the fit path and prediction passes until these many
# seconds are spent on each, for more samples of the short phases
FIT_BUDGET_S = 0.3
PREDICT_BUDGET_S = 0.6

# (package, thread-count getter, config getter) of the two bundled OpenBLAS builds
_BLAS = (
    (np, "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    (scipy, "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


def blas_readback() -> dict:
    """Thread count and build string of each OpenBLAS runtime, via ctypes."""
    out = {}
    for pkg, threads_sym, config_sym in _BLAS:
        site = Path(pkg.__file__).resolve().parent.parent
        libs = sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "libscipy_openblas*.so")))
        if not libs:
            raise RuntimeError(f"no bundled OpenBLAS found for {pkg.__name__}")
        lib = ctypes.CDLL(libs[0])
        get_threads = getattr(lib, threads_sym)
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, config_sym)
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        out[pkg.__name__] = {
            "version": pkg.__version__,
            "threads": int(get_threads()),
            "config": get_config().decode(),
        }
    return out


def _matches(live, restored) -> bool:
    scale = max(float(np.max(np.abs(live))), np.finfo(float).tiny)
    return float(np.max(np.abs(restored - live))) <= MATCH_RTOL * scale


def fit_path(sgpr: bool, train_data, hp, ckpt_path):
    """Fit, bundle, save, load and restore; returns (posterior, checkpoint, predictor)."""
    ck = softki.checkpoint
    if sgpr:
        post = softki.sgpr_fit(train_data, hp, solver="qr")
        bundle = ck.bundle_sgpr(post, train_data.stats, len(train_data))
    else:
        post = softki.fit_qr(train_data, hp)
        bundle = ck.bundle_softki(post, train_data.stats, len(train_data))
    ck.save_checkpoint(ckpt_path, bundle)
    loaded = ck.load_checkpoint(ckpt_path)
    return post, loaded, ck.restore(loaded)


def predict_pass(timer, predictor, query, timed: list, failed: list):
    """One pass over the query set in calls of CALL_POINTS points.

    Appends (points, scaled seconds) per completed call to ``timed`` and a
    message per failed call to ``failed``. Returns (mean, var), or None if
    any call failed.
    """
    mean_fn, var_fn = predictor
    failed_before = len(failed)
    means, variances = [], []
    for start in range(0, len(query), workloads.CALL_POINTS):
        xs = query.x[start:start + workloads.CALL_POINTS]
        try:
            (mean, var), seconds, _ = timer(lambda: (mean_fn(xs), var_fn(xs)))
        except (softki.SoftKIError, ArithmeticError, ValueError) as err:
            failed.append(f"predict[{start}]: {type(err).__name__}: {err}")
            continue
        timed.append((len(xs), seconds))
        if np.all(np.isfinite(mean)) and np.all(np.isfinite(var)) and np.all(var >= 0):
            means.append(mean)
            variances.append(var)
        else:
            failed.append(f"predict[{start}]: non-finite mean or negative variance")
    if len(failed) > failed_before:
        return None
    return np.concatenate(means), np.concatenate(variances)


def run(args) -> dict:
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    blas = blas_readback()
    bad = {name: info["threads"] for name, info in blas.items() if info["threads"] != 1}
    if bad:
        raise RuntimeError(f"BLAS not pinned to one thread: {bad}")

    rec = None
    if args.trace:
        rec = spans.Recorder()
        rec.install()
    seed = workloads.sub_seed(args.seed, args.index)
    sgpr = w.model == "sgpr"

    train_data, query = workloads.load(softki, w, seed, Path(args.workdir))
    cfg = softki.TrainConfig(seed=seed, **w.train)
    setup_raw_s = time.time() - args.spawn_time
    timer = refspeed.Timer(before=args.spawn_ref,
                           on_inside=rec.pause if rec is not None else None)
    setup_s = timer.ended(setup_raw_s)
    if args.setup_only:
        return {"index": args.index, "setup_s": setup_s, "setup_raw_s": setup_raw_s}

    train_fn = softki.train_sgpr if sgpr else softki.train
    (hp, trace), train_s, train_raw_s = timer(train_fn, train_data, cfg)

    ckpt_path = Path(args.workdir) / f"checkpoint-{args.index}.bin"
    (post, loaded, predictor), seconds, _ = timer(fit_path, sgpr, train_data, hp, ckpt_path)
    fit_s = [seconds]

    timed, failed_calls = [], []
    first = predict_pass(timer, predictor, query, timed, failed_calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sample = query.x[:MATCH_SAMPLE]
    if sgpr:
        live = softki.sgpr_predict_mean(post, sample), softki.sgpr_predict_var(post, sample)
    else:
        live = softki.predict_mean(post, sample), softki.predict_var(post, sample)
    checks = {
        "restored_mean_matches_live": _matches(live[0], predictor[0](sample)),
        "restored_var_matches_live": _matches(live[1], predictor[1](sample)),
    }

    # traced workers run each phase once, so their counts repeat exactly
    passes = 1
    if not args.trace:
        while sum(fit_s) < FIT_BUDGET_S:
            fit_s.append(timer(fit_path, sgpr, train_data, hp, ckpt_path)[1])
        while first is not None and sum(s for _, s in timed) < PREDICT_BUDGET_S:
            predict_pass(timer, predictor, query, timed, failed_calls)
            passes += 1
    ckpt_path.unlink()

    result = {
        "index": args.index,
        "sub_seed": seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "train_s": train_s,
        "train_raw_s": train_raw_s,
        "fit_s": fit_s,
        "calls_timed": timed,
        "call_points": workloads.CALL_POINTS,
        "calls": passes * -(-len(query) // workloads.CALL_POINTS),
        "query_points": len(query),
        "train_steps": sum(trace.mode_counts.values()),
        "train_objective": trace.epoch_objectives[-1],
        "failed_batches": trace.failed_batches,
        "failed_calls": failed_calls,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb,
        "blas": blas,
        "nproc": os.cpu_count(),
    }
    if first is not None:
        mean, var = first
        result["test_rmse"] = float(np.sqrt(np.mean((mean - query.y) ** 2)))
        result["test_nll"] = softki.gaussian_nll(query.y, mean, var + loaded.noise ** 2)
    if rec is not None:
        rec.write(Path(args.workdir) / f"spans-{args.index}.jsonl")
        result["layers"] = rec.layer_metrics()
    return result


def criterion1(w) -> dict:
    """Acceptance criterion 1 as tests/test_acceptance.py checks it.

    The workload's model and training configuration on the wavelet task of
    tests/conftest.py at seeds 0, 1 and 2; the mean of the three test RMSEs
    must stay at or below the workload's ``rmse_limit``.
    """
    rmses = []
    for seed in workloads.CRITERION1_SEEDS:
        train_data, test_data = softki.ricker_dataset(radius=workloads.RICKER_RADIUS, seed=seed)
        cfg = softki.TrainConfig(seed=seed, **w.train)
        if w.model == "sgpr":
            hp, _ = softki.train_sgpr(train_data, cfg)
            post = softki.sgpr_fit(train_data, hp, solver="qr")
            rmse, _ = softki.sgpr_test_metrics(post, test_data.x, test_data.y)
        else:
            hp, _ = softki.train(train_data, cfg)
            post = softki.fit_qr(train_data, hp)
            rmse, _ = softki.test_metrics(post, test_data.x, test_data.y)
        rmses.append(float(rmse))
    return {"seeds": list(workloads.CRITERION1_SEEDS), "rmses": rmses,
            "mean": statistics.fmean(rmses)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--criterion1", action="store_true",
                        help="run acceptance criterion 1 instead of a measurement")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--index", type=int)
    parser.add_argument("--spawn-time", type=float)
    parser.add_argument("--spawn-ref", type=float,
                        help="reference seconds the parent sampled just before the spawn")
    parser.add_argument("--workdir")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, for more samples of setup_s")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", CGNotConvergedWarning)
    if args.criterion1:
        print(json.dumps(criterion1(workloads.WORKLOADS[args.workload])))
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
