"""softki benchmark: train, fit and predict end to end on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ricker-m128 --seed 0 --seconds 25 --trace 0

Each measurement is one fresh worker process (worker.py) running set-up,
training, fit-to-loaded-predictor and prediction through the public Python
API with BLAS pinned to one thread. The run starts workers one after another
until ``--seconds`` is spent, with at least three, and reports medians. Times
are seconds at the nominal speed of a reference load sampled around each
phase (refspeed.py), because the shared host's speed drifts.

On the two wavelet workloads every run also checks acceptance criterion 1 on
its own seeds (worker.py ``criterion1``), outside the measured seconds.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs pairs of
workers on the same inputs, one untraced and one with spans around every
public function of each softki module, and reports calls and self time per
function, counts read from return values, and the tracing overhead. Both
print a table of every metric by name and unit; the last line of standard
output is one JSON object with the metrics of the chosen mode.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import refspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_WORKERS = 3           # untraced workers per --trace 0 run
SETUP_SAMPLES = 8         # --trace 0 runs add set-up-only workers up to this many
MIN_PAIRS = 1             # untraced/traced pairs per --trace 1 run
WORKER_TIMEOUT_S = 150
# accuracy is the median over workers 0..2, each on its own sub-seed
ACCURACY_WORKERS = 3

# name -> (unit, better); the same table as BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "predict_pts_per_s": ("1/s", "higher"),
    "test_rmse": ("sd", "lower"),
    "test_gm_density": ("1/sd", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units() -> dict:
    units = {}
    for name in spans.FUNCTIONS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update(spans.COUNTERS)
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


class WorkerFailed(RuntimeError):
    pass


def run_worker(name: str, options: list) -> dict:
    """Run worker.py to its end; returns the JSON of its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *options]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"{name} exceeded {WORKER_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def spawn(args, reference, index: int, traced: bool, workdir: Path,
          setup_only: bool = False) -> dict:
    options = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--index", str(index), "--workdir", str(workdir),
        "--trace", str(int(traced)),
        "--spawn-ref", repr(reference.median()),
        "--spawn-time", repr(time.time()),
    ]
    if args.smoke:
        options.append("--smoke")
    if setup_only:
        options.append("--setup-only")
    return run_worker(f"worker {index}", options)


def run_workers(args, workdir: Path):
    """Start workers until the time budget is spent; returns (untraced, traced,
    setups), where ``setups`` adds set-up-only workers to the untraced ones."""
    reference = refspeed.Reference()
    untraced, traced = [], []
    durations = []
    t_start = time.perf_counter()
    index = 0
    while True:
        done = index >= (MIN_PAIRS if args.trace else MIN_WORKERS)
        elapsed = time.perf_counter() - t_start
        if done and elapsed + max(durations) > args.seconds:
            break
        t0 = time.perf_counter()
        untraced.append(spawn(args, reference, index, False, workdir))
        if args.trace:
            traced.append(spawn(args, reference, index, True, workdir))
        durations.append(time.perf_counter() - t0)
        index += 1
    setups = list(untraced)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, reference, len(setups), False, workdir, setup_only=True))
    return untraced, traced, setups


def criterion1(w) -> dict:
    """Criterion 1's RMSEs for the workload, run once per version of the code.

    Training is bitwise deterministic at one BLAS thread, so the result
    depends only on the sources and library versions. It is kept in WORK
    under a hash of those and rerun whenever one of them changes.
    """
    digest = hashlib.sha256(w.name.encode())
    for pkg in ("numpy", "scipy"):
        digest.update(importlib.metadata.version(pkg).encode())
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cache = WORK / f"criterion1-{w.name}-{digest.hexdigest()[:16]}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    result = run_worker("criterion-1 check", ["--workload", w.name, "--criterion1"])
    cache.write_text(json.dumps(result))
    return result


def end_to_end(results: list, setups: list) -> dict:
    rates = [pts / s for r in results for pts, s in r["calls_timed"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "train_s": statistics.median(r["train_s"] for r in results),
        "fit_s": statistics.median(s for r in results for s in r["fit_s"]),
        "predict_pts_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    accuracy = results[:ACCURACY_WORKERS]
    if all("test_rmse" in r for r in accuracy):
        metrics["test_rmse"] = statistics.median(r["test_rmse"] for r in accuracy)
        metrics["test_gm_density"] = math.exp(-statistics.median(r["test_nll"] for r in accuracy))
    return metrics


def layers(untraced: list, traced: list) -> dict:
    """Self times are medians over the traced workers; counts and ratios come
    from traced worker 0, so they repeat exactly for a given seed."""
    metrics = dict(traced[0]["layers"])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(t["train_s"] for t in traced)
        / statistics.median(u["train_s"] for u in untraced) - 1.0
    )
    return metrics


def outcome(w, untraced: list, traced: list, check):
    """(attempted, failures) over batches, prediction calls and named checks;
    ``check`` is the criterion-1 result, or None where it does not apply."""
    attempted = 0
    failures = []
    for r in untraced + traced:
        tag = f"worker {r['index']}"
        attempted += r["train_steps"] + r["calls"] + len(r["checks"])
        if r["failed_batches"]:
            failures += [f"{tag}: non-finite training batch"] * r["failed_batches"]
        failures += [f"{tag}: {msg}" for msg in r["failed_calls"]]
        failures += [f"{tag}: check {name}" for name, ok in r["checks"].items() if not ok]
    if check is not None:
        attempted += 1
        if not check["mean"] <= w.rmse_limit:
            failures.append(f"check criterion1_rmse: mean {check['mean']:.5g} "
                            f"> {w.rmse_limit:g} on seeds {check['seeds']}")
    return attempted, failures


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"\n{title}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:<{width}}  {value:>14.6g}  {unit:<6} ({better} is better)")


def print_header(w, args, results: list, setups: list, check) -> None:
    env = results[0]
    print(f"workload {w.name} ({w.model}), seed {args.seed}, "
          f"{len(results)} untraced worker(s), sub-seeds "
          f"{[r['sub_seed'] for r in results]}")
    print(f"  {w.why}")
    print(f"  nproc {env['nproc']}")
    for pkg, info in env["blas"].items():
        print(f"  {pkg} {info['version']}: BLAS threads {info['threads']}, {info['config']}")
    print(f"  prediction: {env['query_points']} query points in calls of "
          f"{env['call_points']}; calls per worker {[r['calls'] for r in results]}")
    print(f"  reference load at nominal speed: {refspeed.NOMINAL_S} s")
    print(f"  setup_s per worker, then per set-up-only worker "
          f"{[round(r['setup_s'], 3) for r in setups]}, "
          f"measured {[round(r['setup_raw_s'], 3) for r in setups]}")
    print(f"  train_s per worker {[round(r['train_s'], 3) for r in results]}, "
          f"measured {[round(r['train_raw_s'], 3) for r in results]}")
    print(f"  fit repeats per worker {[len(r['fit_s']) for r in results]}")
    print(f"  final training objective per worker "
          f"{[round(r['train_objective'], 4) for r in results]}")
    rmses = [r.get("test_rmse", math.nan) for r in results]
    print(f"  test_rmse per worker {[round(x, 6) for x in rmses]}, "
          f"mean of workers 0-{ACCURACY_WORKERS - 1} "
          f"{statistics.fmean(rmses[:ACCURACY_WORKERS]):.6g}")
    if check is not None:
        print(f"  criterion 1: RMSE {[round(x, 6) for x in check['rmses']]} on seeds "
              f"{check['seeds']}, mean {check['mean']:.6g} (limit {w.rmse_limit:g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one epoch, for the harness test")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    workdir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check = criterion1(w) if w.rmse_limit is not None else None
        workloads.prepare(w, args.seed, workdir)
        untraced, traced, setups = run_workers(args, workdir)
    except WorkerFailed as err:
        print(str(err), file=sys.stderr)
        return 1
    finally:
        for path in workdir.glob("*.csv"):
            path.unlink()

    attempted, failures = outcome(w, untraced, traced, check)
    print_header(w, args, untraced, setups, check)
    e2e = end_to_end(untraced, setups)
    print_table("end-to-end (untraced workers)", e2e, END_TO_END)
    metrics = e2e
    units = END_TO_END
    if args.trace:
        metrics = layers(untraced, traced)
        units = per_layer_units()
        print_table(f"per layer ({len(traced)} traced worker(s); spans in {workdir})",
                    metrics, units)
    print(f"\nfailed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for msg in failures:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
