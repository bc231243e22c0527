"""Command-line surface: train, eval, and bench subcommands.

Every flag has a config-file equivalent (``key = value`` lines, flag spelling
without the leading dashes); precedence is defaults < config file < explicit
flags. The resolved config is echoed into each report so a run can be replayed
from its report alone. Reports are key-value text, tables are CSV.
"""

import argparse
import inspect
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import report as rpt
from .data import apply_stats, integer, load_csv, ricker_raw, split_raw, standardize
from .errors import EmptySplit, InvalidConfig, NonFiniteResult, SoftKIError
from .linalg import blas_thread_counts, blas_thread_limit
from .posterior import (
    DEFAULT_STUDY_METHODS,
    MODELS,
    fit,
    near_degenerate_instance,
    predict,
    score,
    solver_route,
    solver_study,
)
from .trainer import DTYPES, TrainConfig, train


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidConfig(f"expected a boolean, got {text!r}")


def _to_solver(text: str) -> str:
    solver_route(text)
    return text


def _split_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


@dataclass(frozen=True)
class _Opt:
    convert: object
    default: object
    help: str = ""
    choices: tuple | None = None
    field: str | None = None       # the TrainConfig field the flag sets


TRAIN_OPTS = {
    "model": _Opt(str, "softki", "model family", tuple(MODELS)),
    "data": _Opt(str, "ricker", "csv path or the literal 'ricker'"),
    # one flag per TrainConfig field, declared by the field itself
    **{f.metadata["flag"] or f.name.replace("_", "-"):
       _Opt(f.type, f.default, f.metadata["help"], f.metadata.get("choices"), f.name)
       for f in fields(TrainConfig)},
    "train-frac": _Opt(float, 0.9, "train fraction for csv datasets"),
    "standardize": _Opt(_to_bool, True,
                        "standardize the data with train-split statistics"),
    "out": _Opt(str, "run", "output directory"),
    "header": _Opt(_to_bool, False, "csv has a header row"),
    "target-column": _Opt(int, -1, "0-based target column, -1 for last"),
}

EVAL_OPTS = {
    "checkpoint": _Opt(str, None, "checkpoint file to evaluate"),
    "data": TRAIN_OPTS["data"],
    "split": _Opt(str, "test", "which side of the split", ("train", "test")),
    **{name: TRAIN_OPTS[name]
       for name in ("train-frac", "seed", "header", "target-column")},
    "dump-predictions": _Opt(_to_bool, False, "write per-point predictions"),
    "out": _Opt(str, "eval-out", "output directory"),
}

# the solvers suite's keys: near_degenerate_instance arguments and the routes
SOLVERS_OPTS = {
    **{name: _Opt(type(arg.default), arg.default,
                  choices=DTYPES if name == "dtype" else None)
       for name, arg in inspect.signature(near_degenerate_instance).parameters.items()},
    "solvers": _Opt(lambda text: tuple(map(_to_solver, _split_list(text))),
                    DEFAULT_STUDY_METHODS),
}

BENCH_OPTS = {
    "suite": _Opt(str, None, "suite definition file (key = value lines)"),
    "out": _Opt(str, "bench-out", "output directory"),
}


def _parse_kv_file(path):
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def _convert(opt: _Opt, key: str, raw, label: str):
    """One flag, config or suite value, converted and checked against its choices."""
    try:
        value = opt.convert(raw)
    except (ValueError, InvalidConfig) as err:
        raise InvalidConfig(f"bad {label} value for {key}: {err}") from None
    if opt.choices and value not in opt.choices:
        raise InvalidConfig(f"{key} must be one of {', '.join(map(str, opt.choices))}")
    return value


def _resolve(opts: dict, args) -> dict:
    values = {name: opt.default for name, opt in opts.items()}
    sources = [("config", _parse_kv_file(args.config))] if args.config else []
    flags = [(name, getattr(args, name.replace("-", "_"))) for name in opts]
    sources.append(("flag", [(name, raw) for name, raw in flags if raw is not None]))
    for label, pairs in sources:
        for key, raw in pairs:
            if key in opts:  # other keys let a report be replayed as a config
                values[key] = _convert(opts[key], key, raw, label)
    for name, value in values.items():
        if value is None:
            raise InvalidConfig(f"--{name} is required")
    return values


# --------------------------------------------------------------------------
# shared run plumbing


def _threads() -> int:
    """The BLAS thread count of a command: SOFTKI_THREADS, 1 if unset or empty."""
    raw = os.environ.get("SOFTKI_THREADS") or "1"
    return integer(int(raw) if raw.strip().isdecimal() else raw, "SOFTKI_THREADS", 1)


def _blas_lines() -> list:
    """Report lines of the BLAS thread counts read back from each runtime."""
    return [(f"blas_threads_{name}", "uncapped" if count is None else count)
            for name, count in blas_thread_counts().items()]


def _load_raw(values: dict):
    """Raw (train, test) splits of the --data source."""
    if values["data"] == "ricker":
        return ricker_raw(seed=values["seed"])
    full = load_csv(values["data"], header=values["header"],
                    target_column=values["target-column"])
    return split_raw(full, train_fraction=values["train-frac"], seed=values["seed"])


def _load_split(values: dict):
    """(train, test) of the --data source; raw splits carry no statistics, so
    the posterior fit on them holds the identity ones."""
    raw_tr, raw_te = _load_raw(values)
    return standardize(raw_tr, raw_te) if values["standardize"] else (raw_tr, raw_te)


def _train_config(values: dict) -> TrainConfig:
    return TrainConfig(**{opt.field: values[key]
                          for key, opt in TRAIN_OPTS.items() if opt.field})


def _scored(post, xs: np.ndarray, ys: np.ndarray):
    """(metrics, mean, var) of post's predictions at standardized (xs, ys);
    raises NonFiniteResult naming the first metric that is nan or inf."""
    mean, var = predict(post, xs)
    rmse, nll = score(ys, mean, var, post.hp.noise)
    metrics = {"rmse": rmse, "nll": nll, "rmse_raw": rmse * post.stats.y_std}
    for key, value in metrics.items():
        if not np.isfinite(value):
            bad = np.count_nonzero(~(np.isfinite(mean) & np.isfinite(var)))
            raise NonFiniteResult(
                f"{key} is {value}; {bad} of {len(ys)} predictions are not finite")
    return metrics, mean, var


def _train_model(values: dict, cfg: TrainConfig, train_data, test_data) -> dict:
    hp, trace = train(train_data, cfg, values["model"])
    post = fit(values["model"], train_data, hp)
    if len(test_data) > 0:
        metrics = _scored(post, test_data.x, test_data.y)[0]
    else:
        metrics = dict.fromkeys(("rmse", "nll", "rmse_raw"), float("nan"))
    return {"metrics": metrics, "trace": trace, "posterior": post}


# --------------------------------------------------------------------------
# subcommands


def cmd_train(values: dict, outdir: Path) -> int:
    cfg = _train_config(values)  # a bad config field fails before the data is read
    train_data, test_data = _load_split(values)
    result = _train_model(values, cfg, train_data, test_data)
    trace, post = result["trace"], result["posterior"]
    ckpt.save_checkpoint(outdir / "checkpoint.bin", post)
    hp = post.hp

    objectives = trace.epoch_objectives
    lines = list(values.items()) + [
        ("n_train", len(train_data)),
        ("n_test", len(test_data)),
        ("rmse", result["metrics"]["rmse"]),
        ("nll", result["metrics"]["nll"]),
        ("rmse_raw", result["metrics"]["rmse_raw"]),
        ("noise", hp.noise),
        ("outputscale", hp.kernel.outputscale),
        ("final_objective", objectives[-1] if objectives else float("nan")),
        ("epochs_run", len(objectives)),
        ("seconds_total", float(sum(trace.epoch_seconds))),
        *_blas_lines(),
        ("failed_batches", trace.failed_batches),
    ] + [(f"mode_{mode}", count) for mode, count in sorted(trace.mode_counts.items())]
    lines += [(f"fit_{key}", value)
              for key, value in sorted(post.diagnostics.items())]
    rpt.write_kv(outdir / "report.txt", lines)

    rpt.write_csv(
        outdir / "trace.csv",
        ["epoch", "objective", "seconds"],
        [(i, obj, sec) for i, (obj, sec)
         in enumerate(zip(objectives, trace.epoch_seconds))],
    )
    dump_rows = [("lengthscale", i, v) for i, v in enumerate(hp.kernel.lengthscales)]
    dump_rows += [("temperature", i, v) for i, v in enumerate(hp.temperatures)]
    rpt.write_csv(outdir / "hyperparams.csv", ["kind", "dim", "value"], dump_rows)

    for key in ("rmse", "nll", "rmse_raw"):
        print(f"{key} = {rpt.format_value(result['metrics'][key])}")
    print(f"wrote {outdir / 'checkpoint.bin'}")
    return 0


def cmd_eval(values: dict, outdir: Path) -> int:
    post = ckpt.load_checkpoint(values["checkpoint"])
    stats = post.stats
    raw_tr, raw_te = _load_raw(values)
    raw = raw_tr if values["split"] == "train" else raw_te
    if len(raw) == 0:
        raise EmptySplit(f"the {values['split']} split of {values['data']} has no points")
    xs, ys = apply_stats(raw.x, raw.y, stats)
    metrics, mean, var = _scored(post, xs, ys)

    lines = list(values.items()) + [
        ("variant", post.variant),
        ("n_points", len(raw)),
        *metrics.items(),
        *_blas_lines(),
    ]
    rpt.write_kv(outdir / "report.txt", lines)
    if values["dump-predictions"]:
        rows = [
            (i, mean[i], var[i], ys[i], mean[i] * stats.y_std + stats.y_mean)
            for i in range(len(raw))
        ]
        rpt.write_csv(outdir / "predictions.csv",
                      ["index", "mean", "var", "target", "raw_mean"], rows)
    for key, value in metrics.items():
        print(f"{key} = {rpt.format_value(value)}")
    return 0


def _bench_compare(suite: dict, outdir: Path) -> int:
    # the four swept train flags and the list key of each; each list element
    # is checked like a value of its flag
    sweeps = {"data": "data", "model": "models", "objective": "objectives", "seed": "seeds"}
    datasets, models, objectives, seeds = (
        [_convert(TRAIN_OPTS[opt], key, item, "suite")
         for item in _split_list(suite.pop(key))]
        if key in suite else [TRAIN_OPTS[opt].default]
        for opt, key in sweeps.items()
    )

    base: dict = {}
    per_model: dict = {model: {} for model in models}
    for key, raw in suite.items():
        model, _, opt = key.rpartition(".")   # MODEL.key scopes to one model
        target = per_model.get(model) if "." in key else base
        if target is None or opt not in TRAIN_OPTS:
            raise InvalidConfig(f"unknown suite key {key!r}")
        if opt in sweeps:  # every row sets it from its list
            raise InvalidConfig(f"suite key {key!r} sets {opt}, which each row takes "
                                f"from the {sweeps[opt]!r} list; set it there")
        target[opt] = _convert(TRAIN_OPTS[opt], key, raw, "suite")

    # a model whose step reads no objective mode runs once per (dataset, seed),
    # with "-" in its objective cell
    specs = sorted((data, model, mode, seed)
                   for data, model, seed in product(datasets, models, seeds)
                   for mode in (objectives if MODELS[model].modes else ["-"]))
    defaults = {name: opt.default for name, opt in TRAIN_OPTS.items()}
    row_values = {spec: {**defaults, **base, **per_model[spec[1]],
                         **{key: value for key, value in zip(sweeps, spec)
                            if (key, value) != ("objective", "-")}}
                  for spec in specs}
    # a bad config field fails before any row runs
    configs = {spec: _train_config(values) for spec, values in row_values.items()}

    def run_row(spec):
        # a row fails on bad data or a failed factorization; a programming
        # error propagates, as in the solver study
        values = row_values[spec]
        try:
            train_data, test_data = _load_split(values)
            result = _train_model(values, configs[spec], train_data, test_data)
        except (SoftKIError, OSError, np.linalg.LinAlgError) as err:
            return (*spec, float("nan"), float("nan"), float("nan"),
                    f"{type(err).__name__}: {err}")
        trace = result["trace"]
        rmse, nll = result["metrics"]["rmse"], result["metrics"]["nll"]
        if trace.epoch_objectives and not np.isfinite(trace.epoch_objectives[-1]):
            # training never stabilized; mark the row nan but keep it as a
            # completed row rather than a failure
            rmse, nll = float("nan"), float("nan")
        return (*spec, rmse, nll, float(sum(trace.epoch_seconds)), "")

    # each row runs at main's BLAS count, so workers x threads stays <= the CPUs
    workers = max(1, min(len(specs), (os.cpu_count() or 1) // _threads()))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = sorted(pool.map(run_row, specs), key=lambda row: row[:4])

    rpt.write_csv(
        outdir / "results.csv",
        ["dataset", "model", "objective", "seed", "rmse", "nll", "seconds",
         "error"],
        rows,
    )

    groups: dict = {}
    for row in rows:
        groups.setdefault(row[:3], []).append(row)
    agg = []
    for key in sorted(groups):
        members = groups[key]
        rmses = np.array([row[4] for row in members])
        nlls = np.array([row[5] for row in members])
        secs = np.array([row[6] for row in members])
        ddof = 1 if len(members) > 1 else 0
        agg.append((
            *key, len(members),
            float(rmses.mean()), float(rmses.std(ddof=ddof)),
            float(nlls.mean()), float(nlls.std(ddof=ddof)),
            float(secs.mean()),
        ))
    rpt.write_csv(
        outdir / "aggregate.csv",
        ["dataset", "model", "objective", "seeds", "rmse_mean", "rmse_std",
         "nll_mean", "nll_std", "seconds_mean"],
        agg,
    )

    failed = [row for row in rows if row[7]]
    rpt.write_kv(outdir / "report.txt", [
        ("suite", "compare"),
        ("rows_total", len(rows)),
        ("rows_failed", len(failed)),
        ("workers", workers),
        *_blas_lines(),
    ])
    for row in rows:
        print(f"{row[0]}/{row[1]}/{row[2]}/seed{row[3]}: "
              f"rmse = {rpt.format_value(row[4])}"
              + (f" error = {row[7]}" if row[7] else ""))
    return 1 if failed else 0


def _bench_solvers(suite: dict, outdir: Path) -> int:
    for key in suite:
        if key not in SOLVERS_OPTS:
            raise InvalidConfig(f"unknown suite key {key!r}")
    values = {key: _convert(opt, key, suite[key], "suite") if key in suite else opt.default
              for key, opt in SOLVERS_OPTS.items()}
    methods = values.pop("solvers")
    data, hp = near_degenerate_instance(**values)
    results = solver_study(data, hp, methods)

    rpt.write_csv(
        outdir / "solvers.csv",
        ["solver", "train_rmse", "residual", "iterations", "error"],
        [(res.method, res.train_rmse, res.residual, res.iterations, res.error or "")
         for res in results],
    )
    curve_rows = []
    for res in results:
        if res.history:
            curve_rows += [(res.method, i, r)
                           for i, r in enumerate(res.history, start=1)]
        else:
            curve_rows.append((res.method, 0, res.residual))
    rpt.write_csv(outdir / "residuals.csv",
                  ["solver", "iteration", "residual"], curve_rows)
    rpt.write_kv(outdir / "report.txt", [
        ("suite", "solvers"), *values.items(), ("solvers", ",".join(methods)),
        *_blas_lines(),
    ])
    for res in results:
        print(f"{res.method}: train_rmse = {rpt.format_value(res.train_rmse)}")
    return 0


def cmd_bench(values: dict, outdir: Path) -> int:
    suite = dict(_parse_kv_file(values["suite"]))
    kind = suite.pop("suite", "compare")
    if kind == "compare":
        return _bench_compare(suite, outdir)
    if kind == "solvers":
        return _bench_solvers(suite, outdir)
    raise InvalidConfig(f"unknown suite kind {kind!r}")


# --------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "train": (TRAIN_OPTS, cmd_train, "train a model and write a checkpoint"),
    "eval": (EVAL_OPTS, cmd_eval, "evaluate a checkpoint on a dataset"),
    "bench": (BENCH_OPTS, cmd_bench, "run a benchmark suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softki",
        description="Gaussian-process regression with learned softmax "
                    "interpolation points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (opts, fn, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="key = value file supplying flag defaults")
        for opt_name, opt in opts.items():
            kwargs = {"default": None, "help": opt.help}
            if opt.convert is _to_bool:
                kwargs.update(nargs="?", const="true")
            sp.add_argument(f"--{opt_name}", **kwargs)
        sp.set_defaults(_opts=opts, _fn=fn)
    return parser


def _fail(outdir: Path, err: Exception) -> int:
    if isinstance(err, FileNotFoundError):
        message = f"file not found: {err.filename}"
    else:
        message = str(err)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        rpt.write_kv(outdir / "error.txt",
                     [("error", type(err).__name__), ("message", message)])
    except OSError:
        pass  # the stderr line below still reports the failure
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = _resolve(args._opts, args)
    except (OSError, ValueError, SoftKIError) as err:
        return _fail(Path(getattr(args, "out", None) or "run"), err)
    outdir = Path(values["out"])
    try:
        threads = _threads()
        outdir.mkdir(parents=True, exist_ok=True)
        # OpenBLAS read its own variables when it loaded; the count is set here
        with blas_thread_limit(threads):
            return args._fn(values, outdir)
    except (OSError, ValueError, SoftKIError) as err:
        return _fail(outdir, err)


if __name__ == "__main__":
    sys.exit(main())
