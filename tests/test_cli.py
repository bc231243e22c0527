"""End-to-end command line runs through main(argv)."""

import ctypes
import dataclasses
import glob
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import softki.linalg
import softki.posterior
from conftest import overflowing_csv, refuse_objective_factors
from softki import cli
from softki.checkpoint import load_checkpoint, restore
from softki.cli import TRAIN_OPTS, main
from softki.data import apply_stats, load_csv, ricker_raw, split_raw
from softki.report import write_csv
from softki.trainer import DTYPES, OBJECTIVE_MODES, TrainConfig

pytestmark = pytest.mark.filterwarnings(
    "ignore::softki.errors.CGNotConvergedWarning"
)


def write_csv_rows(path, x, y):
    with open(path, "w") as fh:
        for row, target in zip(x, y):
            cells = [format(v, ".17g") for v in row] + [format(target, ".17g")]
            fh.write(",".join(cells) + "\n")


@pytest.fixture(scope="module")
def wave_csv(tmp_path_factory):
    train, _ = ricker_raw(n_train=220, n_test=0, radius=2.5, noise=0.05, seed=0)
    path = tmp_path_factory.mktemp("data") / "wave.csv"
    write_csv_rows(path, train.x, train.y)
    return path


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    """Raw far-out clusters, whose K_zz was numerically indefinite when
    built from float32 z."""
    rng = np.random.default_rng(0)
    centers = np.array([[50.0, -50.0], [-50.0, 50.0], [50.0, 50.0]])
    x = centers[rng.integers(0, 3, 267)] + 0.01 * rng.standard_normal((267, 2))
    y = np.sin(0.1 * x[:, 0])
    path = tmp_path_factory.mktemp("data") / "blob.csv"
    write_csv_rows(path, x, y)
    return path


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


TRAIN_ARGS = ["--m", "12", "--epochs", "3", "--batch-size", "64",
              "--lr", "0.1", "--seed", "0"]


def train_into(outdir, wave_csv, *extra):
    return main(["train", "--data", str(wave_csv), "--out", str(outdir),
                 *TRAIN_ARGS, *extra])


# --------------------------------------------------------------------- train


def test_train_writes_checkpoint_report_and_tables(tmp_path, wave_csv, capsys):
    out = tmp_path / "run"
    assert train_into(out, wave_csv) == 0
    assert (out / "checkpoint.bin").is_file()
    report = read_report(out / "report.txt")
    assert float(report["rmse"]) < 1.0  # standardized targets have unit std
    assert report["epochs_run"] == "3"
    assert report["failed_batches"] == "0"
    assert "rmse = " in capsys.readouterr().out

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,objective,seconds"
    assert len(trace) == 4
    hyper = (out / "hyperparams.csv").read_text().splitlines()
    assert hyper[0] == "kind,dim,value"
    kinds = [line.split(",")[0] for line in hyper[1:]]
    assert kinds == ["lengthscale", "lengthscale", "temperature", "temperature"]


def test_train_dispatches_to_sgpr_and_exact(tmp_path, wave_csv):
    for model in ("sgpr", "exact"):
        out = tmp_path / model
        rc = main(["train", "--model", model, "--data", str(wave_csv),
                   "--out", str(out), "--m", "8", "--epochs", "2",
                   "--lr", "0.05", "--seed", "0"])
        assert rc == 0
        assert load_checkpoint(out / "checkpoint.bin").variant == model


QR_FIT_KEYS = ["fit_block_rows", "fit_blocks", "fit_jitter", "fit_max_stack_rows",
               "fit_residual", "fit_rows"]


@pytest.mark.parametrize("model, keys", [
    ("softki", QR_FIT_KEYS),
    ("sgpr", QR_FIT_KEYS),
    ("exact", ["fit_jitter"]),
])
def test_train_report_carries_the_fit_diagnostics(tmp_path, wave_csv, model, keys):
    out = tmp_path / "run"
    assert main(["train", "--model", model, "--data", str(wave_csv),
                 "--out", str(out), "--m", "8", "--epochs", "1", "--seed", "0"]) == 0
    report = read_report(out / "report.txt")
    assert [key for key in report if key.startswith("fit_")] == keys
    assert float(report["fit_jitter"]) >= 0.0
    if keys == QR_FIT_KEYS:
        assert int(report["fit_blocks"]) >= 2  # the data blocks and the U_zz rows
        assert int(report["fit_rows"]) == int(report["n_train"]) + 8


def test_standardize_false_applies_to_ricker(tmp_path):
    paths = {}
    for flag in ("true", "false"):
        out = tmp_path / flag
        assert main(["train", "--data", "ricker", "--standardize", flag,
                     "--out", str(out), "--m", "8", "--epochs", "1",
                     "--batch-size", "1024", "--seed", "0"]) == 0
        paths[flag] = out / "checkpoint.bin"
    assert paths["true"].read_bytes() != paths["false"].read_bytes()
    stats = load_checkpoint(paths["false"]).stats
    assert np.array_equal(stats.x_mean, [0.0, 0.0])
    assert np.array_equal(stats.x_std, [1.0, 1.0])
    assert (stats.y_mean, stats.y_std) == (0.0, 1.0)


def test_train_has_no_solver_flag(tmp_path, wave_csv):
    # every fit streams the stacked QR; there is no route to choose
    assert "solver" not in TRAIN_OPTS
    with pytest.raises(SystemExit) as exit_info:
        train_into(tmp_path / "qr", wave_csv, "--solver", "qr")
    assert exit_info.value.code == 2  # argparse's usage error
    assert not (tmp_path / "qr" / "checkpoint.bin").exists()


def test_missing_data_file_writes_error_record(tmp_path):
    out = tmp_path / "missing"
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--out", str(out), "--epochs", "1", "--m", "4"])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "FileNotFoundError"
    assert report["message"].startswith("file not found: ")


def test_an_overflowing_csv_column_writes_an_error_record_naming_it(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--data", str(overflowing_csv(tmp_path / "data.csv", 0)),
                 "--out", str(out), "--epochs", "1", "--m", "2"]) == 1
    assert read_report(out / "error.txt") == {
        "error": "NonFiniteInput",
        "message": "the mean or variance of training column 0 overflows float64"}


def test_bad_flag_values_fail_cleanly(tmp_path, wave_csv):
    out = tmp_path / "bad-int"
    assert train_into(out, wave_csv, "--m", "many") == 1
    assert "bad flag value for m" in read_report(out / "error.txt")["message"]
    out2 = tmp_path / "bad-choice"
    rc = main(["train", "--model", "mystery", "--data", str(wave_csv),
               "--out", str(out2)])
    assert rc == 1
    assert "must be one of" in read_report(out2 / "error.txt")["message"]
    out3 = tmp_path / "bad-bool"
    assert train_into(out3, wave_csv, "--header", "maybe") == 1
    assert (read_report(out3 / "error.txt")["message"]
            == "bad flag value for header: expected a boolean, got 'maybe'")


def test_zero_batch_size_fails_naming_the_field(tmp_path, wave_csv):
    out = tmp_path / "zero-batch"
    assert train_into(out, wave_csv, "--batch-size", "0") == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "InvalidConfig"
    assert report["message"].startswith("batch_size must be >= 1")
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("flags, field", [
    (("--objective", "pseudoloss", "--cg-tol", "nan"), "cg_tol"),
    (("--lr-step-factor", "-1", "--lr-step-epochs", "1"), "lr_step_factor"),
    (("--noise-init", "nan"), "noise_init"),
    (("--seed", "-1"), "seed"),
    (("--noise-init", "1e-5"), "noise_init"),
])
def test_non_finite_or_negative_config_fails_naming_the_field(tmp_path, wave_csv,
                                                              flags, field):
    out = tmp_path / "bad"
    assert train_into(out, wave_csv, *flags) == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "InvalidConfig"
    assert report["message"].startswith(f"{field} must be")


@pytest.mark.parametrize("route", ["cg:nan", "cg:inf", "cg:-1", "cg:0"])
def test_cg_solver_needs_a_finite_positive_tolerance(tmp_path, route):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = solvers\nsolvers = qr,{route}\n")
    out = tmp_path / "bad-cg"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "InvalidConfig"
    assert report["message"] == (f"bad suite value for solvers: solver {route!r} "
                                 f"cg tolerance must be in (0, inf), got {float(route[3:])}")
    assert not (out / "solvers.csv").exists()


def test_train_flags_are_the_config_fields():
    # every TrainConfig field is one train flag with its default, type and choices
    spelled = {"learning_rate": "lr", "objective_mode": "objective"}
    choices = {"objective_mode": OBJECTIVE_MODES, "dtype": DTYPES}
    for f in dataclasses.fields(TrainConfig):
        opt = TRAIN_OPTS[spelled.get(f.name, f.name.replace("_", "-"))]
        assert (opt.default, opt.convert, opt.choices) == (
            f.default, f.type, choices.get(f.name)), f.name
    assert cli._train_config({key: opt.default for key, opt in TRAIN_OPTS.items()}) \
        == TrainConfig()
    # the README lists exactly the train flags
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Train flags:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`--([a-z-]+)`", paragraph)) == set(TRAIN_OPTS)


# ---------------------------------------------------------------------- eval


def test_eval_reports_and_is_byte_deterministic(tmp_path, wave_csv):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0

    raw_targets = np.array([float(line.rsplit(",", 1)[1])
                            for line in wave_csv.read_text().splitlines()])
    eval_args = ["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(wave_csv), "--split", "train", "--seed", "0",
                 "--dump-predictions"]
    out1 = tmp_path / "eval1"
    assert main([*eval_args, "--out", str(out1)]) == 0
    report = read_report(out1 / "report.txt")
    assert report["variant"] == "softki"
    assert float(report["rmse_raw"]) < raw_targets.std()

    predictions = (out1 / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "index,mean,var,target,raw_mean"
    assert len(predictions) == 1 + int(report["n_points"])
    variances = np.array([float(r.split(",")[2]) for r in predictions[1:]])
    assert np.all(variances >= 0)

    out2 = tmp_path / "eval2"
    assert main([*eval_args, "--out", str(out2)]) == 0
    assert ((out1 / "report.txt").read_bytes().replace(str(out1).encode(), b"")
            == (out2 / "report.txt").read_bytes().replace(str(out2).encode(), b""))
    assert (out1 / "predictions.csv").read_bytes() == (
        out2 / "predictions.csv").read_bytes()


def test_eval_builds_the_features_once(tmp_path, wave_csv, monkeypatch):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    calls = []
    original = softki.posterior.softmax_weights

    def counting(x, state):
        calls.append(len(x))
        return original(x, state)

    monkeypatch.setattr(softki.posterior, "softmax_weights", counting)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(wave_csv), "--split", "test", "--seed", "0",
                 "--dump-predictions", "--out", str(out)]) == 0
    monkeypatch.undo()
    n_points = int(read_report(out / "report.txt")["n_points"])
    assert calls == [n_points]

    # the same bytes as separate mean and variance calls through restore
    ck = load_checkpoint(run / "checkpoint.bin")
    raw = split_raw(load_csv(wave_csv), train_fraction=0.9, seed=0)[1]
    xs, ys = apply_stats(raw.x, raw.y, ck.stats)
    mean_fn, var_fn = restore(ck)
    mean, var = mean_fn(xs), var_fn(xs)
    stats = ck.stats
    write_csv(tmp_path / "expected.csv", ["index", "mean", "var", "target", "raw_mean"],
              [(i, mean[i], var[i], ys[i], mean[i] * stats.y_std + stats.y_mean)
               for i in range(len(ys))])
    assert (out / "predictions.csv").read_bytes() == (
        tmp_path / "expected.csv").read_bytes()


def test_eval_rejects_mismatched_dimensions(tmp_path, wave_csv):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    rng = np.random.default_rng(1)
    wide = tmp_path / "wide.csv"
    write_csv_rows(wide, rng.standard_normal((30, 3)), rng.standard_normal(30))
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(wide), "--out", str(out)])
    assert rc == 1
    assert read_report(out / "error.txt")["error"] == "DimensionMismatch"


def test_eval_rejects_checkpoint_with_missing_header_key(tmp_path, wave_csv):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    ckpt = run / "checkpoint.bin"
    head, end, payload = ckpt.read_bytes().partition(b"end-header\n")
    head = b"".join(line for line in head.splitlines(keepends=True)
                    if not line.startswith(b"d "))
    ckpt.write_bytes(head + end + payload)
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(wave_csv),
               "--out", str(out)])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "ChecksumOrVersionMismatch"
    assert "'d'" in report["message"]


def test_eval_without_a_checkpoint_is_rejected(tmp_path, wave_csv):
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(wave_csv), "--out", str(out)]) == 1
    assert read_report(out / "error.txt")["message"] == "--checkpoint is required"


@pytest.mark.parametrize("data", ["csv", "ricker"])
def test_eval_rejects_a_negative_seed_naming_it(tmp_path, wave_csv, data):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(wave_csv) if data == "csv" else "ricker",
               "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert read_report(out / "error.txt") == {"error": "InvalidConfig",
                                              "message": "seed must be >= 0, got -1"}


def test_eval_rejects_an_empty_split(tmp_path, wave_csv):
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(wave_csv), "--split", "test", "--train-frac", "1",
               "--out", str(out)])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "EmptySplit"
    assert "the test split" in report["message"]


def with_far_cell(tmp_path, wave_csv, row, column):
    """wave_csv with 1e200 in one cell, at a new path; and its lines."""
    lines = wave_csv.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = "1e200"
    lines[row] = ",".join(cells)
    far = tmp_path / "far.csv"
    far.write_text("\n".join(lines) + "\n")
    return far, lines


def test_eval_rejects_a_non_finite_metric(tmp_path, wave_csv):
    # a finite target this far out overflows the squared error to an inf rmse
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    far, lines = with_far_cell(tmp_path, wave_csv, 5, -1)
    out = tmp_path / "eval"
    with np.errstate(all="ignore"):
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                   "--data", str(far), "--split", "train", "--train-frac", "1",
                   "--out", str(out)])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "NonFiniteResult"
    assert report["message"] == f"rmse is inf; 0 of {len(lines)} predictions are not finite"
    assert not (out / "report.txt").exists()


def test_eval_names_a_far_query_row(tmp_path, wave_csv):
    # a finite input cell this far out overflows the squared distance: it gave
    # a nan prediction, and is refused as input, by its row in the split
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    far, lines = with_far_cell(tmp_path, wave_csv, 5, 0)
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(far), "--split", "train", "--train-frac", "1",
               "--out", str(out)])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "NonFiniteInput"
    row = int(np.flatnonzero(np.random.default_rng(0).permutation(len(lines)) == 5)[0])
    assert report["message"] == (f"query row {row} (0-based) overflows the squared "
                                 "distance in float64")
    assert not (out / "report.txt").exists()


def test_train_with_an_empty_test_split_reports_nan_metrics(tmp_path, wave_csv):
    out = tmp_path / "run"
    assert train_into(out, wave_csv, "--train-frac", "1") == 0
    report = read_report(out / "report.txt")
    assert report["n_test"] == "0"
    assert [report[key] for key in ("rmse", "nll", "rmse_raw")] == ["nan"] * 3


def test_train_rejects_a_non_finite_test_metric(tmp_path, wave_csv):
    # one far target in a test row: training is unaffected, its squared error is inf
    test_row = np.random.default_rng(0).permutation(220)[-1]  # split_raw's order
    far, _ = with_far_cell(tmp_path, wave_csv, test_row, -1)
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(far), "--out", str(out),
                   "--m", "8", "--epochs", "2", "--seed", "0"])
    assert rc == 1
    report = read_report(out / "error.txt")
    assert report["error"] == "NonFiniteResult"
    assert report["message"] == "rmse is inf; 0 of 22 predictions are not finite"
    assert not (out / "report.txt").exists()


# -------------------------------------------------------------------- config


def test_config_file_flags_and_report_replay_agree(tmp_path, wave_csv):
    by_flags = tmp_path / "flags"
    assert train_into(by_flags, wave_csv) == 0
    flags_report = read_report(by_flags / "report.txt")

    config = tmp_path / "run.conf"
    config.write_text(
        f"data = {wave_csv}\nm = 12\nepochs = 3\nbatch-size = 64\n"
        "lr = 0.1\nseed = 0\n"
    )
    by_config = tmp_path / "config"
    rc = main(["train", "--config", str(config), "--out", str(by_config)])
    assert rc == 0
    config_report = read_report(by_config / "report.txt")

    replayed = tmp_path / "replayed"
    rc = main(["train", "--config", str(by_flags / "report.txt"),
               "--out", str(replayed)])
    assert rc == 0
    replay_report = read_report(replayed / "report.txt")

    volatile = {"out", "seconds_total"}
    for key in flags_report:
        if key in volatile or key.startswith("seconds"):
            continue
        assert flags_report[key] == config_report[key], key
        assert flags_report[key] == replay_report[key], key


def test_config_file_skips_comments_and_blank_lines_and_names_a_bad_line(
        tmp_path, wave_csv):
    config = tmp_path / "run.conf"
    config.write_text("# a comment\n\n   \nprobes = 3\n")
    out = tmp_path / "run"
    assert train_into(out, wave_csv, "--config", str(config)) == 0
    assert read_report(out / "report.txt")["probes"] == "3"

    config.write_text("# a comment\nepochs 2\n")
    out = tmp_path / "bad"
    assert train_into(out, wave_csv, "--config", str(config)) == 1
    assert (read_report(out / "error.txt")["message"]
            == f"{config}:2: expected 'key = value'")


def test_report_with_a_solver_line_still_replays(tmp_path, wave_csv):
    # reports written while train had a --solver flag carry "solver = qr" and a
    # "fit_solver = qr" line, and older reports a "threads" line; replaying one
    # ignores them all, as it ignores outputs
    run = tmp_path / "run"
    assert train_into(run, wave_csv) == 0
    lines = (run / "report.txt").read_text().splitlines()
    lines.insert(next(i for i, line in enumerate(lines) if line.startswith("dtype = ")) + 1,
                 "solver = qr")
    lines.insert(next(i for i, line in enumerate(lines) if line.startswith("fit_rows = ")) + 1,
                 "fit_solver = qr")
    lines.insert(next(i for i, line in enumerate(lines)
                      if line.startswith("seconds_total = ")) + 1, "threads = 1")
    old = tmp_path / "old-report.txt"
    old.write_text("\n".join(lines) + "\n")
    replayed = tmp_path / "replayed"
    assert main(["train", "--config", str(old), "--out", str(replayed)]) == 0
    assert (replayed / "checkpoint.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()
    replay_report = read_report(replayed / "report.txt")
    assert "solver" not in replay_report and "threads" not in replay_report


def test_flags_override_config_file(tmp_path, wave_csv):
    config = tmp_path / "run.conf"
    config.write_text(f"data = {wave_csv}\nm = 12\nepochs = 3\nseed = 0\n")
    out = tmp_path / "override"
    rc = main(["train", "--config", str(config), "--epochs", "1",
               "--out", str(out)])
    assert rc == 0
    report = read_report(out / "report.txt")
    assert report["epochs"] == "1" and report["epochs_run"] == "1"
    assert report["m"] == "12"


# --------------------------------------------------------------------- bench


def test_bench_compare_rows_and_aggregates(tmp_path, wave_csv):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "suite = compare\n"
        f"data = {wave_csv}\n"
        "models = softki,sgpr\n"
        "seeds = 0,1,2\n"
        "m = 8\nepochs = 2\nbatch-size = 64\nlr = 0.1\n"
        "sgpr.lr = 0.05\n"
    )
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0

    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "dataset,model,objective,seed,rmse,nll,seconds,error"
    assert len(results) == 1 + 6  # 2 models x 3 seeds
    assert all(row.endswith(",") for row in results[1:])  # no errors

    aggregate = (out / "aggregate.csv").read_text().splitlines()
    assert len(aggregate) == 1 + 2
    for row in aggregate[1:]:
        cells = row.split(",")
        assert cells[3] == "3"  # seeds per group
        assert np.isfinite(float(cells[4])) and float(cells[5]) >= 0

    report = read_report(out / "report.txt")
    assert report["rows_total"] == "6" and report["rows_failed"] == "0"


def test_bench_runs_a_model_without_objective_modes_once(tmp_path, wave_csv):
    # sgpr's and the exact GP's steps read no objective mode: each runs once
    # per (dataset, seed), with "-" in its objective cell
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "suite = compare\n"
        f"data = {wave_csv}\n"
        "models = softki,sgpr,exact\n"
        "objectives = auto,pseudoloss\n"
        "seeds = 0\n"
        "m = 4\nepochs = 1\nbatch-size = 64\n"
    )
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    rows = [line.split(",")[1:4] for line in
            (out / "results.csv").read_text().splitlines()[1:]]
    assert rows == [["exact", "-", "0"], ["sgpr", "-", "0"],
                    ["softki", "auto", "0"], ["softki", "pseudoloss", "0"]]
    aggregate = (out / "aggregate.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in aggregate] == [row[:2] for row in rows]


def test_bench_marks_destabilized_rows_nan_but_completes(tmp_path, blob_csv, monkeypatch):
    # the training objectives' factors are refused, as on a K_zz that fails
    # every jitter rung; the posterior's factors run as before
    refuse_objective_factors(monkeypatch)
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "suite = compare\n"
        f"data = {blob_csv}\n"
        "models = softki\n"
        "objectives = exact,auto\n"
        "seeds = 0\n"
        "standardize = false\n"
        "m = 9\nepochs = 1\nbatch-size = 120\nlr = 0.01\ndtype = float32\n"
    )
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0

    rows = {}
    for line in (out / "results.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        rows[cells[2]] = cells
    assert rows["exact"][4] == "nan" and rows["exact"][5] == "nan"
    assert rows["exact"][7] == ""  # nan rows still count as completed
    assert np.isfinite(float(rows["auto"][4]))
    assert read_report(out / "report.txt")["rows_failed"] == "0"


def openblas_threads():
    """Thread counts of numpy's and scipy's bundled OpenBLAS, read through ctypes."""
    counts = {}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        site = Path(pkg.__file__).resolve().parent.parent
        libs = sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "libscipy_openblas*.so")))
        if not libs:
            pytest.skip(f"{pkg.__name__} bundles no OpenBLAS")
        get_threads = getattr(ctypes.CDLL(libs[0]), symbol)
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        counts[pkg.__name__] = get_threads()
    return counts


def spy_on_blas_threads(monkeypatch):
    """Record the OpenBLAS thread counts each softki training call runs at."""
    seen = []
    train_fn = cli.train

    def spy(data, cfg, model):
        if model == "softki":
            seen.append(openblas_threads())
        return train_fn(data, cfg, model)

    monkeypatch.setattr(cli, "train", spy)
    return seen


def test_softki_threads_caps_both_blas_runtimes(tmp_path, wave_csv, monkeypatch):
    before = openblas_threads()
    cap = 2 if before["numpy"] == 1 else 1  # a count the runtimes do not have yet
    seen = spy_on_blas_threads(monkeypatch)
    monkeypatch.setenv("SOFTKI_THREADS", str(cap))
    out = tmp_path / "run"
    assert train_into(out, wave_csv) == 0
    assert seen == [{"numpy": cap, "scipy": cap}]
    report = read_report(out / "report.txt")
    assert (report["blas_threads_numpy"], report["blas_threads_scipy"]) == (str(cap), str(cap))
    assert openblas_threads() == before  # main restores the counts it changed


def test_report_says_uncapped_where_a_runtime_has_no_setter(tmp_path, wave_csv, monkeypatch):
    np_entry, scipy_entry = softki.linalg._OPENBLAS
    monkeypatch.setattr(softki.linalg, "_OPENBLAS",
                        (np_entry, (scipy, "no_such_symbol", scipy_entry[2])))
    monkeypatch.delenv("SOFTKI_THREADS", raising=False)
    out = tmp_path / "run"
    assert train_into(out, wave_csv) == 0
    report = read_report(out / "report.txt")
    assert report["blas_threads_scipy"] == "uncapped"
    assert report["blas_threads_numpy"] == "1"  # the count the command ran at


@pytest.mark.parametrize("env", [
    pytest.param({}, id="unset"),
    pytest.param({"SOFTKI_THREADS": ""}, id="empty"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, id="openblas-ignored"),
])
def test_commands_run_at_one_blas_thread_unless_softki_threads_is_set(
        tmp_path, wave_csv, monkeypatch, env):
    # test_softki_threads_caps_both_blas_runtimes covers SOFTKI_THREADS=k
    seen = spy_on_blas_threads(monkeypatch)
    for var in ("SOFTKI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with softki.linalg.blas_thread_limit(2):  # a count main has to change
        assert train_into(tmp_path / "run", wave_csv) == 0
    assert seen == [{"numpy": 1, "scipy": 1}]


@pytest.mark.parametrize("command", ["train", "eval", "bench"])
@pytest.mark.parametrize("value", ["0", "-1", "abc", "1.5"])
def test_bad_softki_threads_fails_before_the_command_runs(
        tmp_path, wave_csv, monkeypatch, command, value):
    monkeypatch.setenv("SOFTKI_THREADS", value)
    args = {
        "train": ["--data", str(wave_csv), *TRAIN_ARGS],
        "eval": ["--checkpoint", str(tmp_path / "missing.bin")],
        "bench": ["--suite", str(tmp_path / "missing.txt")],
    }[command]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 1
    error = read_report(out / "error.txt")
    assert error["error"] == "InvalidConfig"
    assert "SOFTKI_THREADS" in error["message"]
    assert sorted(path.name for path in out.iterdir()) == ["error.txt"]


@pytest.mark.parametrize("softki_threads, threads", [(None, 1), ("2", 2)])
def test_commands_run_at_softki_threads_whatever_openblas_loaded_with(
        tmp_path, wave_csv, softki_threads, threads):
    # OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, and this process
    # loaded it at one thread, so the commands run in a fresh interpreter
    openblas_threads()  # skips where a runtime bundles no OpenBLAS
    src = Path(softki.linalg.__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    env.pop("SOFTKI_THREADS", None)
    if softki_threads is not None:
        env["SOFTKI_THREADS"] = softki_threads
    run, evaluated = tmp_path / "run", tmp_path / "eval"
    for argv in (["train", "--data", str(wave_csv), "--out", str(run), *TRAIN_ARGS],
                 ["eval", "--checkpoint", str(run / "checkpoint.bin"),
                  "--data", str(wave_csv), "--out", str(evaluated)]):
        done = subprocess.run([sys.executable, "-c",
                               "import sys; from softki.cli import main; sys.exit(main())",
                               *argv], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    for out in (run, evaluated):
        report = read_report(out / "report.txt")
        assert (report["blas_threads_numpy"], report["blas_threads_scipy"]) == (str(threads),) * 2


@pytest.mark.parametrize("seeds, per_row", [("0", 2), ("0,1", 1), ("0,1", 2)])
def test_bench_keeps_workers_times_blas_threads_within_the_cap(
        tmp_path, wave_csv, monkeypatch, seeds, per_row):
    # rows run at SOFTKI_THREADS each, cpu_count // SOFTKI_THREADS at once
    before = openblas_threads()
    seen = spy_on_blas_threads(monkeypatch)
    monkeypatch.setenv("SOFTKI_THREADS", str(per_row))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = compare\ndata = {wave_csv}\nmodels = softki\n"
                     f"seeds = {seeds}\nm = 6\nepochs = 1\nbatch-size = 64\n")
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    rows = len(seeds.split(","))
    report = read_report(out / "report.txt")
    assert int(report["workers"]) == min(rows, 2 // per_row)
    assert (report["blas_threads_numpy"], report["blas_threads_scipy"]) == (str(per_row),) * 2
    assert seen == [{"numpy": per_row, "scipy": per_row}] * rows
    assert openblas_threads() == before


def test_bench_row_failures_set_exit_status(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "suite = compare\ndata = does-not-exist.csv\nseeds = 0\n"
        "m = 4\nepochs = 1\n"
    )
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and "FileNotFoundError" in rows[0]
    assert read_report(out / "report.txt")["rows_failed"] == "1"


def test_bench_row_lets_a_programming_error_propagate(tmp_path, wave_csv, monkeypatch):
    # a row records a SoftKIError, OSError or LinAlgError; anything else is a
    # defect in the program, not a failed row
    def broken(*args):
        raise TypeError("broken row")

    monkeypatch.setattr(cli, "_train_model", broken)
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = compare\ndata = {wave_csv}\nseeds = 0\nm = 4\nepochs = 1\n")
    with pytest.raises(TypeError, match="broken row"):
        main(["bench", "--suite", str(suite), "--out", str(tmp_path / "bench")])


def test_bench_rejects_unknown_suite_keys(tmp_path, wave_csv):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = compare\ndata = {wave_csv}\nbogus = 1\n")
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    assert "unknown suite key" in read_report(out / "error.txt")["message"]


# each row sets the four swept flags from their lists, so a scalar or scoped
# form of one was accepted and then overwritten: a suite with model = sgpr,
# seed = 3 and objective = exact ran one row, ricker,softki,auto,0
@pytest.mark.parametrize("line, listed", [
    ("model = sgpr", "models"), ("seed = 3", "seeds"), ("objective = exact", "objectives"),
    ("softki.seed = 1", "seeds"), ("sgpr.data = ricker", "data"),
    ("softki.model = sgpr", "models"), ("softki.objective = exact", "objectives"),
])
def test_bench_refuses_a_single_form_of_a_swept_key(tmp_path, line, listed):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = compare\nmodels = softki,sgpr\n{line}\nm = 8\nepochs = 1\n")
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    report = read_report(out / "error.txt")
    key = line.partition(" =")[0]
    assert report["error"] == "InvalidConfig"
    assert f"suite key '{key}'" in report["message"]
    assert f"the '{listed}' list" in report["message"]
    assert not (out / "results.csv").exists()  # refused before any row ran


@pytest.mark.parametrize("text, message", [
    ("suite = sweep\n", "unknown suite kind 'sweep'"),
    ("suite = solvers\nbogus = 1\n", "unknown suite key 'bogus'"),
])
def test_bench_rejects_an_unknown_suite_kind_or_solvers_key(tmp_path, text, message):
    suite = tmp_path / "suite.txt"
    suite.write_text(text)
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    assert read_report(out / "error.txt")["message"] == message


@pytest.mark.parametrize("command, config_text", [
    (["train", "--data", "{data}", "--m", "many"], None),
    (["train", "--data", "{data}", "--model", "mystery"], None),
    (["train", "--data", "{data}", "--header", "maybe"], None),
    (["train", "--data", "{data}", "--config", "{config}"], "epochs 2\n"),
    (["eval", "--data", "{data}"], None),
    (["bench", "--suite", "{config}"], "suite = nope\n"),
    (["bench", "--suite", "{config}"], "suite = compare\nbogus = 1\n"),
    (["bench", "--suite", "{config}"], "suite = solvers\nbogus = 1\n"),
])
def test_cli_configuration_errors_are_invalid_config(tmp_path, wave_csv, command,
                                                     config_text):
    config = tmp_path / "config.txt"
    if config_text is not None:
        config.write_text(config_text)
    out = tmp_path / "out"
    argv = [arg.format(config=config, data=wave_csv) for arg in command]
    assert main([*argv, "--out", str(out)]) == 1
    assert read_report(out / "error.txt")["error"] == "InvalidConfig"


@pytest.mark.parametrize("lines, key", [
    ("dtype = float16", "dtype"),
    ("objectives = exakt", "objectives"),
    ("models = softki,mystery", "models"),
    ("seeds = 0,one", "seeds"),
    ("models = softki,sgpr\nsgpr.dtype = float16", "sgpr.dtype"),
    ("batch-size = 0", "batch_size"),
    ("solver = cg:0", "solver"),
])
def test_bench_checks_suite_values_before_any_row(tmp_path, wave_csv, lines, key):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = compare\ndata = {wave_csv}\nm = 4\nepochs = 1\n"
                     f"{lines}\n")
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    assert key in read_report(out / "error.txt")["message"]
    assert not (out / "results.csv").exists()


def test_bench_solvers_suite_emits_residual_curves(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("suite = solvers\nn = 300\nm = 16\nseed = 0\n")
    out = tmp_path / "solvers"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0

    solver_rows = (out / "solvers.csv").read_text().splitlines()
    assert solver_rows[0] == "solver,train_rmse,residual,iterations,error"
    methods = [row.split(",")[0] for row in solver_rows[1:]]
    assert methods == ["qr", "direct", "cholesky", "cg:1e-1", "cg:1e-2",
                       "cg:1e-3", "cg:1e-4"]

    curves = {}
    for line in (out / "residuals.csv").read_text().splitlines()[1:]:
        method, iteration, _ = line.split(",")
        curves.setdefault(method, []).append(int(iteration))
    assert curves["qr"] == [0]  # direct routes report a single residual
    assert len(curves["cg:1e-4"]) > 1
    report = read_report(out / "report.txt")
    assert report["suite"] == "solvers" and report["n"] == "300"


@pytest.mark.parametrize("line, message", [
    ("dtype = float16", "dtype must be one of float64, float32"),
    ("n = abc", "bad suite value for n:"),
    ("seed = 1.5", "bad suite value for seed:"),
    ("seed = -1", "seed must be >= 0, got -1"),
    ("m = 5", "m must be an even number >= 2, got 5"),
    ("n = 5", "n must be >= m = 24, got 5"),
    ("solvers = qr,bogus", "bad suite value for solvers:"),
    ("solvers = qr,cg:nan", "solver 'cg:nan' cg tolerance must be in (0, inf), got nan"),
])
def test_bench_solvers_checks_suite_values(tmp_path, line, message):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"suite = solvers\n{line}\n")
    out = tmp_path / "solvers"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 1
    error = read_report(out / "error.txt")
    assert error["error"] == "InvalidConfig" and message in error["message"]
    assert not (out / "solvers.csv").exists()
