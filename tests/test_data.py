"""CSV loading, splits, standardization, the synthetic wavelet task, and the
input rules every entry point shares."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softki.data
from conftest import overflowing_csv
from softki.data import (
    Dataset,
    Standardization,
    apply_stats,
    integer,
    load_csv,
    points,
    ricker,
    ricker_dataset,
    ricker_raw,
    split_raw,
    split_standardize,
    standardize,
    stream,
)
from softki.errors import (
    DegenerateColumnWarning,
    DimensionMismatch,
    EmptyFile,
    InvalidConfig,
    NonFiniteInput,
    ParseError,
    SoftKIError,
)
from softki.interp import Hyperparams, softmax_forward, softmax_weights_backward
from softki.kernel import MaternParams
from softki.linalg import cholesky_upper, tri_solve_upper
from softki.posterior import (Posterior, fit_qr, near_degenerate_instance, predict,
                              solver_route)
from softki.trainer import TrainConfig, kmeans


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------------- csv


def test_load_csv_last_column_is_the_target(tmp_path):
    data = load_csv(write(tmp_path, "1.0,2.0,3.0\n4.0,5.0,6.0\n"))
    assert np.array_equal(data.x, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(data.y, [3.0, 6.0])
    assert data.split == "raw" and data.stats is None


def test_load_csv_header_and_target_column(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
    data = load_csv(path, header=True, target_column=0)
    assert np.array_equal(data.x, [[2.0, 3.0], [5.0, 6.0]])
    assert np.array_equal(data.y, [1.0, 4.0])


def test_load_csv_skips_blank_lines(tmp_path):
    data = load_csv(write(tmp_path, "1,2\n\n3,4\n\n"))
    assert len(data) == 2


def test_bad_cell_reports_one_based_position(tmp_path):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, "1,abc\n"))
    assert (info.value.row, info.value.col) == (1, 2)
    assert "abc" in str(info.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_reports_its_position(tmp_path, cell):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, f"1,2,3\n4,{cell},6\n"))
    assert (info.value.row, info.value.col) == (2, 2)
    assert info.value.text == cell


def test_ragged_row_reports_first_extra_or_missing_column(tmp_path):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, "1,2,3\n4,5\n"))
    assert (info.value.row, info.value.col) == (2, 3)
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, "1,2\n3,4,5\n"))
    assert (info.value.row, info.value.col) == (2, 3)


def test_header_row_counts_toward_line_numbers(tmp_path):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, "a,b\n1,x\n"), header=True)
    assert (info.value.row, info.value.col) == (2, 2)


def test_empty_inputs_rejected(tmp_path):
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, ""))
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "\n\n"))
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "a,b\n"), header=True)


def _outcome(read):
    try:
        data = read()
    except (ValueError, EmptyFile, ParseError, DimensionMismatch) as err:
        return type(err), str(err)
    return data.x, data.y


# (text, header); the first four are files where loadtxt and the row parser
# disagree, so loadtxt must reject them and hand them to the row parser
FAST_PATH_CASES = [
    ("1,2\n   \n3,4\n", False),    # whitespace-only line: the row parser skips it
    ("1_0,2\n3,4\n", False),       # python's float reads the underscore
    ('"1",2\n3,4\n', False),       # quoted cell
    ("1,2,\n3,4,\n", False),       # trailing comma: an empty cell
    ("1,nan\n3,4\n", False),
    ("1,2\n-inf,4\n", False),
    ("1,2,3\n4,5\n", False),
    ("a,b\n1,x\n", True),
    ("", False),
    ("\n\n", False),
    ("a,b\n", True),
    ("x,y\n 1.5 ,\t2\r\n+.5,1e-3\r\n\n", True),
    ("1\n2\n", False),
]


@pytest.mark.parametrize("text, header", FAST_PATH_CASES)
def test_load_csv_fast_path_agrees_with_the_row_parser(tmp_path, monkeypatch, text, header):
    path = write(tmp_path, text)
    if (text, header) in FAST_PATH_CASES[:4]:
        assert softki.data._parse_fast(path, header) is None
    fast = _outcome(lambda: load_csv(path, header=header))
    monkeypatch.setattr(softki.data, "_parse_fast", lambda path, header: None)
    rows = _outcome(lambda: load_csv(path, header=header))
    assert type(fast[0]) is type(rows[0])
    if isinstance(rows[0], type):
        assert fast == rows
    else:
        assert np.array_equal(fast[0], rows[0]) and np.array_equal(fast[1], rows[1])


def test_load_csv_fast_path_reads_full_precision_floats_exactly(tmp_path):
    rng = np.random.default_rng(0)
    table = rng.standard_normal((300, 6)) * 10.0 ** rng.integers(-300, 300, (300, 6))
    path = tmp_path / "floats.csv"
    np.savetxt(path, table, delimiter=",", fmt="%.17g")
    fast = softki.data._parse_fast(path, False)
    assert fast is not None  # the fast path took it
    assert np.array_equal(fast, softki.data._parse_rows(path, False))
    assert np.array_equal(fast, table)


def test_target_column_bounds_and_single_column(tmp_path):
    path = write(tmp_path, "1,2\n")
    with pytest.raises(DimensionMismatch):
        load_csv(path, target_column=5)
    with pytest.raises(DimensionMismatch):
        load_csv(write(tmp_path, "1\n2\n", name="one.csv"))


# ------------------------------------------------------------------- dataset


def test_dataset_validates_row_counts_and_preserves_dtype():
    with pytest.raises(DimensionMismatch):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(4))
    data = Dataset(x=np.zeros((3, 2), dtype=np.float32),
                   y=np.zeros(3, dtype=np.float32))
    assert data.x.dtype == np.float32 and data.y.dtype == np.float32
    assert len(data) == 3


@pytest.mark.parametrize("field, row, col, value", [
    ("x", 3, 1, np.nan),
    ("x", 0, 0, np.inf),
    ("y", 4, 0, -np.inf),
])
def test_dataset_rejects_non_finite_values_naming_the_cell(field, row, col, value):
    x, y = np.ones((6, 2)), np.zeros(6)
    (x if field == "x" else y[:, None])[row, col] = value
    with pytest.raises(NonFiniteInput, match=rf"{field} row {row}, column {col} \(0-based\)"):
        Dataset(x=x, y=y)


# -------------------------------------------------------------------- splits


def test_split_raw_partitions_and_is_seeded():
    data = Dataset(x=np.arange(20.0)[:, None], y=np.arange(20.0))
    tr, te = split_raw(data, train_fraction=0.8, seed=3)
    assert len(tr) == 16 and len(te) == 4
    merged = np.sort(np.concatenate([tr.y, te.y]))
    assert np.array_equal(merged, np.arange(20.0))
    tr2, _ = split_raw(data, train_fraction=0.8, seed=3)
    assert np.array_equal(tr.x, tr2.x)
    tr3, _ = split_raw(data, train_fraction=0.8, seed=4)
    assert not np.array_equal(tr.y, tr3.y)


def test_split_raw_fraction_validation():
    data = Dataset(x=np.zeros((5, 1)), y=np.zeros(5))
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(InvalidConfig, match="train_fraction"):
            split_raw(data, train_fraction=bad)
    tr, te = split_raw(data, train_fraction=1.0)
    assert len(tr) == 5 and len(te) == 0


def test_a_negative_seed_fails_naming_the_seed():
    data = Dataset(x=np.zeros((5, 1)), y=np.zeros(5))
    with pytest.raises(InvalidConfig, match=r"^seed must be >= 0, got -1$"):
        split_raw(data, seed=-1)
    with pytest.raises(InvalidConfig, match=r"^seed must be >= 0, got -1$"):
        ricker_raw(n_train=4, n_test=2, seed=-1)


def test_split_standardize_uses_train_statistics_only():
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(5.0, 3.0, (200, 3)), y=rng.normal(-2.0, 0.5, 200))
    tr, te = split_standardize(data, train_fraction=0.75, seed=1)
    assert np.allclose(tr.x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(tr.x.std(axis=0), 1.0, atol=1e-12)
    assert tr.y.mean() == pytest.approx(0.0, abs=1e-12)
    assert tr.y.std() == pytest.approx(1.0, abs=1e-12)
    # the test split reuses train statistics, so it is close to but not
    # exactly standardized
    assert abs(te.x.mean()) < 0.5 and not np.allclose(te.x.mean(axis=0), 0.0)
    assert tr.stats is te.stats
    xs, ys = apply_stats(te.x * tr.stats.x_std + tr.stats.x_mean,
                         te.y * tr.stats.y_std + tr.stats.y_mean, tr.stats)
    assert np.allclose(xs, te.x, atol=1e-12)
    assert np.allclose(ys, te.y, atol=1e-12)


@pytest.mark.parametrize("field, value", [
    ("x_mean", np.array([0.0, np.nan])), ("y_mean", np.inf),
    ("x_std", np.array([1.0, 0.0])), ("x_std", np.array([1.0, np.nan])),
    ("y_std", -1.0), ("y_std", np.inf),
])
def test_standardization_rejects_bad_statistics(field, value):
    fields = dict(x_mean=np.zeros(2), x_std=np.ones(2), y_mean=0.0, y_std=1.0)
    with pytest.raises(InvalidConfig, match=f"^{field} must be"):
        Standardization(**{**fields, field: value})


def test_constant_column_warns_and_keeps_finite_values():
    x = np.ones((30, 2))
    x[:, 1] = np.arange(30.0)
    data = Dataset(x=x, y=np.arange(30.0))
    with pytest.warns(DegenerateColumnWarning):
        tr, te = split_standardize(data, train_fraction=0.5, seed=0)
    assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(te.x))
    assert np.allclose(tr.x[:, 0], 0.0)  # (1 - 1) / forced std of 1


@pytest.mark.parametrize("column, name", [(1, "column 1"), (2, "targets")])
def test_an_overflowing_training_variance_names_its_column(tmp_path, column, name):
    # numpy's overflow warning would fail the test; the error names the
    # column, not the x_std or y_std the overflow turned into inf
    message = f"^the mean or variance of training {name} overflows float64$"
    with pytest.raises(NonFiniteInput, match=message):
        split_standardize(load_csv(overflowing_csv(tmp_path / "data.csv", column)))


def test_constant_targets_warn_and_get_a_unit_std():
    x = np.arange(20.0).reshape(10, 2)
    with pytest.warns(DegenerateColumnWarning, match="targets have zero variance"):
        tr, te = split_standardize(Dataset(x=x, y=np.full(10, 3.0)),
                                   train_fraction=0.5, seed=0)
    assert tr.stats.y_std == 1.0
    assert np.array_equal(tr.y, np.zeros(5)) and np.array_equal(te.y, np.zeros(5))


# -------------------------------------------------------------------- ricker


def test_ricker_closed_form_values():
    assert ricker(np.zeros((1, 2)))[0] == pytest.approx(1.0)
    # r = 1: the bracket vanishes
    assert ricker(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
    r2 = 2.0
    expected = (1.0 - r2) * np.exp(-r2 / 2.0)
    assert ricker(np.array([[1.0, 1.0]]))[0] == pytest.approx(expected, rel=1e-14)


def test_ricker_is_radially_symmetric():
    a = ricker(np.array([[0.3, 0.4]]))[0]
    b = ricker(np.array([[0.5, 0.0]]))[0]
    assert a == pytest.approx(b, rel=1e-12)


def test_ricker_raw_split_shapes_and_noise_placement():
    tr, te = ricker_raw(n_train=100, n_test=40, noise=0.1, seed=0)
    assert tr.x.shape == (100, 2) and te.x.shape == (40, 2)
    assert np.max(np.abs(tr.x)) <= 2.5  # default domain half-width
    # noise goes on training targets only; test targets stay exact
    assert not np.allclose(tr.y, ricker(tr.x))
    assert np.array_equal(te.y, ricker(te.x))
    clean_tr, _ = ricker_raw(n_train=100, n_test=40, noise=0.0, seed=0)
    assert np.array_equal(clean_tr.y, ricker(clean_tr.x))


def test_ricker_dataset_is_standardized_and_seeded():
    tr, te = ricker_dataset(n_train=500, n_test=50, radius=2.5, seed=7)
    assert tr.y.mean() == pytest.approx(0.0, abs=1e-12)
    assert tr.y.std() == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(tr.x.mean(axis=0), 0.0, atol=1e-12)
    assert tr.stats is te.stats

    tr2, te2 = ricker_dataset(n_train=500, n_test=50, radius=2.5, seed=7)
    assert np.array_equal(tr.x, tr2.x) and np.array_equal(te.y, te2.y)
    tr3, _ = ricker_dataset(n_train=500, n_test=50, radius=2.5, seed=8)
    assert not np.array_equal(tr.x, tr3.x)


# ---------------------------------------------------------------- input rules


def test_points_reads_one_row_and_converts_integers_and_bools():
    row = points(np.arange(3), "x")
    assert row.shape == (1, 3) and row.dtype == np.float64
    assert points(np.eye(2, dtype=bool), "x").dtype == np.float64
    rows = np.ones((4, 2), dtype=np.float32)
    assert points(rows, "x") is rows  # float rows pass through as they are


def test_integer_returns_an_int():
    value = integer(np.int64(3), "n", 1)
    assert value == 3 and type(value) is int


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_a_stream_without_tags_is_default_rngs(seed):
    assert np.array_equal(stream(seed).random(8), np.random.default_rng(seed).random(8))


def _fitted():
    return fit_qr(*near_degenerate_instance(n=40, m=4, dtype="float64"))


_Z_KERNEL = MaternParams(np.ones(2), 1.0)
_NAN_Z = np.array([[0.0, 0.0], [np.nan, 1.0]])
_FOUR_ROWS = Dataset(x=np.zeros((4, 2)), y=np.zeros(4))
_BAD_ROWS = {"3-D": np.zeros((3, 2, 1)), "strings": np.array([["a", "b"], ["c", "d"]])}
_Z = np.zeros((3, 2))
_STATS = dict(x_mean=np.zeros(2), x_std=np.ones(2), y_mean=0.0, y_std=1.0)
_HP = Hyperparams(1.0, _Z_KERNEL, _Z, np.ones(2))   # softki's record, m = 3
_SGPR_HP = Hyperparams(1.0, _Z_KERNEL, _Z)           # sgpr's and exact's, m = 3
_NO_POINTS = Hyperparams(1.0, _Z_KERNEL, np.zeros((0, 2)), np.ones(2))
_GRID = Dataset(x=np.arange(8.0).reshape(4, 2), y=np.arange(4.0))  # no constant column
_ROOT = np.triu(np.ones((3, 3)))


def _with_entry(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


def _backward(upstream_shape):
    w, dist = softmax_forward(np.zeros((2, 2)), _HP)
    return softmax_weights_backward(np.zeros((2, 2)), _HP, w, dist, np.zeros(upstream_shape))

# one row per entry point and input: what it is called with, the SoftKIError
# subclass it raises and the message, which names the argument. The suite
# fails on any RuntimeWarning, so no case may warn on its way there
BOUNDARY = [
    *(pytest.param(lambda s=seed: kmeans(np.zeros((5, 2)), 2, seed=s), InvalidConfig,
                   rf"^seed must be {text}$", id=f"kmeans-seed={seed}")
      for seed, text in ((-1, ">= 0, got -1"), (1.5, "an integer, got 1.5"),
                         (True, "an integer, got True"))),
    pytest.param(lambda: split_raw(_FOUR_ROWS, seed=1.5), InvalidConfig,
                 "^seed must be an integer, got 1.5$", id="split_raw-seed=1.5"),
    pytest.param(lambda: ricker_raw(4, 2, seed=1.5), InvalidConfig,
                 "^seed must be an integer, got 1.5$", id="ricker_raw-seed=1.5"),
    pytest.param(lambda: near_degenerate_instance(seed=1.5), InvalidConfig,
                 "^seed must be an integer, got 1.5$", id="near_degenerate-seed=1.5"),
    pytest.param(lambda: near_degenerate_instance(seed=-1), InvalidConfig,
                 "^seed must be >= 0, got -1$", id="near_degenerate-seed=-1"),
    pytest.param(lambda: ricker_raw(n_train=0), InvalidConfig,
                 "^n_train must be >= 1, got 0$", id="ricker_raw-n_train=0"),
    pytest.param(lambda: ricker_dataset(n_test=-1), InvalidConfig,
                 "^n_test must be >= 0, got -1$", id="ricker_dataset-n_test=-1"),
    pytest.param(lambda: near_degenerate_instance(n=400.0), InvalidConfig,
                 "^n must be an integer, got 400.0$", id="near_degenerate-n=400.0"),
    pytest.param(lambda: near_degenerate_instance(m=4.0), InvalidConfig,
                 "^m must be an integer, got 4.0$", id="near_degenerate-m=4.0"),
    pytest.param(lambda: near_degenerate_instance(d=0), InvalidConfig,
                 "^d must be >= 1, got 0$", id="near_degenerate-d=0"),
    *(pytest.param(lambda a=a: Dataset(x=a, y=np.zeros(len(a))), DimensionMismatch,
                   "^x must be a 1-D or", id=f"Dataset-x-{kind}")
      for kind, a in _BAD_ROWS.items()),
    *(pytest.param(lambda a=a: Hyperparams(1.0, _Z_KERNEL, a), DimensionMismatch,
                   "^z must be a 1-D or", id=f"Hyperparams-z-{kind}")
      for kind, a in _BAD_ROWS.items()),
    *(pytest.param(lambda a=a: predict(_fitted(), a), DimensionMismatch,
                   "^query must be a 1-D or", id=f"predict-query-{kind}")
      for kind, a in _BAD_ROWS.items()),
    pytest.param(lambda: Hyperparams(1.0, _Z_KERNEL, _NAN_Z), NonFiniteInput,
                 r"^z row 1, column 0 \(0-based\) holds nan$", id="Hyperparams-z-nan"),
    # the real-valued fields of the records and the entry points (data.real)
    pytest.param(lambda: Hyperparams(1.0, _Z_KERNEL, _Z, ["a", "b"]), InvalidConfig,
                 r"^temperatures must be a number, got \['a', 'b'\]$",
                 id="Hyperparams-temperatures-strings"),
    pytest.param(lambda: Hyperparams(1.0, _Z_KERNEL, _Z, np.ones((2, 1, 1))),
                 DimensionMismatch, r"^temperatures must be a 1-D array of length 0 or 2, "
                 r"got shape \(2, 1, 1\)$", id="Hyperparams-temperatures-(2,1,1)"),
    pytest.param(lambda: Hyperparams(1.0, MaternParams(np.ones((2, 1)), 1.0), _Z),
                 DimensionMismatch, r"^lengthscales must be a 1-D array, got shape \(2, 1\)$",
                 id="MaternParams-lengthscales-(2,1)"),
    pytest.param(lambda: MaternParams(["a", "b"], 1.0), InvalidConfig,
                 "^lengthscales must be a number", id="MaternParams-lengthscales-strings"),
    *(pytest.param(lambda v=v: MaternParams(np.ones(2), v), InvalidConfig,
                   f"^outputscale must be a number, got '{v}'$", id=f"MaternParams-outputscale={v}")
      for v in ("2", "x")),
    pytest.param(lambda: Hyperparams("x", _Z_KERNEL, _Z), InvalidConfig,
                 "^noise must be a number, got 'x'$", id="Hyperparams-noise=x"),
    pytest.param(lambda: Hyperparams(True, _Z_KERNEL, _Z), InvalidConfig,
                 "^noise must be a number, got True$", id="Hyperparams-noise=True"),
    pytest.param(lambda: Standardization(**{**_STATS, "x_std": np.ones(3)}), DimensionMismatch,
                 "^x_mean has 2 entries but x_std has 3$", id="Standardization-x_std-(3,)"),
    pytest.param(lambda: Standardization(**{**_STATS, "y_std": np.ones(3)}), InvalidConfig,
                 r"^y_std must be a number, got array\(\[1., 1., 1.\]\)$",
                 id="Standardization-y_std-(3,)"),
    pytest.param(lambda: Standardization(**{**_STATS, "x_std": np.array(["a", "b"])}),
                 InvalidConfig, "^x_std must be a number", id="Standardization-x_std-strings"),
    pytest.param(lambda: split_raw(_FOUR_ROWS, train_fraction="0.5"), InvalidConfig,
                 "^train_fraction must be a number, got '0.5'$", id="split_raw-train_fraction=0.5"),
    *(pytest.param(lambda v=v: ricker_raw(4, 2, noise=v), InvalidConfig,
                   rf"^noise must be in \[0, 1e\+100\], got {float(v)}$",
                   id=f"ricker_raw-noise={v}")
      for v in (np.nan, -1)),
    # y's standardization overflowed ("overflow encountered in square") and
    # the inf std was named y_std, not noise
    pytest.param(lambda: ricker_dataset(40, 5, noise=1e160), InvalidConfig,
                 r"^noise must be in \[0, 1e\+100\], got 1e\+160$",
                 id="ricker_dataset-noise=1e160"),
    pytest.param(lambda: ricker_raw(4, 2, radius=np.nan), InvalidConfig,
                 r"^radius must be in \(0, 1e\+100\], got nan$", id="ricker_raw-radius=nan"),
    pytest.param(lambda: TrainConfig(learning_rate=True), InvalidConfig,
                 "^learning_rate must be a number, got True$", id="TrainConfig-learning_rate=True"),
    pytest.param(lambda: near_degenerate_instance(delta=np.nan), InvalidConfig,
                 r"^delta must be in \[-1, 1\], got nan$", id="near_degenerate-delta=nan"),
    # ragged sequences have no shape, and a route that is not text is no route
    pytest.param(lambda: Hyperparams(1.0, _Z_KERNEL, [[0.0, 0.0], [1.0]]), DimensionMismatch,
                 "^z is a ragged sequence, not an array$", id="Hyperparams-z-ragged"),
    pytest.param(lambda: MaternParams([[1.0], [1.0, 2.0]], 1.0), DimensionMismatch,
                 "^lengthscales is a ragged sequence, not an array$",
                 id="MaternParams-lengthscales-ragged"),
    pytest.param(lambda: solver_route(None), InvalidConfig,
                 "^expected qr, direct, cholesky, or cg:<tol>, got None$", id="solver_route-None"),
    # a Posterior checks its own arrays; a wrong v or p failed later in predict
    # with numpy's ValueError from matmul
    pytest.param(lambda: Posterior("softki", _HP, np.zeros(4), _ROOT), DimensionMismatch,
                 r"^v must be a 1-D array of length 3, got shape \(4,\)$",
                 id="Posterior-v-(4,)"),
    pytest.param(lambda: Posterior("sgpr", _HP, np.zeros(3), np.eye(4)), DimensionMismatch,
                 r"^p must be \(3, 3\) for m=3 points, got shape \(4, 4\)$",
                 id="Posterior-p-(4,4)"),
    pytest.param(lambda: Posterior("softki", _HP, np.zeros(3), _ROOT[0]), DimensionMismatch,
                 r"^p must be \(3, 3\) for m=3 points, got shape \(3,\)$",
                 id="Posterior-p-(3,)"),
    pytest.param(lambda: Posterior("softki", _HP, _with_entry(np.zeros(3), 1, np.inf), _ROOT),
                 InvalidConfig, r"^v must be in \(-inf, inf\), got inf$", id="Posterior-v-inf"),
    pytest.param(lambda: Posterior("sgpr", _HP, np.zeros(3), _with_entry(_ROOT, (2, 1), np.nan)),
                 InvalidConfig, r"^p must be in \(-inf, inf\), got nan$", id="Posterior-p-nan"),
    pytest.param(lambda: Posterior("softki", _HP, np.zeros(3), _with_entry(_ROOT, (2, 0), 1e-300)),
                 InvalidConfig, "^p, softki's upper root T, has non-zero entries below its "
                 "diagonal$", id="Posterior-root-below-diagonal"),
    pytest.param(lambda: Posterior("softki", _HP, np.zeros(3), _ROOT,
                                   Standardization(np.zeros(3), np.ones(3), 0.0, 1.0)),
                 DimensionMismatch, "^statistics of d=3 for points of d=2$",
                 id="Posterior-stats-d=3"),
    # a record holds the temperatures its model learns and at least one
    # point. The first two saved a file load_checkpoint then refused, and
    # no points failed in predict with numpy's zero-size reduction error
    pytest.param(lambda: Posterior("sgpr", _HP, np.zeros(3), np.eye(3)), DimensionMismatch,
                 "^sgpr's temperatures must have 0 entries at d=2, got 2$",
                 id="Posterior-sgpr-temperatures-(2,)"),
    pytest.param(lambda: Posterior("exact", _HP, np.zeros(3), np.eye(3)), DimensionMismatch,
                 "^exact's temperatures must have 0 entries at d=2, got 2$",
                 id="Posterior-exact-temperatures-(2,)"),
    pytest.param(lambda: Posterior("softki", _SGPR_HP, np.zeros(3), _ROOT), DimensionMismatch,
                 "^softki's temperatures must have 2 entries at d=2, got 0$",
                 id="Posterior-softki-temperatures-(0,)"),
    pytest.param(lambda: Posterior("softki", _NO_POINTS, np.zeros(0), np.zeros((0, 0))),
                 DimensionMismatch, "^a posterior needs at least one point z, got m=0$",
                 id="Posterior-m=0"),
    # the statistics' width is apply_stats' one rule; it broadcast a (3, 1) x
    # against two columns into a (3, 2) result
    pytest.param(lambda: apply_stats(np.ones((3, 1)), np.ones(3), Standardization(**_STATS)),
                 DimensionMismatch, r"^x of shape \(3, 1\) does not have the d=2 columns "
                 "of its statistics$", id="apply_stats-x-(3,1)"),
    pytest.param(lambda: standardize(_GRID, Dataset(x=np.ones((3, 1)), y=np.ones(3))),
                 DimensionMismatch, r"^x of shape \(3, 1\) does not have the d=2 columns",
                 id="standardize-test-x-(3,1)"),
    # the shape checks of the softmax, its backward and the triangular routines
    pytest.param(lambda: softmax_forward(np.zeros(2), _HP), DimensionMismatch,
                 r"^expected \(n, d\) inputs, got \(2,\)$", id="softmax_forward-x-1-D"),
    pytest.param(lambda: softmax_forward(np.zeros((2, 3)), _HP), DimensionMismatch,
                 "^x has d=3 but z has d=2$", id="softmax_forward-x-d=3"),
    pytest.param(lambda: _backward((3, 2)), DimensionMismatch,
                 r"^upstream shape \(3, 2\) != \(2, 3\)$",
                 id="softmax_weights_backward-upstream-(3,2)"),
    pytest.param(lambda: cholesky_upper(np.ones((2, 3))), DimensionMismatch,
                 r"^expected a square matrix, got \(2, 3\)$", id="cholesky_upper-(2,3)"),
    pytest.param(lambda: tri_solve_upper(np.eye(3), np.ones(2)), DimensionMismatch,
                 "^rhs length 2 != order 3$", id="tri_solve_upper-rhs-(2,)"),
]


@pytest.mark.parametrize("call, error, message", BOUNDARY)
def test_bad_input_fails_at_the_boundary_naming_the_argument(call, error, message):
    assert issubclass(error, SoftKIError)
    with pytest.raises(error, match=message):
        call()


# every real-valued argument of the entry points that data.real checks: the
# name its errors carry, and a call that puts one value into it
_REAL_ARGS = {
    **{f"TrainConfig.{f.name}": (f.name, lambda v, name=f.name: TrainConfig(**{name: v}))
       for f in fields(TrainConfig) if "interval" in f.metadata},
    "Hyperparams.noise": ("noise", lambda v: Hyperparams(v, _Z_KERNEL, _Z, np.ones(2))),
    "Hyperparams.temperatures": ("temperatures",
                                 lambda v: Hyperparams(1.0, _Z_KERNEL, _Z, v)),
    "MaternParams.lengthscales": ("lengthscales",
                                  lambda v: Hyperparams(1.0, MaternParams(v, 1.0), _Z)),
    "MaternParams.outputscale": ("outputscale", lambda v: MaternParams(np.ones(2), v)),
    **{f"Standardization.{key}": (key, lambda v, key=key: Standardization(**{**_STATS, key: v}))
       for key in _STATS},
    "split_raw.train_fraction": ("train_fraction",
                                 lambda v: split_raw(_FOUR_ROWS, train_fraction=v)),
    "ricker_raw.radius": ("radius", lambda v: ricker_raw(4, 2, radius=v)),
    "ricker_raw.noise": ("noise", lambda v: ricker_raw(4, 2, noise=v)),
    "solver_route.cg": ("cg tolerance", lambda v: solver_route(f"cg:{v}")),
    "near_degenerate_instance.delta": ("delta",
                                       lambda v: near_degenerate_instance(n=8, m=4, delta=v)),
}
_FILLS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e300, -1.0, 1.0)
_REAL_VALUES = (
    "a", "0.5", None, True, *_FILLS, 0, -1, 2**1100, 1 + 1j,
    np.arange(2), np.ones((2, 1), dtype=int), np.array(["a", "b"]), [[1.0], [1.0, 2.0]],
    *(np.full(shape, fill) for shape in ((), (1,), (2,), (2, 1), (2, 1, 1)) for fill in _FILLS),
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_REAL_ARGS)), st.sampled_from(range(len(_REAL_VALUES))))
def test_a_real_argument_succeeds_or_fails_naming_itself(arg, index):
    # d = 2 throughout: a (2,) array has the length of a vector argument
    name, call = _REAL_ARGS[arg]
    try:
        call(_REAL_VALUES[index])
    except SoftKIError as err:
        assert name in str(err), (arg, _REAL_VALUES[index], err)
