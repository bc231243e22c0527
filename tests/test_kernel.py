"""Kernel values, invariances, and analytic-gradient oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softki import kernel
from softki.errors import DimensionMismatch, InvalidConfig, NonFiniteInput
from softki.kernel import (
    LENGTHSCALE_MAX,
    LENGTHSCALE_MIN,
    MaternParams,
    matern32,
    matern32_forward,
    matern32_param_grads,
    scaled_distance,
)

SQRT3 = np.sqrt(3.0)


def params(d=1, ell=1.0, s2=1.0):
    return MaternParams(lengthscales=np.full(d, ell), outputscale=s2)


def test_params_reject_out_of_range_lengthscales():
    with pytest.raises(InvalidConfig):
        MaternParams(lengthscales=[LENGTHSCALE_MIN / 2], outputscale=1.0)
    with pytest.raises(InvalidConfig):
        MaternParams(lengthscales=[LENGTHSCALE_MAX * 2], outputscale=1.0)


def test_params_reject_nonpositive_outputscale():
    with pytest.raises(InvalidConfig):
        MaternParams(lengthscales=[1.0], outputscale=0.0)


def test_params_reject_nan_lengthscales():
    with pytest.raises(InvalidConfig, match="lengthscales"):
        MaternParams(lengthscales=[np.nan, 1.0], outputscale=1.0)


@pytest.mark.parametrize("s2", [np.nan, np.inf])
def test_params_reject_non_finite_outputscale(s2):
    with pytest.raises(InvalidConfig, match="outputscale"):
        MaternParams(lengthscales=[1.0], outputscale=s2)


def test_value_at_zero_distance_is_outputscale():
    x = np.array([[0.3, -0.7]])
    k = matern32(x, x, params(d=2, s2=2.5))
    assert k[0, 0] == pytest.approx(2.5, rel=1e-15)


def test_value_at_unit_distance():
    k = matern32(np.array([[0.0]]), np.array([[1.0]]), params())
    expected = (1.0 + SQRT3) * np.exp(-SQRT3)
    assert k[0, 0] == pytest.approx(expected, rel=1e-14)
    assert k[0, 0] == pytest.approx(0.4833577, abs=5e-7)


def test_decay_is_monotone_in_distance():
    x = np.zeros((1, 1))
    z = np.linspace(0.0, 20.0, 200)[:, None]
    k = matern32(x, z, params()).ravel()
    assert np.all(np.diff(k) < 0)
    assert k[-1] < 1e-12


def test_symmetry():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    k = matern32(x, x, params(d=3, ell=0.8, s2=1.7))
    assert np.max(np.abs(k - k.T)) <= 1e-14


def test_stationarity_under_common_translation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 2))
    z = rng.standard_normal((7, 2))
    shift = np.array([3.5, -1.25])
    p = params(d=2, ell=1.3)
    assert np.allclose(matern32(x, z, p), matern32(x + shift, z + shift, p),
                       rtol=0, atol=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        matern32(np.ones((2, 2)), np.ones((2, 3)), params(d=2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=2**31))
def test_gram_matrix_is_psd(m, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, 2))
    s2 = float(rng.uniform(0.5, 3.0))
    k = matern32(z, z, params(d=2, s2=s2))
    eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert eigs.min() >= -1e-8 * s2


def test_scaled_distance_clamps_cancellation_noise():
    x = np.full((1, 2), 1e4)
    d = scaled_distance(x, x.copy(), np.ones(2))
    assert d[0, 0] == 0.0


@pytest.mark.parametrize("x, z, dtype, name, row", [
    # the distance 2e154 is finite, yet the cross term and |x|^2 + |z|^2
    # overflowed with numpy's RuntimeWarnings and returned inf
    pytest.param([[1e154, 0.0]], [[-1e154, 0.0]], np.float64, "x", 0, id="opposite-pair"),
    pytest.param([[1.0, 0.0], [1e154, 0.0]], [[-1e154, 0.0]], np.float64, "x", 1,
                 id="x-row-1"),
    pytest.param([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1e200, 0.0]], np.float64, "z", 1,
                 id="z-row-1"),
    pytest.param([[1e19, 0.0]], [[-1e19, 0.0]], np.float32, "x", 0, id="float32"),
])
def test_scaled_distance_names_the_far_row_of_a_pair_that_overflows(x, z, dtype, name, row):
    x, z = np.array(x, dtype=dtype), np.array(z, dtype=dtype)
    with pytest.raises(NonFiniteInput, match=rf"^{name} row {row} \(0-based\) overflows "
                       f"the squared distance in {np.dtype(dtype)}$") as err:
        scaled_distance(x, z, np.ones(2, dtype=dtype))
    # only an x row is a row of the caller's query
    assert err.value.row == (row if name == "x" else None)


def test_scaled_distance_keeps_a_far_row_whose_distances_fit():
    x = np.array([[1e153, 0.0], [0.5, -0.5]])
    z = np.eye(2)
    got = scaled_distance(x, z, np.ones(2))
    assert np.array_equal(got, reference_scaled_distance(x, z, np.ones(2)))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 2, 26])
def test_scaled_distance_matches_the_difference_form_in_long_double(d, dtype):
    # the referee is ||(x - z) / ell||^2 summed in np.longdouble from the same
    # inputs. The augmented product rounds each of its d + 2 terms' partial
    # sums, on top of the squared norms' d and the divisions by ell, so a
    # squared distance is held to 2 (d + 2) eps (|x/ell| + |z/ell|)^2, about
    # twice that sum of bounds; coincident pairs (r = 0) then to its root
    rng = np.random.default_rng(d)
    x = (3.0 * rng.standard_normal((60, d))).astype(dtype)
    z = (3.0 * rng.standard_normal((20, d))).astype(dtype)
    x[::7] = z[: len(x[::7])]
    ell = rng.uniform(0.5, 2.0, d).astype(dtype)
    got = scaled_distance(x, z, ell).astype(np.longdouble)
    xs = x.astype(np.longdouble) / ell.astype(np.longdouble)
    zs = z.astype(np.longdouble) / ell.astype(np.longdouble)
    want = np.sum((xs[:, None, :] - zs[None, :, :]) ** 2, axis=2)
    norms = np.sqrt(np.sum(xs * xs, axis=1))[:, None] + np.sqrt(np.sum(zs * zs, axis=1))
    tol = 2 * (d + 2) * np.finfo(dtype).eps * norms**2
    assert np.all(np.abs(got**2 - want) <= tol)
    coincident = want == 0
    assert coincident.sum() == len(x[::7])
    assert np.all(got[coincident] <= np.sqrt(tol[coincident]))


def test_grads_zero_upstream():
    rng = np.random.default_rng(2)
    x, z = rng.standard_normal((5, 4)), rng.standard_normal((6, 4))
    p = params(d=4)
    g = matern32_param_grads(x, z, p, *matern32_forward(x, z, p), np.zeros((5, 6)),
                             want_x=True, want_z=True)
    assert np.all(g.lengthscales == 0) and g.outputscale == 0
    assert np.all(g.x == 0) and np.all(g.z == 0)


def test_outputscale_grad_with_ones_upstream():
    rng = np.random.default_rng(3)
    x, z = rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
    p = params(d=2, s2=1.9)
    k = matern32(x, z, p)
    g = matern32_param_grads(x, z, p, *matern32_forward(x, z, p), np.ones((5, 4)))
    assert g.outputscale == pytest.approx(k.sum() / 1.9, rel=1e-12)


def _fd(loss, get, put, h=1e-5):
    base = np.asarray(get(), dtype=float).copy()
    grad = np.empty_like(np.atleast_1d(base))
    flat = grad.ravel()
    for i in range(flat.size):
        delta = np.zeros_like(base)
        delta.ravel()[i] = h
        put(base + delta)
        up = loss()
        put(base - delta)
        down = loss()
        flat[i] = (up - down) / (2 * h)
    put(base)
    return grad.reshape(np.shape(base))


def test_all_grads_match_central_differences():
    rng = np.random.default_rng(4)
    n, m, d = 5, 4, 4
    x = rng.standard_normal((n, d))
    z = rng.standard_normal((m, d))
    upstream = rng.standard_normal((n, m))
    state = {"ell": rng.uniform(0.5, 2.0, d), "s2": 1.4, "x": x, "z": z}

    def loss():
        p = MaternParams(lengthscales=state["ell"], outputscale=state["s2"])
        return float(np.sum(upstream * matern32(state["x"], state["z"], p)))

    p = MaternParams(lengthscales=state["ell"], outputscale=state["s2"])
    g = matern32_param_grads(x, z, p, *matern32_forward(x, z, p), upstream,
                             want_x=True, want_z=True)

    def setter(key):
        return lambda v: state.__setitem__(key, v)

    checks = [
        (g.lengthscales, _fd(loss, lambda: state["ell"], setter("ell"))),
        (g.outputscale, _fd(loss, lambda: state["s2"], setter("s2"))),
        (g.x, _fd(loss, lambda: state["x"], setter("x"))),
        (g.z, _fd(loss, lambda: state["z"], setter("z"))),
    ]
    for analytic, numeric in checks:
        analytic = np.asarray(analytic, dtype=float)
        scale = max(np.max(np.abs(numeric)), 1e-10)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_grad_finite_when_points_coincide():
    x = np.array([[0.5, 0.5], [1.0, 2.0]])
    z = x.copy()
    p = params(d=2)
    g = matern32_param_grads(x, z, p, *matern32_forward(x, z, p), np.ones((2, 2)),
                             want_x=True, want_z=True)
    for arr in (g.lengthscales, g.x, g.z):
        assert np.all(np.isfinite(arr))


def test_upstream_shape_checked():
    x, z = np.ones((3, 1)), np.ones((2, 1))
    k, e = matern32_forward(x, z, params())
    with pytest.raises(DimensionMismatch):
        matern32_param_grads(x, z, params(), k, e, np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):  # a forward of other points
        matern32_param_grads(x, z, params(), k.T, e.T, np.ones((3, 2)))


# ------------------------------------------------------------ reference forms
# The kernels build each (n, m) array once and update it in place. These are
# the out-of-place formulas with the same operation order, so the kernels must
# match them bit for bit and leave every input as it was. (At the d = 3 of
# reference_case, np.sum adds a row's squares in sequence, as
# kernel.augmented does.)


def reference_scaled_distance(x, z, lengthscales):
    ell = np.asarray(lengthscales, dtype=x.dtype)
    xs = x / ell
    zs = z / ell
    ones = np.ones(len(x) + len(z), dtype=x.dtype)
    xa = np.column_stack([xs, np.sum(xs * xs, axis=1), ones[: len(x)]])
    za = np.column_stack([-2.0 * zs, ones[len(x):], np.sum(zs * zs, axis=1)])
    sq = xa @ za.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def reference_matern32(x, z, p):
    sr = kernel.SQRT3 * reference_scaled_distance(x, z, p.lengthscales)
    return p.outputscale * (1.0 + sr) * np.exp(-sr)


def reference_param_grads(x, z, p, upstream):
    ell, s2 = p.lengthscales, p.outputscale
    r = reference_scaled_distance(x, z, ell)
    e = np.exp(-kernel.SQRT3 * r)
    k = s2 * (1.0 + kernel.SQRT3 * r) * e
    w = upstream * (3.0 * s2 * e)
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    wz = w @ z
    g_ell = (x * x).T @ row - 2.0 * np.einsum("ic,ic->c", x, wz) + (z * z).T @ col
    g_ell /= ell**3
    g_s2 = float(np.sum(upstream * k) / s2)
    inv2 = 1.0 / ell**2
    g_x = -(x * row[:, None] - wz) * inv2[None, :]
    g_z = (w.T @ x - z * col[:, None]) * inv2[None, :]
    return g_ell, g_s2, g_x, g_z


def bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and np.array_equal(got, want)


def reference_case(dtype, layout):
    """Inputs with a zero-distance row (x_2 = z_1) and an upstream in the given layout."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 3)).astype(dtype)
    z = rng.standard_normal((9, 3)).astype(dtype)
    x[2] = z[1]
    p = MaternParams(lengthscales=rng.uniform(0.5, 2.0, 3), outputscale=1.7)
    upstream = np.asarray(rng.standard_normal((40, 9)), order=layout)
    return x, z, p, upstream


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_distance_and_kernel_match_the_out_of_place_form(dtype):
    x, z, p, _ = reference_case(dtype, "C")
    before = [a.copy() for a in (x, z, p.lengthscales)]
    r = scaled_distance(x, z, p.lengthscales)
    assert bitwise_equal(r, reference_scaled_distance(x, z, p.lengthscales))
    assert r[2, 1] == 0.0
    assert bitwise_equal(matern32(x, z, p), reference_matern32(x, z, p))
    assert all(np.array_equal(a, b) for a, b in zip(before, (x, z, p.lengthscales)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_param_grads_match_the_out_of_place_form(dtype, layout):
    x, z, p, upstream = reference_case(dtype, layout)
    before = [a.copy() for a in (x, z, p.lengthscales, upstream)]
    g = matern32_param_grads(x, z, p, *matern32_forward(x, z, p), upstream,
                             want_x=True, want_z=True)
    got = (g.lengthscales, g.outputscale, g.x, g.z)
    for a, b in zip(got, reference_param_grads(x, z, p, upstream)):
        assert bitwise_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(before, (x, z, p.lengthscales, upstream)))


def rebuild_then_multiply_grads(x, z, p, upstream):
    """The backward as it was before it read its caller's forward: build (K, e)
    again and turn them into the products with upstream in place."""
    ell, s2 = p.lengthscales, p.outputscale
    k, e = matern32_forward(x, z, p)
    dtype = np.result_type(k, upstream)
    k = k.astype(dtype, copy=False)
    k *= upstream
    g_s2 = float(np.sum(k) / s2)
    e *= 3.0 * s2
    w = e.astype(dtype, copy=False)
    w *= upstream
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    wz = w @ z
    g_ell = (x * x).T @ row - 2.0 * np.einsum("ic,ic->c", x, wz) + (z * z).T @ col
    g_ell /= ell**3
    inv2 = 1.0 / ell**2
    g_x = -(x * row[:, None] - wz) * inv2[None, :]
    g_z = (w.T @ x - z * col[:, None]) * inv2[None, :]
    return g_ell, g_s2, g_x, g_z


@pytest.mark.parametrize("points", [np.float64, np.float32])
@pytest.mark.parametrize("up_dtype", [np.float64, np.float32])
def test_backward_reads_the_forward_without_writing_it(points, up_dtype):
    x, z, p, upstream = reference_case(points, "C")
    upstream = upstream.astype(up_dtype)
    k, e = matern32_forward(x, z, p)
    k_before, e_before = k.copy(), e.copy()
    g = matern32_param_grads(x, z, p, k, e, upstream, want_x=True, want_z=True)
    assert np.array_equal(k, k_before) and np.array_equal(e, e_before)
    got = (g.lengthscales, g.outputscale, g.x, g.z)
    for a, b in zip(got, rebuild_then_multiply_grads(x, z, p, upstream)):
        assert bitwise_equal(a, b)
