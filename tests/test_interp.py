"""Softmax interpolation weights and the low-rank kernel assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softki.errors import DimensionMismatch, InvalidConfig, NonFiniteInput
from softki.interp import (
    Hyperparams,
    softki_cross,
    softmax_forward,
    softmax_weights,
    softmax_weights_backward,
)
from softki.kernel import MaternParams, matern32, scaled_distance


def params(d, s2=1.0):
    return MaternParams(lengthscales=np.ones(d), outputscale=s2)


def state(z, temps=None, s2=1.0):
    """Softki hyperparameters at points z, unit lengthscales and output scale s2."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if temps is None:
        temps = np.ones(z.shape[1])
    return Hyperparams(noise=1.0, kernel=params(z.shape[1], s2), z=z, temperatures=temps)


def test_state_rejects_nonpositive_temperature():
    with pytest.raises(InvalidConfig, match=r"^temperatures must be in \(0, inf\), got 0.0$"):
        state([[0.0]], temps=[0.0])


def test_state_rejects_temperature_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Hyperparams(noise=1.0, kernel=params(3), z=np.ones((2, 3)),
                    temperatures=np.ones(2))


@pytest.mark.parametrize("count", [3, 1])
def test_record_rejects_a_lengthscale_count_other_than_d(count):
    # one lengthscale for d=2 would otherwise train an isotropic kernel, and
    # three would fail deep inside a broadcast
    with pytest.raises(DimensionMismatch, match=f"{count} lengthscales for d=2"):
        Hyperparams(noise=1.0, kernel=params(count), z=np.zeros((6, 2)))


def test_record_checks_noise_and_keeps_float32_points():
    with pytest.raises(InvalidConfig):
        Hyperparams(noise=0.0, kernel=params(1), z=[[0.0]])
    assert Hyperparams(noise=1.0, kernel=params(2), z=[[1, 2]]).z.dtype == np.float64
    hp = Hyperparams(noise=1.0, kernel=params(2), z=np.ones((3, 2), dtype=np.float32))
    assert hp.z.dtype == np.float32 and hp.z.shape == (3, 2)


@pytest.mark.parametrize("noise", [np.nan, np.inf])
def test_record_rejects_non_finite_noise(noise):
    with pytest.raises(InvalidConfig, match="noise"):
        Hyperparams(noise=noise, kernel=params(1), z=[[0.0]])


def test_record_rejects_non_finite_points():
    with pytest.raises(NonFiniteInput, match=r"^z row 0, column 1 \(0-based\) holds nan$"):
        Hyperparams(noise=1.0, kernel=params(2), z=[[0.0, np.nan], [1.0, 1.0]])


@pytest.mark.parametrize("coordinate, lengthscale", [(1e200, 1.0), (1e154, 0.01)])
def test_record_rejects_points_whose_squares_overflow(coordinate, lengthscale):
    # 1e154 overflows only once divided by the lengthscale, as the kernel does
    z = np.zeros((3, 2))
    z[1, 0] = coordinate
    kernel = MaternParams(lengthscales=np.full(2, lengthscale), outputscale=1.0)
    with pytest.raises(NonFiniteInput, match=r"z row 1 \(0-based\)"):
        Hyperparams(noise=1.0, kernel=kernel, z=z)
    z[1, 0] = 1e153
    assert np.isfinite(Hyperparams(noise=1.0, kernel=MaternParams(np.ones(2), 1.0),
                                   z=z).z).all()


@pytest.mark.parametrize("temperature", [1e-155, 1e-300, 5e-324])
def test_record_rejects_temperatures_whose_inverse_square_overflows(temperature):
    # the softmax divides x by T; at T = 1e-300 every weight came out nan
    with pytest.raises(NonFiniteInput, match=r"temperatures\[1\]: 1/T\^2 overflows"):
        state(np.zeros((3, 2)), temps=[1.0, temperature])
    assert state(np.zeros((3, 2)), temps=[1.0, 1e-154]).temperatures[1] == 1e-154


def test_record_without_temperatures_has_no_softmax_weights():
    # SGPR and the exact GP carry an empty temperature vector for any d
    hp = Hyperparams(noise=1.0, kernel=params(3), z=np.zeros((4, 3)))
    assert hp.temperatures.shape == (0,)
    with pytest.raises(DimensionMismatch):
        softmax_weights(np.zeros((2, 3)), hp)


def test_single_point_gives_all_ones():
    w = softmax_weights(np.random.default_rng(0).standard_normal((7, 2)),
                        state([[0.5, -0.5]]))
    assert np.allclose(w, 1.0)


def test_equidistant_points_give_uniform_row():
    # x at the origin, z on a symmetric pair: both distances equal
    w = softmax_weights(np.zeros((1, 1)), state([[-2.0], [2.0]]))
    assert np.allclose(w, 0.5)


def test_two_point_fixed_values():
    w = softmax_weights(np.zeros((1, 1)), state([[-1.0], [2.0]]))
    e = np.e
    assert w[0, 0] == pytest.approx(e / (e + 1.0), rel=1e-12)  # about 0.7311
    assert w[0, 1] == pytest.approx(1.0 / (e + 1.0), rel=1e-12)  # about 0.2689


def test_extreme_logits_stay_finite():
    # max subtraction keeps exp arguments bounded even at huge distances
    w = softmax_weights(np.array([[1e6]]), state([[0.0], [1e6]]))
    assert np.all(np.isfinite(w))
    assert w[0, 1] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
def test_rows_are_stochastic_and_positive(n, m, d, seed):
    rng = np.random.default_rng(seed)
    w = softmax_weights(
        rng.standard_normal((n, d)) * 3,
        state(rng.standard_normal((m, d)), temps=rng.uniform(0.2, 3.0, d)),
    )
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(w > 0)


def test_translation_invariant_only_at_unit_temperature():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2))
    z = rng.standard_normal((4, 2))
    shift = np.array([1.5, -0.5])

    w_unit = softmax_weights(x, state(z))
    w_unit_shifted = softmax_weights(x + shift, state(z + shift))
    assert np.allclose(w_unit, w_unit_shifted, atol=1e-12)

    # x is divided by T but z is not, so the same shift breaks at T != 1
    temps = np.array([2.0, 2.0])
    w = softmax_weights(x, state(z, temps=temps))
    w_shifted = softmax_weights(x + shift, state(z + shift, temps=temps))
    assert np.max(np.abs(w - w_shifted)) > 1e-3


def test_weights_concentrate_on_nearest_point():
    # well-separated interpolation points: the softmax row is effectively sparse
    z = np.eye(8) * 40.0
    x = z[3:4] + 0.01
    w = softmax_weights(x, state(z))
    assert w[0, 3] > 0.999
    assert w.sum() == pytest.approx(1.0)


def test_cross_brute_force():
    rng = np.random.default_rng(2)
    n, m, d = 7, 3, 2
    x = rng.standard_normal((n, d))
    zs = state(rng.standard_normal((m, d)), temps=rng.uniform(0.5, 2.0, d), s2=1.3)
    w, k_zz, khat = softki_cross(x, zs)

    brute = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for k in range(m):
                brute[i, j] += w[i, k] * k_zz[k, j]
    assert np.max(np.abs(khat - brute)) <= 1e-12


def test_cross_single_point_column():
    zs = state([[0.7, 0.1]], s2=2.0)
    _, k_zz, khat = softki_cross(np.random.default_rng(3).standard_normal((5, 2)), zs)
    assert np.allclose(khat, k_zz[0, 0])
    assert k_zz[0, 0] == pytest.approx(2.0)


def test_cross_row_sums_follow_weights():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 2))
    zs = state(rng.standard_normal((5, 2)))
    w, k_zz, khat = softki_cross(x, zs)
    assert np.allclose(khat.sum(axis=1), w @ k_zz.sum(axis=1))


def test_gram_single_point_is_constant():
    zs = state([[1.0]], s2=1.7)
    w, _, khat = softki_cross(np.random.default_rng(5).standard_normal((4, 1)), zs)
    g = khat @ w.T
    assert np.allclose(g, 1.7)


def test_gram_rank_at_most_m():
    rng = np.random.default_rng(6)
    n, m = 30, 5
    w, _, khat = softki_cross(rng.standard_normal((n, 2)), state(rng.standard_normal((m, 2))))
    g = khat @ w.T
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert np.sum(eigs > 1e-10) <= m


def test_gram_equals_projected_inverse_form():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 2))
    zs = state(rng.standard_normal((6, 2)))
    w, k_zz, khat = softki_cross(x, zs)
    g = khat @ w.T
    recon = khat @ np.linalg.solve(k_zz, khat.T)
    assert np.max(np.abs(g - recon)) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_gram_is_psd(n, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    w, _, khat = softki_cross(rng.standard_normal((n, 2)), state(rng.standard_normal((m, 2))))
    g = khat @ w.T
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert eigs.min() >= -1e-8 * np.trace(g) / n


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    n, m, d = 6, 4, 3
    x = rng.standard_normal((n, d))
    z0 = rng.standard_normal((m, d))
    t0 = rng.uniform(0.5, 2.0, d)
    upstream = rng.standard_normal((n, m))

    def loss(z, temps):
        return float(np.sum(upstream * softmax_weights(x, state(z, temps=temps))))

    hp = state(z0, temps=t0)
    g_z, g_t = softmax_weights_backward(x, hp, *softmax_forward(x, hp), upstream)

    h = 1e-6
    fd_z = np.zeros_like(z0)
    for idx in np.ndindex(*z0.shape):
        dz = np.zeros_like(z0)
        dz[idx] = h
        fd_z[idx] = (loss(z0 + dz, t0) - loss(z0 - dz, t0)) / (2 * h)
    fd_t = np.zeros_like(t0)
    for c in range(d):
        dt = np.zeros_like(t0)
        dt[c] = h
        fd_t[c] = (loss(z0, t0 + dt) - loss(z0, t0 - dt)) / (2 * h)

    assert np.max(np.abs(g_z - fd_z)) <= 1e-6 * max(1.0, np.max(np.abs(fd_z)))
    assert np.max(np.abs(g_t - fd_t)) <= 1e-6 * max(1.0, np.max(np.abs(fd_t)))


def test_backward_zero_distance_contributes_zero():
    z = np.array([[0.5, -0.5], [2.0, 1.0]])
    x = z[:1].copy()  # first point coincides with z_0
    hp = state(z)
    g_z, g_t = softmax_weights_backward(x, hp, *softmax_forward(x, hp), np.ones((1, 2)))
    assert np.all(np.isfinite(g_z)) and np.all(np.isfinite(g_t))


# ------------------------------------------------------------ reference forms
# The softmax forward and backward build each (n, m) array once and update it
# in place. These are the out-of-place formulas with the same operation
# order, so the library must match them bit for bit and leave every input as
# it was.


def reference_forward(x, hp):
    xt = x / hp.temperatures.astype(x.dtype)
    dist = scaled_distance(xt, hp.z.astype(x.dtype), np.ones(x.shape[1], dtype=x.dtype))
    logits = -dist
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w, dist


def reference_backward(x, hp, w, dist, upstream):
    rowdot = np.einsum("ij,ij->i", upstream, w)
    v = w * (upstream - rowdot[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(dist > 0, v / dist, 0.0)
    temps = hp.temperatures.astype(x.dtype)
    z = hp.z.astype(x.dtype)
    xt = x / temps
    arow = a.sum(axis=1)
    acol = a.sum(axis=0)
    g_z = a.T @ xt - z * acol[:, None]
    az = a @ z
    g_t = (x * xt * arow[:, None] - x * az).sum(axis=0) / temps**2
    return g_z, g_t


def bitwise_equal(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_forward_and_backward_match_the_out_of_place_form(dtype, layout):
    rng = np.random.default_rng(13)
    hp = state(rng.standard_normal((9, 3)), temps=rng.uniform(0.5, 2.0, 3))
    x = rng.standard_normal((40, 3))
    x[2] = hp.z[1] * hp.temperatures  # a zero-distance row
    x = x.astype(dtype)
    upstream = np.asarray(rng.standard_normal((40, 9)), order=layout)

    w, dist = softmax_forward(x, hp)
    ref_w, ref_dist = reference_forward(x, hp)
    assert bitwise_equal(w, ref_w) and bitwise_equal(dist, ref_dist)
    assert dist[2, 1] == 0.0

    inputs = (x, hp.z, hp.temperatures, w, dist, upstream)
    before = [a.copy() for a in inputs]
    got = softmax_weights_backward(x, hp, w, dist, upstream)
    for a, b in zip(got, reference_backward(x, hp, ref_w, ref_dist, upstream)):
        assert bitwise_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(before, inputs))
