"""Bijection round trips and derivative checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softki import transforms
from softki.errors import InvalidConfig


def test_softplus_positive_and_monotone():
    u = np.linspace(-30, 30, 301)
    v = transforms.softplus(u)
    assert np.all(v > 0)
    assert np.all(np.diff(v) > 0)


def test_softplus_large_input_is_identity_like():
    assert transforms.softplus(50.0) == pytest.approx(50.0, abs=1e-12)
    assert transforms.softplus(-50.0) == pytest.approx(np.exp(-50.0), rel=1e-10)


@given(st.floats(min_value=1e-6, max_value=50.0))
def test_softplus_round_trip(v):
    assert transforms.softplus(transforms.softplus_inv(v)) == pytest.approx(v, rel=1e-9)


def test_softplus_inv_rejects_nonpositive():
    with pytest.raises(InvalidConfig, match="got 0.0"):
        transforms.softplus_inv(0.0)


@given(st.floats(min_value=-20, max_value=20))
def test_softplus_deriv_matches_finite_differences(u):
    h = 1e-6
    fd = (transforms.softplus(u + h) - transforms.softplus(u - h)) / (2 * h)
    assert transforms.softplus_deriv(u) == pytest.approx(fd, abs=1e-7)


def test_sigmoid_range_and_symmetry():
    u = np.linspace(-100, 100, 201)
    s = transforms.sigmoid(u)
    assert np.all((s >= 0) & (s <= 1))
    assert np.allclose(s + transforms.sigmoid(-u), 1.0, atol=1e-15)


@given(st.floats(min_value=0.011, max_value=4.99))
def test_bounded_sigmoid_round_trip(v):
    u = transforms.bounded_sigmoid_inv(v, 0.01, 5.0)
    assert transforms.bounded_sigmoid(u, 0.01, 5.0) == pytest.approx(v, rel=1e-9)


def test_bounded_sigmoid_stays_inside_interval():
    u = np.array([-1e3, -10.0, 0.0, 10.0, 1e3])
    v = transforms.bounded_sigmoid(u, 0.01, 5.0)
    assert np.all((v >= 0.01) & (v <= 5.0))


def test_bounded_sigmoid_inv_rejects_boundary():
    with pytest.raises(InvalidConfig, match=r"5.0 is outside \(0.01, 5.0\)"):
        transforms.bounded_sigmoid_inv(5.0, 0.01, 5.0)


@given(st.floats(min_value=-15, max_value=15))
def test_bounded_sigmoid_deriv_matches_finite_differences(u):
    h = 1e-6
    fd = (
        transforms.bounded_sigmoid(u + h, 0.01, 5.0)
        - transforms.bounded_sigmoid(u - h, 0.01, 5.0)
    ) / (2 * h)
    assert transforms.bounded_sigmoid_deriv(u, 0.01, 5.0) == pytest.approx(fd, abs=1e-6)
