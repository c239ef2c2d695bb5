"""Activation function values, derivatives, and the saturation contrast."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow.activations import (
    beta_from_raw,
    beta_raw_chain,
    lipswish,
    lipswish_d1,
    lipswish_d1_dbeta,
    lipswish_d2,
    lipswish_dbeta,
    raw_from_beta,
    sigmoid,
    softplus_d1,
    softplus_d2,
)

BETAS = (0.1, 0.5, 1.0, 2.0, 5.0)


def central_diff(f, z, h=1e-5):
    return (f(z + h) - f(z - h)) / (2.0 * h)


class TestLipswishValues:
    def test_zero_is_fixed_point(self):
        for beta in BETAS:
            assert lipswish(0.0, beta) == 0.0

    def test_closed_form_at_10(self):
        # z * sigmoid(beta z) / 1.1 at z=10, beta=1
        expected = 10.0 * sigmoid(10.0) / 1.1
        assert lipswish(10.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.0905, abs=5e-5)

    def test_saturation_slope(self):
        # for large z the slope approaches 1/1.1
        assert lipswish_d1(60.0, 1.0) == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_d1_at_zero(self):
        assert lipswish_d1(0.0, 1.0) == pytest.approx(0.5 / 1.1, rel=1e-12)


class TestLipswishDerivatives:
    def test_d1_matches_finite_differences(self):
        z = np.linspace(-8.0, 8.0, 4001)
        for beta in BETAS:
            fd = central_diff(lambda t: lipswish(t, beta), z)
            np.testing.assert_allclose(lipswish_d1(z, beta), fd, rtol=1e-6, atol=1e-8)

    def test_d2_matches_finite_differences_of_d1(self):
        z = np.linspace(-8.0, 8.0, 4001)
        for beta in BETAS:
            fd = central_diff(lambda t: lipswish_d1(t, beta), z)
            np.testing.assert_allclose(lipswish_d2(z, beta), fd, rtol=1e-5, atol=1e-8)

    def test_dbeta_matches_finite_differences(self):
        z = np.linspace(-6.0, 6.0, 801)
        for beta in BETAS:
            fd = (lipswish(z, beta + 1e-6) - lipswish(z, beta - 1e-6)) / 2e-6
            np.testing.assert_allclose(lipswish_dbeta(z, beta), fd, rtol=1e-5, atol=1e-8)

    def test_d1_dbeta_matches_finite_differences(self):
        z = np.linspace(-6.0, 6.0, 801)
        for beta in BETAS:
            fd = (lipswish_d1(z, beta + 1e-6) - lipswish_d1(z, beta - 1e-6)) / 2e-6
            np.testing.assert_allclose(lipswish_d1_dbeta(z, beta), fd, rtol=1e-4, atol=1e-8)


class TestSlopeBound:
    def test_unscaled_swish_slope_near_1_1(self):
        # dense grid search over the closed-form derivative of z*sigmoid(z)
        z = np.arange(-10.0, 10.0, 1e-5)
        swish_d1 = 1.1 * lipswish_d1(z, 1.0)
        peak = float(np.max(np.abs(swish_d1)))
        assert 1.0997 <= peak <= 1.1000

    @given(st.floats(-50, 50), st.sampled_from(BETAS))
    @settings(max_examples=300, deadline=None)
    def test_slope_bounded_by_one(self, z, beta):
        assert abs(lipswish_d1(z, beta)) <= 1.0

    def test_slope_bounded_on_grid(self):
        z = np.linspace(-50.0, 50.0, 200_001)
        for beta in BETAS:
            assert np.max(np.abs(lipswish_d1(z, beta))) <= 1.0


class TestSaturationContrast:
    """Curvature where the slope is within 99.9% of its largest value.

    A saturating activation reaches high slope only deep in its flat
    region, so its second derivative is tiny there; the non-monotonic
    bump keeps curvature alive at matched slope.
    """

    def test_lipswish_curvature_alive_near_max_slope(self):
        z = np.linspace(-10.0, 10.0, 2_000_001)
        d1 = np.abs(lipswish_d1(z, 1.0))
        level = 0.999 * d1.max()
        near = np.abs(d1 - level) < 1e-4
        assert near.any()
        curv = np.abs(lipswish_d2(z[near], 1.0))
        assert curv.min() > 0.01

    def test_softplus_curvature_dead_at_matched_slope(self):
        # softplus slope is sigmoid(z); slope 0.999 happens at z = logit(0.999)
        z = float(np.log(0.999 / 0.001))
        assert softplus_d1(z) == pytest.approx(0.999, abs=1e-9)
        assert abs(softplus_d2(z)) < 1e-3


class TestBetaReparameterization:
    @given(st.floats(0.05, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_raw_round_trip(self, beta):
        assert beta_from_raw(raw_from_beta(beta)) == pytest.approx(beta, rel=1e-9)

    def test_chain_rule_matches_finite_differences(self):
        for raw in (-2.0, -0.433, 0.0, 1.5):
            fd = (beta_from_raw(raw + 1e-6) - beta_from_raw(raw - 1e-6)) / 2e-6
            assert beta_raw_chain(raw) == pytest.approx(fd, rel=1e-6)

    def test_positive(self):
        for raw in (-30.0, -1.0, 0.0, 5.0):
            assert beta_from_raw(raw) > 0


def sigmoid_test_points():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [[0.0, -0.0, np.inf, -np.inf, np.nan]]
        + [rng.standard_normal(2000) * scale for scale in (1.0, 10.0, 100.0, 800.0)]
    )


def test_sigmoid_bit_identical_to_branching_form():
    t = sigmoid_test_points()
    e = np.exp(-np.abs(t))
    branching = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = sigmoid(t)
    assert np.isnan(out[4]) and np.isnan(branching[4])
    keep = ~np.isnan(t)
    np.testing.assert_array_equal(out[keep].view(np.int64), branching[keep].view(np.int64))

