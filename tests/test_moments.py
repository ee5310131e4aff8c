import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from momentprop.moments import MomentTensor, std_normal_cdf
from oracles import GaussianScalar, product_variance, std_normal_pdf


class TestStdNormalPdf:
    def test_at_zero(self):
        # 1/sqrt(2*pi)
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_at_plus_minus_one(self):
        # closed form exp(-1/2)/sqrt(2*pi), checked against a high-precision evaluation
        expected = 0.24197072451914337
        assert std_normal_pdf(1.0) == pytest.approx(expected, abs=1e-13)
        assert std_normal_pdf(-1.0) == pytest.approx(expected, abs=1e-13)

    def test_tail_decay(self):
        assert std_normal_pdf(10.0) < 1e-21

    def test_vectorized(self):
        x = np.linspace(-3, 3, 7)
        assert std_normal_pdf(x).shape == (7,)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_975_quantile(self):
        # 1.959964 is the (rounded) 0.975 quantile
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-7)

    def test_left_tail(self):
        assert std_normal_cdf(-8.0) < 1e-14

    def test_against_reference_cdf(self):
        # independent implementation route in scipy.stats
        x = np.linspace(-8, 8, 321)
        assert np.abs(std_normal_cdf(x) - stats.norm.cdf(x)).max() <= 1e-12

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        x = np.linspace(-10, 10, 1001)
        assert np.all(np.diff(std_normal_cdf(x)) >= 0.0)


class TestProductVariance:
    def test_deterministic_x_times_bernoulli(self):
        # X constant 1, Y Bernoulli(1/2): V(XY) = V(Y) = 1/4
        assert product_variance(GaussianScalar(1.0, 0.0), GaussianScalar(0.5, 0.25)) == 0.25

    def test_zero_x(self):
        assert product_variance(GaussianScalar(0.0, 0.0), GaussianScalar(3.0, 7.0)) == 0.0

    def test_constant_one_y(self):
        assert product_variance(GaussianScalar(2.0, 1.0), GaussianScalar(1.0, 0.0)) == 1.0

    def test_against_sampling(self):
        rng = np.random.default_rng(42)
        n = 10**6
        x = 0.7 + np.sqrt(0.9) * rng.standard_normal(n)
        y = (rng.random(n) < 0.6).astype(float)  # Bernoulli(0.6)
        sample_var = (x * y).var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (n - 1)) * 3  # generous but scale-right band
        expected = product_variance(GaussianScalar(0.7, 0.9), GaussianScalar(0.6, 0.24))
        assert abs(sample_var - expected) < max(3 * se, 3e-3)

    @given(
        st.floats(-5, 5), st.floats(0, 5),
        st.floats(-5, 5), st.floats(0, 5),
    )
    def test_symmetric_and_nonnegative(self, mx, vx, my, vy):
        a = GaussianScalar(mx, vx)
        b = GaussianScalar(my, vy)
        ab, ba = product_variance(a, b), product_variance(b, a)
        assert ab == pytest.approx(ba, rel=1e-12, abs=1e-300)
        assert ab >= 0.0


class TestGaussianScalar:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            GaussianScalar(0.0, -1e-9)


class TestMomentTensor:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MomentTensor(np.zeros(3), np.zeros(4))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MomentTensor(np.zeros(3), np.array([0.0, -1e-15, 0.0]))

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError):
            MomentTensor(np.zeros(2), np.array([0.0, np.nan]))

    def test_immutable(self):
        mt = MomentTensor(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            mt.expectation[0] = 2.0
        with pytest.raises(AttributeError):
            mt.expectation = np.zeros(3)

    def test_from_point(self):
        mt = MomentTensor.from_point([1.0, 2.0])
        assert np.array_equal(mt.variance, np.zeros(2))
        assert mt.shape == (2,)
