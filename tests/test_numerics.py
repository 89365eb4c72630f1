"""Scalar numerics: the Gaussian CDF, interval probabilities, the PSD
Cholesky wrapper, log-domain values, and seed streams.

The high-precision reference constants were computed with mpmath at 50
digits and frozen here; the library must match them to near machine
precision.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from packdim import (
    InvalidArgumentError,
    LogValue,
    NotPositiveSemidefiniteError,
    Seed,
    cholesky_psd,
    gaussian_cdf,
    gaussian_interval_prob,
)

PHI_196 = 0.9750021048517795658634157
TWO_PHI_196 = 0.9500042097035591317268315  # 2*Phi(1.96) - 1
PHI2_MINUS_PHI1 = 0.1359051219832778442144848


class TestGaussianCdf:
    def test_symmetry_point(self):
        assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_tail_saturates(self):
        assert abs(gaussian_cdf(40.0) - 1.0) < 1e-15

    def test_reference_value(self):
        assert gaussian_cdf(1.96) == pytest.approx(PHI_196, rel=1e-15)

    def test_complement(self):
        z = 1.3
        assert gaussian_cdf(z) + gaussian_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_vectorized(self):
        out = gaussian_cdf(np.array([0.0, 1.96]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(PHI_196, rel=1e-14)


class TestGaussianIntervalProb:
    """P(rho*N in B(a, r)) for scalar N, where rho=0 degenerates to a
    point mass at the origin."""

    def test_point_mass_inside(self):
        assert gaussian_interval_prob(0.0, 0.0, 1.0) == 1.0

    def test_point_mass_outside(self):
        assert gaussian_interval_prob(0.0, 2.0, 1.0) == 0.0

    def test_centered_unit(self):
        assert gaussian_interval_prob(1.0, 0.0, 1.96) == pytest.approx(
            TWO_PHI_196, rel=1e-14
        )

    def test_shifted(self):
        # P(2N in [2, 4]) = P(N in [1, 2])
        assert gaussian_interval_prob(2.0, 3.0, 1.0) == pytest.approx(
            PHI2_MINUS_PHI1, rel=1e-13
        )

    def test_monotone_in_radius(self):
        probs = [gaussian_interval_prob(1.3, 0.7, r) for r in (0.1, 0.5, 1.0, 3.0)]
        assert probs == sorted(probs)

    @given(
        st.floats(0.01, 5.0),
        st.floats(-4.0, 4.0),
        st.floats(0.01, 5.0),
    )
    def test_in_unit_interval(self, rho, a, r):
        p = gaussian_interval_prob(rho, a, r)
        assert 0.0 <= p <= 1.0


class TestCholeskyPsd:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_psd(np.eye(3)), np.eye(3))

    def test_hand_factor(self):
        m = np.array([[4.0, 2.0], [2.0, 5.0]])
        expected = np.array([[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(cholesky_psd(m), expected, atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_random_psd(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            m = a @ a.T
            low = cholesky_psd(m)
            np.testing.assert_allclose(low @ low.T, m, atol=1e-10)

    def test_zero_variance_row(self):
        # singular but PSD: one deterministic coordinate
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        low = cholesky_psd(m)
        np.testing.assert_allclose(low @ low.T, m, atol=1e-12)

    @pytest.mark.parametrize(
        "m",
        [[[np.inf]], [[-np.inf]], [[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[1.0, 0.0], [0.0, np.inf]]],
    )
    def test_non_finite_rejected(self, m):
        # refused by name, before LAPACK or the symmetry test sees them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="matrix must be finite"):
                cholesky_psd(np.array(m))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            cholesky_psd(np.array([[1.0, 0.5], [0.5 + 1e-6, 1.0]]))
        # within 1e-10 of the largest magnitude counts as symmetric
        cholesky_psd(np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]))


class TestLogValue:
    def test_value_roundtrip(self):
        assert LogValue(math.log(5.0)).value == pytest.approx(5.0, rel=1e-15)

    @given(
        st.integers(1, 2**40),
        st.integers(0, 60),
        st.integers(1, 2**40),
        st.integers(0, 60),
    )
    def test_ordering_matches_rationals(self, n1, e1, n2, e2):
        # dyadic rationals n / 2^e are exactly representable on both sides
        q1, q2 = Fraction(n1, 2**e1), Fraction(n2, 2**e2)
        l1, l2 = LogValue(math.log(n1) - e1 * math.log(2)), LogValue(
            math.log(n2) - e2 * math.log(2)
        )
        if q1 == q2:
            assert abs(l1.logv - l2.logv) < 1e-9
        elif q1 < q2:
            assert l1.logv < l2.logv + 1e-12
        else:
            assert l2.logv < l1.logv + 1e-12

    def test_product_is_log_sum(self):
        a, b = LogValue(math.log(3.0)), LogValue(math.log(7.0))
        assert a.logv + b.logv == pytest.approx(math.log(21.0), rel=1e-15)


class TestSeed:
    def test_streams_reproducible(self):
        a = Seed(7).generator().standard_normal(4)
        b = Seed(7).generator().standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_replica_streams_differ(self):
        s = Seed(7)
        a = s.replica(0).generator().standard_normal(4)
        b = s.replica(1).generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_replica_streams_stable(self):
        a = Seed(7).replica(3).generator().standard_normal(4)
        b = Seed(7).replica(3).generator().standard_normal(4)
        np.testing.assert_array_equal(a, b)
