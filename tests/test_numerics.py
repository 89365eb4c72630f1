"""Scalar numerics: Gaussian interval probabilities, the PSD Cholesky
wrapper, and seed streams.

The high-precision reference constants were computed with mpmath at 50
digits and frozen here; the library must match them to near machine
precision.  The tail and centred interval probabilities are computed with
mpmath at 50 digits when the tests run.
"""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from conftest import scheduled_factor
from hypothesis import given, strategies as st

from packdim import (
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    Seed,
    cholesky_psd,
    gaussian_interval_prob,
)
from packdim.numerics import _pair_distances

TWO_PHI_196 = 0.9500042097035591317268315  # 2*Phi(1.96) - 1
PHI2_MINUS_PHI1 = 0.1359051219832778442144848


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

    @pytest.mark.parametrize("rho, a", [(1.0, 10.0), (0.1, 0.5), (1.3, 0.7), (2.0, 3.0)])
    def test_monotone_across_both_forms(self, rho, a):
        # r runs through |a| - rho sqrt 2, where the erfc form hands over to
        # the erf form, and through |a|, where the erf terms change sign
        r = np.linspace(0.0, 2.0 * a + 4.0 * rho, 4001)
        probs = gaussian_interval_prob(rho, a, r)
        assert np.all(np.diff(probs) >= 0)

    @given(
        st.floats(0.01, 5.0),
        st.floats(-4.0, 4.0),
        st.floats(0.01, 5.0),
    )
    def test_in_unit_interval(self, rho, a, r):
        p = gaussian_interval_prob(rho, a, r)
        assert 0.0 <= p <= 1.0

    # zeros of both signs, subnormals, the smallest normal, huge values, inf
    EDGE_RHO = np.array(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.3, 1.0,
         1e200, 1.7976931348623157e308, np.inf]
    )

    @pytest.mark.parametrize("r", [1e-300, 1e-5, 0.7, 1.0, 1e300])
    def test_centred_path_matches_general_bitwise(self, r):
        # a = 0.0 takes the centred path; an explicit zero array takes the
        # general one
        with np.errstate(over="ignore"):  # r / subnormal rho overflows to inf
            centred = gaussian_interval_prob(self.EDGE_RHO, 0.0, r)
            general = gaussian_interval_prob(self.EDGE_RHO, np.zeros_like(self.EDGE_RHO), r)
            scalars = [gaussian_interval_prob(float(rho), 0.0, r) for rho in self.EDGE_RHO]
        assert centred.tobytes() == general.tobytes()
        assert centred.tolist() == scalars
        assert centred[0] == centred[1] == 1.0

    def test_centred_scalar_and_zero_radius(self):
        p = gaussian_interval_prob(0.5, 0.0, 1.0)
        assert type(p) is float
        assert p == gaussian_interval_prob(0.5, np.zeros(1), 1.0)[0]
        # r = 0 keeps the point mass at rho = 0 and gives 0 elsewhere
        assert gaussian_interval_prob(np.array([0.0, 0.5]), 0.0, 0.0).tolist() == [1.0, 0.0]
        # a NaN rho keeps its general-path value
        rho = np.array([np.nan, 0.5])
        assert np.array_equal(
            gaussian_interval_prob(rho, 0.0, 1.0),
            gaussian_interval_prob(rho, np.zeros(2), 1.0),
        )


def mp_interval_prob(rho, a, r):
    """P(rho N in B(a, r)) as a difference of normal CDFs at 50 digits,
    enough for the 1e-19 tails below."""
    with mpmath.workdps(50):
        rho, a, r = (mpmath.mpf(v) for v in (rho, a, r))
        return float(mpmath.ncdf((abs(a) + r) / rho) - mpmath.ncdf((abs(a) - r) / rho))


class TestAgainstMpmath:
    """Relative error against mpmath.  The bounds were fixed before the
    first run: a tail entry erfc(x) inherits about 2 x^2 times the relative
    error of its rounded argument, at most ~1.2e-14 at x = 9 / sqrt 2, and
    erf of a centred argument no more than that argument's."""

    TAIL_RTOL = 5e-14
    CENTRED_RTOL = 1e-15

    # (rho, a, r) and the leading digits of the true value; an ndtr
    # difference returned 0.0, 1.7e-9 and 2.2e-10 relative error here
    @pytest.mark.parametrize(
        "rho, a, r, approx",
        [(1.0, 10.0, 1.0, 1.13e-19), (1.0, 6.0, 0.5, 1.9e-8), (0.1, 0.5, 0.01, 3.1e-7)],
    )
    def test_tail_cases(self, rho, a, r, approx):
        exact = mp_interval_prob(rho, a, r)
        assert exact == pytest.approx(approx, rel=0.03)
        for sign in (1.0, -1.0):
            got = gaussian_interval_prob(rho, sign * a, r)
            assert abs(got - exact) <= self.TAIL_RTOL * exact

    def test_centred_over_twelve_decades(self):
        q = np.geomspace(1e-12, 16.0, 241)
        got = gaussian_interval_prob(1.0, 0.0, q)
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.erf(mpmath.mpf(v) / mpmath.sqrt(2))) for v in q])
        assert np.all(np.abs(got - exact) <= self.CENTRED_RTOL * exact)


def where_formula(rho, a, r):
    """The general interval probability with np.where guards: both forms
    on every lane, the erf form where |a| - r < s = rho sqrt 2, and the
    point mass where rho > 0 fails.  The in-place general path must
    reproduce it bit for bit."""
    from scipy.special import erf, erfc

    rho, a, r = (np.asarray(v, dtype=float) for v in (rho, a, r))
    a_abs = np.abs(a)
    scale = np.where(rho > 0, rho, 1.0) * np.sqrt(2.0)
    by_erf = (erf((r + a_abs) / scale) + erf((r - a_abs) / scale)) / 2
    by_erfc = (erfc((a_abs - r) / scale) - erfc((a_abs + r) / scale)) / 2
    prob = np.where((r - a_abs) / scale > -1.0, by_erf, by_erfc)
    return np.where(rho > 0, prob, (a_abs <= r).astype(float))


class TestGeneralPathInPlace:
    RHO = TestGaussianIntervalProb.EDGE_RHO
    A = np.array([0.0, -0.0, 5e-324, 1e-300, 0.3, -0.3, 1.0, -2.5, 1e300, -np.inf, np.nan])

    # the full edge set needs the point-mass pass; the positive lanes alone
    # skip it
    @pytest.mark.parametrize("rho", [RHO, RHO[RHO > 0], np.append(RHO[RHO > 0], np.nan)])
    @pytest.mark.parametrize("r", [0.0, 1e-300, 0.7, 1e300, np.inf])
    def test_scalar_radius_matches_where_formula(self, rho, r):
        with np.errstate(all="ignore"):
            got = gaussian_interval_prob(rho[:, None], self.A[None, :], r)
            expected = where_formula(rho[:, None], self.A[None, :], r)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_broadcast_radius_matches_where_formula(self):
        # r varies along its own axis, as in verify's interval-bound scan
        r = np.array([0.0, 1e-300, 0.7, 1e300, np.inf])
        args = (self.RHO[:, None, None], self.A[None, :, None], r[None, None, :])
        with np.errstate(all="ignore"):
            got = gaussian_interval_prob(*args)
            expected = where_formula(*args)
        assert got.shape == (len(self.RHO), len(self.A), len(r))
        assert got.tobytes() == expected.tobytes()
        # r the only array: the result takes r's shape
        with np.errstate(all="ignore"):
            got = gaussian_interval_prob(0.0, 0.3, r)
        assert got.tobytes() == where_formula(0.0, 0.3, r).tobytes()

    def test_zero_dimensional_inputs_return_floats(self):
        with np.errstate(all="ignore"):
            for rho in self.RHO:
                for a in self.A:
                    got = gaussian_interval_prob(rho, a, 0.7)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == where_formula(rho, a, 0.7).tobytes()


class TestPairDistances:
    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
    def test_matches_linalg_norm_bitwise(self, m, offset):
        rng = np.random.default_rng(m)
        rows = offset + 3.0 * rng.standard_normal((40, m))
        # negative and positive values; two atoms coincide with rows
        atoms = np.vstack([offset + rng.standard_normal((60, m)), rows[[5, 17]]])
        expected = np.linalg.norm(rows[:, None, :] - atoms[None, :, :], axis=2)
        got = _pair_distances(rows, atoms)
        assert got.tobytes() == expected.tobytes()
        assert got[5, 60] == got[17, 61] == 0.0


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
        [[[np.inf]], [[-np.inf]], [[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[1.0, 0.0], [0.0, np.inf]],
         # a symmetric pair of infinities outside the first row block
         np.where(np.isin(np.arange(200 * 200).reshape(200, 200), [150 * 200 + 170, 170 * 200 + 150]),
                  np.inf, np.eye(200))],
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
        # an asymmetric pair far from the first row block
        m = np.eye(200)
        m[170, 90] = 1e-6
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            cholesky_psd(m)

    def test_factor_is_the_c_ordered_lower_triangle(self, rng):
        # the exact lower triangle of LAPACK's factor, in C order as
        # np.tril returns it: samples multiply by it, and a product rounds
        # differently with the other memory order
        from scipy.linalg.lapack import dpotrf

        a = rng.normal(size=(150, 150))
        m = a @ a.T
        low = cholesky_psd(m)
        assert low.flags.c_contiguous
        assert np.array_equal(low, np.tril(dpotrf(m, lower=1)[0]))

    @pytest.mark.parametrize("dim, rank", [(60, 5), (130, 1), (200, 64)])
    def test_jittered_factor_is_the_scheduled_one(self, rng, dim, rank):
        # rank-deficient PSD matrices: plain dpotrf fails on them, and the
        # factor is LAPACK's on m + jitter * I under the documented schedule
        a = rng.normal(size=(dim, rank))
        m = a @ a.T
        expected, jitter = scheduled_factor(m)
        assert jitter > 0 and expected is not None
        low = cholesky_psd(m)
        assert low.flags.c_contiguous
        assert np.array_equal(low, expected)

    @pytest.mark.parametrize("rank", [150, 8])
    def test_factors_the_lower_triangle_of_a_nearly_symmetric_input(self, rng, rank):
        # asymmetric within the 1e-10 tolerance, at full rank and in need of
        # jitter: the lower triangle is what is factored, on every attempt
        a = rng.normal(size=(150, rank))
        m = a @ a.T
        m[np.triu_indices(150, 1)] += 1e-12 * rng.random(150 * 149 // 2)
        expected, jitter = scheduled_factor(m)
        assert (jitter > 0) == (rank < 150) and expected is not None
        assert np.array_equal(cholesky_psd(m), expected)
        mirrored = np.tril(m) + np.tril(m, -1).T
        assert np.array_equal(cholesky_psd(mirrored), expected)

    @pytest.mark.parametrize("case", ["plain", "jitter", "refused"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_the_callers_matrix_as_it_was(self, rng, case, order):
        a = rng.normal(size=(90, 90 if case == "plain" else 4))
        m = a @ a.T
        if case == "refused":
            m[0, 0] = -1.0
        m = np.array(m, order=order)
        before = m.tobytes(order="A")
        if case == "refused":
            with pytest.raises(NotPositiveSemidefiniteError):
                cholesky_psd(m)
        else:
            assert (scheduled_factor(m)[1] > 0) == (case == "jitter")
            cholesky_psd(m)
        assert m.flags.f_contiguous == (order == "F")
        assert m.tobytes(order="A") == before

    def test_holds_one_and_a_half_tables_beyond_its_input(self, rng):
        # tracemalloc peak beyond the input: 2.0 k x k float64 arrays with
        # LAPACK's copy and a new factor, 1.0 when one copy is factored in
        # place
        k = 1000
        a = rng.normal(size=(k, k))
        m = a @ a.T
        cholesky_psd(m[:16, :16])  # load LAPACK first
        tracemalloc.start()
        try:
            cholesky_psd(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * k * k, peak / (8 * k * k)


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
