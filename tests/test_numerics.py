"""Scalar numerics: Gaussian interval probabilities, the PSD Cholesky
wrapper, seed streams, and closed-run masses on the line, which must equal
the dense tables they replace bit for bit.

The high-precision reference constants were computed with mpmath at 50
digits and frozen here; the library must match them to near machine
precision.  The tail and centred interval probabilities are computed with
mpmath at 50 digits when the tests run.
"""

import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from conftest import scheduled_factor
from hypothesis import given, strategies as st

from packdim import (
    DiscreteMeasure,
    FieldSpec,
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    Seed,
    build_uniform_cantor,
    cholesky_psd,
    estimators,
    fields,
    gaussian_interval_prob,
    kernels,
    natural_measure,
    numerics,
    verify,
)
from packdim.measures import _uniform
from packdim.numerics import _exact_sums, _line_distances, _pair_distances, _run_masses

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


def _pin_inputs(name):
    """(rho, a, r) of a drifted tile whose lanes all take the erf form, of
    one whose lanes all take the erfc form, of one whose lanes mostly take
    the erfc form, with a rho = 0 row and a NaN drift column, and of
    verify's interval-bound grid at 48 points per axis, whose lanes split
    between the two, with its rho = 0 lanes and one NaN rho."""
    if name == "all-erf":
        return np.geomspace(0.1, 1.0, 40)[:, None], np.linspace(-0.3, 0.3, 41)[None, :], 0.2
    if name == "all-erfc":
        a = np.concatenate([-np.linspace(1.0, 3.0, 20), np.linspace(1.0, 3.0, 21)])
        return np.geomspace(1e-3, 0.05, 40)[:, None], a[None, :], 0.2
    if name == "tail-majority":
        rho = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 39)])
        a = np.concatenate([np.linspace(-3.0, 3.0, 40), [np.nan]])
        return rho[:, None], a[None, :], 0.2
    c = 2.0 ** (-1.0 / (1.0 - 0.5))
    rhos = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 48), [np.nan]])
    cents = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 48)])
    rs = np.geomspace(1e-6, c * (1.0 - 1e-9), 48)
    return tuple(np.meshgrid(rhos, cents, rs, indexing="ij"))


def _erf_lanes(name):
    """The lanes of a pinned input in the erf form, (r - |a|) / s > -1."""
    rho, a, r = _pin_inputs(name)
    with np.errstate(all="ignore"):
        return (r - np.abs(a)) / (rho * np.sqrt(2.0)) > -1.0


class TestPinnedBytes:
    """The sha256 of gaussian_interval_prob's output on fixed inputs, as
    the function wrote them before its split path was rewritten (the
    tail-majority one before it took one evaluation order)."""

    # name: (output shape, share of erf-form lanes, sha256 of the output)
    PINS = {
        "all-erf": (
            (40, 41), 1.0, "7822c203ab5a599d800d09d81f4263121e6c01d49892f740c19e084d408d9198",
        ),
        "all-erfc": (
            (40, 41), 0.0, "76479b52c91149c7ff519e1779013e7d840d9b425ee9d28e7e5b4a9286dbb543",
        ),
        "tail-majority": (
            (40, 41),
            0.12560975609756098,
            "984077cc55ad1a68a94e7def2013c68ccb198f7a3f9373ebd2fee3dd453bc38a",
        ),
        "split": (
            (50, 49, 48),
            0.6134693877551021,
            "29be7bd10a3cc24f77ee255879f6c7593dc2b4486b2b7957acafe9fd20fa932a",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_output_bytes(self, name):
        shape, erf_share, digest = self.PINS[name]
        assert np.mean(_erf_lanes(name)) == erf_share
        got = gaussian_interval_prob(*_pin_inputs(name))
        assert got.shape == shape
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest


class TestOneEvaluationOrder:
    """The general path computes the erf form over every lane, and the
    erfc form only over the lanes it gathers, however few take the erf
    form."""

    @pytest.mark.parametrize("name", sorted(TestPinnedBytes.PINS))
    def test_erf_over_every_lane_and_erfc_over_the_tail(self, name, monkeypatch):
        import scipy.special

        sizes = {"erf": [], "erfc": []}
        for fn in sizes:
            ufunc = getattr(scipy.special, fn)

            def spy(x, *args, ufunc=ufunc, seen=sizes[fn], **kwargs):
                seen.append(np.size(x))
                return ufunc(x, *args, **kwargs)

            monkeypatch.setattr(scipy.special, fn, spy)
        tail = np.count_nonzero(~_erf_lanes(name))
        got = gaussian_interval_prob(*_pin_inputs(name))
        assert sizes == {"erf": [got.size] * 2, "erfc": [tail] * 2 if tail else []}


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


def dyadic_line(seed):
    """An unsorted measure on the line whose weights sum to exactly 1 in
    units of a power of two, and 1 to 5 radii from 2^-1 to 2^-20.  Beside
    random atoms, some atoms x0 get companions at exactly x0 - r and x0 + r
    and one ulp on either side of those, for every radius r."""
    rng = np.random.default_rng(seed)
    radii = 2.0 ** -np.sort(rng.choice(np.arange(1, 21), int(rng.integers(1, 6)), replace=False))
    x = rng.random(int(rng.integers(1, 40)))
    for x0 in rng.choice(x, min(3, len(x)), replace=False):
        for edge in np.concatenate([x0 - radii, x0 + radii]):
            x = np.append(x, [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])
    x = np.unique(x)
    rng.shuffle(x)
    units = rng.integers(1, 2**12, len(x))
    total = 2 ** int(units[:-1].sum()).bit_length()
    units[-1] = total - units[:-1].sum()
    return DiscreteMeasure(x[:, None], units / total), radii


class TestRunMasses:
    @given(st.integers(0, 2**31 - 1))
    def test_balls_are_the_walk_bit_for_bit(self, seed):
        mu, radii = dyadic_line(seed)
        assert _exact_sums(mu.weights)
        walk = estimators._mass_table(mu, kernels.ball_tables, radii)
        runs = _run_masses(mu.atoms[:, 0], mu.weights, radii, _line_distances)
        assert runs.tobytes() == walk.tobytes()

    @given(st.integers(0, 2**31 - 1))
    def test_gaps_are_the_box_table_bit_for_bit(self, seed):
        mu, radii = dyadic_line(seed)
        boxes = verify._box_masses(mu.atoms, mu.weights, radii[:, None])
        assert _run_masses(mu.atoms[:, 0], mu.weights, radii).tobytes() == boxes.tobytes()
        # on Python ints, as check_doubling hands them over
        keys = np.array([int(v * 2**60) for v in mu.atoms[:, 0]], dtype=object)
        weights = np.array([int(w * 2**40) for w in mu.weights], dtype=object)
        halves = np.array([int(r * 2**60) for r in radii], dtype=object)
        runs = _run_masses(keys, weights, halves)
        assert runs.dtype == object
        assert (runs == verify._box_masses(keys[:, None], weights, halves[:, None])).all()

    def test_edges_of_the_closed_run(self):
        x = np.array([0.5, 0.25, 0.75, np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0), 0.625])
        w = np.array([1, 2, 4, 8, 16, 32], dtype=float) / 64
        (row,) = _run_masses(x[:1], w[:1], [0.25], _line_distances)
        assert row == w[0]
        table = _run_masses(x, w, [0.25], _line_distances)
        # 0.25 and 0.75 lie on the ball around 0.5.  0.5 minus the float
        # below 0.25 is 0.25 + 2^-55, a tie that rounds to 0.25: inside.
        # The float above 0.75 less 0.5 is 0.25 + 2^-53 exactly: outside.
        assert table[0, 0] == (1 + 2 + 4 + 8 + 32) / 64
        dist = _pair_distances(x[:, None], x[:, None])
        assert table.tobytes() == ((dist <= 0.25) @ w)[:, None].tobytes()

    def test_the_comparison_is_the_distance_not_the_bound(self):
        # around 1 with h = 3 * 2^-54 the bisected bound 1 + h rounds up to
        # the atom 1 + 2^-52, which lies 2^-52 > h from 1
        x = np.array([1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51])
        w = np.array([0.25, 0.25, 0.5])
        h = 3 * 2.0**-54
        assert 1.0 + h == x[1]
        dist = _pair_distances(x[:, None], x[:, None])
        expected = ((dist <= h) @ w)[:, None]
        assert expected[0, 0] == 0.25
        assert _run_masses(x, w, [h], _line_distances).tobytes() == expected.tobytes()


class TestExactSums:
    @pytest.mark.parametrize(
        "weights, exact",
        [
            ([1.0], True),
            ([0.75, 0.25], True),
            ([0.5, 0.25, 2.0**-40], True),
            # 2^53 - 1 units of 2^-53, then exactly 2^53
            ([1.0 - 2.0**-52, 2.0**-53], True),
            ([1.0 - 2.0**-53, 2.0**-53], False),
            # 2^60 + 1 units of 2^-60
            ([1.0, 2.0**-60], False),
            ([1.0 / 3.0, 2.0 / 3.0], False),
            # subnormal weights, in units of 2^-1074
            ([5e-324, 1e-320, 2.0**-1030], True),
            ([2.0**-1074, 1.0], False),
            ([2.0**-1022, 2.0**-1074], True),
        ],
    )
    def test_cases(self, weights, exact):
        assert _exact_sums(np.array(weights)) is exact

    def test_the_measures_that_take_the_runs(self):
        cantor = build_uniform_cantor(2, 1.0 / 3.0, 12)
        assert _exact_sums(natural_measure(cantor, 12).weights)
        assert _exact_sums(_uniform(np.arange(2**10, dtype=float)).weights)
        assert not _exact_sums(_uniform(np.arange(1000, dtype=float)).weights)


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


def poison_below_the_blocks(monkeypatch, module):
    """Route module's _cholesky_in_place through a fill that writes NaN
    below the diagonal of the array it factors before each attempt, then
    fills as asked.  The fills write the diagonal blocks again, so what
    stays NaN is what no fill writes.  Returns the list of (lo, hi,
    out.shape) of every fill call."""
    real = numerics._cholesky_in_place
    calls = []

    def in_place(dim, fill):
        def poisoned(lo, hi, out):
            if lo == 0:
                assert out.base.shape == (dim, dim)
                out.base[np.tril_indices(dim, -1)] = np.nan
            calls.append((lo, hi, out.shape))
            fill(lo, hi, out)

        return real(dim, poisoned)

    monkeypatch.setattr(module, "_cholesky_in_place", in_place)
    return calls


def fill_calls(m, jitter, rows):
    """The fill calls of the documented schedule on ``m``: every row block
    of ``rows`` rows in order, once for the plain attempt and once for
    each jitter taken, up to the one that factored."""
    dim = len(m)
    attempts = 1
    if jitter:
        attempts = 2 + round(math.log10(jitter / (1e-12 * (np.trace(m) / dim))))
    blocks = [(lo, min(lo + rows, dim)) for lo in range(0, dim, rows)]
    return [(lo, hi, (hi - lo, dim - lo)) for lo, hi in blocks] * attempts


class TestCholeskyFill:
    """_cholesky_in_place allocates the array it factors, and its caller
    fills only the triangle dpotrf reads, block by block, on every
    attempt.  The entries below the row blocks are never read: poisoned
    with NaN, they leave the factor as it was, jittered or not."""

    ROWS = 16

    @pytest.mark.parametrize("rank", [40, 3])
    def test_cholesky_psd(self, monkeypatch, rng, rank):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", self.ROWS)
        a = rng.normal(size=(40, rank))
        m = a @ a.T
        expected, jitter = scheduled_factor(m)
        assert (jitter > 0) == (rank < 40) and expected is not None
        calls = poison_below_the_blocks(monkeypatch, numerics)
        assert np.array_equal(cholesky_psd(m), expected)
        assert calls == fill_calls(m, jitter, self.ROWS)

    @pytest.mark.parametrize("case", ["plain", "jitter"])
    def test_sampler(self, monkeypatch, case):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", self.ROWS)
        if case == "plain":
            pts = build_uniform_cantor(2, 1.0 / 3.0, 6).lefts(6)[1:, None]
        else:
            # 1e-15 apart: plain dpotrf fails on their covariance
            pts = (0.5 + np.arange(40) * 1e-15)[:, None]
        assert len(np.unique(pts)) == len(pts) and pts.min() > 0
        sn = np.linalg.norm(pts, axis=1) ** 1.4
        m = 0.5 * (sn[:, None] + sn[None, :] - _pair_distances(pts, pts) ** 1.4)
        expected, jitter = scheduled_factor(m)
        assert (jitter > 0) == (case == "jitter") and expected is not None
        calls = poison_below_the_blocks(monkeypatch, fields)
        sampler = fields._Sampler(FieldSpec(0.7), pts, "cholesky")
        assert np.array_equal(sampler.factor, expected)
        assert calls == fill_calls(m, jitter, self.ROWS)

    def test_a_retry_jitters_the_diagonal_alone(self):
        # the off-diagonal -0.0 entries stay -0.0 on the jittered attempt:
        # the factor has the bits of LAPACK's on m with jitter added to its
        # diagonal, -0.0 below it, not those of m + jitter * I
        from scipy.linalg.lapack import dpotrf

        m = np.full((3, 3), -0.0)
        m[0, 0] = 1.0
        expected, jitter = scheduled_factor(m)
        assert jitter > 0 and expected is not None
        jittered = m.copy()
        jittered[np.diag_indices(3)] += jitter
        low = cholesky_psd(m)
        assert low.tobytes() == np.tril(dpotrf(jittered, lower=1)[0]).tobytes()
        assert np.array_equal(low, expected)
        assert np.signbit(low[np.tril_indices(3, -1)]).all()


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

    @pytest.mark.parametrize("master", [1.5, 1.0, True, np.True_, np.float64(2.0), "3", None])
    def test_master_must_be_an_integer(self, master):
        # a float or bool master would otherwise draw an integer master's stream
        with pytest.raises(InvalidArgumentError, match="master seed must be an integer"):
            Seed(master)

    @pytest.mark.parametrize("stream", [0.5, 1.0, True, np.float64(1.0)])
    def test_stream_must_be_an_integer(self, stream):
        with pytest.raises(InvalidArgumentError, match="stream index must be an integer"):
            Seed(5, stream=stream)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
    def test_numpy_integers_are_held_as_ints(self, dtype):
        # master + stream << 64 on a numpy integer wraps to master, so
        # Seed(5, stream=int64(1)) drew the stream of Seed(5)
        seed = Seed(dtype(5), stream=dtype(1))
        assert type(seed.master) is int and type(seed.stream) is int
        assert seed == Seed(5, 1)
        draws = seed.generator().standard_normal(4)
        np.testing.assert_array_equal(draws, Seed(5, 1).generator().standard_normal(4))
        assert not np.array_equal(draws, Seed(5).generator().standard_normal(4))
