"""Discrete measures: masses of balls, rectangles and slices, and the CSV
round trip."""

import numpy as np
import pytest

from packdim import (
    DiscreteMeasure,
    DriftSpec,
    FieldSpec,
    InvalidArgumentError,
    KernelContext,
    ball_mass,
    ball_mass_profile,
    ball_tables,
    canonical_metric,
    expected_ball_mass,
    fbm_covariance,
    increment_prob,
    profile_kernel,
    read_measure_csv,
    rect_mass,
    slice_kernel,
    slice_measure,
    write_measure_csv,
)
from packdim.numerics import _pair_distances
from conftest import random_measure


def delta(point):
    return DiscreteMeasure(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))


class TestConstruction:
    def test_weights_must_normalize(self):
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))

    @pytest.mark.parametrize(
        "atoms", [[[0.0], [0.5], [-0.0]], [[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]]]
    )
    def test_repeated_atoms_rejected(self, atoms):
        # atoms are compared by value: -0.0 and 0.0 are one atom
        with pytest.raises(InvalidArgumentError, match="^atoms must be pairwise distinct$"):
            DiscreteMeasure(np.array(atoms), np.full(3, 1.0 / 3.0))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


class TestBallMass:
    def test_atom_at_center_zero_radius(self):
        assert ball_mass(delta([0.7, -0.2]), [0.7, -0.2], 0.0) == 1.0

    def test_two_point_half(self):
        mu = DiscreteMeasure(np.array([[0.0], [3.0]]), np.array([0.5, 0.5]))
        assert ball_mass(mu, [0.0], 1.0) == 0.5

    def test_norms_agree_on_line(self, rng):
        for _ in range(30):
            mu = random_measure(rng, 1)
            x = rng.normal(size=1)
            r = float(rng.uniform(0, 2))
            inside = np.abs(mu.atoms[:, 0] - x[0]) <= r
            assert ball_mass(mu, x, r) == float(mu.weights[inside].sum())

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_equals_a_ball_tables_row(self, rng, m):
        # every atom's distance is a radius, so each atom lies on the sphere
        # of one of them: a distance rounded otherwise than the tables
        # round it would drop or take that atom
        for _ in range(4):
            mu = random_measure(rng, m, max_atoms=500)
            x = rng.normal(size=m)
            radii = _pair_distances(x[None, :], mu.atoms)[0]
            for r, table in zip(radii, ball_tables(x[None, :], mu.atoms, radii)):
                inside = np.asarray(table[0], dtype=bool)
                assert ball_mass(mu, x, r) == float(mu.weights[inside].sum())


# every function that reads one query point, as (name, call on the point);
# the point lives in R^2
_MU2 = DiscreteMeasure(np.array([[0.0, 0.0], [0.5, 0.25]]), np.array([0.5, 0.5]))
_CTX2 = KernelContext(
    FieldSpec(0.5, domain_dim=2), DriftSpec.power([1.0], 1.5), _MU2, mode="graph"
)
_PER_POINT = {
    "ball_mass": lambda x: ball_mass(_MU2, x, 0.3),
    "rect_mass": lambda x: rect_mass(_MU2, x, 0.3),
    "profile_kernel": lambda x: profile_kernel(_MU2, 0.5, x, 0.1),
    "slice_kernel": lambda x: slice_kernel(_MU2, 1, 1, x, 0.1),
    "increment_prob-t": lambda x: increment_prob(_CTX2, x, [0.5, 0.25], 0.1),
    "increment_prob-s": lambda x: increment_prob(_CTX2, [0.0, 0.0], x, 0.1),
    "ball_mass_profile": lambda x: ball_mass_profile(_CTX2, x, [0.1, 0.2]),
    "expected_ball_mass": lambda x: expected_ball_mass(_CTX2, x, 0.1),
    "canonical_metric-t": lambda x: canonical_metric(_CTX2.field, x, [0.5, 0.25]),
    "canonical_metric-s": lambda x: canonical_metric(_CTX2.field, [0.0, 0.0], x),
    "fbm_covariance-t": lambda x: fbm_covariance(x, [0.5, 0.25], 0.5),
    "fbm_covariance-s": lambda x: fbm_covariance([0.0, 0.0], x, 0.5),
}


class TestQueryPoints:
    @pytest.mark.parametrize("name", sorted(_PER_POINT))
    def test_finite_point_is_taken(self, name):
        assert np.isfinite(_PER_POINT[name]([0.2, 0.1])).all()

    @pytest.mark.parametrize("bad", [[np.nan, 0.1], [0.2, np.inf], [-np.inf, np.nan]])
    @pytest.mark.parametrize("name", sorted(_PER_POINT))
    def test_non_finite_point_is_refused(self, name, bad):
        with pytest.raises(InvalidArgumentError, match="^query point must be finite$"):
            _PER_POINT[name](bad)

    @pytest.mark.parametrize("bad", [0.2, [0.2, 0.1, 0.0]])
    @pytest.mark.parametrize("name", sorted(_PER_POINT))
    def test_point_of_another_size_is_refused(self, name, bad):
        with pytest.raises(InvalidArgumentError, match="^point dimension"):
            _PER_POINT[name](bad)

    def test_an_empty_point_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="^point dimension 0 "):
            fbm_covariance([], [], 0.5)

    def test_a_scalar_is_a_point_on_the_line(self):
        line = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        assert ball_mass(line, 0.0, 0.5) == ball_mass(line, [0.0], 0.5) == 0.5
        assert canonical_metric(FieldSpec(0.5), 0.0, 0.25) == 0.5
        assert fbm_covariance(0.25, 0.25, 0.5) == 0.25


class TestRectMass:
    def test_point_in_unit_box(self):
        assert rect_mass(delta([0.0, 0.0]), [0.0, 0.0], (1.0, 1.0)) == 1.0

    def test_partial_cover(self):
        mu = DiscreteMeasure(
            np.arange(4.0).reshape(-1, 1), np.full(4, 0.25)
        )
        assert rect_mass(mu, [1.0], 1.0) == 0.75  # atoms 0, 1, 2

    def test_equals_max_norm_ball(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            mu = random_measure(rng, d)
            x = rng.normal(size=d)
            r = float(rng.uniform(0, 2))
            inside = np.abs(mu.atoms - x).max(axis=1) <= r
            assert rect_mass(mu, x, np.full(d, r)) == float(mu.weights[inside].sum())

    def test_scalar_halfwidth_broadcasts(self):
        mu = delta([0.2, 0.2])
        assert rect_mass(mu, [0.0, 0.0], 0.5) == 1.0

    def test_nan_halfwidth_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            rect_mass(delta([0.0, 0.0]), [0.0, 0.0], (0.5, np.nan))


class TestSliceMeasure:
    def test_empty_conditioning_returns_measure(self, rng):
        mu = random_measure(rng, 2)
        out = slice_measure(mu, [], 1.0)
        np.testing.assert_array_equal(out.atoms, mu.atoms)
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_first_coordinate_filter(self):
        mu = DiscreteMeasure(np.array([[0.0, 0.0], [2.0, 5.0]]), np.array([0.5, 0.5]))
        out = slice_measure(mu, [0.0], 1.0)
        assert out.atoms.shape == (1, 1)
        assert out.atoms[0, 0] == 0.0
        assert out.weights[0] == 0.5

    def test_equal_tails_merge_in_first_occurrence_order(self):
        atoms = np.array(
            [[0.0, 3.0], [0.1, 1.0], [0.2, 3.0], [0.3, 2.0], [0.4, 1.0], [0.5, 3.0], [9.0, 2.0]]
        )
        weights = np.array([0.1, 0.2, 0.05, 0.15, 0.1, 0.3, 0.1])
        out = slice_measure(DiscreteMeasure(atoms, weights), [0.25], 0.25)
        np.testing.assert_array_equal(out.atoms, [[3.0], [1.0], [2.0]])
        assert out.weights.tolist() == [(0.1 + 0.05) + 0.3, 0.2 + 0.1, 0.15]

    def test_wide_slice_keeps_everything(self, rng):
        mu = random_measure(rng, 3)
        out = slice_measure(mu, [0.0], 100.0)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert out.atoms.shape[1] == 2


class TestCsvRoundTrip:
    def test_bitwise(self, tmp_path, rng):
        mu = random_measure(rng, 3)
        p = tmp_path / "m.csv"
        write_measure_csv(mu, p)
        back = read_measure_csv(p)
        np.testing.assert_array_equal(back.atoms, mu.atoms)
        np.testing.assert_array_equal(back.weights, mu.weights)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("0.5,0.25,0.5\n0.1,x,0.5\n", "row 3, column x2: 'x'"),
            ("0.5,0.25,half\n", "row 2, column weight: 'half'"),
            ("0.5,,1.0\n", "row 2, column x2: ''"),
        ],
    )
    def test_non_numeric_cell_names_row_and_column(self, tmp_path, body, where):
        p = tmp_path / "bad.csv"
        p.write_text("x1,x2,weight\n" + body)
        with pytest.raises(InvalidArgumentError, match=f"^{where} is not a number$"):
            read_measure_csv(p)

    def test_cells_are_float_reprs(self, tmp_path):
        # the bytes of a row-by-row writer of repr(float(v)) cells
        atoms = np.array([[-0.0, 1e308], [5e-324, 0.1], [0.1, -0.0]])
        p = tmp_path / "m.csv"
        write_measure_csv(DiscreteMeasure(atoms, np.array([0.1, 0.3, 0.6])), p)
        assert p.read_bytes() == (
            b"x1,x2,weight\r\n-0.0,1e+308,0.1\r\n5e-324,0.1,0.3\r\n0.1,-0.0,0.6\r\n"
        )

    def test_header_names_coordinates(self, tmp_path):
        mu = DiscreteMeasure(np.array([[0.25, 0.5]]), np.array([1.0]))
        p = tmp_path / "m.csv"
        write_measure_csv(mu, p)
        assert p.read_text().splitlines()[0] == "x1,x2,weight"
