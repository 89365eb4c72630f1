"""Discrete measures: masses of balls, rectangles and slices, and the CSV
round trip."""

import numpy as np
import pytest

from packdim import (
    DiscreteMeasure,
    InvalidArgumentError,
    ball_mass,
    read_measure_csv,
    rect_mass,
    slice_measure,
    write_measure_csv,
)
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
