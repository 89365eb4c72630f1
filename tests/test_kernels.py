"""Closed-form kernels and expected ball masses for drifted fields."""

import math

import numpy as np
import pytest

from conftest import random_measure
from packdim import (
    DiscreteMeasure,
    DriftSpec,
    FieldSpec,
    InvalidArgumentError,
    KernelContext,
    ball_mass,
    ball_mass_profile,
    estimators,
    expected_ball_mass,
    increment_prob,
    kernels,
    product_kernel,
    profile_kernel,
    slice_kernel,
)
from packdim.numerics import gaussian_interval_prob

# mpmath mp.dps=25
TWO_PHI_196 = 0.9500042097035591317268315  # 2 Phi(1.96) - 1
TWO_PHI_196_SQ = 0.9025079984544839543367461


def measure_on_line(*positions, weights=None):
    pos = np.asarray(positions, dtype=float).reshape(-1, 1)
    if weights is None:
        weights = np.full(len(pos), 1.0 / len(pos))
    return DiscreteMeasure(pos, np.asarray(weights, dtype=float))


class TestProductKernel:
    def test_inside_unit_box(self):
        assert product_kernel(0.0) == 1.0
        assert product_kernel([0.5, -1.0]) == 1.0

    def test_mixed(self):
        assert product_kernel([2.0, 0.5]) == pytest.approx(0.5, rel=1e-15)
        assert product_kernel([10.0, 10.0]) == pytest.approx(0.01, rel=1e-15)

    def test_sign_invariant(self):
        assert product_kernel([-3.0]) == product_kernel([3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            product_kernel([math.inf])


class TestProfileKernel:
    def test_atom_at_center(self):
        mu = measure_on_line(0.0)
        assert profile_kernel(mu, 1.0, [0.0], 0.5) == 1.0

    def test_two_atoms(self):
        # far atom at distance 2 contributes (r/2)^beta
        mu = measure_on_line(0.0, 2.0)
        assert profile_kernel(mu, 2.0, [0.0], 1.0) == pytest.approx(
            0.5 + 0.5 * 0.25, rel=1e-15
        )

    def test_radius_beyond_diameter(self):
        mu = measure_on_line(0.0, 0.3, 0.7)
        assert profile_kernel(mu, 1.5, [0.2], 5.0) == pytest.approx(1.0, rel=1e-15)

    def test_monotone_in_r(self, rng):
        mu = random_measure(rng, 2)
        x = mu.atoms[0]
        vals = [profile_kernel(mu, 1.0, x, r) for r in (0.01, 0.1, 1.0)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tables_match_where_formula_bitwise(self, beta, m):
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((12, m))
        # atom 30 coincides with row 4, off the table's diagonal
        atoms = np.vstack([rng.standard_normal((30, m)), rows[4]])
        dist = np.linalg.norm(rows[:, None, :] - atoms[None, :, :], axis=2)
        coincident = dist == 0.0
        inv = np.where(coincident, np.inf, dist) ** -beta
        # 1e-320 ** beta underflows to 0 for beta >= 1
        radii = [0.05, 0.8, 1e-320, 3.0, 0.8]
        seen = set()
        for table, r in zip(kernels.profile_tables(rows, atoms, beta, radii), radii, strict=True):
            expected = np.minimum(1.0, r**beta * inv)
            expected[coincident] = 1.0
            # compare before the generator advances: it refills one table
            assert table.tobytes() == expected.tobytes()
            assert table[4, 30] == 1.0
            seen.add(id(table))
        assert len(seen) == 1

    def test_validation(self):
        mu = measure_on_line(0.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 0.0, [0.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 1.0, [0.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 1.0, [0.0, 0.0], 1.0)


class TestSliceKernel:
    def test_reduces_to_product_integral_when_no_slice(self, rng):
        # n = 0 leaves nothing to slice on: the value is the plain integral
        # of the product kernel of (y - x) / r
        for _ in range(20):
            mu = random_measure(rng, 2)
            x = rng.normal(size=2)
            r = float(rng.uniform(0.05, 1.0))
            direct = sum(
                w * product_kernel((y - x) / r)
                for y, w in zip(mu.atoms, mu.weights)
            )
            assert slice_kernel(mu, 0, 2, x, r) == pytest.approx(direct, rel=1e-12)

    def test_slice_drops_far_atoms(self):
        atoms = np.array([[0.0, 0.0], [5.0, 0.0]])
        mu = DiscreteMeasure(atoms, np.array([0.5, 0.5]))
        # slicing on the first coordinate at 0 with r=1 keeps only the origin
        assert slice_kernel(mu, 1, 1, [0.0, 0.0], 1.0) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_validation(self):
        mu = measure_on_line(0.0)
        with pytest.raises(InvalidArgumentError):
            slice_kernel(mu, 1, 1, [0.0], 1.0)  # n + d too large
        with pytest.raises(InvalidArgumentError):
            slice_kernel(mu, 0, 1, [0.0], -1.0)


def context(alpha=0.5, d=1, mode="image", drift=None, mu=None):
    if mu is None:
        mu = measure_on_line(0.0, 0.25, 0.5, 0.75)
    return KernelContext(FieldSpec(alpha, 1, d), drift, mu, mode)


class TestIncrementProb:
    def test_unit_scale_interval(self):
        # |t - s| = 1 and alpha = 1/2 give a standard Gaussian increment
        ctx = context(alpha=0.5, d=1)
        assert increment_prob(ctx, [0.0], [1.0], 1.96) == pytest.approx(
            TWO_PHI_196, rel=1e-14
        )

    def test_independent_coordinates_multiply(self):
        ctx = context(alpha=0.5, d=2)
        assert increment_prob(ctx, [0.0], [1.0], 1.96) == pytest.approx(
            TWO_PHI_196_SQ, rel=1e-14
        )

    def test_coincident_points(self):
        ctx = context()
        assert increment_prob(ctx, [0.3], [0.3], 0.5) == 1.0

    def test_constant_drift_cancels_bitwise(self):
        plain = context(d=2)
        shifted = context(d=2, drift=DriftSpec.constant([7.0, -3.0]))
        for r in (0.1, 0.5, 2.0):
            assert increment_prob(plain, [0.0], [0.5], r) == increment_prob(
                shifted, [0.0], [0.5], r
            )

    def test_linear_drift_shifts_center(self):
        # drift 2t moves the increment mean to 2(t-s): compare against the
        # centered probability at the same scale
        ctx = context(drift=DriftSpec.polynomial([[0.0, 2.0]]))
        plain = context()
        assert increment_prob(ctx, [1.0], [0.0], 0.5) < increment_prob(
            plain, [1.0], [0.0], 0.5
        )


class TestExpectedBallMass:
    def test_self_atom_floor(self):
        # a point mass at t: the value ball always contains Z(t) itself
        mu = measure_on_line(0.4)
        ctx = context(mu=mu)
        assert expected_ball_mass(ctx, [0.4], 1e-6) == 1.0

    def test_huge_radius_captures_everything(self):
        ctx = context()
        assert expected_ball_mass(ctx, [0.25], 50.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_radius(self, rng):
        mu = random_measure(rng, 1)
        ctx = context(mu=mu)
        t = mu.atoms[0]
        vals = [expected_ball_mass(ctx, t, r) for r in (0.01, 0.1, 1.0, 10.0)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_graph_never_exceeds_image(self, rng):
        # the graph ball is the image ball intersected with a domain ball
        for _ in range(100):
            mu = random_measure(rng, 1)
            t = mu.atoms[int(rng.integers(mu.count))]
            r = float(rng.uniform(0.02, 2.0))
            alpha = float(rng.uniform(0.2, 0.8))
            gi = expected_ball_mass(context(alpha=alpha, mu=mu), t, r)
            gg = expected_ball_mass(context(alpha=alpha, mu=mu, mode="graph"), t, r)
            assert gg <= gi + 1e-15

    def test_graph_tiny_radius_keeps_only_self(self):
        mu = measure_on_line(0.0, 0.5, 1.0)
        ctx = context(mu=mu, mode="graph")
        # r below the atom spacing: the domain ball holds just the atom at t
        assert expected_ball_mass(ctx, [0.5], 0.25) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )

    def test_constant_drift_bitwise(self, rng):
        mu = random_measure(rng, 1)
        t = mu.atoms[0]
        plain = context(d=2, mu=mu)
        shifted = context(d=2, mu=mu, drift=DriftSpec.constant([5.0, 5.0]))
        for r in (0.05, 0.3, 1.5):
            assert expected_ball_mass(plain, t, r) == expected_ball_mass(
                shifted, t, r
            )

    def test_profile_row_matches_scalar(self):
        ctx = context()
        radii = [0.1, 0.2, 0.4]
        prof = ball_mass_profile(ctx, [0.25], radii)
        for r, v in zip(radii, prof):
            assert expected_ball_mass(ctx, [0.25], r) == v

    def test_empty_radii(self):
        for mode in ("image", "graph"):
            assert ball_mass_profile(context(mode=mode), [0.25], []).shape == (0,)

    def test_validation(self):
        ctx = context()
        with pytest.raises(InvalidArgumentError):
            expected_ball_mass(ctx, [0.0], -1.0)
        with pytest.raises(InvalidArgumentError):
            KernelContext(FieldSpec(0.5), None, measure_on_line(0.0), "shadow")


class TestKernelChain:
    def test_ball_mass_profile_slice_ordering(self, rng):
        # expected Euclidean ball mass <= profile kernel at beta = d
        # <= unsliced kernel: the chain behind the dimension comparisons
        for _ in range(25):
            mu = random_measure(rng, 2)
            x = mu.atoms[int(rng.integers(mu.count))]
            r = float(rng.uniform(0.05, 1.0))
            lo = ball_mass(mu, x, r, norm="euclidean")
            mid = profile_kernel(mu, 2.0, x, r)
            hi = slice_kernel(mu, 0, 2, x, r)
            assert lo <= mid * (1.0 + 1e-12)
            assert mid <= hi * (1.0 + 1e-12)


# Atoms on a dyadic lattice, so that domain distances tie with the dyadic
# radii; 300 atoms are 9 blocks of 32 rows plus a partial one under the
# block budget the window tests set.  Shuffled atoms give every block a band
# of full width; atoms sorted along the first coordinate, as interval sets
# come, give each block a narrow band.
WINDOW_RADII = 2.0 ** -np.arange(2, 7)
WINDOW_DRIFTS = {
    "none": None,
    "zero": DriftSpec.zero,
    "constant": lambda d: DriftSpec.constant(np.arange(1.0, d + 1)),
    "power": lambda d: DriftSpec.power(np.linspace(1.0, -0.5, d), 1.5),
    "polynomial": lambda d: DriftSpec.polynomial([[0.0, 2.0, -1.0]] * d),
}


WINDOW_ORDERS = ("shuffled", "sorted")


def lattice_measure(n, count=300, order="shuffled"):
    rng = np.random.default_rng(n)
    side = 512 if n == 1 else 64
    cells = rng.permutation(side**n)[:count]
    if order == "sorted":
        cells = np.sort(cells)
    atoms = np.stack(np.unravel_index(cells, (side,) * n), axis=1) / side
    w = rng.random(count)
    return DiscreteMeasure(atoms, w / w.sum())


def window_context(mode, drift, n, d, order="shuffled"):
    make = WINDOW_DRIFTS[drift]
    return KernelContext(
        FieldSpec(0.4, n, d), make and make(d), lattice_measure(n, order=order), mode
    )


def dense_field_tables(ctx):
    """The expected-ball-mass tables evaluated on every pair and then
    masked by the domain-ball indicator: the formula without a window."""
    atoms = ctx.measure.atoms
    d = ctx.field.range_dim
    drift = ctx.drift or DriftSpec.zero(d)

    def tables(rows, radii):
        diff = rows[:, None, :] - atoms[None, :, :]
        rho = np.linalg.norm(diff, axis=2) ** ctx.field.alpha
        dom = np.max(np.abs(diff), axis=2)
        centers = drift.evaluate(rows)[:, None, :] - drift.evaluate(atoms)[None, :, :]
        for r in radii:
            probs = np.ones_like(rho)
            for c in range(d):
                probs *= gaussian_interval_prob(rho, centers[:, :, c], r)
            yield probs * (dom <= r) if ctx.mode == "graph" else probs

    return tables


class TestFieldTablesWindow:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 2^14 entries: 32-row blocks at 300 atoms
        monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", 2**14)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize(
        "drift, n, d",
        # polynomial drift lives on 1-D domains
        [
            (drift, n, d)
            for drift in WINDOW_DRIFTS
            for n in (1, 2)
            for d in (1, 2)
            if drift != "polynomial" or n == 1
        ],
    )
    def test_tables_match_dense_formula_bitwise(self, mode, order, drift, n, d):
        ctx = window_context(mode, drift, n, d, order)
        mu = ctx.measure
        windowed = estimators._mass_table(
            mu, lambda rows, rs: kernels.field_tables(ctx, rows, rs), WINDOW_RADII
        )
        dense = estimators._mass_table(mu, dense_field_tables(ctx), WINDOW_RADII)
        assert np.array_equal(windowed, dense)

    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_graph_evaluates_only_the_window(self, monkeypatch, n, order):
        elements = []

        def counting(rho, a, r):
            elements.append(np.broadcast(rho, a, r).size)
            return gaussian_interval_prob(rho, a, r)

        monkeypatch.setattr(kernels, "gaussian_interval_prob", counting)
        for mode in ("graph", "image"):
            ctx = window_context(mode, "none", n, 1, order)
            atoms = ctx.measure.atoms
            estimators._mass_table(
                ctx.measure, lambda rows, rs: kernels.field_tables(ctx, rows, rs), WINDOW_RADII
            )
            if mode == "graph":
                dom = np.max(np.abs(atoms[:, None, :] - atoms[None, :, :]), axis=2)
                expected = sum(int(np.count_nonzero(dom <= r)) for r in WINDOW_RADII)
            else:
                expected = len(atoms) ** 2 * len(WINDOW_RADII)
            assert sum(elements) == expected, mode
            elements.clear()


def assert_tables_match(ctx, rows, radii):
    # compare each table before the generator advances: graph mode
    # overwrites one table per call
    dense = dense_field_tables(ctx)(rows, radii)
    for table, expected in zip(kernels.field_tables(ctx, rows, radii), dense, strict=True):
        assert np.array_equal(table, expected)


def edge_measure(n, offset):
    """Rows x_i and, for every radius r, atoms whose first coordinate sits
    within 8 ulps of x_i0 +- r; the other coordinates repeat x_i's.  With
    a negative edge the difference x_i0 - y_k0 rounds, so atoms just
    outside the exact band can still have a domain distance <= r."""
    rows = offset + np.random.default_rng(n).random((3, n)) - 0.5
    atoms = [rows]
    for r in WINDOW_RADII:
        for edge in (rows[:, 0] - r, rows[:, 0] + r):
            nudged = edge.copy()
            for _ in range(8):
                nudged = np.nextafter(nudged, -np.inf)
            for _ in range(17):
                shifted = rows.copy()
                shifted[:, 0] = nudged
                atoms.append(shifted)
                nudged = np.nextafter(nudged, np.inf)
    atoms = np.concatenate(atoms)
    return rows, DiscreteMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms)))


class TestFieldTablesBand:
    RADII = {
        "increasing": WINDOW_RADII[::-1],
        "shuffled": WINDOW_RADII[[2, 0, 4, 1, 3]],
        "repeated": WINDOW_RADII[[1, 1, 3, 0, 3, 3, 1]],
    }

    @pytest.mark.parametrize("order", RADII)
    # n = 3 sums three squares: the band's coordinate-major norms must add
    # them in the order of the dense formula's last-axis norms
    @pytest.mark.parametrize(
        "drift, n, d", [("none", 1, 1), ("power", 2, 2), ("polynomial", 1, 2), ("none", 3, 1)]
    )
    def test_any_radius_order_matches_dense_bitwise(self, order, drift, n, d):
        ctx = window_context("graph", drift, n, d)
        atoms = ctx.measure.atoms
        # sorted rows give a narrow band, the measure's own order a wide one
        by_first = atoms[np.argsort(atoms[:, 0], kind="stable")]
        for rows in (by_first[40:72], by_first[-16:], atoms[:32]):
            assert_tables_match(ctx, rows, self.RADII[order])

    @pytest.mark.parametrize("offset", [1e6, -1e6, 0.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_window_edges_match_dense_bitwise(self, offset, n):
        rows, mu = edge_measure(n, offset)
        ctx = KernelContext(FieldSpec(0.4, n, 1), None, mu, "graph")
        for block in (rows, rows[:1], rows[1:2], rows[2:]):
            assert_tables_match(ctx, block, WINDOW_RADII)
