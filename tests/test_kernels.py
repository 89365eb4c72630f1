"""Closed-form kernels and expected ball masses for drifted fields."""

import math
from fractions import Fraction
from functools import partial

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
    fields,
    fractals,
    increment_prob,
    kernels,
    numerics,
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
        # 1e-320 ** beta underflows to 0 for beta >= 1; at 1e3 every
        # atom lies in the ball and the table is constant
        radii = [0.05, 0.8, 1e-320, 3.0, 1e3, 0.8]
        seen = set()
        constant = 0
        for table, r in zip(kernels.profile_tables(rows, atoms, beta, radii), radii, strict=True):
            expected = np.minimum(1.0, r**beta * inv)
            expected[coincident] = 1.0
            # compare before the generator advances: it refills one table
            assert table.tobytes() == expected.tobytes()
            assert table[4, 30] == 1.0
            if any(table.strides):
                seen.add(id(table))
            else:
                # a constant table is a read-only view with zero strides
                assert table.shape == expected.shape and not table.flags.writeable
                constant += 1
        assert len(seen) == 1
        assert constant == 1

    def test_validation(self):
        mu = measure_on_line(0.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 0.0, [0.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 1.0, [0.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            profile_kernel(mu, 1.0, [0.0, 0.0], 1.0)

    def test_infinite_beta_is_refused(self):
        # r^beta underflows to 0 and a distance below 1 gives inf, so every
        # entry was 0 * inf = NaN, which fmin turned into 1: the nine equal
        # weights summed to 1.0000000000000002
        mu = measure_on_line(*(np.arange(9) / 9.0))
        with pytest.raises(InvalidArgumentError, match="^beta must be positive and finite$"):
            profile_kernel(mu, math.inf, [0.0], 0.1)


class TestSliceKernel:
    def test_reduces_to_product_integral_when_no_slice(self, rng):
        # n = 0 leaves nothing to slice on: the value is the plain integral
        # of the product kernel prod_j min(1, 1/|v_j|) at v = (y - x) / r
        for _ in range(20):
            mu = random_measure(rng, 2)
            x = rng.normal(size=2)
            r = float(rng.uniform(0.05, 1.0))
            v = np.abs((mu.atoms - x) / r)
            direct = np.prod(np.where(v <= 1.0, 1.0, 1.0 / v), axis=1) @ mu.weights
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

    @pytest.mark.parametrize("mode", ["image", "graph"])
    # the drifts of WINDOW_DRIFTS; the polynomial one lives on the line
    @pytest.mark.parametrize(
        "drift, n",
        [
            (drift, n)
            for drift in ("none", "zero", "constant", "power", "polynomial")
            for n in (1, 2, 3)
            if drift != "polynomial" or n == 1
        ],
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_is_the_image_table_entry_bitwise(self, drift, n, d, mode):
        make = WINDOW_DRIFTS[drift]
        mu = DiscreteMeasure(np.zeros((1, n)), np.ones(1))
        ctx = KernelContext(FieldSpec(0.4, n, d), make and make(d), mu, mode)
        image = KernelContext(ctx.field, ctx.drift, mu)
        rng = np.random.default_rng(17 * n + d)
        for _ in range(8):
            t, s = rng.uniform(-1.0, 1.0, (2, n))
            radii = [0.0, *rng.uniform(0.05, 2.0, 3)]
            tables = kernels.field_tables(image, t[None, :], s[None, :], radii)
            for r, table in zip(radii, tables, strict=True):
                assert increment_prob(ctx, t, s, r) == table[0, 0]

    @pytest.mark.parametrize("r", [np.nan, -0.5, -np.inf])
    def test_refuses_a_nan_or_negative_radius(self, r):
        with pytest.raises(InvalidArgumentError, match="r must be nonnegative"):
            increment_prob(context(), [0.0], [0.5], r)

    def test_power_drift_on_the_plane(self):
        # f(t) = |t|: the drift moves the increment between s = 0 and
        # t = (0.6, 0.8) by f(t) - f(s) = 1, at scale |t - s|^alpha = 1
        mu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
        ctx = KernelContext(FieldSpec(0.5, 2, 1), DriftSpec.power([1.0], 1.0), mu)
        t, s = np.array([0.6, 0.8]), np.zeros(2)
        expected = gaussian_interval_prob(
            np.linalg.norm(t - s) ** 0.5, np.linalg.norm(t) - np.linalg.norm(s), 0.5
        )
        assert increment_prob(ctx, t, s, 0.5) == expected
        assert expected == pytest.approx(0.2417303374571288, rel=1e-15)


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

    def test_graph_ball_far_from_the_atoms_is_empty(self):
        # no atom within the largest radius: field_tables yields no table
        ctx = context(mu=measure_on_line(0.0, 0.5, 1.0), mode="graph")
        assert ball_mass_profile(ctx, [5.0], [0.1, 2.0]).tolist() == [0.0, 0.0]

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
            lo = ball_mass(mu, x, r)
            mid = profile_kernel(mu, 2.0, x, r)
            hi = slice_kernel(mu, 0, 2, x, r)
            assert lo <= mid * (1.0 + 1e-12)
            assert mid <= hi * (1.0 + 1e-12)


# Atoms on a dyadic lattice, so that domain distances tie with the dyadic
# radii; 300 atoms are 9 tiles of 32 atoms plus a partial one under the
# tile side the window tests set.  Shuffled atoms spread every tile's
# window over the whole tile; atoms sorted along the first coordinate, as
# interval sets come, give each tile a narrow window or none.
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
    d = ctx.field.range_dim
    drift = ctx.drift or DriftSpec.zero(d)

    def tables(rows, atoms, radii):
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
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(estimators, "_TILE", 32)

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
        windowed = estimators._mass_table(mu, partial(kernels.field_tables, ctx), WINDOW_RADII)
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
            estimators._mass_table(ctx.measure, partial(kernels.field_tables, ctx), WINDOW_RADII)
            # the walk evaluates the tiles (I, K) with K > I once each, and
            # the pairs i <= k of a diagonal tile: the pairs i <= k in all
            index = np.arange(len(atoms))
            walked = index[:, None] <= index[None, :]
            if mode == "graph":
                dom = np.max(np.abs(atoms[:, None, :] - atoms[None, :, :]), axis=2)
                expected = sum(int(np.count_nonzero(walked & (dom <= r))) for r in WINDOW_RADII)
            else:
                expected = int(np.count_nonzero(walked)) * len(WINDOW_RADII)
            assert sum(elements) == expected, mode
            elements.clear()


def assert_tables_match(ctx, rows, radii):
    # every table of the call, in the order of the radii
    atoms = ctx.measure.atoms
    dense = dense_field_tables(ctx)(rows, atoms, radii)
    for table, expected in zip(kernels.field_tables(ctx, rows, atoms, radii), dense, strict=True):
        assert np.array_equal(table, expected)


def edge_measure(n, offset):
    """Rows x_i and, for every radius r, atoms whose first coordinate sits
    within 8 ulps of x_i0 +- r; the other coordinates repeat x_i's.  With
    a negative edge the difference x_i0 - y_k0 rounds, so atoms just
    outside the exact window can still have a domain distance <= r."""
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
    # n = 3 sums three squares: the running sum of _pair_distances must
    # add them in the order of the dense formula's last-axis norms
    @pytest.mark.parametrize(
        "drift, n, d", [("none", 1, 1), ("power", 2, 2), ("polynomial", 1, 2), ("none", 3, 1)]
    )
    def test_any_radius_order_matches_dense_bitwise(self, order, drift, n, d):
        ctx = window_context("graph", drift, n, d)
        atoms = ctx.measure.atoms
        # sorted rows meet a narrow window, the measure's own order a wide one
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


def block_forms(ctx):
    """The four kernels' block forms as tables(rows, atoms, radii); the
    slice kernel reads all but the last coordinate as its head."""
    dim = ctx.measure.dim
    return {
        "ball": kernels.ball_tables,
        "profile": lambda rows, atoms, radii: kernels.profile_tables(rows, atoms, 0.7, radii),
        "slice": lambda rows, atoms, radii: kernels.slice_tables(rows, atoms, dim - 1, radii),
        "field": partial(kernels.field_tables, ctx),
    }


def evaluated(tables, rows, atoms):
    # copy each table before the generator advances: the profile kernel
    # refills one table per call
    return [table.copy() for table in tables(rows, atoms, WINDOW_RADII)]


def unblocked(mu, tables):
    return np.stack([table @ mu.weights for table in tables(mu.atoms, mu.atoms, WINDOW_RADII)], 1)


class TestTileWalk:
    # The field kernel in both modes under every drift (the polynomial one
    # lives on the line); the measure kernels read no context.
    CASES = [
        ("field", mode, drift, n)
        for mode in ("image", "graph")
        for drift in ("none", "constant", "power", "polynomial")
        for n in (1, 2)
        if drift != "polynomial" or n == 1
    ] + [(form, "image", "none", n) for form in ("ball", "profile", "slice") for n in (1, 2)]

    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize("form, mode, drift, n", CASES)
    def test_tables_are_symmetric_bitwise(self, form, mode, drift, n, order):
        # the walk evaluates (I, K) and reads (K, I) as its transpose
        ctx = window_context(mode, drift, n, 2, order)
        tables = block_forms(ctx)[form]
        atoms = ctx.measure.atoms
        blocks = [(atoms[:96], atoms[96:]), (atoms[100:140], atoms[140:200]), (atoms[:96],) * 2]
        for rows, cols in blocks:
            ik = evaluated(tables, rows, cols)
            ki = evaluated(tables, cols, rows)
            assert len(ik) == len(ki) == len(WINDOW_RADII)
            assert all(np.array_equal(a, b.T) for a, b in zip(ik, ki))

    @pytest.mark.parametrize("n", [1, 2])
    def test_graph_tile_without_window_yields_no_table(self, n):
        ctx = window_context("graph", "power", n, 1, "sorted")
        atoms = ctx.measure.atoms
        # the first and last tenth lie further apart than the largest radius
        assert evaluated(partial(kernels.field_tables, ctx), atoms[:30], atoms[-30:]) == []

    @pytest.mark.parametrize("tile", [32, estimators._TILE])
    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kernel", ["ball", "profile", "slice", "image", "graph"])
    def test_walk_matches_one_unblocked_table(self, monkeypatch, kernel, n, order, tile):
        # 300 atoms: a partial last tile at either side
        monkeypatch.setattr(estimators, "_TILE", tile)
        mode = "graph" if kernel == "graph" else "image"
        ctx = window_context(mode, "power", n, 2, order)
        tables = block_forms(ctx)["field" if kernel in ("image", "graph") else kernel]
        walked = estimators._mass_table(ctx.measure, tables, WINDOW_RADII)
        np.testing.assert_allclose(walked, unblocked(ctx.measure, tables), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    def test_dense_field_evaluates_each_unordered_pair_once(self, monkeypatch, mode):
        elements = []

        def counting(rho, a, r):
            elements.append(np.broadcast(rho, a, r).size)
            return gaussian_interval_prob(rho, a, r)

        monkeypatch.setattr(kernels, "gaussian_interval_prob", counting)
        k = 2 * estimators._TILE + 45
        atoms = (np.arange(k) / k + 1 / (2 * k)).reshape(-1, 1)
        mu = DiscreteMeasure(atoms, np.full(k, 1 / k))
        ctx = KernelContext(FieldSpec(0.5), DriftSpec.power([1.0], 1.5), mu, mode)
        grid = estimators.ScaleGrid(2, 5)
        estimators.dim_field(ctx, grid)
        if mode == "image":
            # the pairs i <= k, once per radius
            assert sum(elements) == k * (k + 1) // 2 * len(grid.radii)
        assert sum(elements) <= k * (k + 1) // 2 * len(grid.radii)


class TestDiagonalTiles:
    """A diagonal tile passes one block as both rows and atoms:
    field_tables evaluates the pairs i <= k and writes each to (i, k) and
    (k, i), which the tables' symmetry makes the full table bit for bit."""

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize("drift", ["none", "constant", "power"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_two_sided_tables_bitwise(self, mode, order, drift, n, d):
        ctx = window_context(mode, drift, n, d, order)
        atoms = ctx.measure.atoms
        for block in (atoms[:96], atoms[100:101], atoms[150:300]):
            diagonal = evaluated(partial(kernels.field_tables, ctx), block, block)
            # a copy of the block takes the two-sided path
            two_sided = evaluated(partial(kernels.field_tables, ctx), block, block.copy())
            dense = list(dense_field_tables(ctx)(block, block, WINDOW_RADII))
            assert len(diagonal) == len(two_sided) == len(dense) == len(WINDOW_RADII)
            for got, other, expected in zip(diagonal, two_sided, dense):
                assert got.tobytes() == other.tobytes() == expected.tobytes()


def mesh_context(mode, n, d, alpha, per_axis, drift=None, t_max=1.0, weights=None):
    atoms = fields._mesh_points(per_axis**n, n, t_max)
    if weights is None:
        weights = np.full(len(atoms), 1.0 / len(atoms))
    return KernelContext(
        FieldSpec(alpha, n, d), drift, DiscreteMeasure(atoms, weights), mode
    )


def dense_masses(ctx, radii):
    return estimators._mass_table(ctx.measure, partial(kernels.field_tables, ctx), radii)


class TestMeshMasses:
    # Per-axis counts whose mesh coordinates stay clear of the dyadic radii,
    # one even and one odd per domain dimension.
    COUNTS = {1: (250, 251), 2: (15, 16)}

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n, parity", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_the_dense_tables(self, mode, alpha, d, n, parity):
        ctx = mesh_context(mode, n, d, alpha, self.COUNTS[n][parity])
        lattice = kernels._coded_masses(ctx, WINDOW_RADII)
        assert lattice is not None
        np.testing.assert_allclose(lattice, dense_masses(ctx, WINDOW_RADII), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_drift_is_bitwise_no_drift(self, mode, n):
        plain = mesh_context(mode, n, 2, 0.5, self.COUNTS[n][0])
        moved = mesh_context(
            mode, n, 2, 0.5, self.COUNTS[n][0], drift=DriftSpec.constant([4.0, -1.5])
        )
        assert np.array_equal(
            kernels._coded_masses(plain, WINDOW_RADII), kernels._coded_masses(moved, WINDOW_RADII)
        )

    @pytest.mark.parametrize("t_max", [1.0, np.nextafter(1.0, 2.0)], ids=["exact", "ulp-above"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_dyadic_mesh_takes_the_tables_in_graph_mode(self, t_max, n):
        # 2^j + 1 points per axis: the coordinates i / 2^j hit the dyadic
        # radii, where the rounded difference of two atoms' coordinates may
        # fall on either side of the window edge
        per_axis = 65 if n == 1 else 17
        graph = mesh_context("graph", n, 1, 0.5, per_axis, t_max=t_max)
        assert kernels._coded_masses(graph, WINDOW_RADII) is None
        # without a window the offsets may hit the radii
        image = mesh_context("image", n, 1, 0.5, per_axis, t_max=t_max)
        np.testing.assert_allclose(
            kernels._coded_masses(image, WINDOW_RADII),
            dense_masses(image, WINDOW_RADII),
            rtol=1e-13,
            atol=0,
        )

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_probability_per_offset_and_radius(self, monkeypatch, mode, n):
        elements = []

        def counting(rho, a, r):
            elements.append(np.broadcast(rho, a, r).size)
            return gaussian_interval_prob(rho, a, r)

        monkeypatch.setattr(kernels, "gaussian_interval_prob", counting)
        ctx = mesh_context(mode, n, 2, 0.5, self.COUNTS[n][1])
        kernels._coded_masses(ctx, WINDOW_RADII)
        # one per offset in the image, one per offset inside the window in a graph
        reach = np.abs(ctx.measure.atoms).max(axis=1)
        per_radius = [
            ctx.measure.count if mode == "image" else np.count_nonzero(reach <= r)
            for r in WINDOW_RADII
        ]
        assert sum(elements) == sum(per_radius)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    def test_dim_field_dispatch(self, monkeypatch, mode):
        calls = []
        real = estimators.field_tables

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(estimators, "field_tables", spy)
        grid = estimators.ScaleGrid(2, 5)
        mesh = mesh_context(mode, 1, 1, 0.5, 250)
        centred = np.arange(250) / 250 + 1 / 500
        w = np.random.default_rng(5).random(250)
        dense = {
            "centred": KernelContext(
                mesh.field, None, DiscreteMeasure(centred[:, None], mesh.measure.weights), mode
            ),
            "weights": mesh_context(mode, 1, 1, 0.5, 250, weights=w / w.sum()),
            "power": mesh_context(mode, 1, 1, 0.5, 250, drift=DriftSpec.power([1.0], 1.5)),
            "dyadic": mesh_context(mode, 1, 1, 0.5, 129),
        }
        if mode == "image":
            del dense["dyadic"]
        estimators.dim_field(mesh, grid)
        assert not calls
        for name, ctx in dense.items():
            estimators.dim_field(ctx, grid)
            assert calls, name
            calls.clear()


def two_scale_measure(beta, delta0, level):
    system = fractals.realize_explicit(fractals.build_tx_system(beta, delta0, level), level)
    return fractals.natural_measure(system, level)


def cantor_measure(branches, ratio, level):
    return fractals.natural_measure(fractals.build_uniform_cantor(branches, ratio, level), level)


def coded_context(mu, mode, d=1, alpha=0.5, weights=None):
    if weights is not None:
        mu = DiscreteMeasure(mu.atoms, weights)
    return KernelContext(FieldSpec(alpha, 1, d), None, mu, mode)


class TestCodedMasses:
    # Two-scale sets (beta, delta0, level) of 4 to 2048 atoms.  At level 2,
    # beta 0.5 and delta0 0.25 give 65536 atoms, too many for the dense
    # reference, and beta 0.7 has no realizable level 2.
    TWO_SCALE = [
        (0.45, 0.25, 1), (0.45, 0.25, 2), (0.45, 0.45, 2), (0.5, 0.25, 1),
        (0.5, 0.45, 1), (0.5, 0.45, 2), (0.7, 0.25, 1), (0.7, 0.45, 1),
    ]
    # the txset-graph op of the benchmark's sets-and-checks workload
    BENCH = (0.5, 0.45, 2)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("system", TWO_SCALE, ids=str)
    def test_matches_the_dense_tables(self, system, d, alpha, mode):
        # 2e-13: pairs with one digit offset differ in their rounded
        # distances, up to 1.1e-13 of V on (0.45, 0.25, 2) at alpha 0.3
        # and d = 2 (see test_offsets_follow_the_construction)
        ctx = coded_context(two_scale_measure(*system), mode, d, alpha)
        coded = kernels._coded_masses(ctx, WINDOW_RADII)
        assert coded is not None
        np.testing.assert_allclose(coded, dense_masses(ctx, WINDOW_RADII), rtol=2e-13, atol=0)

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("cantor", [(3, 0.25, 5), (4, 0.2, 4)], ids=str)
    def test_many_levels(self, cantor, mode):
        # 16 and 8 corner rows: wider Cantor sets pay off from a few levels
        ctx = coded_context(cantor_measure(*cantor), mode, 2, 0.4)
        coded = kernels._coded_masses(ctx, WINDOW_RADII)
        assert coded is not None
        np.testing.assert_allclose(coded, dense_masses(ctx, WINDOW_RADII), rtol=1e-13, atol=0)

    def test_offsets_follow_the_construction(self):
        # the atom and radius where the dense table moves furthest: the
        # shortcut's row holds the kernel of each digit offset at the
        # distance |o_1 p_1 + o_2 p_2| of the construction, rounded once,
        # to 2 ulps; the dense walk's rounded pair differences move it more
        ctx = coded_context(two_scale_measure(0.45, 0.25, 2), "graph", 2, 0.3)
        atoms, w = ctx.measure.atoms, ctx.measure.weights
        i, r, m = 1367, WINDOW_RADII[-1], 341
        p1, p2 = Fraction(atoms[m, 0]), Fraction(atoms[1, 0])
        exact = [
            float(abs((b // m - i // m) * p1 + (b % m - i % m) * p2)) for b in range(len(atoms))
        ]
        (table,) = kernels.field_tables(ctx, np.zeros((1, 1)), np.array(exact)[:, None], [r])
        construction = math.fsum(table[0] * w)
        coded = kernels._coded_masses(ctx, WINDOW_RADII)[i, -1]
        assert coded == pytest.approx(construction, rel=5e-16, abs=0)
        assert dense_masses(ctx, WINDOW_RADII)[i, -1] != coded

    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize(
        "mu",
        [
            cantor_measure(2, 1.0 / 3.0, 6),
            cantor_measure(2, 0.25, 8),
            # three atoms: a row of 3 and 3 prefix sums are no fewer than 6 pairs
            two_scale_measure(0.45, 0.45, 1),
            "weights",
        ],
        ids=["cantor-6", "cantor-8", "three-atoms", "weights"],
    )
    def test_other_sets_keep_the_tiles_bits(self, mu, mode):
        if mu == "weights":
            mu = two_scale_measure(*self.BENCH)
            w = np.random.default_rng(3).random(mu.count)
            ctx = coded_context(mu, mode, weights=w / w.sum())
        else:
            ctx = coded_context(mu, mode)
        assert kernels._coded_masses(ctx, WINDOW_RADII) is None
        assert np.array_equal(
            estimators._field_masses(ctx, WINDOW_RADII), dense_masses(ctx, WINDOW_RADII)
        )

    @pytest.mark.parametrize("grid", [(2, 12), (8, 16)], ids=str)
    def test_graph_ties_keep_the_tiles_bits(self, grid):
        # offsets whose rounded distance may lie on either side of a radius
        ctx = coded_context(two_scale_measure(*self.BENCH), "graph")
        radii = estimators.ScaleGrid(*grid).radii
        assert kernels._coded_masses(ctx, radii) is None
        assert np.array_equal(estimators._field_masses(ctx, radii), dense_masses(ctx, radii))

    def test_bench_set_takes_two_rows_per_radius(self, monkeypatch):
        elements = []

        def counting(rho, a, r):
            elements.append(np.broadcast(rho, a, r).size)
            return gaussian_interval_prob(rho, a, r)

        monkeypatch.setattr(kernels, "gaussian_interval_prob", counting)
        ctx = coded_context(two_scale_measure(*self.BENCH), "graph")
        radii = estimators.ScaleGrid(2, 6).radii
        estimators._field_masses(ctx, radii)
        # 4 x 512 atoms: the rows of the first and the 512th atom, each
        # evaluated inside its window only
        atoms = ctx.measure.atoms
        reach = np.abs(atoms[[0, 511]] - atoms.T)
        assert sum(elements) == sum(np.count_nonzero(reach <= r) for r in radii)
        assert sum(elements) <= 2 * len(atoms) * len(radii)


def materialised(tables):
    """The block form with every table copied to a C-ordered float array
    before the walk sees it, so that each is contracted as a table."""

    def form(rows, atoms, radii):
        for table in tables(rows, atoms, radii):
            yield np.array(table, dtype=float)

    return form


def constant_value(table):
    """0 or 1 for a constant view, None for a materialised table."""
    return None if any(table.strides) else float(table[0, 0])


def clustered_measure(n, order, offset):
    """Eight clusters of 40 atoms, each within 0.02 per coordinate of its
    centre, the centres 1.5 apart along the first axis.  Between clusters
    the tiles lie further apart than every radius; inside one, the larger
    radii hold every pair.  Non-dyadic weights; ``offset`` shifts the
    atoms, to negative coordinates too."""
    rng = np.random.default_rng(20 + n)
    atoms = 0.02 * rng.random((320, n)) + offset
    atoms[:, 0] += 1.5 * np.repeat(np.arange(8), 40)
    if order == "shuffled":
        atoms = rng.permutation(atoms)
    w = rng.random(320)
    return DiscreteMeasure(atoms, w / w.sum())


# the window radii and the greatest distance inside the first cluster, a
# radius equal to one pair's distance
def constant_radii(mu):
    first = mu.atoms[np.argsort(mu.atoms[:, 0], kind="stable")[:40]]
    return np.append(WINDOW_RADII, numerics._pair_distances(first, first).max())


def kind_of(table):
    value = constant_value(table)
    return "table" if value is None else ("zero", "one")[int(value)]


class TestConstantTables:
    """A block form yields a table that is 0 or 1 everywhere as a constant
    view; the walk skips the zeros and contracts the ones once per tile,
    with the bits of a walk that contracts every table."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(estimators, "_TILE", 32)

    @pytest.mark.parametrize("offset", [0.0, -6.3, -1e5])
    @pytest.mark.parametrize("order", WINDOW_ORDERS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("form", ["ball", "profile", "slice", "field"])
    def test_walk_matches_the_materialised_walk_bitwise(self, form, n, order, offset):
        mu = clustered_measure(n, order, offset)
        ctx = KernelContext(FieldSpec(0.4, n, 2), DriftSpec.power([1.0, -0.5], 1.5), mu, "graph")
        tables = block_forms(ctx)[form]
        radii = constant_radii(mu)
        kinds = []

        def watched(rows, atoms, radii):
            for table in tables(rows, atoms, radii):
                kinds.append(kind_of(table))
                yield table

        walked = estimators._mass_table(mu, watched, radii)
        reference = estimators._mass_table(mu, materialised(tables), radii)
        assert walked.tobytes() == reference.tobytes()
        if order == "sorted":
            # the clusters make constant tables of the kinds each form
            # yields; the slice kernel has a head coordinate for n = 2
            # only, and a graph window here is empty for all radii or none
            expected = {
                "ball": {"zero", "one"}, "profile": {"one"},
                "slice": {"zero"} if n == 2 else set(), "field": set(),
            }
            assert expected[form] <= set(kinds)

    @pytest.mark.parametrize("offset", [0.0, -7.25, -1e6])
    def test_ball_radii_at_the_least_and_greatest_distance(self, offset):
        rng = np.random.default_rng(3)
        rows = offset + rng.random((5, 2))
        atoms = offset + 0.5 + rng.random((7, 2))
        dist = numerics._pair_distances(rows, atoms)
        least, greatest = dist.min(), dist.max()
        radii = [
            np.nextafter(least, -np.inf), least, (least + greatest) / 2,
            np.nextafter(greatest, -np.inf), greatest, 2 * greatest,
        ]
        kinds = []
        for table, r in zip(kernels.ball_tables(rows, atoms, radii), radii, strict=True):
            assert np.array(table, dtype=float).tobytes() == (dist <= r).astype(float).tobytes()
            kinds.append(kind_of(table))
        assert kinds == ["zero", "table", "table", "table", "one", "one"]

    @pytest.mark.parametrize("offset", [0.0, -7.25, -1e6])
    def test_ball_bound_equal_to_a_radius(self, monkeypatch, offset):
        # the ranges' gaps are 3 and 4, so the bound is 5, the distance of
        # the pair (x_1, y_0)
        built = []
        real = kernels._pair_distances
        monkeypatch.setattr(
            kernels, "_pair_distances", lambda x, y: built.append(1) or real(x, y)
        )
        rows = offset + np.array([[0.0, 0.0], [1.0, 1.0]])
        atoms = offset + np.array([[4.0, 5.0], [6.0, 7.0]])
        (table,) = kernels.ball_tables(rows, atoms, [5.0])
        assert table.tolist() == [[False, False], [True, False]]
        assert len(built) == 1
        below = np.nextafter(5.0, 0.0)
        tables = list(kernels.ball_tables(rows, atoms, [below, below / 2]))
        assert [kind_of(t) for t in tables] == ["zero", "zero"]
        assert len(built) == 1

    def test_ball_bound_never_exceeds_a_rounded_distance(self):
        # blocks far from the origin and at every scale, with radii at the
        # bound and one ulp either side of it
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            scale, shift = 10.0 ** rng.uniform(-8, 6), rng.uniform(-1e6, 1e6, m)
            rows = shift + scale * rng.random((3, m))
            atoms = shift + scale * (rng.random((4, m)) + rng.uniform(0, 3, m))
            gaps = kernels._range_gaps(rows, atoms, range(m))
            bound = 0.0
            for g in gaps:
                bound += g * g
            bound = np.sqrt(bound)
            dist = numerics._pair_distances(rows, atoms)
            assert bound <= dist.min()
            radii = [np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)]
            radii = [r for r in radii if r > 0]
            for table, r in zip(kernels.ball_tables(rows, atoms, radii), radii, strict=True):
                assert np.array_equal(table, dist <= r)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("offset", [0.0, -3.5])
    def test_profile_coincident_atoms(self, beta, offset):
        # a tile of one repeated point (every distance 0), and one with a
        # single coincident pair; at 1e-320 ** beta = 0 for beta >= 1 the
        # zero distances still give inf * 0 -> 1
        point = offset + np.array([0.3, -0.2])
        rng = np.random.default_rng(4)
        same = np.tile(point, (4, 1))
        mixed = np.vstack([point, offset + rng.random((5, 2))])
        radii = [1e-320, 0.5, 1e-320, 40.0]
        for rows, atoms in ((same, same.copy()), (same, mixed), (mixed, mixed.copy())):
            dist = np.linalg.norm(rows[:, None, :] - atoms[None, :, :], axis=2)
            coincident = dist == 0.0
            with np.errstate(divide="ignore"):
                inv = dist**-beta
            kinds = []
            for table, r in zip(kernels.profile_tables(rows, atoms, beta, radii), radii, strict=True):
                with np.errstate(invalid="ignore"):
                    expected = np.fmin(r**beta * inv, 1.0)
                expected[coincident] = 1.0
                assert table.tobytes() == expected.tobytes()
                kinds.append(kind_of(table))
            # all coincident, or every atom within 40: a constant view
            assert kinds[1] == ("one" if rows is same and atoms is not mixed else "table")
            assert kinds[3] == "one"
            assert kinds[0] == kinds[2]
            if 1e-320**beta == 0.0:
                # the zero distances' products are nan: computed, not a view
                assert kinds[0] == "table"

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("offset", [0.0, -7.25, -1e6])
    def test_profile_radii_at_the_least_and_greatest_distance(self, beta, offset):
        # where r meets the greatest distance, the least product is within
        # ulps of 1: ones only where every product rounds to 1 or more
        rng = np.random.default_rng(5)
        rows = offset + rng.random((5, 2))
        atoms = offset + 0.5 + rng.random((7, 2))
        dist = numerics._pair_distances(rows, atoms)
        least, greatest = dist.min(), dist.max()
        radii = [least, greatest] + [
            step(edge, k) for edge in (least, greatest) for k in (1, 4) for step in (
                lambda x, k: x + k * np.spacing(x), lambda x, k: x - k * np.spacing(x)
            )
        ]
        inv = dist**-beta
        kinds = []
        for table, r in zip(kernels.profile_tables(rows, atoms, beta, radii), radii, strict=True):
            assert table.tobytes() == np.fmin(r**beta * inv, 1.0).tobytes()
            kinds.append(kind_of(table))
        assert "one" in kinds and "table" in kinds

    @pytest.mark.parametrize("offset", [0.0, -9.75, -1e6])
    def test_slice_head_gap_equal_to_a_radius(self, offset):
        rows = offset + np.array([[0.0, 0.3], [1.0, -0.4]])
        atoms = offset + np.array([[3.0, 0.1], [3.5, 2.0], [4.0, -1.0]])
        radii = [2.0, np.nextafter(2.0, 0.0), 0.5]
        kinds = []
        for table, r in zip(kernels.slice_tables(rows, atoms, 1, radii), radii, strict=True):
            diff = np.abs(rows[:, None, :] - atoms[None, :, :])
            expected = np.minimum(1.0, r / np.maximum(diff[:, :, 1], 1e-300)) * (diff[:, :, 0] <= r)
            np.testing.assert_array_equal(table, expected)
            kinds.append(kind_of(table))
        assert kinds == ["table", "zero", "zero"]
        assert constant_value(next(kernels.slice_tables(rows, atoms, 1, [1.0]))) == 0.0

    @pytest.mark.parametrize("offset", [0.0, -5.0])
    def test_field_empty_window_is_a_zero_view(self, offset):
        mu = clustered_measure(1, "sorted", offset)
        ctx = KernelContext(FieldSpec(0.4), DriftSpec.power([1.0], 1.5), mu, "graph")
        rows, atoms = mu.atoms[30:40], mu.atoms[40:80]
        least = np.abs(rows - atoms.T).min()
        radii = [2.0, np.nextafter(least, 0.0), least, 0.01 * least]
        dense = dense_field_tables(ctx)(rows, atoms, radii)
        kinds = []
        for table, expected in zip(kernels.field_tables(ctx, rows, atoms, radii), dense, strict=True):
            assert np.array_equal(table, expected)
            kinds.append(kind_of(table))
        assert kinds == ["table", "zero", "table", "zero"]

    @pytest.mark.parametrize("form", ["ball", "profile", "slice", "field"])
    def test_constant_tables_cost_no_contraction(self, monkeypatch, form):
        # the walk on the sorted clusters: every table the form yields is
        # seen, and matmul and np.ones are watched while it runs
        mu = clustered_measure(2, "sorted", 0.0)
        ctx = KernelContext(FieldSpec(0.4, 2, 1), None, mu, "graph")
        tables = block_forms(ctx)[form]
        radii = constant_radii(mu)
        reference = estimators._mass_table(mu, materialised(tables), radii)
        built, contracted, ones, tiles = [], [], [], []

        class Watched(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    contracted.append(kind_of(self))
                args = [np.asarray(x) if isinstance(x, Watched) else x for x in inputs]
                return getattr(ufunc, method)(*args, **kwargs)

        def watched(rows, atoms, radii):
            tiles.append([])
            for table in tables(rows, atoms, radii):
                tiles[-1].append(kind_of(table))
                yield table.view(Watched)

        real_distances, real_ones = kernels._pair_distances, np.ones
        monkeypatch.setattr(
            kernels, "_pair_distances", lambda x, y: built.append(1) or real_distances(x, y)
        )
        monkeypatch.setattr(
            np, "ones", lambda *a, **k: ones.append(len(tiles)) or real_ones(*a, **k)
        )
        walked = estimators._mass_table(mu, watched, radii)
        assert walked.tobytes() == reference.tobytes()
        # no constant table is contracted; a materialised one twice off the
        # diagonal and once on it
        assert set(contracted) <= {"table"}
        assert len(contracted) >= sum(kinds.count("table") for kinds in tiles)
        # one all-ones contraction for each tile with a table of ones
        with_ones = [i + 1 for i, kinds in enumerate(tiles) if "one" in kinds]
        assert ones == with_ones
        if form in ("ball", "slice"):
            # tiles whose ranges lie further apart than every radius build
            # no distance table
            assert any(kinds == ["zero"] * len(radii) for kinds in tiles)
        if form == "ball":
            assert len(built) == sum(kinds != ["zero"] * len(radii) for kinds in tiles)
            assert len(built) < len(tiles)


class TestDriftOncePerAtom:
    @pytest.mark.parametrize("tile", [32, estimators._TILE])
    @pytest.mark.parametrize("mode", ["image", "graph"])
    @pytest.mark.parametrize("drift, n", [("power", 1), ("power", 2), ("polynomial", 1)])
    def test_dim_field_evaluates_the_drift_once_per_atom(self, monkeypatch, drift, n, mode, tile):
        monkeypatch.setattr(estimators, "_TILE", tile)
        ctx = window_context(mode, drift, n, 2)
        evaluated_rows, walks = [], []
        real_evaluate, real_walk = DriftSpec.evaluate, estimators._mass_table
        monkeypatch.setattr(
            DriftSpec,
            "evaluate",
            lambda self, p: evaluated_rows.append(len(p)) or real_evaluate(self, p),
        )
        monkeypatch.setattr(
            estimators, "_mass_table", lambda *args: walks.append(real_walk(*args)) or walks[-1]
        )
        # the 2-D lattice's spacing 1/64 admits radii down to 1/16
        grid = estimators.ScaleGrid(1, 4)
        estimators.dim_field(ctx, grid)
        count = ctx.measure.count
        # one call per block of the walk, each atom once
        assert sum(evaluated_rows) == count
        assert len(evaluated_rows) == -(-count // tile)
        # field_tables evaluating the drift on every tile gives the same bits
        reference = real_walk(ctx.measure, partial(kernels.field_tables, ctx), grid.radii)
        assert len(evaluated_rows) > -(-count // tile)
        assert walks[0].tobytes() == reference.tobytes()
