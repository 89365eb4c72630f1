"""Closed-form kernels and expected ball masses for drifted fields."""

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
    increment_prob,
    kernels,
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
        lattice = kernels._mesh_masses(ctx, WINDOW_RADII)
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
            kernels._mesh_masses(plain, WINDOW_RADII), kernels._mesh_masses(moved, WINDOW_RADII)
        )

    @pytest.mark.parametrize("t_max", [1.0, np.nextafter(1.0, 2.0)], ids=["exact", "ulp-above"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_dyadic_mesh_takes_the_tables_in_graph_mode(self, t_max, n):
        # 2^j + 1 points per axis: the coordinates i / 2^j hit the dyadic
        # radii, where the rounded difference of two atoms' coordinates may
        # fall on either side of the window edge
        per_axis = 65 if n == 1 else 17
        graph = mesh_context("graph", n, 1, 0.5, per_axis, t_max=t_max)
        assert kernels._mesh_masses(graph, WINDOW_RADII) is None
        # without a window the offsets may hit the radii
        image = mesh_context("image", n, 1, 0.5, per_axis, t_max=t_max)
        np.testing.assert_allclose(
            kernels._mesh_masses(image, WINDOW_RADII),
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
        kernels._mesh_masses(ctx, WINDOW_RADII)
        assert sum(elements) == ctx.measure.count * len(WINDOW_RADII)

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
