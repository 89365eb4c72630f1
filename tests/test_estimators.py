"""Scaling-exponent readers: ball mass, kernel integrals, expected masses,
and box counting, each pinned on measures whose exponents are known."""

import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from packdim import (
    DiscreteMeasure,
    DriftSpec,
    FieldSpec,
    InsufficientScalesError,
    InvalidArgumentError,
    KernelContext,
    ResolutionError,
    ScaleGrid,
    Seed,
    ball_mass_profile,
    box_count,
    box_count_curve,
    box_counting_dim,
    build_uniform_cantor,
    dim_ball_mass,
    dim_field,
    dim_profile,
    dim_slice_kernel,
    estimators,
    graph_points,
    natural_measure,
    numerics,
    sample,
    scaling_exponent,
)

LOG2_OVER_LOG3 = 0.6309297535714574370995271

DYADIC = [2.0**-j for j in range(1, 7)]


def thirds_measure(level=10):
    return natural_measure(build_uniform_cantor(2, 1.0 / 3.0, level), level)


def centered_grid(n, dim=1):
    g = (np.arange(n) + 0.5) / n
    if dim == 1:
        atoms = g.reshape(-1, 1)
    else:
        atoms = np.stack(np.meshgrid(*([g] * dim)), -1).reshape(-1, dim)
    return DiscreteMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms)))


class TestScaleGrid:
    def test_radii(self):
        np.testing.assert_allclose(
            ScaleGrid(1, 4).radii, [0.5, 0.25, 0.125, 0.0625], rtol=1e-15
        )
        np.testing.assert_allclose(
            ScaleGrid(2, 5, 3.0).radii,
            [3.0**-2, 3.0**-3, 3.0**-4, 3.0**-5],
            rtol=1e-15,
        )

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ScaleGrid(2, 4)  # span below three octaves
        with pytest.raises(InvalidArgumentError):
            ScaleGrid(0, 5)
        with pytest.raises(InvalidArgumentError):
            ScaleGrid(1, 5, 1.0)


class TestScalingExponent:
    def test_pure_power(self):
        vals = [r**1.5 for r in DYADIC]
        assert scaling_exponent(DYADIC, vals, "regression").value == pytest.approx(
            1.5, abs=1e-12
        )
        assert scaling_exponent(DYADIC, vals, "tail-max").value == pytest.approx(
            1.5, abs=1e-12
        )

    def test_constant_values(self):
        assert scaling_exponent(DYADIC, [1.0] * 6, "regression").value == 0.0

    def test_tail_max_reads_the_upper_envelope(self):
        # multiplicative wobble around r^2: the tail maximum lands on the
        # inflated row, log(1/0.5)/log(2^5) above the OLS trend
        vals = [r**2 * (2.0 if j % 2 else 0.5) for j, r in enumerate(DYADIC)]
        est = scaling_exponent(DYADIC, vals, "tail-max")
        assert est.value == pytest.approx(11.0 / 5.0, rel=1e-12)
        ols = scaling_exponent(DYADIC, vals, "regression").value
        assert ols == pytest.approx(2.0, abs=0.2)

    def test_needs_four_scales(self):
        with pytest.raises(InsufficientScalesError):
            scaling_exponent(DYADIC[:3], [r**2 for r in DYADIC[:3]], "regression")

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            scaling_exponent(DYADIC, [r**2 for r in DYADIC], "chord")

    def test_table_rows(self):
        est = scaling_exponent(DYADIC, [r**1.5 for r in DYADIC], "regression")
        r, v, ratio = est.per_scale[0]
        assert (r, v) == (0.5, 0.5**1.5)
        assert ratio == pytest.approx(1.5, rel=1e-12)
        assert est.window == tuple(range(6))

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(["regression", "tail-max"]),
        st.sampled_from([0.0, 0.2]),
    )
    def test_table_fit_matches_scaling_exponent(self, seed, method, zeros):
        # the whole-table fit must give every row the exact bits that
        # scaling_exponent gives it alone, on all-finite tables and with
        # zero entries
        rng = np.random.default_rng(seed)
        scales = int(rng.integers(4, 12))
        radii = np.sort(rng.uniform(0.01, 0.9, scales))[::-1]
        V = rng.uniform(0.0, 1.0, (int(rng.integers(1, 30)), scales)) ** 3
        V[:, :-4][rng.random((len(V), scales - 4)) < zeros] = 0.0
        with np.errstate(divide="ignore"):
            table = estimators._fit(np.log(radii), np.log(V), method)
        rows = [scaling_exponent(radii, v, method).value for v in V]
        assert table.tolist() == rows

    def test_value_reproducible_from_table(self):
        # the estimate must be a pure function of its own reported table
        vals = [r**2 * (2.0 if j % 2 else 0.5) for j, r in enumerate(DYADIC)]
        for method in ("regression", "tail-max"):
            est = scaling_exponent(DYADIC, vals, method)
            rows = [est.per_scale[i] for i in est.window]
            if method == "tail-max":
                again = max(row[2] for row in rows)
            else:
                x = np.log([row[0] for row in rows])
                y = np.log([row[1] for row in rows])
                again = float(np.polyfit(x, y, 1)[0])
            assert est.value == pytest.approx(again, rel=1e-12)


class TestDimBallMass:
    def test_point_mass(self):
        mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
        assert dim_ball_mass(mu, ScaleGrid(2, 6)).value == 0.0

    def test_thirds_natural_measure(self):
        est = dim_ball_mass(thirds_measure(), ScaleGrid(2, 8, 3.0))
        assert est.value == pytest.approx(LOG2_OVER_LOG3, abs=1e-12)

    def test_reductions_agree_on_self_similar(self):
        # every atom of the natural measure scales alike
        mu = thirds_measure()
        grid = ScaleGrid(2, 8, 3.0)
        a = dim_ball_mass(mu, grid, reduce="median").value
        b = dim_ball_mass(mu, grid, reduce="min").value
        assert a == b

    def test_uniform_line(self):
        mu = centered_grid(1024)
        est = dim_ball_mass(mu, ScaleGrid(2, 7))
        assert est.value == pytest.approx(1.0, abs=0.05)
        assert est.atom_index is not None

    def test_resolution_guard(self):
        mu = thirds_measure(8)  # spacing 3^-8
        with pytest.raises(ResolutionError):
            dim_ball_mass(mu, ScaleGrid(2, 8, 3.0))

    def test_bad_reduce(self):
        with pytest.raises(InvalidArgumentError):
            dim_ball_mass(thirds_measure(8), ScaleGrid(2, 6, 3.0), reduce="mean")


class TestDimProfile:
    def test_beta_above_dimension(self):
        # profile caps at the measure dimension when beta exceeds it
        est = dim_profile(thirds_measure(), 1.0, ScaleGrid(2, 8, 3.0))
        assert est.value == pytest.approx(0.5890888164521284, rel=1e-9)
        assert abs(est.value - LOG2_OVER_LOG3) < 0.06

    def test_beta_below_dimension(self):
        # profile caps at beta when beta is the smaller of the two
        est = dim_profile(thirds_measure(), 0.25, ScaleGrid(2, 8, 3.0))
        assert est.value == pytest.approx(0.22546382634474738, rel=1e-9)
        assert abs(est.value - 0.25) < 0.05

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            dim_profile(thirds_measure(8), -1.0, ScaleGrid(2, 6, 3.0))


class TestDimSliceKernel:
    def test_line_slice_free_case_equals_profile(self):
        # on the line with nothing sliced off, G_1 and F_1 are the same
        # integral, so the two estimators must agree bitwise
        mu = thirds_measure(8)
        grid = ScaleGrid(2, 6, 3.0)
        a = dim_profile(mu, 1.0, grid).value
        b = dim_slice_kernel(mu, 0, 1, grid).value
        assert a == b
        assert a == pytest.approx(0.5720639607504464, rel=1e-9)

    def test_planar_pins(self):
        mu = centered_grid(32, dim=2)
        grid = ScaleGrid(2, 5, math.sqrt(2.0))
        est = dim_slice_kernel(mu, 1, 1, grid)
        assert est.value == pytest.approx(1.2066790364863118, rel=1e-9)
        est0 = dim_slice_kernel(mu, 0, 2, grid)
        assert est0.value == pytest.approx(0.7270757081555417, rel=1e-9)

    def test_dimension_bookkeeping(self):
        mu = centered_grid(32, dim=2)
        with pytest.raises(InvalidArgumentError):
            dim_slice_kernel(mu, 2, 1, ScaleGrid(2, 5, math.sqrt(2.0)))


class TestDimField:
    def field_ctx(self, mode, drift=None, d=1):
        return KernelContext(FieldSpec(0.5, 1, d), drift, centered_grid(1024), mode)

    def test_image_mode(self):
        est = dim_field(self.field_ctx("image"), ScaleGrid(3, 7))
        assert est.value == pytest.approx(0.9528824793347453, rel=1e-9)
        # Brownian image of the line fills one value dimension
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_graph_mode(self):
        est = dim_field(self.field_ctx("graph"), ScaleGrid(3, 7))
        assert est.value == pytest.approx(1.3613356430766401, rel=1e-9)
        # graph of alpha = 1/2 on the line: 1 + (1 - alpha) = 3/2, read low
        # at desk scales by the self-atom mass floor
        assert est.value == pytest.approx(1.5, abs=0.2)

    def test_constant_drift_invariant(self):
        plain = dim_field(self.field_ctx("image"), ScaleGrid(3, 7))
        moved = dim_field(
            self.field_ctx("image", drift=DriftSpec.constant([4.0])), ScaleGrid(3, 7)
        )
        assert plain.value == moved.value

    @pytest.mark.parametrize(
        "mode, drift",
        [("graph", DriftSpec.power([1.0, 0.5], 1.5)), ("image", None)],
        ids=["graph-power", "image-none"],
    )
    def test_table_rows_match_ball_mass_profile(self, monkeypatch, mode, drift):
        # 700 atoms: five full tiles plus a partial one
        tables = []
        real = estimators._mass_table

        def spy(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(estimators, "_mass_table", spy)
        ctx = KernelContext(FieldSpec(0.5, 1, 2), drift, centered_grid(700), mode)
        grid = ScaleGrid(3, 6)
        dim_field(ctx, grid)
        (V,) = tables
        for i, t in enumerate(ctx.measure.atoms):
            np.testing.assert_allclose(
                V[i], ball_mass_profile(ctx, t, grid.radii), rtol=1e-12, atol=0
            )


THREADED_FIELD = """
import hashlib
import numpy as np
from packdim import DiscreteMeasure, FieldSpec, KernelContext, ScaleGrid, dim_field, estimators
tables = []
fit = estimators._fit
estimators._fit = lambda logr, logv, method: tables.append(logv.copy()) or fit(logr, logv, method)
t = np.linspace(0.0, 1.0, 2500).reshape(-1, 1)
ctx = KernelContext(FieldSpec(0.5), None, DiscreteMeasure(t, np.full(2500, 1 / 2500)), "image")
est = dim_field(ctx, ScaleGrid(3, 7))
print(hashlib.sha256(tables[0].tobytes()).hexdigest(), est.value.hex())
"""


# The tile walk on 2500 centred atoms, which no mesh fits: 19 tiles and a
# partial one.  V is read as _mass_table returns it.
THREADED_TILES = """
import hashlib
import numpy as np
from packdim import DiscreteMeasure, FieldSpec, KernelContext, ScaleGrid, dim_field, estimators
tables = []
walk = estimators._mass_table
estimators._mass_table = lambda *args: tables.append(walk(*args)) or tables[-1]
k = 2500
t = (np.arange(k) / k + 1 / (2 * k)).reshape(-1, 1)
mu = DiscreteMeasure(t, np.full(k, 1 / k))
for mode in ("image", "graph"):
    est = dim_field(KernelContext(FieldSpec(0.5), None, mu, mode), ScaleGrid(3, 7))
    print(mode, hashlib.sha256(tables[-1].tobytes()).hexdigest(), est.value.hex())
"""


def at_one_and_two_blas_threads(script):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_mesh_field_is_the_same_at_one_and_two_blas_threads():
    # image dim_field on 2500 interval atoms: with the row-block tables
    # the last block (196 rows) split across BLAS threads and V moved with
    # the thread count; the lattice path uses no BLAS.  V is read as the
    # log table _kernel_dim hands to the fit.
    one, two = at_one_and_two_blas_threads(THREADED_FIELD)
    assert one == two


def test_tile_walk_is_the_same_at_one_and_two_blas_threads():
    # the row-block walk this replaced gave another V at 2 threads in both
    # modes; the tiles' contractions give the same bits
    one, two = at_one_and_two_blas_threads(THREADED_TILES)
    assert one == two


class TestBoundedMemory:
    # One dense float64 table over 4096 atoms takes 128 MiB; the estimators
    # must stay below that, whatever their kernel.
    DENSE = 4096 * 4096 * 8

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_estimators_stay_below_one_dense_table(self):
        line = thirds_measure(12)
        t = np.linspace(0.0, 1.0, 4096)
        path = np.stack([t, np.sin(7.0 * t)], axis=1)
        plane = DiscreteMeasure(path, np.full(4096, 1.0 / 4096))
        grid = ScaleGrid(3, 6)
        ctx = KernelContext(FieldSpec(0.5), None, centered_grid(4096), "graph")
        # linspace atoms with equal weights and no drift: the lattice path
        interval = DiscreteMeasure(t.reshape(-1, 1), np.full(4096, 1.0 / 4096))
        mesh = KernelContext(FieldSpec(0.5), None, interval, "image")
        runs = {
            "ball": lambda: dim_ball_mass(line, grid),
            "profile": lambda: dim_profile(line, 0.5, grid),
            "slice": lambda: dim_slice_kernel(plane, 1, 1, grid),
            "field": lambda: dim_field(ctx, grid),
            "mesh-field": lambda: dim_field(mesh, grid),
        }
        peaks = {name: self.peak(run) for name, run in runs.items()}
        assert all(p < self.DENSE for p in peaks.values()), peaks

    def test_graph_field_keeps_one_table_per_block(self):
        # graph dim_field on 4096 sorted atoms, grid 3..7 (the size of the
        # line-graph benchmark's large op): 34.4 MiB on interval atoms when
        # every radius allocated its own zero table and the window was cut
        # from the full (rows x atoms) grid, 28.4 MiB with one table per
        # row block and the window cut from a band of sorted atoms, 1.18 MiB
        # on 128 x 128 tiles with that band and 0.93 MiB without it.
        # Interval atoms take the lattice path (0.7 MiB), so the centred
        # grid keeps the tables.
        ctx = KernelContext(FieldSpec(0.5), None, centered_grid(4096), "graph")
        dim_field(ctx, ScaleGrid(3, 7))
        peak = self.peak(lambda: dim_field(ctx, ScaleGrid(3, 7)))
        assert peak < 32 * 2**20, peak

    def test_profile_refills_one_table_per_block(self):
        # dim_profile on the 4096-atom Cantor measure of the sets-and-checks
        # benchmark: 41.1 MiB when every radius builds its own table from
        # (rows, atoms, m) differences, 24.1 MiB with running-sum distances
        # and one table per row block
        mu = thirds_measure(12)
        peak = self.peak(lambda: dim_profile(mu, 0.5, ScaleGrid(3, 6)))
        assert peak < 32 * 2**20, peak

    def test_curve_box_count_walks_blocks(self):
        # the README quick start in d = 2: about 4.3 MiB when counted in
        # segment blocks, 12.1 MiB when every segment is sampled densely
        pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
        path = sample(FieldSpec(0.5, 1, 2), pts, Seed(7)).values
        peak = self.peak(lambda: box_counting_dim(path, ScaleGrid(4, 9), connect=True))
        assert peak < 8 * 2**20, peak


def lattice_polyline(seed):
    """A polyline of 1..6 vertices in R^1..R^3 on the lattice (Z/8)^m, one
    vertex in four a repeat of the previous, and a dyadic mesh: straight
    segments through grid corners and along grid lines are common."""
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    points = rng.integers(-24, 25, (k, m)) / 8.0
    for i in range(1, k):
        if rng.random() < 0.25:
            points[i] = points[i - 1]
    return points, float(rng.choice([1.0, 0.5]))


def exact_curve_count(points, eps):
    """Cells of the half-open eps-grid that meet the closed polyline, in
    rational arithmetic: a cell meets a segment a + t (b - a), t in [0, 1],
    when the parameter intervals of its per-axis slabs intersect there."""
    eps = Fraction(eps)
    pts = [[Fraction(x) for x in p] for p in points]
    found = {tuple(math.floor(x / eps) for x in pts[0])}
    for a, b in zip(pts[:-1], pts[1:]):
        ranges = [
            range(math.floor(min(x, y) / eps), math.floor(max(x, y) / eps) + 1)
            for x, y in zip(a, b)
        ]
        for cell in itertools.product(*ranges):
            lo, lo_closed, hi, hi_closed = Fraction(0), True, Fraction(1), True
            for c, x, y in zip(cell, a, b):
                left, right = c * eps, (c + 1) * eps
                if x == y:
                    if not left <= x < right:
                        break
                    continue
                # the slab [left, right) in terms of t
                t0, t1 = (left - x) / (y - x), (right - x) / (y - x)
                (s0, c0), (s1, c1) = ((t0, True), (t1, False)) if y > x else ((t1, False), (t0, True))
                if s0 > lo or (s0 == lo and not c0):
                    lo, lo_closed = s0, c0
                if s1 < hi or (s1 == hi and not c1):
                    hi, hi_closed = s1, c1
            else:
                if lo < hi or (lo == hi and lo_closed and hi_closed):
                    found.add(cell)
    return len(found)


class TestBoxCounting:
    def test_unit_segment_counts(self):
        seg = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
        # the endpoint at 1.0 opens a ninth cell
        assert box_count(seg, 0.125) == 9
        assert box_count(np.array([[0.3, 0.7]]), 0.5) == 1

    def test_count_monotone_in_eps(self):
        pts = np.random.default_rng(0).uniform(size=(200, 2))
        counts = [box_count(pts, e) for e in (0.5, 0.25, 0.125, 0.0625)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_curve_fills_gaps(self):
        two = np.array([[0.0], [1.0]])
        assert box_count(two, 0.25) == 2
        assert box_count_curve(two, 0.25) == 5

    def test_one_dimensional_input_is_points_on_the_line(self):
        x = np.linspace(0.0, 1.0, 1000)
        column = x.reshape(-1, 1)
        assert box_count(x, 0.25) == box_count(column, 0.25) == 5
        assert box_count_curve(x, 0.25) == box_count_curve(column, 0.25) == 5
        for connect in (False, True):
            est = box_counting_dim(x, ScaleGrid(2, 6), connect=connect)
            assert est == box_counting_dim(column, ScaleGrid(2, 6), connect=connect)
            assert est.value == pytest.approx(1.0, abs=0.1)

    def test_segment_dimension(self):
        seg = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
        est = box_counting_dim(seg, ScaleGrid(1, 6), method="tail-max")
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_square_dimension(self):
        g = np.linspace(0.0, 1.0, 65)
        sq = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        est = box_counting_dim(sq, ScaleGrid(1, 4), method="tail-max")
        assert est.value == pytest.approx(2.0, abs=0.15)

    def test_cantor_endpoints(self):
        ends = build_uniform_cantor(2, 1.0 / 3.0, 12).lefts(8).reshape(-1, 1)
        est = box_counting_dim(ends, ScaleGrid(2, 6, 3.0))
        assert est.value == pytest.approx(LOG2_OVER_LOG3, abs=0.1)

    def test_resolution_guard(self):
        seg = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
        with pytest.raises(ResolutionError):
            box_counting_dim(seg, ScaleGrid(3, 8))

    def test_resolution_guard_survives_a_repeated_point(self):
        # a copy of one point has spacing 0, which used to turn the guard off
        seg = np.linspace(0.0, 1.0, 64).reshape(-1, 1)
        limits = []
        for points in (seg, np.vstack([seg, seg[:1]])):
            with pytest.raises(ResolutionError) as err:
                box_counting_dim(points, ScaleGrid(4, 12))
            limits.append(err.value.limit)
        assert limits[0] == limits[1]

    def test_curve_counts_a_clipped_corner(self):
        # the segment passes through the corner of cell (0, 0), between its
        # endpoint cells (0, 1) and (1, 0)
        seg = np.array([[0.9, 1.05], [1.05, 0.9]])
        assert box_count_curve(seg, 1.0) == 3

    @pytest.mark.parametrize(
        "points, cells",
        [
            # through the corner point (1, 1), which lies in cell (1, 1) only
            ([[0.5, 1.5], [1.5, 0.5]], 3),
            ([[0.5, 0.5], [1.5, 1.5]], 2),
            # along the grid line y = 1, inside the cells above it
            ([[0.0, 1.0], [2.0, 1.0]], 3),
            ([[2.0, 0.5], [0.0, 0.5]], 3),
            # a repeated vertex is a zero-length segment
            ([[0.5, 0.5], [0.5, 0.5], [1.5, 0.5]], 2),
            ([[0.2, 0.3]] * 3, 1),
            ([[0.1, 0.1, 0.1], [2.9, 1.9, 0.95]], 4),
            ([[0.0], [1.0]], 2),
        ],
    )
    def test_curve_pinned_counts(self, points, cells):
        assert box_count_curve(np.array(points), 1.0) == cells

    @given(st.integers(0, 2**31 - 1))
    def test_curve_count_matches_exact_reference(self, seed):
        # lattice vertices make the sampled points exact, so every sampled
        # cell is one the polyline touches
        points, eps = lattice_polyline(seed)
        n = box_count_curve(points, eps)
        assert n == exact_curve_count(points, eps)
        s = np.linspace(0.0, 1.0, 257)[:, None, None]
        dense = points[:-1] + s * (points[1:] - points[:-1])
        dense = np.vstack([points, dense.reshape(-1, points.shape[1])])
        span = np.floor(points.max(axis=0) / eps) - np.floor(points.min(axis=0) / eps) + 1
        assert box_count(dense, eps) <= n <= np.prod(span)

    @given(st.integers(0, 2**31 - 1))
    def test_curve_count_bounds_on_random_floats(self, seed):
        # each grid-line crossing enters at most one new cell
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        points = rng.normal(0.0, rng.uniform(0.1, 10.0), (int(rng.integers(1, 40)), m))
        eps = float(rng.choice([1.0, 0.3, 0.1, 2.0**-5]))
        cells = np.floor(points / eps)
        n = box_count_curve(points, eps)
        span = cells.max(axis=0) - cells.min(axis=0) + 1
        crossings = np.abs(np.diff(cells, axis=0)).sum()
        assert box_count(points, eps) <= n <= min(np.prod(span), 1 + crossings)

    def test_segment_blocks_are_invisible(self, monkeypatch):
        rng = np.random.default_rng(5)
        clouds = [np.cumsum(rng.normal(0.0, 0.05, (300, m)), axis=0) for m in (1, 2, 3)]
        clouds += [lattice_polyline(seed)[0] for seed in range(20)]
        epss = [0.5, 0.125, 2.0**-5, 0.03]
        whole = [[box_count_curve(c, eps) for eps in epss] for c in clouds]
        for block in (1, 2, 3):
            monkeypatch.setattr(estimators, "_SEGMENT_BLOCK", block)
            assert [[box_count_curve(c, eps) for eps in epss] for c in clouds] == whole

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 3),
        st.sampled_from(["small", "below", "at", "above"]),
    )
    def test_distinct_rows_match_unique(self, seed, m, spread):
        # small: entries in -4..3, many repeats.  Otherwise column spans of
        # 2^bits, bits summing to 62, the last one less 1, as is or plus 1:
        # their product lies below the packing limit, at it or above it
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 200))
        if spread == "small":
            rows = rng.integers(-4, 4, (k, m))
        else:
            cuts = np.sort(rng.choice(np.arange(1, 62), m - 1, replace=False))
            spans = [2**int(b) for b in np.diff([0, *cuts, 62])]
            spans[-1] += {"below": -1, "at": 0, "above": 1}[spread]
            assert (math.prod(spans) < numerics._PACK_LIMIT) == (spread == "below")
            lows = [int(rng.integers(-(2**62), 2**62 - s + 1)) for s in spans]
            # five levels a column, its two ends among them, picked with repeats
            levels = [
                lo + np.array([0, s - 1, *rng.integers(0, s, 3)], dtype=np.int64)
                for lo, s in zip(lows, spans)
            ]
            rows = np.stack([rng.choice(v, k + 2) for v in levels], axis=1)
            rows[0], rows[1] = [v[0] for v in levels], [v[1] for v in levels]
        expected = np.unique(rows, axis=0)
        assert np.array_equal(numerics._distinct_rows(rows), expected)
        if spread == "small":
            assert np.array_equal(numerics._distinct_rows(rows.astype(float)), expected)
            assert box_count(rows.astype(float), 1.0) == len(expected)

    def test_curve_refuses_oversize_input(self):
        # ~10^12 grid lines: refused from the endpoint cells, before any
        # crossing is built
        with pytest.raises(InvalidArgumentError, match=r"crosses \d{12,13} grid lines"):
            box_count_curve([[0.0], [1.0]], 1e-12)

    @pytest.mark.parametrize("counter", [box_count, box_count_curve])
    def test_counters_refuse_bad_points(self, counter):
        # cells beyond int64, and points without coordinates
        for points, eps in (([[1e300]], 1e-10), (np.zeros((3, 0)), 1.0)):
            with pytest.raises(InvalidArgumentError):
                counter(points, eps)

    def test_unknown_method(self):
        seg = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
        with pytest.raises(InvalidArgumentError):
            box_counting_dim(seg, ScaleGrid(1, 6), method="chord")


def guarded_cloud(points, grid):
    """points scaled by a power of two, so that the resolution guard admits
    the grid and dyadic vertices stay dyadic."""
    spacing = estimators._min_spacing(points)
    if spacing is None:
        return points
    return points * 2.0 ** math.floor(math.log2(grid.finest / (4.0 * spacing)))


def one_scale_counts(points, grid, connect):
    counter = box_count_curve if connect else box_count
    return [counter(points, eps) for eps in grid.radii]


def per_scale_counts(points, grid, connect):
    return [row[1] for row in box_counting_dim(points, grid, connect=connect).per_scale]


def spy_walks(monkeypatch):
    """The list of the eps of every _walk_cells call from here on."""
    walked = []
    walk_cells = estimators._walk_cells
    monkeypatch.setattr(
        estimators, "_walk_cells",
        lambda p, cells, eps: walked.append(eps) or walk_cells(p, cells, eps),
    )
    return walked


class TestOneWalk:
    """box_counting_dim finds the cells once at the finest radius and
    coarsens them by shifts; its counts are the one-scale counters'."""

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2.0, 4.0]), st.integers(1, 3))
    def test_counts_match_the_one_scale_counters(self, seed, base, j_min):
        rng = np.random.default_rng(seed)
        grid = ScaleGrid(j_min, j_min + int(rng.integers(3, 6)), base)
        m = int(rng.integers(1, 4))
        # steps on the lattice Z/64 keep distinct points about 1/64 apart, so
        # the guard's finest scale leaves few crossings; the random offset
        # moves the walk off the grid lines
        steps = rng.integers(-64, 65, (int(rng.integers(1, 60)), m)) / 64.0
        walk = np.cumsum(steps, axis=0) - rng.uniform(0.0, 5.0, m)
        for points in (lattice_polyline(seed)[0], walk):
            points = guarded_cloud(points, grid)
            for connect in (False, True):
                expected = one_scale_counts(points, grid, connect)
                assert per_scale_counts(points, grid, connect) == expected

    def test_base_three_counts_every_scale_on_its_own(self, monkeypatch):
        rng = np.random.default_rng(3)
        grid = ScaleGrid(2, 6, 3.0)
        points = guarded_cloud(np.cumsum(rng.normal(0.0, 1.0, (500, 2)), axis=0), grid)
        assert per_scale_counts(points, grid, False) == one_scale_counts(points, grid, False)
        expected = one_scale_counts(points, grid, True)
        walked = spy_walks(monkeypatch)
        assert per_scale_counts(points, grid, True) == expected
        # one segment block per scale, every scale walked
        assert sorted(walked) == sorted(grid.radii)

    def test_walks_only_the_finest_dyadic_scale(self, monkeypatch):
        pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
        path = sample(FieldSpec(0.5, 1, 2), pts, Seed(7)).values
        walked = spy_walks(monkeypatch)
        box_counting_dim(path, ScaleGrid(4, 9), connect=True)
        # two segment blocks of 2^12 at the finest scale, nothing coarser
        assert walked == [2.0**-9] * 2

    def test_oversize_polyline_is_refused_at_the_walked_scale(self):
        # a zigzag across [0, 1] with one point 1e-6 from the origin, so the
        # guard admits 2^-17: 40 sweeps cross 40 * 2^17 grid lines there,
        # over _MAX_CROSSINGS, and half as many at 2^-16
        points = np.array([[0.0], [1e-6]] + [[1.0], [0.0]] * 20)
        grid = ScaleGrid(4, 17)
        crossings = 40 * 2**17
        assert estimators._MAX_CROSSINGS < crossings
        message = rf"the polyline crosses {crossings} grid lines"
        with pytest.raises(InvalidArgumentError, match=message):
            box_counting_dim(points, grid, connect=True)
        with pytest.raises(InvalidArgumentError, match=message):
            box_count_curve(points, grid.finest)
        assert box_counting_dim(points, grid).per_scale[-1][1] == 2

    @pytest.mark.parametrize(
        "d, connect, counts",
        [
            (1, True, [111, 304, 787, 2187, 5966, 15992]),
            (1, False, [111, 304, 783, 2028, 4192, 6400]),
            (2, True, [228, 725, 2300, 7055, 19960, 51122]),
            (2, False, [226, 711, 2117, 4739, 6902, 7813]),
        ],
    )
    def test_readme_quick_start_counts(self, d, connect, counts):
        # the counts each scale had when it was counted on its own
        pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
        path = sample(FieldSpec(0.5, 1, d), pts, Seed(7))
        points = graph_points(path) if d == 1 else path.values
        assert per_scale_counts(points, ScaleGrid(4, 9), connect) == counts


def int64_key_walk(p, cells, eps):
    """_walk_cells as it was with int64 sort keys: every crossing's segment,
    t and step, ordered by one lexsort of them, then the steps summed."""
    ca, cb = cells[:-1], cells[1:]
    counts = np.abs(cb - ca).ravel()
    lane = np.repeat(np.arange(counts.size), counts)
    k = np.arange(len(lane)) - np.repeat(np.cumsum(counts) - counts, counts)
    k += np.minimum(ca, cb).ravel()[lane] + 1
    a = p[:-1].ravel()[lane]
    t = (k * eps - a) / (p[1:].ravel()[lane] - a)
    seg, axis = np.divmod(lane, p.shape[1])
    step = np.sign(cb - ca).ravel()[lane]
    order = np.lexsort((-step, t, seg))
    seg, t, axis, step = seg[order], t[order], axis[order], step[order]
    walk = np.zeros((len(order), p.shape[1]), dtype=np.int64)
    walk[np.arange(len(order)), axis] = step
    walk = np.cumsum(walk, axis=0) + cells[0]
    keep = np.ones(len(order), dtype=bool)
    keep[:-1] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1]) | (step[1:] != step[:-1])
    return walk[keep]


def spy_lexsorts(monkeypatch):
    """The list of the key dtypes of every np.lexsort call from here on."""
    seen = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda keys: seen.append([k.dtype for k in keys]) or lexsort(keys)
    )
    return seen


class TestSingleKeySorts:
    """Cells are ordered by one-key sorts: packed int64 cell keys, and the
    walk's crossings by packed (segment, rank of t, step) keys, in the
    orders of the multi-key int64 lexsorts they replace."""

    @given(st.integers(0, 2**31 - 1))
    def test_walk_matches_int64_keys_through_grid_corners(self, seed):
        # vertices on the half lattice and a mesh of 1/2 or 1: the segments
        # pass grid corners and run along grid lines, so crossing times tie
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(2, 400)), int(rng.integers(1, 4))
        walk = np.cumsum(rng.integers(-3, 4, (k, m)), axis=0) / 2.0
        for points, eps in ((walk, float(rng.choice([0.5, 1.0]))), lattice_polyline(seed)):
            cells = estimators._grid_cells(points, eps)
            got = estimators._walk_cells(points, cells, eps)
            assert np.array_equal(got, int64_key_walk(points, cells, eps))

    def test_walk_on_a_diagonal_through_corners(self):
        # every crossing of x = j is one of y = j: one cell per unit step
        points = np.array([[0.5, 0.5], [3.5, 3.5], [0.5, 3.5]])
        cells = estimators._grid_cells(points, 1.0)
        got = estimators._walk_cells(points, cells, 1.0)
        assert np.array_equal(got, int64_key_walk(points, cells, 1.0))
        assert got.tolist() == [[1, 1], [2, 2], [3, 3], [2, 3], [1, 3], [0, 3]]

    def test_a_full_block_takes_no_lexsort(self, monkeypatch):
        # the walk orders a block's crossings by one packed int64 key, and
        # the cells' own sorts are single-key
        block = estimators._SEGMENT_BLOCK
        points = np.cumsum(np.random.default_rng(2).normal(0.0, 0.01, (block + 1, 2)), axis=0)
        seen = spy_lexsorts(monkeypatch)
        box_count_curve(points, 2.0**-8)
        assert seen == []

    def test_a_larger_block_counts_alike(self, monkeypatch):
        # 40000 segments in one block: the packed key still holds them
        points = np.cumsum(np.random.default_rng(3).normal(0.0, 0.01, (40001, 1)), axis=0)
        expected = box_count_curve(points, 2.0**-8)
        monkeypatch.setattr(estimators, "_SEGMENT_BLOCK", 2**16)
        seen = spy_lexsorts(monkeypatch)
        assert box_count_curve(points, 2.0**-8) == expected
        assert seen == []

    def test_lexsort_only_past_the_packing_limit(self, monkeypatch):
        # spans (2^31 + 2^30) * 13 pack; (2^62 + 1) * 2 and float rows do not
        narrow = np.array([[-(2**30), 5], [2**31 - 1, -7], [-(2**30), 5]])
        wide = np.array([[-(2**61), 0], [2**61, 1], [-(2**61), 0]])
        seen = spy_lexsorts(monkeypatch)
        assert numerics._distinct_rows(narrow).tolist() == [[-(2**30), 5], [2**31 - 1, -7]]
        assert seen == []
        assert numerics._distinct_rows(wide).tolist() == [[-(2**61), 0], [2**61, 1]]
        assert numerics._distinct_rows(narrow.astype(float)).tolist() == [
            [-(2**30), 5], [2**31 - 1, -7]
        ]
        assert seen == [[np.int64, np.int64], [np.float64, np.float64]]


def kd_spacing(points):
    """The kd-tree reference: nearest-neighbor spacing of np.unique's
    distinct rows, None below two."""
    from scipy.spatial import cKDTree

    distinct = np.unique(points, axis=0)
    if len(distinct) < 2:
        return None
    d, _ = cKDTree(distinct).query(distinct, k=2)
    return float(np.min(d[:, 1]))


SPACING_SHAPES = (
    "graph-path", "image-path", "line-path", "cantor-atoms", "mesh-64",
    "column-plus-outlier", "cube-cloud", "rounding-pair",
)


@functools.cache
def spacing_shapes():
    t = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
    graph = sample(FieldSpec(0.5), t, Seed(7))
    image = sample(FieldSpec(0.3, range_dim=2), t, Seed(8))
    g = np.arange(64) / 64.0
    column = np.column_stack([np.zeros(1000), np.linspace(0.0, 1.0, 1000)])
    rng = np.random.default_rng(11)
    return {
        "graph-path": np.column_stack([t[:, 0], graph.values[:, 0]]),
        "image-path": image.values,
        "line-path": graph.values,
        "cantor-atoms": thirds_measure(11).atoms,
        "mesh-64": np.stack(np.meshgrid(g, g), -1).reshape(-1, 2),
        "column-plus-outlier": np.vstack([column, [[5.0, 0.5]]]),
        "cube-cloud": rng.random((3000, 3)),
        # squares 1, 9/16 ulp, 9/16 ulp: summed in coordinate order they
        # round to 1 + 2 ulp, summed from the last coordinate to 1 + ulp
        "rounding-pair": np.array([[0.0, 0.0, 0.0], [1.0, 0.75 * 2.0**-26, 0.75 * 2.0**-26]]),
    }


class TestMinSpacing:
    """The resolution guard's numpy sweep against a kd-tree, bit for bit."""

    @given(st.integers(0, 2**31 - 1))
    def test_matches_kd_tree(self, seed):
        # repeated rows, -0.0 beside 0.0, ties on the sort coordinate and
        # spreads from 1e-6 to 1e3
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        pool = rng.normal(0.0, 10.0 ** rng.uniform(-6, 3), (int(rng.integers(1, 60)), m))
        pool[rng.random(pool.shape) < 0.2] = 0.0
        pool[rng.random(pool.shape) < 0.2] = -0.0
        pool = np.round(pool, int(rng.integers(0, 8)))
        points = pool[rng.integers(0, len(pool), int(rng.integers(1, 120)))]
        assert estimators._min_spacing(points) == kd_spacing(points)

    @pytest.mark.parametrize("name", SPACING_SHAPES)
    def test_named_shapes(self, name):
        points = spacing_shapes()[name]
        assert estimators._min_spacing(points) == kd_spacing(points)

    @pytest.mark.parametrize(
        "points",
        [[[0.0], [1e200], [2e200]], [[0.0, 0.0], [1e200, 0.0], [0.0, 3e200]],
         [[-1e308], [1e308]], [[1e-200], [3e-200], [0.0]]],
    )
    def test_squares_beyond_the_float_range(self, points):
        # an overflowing square is inf and an underflowing one 0, as in the
        # kd-tree, and neither warns
        points = np.array(points)
        expected = kd_spacing(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimators._min_spacing(points) == expected
            if expected == np.inf:
                with pytest.raises(ResolutionError):
                    box_counting_dim(points, ScaleGrid(1, 4))

    def test_signed_zeros_are_one_point(self):
        assert estimators._min_spacing(np.array([[0.0, 1.0], [-0.0, 1.0]])) is None
        points = np.array([[0.0], [-0.0], [0.5]])
        assert estimators._min_spacing(points) == 0.5

    @pytest.mark.parametrize(
        "points",
        [[[0.0], [np.nan], [0.5]], [[0.0], [np.inf], [0.5]], np.zeros((3, 0)), np.zeros((0, 2))],
    )
    def test_box_counting_validates_before_the_guard(self, points):
        for connect in (False, True):
            with pytest.raises(InvalidArgumentError):
                box_counting_dim(points, ScaleGrid(1, 4), connect=connect)
