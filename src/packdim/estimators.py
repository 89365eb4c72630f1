"""Scaling-exponent extraction and dimension estimators.

Every estimator reduces to the same primitive: a table of (scale, value)
pairs and a rule turning it into one exponent.  Two rules are offered.
"tail-max" takes the largest ratio log V / log r over the finest third of
the scales, the direct discretization of a limsup of ratios; it carries an
O(1 / log r) bias from multiplicative constants.  "regression" fits a least
squares slope to log V against log r, which cancels constants and is the
default.  The method used is always recorded on the estimate.  _fit holds
both rules and reads a whole (atoms x scales) log table at once; _estimate,
the one builder of an estimate, passes it the one row of scaling_exponent
or of box_counting_dim (V = 1 / N).  The kernel formulas live in kernels.py
in block form, and the measure and field estimators share one routine,
_kernel_dim, that tabulates and fits them.
The mass table comes from a walk over the upper-triangle tiles of the
kernel tables (_mass_table): every kernel is symmetric in its two atoms,
so each tile is evaluated once and contracted with the weights on both
sides.  The field's expected-mass table is written once, in _field_masses,
which dim_field and verify's graph bound both read.  On a drift-free
coded set with equal weights it is the exception to the walk:
kernels._coded_masses gives the table from a few rows of probabilities
per radius, one for a mesh and two for a two-level two-scale set.  Base-2
Cantor sets, whose offsets cost more than the walk, other atoms (centred
grids), unequal weights, drifts that do not cancel and graph-mode sets
with an offset distance at a window edge take the tiles.  The ball masses
have their own table, _ball_masses: on the line, with weights whose every
sum is exact (Cantor natural measures, equal weights on 2^m atoms), it is
numerics._run_masses, O(k log k) and with the walk's bits; other measures
take the walk over ball_tables.

Measure-a.e. quantifiers reduce the per-atom exponents to one atom's:
reduce="min" is the literal finite-atom infimum, reduce="median" (default)
the mass-weighted median.  The minimum is exact on self-similar measures
but is dominated at any fixed window by atoms near the support boundary;
see _kernel_dim.  Resolution guards refuse scale grids finer than the
atom spacing supports, where any finite approximant looks 0-dimensional.
The spacing comes from an exact numpy sweep (_min_spacing), so box counting
needs no scipy; it orders the points by one float sort of their widest
coordinate when that coordinate has no ties.

box_counting_dim finds the occupied cells once, at the finest radius: the
point cells, or the cells the polyline walk enters when ``connect`` is set.
A coarser radius that is the next finer one times an exact power of two,
2^m, takes the distinct rows of those cells shifted right by m, which are
exactly its own cells; any other radius is counted on its own.  The
distinct rows come from numerics._distinct_rows, which sorts one int64 key
per cell, packed by the bit widths of the cells' columns while those total
at most 62 bits.
The polyline walk orders its grid-line crossings by one packed int64 key
too: the segment, the dense rank of the crossing time and the step's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    InsufficientScalesError,
    InvalidArgumentError,
    ResolutionError,
)
from .kernels import (
    KernelContext,
    _check_split,
    _coded_masses,
    ball_tables,
    field_tables,
    profile_tables,
    slice_kernel,  # noqa: F401  (wrapped by the benchmark tracer, bench/worker.py)
    slice_tables,
)
from .measures import DiscreteMeasure, _as_points
from .numerics import _distinct_rows, _exact_sums, _finest_third, _line_distances, _run_masses

__all__ = [
    "ScaleGrid",
    "ExponentEstimate",
    "scaling_exponent",
    "dim_ball_mass",
    "dim_profile",
    "dim_slice_kernel",
    "dim_field",
    "box_count",
    "box_count_curve",
    "box_counting_dim",
]

_METHODS = ("tail-max", "regression")
_REDUCTIONS = ("min", "median")


# The most scales a ScaleGrid takes, and so the most radii a table has.
_MAX_SCALES = 4096


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric radii base**-j for j = j_min..j_max (dyadic by default).
    Each j must have an integer value; a grid has at most _MAX_SCALES
    scales, and its finest radius is a normal double."""

    j_min: int
    j_max: int
    base: float = 2.0

    def __post_init__(self):
        if not (self.j_min % 1 == 0 and self.j_max % 1 == 0):
            raise InvalidArgumentError("j_min and j_max must be integers")
        if self.j_min < 1:
            raise InvalidArgumentError("j_min must be at least 1")
        if self.j_max - self.j_min < 3:
            raise InvalidArgumentError("need at least four scales (j_max - j_min >= 3)")
        if not (1.0 < self.base < math.inf):
            raise InvalidArgumentError("base must be finite and exceed 1")
        if self.j_max - self.j_min >= _MAX_SCALES:
            raise InvalidArgumentError(f"at most {_MAX_SCALES} scales are supported")
        # a j_max past the floats overflows the power, and from 2^62 on
        # every base > 1 puts the finest radius below 2^-1022
        if self.j_max >= 2**62 or self.finest < np.finfo(float).tiny:
            raise InvalidArgumentError(f"j_max = {self.j_max} puts the finest radius below 2^-1022")

    @property
    def radii(self) -> np.ndarray:
        return self.base ** -np.arange(self.j_min, self.j_max + 1, dtype=float)

    @property
    def finest(self) -> float:
        return float(self.base**-self.j_max)


@dataclass(frozen=True)
class ExponentEstimate:
    """An exponent plus the evidence: per_scale rows are (r, V, ratio) for
    the usable scales, ``window`` the row indices that produced ``value``
    under ``method``, ``flags`` any diagnostics (e.g. dropped zero scales),
    ``atom_index`` the winning atom for per-atom minima."""

    value: float
    per_scale: tuple[tuple[float, float, float], ...]
    method: str
    window: tuple[int, ...]
    flags: tuple[str, ...] = ()
    atom_index: int | None = None


def _fit(logr: np.ndarray, logv: np.ndarray, method: str) -> np.ndarray:
    """Exponent of every row of the (rows x scales) table ``logv`` against
    ``logr``, read from the row's finite entries only: tail-max takes the
    largest logv / logr over the finest ceil(third) of them, regression the
    least-squares slope.  Rows that share a mask of finite entries are
    fitted together on that mask's columns, so each row gets exactly the
    value a fit of its finite entries alone gives.  An all-finite table is
    one group, found without sorting the masks."""
    finite = np.isfinite(logv)
    if finite.all():
        masks, which = finite[:1], np.zeros(len(logv), dtype=np.intp)
    else:
        masks, which = np.unique(finite, axis=0, return_inverse=True)
    values = np.empty(len(logv))
    for p, mask in enumerate(masks):
        usable = int(mask.sum())
        if usable < 4:
            raise InsufficientScalesError(
                f"only {usable} usable scales; at least 4 are required"
            )
        rows = which == p
        # C order keeps the row means and dots bitwise equal to 1-D ones.
        x, y = logr[mask], np.ascontiguousarray(logv[rows][:, mask])
        if method == "tail-max":
            tail = _window(usable, method).start
            values[rows] = np.max(y[:, tail:] / x[tail:], axis=1)
        else:
            xc = x - x.mean()
            yc = y - y.mean(axis=1, keepdims=True)
            num = np.broadcast_to(xc, yc.shape)[:, None, :] @ yc[:, :, None]
            values[rows] = num[:, 0, 0] / np.dot(xc, xc)
    return values


def _window(count: int, method: str) -> range:
    """Indices of the scales a fit over ``count`` usable scales reads: the
    finest ceil(third) for tail-max, all of them for regression."""
    return _finest_third(count) if method == "tail-max" else range(count)


def scaling_exponent(radii, values, method: str) -> ExponentEstimate:
    """Exponent of a mass table V(r), V in (0, 1], sampled on decreasing
    scales.  Zero values are dropped with a flag; fewer than four usable
    scales raise.  tail-max maxes log V / log r over the finest ceil(third)
    of the usable scales; regression fits all of them."""
    if method not in _METHODS:
        raise InvalidArgumentError(f"method must be one of {_METHODS}")
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.shape != v.shape or r.ndim != 1:
        raise InvalidArgumentError("radii and values must be matching 1-D arrays")
    # written as not (...) so that a NaN fails each test
    if not np.all((r > 0) & (r < 1)):
        raise InvalidArgumentError("scales must lie in (0, 1)")
    if not np.all(np.diff(r) < 0):
        raise InvalidArgumentError("scales must be strictly decreasing")
    if not np.all((v >= 0) & (v <= 1 + 1e-9)):
        raise InvalidArgumentError("values must lie in [0, 1]")
    usable = v > 0
    flags = () if usable.all() else ("dropped-zero-scales",)
    return _estimate(r[usable], v[usable], np.log(v[usable]), method, flags)


def _estimate(radii, column, logv, method: str, flags=()) -> ExponentEstimate:
    """The one builder of an ExponentEstimate: the _fit of the one row
    ``logv`` against log ``radii``, the per-scale rows (r, V, log V / log r)
    with V read from ``column``, and the fit's _window."""
    logr = np.log(radii)
    value = float(_fit(logr, logv[None, :], method)[0])
    rows = tuple((float(a), float(b), float(c)) for a, b, c in zip(radii, column, logv / logr))
    return ExponentEstimate(value, rows, method, tuple(_window(len(radii), method)), flags)


# ---------------------------------------------------------------------------
# Guards and the shared driver
# ---------------------------------------------------------------------------


# The tile side of _mass_table's walk, a power of two.  A tile's tables and
# temporaries stay a few MiB whatever the atom count.
_TILE = 128


def _min_spacing(points: np.ndarray) -> float | None:
    """Nearest-neighbor spacing of the distinct points of a finite (k, m)
    array; None below two.  A repeated point would make it 0 and switch the
    guard off.

    The distinct points are sorted along the coordinate of largest spread,
    and at lag 1, 2, ... each point is compared with the point ``lag`` places
    after it.  A point drops out once its squared gap on the sort coordinate
    exceeds the smallest squared distance so far: that square is a term of
    each of its later distances, and rounded differences and sums of squares
    are monotone, so the minimum is exact.  One argsort of the sort
    coordinate orders the points when it has no ties: they are then
    distinct, in the order a lexsort with that coordinate first gives.
    Otherwise _distinct_rows sorts them.  Squares are summed in coordinate
    order, as a kd-tree query does, and the result has its bits; a square
    beyond the float range is inf, as there.  Lattices cost the most: about
    k^((2m - 1)/m) checks, below the k^2 of a kernel table on the same
    points."""
    with np.errstate(over="ignore"):
        # column by column: a reduction along axis 0 of a narrow array is slow
        axis = int(np.argmax([c.max() - c.min() for c in points.T]))
        by_axis = np.argsort(points[:, axis])
        line = points[by_axis, axis]
        if np.any(line[1:] == line[:-1]):
            # lexicographic order with the sort coordinate first sorts along it
            order = np.roll(np.arange(points.shape[1]), -axis)
            p = _distinct_rows(points[:, order])
            coords = [np.ascontiguousarray(p[:, j]) for j in np.argsort(order)]
        else:
            coords = [c[by_axis] for c in points.T]
        k = len(coords[0])
        if k < 2:
            return None
        best = np.inf
        live = np.arange(k - 1)
        for lag in range(1, k):
            ahead = live + lag
            diffs = [c[ahead] - c[live] for c in coords]
            best = min(best, sum(d * d for d in diffs).min())
            live = live[diffs[axis] * diffs[axis] <= best]
            # live is increasing: cut the points with no partner lag + 1 ahead
            live = live[:np.searchsorted(live, k - lag - 1)]
            if not len(live):
                break
    return float(np.sqrt(best))


def _check_resolution(points: np.ndarray, grid: ScaleGrid):
    spacing = _min_spacing(points)
    if spacing is not None and grid.finest < 4.0 * spacing:
        raise ResolutionError(grid.finest, 4.0 * spacing)


def _mass_table(mu: DiscreteMeasure, tables, radii, points=None) -> np.ndarray:
    """V[i, j] = sum_k w_k K_{r_j}(x_i, x_k) over the atoms of mu, where
    ``tables(rows, atoms, radii)`` is a kernel's block form.  The blocks
    are rows of ``points``, the atoms by default; a block form may read
    more columns from them (field_tables takes the drift values there).

    Every kernel here is symmetric bit for bit: the table on atom blocks
    (I, K) is the transpose of the table on (K, I), since each entry reads
    only |x_i - x_k| per coordinate, norms of it and the drift increment
    up to sign.  So the walk takes the tiles (I, K) of _TILE atoms with
    K >= I, evaluates each once and contracts it twice, V[I] += T @ w[K]
    and, off the diagonal, V[K] += w[I] @ T: half the evaluations of the
    full table, in O(tile) memory.  A diagonal tile passes its one block
    as both arguments, so that field_tables can evaluate the tile's pairs
    i <= k alone and mirror them.  A block form that yields no tables for
    a tile (an empty graph window) adds nothing.

    A constant table (kernels: zero strides, 0 or 1 everywhere) is not
    contracted: a zero one adds nothing, and a one adds the tile's all-ones
    contractions ones @ w[K] and w[I] @ ones, made at most once per tile.
    They are the gemv a materialised table of ones takes, so V keeps its
    bits."""
    atoms = mu.atoms if points is None else points
    w = mu.weights
    V = np.zeros((mu.count, len(radii)))
    for lo in range(0, mu.count, _TILE):
        rows = slice(lo, lo + _TILE)
        block = atoms[rows]
        for hi in range(lo, mu.count, _TILE):
            cols = slice(hi, hi + _TILE)
            others = block if hi == lo else atoms[cols]
            ones = None
            for j, table in enumerate(tables(block, others, radii)):
                if any(table.strides):
                    masses = table @ w[cols], w[rows] @ table if hi != lo else None
                elif table[0, 0]:
                    if ones is None:
                        full = np.ones(table.shape)
                        ones = full @ w[cols], w[rows] @ full if hi != lo else None
                    masses = ones
                else:
                    continue
                V[rows, j] += masses[0]
                if hi != lo:
                    V[cols, j] += masses[1]
    return V


def _kernel_dim(
    mu: DiscreteMeasure, grid: ScaleGrid, masses, method: str, reduce: str
) -> ExponentEstimate:
    """The one estimator driver: tabulate V = masses(radii), the (atoms x
    radii) mass table, on the grid, fit every atom's exponent, and return
    the estimate of one representative atom, tagged with its index.

    reduce="min" takes the smallest exponent over all atoms, the literal
    finite-atom reading of a mu-a.e. infimum.  At desk scales it is
    systematically dragged down by atoms sitting a mid-window distance from
    the support boundary, whose mass profile changes constant inside the
    window; the limit statement washes those out but a fixed grid cannot.
    reduce="median" (default) takes the atom at the mass-weighted median
    exponent, the bulk behavior the asymptotic statements describe; on
    self-similar measures every atom scales alike and the two reductions
    agree."""
    _check_resolution(mu.atoms, grid)
    if method not in _METHODS:
        raise InvalidArgumentError(f"method must be one of {_METHODS}")
    if reduce not in _REDUCTIONS:
        raise InvalidArgumentError(f"reduce must be one of {_REDUCTIONS}")
    radii = grid.radii
    V = masses(radii)
    with np.errstate(divide="ignore"):
        values = _fit(np.log(radii), np.log(V), method)
    if reduce == "min":
        winner = int(np.argmin(values))
    else:
        order = np.argsort(values, kind="stable")
        cum = np.cumsum(mu.weights[order])
        winner = int(order[int(np.searchsorted(cum, 0.5 - 1e-12))])
    return replace(scaling_exponent(radii, V[winner], method), atom_index=winner)


# ---------------------------------------------------------------------------
# Dimension estimators for measures
# ---------------------------------------------------------------------------


def dim_ball_mass(
    mu: DiscreteMeasure, grid: ScaleGrid, method: str = "regression",
    reduce: str = "median",
) -> ExponentEstimate:
    """Exponent of r -> mu(B(x, r)) (Euclidean balls) at a representative
    atom x; the computable form of the ball-mass characterization of the
    packing dimension of a measure, fitted to the _ball_masses table."""
    return _kernel_dim(mu, grid, partial(_ball_masses, mu), method, reduce)


def _ball_masses(mu: DiscreteMeasure, radii) -> np.ndarray:
    """The (atoms x radii) table of closed-ball masses behind dim_ball_mass.
    On the line, with weights whose every sum is exact, it is
    numerics._run_masses over the atoms with _pair_distances' distance:
    each entry is then the exact mass, which the walk's contractions also
    give, in any order, so the table has the walk's bits.  Any other
    measure takes _mass_table's walk over ball_tables."""
    if mu.dim == 1 and _exact_sums(mu.weights):
        return _run_masses(mu.atoms[:, 0], mu.weights, radii, _line_distances)
    return _mass_table(mu, ball_tables, radii)


def dim_profile(
    mu: DiscreteMeasure, beta: float, grid: ScaleGrid, method: str = "regression",
    reduce: str = "median",
) -> ExponentEstimate:
    """Exponent of the truncated-power kernel integral F_beta at a
    representative atom: the beta-dimensional packing profile of the
    measure.  Caps at beta (kernel tail) and at the ball-mass dimension
    (r-ball term)."""
    if not (0 < beta < math.inf):
        raise InvalidArgumentError("beta must be positive and finite")
    masses = partial(
        _mass_table, mu, lambda rows, atoms, radii: profile_tables(rows, atoms, beta, radii)
    )
    return _kernel_dim(mu, grid, masses, method, reduce)


def dim_slice_kernel(
    mu: DiscreteMeasure, n: int, d: int, grid: ScaleGrid, method: str = "regression",
    reduce: str = "median",
) -> ExponentEstimate:
    """Exponent of the slice-then-product-kernel integral G_d at a
    representative atom; the graph-adapted characterization on R^{n+d}."""
    _check_split(n, d, mu.dim)
    masses = partial(
        _mass_table, mu, lambda rows, atoms, radii: slice_tables(rows, atoms, n, radii)
    )
    return _kernel_dim(mu, grid, masses, method, reduce)


def _field_masses(ctx: KernelContext, radii) -> np.ndarray:
    """The (atoms x radii) table of expected ball masses of the context
    measure, the one table behind dim_field and verify's graph bound: from
    kernels._coded_masses where it applies, else from field_tables on
    _mass_table's tiles."""
    V = _coded_masses(ctx, radii)
    if V is None:
        points = atoms = ctx.measure.atoms
        if ctx.drift is not None:
            # the drift once per atom, as columns after the atoms where
            # field_tables reads them (and ignores them if the drift
            # cancels); evaluated on the walk's blocks, the arguments
            # field_tables would evaluate it on, so it keeps its bits
            f = [ctx.drift.evaluate(atoms[lo:lo + _TILE]) for lo in range(0, len(atoms), _TILE)]
            points = np.hstack([atoms, np.vstack(f)])
        V = _mass_table(ctx.measure, partial(field_tables, ctx), radii, points)
    return V


def dim_field(
    ctx: KernelContext,
    grid: ScaleGrid,
    method: str = "regression",
    reduce: str = "median",
) -> ExponentEstimate:
    """Exponent of r -> expected_ball_mass(ctx, t, r) at a representative
    atom t of the context measure: the computable packing dimension of the
    drifted field's image measure (image mode) or graph measure (graph
    mode), fitted to the _field_masses table."""
    return _kernel_dim(ctx.measure, grid, partial(_field_masses, ctx), method, reduce)


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


# Curve box counts walk the segments in blocks of this many, so their
# temporaries stay O(block) while the distinct cells accumulate.
_SEGMENT_BLOCK = 2**12

# The most grid-line crossings box_count_curve traverses.  Each costs up to
# 120 bytes of temporaries in its block, so one long segment that crosses
# them all peaks near 0.5 GiB.
_MAX_CROSSINGS = 2**22


def _grid_cells(p: np.ndarray, eps: float) -> np.ndarray:
    """Index rows floor(p / eps) of the origin-anchored half-open grid of
    mesh eps, one per point of p, a (k, m) array from measures._as_points."""
    if not (eps > 0) or not math.isfinite(eps):
        raise InvalidArgumentError("eps must be positive and finite")
    with np.errstate(over="ignore"):
        cells = np.floor(p / eps)
    if np.any(np.abs(cells) >= 2.0**62):
        raise InvalidArgumentError("points / eps must stay below 2^62 in magnitude")
    return cells.astype(np.int64)


def box_count(points, eps: float) -> int:
    """Number of cells of the origin-anchored half-open grid of mesh eps
    that contain at least one of the points."""
    return len(_distinct_cells(_as_points(points), eps, connect=False))


def _walk_cells(p: np.ndarray, cells: np.ndarray, eps: float) -> np.ndarray:
    """Cells the polyline through the points ``p`` (grid cells ``cells``)
    enters after its first vertex's cell, in order along the polyline.

    Each segment a -> b crosses the grid lines k * eps, k = min(ca, cb) + 1
    .. max(ca, cb), of each axis once, at t = (k eps - a) / (b - a), and
    steps one cell along that axis there (Amanatides & Woo's traversal).
    Summing the steps in (segment, t) order walks from the first cell to the
    last, so every cell comes from integer steps; the floating-point part is
    only the order of the crossings.  Crossings at one t pass a grid corner
    or edge: the polyline touches just the cell of the crossing point, whose
    index along a crossed axis is k -- the cell after an increasing step,
    the cell before a decreasing one -- so the increasing steps go first and
    only the cell after them and the cell after the whole tie are kept."""
    ca, cb = cells[:-1], cells[1:]
    counts = np.abs(cb - ca).ravel()
    # the (segment, axis) of every crossing, and its line index k
    lane = np.repeat(np.arange(counts.size), counts)
    k = np.arange(len(lane)) - np.repeat(np.cumsum(counts) - counts, counts)
    k += np.minimum(ca, cb).ravel()[lane] + 1
    a = p[:-1].ravel()[lane]
    t = (k * eps - a) / (p[1:].ravel()[lane] - a)
    seg, axis = np.divmod(lane, p.shape[1])
    step = np.sign(cb - ca).astype(np.int8).ravel()[lane]
    # dropped as soon as they are read, to keep the block's peak low
    del lane, k, a
    # The order of lexsort((-step, t, seg)), from one stable sort of an int64
    # key: the segment, the dense rank of t and whether the step decreases,
    # mixed-radix.  An unstable sort of t ranks it; equal keys keep their
    # crossings' order, as lexsort does.
    by_t = np.argsort(t)
    t = t[by_t]
    rank = np.zeros(len(t), dtype=np.int64)
    np.not_equal(t[1:], t[:-1], out=rank[1:])
    np.cumsum(rank, out=rank)
    key = np.empty(len(t), dtype=np.int64)
    key[by_t] = rank
    del t, by_t, rank
    key += seg * len(key)
    key *= 2
    key += step < 0
    order = np.argsort(key, kind="stable")
    key, axis, step = key[order], axis[order], step[order]
    walk = np.zeros((len(order), p.shape[1]), dtype=np.int64)
    walk[np.arange(len(order)), axis] = step
    np.cumsum(walk, axis=0, out=walk)
    walk += cells[0]
    # skip a step followed by one of the same sign at the same crossing
    # point: the same segment, t and step make the same key
    keep = np.ones(len(order), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[:-1])
    # np.compress picks rows several times faster than a boolean index does
    return np.compress(keep, walk, axis=0)


def _distinct_cells(p: np.ndarray, eps: float, connect: bool) -> np.ndarray:
    """The distinct cells, in lexicographic order, of the origin-anchored
    half-open grid of mesh eps that hold a point of p (from
    measures._as_points) or, with ``connect`` set, that meet the polyline
    through them.  Polylines that cross more than _MAX_CROSSINGS grid lines
    are refused."""
    cells = _grid_cells(p, eps)
    if not connect:
        return _distinct_rows(cells)
    # summed in floating point, which cannot wrap around
    crossings = np.abs(np.diff(cells, axis=0)).sum(dtype=float)
    if crossings > _MAX_CROSSINGS:
        raise InvalidArgumentError(
            f"the polyline crosses {crossings:.0f} grid lines; at most {_MAX_CROSSINGS} are supported"
        )
    found = [cells[:1]]
    for lo in range(0, len(p) - 1, _SEGMENT_BLOCK):
        hi = lo + _SEGMENT_BLOCK + 1
        found.append(_distinct_rows(_walk_cells(p[lo:hi], cells[lo:hi], eps)))
    return _distinct_rows(np.vstack(found))


def box_count_curve(points, eps: float) -> int:
    """Cells hit by the polyline joining consecutive points: the box count
    of the sampled curve rather than of the bare sample.  For images and
    graphs of continuous paths this removes the undercount a finite point
    sample suffers once eps drops below the typical interpoint move.

    The count is exact: it is the number of cells of the origin-anchored
    half-open grid of mesh eps that contain at least one point of the
    closed polyline, a cell the polyline only clips at a corner included.
    Inputs that cross more than _MAX_CROSSINGS grid lines are refused."""
    return len(_distinct_cells(_as_points(points), eps, connect=True))


def _dyadic_shift(finer: float, eps: float) -> int | None:
    """m >= 1 with eps == finer * 2^m exactly, else None."""
    m = math.frexp(eps / finer)[1] - 1
    return m if m >= 1 and math.ldexp(finer, m) == eps else None


def box_counting_dim(
    points, grid: ScaleGrid, connect: bool = False, method: str = "regression"
) -> ExponentEstimate:
    """Exponent of log N(eps) against log(1/eps) over the grid, N being
    box_count (or box_count_curve when ``connect`` is set).  "regression"
    fits the least-squares slope; "tail-max" takes the largest ratio
    log N / log(1/eps) over the finest third of scales, the direct
    discretization of the limsup that defines the upper box dimension --
    preferable for sets whose counts carry slowly varying corrections,
    where the slope of a concave log-log table understates the limsup.
    The sampling guard refuses grids finer than 4x the nearest-neighbor
    spacing of the points.

    The cells are found once, at the finest radius, and every coarser
    radius eps = 2^m * finer, the next finer radius times an exact power of
    two (a dyadic grid, or base 4), takes the distinct rows of the finer
    cells >> m.  The counts equal the one-scale counters': floor(p / eps)
    is floor(p / finer) >> m, as division by 2^m is exact, and a half-open
    coarse cell meets the polyline exactly when one of its fine children
    does.  Any other radius (base 3, say) is counted on its own.  A
    polyline is refused when a walked scale crosses more than
    _MAX_CROSSINGS grid lines; a scale derived from it crosses no more,
    as coarsening only removes crossings.

    Each scale's distinct cells are found by one sort of int64 keys: a
    cell's indices, less their minima over the cells, packed by the
    columns' bit widths, while those total at most 62 bits.  Wider columns
    take a lexsort of the columns, with the same counts."""
    if method not in _METHODS:
        raise InvalidArgumentError(f"method must be one of {_METHODS}")
    p = _as_points(points)
    _check_resolution(p, grid)
    radii = grid.radii
    counts = np.empty(len(radii))
    cells = finer = None
    for j in reversed(range(len(radii))):
        eps = float(radii[j])
        m = None if finer is None else _dyadic_shift(finer, eps)
        cells = _distinct_cells(p, eps, connect) if m is None else _distinct_rows(cells >> m)
        counts[j], finer = len(cells), eps
    # N(eps) = 1 / V(eps): the fit of -log N against log eps is the box
    # slope, and (-log N) / log eps is log N / -log eps bit for bit
    return _estimate(radii, counts, -np.log(counts), method)
