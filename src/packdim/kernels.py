"""Kernels whose integrals against a measure bound expected ball masses.

The chain runs: ball mass <= truncated-power kernel integral <= product
kernel integral, and for a Gaussian field with drift the expected measure of
a ball around Z(t) is an exact integral of per-coordinate Gaussian interval
probabilities.  R^d and R^{n+d} carry the maximum norm throughout.

Each kernel formula lives here once, in block form: given query rows x_i
and atoms y_k it yields one (rows x atoms) table per radius.  They are
ball_tables, profile_tables, slice_tables and field_tables (the expected
ball mass, home of its one image/graph x drift case split).  Every one is
symmetric bit for bit: an entry reads |x_i - y_k| per coordinate, norms
of it and the drift increment f(x_i) - f(y_k), whose sign the Gaussian
interval probability ignores, so the table on (rows, atoms) is the
transpose of the table on (atoms, rows).  The estimators rely on that:
they walk the upper-triangle tiles of the atoms' pair table and evaluate
each unordered pair once (estimators._mass_table), so the rows and atoms
a block form sees are one tile.  A diagonal tile passes one block as
both, and field_tables then evaluates only its pairs i <= k and mirrors
each to (k, i).  Every table takes its Euclidean distances from
numerics._pair_distances.  In graph mode field_tables evaluates only the
domain window, the pairs with |y_k - x_i| <= r, since a graph ball holds
no other atom, and a tile with an empty window yields no table at all:
one whose coordinate ranges lie further apart than every radius costs
four reductions per coordinate.  field_tables holds the drift increments
as one flat (rows x atoms) array per range coordinate, so a lane of pairs
is one gather from each, and it computes the probabilities by calling
its module-level name gaussian_interval_prob, the binding the benchmark
wraps.  It reads the drift values from d columns after the n domain
coordinates of rows and atoms when they carry them, which lets a walk
evaluate the drift once per atom.  ball_tables and profile_tables refill
one table per call, so their yielded tables are overwritten when the
generator advances.
The per-point functions, increment_prob among them, are one-row calls of
these, each query point checked by measures._check_point.

Constant tables.  A table that holds one value everywhere, 0 or 1, may
be yielded as a read-only view with zero strides (_constant, shared
between calls), and a materialised table never has zero strides, so a
consumer tells them apart by ``not any(table.strides)``.  Each form
decides this exactly, from values it already holds, and only where
every entry of the table it would compute has that value:
- ball_tables: zeros where r is below a lower bound on every rounded
  distance, the coordinate ranges' gaps squared, summed and rooted as
  _pair_distances does (then no distance table is built if that holds
  for every radius); else zeros below the least distance and ones from
  the greatest on.
- profile_tables: ones where fl(least |x_i - y_k|^-beta * r^beta) >= 1;
  where the greatest product is at most 1, no fmin pass is made.
- slice_tables: zeros where the first n coordinates' ranges lie further
  apart than r.
- field_tables: zeros for a radius whose graph window is empty.
estimators._mass_table skips a zero table and adds the tile's all-ones
contraction for a one table, the gemv a materialised table takes, so the
mass tables keep their bits; the per-point functions copy a constant row
before contracting it, for the same reason.

One shortcut skips the pair tables.  When the weights are equal, the
drift cancels and the atoms are a coded set, atom = sum_l j_l P_l over
digits j_l < m_l (a fields._mesh_points mesh, or on the line the left
ends fractals._children builds, as in Cantor and two-scale sets), the
field kernel of a pair depends only on its digit offset.  _coded_masses
then gives the weighted sums of the field tables from the rows of
field_tables at a few corner atoms, one for a mesh and two for a
two-level two-scale set, and prefix sums over the offsets: O(atoms) per
radius instead of O(atoms^2).  It is taken only where that work is below
the tile walk's pair count, so base-2 Cantor sets, whose 2^L sign
patterns make it quadratic, keep the tiles.  Graph-mode sets with an
offset distance within a few ulps of a radius, any other atoms, unequal
weights and drifts that do not cancel take the tables too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .fields import DriftSpec, FieldSpec, _mesh_axes
from .fractals import _digit_counts
from .measures import (
    DiscreteMeasure,
    _check_point,
    slice_measure,  # noqa: F401  (wrapped by the benchmark tracer, bench/worker.py)
)
from .numerics import _pair_distances, gaussian_interval_prob

__all__ = [
    "KernelContext",
    "profile_kernel",
    "slice_kernel",
    "increment_prob",
    "expected_ball_mass",
    "ball_mass_profile",
    "ball_tables",
    "profile_tables",
    "slice_tables",
    "field_tables",
]


def _capped_inverse(v: np.ndarray) -> np.ndarray:
    """min(1, 1/v) elementwise for v >= 0, with the value 1 where v vanishes."""
    with np.errstate(divide="ignore"):
        return np.where(v <= 1.0, 1.0, 1.0 / v)


@lru_cache(maxsize=16)
def _constant(value: float, shape: tuple[int, int]) -> np.ndarray:
    """A read-only table holding ``value`` everywhere, with zero strides;
    shared between calls."""
    return np.broadcast_to(np.float64(value), shape)


def _range_gaps(rows: np.ndarray, atoms: np.ndarray, coords) -> list[float]:
    """Per coordinate c, a lower bound on every pair's rounded |x_ic - y_kc|:
    the rounded gap between the two blocks' ranges in c, 0 where they
    overlap.  Rounding is monotone, so no pair's rounded difference is
    below the rounded gap.  Python floats: an overflow is inf, no warning."""
    gaps = []
    for c in coords:
        x, y = rows[:, c], atoms[:, c]
        x_lo, x_hi = float(x.min(initial=np.inf)), float(x.max(initial=-np.inf))
        y_lo, y_hi = float(y.min(initial=np.inf)), float(y.max(initial=-np.inf))
        gaps.append(max(y_lo - x_hi, x_lo - y_hi, 0.0))
    return gaps


def ball_tables(rows: np.ndarray, atoms: np.ndarray, radii):
    """Yield, per radius r, the (rows x atoms) indicator of the closed
    Euclidean ball, |x_i - y_k| <= r, as float 0/1 that no contraction
    casts; one table is refilled per radius.  Tables that are constant come
    as views: zeros without a distance table when the coordinate ranges'
    Euclidean gap exceeds every radius, else zeros below the least
    distance and ones from the greatest on."""
    # the gaps squared and summed in _pair_distances' order: no rounded
    # distance is below this bound
    bound = 0.0
    for g in _range_gaps(rows, atoms, range(rows.shape[1])):
        bound += g * g
    shape = (len(rows), len(atoms))
    if math.sqrt(bound) > np.max(radii, initial=0.0):
        for r in radii:
            yield _constant(0.0, shape)
        return
    dist = _pair_distances(rows, atoms)
    least, greatest = dist.min(), dist.max()
    table = np.empty_like(dist)
    for r in radii:
        if r < least:
            yield _constant(0.0, shape)
        elif r >= greatest:
            yield _constant(1.0, shape)
        else:
            yield np.less_equal(dist, r, out=table)


def profile_tables(rows: np.ndarray, atoms: np.ndarray, beta: float, radii):
    """Yield, per radius r, the (rows x atoms) truncated power kernel
    min(1, r^beta |x_i - y_k|^-beta) with Euclidean distances; an atom at
    x_i itself contributes 1.  One table per call is refilled for each
    radius, so a yielded table is overwritten when the generator advances;
    use it before asking for the next.  A zero distance gives 0^-beta = inf,
    and fmin(inf * r^beta, 1) = 1, also where r^beta underflows to 0 and
    the product is nan.  Where even the least |x_i - y_k|^-beta times
    r^beta rounds to 1 or more, the table is ones, a view; where the
    greatest does not exceed 1, the fmin pass is skipped."""
    inv = _pair_distances(rows, atoms)
    with np.errstate(divide="ignore"):
        inv **= -beta
    least, greatest = inv.min(), inv.max()
    vals = np.empty(inv.shape)
    for r in radii:
        scale = r**beta
        with np.errstate(invalid="ignore"):
            if least * scale >= 1.0:
                yield _constant(1.0, inv.shape)
                continue
            np.multiply(inv, scale, out=vals)
            if not greatest * scale <= 1.0:
                np.fmin(vals, 1.0, out=vals)
        yield vals


def slice_tables(rows: np.ndarray, atoms: np.ndarray, n: int, radii):
    """Yield, per radius r, the (rows x atoms) sliced product kernel: the
    indicator that the first n coordinates lie within max-norm distance r
    of x_i's, times prod_j min(1, r / |x_ij - y_kj|) over the rest.  Where
    the first n coordinates' ranges lie further apart than r, the table
    is zeros, a view; no difference is built if that holds for every r."""
    gap = max(_range_gaps(rows, atoms, range(n)), default=0.0)
    shape = (len(rows), len(atoms))
    if gap > np.max(radii, initial=0.0):
        for r in radii:
            yield _constant(0.0, shape)
        return
    diff = np.abs(rows[:, None, :] - atoms[None, :, :])
    head = diff[:, :, :n].max(axis=2, initial=0.0)
    tail = diff[:, :, n:]
    for r in radii:
        if gap > r:
            yield _constant(0.0, shape)
        else:
            yield np.prod(_capped_inverse(tail / r), axis=2) * (head <= r)


def _row_mass(table: np.ndarray, weights: np.ndarray) -> float:
    """The first row of a block form's table contracted with the weights.
    A constant view is copied first: numpy dots a zero-stride row in its
    own loop, which sums in another order than the BLAS dot of a table."""
    return float(np.ascontiguousarray(table[0]) @ weights)


def _check_split(n: int, d: int, dim: int) -> None:
    if n < 0 or d < 1 or n + d != dim:
        raise InvalidArgumentError("need n >= 0, d >= 1 with n + d matching the measure")


def profile_kernel(mu: DiscreteMeasure, beta: float, x, r: float) -> float:
    """Integral of min(1, r^beta |y - x|^-beta) dmu(y), the truncated power
    kernel behind dimension profiles.  Euclidean distances; an atom at x
    itself contributes its full weight."""
    if not (0 < beta < math.inf):
        raise InvalidArgumentError("beta must be positive and finite")
    if not (r > 0):
        raise InvalidArgumentError("r must be positive")
    (table,) = profile_tables(_check_point(x, mu.dim)[None, :], mu.atoms, beta, [r])
    return _row_mass(table, mu.weights)


def slice_kernel(mu: DiscreteMeasure, n: int, d: int, x, r: float) -> float:
    """Slice the measure to the max-norm box around the first n coordinates
    of x, then integrate the product kernel of the remaining d coordinates:
    sum of w(y) prod_i min(1, r / |y_i - v_i|) over surviving atoms."""
    _check_split(n, d, mu.dim)
    if not (r > 0):
        raise InvalidArgumentError("r must be positive")
    (table,) = slice_tables(_check_point(x, mu.dim)[None, :], mu.atoms, n, [r])
    return _row_mass(table, mu.weights)


@dataclass(frozen=True)
class KernelContext:
    """A drifted field together with a measure on its domain.

    mode "image" integrates over all atoms; mode "graph" restricts to the
    max-norm ball in the domain, matching balls around graph points
    (t, Z(t)) in R^{n+d}.
    """

    field: FieldSpec
    drift: DriftSpec | None
    measure: DiscreteMeasure
    mode: str = "image"

    def __post_init__(self):
        if self.mode not in ("image", "graph"):
            raise InvalidArgumentError("mode must be 'image' or 'graph'")
        if self.measure.dim != self.field.domain_dim:
            raise InvalidArgumentError("measure lives on the wrong domain dimension")
        if self.drift is not None and self.drift.range_dim != self.field.range_dim:
            raise InvalidArgumentError("drift and field range dimensions differ")

    def _drift_cancels(self) -> bool:
        return self.drift is None or self.drift.kind in ("zero", "constant")


def increment_prob(ctx: KernelContext, t, s, r: float) -> float:
    """P(max_i |Z_i(t) - Z_i(s)| <= r) for the drifted field Z = X + f:
    the product over coordinates of Gaussian interval probabilities with
    scale |t-s|^alpha and center f_i(t) - f_i(s).  It is the (t, s) entry
    of the image-mode field_tables on the pair, whatever ctx.mode says, so
    a constant drift cancels bit for bit.  A NaN or negative r is
    refused."""
    if not (r >= 0):
        raise InvalidArgumentError("r must be nonnegative")
    n = ctx.field.domain_dim
    tv, sv = _check_point(t, n), _check_point(s, n)
    image = KernelContext(ctx.field, ctx.drift, ctx.measure)
    (table,) = field_tables(image, tv[None, :], sv[None, :], [r])
    return float(table[0, 0])


def field_tables(ctx: KernelContext, rows: np.ndarray, atoms: np.ndarray, radii):
    """Yield, per radius r, the (rows x atoms) table of the probability
    that Z(y_k) lies in the max-norm radius-r ball around Z(x_i) (image
    mode), or that (y_k, Z(y_k)) lies in the ball around (x_i, Z(x_i))
    (graph mode): the product of coordinate interval probabilities, times
    the domain-ball indicator in graph mode.  ``rows`` and ``atoms`` hold
    the n domain coordinates, optionally followed by the d drift values
    f(x); without them the drift is evaluated on the points.
    ``ctx.measure`` is not read.

    In graph mode only atoms within domain distance r of x_i can enter the
    ball: the probabilities are evaluated on those pairs only and written
    into a fresh zero table, every other entry being the exact zero the
    indicator gives it.  A radius whose window is empty yields a constant
    zero view.  When no pair lies within max(radii), every table would be
    zero and none is yielded.

    When ``atoms`` is ``rows`` itself, a diagonal tile, the table is
    symmetric bit for bit: only the pairs i <= k are evaluated, and each is
    written to (i, k) and (k, i).  The drift increments f_c(x_i) - f_c(y_k)
    are held as one (rows x atoms) array per coordinate c, so that a lane
    of pairs is gathered from each with one flat index.
    """
    n, d = ctx.field.domain_dim, ctx.field.range_dim
    graph = ctx.mode == "graph"
    diagonal = atoms is rows
    f_rows = f_atoms = None
    if rows.shape[1] == n + d:
        f_rows, f_atoms = rows[:, n:], atoms[:, n:]
    rows, atoms = rows[:, :n], atoms[:, :n]
    shape = (len(rows), len(atoms))
    if graph:
        reach = np.max(radii, initial=0.0)
        # coordinate ranges further apart than every radius: no window
        if max(_range_gaps(rows, atoms, range(n))) > reach:
            return
        # the max-norm domain distance, one coordinate at a time
        dom = np.abs(rows[:, None, 0] - atoms[None, :, 0])
        for c in range(1, n):
            np.maximum(dom, np.abs(rows[:, None, c] - atoms[None, :, c]), out=dom)
        if not np.any(dom <= reach):
            return
        dom = dom.reshape(-1)
    rho = _pair_distances(rows, atoms)
    rho **= ctx.field.alpha
    rho = rho.reshape(-1)
    # the drift increments f_c(x_i) - f_c(y_k), one flat array per coordinate
    centers = []
    if not ctx._drift_cancels():
        if f_rows is None:
            f_rows = ctx.drift.evaluate(rows)
            f_atoms = f_rows if diagonal else ctx.drift.evaluate(atoms)
        centers = [(f_rows[:, c, None] - f_atoms[None, :, c]).reshape(-1) for c in range(d)]
    # a diagonal tile evaluates the pairs i <= k, found at the flat
    # positions ``pairs`` and written to ``mirror`` too
    pairs = mirror = None
    if diagonal:
        pairs, mirror = _upper_pairs(len(rows))
        rho, centers = rho[pairs], [c[pairs] for c in centers]
        if graph:
            dom = dom[pairs]
    for r in radii:
        # the evaluated pairs inside this radius's domain ball; None for all
        inside = None
        if graph:
            inside = np.flatnonzero(dom <= r)
            if not len(inside):
                yield _constant(0.0, shape)
                continue
            if len(inside) == len(dom):
                inside = None
        rho_r, *centers_r = (v if inside is None else v[inside] for v in (rho, *centers))
        if not centers:
            probs = gaussian_interval_prob(rho_r, 0.0, r) ** d
        else:
            probs = gaussian_interval_prob(rho_r, centers_r[0], r)
            for a in centers_r[1:]:
                probs *= gaussian_interval_prob(rho_r, a, r)
        if inside is None and pairs is None:
            yield probs.reshape(shape)
            continue
        table = np.zeros(shape) if graph else np.empty(shape)
        flat = table.reshape(-1)
        if pairs is None:
            flat[inside] = probs
        else:
            for at in (pairs, mirror):
                flat[at if inside is None else at[inside]] = probs
        yield table


@lru_cache(maxsize=4)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices (i, k) -> i * size + k of the pairs i <= k of a
    (size x size) table, row by row, and of their mirror images (k, i);
    read-only, as they are shared between calls."""
    i, k = np.triu_indices(size)
    pairs, mirror = i * size + k, k * size + i
    pairs.flags.writeable = mirror.flags.writeable = False
    return pairs, mirror


def _digit_code(atoms: np.ndarray) -> list[tuple[int, ...]] | None:
    """The digit counts of each domain axis when the (k, n) atoms are a
    coded set, atom = sum_l j_l P_l over digits j_l < m_l in C order, each
    pitch P_l along one axis: a fields._mesh_points mesh, one digit per axis,
    or on the line the left ends of a nested uniform system
    (fractals._digit_counts).  Both are recognised bit for bit; None
    otherwise."""
    mesh = _mesh_axes(atoms)
    if mesh is not None:
        return [(mesh[0],)] * atoms.shape[1]
    counts = _digit_counts(atoms)
    return None if counts is None else [counts]


def _coded_masses(ctx: KernelContext, radii) -> np.ndarray | None:
    """The (atoms x radii) table V[i, j] = sum_k w_k K_{r_j}(x_i, x_k) of
    field_tables contracted with the weights, computed without a pair
    table; None where that does not apply.

    It applies when the weights are equal, the drift cancels and the atoms
    are a coded set (_digit_code) of L levels.  The kernel of a pair then
    depends only on its digit offset o = j_k - j_i, and keeps its value
    when the offsets of the levels along one axis all change sign.  So g(o)
    is read from the rows of field_tables at the corner atoms, whose digits
    are 0 or m_l - 1 with the first level of each axis at 0: the row of a
    corner holds g on the offsets of one sign pattern, and sign changes per
    axis give the others.  That is 2^(L - n) rows, one for a mesh.  g is
    held as H[h, o] over the sign h_l and the magnitude 0 <= o_l < m_l of
    every level, offset 0 in both halves.  After cumulative sums along each
    magnitude in turn, atom i's sum over its offsets -i_l <= o_l <= m_l - 1
    - i_l folds one level at a time: S(+, m_l - 1 - i_l) + S(-, i_l) - S(+,
    0).  A level alone on its axis, as on a mesh, has equal halves and H
    keeps one: its fold is S(i) + S(m - 1 - i) - S(0).

    Its work per radius, the corner rows' probabilities plus the entries
    of H (the atom count on a mesh, 2^L times it for L levels on the
    line), must be below the k(k + 1) / 2 pairs the tile walk evaluates,
    else None: base-2 Cantor sets, where 2^L is the atom count, keep the
    tiles.

    In graph mode a pair's domain distance is the rounded difference of
    its coordinates, not a corner row's: a level's pitch times its digit is
    rounded once and each partial sum once, so on an axis of c levels the
    two stay within 4 (c + 1) ulps of the largest coordinate, and a set
    with a corner row's distance that close to a radius returns None."""
    mu = ctx.measure
    w = mu.weights
    code = _digit_code(mu.atoms) if ctx._drift_cancels() and np.all(w == w[0]) else None
    if code is None:
        return None
    counts = tuple(m for axis in code for m in axis)
    levels, k = len(counts), mu.count
    # the signs a corner takes per level: + for the first of each axis; the
    # signs H holds: one for a level alone on its axis, its halves equal
    signs = [(0, 1) if lev else (0,) for axis in code for lev in range(len(axis))]
    sides = [2 if len(axis) > 1 else 1 for axis in code for _ in axis]
    if not 2 * (math.prod(map(len, signs)) + math.prod(sides)) * k < k * (k + 1):
        return None
    corners = list(itertools.product(*signs))
    atoms = mu.atoms
    digits = np.multiply(corners, np.subtract(counts, 1))
    rows = atoms[np.ravel_multi_index(tuple(digits.T), counts)]
    if ctx.mode == "graph":
        tol = 4 * (max(map(len, code)) + 1) * np.finfo(float).eps * np.abs(atoms).max()
        dist = np.abs(rows[:, None, :] - atoms).reshape(-1, 1)
        if np.any(np.abs(dist - radii) <= tol):
            return None
    every, back = slice(None), slice(None, None, -1)
    # a corner's row read as offsets from it: reversed where its sign is -
    reads = [tuple(back if h else every for h in corner) for corner in corners]
    # per axis of several levels, the sign changes that give its first
    # level's - half
    turns, first = [], 0
    for axis in code:
        if len(axis) > 1:
            turns.append(((every,) * first + (1,), (every,) * first + (back,) * len(axis)))
        first += len(axis)
    # per level: its + and - halves, and its magnitudes reversed and at 0
    folds = [
        (
            (every,) * lev + (slice(0, 1),),
            (every,) * lev + (slice(-1, None),),
            (every,) * (levels + lev) + (back,),
            (every,) * (levels + lev) + (slice(0, 1),),
        )
        for lev in range(levels)
    ]
    H = np.empty((*sides, *counts))
    V = np.empty((k, len(radii)))
    # every corner row holds its own atom, inside its window at every radius
    for j, table in enumerate(field_tables(ctx, rows, atoms, radii)):
        for corner, read, row in zip(corners, reads, table):
            H[corner] = row.reshape(counts)[read]
        for turn, signs_changed in turns:
            H[turn] = H[signs_changed][turn]
        s = H
        for lev in range(levels):
            s = s.cumsum(levels + lev)
        for pos_at, neg_at, reverse, zero in folds:
            pos = s[pos_at]
            s = pos[reverse] + s[neg_at] - pos[zero]
        V[:, j] = w[0] * s.ravel()
    return V


def ball_mass_profile(ctx: KernelContext, t, radii) -> np.ndarray:
    """Expected measure of balls around Z(t) (image mode) or around the
    graph point (t, Z(t)) (graph mode), for every radius in ``radii``: one
    row of field_tables contracted with the measure's weights."""
    rs = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(rs <= 0) or not np.all(np.isfinite(rs)):
        raise InvalidArgumentError("radii must be positive and finite")
    tv = _check_point(t, ctx.field.domain_dim)
    mu = ctx.measure
    masses = np.zeros(len(rs))
    for j, table in enumerate(field_tables(ctx, tv[None, :], mu.atoms, rs)):
        masses[j] = _row_mass(table, mu.weights)
    return masses


def expected_ball_mass(ctx: KernelContext, t, r: float) -> float:
    """Expected mass the pushforward of the measure under Z gives to the
    radius-r ball around Z(t) (or around the graph point in graph mode)."""
    return float(ball_mass_profile(ctx, t, [r])[0])
