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
wraps.  profile_tables refills one table per call, so its
yielded tables are overwritten when the generator advances.  The
per-point functions, increment_prob among them, are one-row calls of
these.

One shortcut skips the pair tables.  When the measure is exactly a
fields._mesh_points mesh (an interval or cube set) with equal weights and
the drift cancels, the field kernel of a pair depends only on its lattice
offset, and _mesh_masses gives the weighted sums of the field tables from
one probability per offset and radius and prefix sums over the offsets:
O(atoms) per radius instead of O(atoms^2).  Graph-mode meshes with a
coordinate within a few ulps of a radius, any other atoms, unequal weights
and drifts that do not cancel take the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .fields import DriftSpec, FieldSpec, _mesh_axes
from .measures import (
    DiscreteMeasure,
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


def ball_tables(rows: np.ndarray, atoms: np.ndarray, radii):
    """Yield, per radius r, the (rows x atoms) indicator of the closed
    Euclidean ball: |x_i - y_k| <= r."""
    dist = _pair_distances(rows, atoms)
    for r in radii:
        yield dist <= r


def profile_tables(rows: np.ndarray, atoms: np.ndarray, beta: float, radii):
    """Yield, per radius r, the (rows x atoms) truncated power kernel
    min(1, r^beta |x_i - y_k|^-beta) with Euclidean distances; an atom at
    x_i itself contributes 1.  One table per call is refilled for each
    radius, so a yielded table is overwritten when the generator advances;
    use it before asking for the next.  A zero distance gives 0^-beta = inf,
    and fmin(inf * r^beta, 1) = 1, also where r^beta underflows to 0 and
    the product is nan."""
    inv = _pair_distances(rows, atoms)
    with np.errstate(divide="ignore"):
        inv **= -beta
    vals = np.empty(inv.shape)
    for r in radii:
        with np.errstate(invalid="ignore"):
            np.multiply(inv, r**beta, out=vals)
        np.fmin(vals, 1.0, out=vals)
        yield vals


def slice_tables(rows: np.ndarray, atoms: np.ndarray, n: int, radii):
    """Yield, per radius r, the (rows x atoms) sliced product kernel: the
    indicator that the first n coordinates lie within max-norm distance r
    of x_i's, times prod_j min(1, r / |x_ij - y_kj|) over the rest."""
    diff = np.abs(rows[:, None, :] - atoms[None, :, :])
    head = diff[:, :, :n].max(axis=2, initial=0.0)
    tail = diff[:, :, n:]
    for r in radii:
        yield np.prod(_capped_inverse(tail / r), axis=2) * (head <= r)


def _check_split(n: int, d: int, dim: int) -> None:
    if n < 0 or d < 1 or n + d != dim:
        raise InvalidArgumentError("need n >= 0, d >= 1 with n + d matching the measure")


def profile_kernel(mu: DiscreteMeasure, beta: float, x, r: float) -> float:
    """Integral of min(1, r^beta |y - x|^-beta) dmu(y), the truncated power
    kernel behind dimension profiles.  Euclidean distances; an atom at x
    itself contributes its full weight."""
    if not (beta > 0):
        raise InvalidArgumentError("beta must be positive")
    if not (r > 0):
        raise InvalidArgumentError("r must be positive")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (mu.dim,):
        raise InvalidArgumentError("point dimension does not match the measure")
    (table,) = profile_tables(xv[None, :], mu.atoms, beta, [r])
    return float(table[0] @ mu.weights)


def slice_kernel(mu: DiscreteMeasure, n: int, d: int, x, r: float) -> float:
    """Slice the measure to the max-norm box around the first n coordinates
    of x, then integrate the product kernel of the remaining d coordinates:
    sum of w(y) prod_i min(1, r / |y_i - v_i|) over surviving atoms."""
    _check_split(n, d, mu.dim)
    if not (r > 0):
        raise InvalidArgumentError("r must be positive")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (n + d,):
        raise InvalidArgumentError("point dimension does not match the measure")
    (table,) = slice_tables(xv[None, :], mu.atoms, n, [r])
    return float(table[0] @ mu.weights)


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


def _point(t, n: int) -> np.ndarray:
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    if tv.shape != (n,):
        raise InvalidArgumentError("point dimension does not match the domain")
    return tv


def increment_prob(ctx: KernelContext, t, s, r: float) -> float:
    """P(max_i |Z_i(t) - Z_i(s)| <= r) for the drifted field Z = X + f:
    the product over coordinates of Gaussian interval probabilities with
    scale |t-s|^alpha and center f_i(t) - f_i(s).  It is the (t, s) entry
    of the image-mode field_tables on the pair, whatever ctx.mode says, so
    a constant drift cancels bit for bit."""
    n = ctx.field.domain_dim
    image = KernelContext(ctx.field, ctx.drift, ctx.measure)
    (table,) = field_tables(image, _point(t, n)[None, :], _point(s, n)[None, :], [r])
    return float(table[0, 0])


def field_tables(ctx: KernelContext, rows: np.ndarray, atoms: np.ndarray, radii):
    """Yield, per radius r, the (rows x atoms) table of the probability
    that Z(y_k) lies in the max-norm radius-r ball around Z(x_i) (image
    mode), or that (y_k, Z(y_k)) lies in the ball around (x_i, Z(x_i))
    (graph mode): the product of coordinate interval probabilities, times
    the domain-ball indicator in graph mode.  The drift is evaluated on
    ``rows`` and ``atoms``; ``ctx.measure`` is not read.

    In graph mode only atoms within domain distance r of x_i can enter the
    ball: the probabilities are evaluated on those pairs only and written
    into a fresh zero table, every other entry being the exact zero the
    indicator gives it.  When no pair lies within max(radii), every table
    would be zero and none is yielded.

    When ``atoms`` is ``rows`` itself, a diagonal tile, the table is
    symmetric bit for bit: only the pairs i <= k are evaluated, and each is
    written to (i, k) and (k, i).  The drift increments f_c(x_i) - f_c(y_k)
    are held as one (rows x atoms) array per coordinate c, so that a lane
    of pairs is gathered from each with one flat index.
    """
    d = ctx.field.range_dim
    graph = ctx.mode == "graph"
    if graph:
        reach = np.max(radii, initial=0.0)
        for c in range(rows.shape[1]):
            # coordinate ranges further apart than every radius: each pair's
            # rounded difference in c is at least the rounded gap
            x, y = rows[:, c], atoms[:, c]
            if max(y.min(initial=np.inf) - x.max(initial=-np.inf),
                   x.min(initial=np.inf) - y.max(initial=-np.inf)) > reach:
                return
        # the max-norm domain distance, one coordinate at a time
        dom = np.abs(rows[:, None, 0] - atoms[None, :, 0])
        for c in range(1, rows.shape[1]):
            np.maximum(dom, np.abs(rows[:, None, c] - atoms[None, :, c]), out=dom)
        if not np.any(dom <= reach):
            return
        dom = dom.reshape(-1)
    rho = _pair_distances(rows, atoms)
    rho **= ctx.field.alpha
    shape = rho.shape
    rho = rho.reshape(-1)
    # the drift increments f_c(x_i) - f_c(y_k), one flat array per coordinate
    centers = []
    if not ctx._drift_cancels():
        f_rows = ctx.drift.evaluate(rows)
        f_atoms = f_rows if atoms is rows else ctx.drift.evaluate(atoms)
        centers = [(f_rows[:, c, None] - f_atoms[None, :, c]).reshape(-1) for c in range(d)]
    # a diagonal tile evaluates the pairs i <= k, found at the flat
    # positions ``pairs`` and written to ``mirror`` too
    pairs = mirror = None
    if atoms is rows:
        pairs, mirror = _upper_pairs(len(rows))
        rho, centers = rho[pairs], [c[pairs] for c in centers]
        if graph:
            dom = dom[pairs]
    for r in radii:
        # the evaluated pairs inside this radius's domain ball; None for all
        inside = None
        if graph:
            inside = np.flatnonzero(dom <= r)
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


def _mesh_masses(ctx: KernelContext, radii) -> np.ndarray | None:
    """The (atoms x radii) table V[i, j] = sum_k w_k K_{r_j}(x_i, x_k) of
    field_tables contracted with the weights, computed without a pair
    table; None where that does not apply.

    It applies when the measure is exactly a fields._mesh_points mesh with
    equal weights and the drift cancels.  Then the kernel of a pair depends
    only on its lattice offset o, and only through |o|: g(o) is evaluated
    once per offset and radius, on the distance from the first atom (all
    zeros) to the atom at o, times |o|_inf <= r in graph mode.  The atoms
    within the mesh from atom i have offsets -i <= o <= m-1-i per axis, so
    per axis the sum is S(i) + S(m-1-i) - S(0) with S the prefix sum of g
    from offset 0, and the n axes fold one after the other on the n-D
    cumulative sum.  O(atoms x radii) work and memory.

    In graph mode a pair's domain distance is the rounded difference of
    its coordinates, not the offset's coordinate itself, so a mesh
    coordinate within a few ulps of t_max of a radius could put the pair
    on the other side of the window edge: such meshes return None."""
    mu = ctx.measure
    mesh = _mesh_axes(mu.atoms)
    w = mu.weights
    if mesh is None or not ctx._drift_cancels() or np.any(w != w[0]):
        return None
    m, t_max = mesh
    atoms = mu.atoms
    graph = ctx.mode == "graph"
    if graph:
        # atoms[:m, -1] holds the mesh coordinates along one axis
        if np.any(np.abs(atoms[:m, -1, None] - radii) <= 8 * np.finfo(float).eps * abs(t_max)):
            return None
        dom = np.abs(atoms).max(axis=1)
    rho = _pair_distances(atoms[:1], atoms)[0] ** ctx.field.alpha
    shape = (m,) * ctx.field.domain_dim
    V = np.empty((len(atoms), len(radii)))
    for j, r in enumerate(radii):
        g = gaussian_interval_prob(rho, 0.0, r) ** ctx.field.range_dim
        if graph:
            g[dom > r] = 0.0
        s = g.reshape(shape)
        for axis in range(s.ndim):
            s = s.cumsum(axis)
        for axis in range(s.ndim):
            s = s + np.flip(s, axis) - s.take([0], axis=axis)
        V[:, j] = w[0] * s.ravel()
    return V


def ball_mass_profile(ctx: KernelContext, t, radii) -> np.ndarray:
    """Expected measure of balls around Z(t) (image mode) or around the
    graph point (t, Z(t)) (graph mode), for every radius in ``radii``: one
    row of field_tables contracted with the measure's weights."""
    rs = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(rs <= 0) or not np.all(np.isfinite(rs)):
        raise InvalidArgumentError("radii must be positive and finite")
    tv = _point(t, ctx.field.domain_dim)
    mu = ctx.measure
    masses = np.zeros(len(rs))
    for j, table in enumerate(field_tables(ctx, tv[None, :], mu.atoms, rs)):
        masses[j] = table[0] @ mu.weights
    return masses


def expected_ball_mass(ctx: KernelContext, t, r: float) -> float:
    """Expected mass the pushforward of the measure under Z gives to the
    radius-r ball around Z(t) (or around the graph point in graph mode)."""
    return float(ball_mass_profile(ctx, t, [r])[0])
