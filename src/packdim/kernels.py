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
each unordered pair once (estimators._mass_table).
In graph mode field_tables evaluates only the domain window, the pairs with
|y_k - x_i| <= r, since a graph ball holds no other atom.  It finds the
window on a band: the atoms, sorted once per call along the first
coordinate, whose first coordinate lies within max(radii) of the rows'
span, so tiles of sorted atoms never touch the full (rows x atoms) grid,
and a tile with an empty window yields no table at all.  Graph mode
yields one table per call, cleared and rewritten per radius, and
profile_tables one table per call, refilled per radius: their yielded
tables are overwritten when the generator advances.  Tables over the full
(rows x atoms) grid take their distances from numerics._pair_distances;
graph mode takes them from the band's differences.  The per-point
functions are one-row calls of these.

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
    "product_kernel",
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
    use it before asking for the next."""
    inv = _pair_distances(rows, atoms)
    coincident = np.flatnonzero(inv == 0.0)
    np.put(inv, coincident, np.inf)
    inv **= -beta
    vals = np.empty(inv.shape)
    for r in radii:
        np.multiply(inv, r**beta, out=vals)
        np.minimum(vals, 1.0, out=vals)
        np.put(vals, coincident, 1.0)
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


def product_kernel(x) -> float:
    """prod_i min(1, 1/|x_i|), with the value 1 on coordinates that vanish.
    Equals 1 exactly when all |x_i| <= 1."""
    v = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("kernel argument must be finite")
    return float(np.prod(_capped_inverse(v)))


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
    scale |t-s|^alpha and center f_i(t) - f_i(s).  Constant drift cancels
    in the centers exactly, bit for bit."""
    if r < 0:
        raise InvalidArgumentError("r must be nonnegative")
    n = ctx.field.domain_dim
    tv, sv = _point(t, n), _point(s, n)
    rho = float(np.linalg.norm(tv - sv) ** ctx.field.alpha)
    d = ctx.field.range_dim
    if ctx._drift_cancels():
        return float(gaussian_interval_prob(rho, 0.0, r)) ** d
    centers = ctx.drift.increment(tv, sv)
    probs = gaussian_interval_prob(np.full(d, rho), centers, float(r))
    return float(np.prod(probs))


def _band(rows: np.ndarray, atoms: np.ndarray, top: float) -> np.ndarray:
    """The atom indices whose first coordinate lies within top of the rows'
    span in that coordinate, padded by a few ulps for the rounding of the
    differences.  A pair within max-norm domain distance top has
    |x_i0 - y_k0| <= top, so its atom is among them; atoms sorted along the
    first coordinate give a narrow band, unsorted ones the full width."""
    order = np.argsort(atoms[:, 0], kind="stable")
    keys = atoms[order, 0]
    lo, hi = rows[:, 0].min(), rows[:, 0].max()
    pad = top + 8 * np.finfo(float).eps * (top + max(abs(lo), abs(hi)))
    return order[np.searchsorted(keys, lo - pad):np.searchsorted(keys, hi + pad, side="right")]


def field_tables(ctx: KernelContext, rows: np.ndarray, atoms: np.ndarray, radii):
    """Yield, per radius r, the (rows x atoms) table of the probability
    that Z(y_k) lies in the max-norm radius-r ball around Z(x_i) (image
    mode), or that (y_k, Z(y_k)) lies in the ball around (x_i, Z(x_i))
    (graph mode): the product of coordinate interval probabilities, times
    the domain-ball indicator in graph mode.  The drift is evaluated on
    ``rows`` and ``atoms``; ``ctx.measure`` is not read.

    In graph mode only atoms within domain distance r of x_i can enter the
    ball.  The window of pairs within max(radii) is found on the band of
    atoms near the rows in the first coordinate (see _band), the
    probabilities are evaluated per radius on the window pairs within r,
    and they are scattered into one zero table per call: every other entry
    is the exact zero the indicator gives it.  That table is cleared and
    rewritten for the next radius, so a graph-mode table is overwritten
    when the generator advances; use it before asking for the next.  An
    empty window yields no table at all, since every table would be zero.
    """
    d = ctx.field.range_dim
    graph = ctx.mode == "graph"
    if graph:
        top = np.max(radii, initial=0.0)
        cols = _band(rows, atoms, top)
        # |x_ic - y_kc| on the band, coordinate-major so that each
        # coordinate's slice is contiguous; the domain distance is their
        # maximum, the canonical metric their Euclidean norm
        gap = np.abs(rows.T[:, :, None] - atoms[cols].T[:, None, :])
        dom = gap[0]
        for c in range(1, len(gap)):
            dom = np.maximum(dom, gap[c])
        window = np.flatnonzero(dom <= top)
        if not len(window):
            return
        dom = dom.ravel()[window]
        dist = np.linalg.norm(np.take(gap.reshape(len(gap), -1), window, axis=1), axis=0)
        # a generator keeps its locals across yields: drop the band-sized
        # temporaries before the table is allocated
        del gap
        at_row = window // len(cols)
        at_atom = cols[window - at_row * len(cols)]
        del window
        # the window's positions in the flat (rows x atoms) table
        flat = at_row * len(atoms) + at_atom
    else:
        dist = _pair_distances(rows, atoms)
        at_row, at_atom = np.s_[:, None], np.s_[None, :]
    # From here on the arrays run over the (rows x atoms) grid in image mode
    # and over the flat window in graph mode; centers adds a last axis of
    # value coordinates.
    rho = dist ** ctx.field.alpha
    del dist
    cancels = ctx._drift_cancels()
    if not cancels:
        centers = ctx.drift.evaluate(rows)[at_row] - ctx.drift.evaluate(atoms)[at_atom]
    del at_row, at_atom
    table = written = None
    for r in radii:
        # the window pairs inside this radius; in image mode, everything
        lane = dom <= r if graph else ...
        rho_r = rho[lane]
        if cancels:
            probs = gaussian_interval_prob(rho_r, 0.0, r) ** d
        else:
            centers_r = centers[lane]
            probs = gaussian_interval_prob(rho_r, centers_r[..., 0], r)
            for c in range(1, d):
                probs *= gaussian_interval_prob(rho_r, centers_r[..., c], r)
        if graph:
            if table is None:
                table = np.zeros((len(rows), len(atoms)))
            else:
                table.ravel()[written] = 0.0
            written = flat[lane]
            table.ravel()[written] = probs
            probs = table
        yield probs


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
