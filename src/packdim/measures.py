"""Finitely supported measures on R^m and the mass queries used everywhere
downstream: balls, axis rectangles and coordinate slices.

A SubMeasure holds the atoms and weights; a DiscreteMeasure is the
SubMeasure whose weights sum to 1, a probability measure.  Slicing
produces a SubMeasure, which keeps the un-normalized total mass explicit
instead of silently renormalizing.

This module is also where outside input becomes points and measures, each
coercion written once.  _as_points turns a point cloud into a finite
(k, n) float array: the atoms of every measure, the points of a sample
path and of a drift evaluation, and the points box counting reads.
_check_point turns one query point into a flat array of finite
coordinates of the size its space has: the centre of a ball or rectangle
here, and the points of every per-point kernel, of canonical_metric and of
fbm_covariance.  _uniform puts equal weights on a point cloud.  A query
ball's distances come from numerics._pair_distances, so that ball_mass
and the kernel tables read the same rounded |x - y|.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .numerics import _pair_distances, _rows_are_distinct

__all__ = [
    "DiscreteMeasure",
    "SubMeasure",
    "ball_mass",
    "rect_mass",
    "slice_measure",
    "write_measure_csv",
    "read_measure_csv",
]

_MASS_TOL = 1e-12
_MAX_ATOMS = 10**6


def _as_points(points) -> np.ndarray:
    """The points as a float (k, n) array; they must be nonempty, finite and
    have n >= 1 coordinates.  A 1-D array holds k points on the line."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1, 1)
    elif p.ndim == 1:
        p = p[:, None]
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise InvalidArgumentError("points must form a nonempty (k, n) array, n >= 1")
    if not np.all(np.isfinite(p)):
        raise InvalidArgumentError("points must be finite")
    return np.ascontiguousarray(p)


def _check_point(x, dim: int) -> np.ndarray:
    """The query point x as a flat float array of ``dim`` finite
    coordinates; a scalar is a point on the line."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != dim:
        raise InvalidArgumentError(f"point dimension {x.size} does not match dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("query point must be finite")
    return x


def _support(atoms, weights, *, require_prob: bool) -> tuple[np.ndarray, np.ndarray]:
    """The atoms as an _as_points cloud and the weights as a float (k,)
    array, refused unless the atoms are at most _MAX_ATOMS and pairwise
    distinct and the weights finite and strictly positive, summing to 1
    when ``require_prob`` is set."""
    atoms = _as_points(atoms)
    weights = np.ascontiguousarray(np.asarray(weights, dtype=float))
    k = len(atoms)
    if k > _MAX_ATOMS:
        raise InvalidArgumentError(f"atom count {k} exceeds the supported {_MAX_ATOMS}")
    if weights.shape != (k,):
        raise InvalidArgumentError("weights must be a (k,) array matching atoms")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise InvalidArgumentError("weights must be finite and strictly positive")
    if not _rows_are_distinct(atoms):
        raise InvalidArgumentError("atoms must be pairwise distinct")
    if require_prob and abs(float(weights.sum()) - 1.0) > _MASS_TOL:
        raise InvalidArgumentError(
            f"weights must sum to 1 within {_MASS_TOL}, got {float(weights.sum())!r}"
        )
    return atoms, weights


@dataclass(frozen=True)
class SubMeasure:
    """Sub-probability measure with finitely many atoms in R^m: weights
    strictly positive, their total not required to be 1.  The support may
    be empty, as a slice's is."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 2 and not len(atoms):
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (0,):
                raise InvalidArgumentError("empty support needs empty weights")
        else:
            atoms, weights = _support(atoms, self.weights, require_prob=False)
        self._hold(atoms, weights)

    def _hold(self, atoms: np.ndarray, weights: np.ndarray) -> None:
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def count(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class DiscreteMeasure(SubMeasure):
    """Probability measure: a sub-probability measure whose weights sum to
    1, so its support is not empty."""

    def __post_init__(self):
        self._hold(*_support(self.atoms, self.weights, require_prob=True))


def _merge_equal(atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge exactly equal rows of ``atoms``, summing their weights one by
    one in atom order (np.bincount).  Merged rows keep the order of their
    first occurrence, so the result is deterministic."""
    _, first, inverse = np.unique(atoms, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    return atoms[first[order]], np.bincount(label[inverse], weights=weights)


def _uniform(points) -> DiscreteMeasure:
    """Equal weight 1 / k on each of the k points of an _as_points cloud."""
    k = len(points)
    return DiscreteMeasure(points, np.full(k, 1.0 / k))


def ball_mass(mu, x, r: float) -> float:
    """Mass of the closed Euclidean ball B(x, r), its distances those of
    numerics._pair_distances."""
    x = _check_point(x, mu.dim)
    if not (r >= 0):
        raise InvalidArgumentError("radius must be nonnegative")
    dist = _pair_distances(x[None, :], mu.atoms)[0]
    return float(mu.weights[dist <= r].sum())


def rect_mass(mu, x, halfwidths) -> float:
    """Mass of the closed axis rectangle prod_i [x_i - h_i, x_i + h_i]."""
    x = _check_point(x, mu.dim)
    h = np.asarray(halfwidths, dtype=float).reshape(-1)
    if h.size == 1 and mu.dim > 1:
        h = np.full(mu.dim, float(h[0]))
    if h.size != mu.dim:
        raise InvalidArgumentError("halfwidths must match the measure dimension")
    if not np.all(h >= 0):
        raise InvalidArgumentError("halfwidths must be nonnegative")
    inside = np.all(np.abs(mu.atoms - x) <= h, axis=1)
    return float(mu.weights[inside].sum())


def slice_measure(mu: DiscreteMeasure, u, r: float) -> SubMeasure:
    """Restrict to atoms whose first n = len(u) coordinates lie in the
    max-norm box D(u, r), then project onto the remaining coordinates.

    Weights are kept as-is: the result is a sub-probability measure whose
    total mass reports how much survived the slice.  An empty ``u`` returns
    the whole measure (the empty condition holds vacuously).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    n = u.size
    if n >= mu.dim:
        raise InvalidArgumentError("need len(u) < mu.dim")
    if not (r >= 0):
        raise InvalidArgumentError("slice radius must be nonnegative")

    if n == 0:
        return SubMeasure(mu.atoms.copy(), mu.weights.copy())

    head = mu.atoms[:, :n]
    keep = np.all(np.abs(head - u) <= r, axis=1)
    # Distinct full atoms can project onto equal tails; merge them.
    return SubMeasure(*_merge_equal(mu.atoms[keep, n:], mu.weights[keep]))


def write_measure_csv(mu, path) -> None:
    """CSV with header x1,...,xm,weight and one row per atom; csv writes
    each float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(mu.dim)] + ["weight"])
        writer.writerows(np.column_stack([mu.atoms, mu.weights]).tolist())


def read_measure_csv(path) -> DiscreteMeasure:
    """The measure a write_measure_csv file holds.  A malformed header, row
    width or cell raises InvalidArgumentError; a cell names its row, the
    header being row 1, and its column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "weight" or len(header) < 2:
            raise InvalidArgumentError("expected header x1,...,xm,weight")
        m = len(header) - 1
        if header[:m] != [f"x{i + 1}" for i in range(m)]:
            raise InvalidArgumentError("expected header x1,...,xm,weight")
        atoms = []
        weights = []
        for row in reader:
            if not row:
                continue
            if len(row) != m + 1:
                raise InvalidArgumentError(f"row width {len(row)} does not match header")
            try:
                values = [float(v) for v in row]
            except ValueError:
                column, text = next(
                    (name, v) for name, v in zip(header, row) if not _is_number(v)
                )
                raise InvalidArgumentError(
                    f"row {reader.line_num}, column {column}: {text!r} is not a number"
                ) from None
            atoms.append(values[:m])
            weights.append(values[m])
    return DiscreteMeasure(np.asarray(atoms), np.asarray(weights))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
