"""Finitely supported measures on R^m and the mass queries used everywhere
downstream: balls, axis rectangles and coordinate slices.

A DiscreteMeasure is a probability measure (weights sum to 1).  Slicing
produces a SubMeasure, which keeps the un-normalized total mass explicit
instead of silently renormalizing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .numerics import _rows_are_distinct

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


def _validate_support(atoms: np.ndarray, weights: np.ndarray, *, require_prob: bool):
    if atoms.ndim != 2:
        raise InvalidArgumentError("atoms must be a (k, m) array")
    k, m = atoms.shape
    if k == 0 or m == 0:
        raise InvalidArgumentError("measure needs at least one atom and one coordinate")
    if k > _MAX_ATOMS:
        raise InvalidArgumentError(f"atom count {k} exceeds the supported {_MAX_ATOMS}")
    if weights.shape != (k,):
        raise InvalidArgumentError("weights must be a (k,) array matching atoms")
    if not np.all(np.isfinite(atoms)):
        raise InvalidArgumentError("atom coordinates must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise InvalidArgumentError("weights must be finite and strictly positive")
    if not _rows_are_distinct(atoms):
        raise InvalidArgumentError("atoms must be pairwise distinct")
    if require_prob and abs(float(weights.sum()) - 1.0) > _MASS_TOL:
        raise InvalidArgumentError(
            f"weights must sum to 1 within {_MASS_TOL}, got {float(weights.sum())!r}"
        )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms in R^m."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        _validate_support(atoms, weights, require_prob=True)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def count(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class SubMeasure:
    """Sub-probability measure: same layout, total mass in (0, 1] not
    enforced to equal 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.shape[0] > 0:
            _validate_support(atoms, weights, require_prob=False)
        elif weights.shape != (0,):
            raise InvalidArgumentError("empty support needs empty weights")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def count(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum()) if self.count else 0.0


def _merge_equal(atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge exactly equal rows of ``atoms``, summing their weights one by
    one in atom order (np.bincount).  Merged rows keep the order of their
    first occurrence, so the result is deterministic."""
    _, first, inverse = np.unique(atoms, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    return atoms[first[order]], np.bincount(label[inverse], weights=weights)


def _check_point(mu, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != mu.dim:
        raise InvalidArgumentError(
            f"point dimension {x.size} does not match measure dimension {mu.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("query point must be finite")
    return x


def ball_mass(mu, x, r: float) -> float:
    """Mass of the closed Euclidean ball B(x, r)."""
    x = _check_point(mu, x)
    if not (r >= 0):
        raise InvalidArgumentError("radius must be nonnegative")
    diff = mu.atoms - x
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return float(mu.weights[dist <= r].sum())


def rect_mass(mu, x, halfwidths) -> float:
    """Mass of the closed axis rectangle prod_i [x_i - h_i, x_i + h_i]."""
    x = _check_point(mu, x)
    h = np.asarray(halfwidths, dtype=float).reshape(-1)
    if h.size == 1 and mu.dim > 1:
        h = np.full(mu.dim, float(h[0]))
    if h.size != mu.dim:
        raise InvalidArgumentError("halfwidths must match the measure dimension")
    if np.any(h < 0):
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
