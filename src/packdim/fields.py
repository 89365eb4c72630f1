"""Fractional Brownian fields with deterministic drift.

A field is a vector of independent centered Gaussian coordinates on R^n,
each with covariance 0.5 (|t|^{2a} + |s|^{2a} - |t-s|^{2a}) in the Euclidean
norm, so every increment X_i(t) - X_i(s) is |t-s|^a times a standard normal
and the canonical metric is |t-s|^a.  Exact simulation is by Cholesky
factorization of the covariance on the given point set, with a circulant
embedding FFT path for uniform 1-D grids anchored at zero (same law, much
larger point budgets).

Drift enters twice.  Sample paths carry it additively.  Model-level kernel
computations only ever see drift increments f(t) - f(s); zero and constant
drifts cancel there, and the kernels (KernelContext._drift_cancels) skip
them, so those kernels are bitwise identical to their drift-free versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .measures import DiscreteMeasure
from .numerics import Seed, _pair_distances, cholesky_psd

__all__ = [
    "FieldSpec",
    "DriftSpec",
    "SamplePath",
    "fbm_covariance",
    "canonical_metric",
    "sample",
    "sample_many",
    "graph_points",
    "image_measure",
    "graph_measure",
]

_MAX_POINTS = 2**20
# Bytes the Cholesky sampler may hold at its peak.  On k points that peak is
# about 3.1 k x k float64 arrays: the covariance, LAPACK's copy and the
# factor (peak RSS at k = 4095, n = 1 and 2; tracemalloc gives 3.0 at 2047
# Cantor points).  It is counted as 6, i.e. 48 k^2 bytes.  Half of an 8 GB
# machine, 4 GiB admits up to 9459 points; the 2^14 points that exhaust
# such a machine are refused.
_CHOLESKY_BUDGET = 2**32


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise InvalidArgumentError("roughness index must lie in (0, 1)")


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


def fbm_covariance(t, s, alpha: float) -> float:
    """Cov(X_i(t), X_i(s)) for one coordinate; t and s are domain points
    (scalars on a 1-D domain)."""
    _check_alpha(alpha)
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    sv = np.atleast_1d(np.asarray(s, dtype=float))
    h2 = 2.0 * alpha
    nt = np.linalg.norm(tv) ** h2
    ns = np.linalg.norm(sv) ** h2
    nd = np.linalg.norm(tv - sv) ** h2
    return float(0.5 * (nt + ns - nd))


@dataclass(frozen=True)
class FieldSpec:
    """``range_dim`` independent fractional Brownian coordinates of common
    roughness ``alpha`` on a ``domain_dim``-dimensional domain."""

    alpha: float
    domain_dim: int = 1
    range_dim: int = 1

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name in ("domain_dim", "range_dim"):
            v = getattr(self, name)
            if not (1 <= int(v) == v):
                raise InvalidArgumentError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))


def canonical_metric(spec: FieldSpec, t, s) -> float:
    """Standard deviation of any coordinate increment X_i(t) - X_i(s):
    the Euclidean distance |t - s| raised to the roughness index."""
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    sv = np.atleast_1d(np.asarray(s, dtype=float))
    return float(np.linalg.norm(tv - sv) ** spec.alpha)


@dataclass(frozen=True)
class DriftSpec:
    """Deterministic drift f: R^n -> R^d from a closed catalog.

    kinds: "zero"; "constant" (fixed vector); "power" (|t|^exponent times a
    direction vector); "polynomial" (per-coordinate polynomial in t, 1-D
    domains only).  The catalog is closed so a recorded kind plus parameters
    reproduces the drift exactly.
    """

    kind: str
    coefficients: tuple[tuple[float, ...], ...]
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "power", "polynomial"):
            raise InvalidArgumentError(f"unknown drift kind {self.kind!r}")
        coef = tuple(tuple(float(c) for c in row) for row in self.coefficients)
        if not coef:
            raise InvalidArgumentError("drift needs at least one coordinate row")
        if any(not math.isfinite(c) for row in coef for c in row):
            raise InvalidArgumentError("drift coefficients must be finite")
        e = float(self.exponent)
        if not (math.isfinite(e) and e >= 0.0):
            raise InvalidArgumentError("drift exponent must be finite and nonnegative")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "exponent", e)

    @classmethod
    def zero(cls, range_dim: int) -> "DriftSpec":
        return cls("zero", tuple((0.0,) for _ in range(range_dim)))

    @classmethod
    def constant(cls, values) -> "DriftSpec":
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        return cls("constant", tuple((float(v),) for v in vals))

    @classmethod
    def power(cls, direction, exponent: float) -> "DriftSpec":
        vals = np.atleast_1d(np.asarray(direction, dtype=float))
        return cls("power", tuple((float(v),) for v in vals), exponent)

    @classmethod
    def polynomial(cls, coefficient_rows) -> "DriftSpec":
        rows = np.atleast_2d(np.asarray(coefficient_rows, dtype=float))
        return cls("polynomial", tuple(tuple(map(float, r)) for r in rows))

    @property
    def range_dim(self) -> int:
        return len(self.coefficients)

    def evaluate(self, points) -> np.ndarray:
        """Drift values at the points, shape (k, range_dim)."""
        p = _as_points(points)
        k = p.shape[0]
        coef = np.asarray(self.coefficients)
        if self.kind == "zero":
            return np.zeros((k, self.range_dim))
        if self.kind == "constant":
            return np.broadcast_to(coef[:, 0], (k, self.range_dim)).copy()
        if self.kind == "power":
            radial = np.linalg.norm(p, axis=1) ** self.exponent
            return radial[:, None] * coef[:, 0][None, :]
        if p.shape[1] != 1:
            raise InvalidArgumentError("polynomial drift is defined on 1-D domains")
        t = p[:, 0]
        powers = t[:, None] ** np.arange(coef.shape[1])
        return powers @ coef.T

    def increment(self, t, s) -> np.ndarray:
        """f(t) - f(s) per coordinate; exact zeros for zero and constant
        drifts."""
        vals = self.evaluate(np.vstack([_as_points(t), _as_points(s)]))
        return vals[0] - vals[1]


@dataclass(frozen=True)
class SamplePath:
    """One realization on a finite point set; ``values[i]`` is the field at
    ``points[i]`` with any drift already added."""

    points: np.ndarray
    values: np.ndarray
    field: FieldSpec
    drift: DriftSpec | None = None
    seed: Seed | None = None

    def __post_init__(self):
        p = _as_points(self.points)
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if p.shape[1] != self.field.domain_dim:
            raise InvalidArgumentError("points do not match the field's domain dimension")
        if v.shape != (p.shape[0], self.field.range_dim):
            raise InvalidArgumentError("values must have shape (len(points), range_dim)")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "values", v)


def _mesh_per_axis(count: int, n: int) -> int:
    """Points per axis of _mesh_points(count, n, t_max)."""
    return count if n == 1 else max(2, round(count ** (1.0 / n)))


def _mesh_points(count: int, n: int, t_max: float) -> np.ndarray:
    """The regular grid on [0, t_max]^n: ``count`` points on the line, else
    max(2, round(count^(1/n))) points per axis, rows in ij order."""
    if count < 1 or n < 1:
        raise InvalidArgumentError("a mesh needs at least one point and one domain axis")
    per_axis = _mesh_per_axis(count, n)
    mesh = np.meshgrid(*[np.linspace(0.0, t_max, per_axis)] * n, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _mesh_axes(points: np.ndarray) -> tuple[int, float] | None:
    """(points per axis, t_max) when the (k, n) array ``points`` is exactly
    _mesh_points(k, n, t_max), compared bit for bit; None otherwise."""
    k, n = points.shape
    per_axis = round(k ** (1.0 / n))
    if per_axis**n != k:
        return None
    t_max = float(points[-1, 0])
    if not np.array_equal(points, _mesh_points(k, n, t_max)):
        return None
    return per_axis, t_max


def _check_sample_points(points, spec: FieldSpec) -> np.ndarray:
    p = _as_points(points)
    if p.shape[1] != spec.domain_dim:
        raise InvalidArgumentError("points do not match the field's domain dimension")
    if p.shape[0] > _MAX_POINTS:
        raise InvalidArgumentError(f"at most {_MAX_POINTS} points are supported")
    if len(np.unique(p, axis=0)) != p.shape[0]:
        raise InvalidArgumentError("points must be pairwise distinct")
    return p


def _is_uniform_grid_from_zero(p: np.ndarray) -> bool:
    if p.shape[1] != 1 or p.shape[0] < 2:
        return False
    t = p[:, 0]
    if t[0] != 0.0 or t[1] <= 0.0:
        return False
    h = t[1]
    return bool(np.all(np.abs(t - h * np.arange(len(t))) <= 1e-12 * abs(t[-1])))


def _fgn_eigenvalues(m: int, alpha: float) -> np.ndarray:
    # Circulant embedding of the unit-spacing increment covariance; the
    # embedding is nonnegative definite for every alpha in (0,1), so only
    # rounding-level negatives get clipped.
    k = np.arange(m + 1, dtype=float)
    h2 = 2.0 * alpha
    gamma = 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)
    row = np.concatenate([gamma, gamma[m - 1:0:-1]]) if m > 1 else gamma
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise InvalidArgumentError("circulant embedding failed; use the cholesky method")
    return np.clip(lam, 0.0, None)


def _sample_fft(gen, lam, m: int, dim: int, h: float, alpha: float) -> np.ndarray:
    M = 2 * m
    vals = np.empty((m + 1, dim))
    scale = h**alpha
    for i in range(dim):
        g = gen.standard_normal(2 * m)
        z = np.empty(M, dtype=complex)
        z[0] = g[0] * math.sqrt(lam[0])
        z[m] = g[1] * math.sqrt(lam[m])
        if m > 1:
            a, b = g[2 : m + 1], g[m + 1 :]
            z[1:m] = (a + 1j * b) * np.sqrt(lam[1:m] / 2.0)
            z[m + 1 :] = np.conj(z[1:m][::-1])
        fgn = (np.fft.fft(z) / math.sqrt(M)).real[:m]
        vals[0, i] = 0.0
        vals[1:, i] = np.cumsum(fgn) * scale
    return vals


def _check_cholesky_budget(count: int) -> None:
    """Refuse a Cholesky sample on ``count`` points whose peak, counted as
    48 count^2 bytes, is over _CHOLESKY_BUDGET.  Allocates nothing."""
    need = 48 * count**2
    if need > _CHOLESKY_BUDGET:
        raise InvalidArgumentError(
            f"cholesky on {count} points needs about {need} bytes, over the "
            f"budget of {_CHOLESKY_BUDGET} bytes; use fft on a grid"
        )


class _Sampler:
    """Prepared sampler for one (field, points) pair; the factorization or
    eigenvalue work is done once and reused across replicas."""

    def __init__(self, field: FieldSpec, points: np.ndarray, method: str):
        self.field = field
        self.points = points
        if method == "auto":
            method = (
                "fft"
                if len(points) >= 256 and _is_uniform_grid_from_zero(points)
                else "cholesky"
            )
        if method == "fft":
            if not _is_uniform_grid_from_zero(points):
                raise InvalidArgumentError(
                    "the fft method needs a uniform 1-D grid starting at 0"
                )
            self.m = len(points) - 1
            self.h = float(points[1, 0])
            self.lam = _fgn_eigenvalues(self.m, field.alpha)
        elif method == "cholesky":
            norms = np.linalg.norm(points, axis=1)
            self.nz = norms > 0.0
            sub = points[self.nz]
            _check_cholesky_budget(len(sub))
            h2 = 2.0 * field.alpha
            sn = np.linalg.norm(sub, axis=1) ** h2
            dist = _pair_distances(sub, sub)
            dist **= h2
            # cov = 0.5 (|s_i|^h2 + |s_k|^h2 - |s_i - s_k|^h2), in place over dist
            cov = np.subtract(np.add(sn[:, None], sn[None, :]), dist, out=dist)
            cov *= 0.5
            self.factor = cholesky_psd(cov)
        else:
            raise InvalidArgumentError(f"unknown method {method!r}")
        self.method = method

    def draw(self, seed: Seed) -> np.ndarray:
        gen = seed.generator()
        if self.method == "fft":
            return _sample_fft(gen, self.lam, self.m, self.field.range_dim, self.h, self.field.alpha)
        z = gen.standard_normal((int(self.nz.sum()), self.field.range_dim))
        vals = np.zeros((len(self.points), self.field.range_dim))
        vals[self.nz] = self.factor @ z
        return vals


def _finish(sampler: _Sampler, vals: np.ndarray, drift, seed) -> SamplePath:
    if drift is not None:
        if drift.range_dim != sampler.field.range_dim:
            raise InvalidArgumentError("drift and field range dimensions differ")
        if drift.kind != "zero":
            vals = vals + drift.evaluate(sampler.points)
    return SamplePath(sampler.points, vals, sampler.field, drift, seed)


def sample(
    field: FieldSpec,
    points,
    seed: Seed,
    drift: DriftSpec | None = None,
    method: str = "auto",
) -> SamplePath:
    """One exact sample of the field on ``points``.

    ``method`` is "cholesky" (any distinct points), "fft" (uniform 1-D grid
    from 0, circulant embedding of the increments), or "auto".  The two
    methods agree in law but not bitwise.  Points at the origin get value 0
    exactly.  A zero drift leaves the values untouched, not merely adds 0.
    """
    p = _check_sample_points(points, field)
    sampler = _Sampler(field, p, method)
    return _finish(sampler, sampler.draw(seed), drift, seed)


def sample_many(
    field: FieldSpec,
    points,
    seed: Seed,
    replicas: int,
    drift: DriftSpec | None = None,
    method: str = "auto",
) -> list[SamplePath]:
    """Independent replicas on a shared point set.  Replica i draws from the
    substream ``seed.replica(i)``, so the collection is reproducible as a
    whole and each member individually."""
    if replicas < 1:
        raise InvalidArgumentError("need at least one replica")
    p = _check_sample_points(points, field)
    sampler = _Sampler(field, p, method)
    return [
        _finish(sampler, sampler.draw(s), drift, s)
        for s in (seed.replica(i) for i in range(replicas))
    ]


def graph_points(path: SamplePath) -> np.ndarray:
    """(k, n + d) array of (t, value) rows, the sampled graph of the path."""
    return np.hstack([path.points, path.values])


def image_measure(path: SamplePath) -> DiscreteMeasure:
    """Uniform weights on the sampled values (the sampling measure on the
    points pushed through the path)."""
    k = len(path.points)
    return DiscreteMeasure(path.values.copy(), np.full(k, 1.0 / k))


def graph_measure(path: SamplePath) -> DiscreteMeasure:
    k = len(path.points)
    return DiscreteMeasure(graph_points(path), np.full(k, 1.0 / k))
