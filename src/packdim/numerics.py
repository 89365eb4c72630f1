"""Scalar and matrix primitives: Gaussian interval probabilities, a jittered
Cholesky factorization, and reproducible seed streams.

Everything downstream funnels its floating-point risk through this module, so
the contracts here are deliberately strict.  gaussian_interval_prob writes
each entry with two erf terms, or, a scale or more out in the tail, two
erfc terms, so that no tail cancels: an entry of 1e-19 keeps its relative
accuracy.  Its centred path, a = 0, the case of every kernel table whose
drift cancels, takes one erf per entry and returns the general formula's
values bit for bit.  The general path, every drifted kernel table,
computes the form most entries take in place over all of them, and
gathers the others; it writes the point mass at rho = 0 only into the
lanes that need it.  _pair_distances, a running sum of squared
coordinate differences, is the one rows-against-atoms Euclidean distance:
every kernel table, in image and in graph mode, the lattice shortcut
kernels._mesh_masses and the Cholesky sampler call it.  _distinct_rows,
the distinct rows of an array, serves box counting and the spacing guard,
and through _rows_are_distinct the distinct-point checks of sample points
and measure atoms.
cholesky_psd checks its input in row blocks and factors one copy of it in
place: LAPACK copies nothing, the factor is transposed into C order over
the copy, and a factorization without jitter builds no other square array.
The Cholesky sampler builds its covariance in row blocks of one array
and has the same routine, _cholesky_in_place, factor that array in place.

scipy (``special.erf`` and ``erfc``, ``linalg.lapack.dpotrf``) is imported
inside the functions that call it, not at module level: importing packdim stays
scipy-free, and a program that never evaluates a Gaussian probability or
factors a matrix, such as box counting a sampled path, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotPositiveSemidefiniteError

__all__ = ["gaussian_interval_prob", "cholesky_psd", "Seed"]

# Jitter schedule for nearly-semidefinite matrices: start at
# 1e-12 * trace/dim, escalate by 10x, give up after 4 retries.
_JITTER_REL = 1e-12
_JITTER_GROWTH = 10.0
_JITTER_RETRIES = 4

# Row block of cholesky_psd's input checks, mirror and transposition.
_BLOCK_ROWS = 64

# _distinct_rows packs an integer row into one int64 key while the product
# of its column spans stays below this.
_PACK_LIMIT = 2**62

_SQRT2 = math.sqrt(2.0)


def gaussian_interval_prob(rho, a, r):
    """P(rho * N lies in the closed ball B(a, r)) for N standard normal.

    rho >= 0 and r >= 0 are required.  The degenerate case rho == 0 is the
    point mass at 0: the probability is 1 exactly when |a| <= r, else 0.
    Symmetric in a -> -a by construction (only |a| enters).

    With s = rho sqrt 2, an entry takes one of two forms of the same value:

        |a| - r <  s:  (erf((r + |a|) / s) + erf((r - |a|) / s)) / 2
        |a| - r >= s:  (erfc((|a| - r) / s) - erfc((|a| + r) / s)) / 2

    Neither cancels in a tail.  The erfc form takes the entries whose ball
    lies a scale s or more from the centre, where both erf terms would be
    near 1.  Below that the erf terms add where |a| <= r, and where they
    subtract, erf((|a| - r) / s) < erf(1) ~ 0.84: the difference loses at
    most 1 / erfc(1) ~ 6.4 times more than the erfc one would.  The erf
    form is the cheaper there, as erf of an argument below 1 is a
    polynomial and erfc is 1 - erf.  Each form is nondecreasing in r.

    The form most entries take is computed in place over all of them; the
    entries of the other form are gathered by their flat indices first and
    computed apart.  The lanes where rho > 0 fails (0, -0 and NaN) divide
    by rho too, and are then overwritten with the point mass; a call whose
    rho are all positive skips that pass.

    a the scalar 0 takes a short path with one special function per entry:
    erf(r / s).  It equals the general formula bit for bit, as 0 + r and
    r - 0 are exact, and the sum of two equal terms halved is the term.

    Broadcasts over array inputs; scalar inputs return a float.
    """
    rho = np.asarray(rho, dtype=float)
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    # NaN when rho holds one; its lanes get the point mass
    rho_min = rho.min(initial=math.inf)
    if rho_min < 0:
        raise InvalidArgumentError("rho must be nonnegative")
    if r.min(initial=math.inf) < 0:
        raise InvalidArgumentError("r must be nonnegative")

    shape = np.broadcast(rho, a, r).shape
    scale = np.multiply(rho, _SQRT2)
    a = np.abs(a)
    # the lanes where rho > 0 fails divide by 0, -0 or NaN here; the point
    # mass overwrites them below
    with np.errstate(divide="ignore", invalid="ignore"):
        high = np.add(r, a, out=np.empty(shape))
        high /= scale
        if a.ndim == 0 and a == 0:
            from scipy.special import erf

            out = erf(high, out=high)
        else:
            low = np.subtract(r, a, out=np.empty(shape))
            low /= scale
            # the erf form where (r - |a|) / s > -1; a NaN, which fails both
            # reductions, takes the erfc form
            if low.min(initial=math.inf) > -1.0:
                count = low.size
            elif low.max(initial=-math.inf) <= -1.0:
                count = 0
            else:
                by_erf = np.greater(low, -1.0)
                count = np.count_nonzero(by_erf)
            erf_first = 2 * count >= low.size
            if not erf_first:
                # the erfc form reads (|a| - r) / s, the exact negation
                np.negative(low, out=low)
            # the other form's entries are gathered, not masked: scipy
            # 1.17's special ufuncs mishandle where= (wrong values, or a
            # crash)
            other = None
            if 0 < count < low.size:
                other = np.not_equal(by_erf, erf_first).reshape(-1).nonzero()[0]
                other_high, other_low = high.reshape(-1)[other], low.reshape(-1)[other]
                np.negative(other_low, out=other_low)
                # 0, where erf and erfc are cheapest, until they are overwritten
                high.reshape(-1)[other] = low.reshape(-1)[other] = 0.0
            first, second = (_erf_form, _erfc_form) if erf_first else (_erfc_form, _erf_form)
            out = first(high, low)
            if other is not None:
                out.reshape(-1)[other] = second(other_high, other_low)
    if not rho_min > 0:
        np.copyto(out, np.less_equal(a, r), where=np.logical_not(rho > 0))
    if out.ndim == 0:
        return float(out)
    return out


def _erf_form(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """(erf(high) + erf(low)) / 2, for high = (r + |a|) / s and low =
    (r - |a|) / s, written over both; the result is ``high``."""
    from scipy.special import erf

    erf(high, out=high)
    high += erf(low, out=low)
    high *= 0.5
    return high


def _erfc_form(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """(erfc(low) - erfc(high)) / 2, for high = (|a| + r) / s and low =
    (|a| - r) / s, written over both; the result is ``low``."""
    from scipy.special import erfc

    erfc(low, out=low)
    low -= erfc(high, out=high)
    low *= 0.5
    return low


def _pair_distances(rows: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """The (rows x atoms) Euclidean distances |x_i - y_k| between the rows
    of two (., m) arrays.

    The squared coordinate differences are added in coordinate order into
    one array, and its square root is taken in place: no (rows, atoms, m)
    difference is built.  Below 8 coordinates this is np.linalg.norm of the
    difference bit for bit.  From 8 coordinates on, np.linalg.norm sums its
    squares pairwise, and the last bits can differ."""
    dist = rows[:, None, 0] - atoms[None, :, 0]
    dist *= dist
    for j in range(1, rows.shape[1]):
        step = rows[:, None, j] - atoms[None, :, j]
        step *= step
        dist += step
    return np.sqrt(dist, out=dist)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a (k, m) array of integers or finite floats, in
    lexicographic order.  Rows are compared by value, so -0.0 equals 0.0.

    Integer rows whose column spans, max - min + 1, multiply to less than
    _PACK_LIMIT = 2^62 are packed into one int64 key each: the columns, less
    their minima, as the digits of a mixed-radix number whose radices are
    the spans, the first column most significant.  The keys order as the
    rows do, so one np.sort of them, repeats dropped, unpacks to the answer.
    Float rows, other integer types and wider spans take a lexsort of the
    columns."""
    if rows.dtype == np.int64 and len(rows):
        # column by column: a reduction along axis 0 of a narrow array is slow
        low = [int(c.min()) for c in rows.T]
        spans = [int(c.max()) - lo + 1 for c, lo in zip(rows.T, low)]
        if math.prod(spans) < _PACK_LIMIT:
            key = rows[:, 0] - low[0]
            for j in range(1, len(spans)):
                key *= spans[j]
                key += rows[:, j] - low[j]
            key.sort()
            fresh = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
            out = np.empty((len(key), len(spans)), dtype=np.int64)
            for j in reversed(range(1, len(spans))):
                key, out[:, j] = np.divmod(key, spans[j])
                out[:, j] += low[j]
            out[:, 0] = key + low[0]
            return out
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[fresh]


def _rows_are_distinct(rows: np.ndarray) -> bool:
    """Whether the rows of a finite (k, m) float array are pairwise
    distinct, compared by value, so -0.0 equals 0.0: one sort of a single
    column, else _distinct_rows."""
    if rows.shape[1] == 1:
        line = np.sort(rows[:, 0])
        return not np.any(line[1:] == line[:-1])
    return len(_distinct_rows(rows)) == len(rows)


def cholesky_psd(matrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T reproducing ``matrix``.

    The input must be finite and symmetric.  If plain factorization fails, a
    diagonal jitter of 1e-12 * trace/dim is added and escalated by 10x for
    at most 4 retries; if the matrix still resists,
    NotPositiveSemidefiniteError is raised carrying the failing pivot index.

    The lower triangle of ``matrix`` is what is factored, as LAPACK's dpotrf
    reads it.  It is copied once, mirrored onto the copy's upper triangle,
    and _cholesky_in_place factors that copy: ``matrix`` is never modified.
    """
    m = np.asarray(matrix, dtype=float)
    _check_matrix(m)
    work = np.array(m, order="C")
    _mirror_lower(work, -0.0)
    return _cholesky_in_place(work)


def _check_matrix(m: np.ndarray) -> None:
    """Refuse a float array that is not square, finite and symmetric to
    1e-10 of its largest magnitude."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    dim = m.shape[0]
    # The largest magnitude, then the largest |m - m.T|, in row blocks so
    # that no dim x dim temporary is built.  A NaN or inf shows in its
    # block's extremes; |m - m.T| is symmetric, so the blocks of its upper
    # triangle hold its maximum.
    scale = 0.0
    for lo in range(0, dim, _BLOCK_ROWS):
        block = m[lo:lo + _BLOCK_ROWS]
        low, high = block.min(), block.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InvalidArgumentError("matrix must be finite")
        scale = max(scale, high, -low)
    asym = 0.0
    for lo in range(0, dim, _BLOCK_ROWS):
        gap = m[lo:lo + _BLOCK_ROWS, lo:] - m[lo:, lo:lo + _BLOCK_ROWS].T
        asym = max(asym, gap.max(), -gap.min())
    if asym > 1e-10 * (1.0 + scale):
        raise InvalidArgumentError("matrix must be symmetric")


def _cholesky_in_place(work: np.ndarray) -> np.ndarray:
    """cholesky_psd's factor of ``work``, written over ``work`` itself.

    ``work`` is a C-ordered, finite and exactly symmetric square float
    array, so its transpose is a Fortran-ordered view with the same values.
    dpotrf factors that view in place (overwrite_a, clean=0): LAPACK copies
    nothing, writes the factor over the upper triangle of ``work`` and leaves
    its strict lower triangle as it was.  A failed attempt is retried on
    work + jitter * I, rebuilt from that lower triangle and the saved
    diagonal.  The factor is then transposed into the lower triangle in row
    blocks and the upper triangle zeroed: it comes back in C order, as
    np.tril of LAPACK's factor, because a matrix product rounds differently
    with the other memory order and samples would move in the last bits.
    """
    dim = work.shape[0]
    if dim == 0:
        return work
    base = _JITTER_REL * (np.trace(work) / dim)
    if base <= 0:
        base = _JITTER_REL
    diag = work.diagonal().copy()

    from scipy.linalg.lapack import dpotrf

    jitter = 0.0
    last_pivot = 0
    for attempt in range(_JITTER_RETRIES + 1):
        if jitter:
            # the bits of m + jitter * I: 0.0 is added off the diagonal too
            _mirror_lower(work, 0.0)
            work.flat[:: dim + 1] = diag + jitter
        _, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            _transpose_upper(work)
            return work
        last_pivot = int(info) - 1  # LAPACK reports 1-based pivots
        jitter = base * (_JITTER_GROWTH ** attempt)
    raise NotPositiveSemidefiniteError(last_pivot)


def _mirror_lower(work: np.ndarray, zero: float) -> None:
    """Write the strict lower triangle of the square C-ordered ``work``,
    plus ``zero``, over its strict upper triangle, in row blocks.  Adding
    -0.0 keeps every bit; adding 0.0 turns -0.0 into +0.0, as the
    off-diagonal entries of m + jitter * I do."""
    dim = work.shape[0]
    for lo in range(0, dim, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, dim)
        np.add(work[hi:, lo:hi].T, zero, out=work[lo:hi, hi:])
        block = work[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper] + zero


def _transpose_upper(work: np.ndarray) -> None:
    """Overwrite the square C-ordered ``work`` with the transpose of its
    upper triangle, zero above the diagonal, in row blocks."""
    dim = work.shape[0]
    for lo in range(0, dim, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, dim)
        work[hi:, lo:hi] = work[lo:hi, hi:].T
        work[lo:hi, hi:] = 0.0
        block = work[lo:hi, lo:hi]
        block[...] = np.tril(block.T)


_MASTER_BOUND = 1 << 64


@dataclass(frozen=True, slots=True)
class Seed:
    """Reproducible randomness root.

    ``master`` is a 64-bit unsigned integer.  Stream ``i`` (the i-th replica)
    draws from a Philox4x64 counter-based generator keyed by

        key = master + i * 2**64

    with the counter starting at zero.  The rule is part of the public
    contract: the same (master, i) yields a bit-identical stream on any
    platform, and distinct (master, i) pairs never collide because master
    and i occupy disjoint 64-bit halves of the 128-bit key.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.master < _MASTER_BOUND):
            raise InvalidArgumentError("master seed must be a 64-bit unsigned integer")
        if not (0 <= self.stream < _MASTER_BOUND):
            raise InvalidArgumentError("stream index must be a 64-bit unsigned integer")

    def replica(self, i: int) -> "Seed":
        """The seed for replica ``i`` (stream derivation rule above)."""
        return Seed(self.master, i)

    def generator(self) -> np.random.Generator:
        key = self.master + (self.stream << 64)
        return np.random.Generator(np.random.Philox(key=key))
