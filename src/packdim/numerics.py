"""Scalar and matrix primitives: Gaussian interval probabilities, a jittered
Cholesky factorization, and reproducible seed streams.

Everything downstream funnels its floating-point risk through this module, so
the contracts here are deliberately strict.  gaussian_interval_prob writes
each entry with two erf terms, or, a scale or more out in the tail, two
erfc terms, so that no tail cancels: an entry of 1e-19 keeps its relative
accuracy.  Its centred path, a = 0, the case of every kernel table whose
drift cancels, takes one erf per entry and returns the general formula's
values bit for bit.  The general path, every drifted kernel table,
computes the erf form in place over every entry and the erfc form over
the tail entries it gathers; it writes the point mass at rho = 0 only
into the lanes that need it.  _pair_distances, a running sum of squared
coordinate differences, is the one rows-against-atoms Euclidean distance:
every kernel table, in image and in graph mode, measures.ball_mass and the
Cholesky sampler call it; _line_distances is its twin for paired entries on
the line.  _run_masses is the one table of closed-run masses on the line:
rounding is monotone, so the atoms within a distance of a centre are a
run of the sorted keys, found by a bisection that the comparison itself
then settles, and weighed by a difference of prefix sums.  It gives
estimators its 1-D ball masses, where _exact_sums finds every sum of the
weights exact, and verify's check_doubling its boxes on the line, in
Python ints.  _distinct_rows, the distinct rows of an array, serves box
counting and the spacing guard, and through _rows_are_distinct the
distinct-point checks of sample points and measure atoms.  It packs an
integer row into one int64 key by its columns' bit widths, with shifts
and ors, sorts the keys once and unpacks them by shift and mask.
_finest_third is the one tail window of tail-max fits and Minkowski bounds.
_cholesky_in_place allocates the one array a Cholesky factor is written
in, has its caller fill the triangle LAPACK reads in row blocks (again for
each jitter retry), factors it in place and transposes the factor into C
order over it: cholesky_psd copies its checked input's lower triangle, and
the sampler computes only its covariance's rows from the diagonal on.

scipy (``special.erf`` and ``erfc``, ``linalg.lapack.dpotrf``) is imported
inside the functions that call it, not at module level: importing packdim stays
scipy-free, and a program that never evaluates a Gaussian probability or
factors a matrix, such as box counting a sampled path, never loads it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotPositiveSemidefiniteError

__all__ = ["gaussian_interval_prob", "cholesky_psd", "Seed"]

# Jitter schedule for nearly-semidefinite matrices: start at
# 1e-12 * trace/dim, escalate by 10x, give up after 4 retries.
_JITTER_REL = 1e-12
_JITTER_GROWTH = 10.0
_JITTER_RETRIES = 4

# Row block of cholesky_psd's input checks and of _cholesky_in_place's
# fill and transposition.
_BLOCK_ROWS = 64

# _distinct_rows packs an integer row into one int64 key while the bit
# widths of its columns keep the key below this.
_PACK_LIMIT = 2**62

_SQRT2 = math.sqrt(2.0)


def gaussian_interval_prob(rho, a, r):
    """P(rho * N lies in the closed ball B(a, r)) for N standard normal.

    rho >= 0 and r >= 0 are required; a NaN r is refused.  The degenerate
    case rho == 0 is the point mass at 0: the probability is 1 exactly when
    |a| <= r, else 0.
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

    The erf form is computed in place over every entry.  The entries of
    the erfc form, where (r - |a|) / s > -1 fails, NaN included, are
    gathered by their flat indices first, zeroed for the erf pass and
    overwritten by the erfc form computed apart; a call mostly in the tail
    thus pays an erf pass over entries it discards.  The lanes where
    rho > 0 fails (0, -0 and NaN) divide by rho too, and are then
    overwritten with the point mass; a call whose rho are all positive
    skips that pass.

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
    # NaN fails this too
    if not r.min(initial=math.inf) >= 0:
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
            # the erfc form's lanes, where (r - |a|) / s > -1 fails, NaN
            # included, are gathered, not masked: scipy 1.17's special
            # ufuncs mishandle where= (wrong values, or a crash)
            tail = None
            if not low.min(initial=math.inf) > -1.0:
                tail = np.flatnonzero(~(low > -1.0))
                tail_high, tail_low = high.reshape(-1)[tail], low.reshape(-1)[tail]
                # the erfc form reads (|a| - r) / s, the exact negation
                np.negative(tail_low, out=tail_low)
                # 0, where erf is cheapest, until they are overwritten
                high.reshape(-1)[tail] = low.reshape(-1)[tail] = 0.0
            from scipy.special import erf, erfc

            out = erf(high, out=high)
            out += erf(low, out=low)
            out *= 0.5
            if tail is not None:
                erfc(tail_low, out=tail_low)
                tail_low -= erfc(tail_high, out=tail_high)
                tail_low *= 0.5
                out.reshape(-1)[tail] = tail_low
    if not rho_min > 0:
        np.copyto(out, np.less_equal(a, r), where=np.logical_not(rho > 0))
    if out.ndim == 0:
        return float(out)
    return out


def _finest_third(count: int) -> range:
    """Indices of the finest ceil(third) of ``count`` scales, coarse to fine."""
    return range(count - math.ceil(count / 3), count)


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


def _line_distances(centres: np.ndarray, others: np.ndarray) -> np.ndarray:
    """_pair_distances' distance between paired entries on the line: the
    square root of the rounded square of centres - others, entry by entry,
    so it has the bits of the (rows x atoms) table at those pairs."""
    dist = centres - others
    dist *= dist
    return np.sqrt(dist, out=dist)


def _gaps(centres: np.ndarray, others: np.ndarray) -> np.ndarray:
    """|centres - others| entry by entry: exact on Python ints."""
    return np.abs(centres - others)


def _exact_sums(weights: np.ndarray) -> bool:
    """Whether every sum of the positive floats ``weights``, of any of
    them in any order, is exact.  Each weight is an integer multiple of the
    unit 2^E, the largest power of two dividing them all (from the lowest
    set bit of each 53-bit significand, subnormals included).  If the
    total is below 2^53 units, every partial sum is an integer below 2^53
    times 2^E, which is a float, so no addition rounds.  The units are
    summed in floats: a sum that stays below 2^53 is exact, and one that
    reaches it cannot round back below, so the test is exact too."""
    fraction, exponent = np.frexp(weights)
    significand = np.ldexp(fraction, 53).astype(np.int64)
    lowest = np.frexp((significand & -significand).astype(float))[1] - 1
    unit = int((exponent - 53 + lowest).min(initial=0))
    with np.errstate(over="ignore"):
        units = np.ldexp(weights, -unit)
    return bool(units.sum() < 2.0**53)


def _run_masses(keys: np.ndarray, weights: np.ndarray, halves, distance=_gaps) -> np.ndarray:
    """The (atoms x halves) table whose entry (i, b) is the total weight of
    the atoms k with distance(keys[i], keys[k]) <= halves[b], for atoms on
    the line: the 1-D counterpart of verify._box_masses, in O(k log k) per
    half-width, in the arrays' own dtype (floats or Python ints).

    ``distance`` must be nondecreasing in |keys[i] - keys[k]| as rounded;
    _gaps is exact on ints, and _line_distances, the ball's, rounds as
    _pair_distances does.  Rounding is monotone, so the atoms inside are
    one run of the sorted keys around keys[i], and the entry is a
    difference of two prefix sums of the sorted weights.  Each end of a run
    is found by a bisection for keys[i] -/+ halves[b], then moved one atom
    at a time until the comparison itself puts it between an atom inside
    and one outside: the membership is distance's, whatever the rounding
    of the bisected bound.  The prefix sums and their differences are
    exact on ints, and on floats whose sums are (_exact_sums); other float
    weights would round otherwise than a table's contraction does."""
    k = len(keys)
    order = np.argsort(keys, kind="stable")
    line = keys[order]
    prefix = np.zeros(k + 1, dtype=weights.dtype)
    np.cumsum(weights[order], out=prefix[1:])
    halves = np.asarray(halves, dtype=keys.dtype)
    table = np.empty((k, len(halves)), dtype=weights.dtype)
    # one half-width at a time, so the temporaries are O(k); the run is
    # [first, end): the keys below its centre and outside, then those
    # inside, then the keys above and outside
    for b, h in enumerate(halves):
        end = _settle(
            np.searchsorted(line, keys + h, side="right"),
            lambda i, j: (line[j] <= keys[i]) | (distance(keys[i], line[j]) <= h),
        )
        first = _settle(
            np.searchsorted(line, keys - h, side="left"),
            lambda i, j: (line[j] < keys[i]) & (distance(keys[i], line[j]) > h),
        )
        table[:, b] = prefix[end] - prefix[first]
    return table


def _settle(edge: np.ndarray, before) -> np.ndarray:
    """Move every guess edge[i] in 0..k, k = len(edge), to the first index
    j at which before(i, j) fails, k if it holds throughout, one step at a
    time; before must hold on a prefix of 0..k-1 for each i."""
    k = len(edge)
    lanes = np.arange(k)
    while len(lanes):
        j = edge[lanes]
        up = j < k
        up[up] = before(lanes[up], j[up])
        down = ~up & (j > 0)
        down[down] = ~before(lanes[down], j[down] - 1)
        edge[lanes[up]] += 1
        edge[lanes[down]] -= 1
        lanes = lanes[up | down]
    return edge


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a (k, m) array of integers or finite floats, in
    lexicographic order.  Rows are compared by value, so -0.0 equals 0.0.

    Integer rows whose columns, less their minima, fit in bit widths that
    total at most 62 are packed into one int64 key each, below _PACK_LIMIT
    = 2^62: each column shifted left past the widths of the columns after
    it and or-ed in, the first column most significant.  The keys order as
    the rows do, so one np.sort of them, repeats dropped, unpacks by shift
    and mask to the answer, a column-major array.  Float rows, other
    integer types and wider columns take a lexsort of the columns."""
    if rows.dtype == np.int64 and len(rows):
        # column by column: a reduction along axis 0 of a narrow array is slow
        low = [int(c.min()) for c in rows.T]
        widths = [(int(c.max()) - lo).bit_length() for c, lo in zip(rows.T, low)]
        if 1 << sum(widths) <= _PACK_LIMIT:
            key = rows[:, 0] - low[0]
            for j in range(1, len(widths)):
                key <<= widths[j]
                key |= rows[:, j] - low[j]
            key.sort()
            fresh = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            # np.compress picks entries several times faster than a boolean
            # index does
            key = np.compress(fresh, key)
            # unpacked column by column into the rows of the transpose, so
            # every pass is contiguous and nothing is copied
            out = np.empty((len(widths), len(key)), dtype=np.int64)
            for j, column in enumerate(out):
                np.right_shift(key, sum(widths[j + 1:]), out=column)
                if j:
                    column &= (1 << widths[j]) - 1
                column += low[j]
            return out.T
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
    reads it, on every attempt.  _cholesky_in_place copies it, row block by
    row block, into the one array it factors: ``matrix`` is never modified,
    and no full copy of it is made first.  Off the diagonal the factored
    entries keep the input's bits, so an input -0.0 stays -0.0.
    """
    m = np.asarray(matrix, dtype=float)
    _check_matrix(m)
    return _cholesky_in_place(len(m), lambda lo, hi, out: np.copyto(out, m[lo:, lo:hi].T))


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


def _cholesky_in_place(dim: int, fill) -> np.ndarray:
    """cholesky_psd's factor of a symmetric dim x dim matrix, in the one
    C-ordered array ``work`` this allocates.

    For each row block [lo, hi) of _BLOCK_ROWS rows, ``fill(lo, hi, out)``
    writes the matrix's rows lo..hi-1 from column lo on into ``out`` =
    work[lo:hi, lo:], and a block holding an inf or NaN is refused.  Their
    upper triangle is the lower triangle of the Fortran-ordered transpose
    that dpotrf factors in place (overwrite_a, clean=0): LAPACK copies
    nothing, reads that triangle alone and writes the factor over it, and
    nothing reads the entries below the blocks.  A failed attempt fills
    the array again and adds the jitter to its diagonal alone, so the
    off-diagonal entries keep the bits ``fill`` writes.  The factor is then
    transposed into the lower triangle in row blocks and the upper triangle
    zeroed: it comes back in C order, as np.tril of LAPACK's factor,
    because a matrix product rounds differently with the other memory
    order and samples would move in the last bits.
    """
    work = np.empty((dim, dim))
    if dim == 0:
        return work

    from scipy.linalg.lapack import dpotrf

    jitter = 0.0
    last_pivot = 0
    for attempt in range(_JITTER_RETRIES + 1):
        for lo in range(0, dim, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, dim)
            out = work[lo:hi, lo:]
            fill(lo, hi, out)
            if not np.isfinite(out).all():
                raise InvalidArgumentError("matrix must be finite")
        if jitter:
            work.flat[:: dim + 1] += jitter
        else:
            # the jitter's scale, from the trace before the first attempt
            base = _JITTER_REL * (np.trace(work) / dim)
            if base <= 0:
                base = _JITTER_REL
        _, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            _transpose_upper(work)
            return work
        last_pivot = int(info) - 1  # LAPACK reports 1-based pivots
        jitter = base * (_JITTER_GROWTH ** attempt)
    raise NotPositiveSemidefiniteError(last_pivot)


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
    and i occupy disjoint 64-bit halves of the 128-bit key.  Both are held
    as Python ints: a float or a bool is refused, not truncated, and a
    numpy integer cannot wrap in the shift by 64.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        for attr, what in (("master", "master seed"), ("stream", "stream index")):
            value = getattr(self, attr)
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise InvalidArgumentError(f"{what} must be an integer, got {value!r}") from None
            if not (0 <= value < _MASTER_BOUND):
                raise InvalidArgumentError(f"{what} must be a 64-bit unsigned integer")
            object.__setattr__(self, attr, value)

    def replica(self, i: int) -> "Seed":
        """The seed for replica ``i`` (stream derivation rule above)."""
        return Seed(self.master, i)

    def generator(self) -> np.random.Generator:
        key = self.master + (self.stream << 64)
        return np.random.Generator(np.random.Philox(key=key))
