"""Nested interval constructions on the line and their exact covering
combinatorics.

Two representations are used.  NestedIntervalSystem stores explicit interval
endpoints and is limited to scales a double can hold.  SymbolicScaleSystem
stores only logarithms of the scale sequence (log 1/delta_k, log 1/eta_k,
log m_k), which is what the collapsing two-scale construction needs: its
interval lengths shrink doubly exponentially and underflow any direct float
representation after a handful of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DepthExhaustedError,
    GeometryError,
    InvalidArgumentError,
    ScaleUnrepresentableError,
)
from .measures import DiscreteMeasure, _uniform
from .numerics import _finest_third

__all__ = [
    "LevelSpec",
    "NestedIntervalSystem",
    "SymbolicScaleSystem",
    "build_uniform_cantor",
    "build_tx_system",
    "realize_explicit",
    "natural_measure",
    "covering_count",
    "MinkowskiBounds",
    "minkowski_bounds",
    "check_regularity_conditions",
    "ExtractedSubsystem",
    "extract_subsystem",
]

_MAX_INTERVALS = 10**6
_NORMAL_LOG_LIMIT = 700.0  # exp(-700) is still a normal double
_EXACT_INT_LIMIT = float(2**53)


# ---------------------------------------------------------------------------
# Explicit systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSpec:
    """One level of a nested system: interval left endpoints, the common
    interval length, the sibling gap, and the per-parent branch count.

    ``gap`` is the exact spacing between consecutive siblings when the level
    is uniform, and a lower bound on sibling spacing otherwise.  The root
    level has gap None and branching 1.
    """

    lefts: np.ndarray
    length: float
    gap: float | None
    branching: int

    def __post_init__(self):
        object.__setattr__(
            self, "lefts", np.ascontiguousarray(np.asarray(self.lefts, dtype=float))
        )


@dataclass(frozen=True)
class NestedIntervalSystem:
    """Levels of closed intervals, each level refining the previous one.

    ``uniform`` marks systems whose siblings are spaced exactly ``gap``
    apart (the direct constructions).  Pruned subsystems keep ``gap`` as a
    verified lower bound instead.
    """

    levels: tuple[LevelSpec, ...]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    uniform: bool = True

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        self._validate()

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def delta(self, k: int) -> float:
        return self.levels[k].length

    def gap(self, k: int) -> float:
        g = self.levels[k].gap
        if g is None:
            raise InvalidArgumentError("the root level has no sibling gap")
        return g

    def branching(self, k: int) -> int:
        return self.levels[k].branching

    def lefts(self, k: int) -> np.ndarray:
        return self.levels[k].lefts

    def count(self, k: int) -> int:
        return len(self.levels[k].lefts)

    def _validate(self):
        if not self.levels:
            raise GeometryError("a system needs at least the root level")
        root = self.levels[0]
        if len(root.lefts) != 1 or root.branching != 1:
            raise GeometryError("the root level must hold exactly one interval")
        if not (root.length > 0) or not math.isfinite(root.length):
            raise GeometryError("root length must be positive and finite")
        for k in range(1, len(self.levels)):
            lev = self.levels[k]
            parent = self.levels[k - 1]
            if not (0 < lev.length < parent.length):
                raise GeometryError(f"level {k} length must shrink strictly")
            if lev.gap is None or not (lev.gap > 0):
                raise GeometryError(f"level {k} needs a positive sibling gap")
            if lev.branching < 1:
                raise GeometryError(f"level {k} branching must be >= 1")
            if len(lev.lefts) != len(parent.lefts) * lev.branching:
                raise GeometryError(f"level {k} interval count mismatch")
            # 1e-9 of the parent length, plus a few ulps of the largest end
            # point: the gaps are differences of absolute left ends, which
            # carry their rounding however short the parent is
            ulps = 4.0 * float(np.spacing(np.abs(parent.lefts).max() + parent.length))
            tol = 1e-9 * parent.length + ulps
            # Children sit inside their parent, in left-to-right blocks.
            kids = lev.lefts.reshape(len(parent.lefts), lev.branching)
            if np.any(kids[:, 0] < parent.lefts - tol):
                raise GeometryError(f"level {k} child escapes its parent on the left")
            if np.any(kids[:, -1] + lev.length > parent.lefts + parent.length + tol):
                raise GeometryError(f"level {k} child escapes its parent on the right")
            spacing = np.diff(kids, axis=1) - lev.length
            if spacing.size:
                if not (lev.gap > ulps):
                    # siblings this close share their left ends in floats
                    raise GeometryError(
                        f"level {k} sibling gap {lev.gap:.3g} is below the rounding "
                        f"{ulps:.3g} of its end points"
                    )
                if self.uniform:
                    if np.any(np.abs(spacing - lev.gap) > tol):
                        raise GeometryError(f"level {k} sibling gaps are not uniform")
                elif np.any(spacing < lev.gap * (1.0 - 1e-9) - ulps):
                    raise GeometryError(f"level {k} sibling gap below the stored bound")

    def packing_slack_ok(self) -> bool:
        """Whether every level satisfies m_k (eta_k + delta_k) <= delta_{k-1},
        the room-to-spare packing used by the collapsing construction.
        Exact-fill self-similar systems do not satisfy it and return False.
        """
        for k in range(1, len(self.levels)):
            lev = self.levels[k]
            if lev.branching * (lev.gap + lev.length) > self.levels[k - 1].length * (1 + 1e-12):
                return False
        return True


def _children(lefts: np.ndarray, pitch: float, count: int) -> np.ndarray:
    """Left ends of ``count`` children ``pitch`` apart from each parent's left end."""
    return (lefts[:, None] + np.arange(count) * pitch).ravel()


def _digit_counts(points: np.ndarray) -> tuple[int, ...] | None:
    """The branch counts (m_1, ..., m_L), first level first, when the (k, 1)
    array ``points`` holds exactly the left ends that _children builds level
    by level from the root [0.0]: atom sum_l j_l pitch_l over the digits
    j_l < m_l, the first level's digit varying slowest.  Compared bit for
    bit with that rebuild; None otherwise.

    The levels are read off the points from the deepest up: its pitch is the
    second point, m_L the length of the run of points equal to j * pitch,
    and every m_L-th point, those whose deepest digit is 0, are the left
    ends of the level above.  One point at 0 is the root alone, ()."""
    if points.shape[1] != 1:
        return None
    levels = []
    lefts = points[:, 0]
    while len(lefts) > 1:
        pitch = lefts[1]
        off = np.flatnonzero(lefts != np.arange(len(lefts)) * pitch)
        m = int(off[0]) if len(off) else len(lefts)
        if m < 2 or len(lefts) % m:
            return None
        levels.insert(0, (m, pitch))
        lefts = lefts[::m]
    rebuilt = np.zeros(1)
    for m, pitch in levels:
        rebuilt = _children(rebuilt, pitch, m)
    if not np.array_equal(rebuilt, points[:, 0]):
        return None
    return tuple(m for m, _ in levels)


def _cantor_level(ratio: float, gap_factor: float, k: int) -> tuple[float, float]:
    """Interval length and sibling gap at level k of a uniform Cantor system."""
    return ratio**k, ratio ** (k - 1) * gap_factor


def build_uniform_cantor(branches: int, ratio: float, levels: int) -> NestedIntervalSystem:
    """Self-similar system in [0, 1]: each interval splits into ``branches``
    children of relative length ``ratio`` spread with equal gaps so the first
    child starts at the parent's left end and the last child ends at its
    right end.  (branches=2, ratio=1/3 is the middle-thirds set.)
    """
    if branches < 2:
        raise InvalidArgumentError("need at least two branches")
    if not (0 < ratio < 1.0 / branches):
        raise InvalidArgumentError("ratio must lie in (0, 1/branches)")
    if levels < 0:
        raise InvalidArgumentError("levels must be nonnegative")
    if branches**levels > _MAX_INTERVALS:
        raise InvalidArgumentError("level interval count exceeds the supported 1e6")

    gap_factor = (1.0 - branches * ratio) / (branches - 1)
    specs = [LevelSpec(np.array([0.0]), 1.0, None, 1)]
    lefts = np.array([0.0])
    for k in range(1, levels + 1):
        length, gap = _cantor_level(ratio, gap_factor, k)
        lefts = _children(lefts, length + gap, branches)
        specs.append(LevelSpec(lefts, length, gap, branches))
    sim_dim = math.log(branches) / math.log(1.0 / ratio)
    return NestedIntervalSystem(
        tuple(specs),
        kind="uniform_cantor",
        params={"branches": branches, "ratio": ratio, "similarity_dimension": sim_dim},
    )


def natural_measure(system: NestedIntervalSystem, level: int) -> DiscreteMeasure:
    """Equal weight on the left endpoint of every level-``level`` interval."""
    if not (0 <= level <= system.depth):
        raise InvalidArgumentError(f"level must be in [0, {system.depth}]")
    return _uniform(system.lefts(level)[:, None])


# ---------------------------------------------------------------------------
# Symbolic (log-domain) systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicScaleSystem:
    """Scale bookkeeping for the collapsing two-scale construction.

    Per level k >= 1 the arrays hold L_k = log(1/delta_k), H_k = log(1/eta_k)
    and logm_k = log m_k; L[0] is the root scale.  ``m_exact`` carries the
    branch count as an integer where it fits below 2**53, else None.
    """

    beta: float
    delta0: float
    L: tuple[float, ...]
    H: tuple[float, ...]
    logm: tuple[float, ...]
    m_exact: tuple[int | None, ...]

    @property
    def depth(self) -> int:
        return len(self.H)

    def check_invariants(self) -> None:
        """Assert the defining inequalities in log domain:
        0 < H_k < L_k, the two-scale link L_{k-1} = (1-beta) H_k - log 2,
        the mass cap sum_{j<=k} logm_j <= 2^{-(k+1)} L_k, and the packing
        room logm_k + log(eta_k + delta_k) <= log delta_{k-1}.  The link and
        the cap hold to relative 1e-9.  The room is checked on its margin,
        which by the link is (beta H_k - logm_k) + log 2 - log1p(delta_k /
        eta_k), to absolute 1e-9: the two sides of the room inequality are
        each about -L_{k-1}, whose ulp outgrows the margin of about log 2
        once L_{k-1} passes 1e16.
        """
        rtol = 1e-9
        run = 0.0
        for k in range(1, self.depth + 1):
            L_prev, L_k, H_k = self.L[k - 1], self.L[k], self.H[k - 1]
            if not (0.0 < H_k < L_k):
                raise GeometryError(f"level {k}: need 0 < H < L in log domain")
            link = (1.0 - self.beta) * H_k - math.log(2.0)
            if abs(link - L_prev) > rtol * max(1.0, abs(L_prev)):
                raise GeometryError(f"level {k}: two-scale link broken")
            run += self.logm[k - 1]
            if run > L_k / (2.0 ** (k + 1)) * (1.0 + rtol) + 1e-12:
                raise GeometryError(f"level {k}: mass cap exceeded")
            # -L_prev - logm_k - log(eta + delta), with log(eta + delta) =
            # -H + log1p(exp(H - L)) and -L_prev = -(1 - beta) H + log 2 from
            # the link; H < L so the exp is < 1
            room = (self.beta * H_k - self.logm[k - 1]) + math.log(2.0)
            if room - math.log1p(math.exp(H_k - L_k)) < -rtol:
                raise GeometryError(f"level {k}: packing room violated")


def _guarded_floor(x: float) -> int:
    # Floor with a 1e-12 relative guard so values meant to be exact integers
    # (accumulated through a few log/exp round trips) do not drop by one.
    return int(math.floor(x * (1.0 + 1e-12) + 1e-12))


def build_tx_system(beta: float, delta0: float = 0.25, levels: int = 12) -> SymbolicScaleSystem:
    """Two-scale collapsing system: gaps eta_k solve delta_{k-1} = 2 eta_k^(1-beta),
    branch counts m_k = floor(eta_k^-beta), and the next interval length obeys
    delta_k = min(eta_k / 2, (m_1 ... m_k)^(-2^(k+1))).

    Covering counts along the eta scales then grow with exponent close to
    ``beta`` while the delta scales collapse toward exponent 0.  All scales
    are kept in log domain; the recursion raises ScaleUnrepresentableError at
    the first level whose log(1/delta) no longer fits in a double.
    """
    if not (0.0 < beta < 1.0):
        raise InvalidArgumentError("beta must lie in (0, 1)")
    if not (0.0 < delta0 < 0.5):
        raise InvalidArgumentError("delta0 must lie in (0, 1/2)")
    if not (1 <= levels <= 60):
        raise InvalidArgumentError("levels must lie in [1, 60]")

    log2 = math.log(2.0)
    L = [math.log(1.0 / delta0)]
    H: list[float] = []
    logm: list[float] = []
    m_exact: list[int | None] = []
    logm_sum = 0.0
    for k in range(1, levels + 1):
        H_k = (L[k - 1] + log2) / (1.0 - beta)
        raw = beta * H_k
        if raw <= math.log(_EXACT_INT_LIMIT):
            m = _guarded_floor(math.exp(raw))
            if m < 1:
                m = 1
            logm_k = math.log(float(m))
            m_exact.append(m)
        else:
            logm_k = raw
            m_exact.append(None)
        logm_sum += logm_k
        L_k = max(H_k + log2, (2.0 ** (k + 1)) * logm_sum)
        if not math.isfinite(L_k):
            raise ScaleUnrepresentableError(k, L_k)
        H.append(H_k)
        logm.append(logm_k)
        L.append(L_k)
    sys = SymbolicScaleSystem(beta, delta0, tuple(L), tuple(H), tuple(logm), tuple(m_exact))
    sys.check_invariants()
    return sys


def realize_explicit(system: SymbolicScaleSystem, maxlevel: int) -> NestedIntervalSystem:
    """Explicit left-anchored packing of the first ``maxlevel`` levels:
    children are placed left to right from the parent's left endpoint with
    gaps eta_k.  Requires delta_maxlevel to be a normal double
    (log(1/delta) <= 700) and at most 1e6 intervals at the deepest level.
    """
    if not (0 <= maxlevel <= system.depth):
        raise InvalidArgumentError(f"maxlevel must be in [0, {system.depth}]")
    for k in range(1, maxlevel + 1):
        if system.L[k] > _NORMAL_LOG_LIMIT:
            raise ScaleUnrepresentableError(k, system.L[k])
    total = 1
    for k in range(1, maxlevel + 1):
        m = system.m_exact[k - 1]
        if m is None:
            raise InvalidArgumentError(f"level {k} branch count is astronomically large")
        total *= m
        if total > _MAX_INTERVALS:
            raise InvalidArgumentError("interval count exceeds the supported 1e6")

    specs = [LevelSpec(np.array([0.0]), system.delta0, None, 1)]
    lefts = np.array([0.0])
    for k in range(1, maxlevel + 1):
        delta_k = math.exp(-system.L[k])
        eta_k = math.exp(-system.H[k - 1])
        m = system.m_exact[k - 1]
        lefts = _children(lefts, delta_k + eta_k, m)
        specs.append(LevelSpec(lefts, delta_k, eta_k, m))
    out = NestedIntervalSystem(
        tuple(specs),
        kind="tx_realized",
        params={"beta": system.beta, "delta0": system.delta0},
    )
    if not out.packing_slack_ok():
        raise GeometryError("realized system lacks the required packing room")
    return out


# ---------------------------------------------------------------------------
# Covering counts
# ---------------------------------------------------------------------------


def _guarded_ceil(x: float) -> int:
    return max(1, int(math.ceil(x * (1.0 - 1e-12) - 1e-12)))


def covering_count(system, log_inv_eps) -> float:
    """log N(eps): the exact per-parent covering count at scale eps,

        N = m_1 ... m_{k-1} * min(m_k, ceil(delta_{k-1} / eps))

    with k the level where delta_k <= eps < delta_{k-1}.  At eps >= delta_0
    one interval suffices.  Scales finer than the deepest level are out of
    range and raise, as does a NaN log_inv_eps, with its own message.
    """
    lie = float(log_inv_eps)
    if math.isnan(lie):
        raise InvalidArgumentError("log_inv_eps is NaN")
    if isinstance(system, SymbolicScaleSystem):
        L = system.L
        logm = system.logm
        depth = system.depth
    elif isinstance(system, NestedIntervalSystem):
        L = [-math.log(system.delta(k)) for k in range(system.depth + 1)]
        logm = [math.log(system.branching(k)) for k in range(1, system.depth + 1)]
        depth = system.depth
    else:
        raise InvalidArgumentError("unsupported system type")

    if lie < L[0] - 1e-12:
        raise InvalidArgumentError("eps exceeds the root interval length")
    if lie <= L[0]:
        return 0.0
    k = None
    for j in range(1, depth + 1):
        if lie <= L[j]:
            k = j
            break
    if k is None:
        raise InvalidArgumentError(
            "eps is finer than the deepest level of the system"
        )
    prefix = math.fsum(logm[: k - 1])
    log_ratio = lie - L[k - 1]  # log(delta_{k-1} / eps) >= 0
    if log_ratio <= math.log(_EXACT_INT_LIMIT):
        log_ceil = math.log(float(_guarded_ceil(math.exp(log_ratio))))
    else:
        log_ceil = log_ratio
    return prefix + min(logm[k - 1], log_ceil)


@dataclass(frozen=True)
class MinkowskiBounds:
    """Covering-exponent table plus tail estimates of the upper and lower
    box-counting exponents (max and min of the ratio over the finest third
    of the grid)."""

    limsup: float
    liminf: float
    table: tuple[tuple[float, float, float], ...]  # (log 1/eps, log N, ratio)


def minkowski_bounds(system, log_inv_eps_grid) -> MinkowskiBounds:
    grid = sorted(float(x) for x in log_inv_eps_grid)
    if len(grid) < 3:
        raise InvalidArgumentError("need at least three scales")
    rows = []
    for lie in grid:
        logn = covering_count(system, lie)
        rows.append((lie, logn, logn / lie if lie > 0 else math.nan))
    tail_ratios = [rows[i][2] for i in _finest_third(len(rows))]
    return MinkowskiBounds(max(tail_ratios), min(tail_ratios), tuple(rows))


# ---------------------------------------------------------------------------
# Regular subsystems with prescribed mass decay
# ---------------------------------------------------------------------------


def check_regularity_conditions(
    system: NestedIntervalSystem,
    level_masses,
    gamma: float,
    theta: float,
) -> list[str]:
    """Check the three subsystem conditions and return the failures.

    (i)   nesting and disjointness (already enforced by the container),
    (ii)  gap_n^theta < gap_{n-1} for n >= 2,
    (iii) max level-n interval mass <= gap_n^gamma for n >= 1,

    where gap_n is the (lower bound on the) spacing between level-n siblings
    and ``level_masses[n-1]`` is the largest mass a level-n interval carries.
    """
    if not (0 < gamma < math.inf and 0 < theta < math.inf):
        raise InvalidArgumentError("gamma and theta must be positive and finite")
    failures = []
    depth = system.depth
    if len(level_masses) != depth:
        raise InvalidArgumentError("need one mass bound per level below the root")
    for n in range(2, depth + 1):
        if not (system.gap(n) ** theta < system.gap(n - 1)):
            failures.append(f"level {n}: gap^theta does not drop below the parent gap")
    for n in range(1, depth + 1):
        if not (level_masses[n - 1] <= system.gap(n) ** gamma * (1 + 1e-12)):
            failures.append(f"level {n}: interval mass exceeds gap^gamma")
    return failures


@dataclass(frozen=True)
class ExtractedSubsystem:
    """A pruned, level-subsampled copy of a self-similar system whose gaps
    grow fast enough for ``theta`` and whose interval masses sit just under
    gap^gamma.  ``base_levels[n-1]`` is the base level realizing output
    level n."""

    system: NestedIntervalSystem
    base_levels: tuple[int, ...]
    branch_counts: tuple[int, ...]
    gamma: float
    theta: float
    _base_params: dict = field(default_factory=dict, repr=False)

    def interval_mass(self, level: int) -> float:
        prod = 1
        for b in self.branch_counts[:level]:
            prod *= b
        return 1.0 / prod

    def measure(self, refine: int = 0) -> DiscreteMeasure:
        """Natural measure on the deepest output intervals.  ``refine``
        descends that many extra base levels inside every kept interval,
        splitting each atom into ``branches**refine`` children of equal
        weight; interval masses per output level are unchanged, only the
        atom resolution doubles and redoubles.
        """
        if refine < 0:
            raise InvalidArgumentError("refine must be nonnegative")
        lefts = self.system.lefts(self.system.depth)
        if refine:
            N = self._base_params["branches"]
            ratio = self._base_params["ratio"]
            gap_factor = self._base_params["gap_factor"]
            if N**refine * len(lefts) > _MAX_INTERVALS:
                raise InvalidArgumentError("refined atom count exceeds 1e6")
            base_k = self.base_levels[-1]
            for k in range(base_k + 1, base_k + refine + 1):
                length, gap = _cantor_level(ratio, gap_factor, k)
                lefts = _children(lefts, length + gap, N)
        return _uniform(lefts[:, None])


def extract_subsystem(
    base: NestedIntervalSystem,
    gamma: float,
    theta: float,
) -> ExtractedSubsystem:
    """Carve a regular subsystem out of a uniform self-similar base.

    Levels are subsampled with the per-step minimal stride making the gap
    growth condition gap_n^theta < gap_{n-1} hold (for theta < 1 the stride
    accelerates; no fixed stride works for a self-similar base).  Within
    each kept interval the lexicographically first ``b_n`` descendants
    survive, with ``b_n`` the smallest count keeping every interval mass at
    or below gap_n^gamma, which makes the mass ceiling a meaningful witness
    downstream.
    """
    if base.kind != "uniform_cantor":
        raise InvalidArgumentError("extraction needs a uniform self-similar base")
    N = base.params["branches"]
    ratio = base.params["ratio"]
    sim_dim = base.params["similarity_dimension"]
    if not (0 < gamma < sim_dim):
        raise InvalidArgumentError(
            f"gamma must lie strictly below the similarity dimension {sim_dim:.6g}"
        )
    if not (0 < theta < math.inf):
        raise InvalidArgumentError("theta must be positive and finite")

    u = math.log(1.0 / ratio)
    gap_factor = (1.0 - N * ratio) / (N - 1)
    log_inv_gapf = math.log(1.0 / gap_factor)

    # gap at base level k is ratio**(k-1) * gap_factor
    def log_inv_gap(k: int) -> float:
        return (k - 1) * u + log_inv_gapf

    K = base.depth
    if K < 1:
        raise DepthExhaustedError("the base system has no levels below the root")
    ks = [1]
    while True:
        k_prev = ks[-1]
        k_next = k_prev + 1
        while not (theta * log_inv_gap(k_next) > log_inv_gap(k_prev)):
            k_next += 1
        if k_next > K:
            break
        ks.append(k_next)

    # Branch counts and lefts, level by level.
    lefts = base.lefts(0)
    specs = [base.levels[0]]
    branch_counts: list[int] = []
    prod_b = 1
    k_prev = 0
    for n, k_n in enumerate(ks, start=1):
        target = math.exp(gamma * log_inv_gap(k_n))
        b = min(N ** (k_n - k_prev), _guarded_ceil(target / prod_b))
        if prod_b * b < target * (1 - 1e-9):
            raise DepthExhaustedError(
                f"output level {n}: even the full tree cannot push interval "
                f"masses below gap^gamma (gamma {gamma:.4g} too demanding here)"
            )
        # Offsets of the lexicographically first b descendants, shared by
        # every kept parent.
        offsets = np.zeros(1)
        for j in range(k_prev + 1, k_n + 1):
            length, gap = _cantor_level(ratio, gap_factor, j)
            offsets = _children(offsets, length + gap, N)
        lefts = (lefts[:, None] + offsets[:b]).ravel()
        prod_b *= b
        branch_counts.append(b)
        specs.append(LevelSpec(lefts, *_cantor_level(ratio, gap_factor, k_n), b))
        k_prev = k_n

    system = NestedIntervalSystem(
        tuple(specs),
        kind="extracted_subsystem",
        params={"gamma": gamma, "theta": theta},
        uniform=False,
    )
    out = ExtractedSubsystem(
        system,
        tuple(ks),
        tuple(branch_counts),
        gamma,
        theta,
        _base_params={"branches": N, "ratio": ratio, "gap_factor": gap_factor},
    )
    masses = [out.interval_mass(n) for n in range(1, system.depth + 1)]
    failures = check_regularity_conditions(system, masses, gamma, theta)
    if failures:
        raise GeometryError("extracted subsystem fails its own conditions: " + "; ".join(failures))
    return out
