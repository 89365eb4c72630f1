"""Brute-force checkers for the exactly testable inequalities.

Each checker returns a CheckReport rather than raising on mathematical
failure: violations counts the offending inputs, worst_ratio records how
close the sharpest input came to the bound, and details carries per-case
diagnostics.  Invalid arguments still raise, a NaN or infinite bound
among them.  The graph bound reads its expected masses from
estimators._field_masses, the one table dim_field fits.

Both doubling checks read their closed-box masses from one table,
_box_masses, which takes the atoms in row blocks whose masks hold at most
_BLOCK_ENTRIES entries: O(k^2) time, memory linear in the atoms k.
check_doubling hands it integer keys and weights, so every membership,
sum and comparison is exact; on the line it reads the same masses from
numerics._run_masses instead, as runs of the sorted integer keys, in
O(k log k).  check_scale_doubling hands _box_masses the float atoms and
weights, which it compares as rect_mass does, and refuses a scan whose
one row would hold more than _SCAN_ENTRIES mask entries.  The interval
bound scans rho, a and r on broadcast axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import DepthExhaustedError, InvalidArgumentError
from .estimators import _field_masses
from .fields import FieldSpec
from .fractals import ExtractedSubsystem
from .kernels import (
    KernelContext,
    expected_ball_mass,  # noqa: F401  (wrapped by the benchmark tracer, bench/worker.py)
)
from .measures import (
    DiscreteMeasure,
    rect_mass,  # noqa: F401  (wrapped by the benchmark tracer, bench/worker.py)
)
from .numerics import _run_masses, gaussian_interval_prob

__all__ = [
    "CheckReport",
    "check_doubling",
    "check_scale_doubling",
    "check_parts",
    "check_gaussian_interval_bound",
    "check_graph_expectation_bound",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials: int
    violations: int
    worst_ratio: float
    witness: str = ""
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# Doubling bounds
# ---------------------------------------------------------------------------


def _dyadic_ints(values) -> tuple[np.ndarray, int]:
    """Common-denominator integer form of a float list, as an object array
    of Python ints.  Every binary float is a dyadic rational, so (ints,
    scale) with value = int/scale is exact; the scale is the largest
    denominator (a power of two, hence the lcm)."""
    parts = [Fraction(float(v)) for v in values]
    scale = max((f.denominator for f in parts), default=1)
    return np.array([int(f * scale) for f in parts], dtype=object), scale


# The mask and difference entries one row block of _box_masses holds.
_BLOCK_ENTRIES = 2**16

# The most mask entries check_scale_doubling's scan may put in one row of
# _box_masses, boxes x atoms x d: 64 MiB of booleans.
_SCAN_ENTRIES = 2**26


def _box_masses(keys: np.ndarray, weights: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The (atoms x boxes) table whose entry (i, b) is the total weight of
    the atoms k with |keys[k] - keys[i]| <= halves[b] in every coordinate,
    in the arrays' own dtype.  A block's mask holds at most _BLOCK_ENTRIES
    entries, or one row where a row alone holds more."""
    k, d = keys.shape
    step = max(1, _BLOCK_ENTRIES // (len(halves) * k * d))
    blocks = []
    for lo in range(0, k, step):
        dist = np.abs(keys[None, :, :] - keys[lo : lo + step, None, :])
        inside = np.all(dist[:, None] <= halves[:, None, :], axis=3)
        blocks.append(inside @ weights)
    return np.concatenate(blocks)


def check_doubling(nu: DiscreteMeasure, r: float, lambdas, M: float) -> CheckReport:
    """The mass of the set of atoms x whose (lambda r)-box holds at least M
    times the mass of their r-box is at most 4^d lambda_1 ... lambda_d / M.

    Floats are dyadic rationals, so after rescaling to integers every box
    membership, mass comparison, and the final bound test are exact; no
    tolerance enters the verdict.  Boxes are closed, as in rect_mass."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.shape != (nu.dim,) or not np.all((1.0 <= lam) & (lam < math.inf)):
        raise InvalidArgumentError("need one finite lambda >= 1 per coordinate")
    if not (0 < r < math.inf) or not (1.0 <= M < math.inf):
        raise InvalidArgumentError("need finite r > 0 and M >= 1")
    d = nu.dim
    flat, cs = _dyadic_ints(nu.atoms.reshape(-1).tolist())
    weights, ws = _dyadic_ints(nu.weights.tolist())
    (r_int,), rs = _dyadic_ints([float(r)])
    lam_ints, ls = _dyadic_ints([float(v) for v in lam])
    (m_int,), ms = _dyadic_ints([float(M)])
    # |p_j - c_j| <= h_j with h = r resp. lam_j r; cross-multiplied so both
    # sides sit at scale cs * rs * ls.
    keys = flat.reshape(-1, d) * (rs * ls)
    halves = r_int * cs * np.array([[ls] * d, lam_ints], dtype=object)
    # on the line a box is a run of the sorted atoms
    if d == 1:
        small, big = _run_masses(keys[:, 0], weights, halves[:, 0]).T
    else:
        small, big = _box_masses(keys, weights, halves).T
    # big/ws >= (m/ms) * small/ws
    lhs_int = int(weights[big * ms >= m_int * small].sum())
    lam_prod = math.prod(lam_ints)
    # lhs/ws > 4^d * (lam_prod / ls^d) * (ms / m_int), cross-multiplied.
    lhs_side = lhs_int * ls**d * m_int
    bound_side = 4**d * lam_prod * ms * ws
    ratio = float(Fraction(lhs_side, bound_side)) if lhs_side else 0.0
    violations = int(lhs_side > bound_side)
    witness = f"lhs={Fraction(lhs_int, ws)} bound_ratio={ratio!r}" if violations else ""
    return CheckReport("doubling-bound", nu.count, violations, ratio, witness)


def check_scale_doubling(
    nu: DiscreteMeasure,
    a: float,
    eps: float,
    r0: float,
    n_scales: int = 10,
    h_multipliers=(1.0, 2.0, 4.0, 8.0),
) -> CheckReport:
    """Scan of the scale-doubling consequence: for boxes with sides
    h_i >= r^a the mass obeys nu(D(x,h)) <= nu(D(x,r)) prod (4 h_i / r)^(1+eps)
    once r is small enough (atom-dependent threshold).  An atom is
    exceptional when a violation persists in the finest scanned octave,
    i.e. no threshold within the scan works; the bound being checked says
    the exceptional mass vanishes as r0 does.

    A box's mass is its mask times the weights, in one product per row
    block of _box_masses.  Those sums are exact for dyadic weights such as
    the 2^-8 of ``verify --check all``; other weights are summed in another
    order than rect_mass sums them, and worst_ratio can move in its last
    bits."""
    if not (0.0 < a < 1.0):
        raise InvalidArgumentError("a must lie in (0, 1)")
    if not (0 < eps < math.inf):
        raise InvalidArgumentError("eps must be positive and finite")
    if not (0.0 < r0 <= 0.5):
        raise InvalidArgumentError("r0 must lie in (0, 1/2]")
    if n_scales < 2:
        raise InvalidArgumentError("need at least two scanned scales")
    mult = np.atleast_1d(np.asarray(h_multipliers, dtype=float))
    if not np.all((1.0 <= mult) & (mult < math.inf)):
        raise InvalidArgumentError("h multipliers must be finite and >= 1 (h_i >= r^a)")
    d = nu.dim
    # Python ints, so a count past int64 is refused, not wrapped; the scan
    # has ceil(n_scales) scales
    boxes = math.ceil(n_scales) * (1 + len(mult) ** d)
    if boxes * nu.count * d > _SCAN_ENTRIES:
        raise InvalidArgumentError(
            f"the scan weighs {boxes} boxes around {nu.count} atoms in {d} coordinates, "
            f"{boxes * nu.count * d} mask entries a row; at most {_SCAN_ENTRIES} are supported"
        )
    combos = np.stack(
        np.meshgrid(*([mult] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    scales = r0 * 2.0 ** -np.arange(1, n_scales + 1, dtype=float)
    # the boxes' sides and right-hand-side factors depend on the scale alone
    sides = np.stack([combos * r**a for r in scales])
    factors = np.prod((4.0 * sides / scales[:, None, None]) ** (1.0 + eps), axis=2)
    halves = np.concatenate([np.repeat(scales[:, None], d, axis=1), sides.reshape(-1, d)])
    masses = _box_masses(nu.atoms, nu.weights, halves)
    base, lhs = masses[:, :n_scales], masses[:, n_scales:].reshape(-1, *factors.shape)
    rhs = base[:, :, None] * factors
    live = rhs > 0
    worst = float((lhs[live] / rhs[live]).max()) if live.any() else 0.0
    # a violation at the last two scales, the finest octave
    exceptional = np.any(lhs[:, -2:] > rhs[:, -2:] * (1.0 + 1e-12), axis=(1, 2))
    # in atom order, one weight at a time: np.sum's pairwise order can move bits
    mass = float(np.cumsum(np.where(exceptional, nu.weights, 0.0))[-1])
    details = {"exceptional_mass": mass, "r0": r0}
    return CheckReport("scale-doubling", lhs.size, int(exceptional.sum()), worst, details=details)


# ---------------------------------------------------------------------------
# Integration by parts
# ---------------------------------------------------------------------------

_PARTS_CATALOG = {
    "exp": (lambda x: np.exp(-x), 40.0),
    "gauss": (lambda x: np.exp(-(x**2)), 8.0),
}
# the advertised relative tolerance per dimension d
_PARTS_TOL = {1: 1e-6, 2: 1e-4}


def check_parts(mu: DiscreteMeasure, f_name: str = "exp") -> CheckReport:
    """Both sides of the identity: the integral of f against mu equals
    (-1)^d times the Stieltjes integral of g(x) = mu(prod [0, x_i)) with
    respect to df.

    The test functions are products of one decaying factor per axis, and g
    is piecewise constant on the grid spanned by the atom coordinates, so
    the Stieltjes side is summed exactly cell by cell (mixed differences of
    f per cell) plus the analytic tail beyond the largest coordinates.
    The remaining discrepancy is pure floating-point roundoff, held to the
    advertised tolerances 1e-6 (d=1) and 1e-4 (d=2) with huge margin."""
    if f_name not in _PARTS_CATALOG:
        raise InvalidArgumentError(f"test function must be one of {sorted(_PARTS_CATALOG)}")
    d = mu.dim
    if d not in _PARTS_TOL:
        raise InvalidArgumentError("the checker covers d in {1, 2}")
    if mu.count > 32:
        raise InvalidArgumentError("at most 32 atoms are supported")
    if np.any(mu.atoms < 0):
        raise InvalidArgumentError("atoms must lie in the closed positive orthant")
    phi, margin = _PARTS_CATALOG[f_name]

    lhs = float(np.dot(mu.weights, np.prod(phi(mu.atoms), axis=1)))

    T = float(np.max(mu.atoms)) + margin
    axes = []
    for c in range(d):
        coords = np.unique(mu.atoms[:, c])
        grid = np.concatenate([[0.0], coords[coords > 0], [T]])
        axes.append(np.unique(grid))
    # Cell sum: g is constant inside each cell (no atom coordinate crosses
    # it), so g(midpoint) times the mixed difference of f is the exact
    # Stieltjes contribution of the cell.
    mids = np.meshgrid(*[(ax[:-1] + ax[1:]) / 2.0 for ax in axes], indexing="ij")
    mid_pts = np.stack([m.ravel() for m in mids], axis=1)
    delta = np.prod(np.meshgrid(*[np.diff(phi(ax)) for ax in axes], indexing="ij"), axis=0).ravel()
    below = np.all(
        mu.atoms[None, :, :] < mid_pts[:, None, :], axis=2
    )  # half-open boxes [0, x): strict comparison
    g = below @ mu.weights
    cell_sum = float(np.dot(g, delta))
    # Tail beyond [0, T]^d, where g is identically 1: the full-orthant
    # Stieltjes mass of df minus the boxed part, both in closed form.
    full = float(np.prod([0.0 - phi(np.array([0.0]))[0] for _ in range(d)]))
    boxed = float(np.prod([phi(np.array([T]))[0] - phi(np.array([0.0]))[0] for _ in range(d)]))
    rhs = (-1.0) ** d * (cell_sum + full - boxed)

    rel = abs(rhs - lhs) / max(abs(lhs), 1e-300)
    violations = int(rel > _PARTS_TOL[d])
    witness = f"lhs={lhs!r} rhs={rhs!r}" if violations else ""
    return CheckReport(
        "integration-by-parts", 1, violations, rel, witness, {"f": f_name}
    )


# ---------------------------------------------------------------------------
# Gaussian interval probability bound
# ---------------------------------------------------------------------------


def _interval_bound_ratios(beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    c = 2.0 ** (-1.0 / (1.0 - beta))
    rhos = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, n)])
    cents = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, n)])
    rs = np.geomspace(1e-6, c * (1.0 - 1e-9), n)
    # the (rho, a, r) scan on broadcast axes, the powers on the axes alone
    R, A, RAD = rhos[:, None, None], cents[None, :, None], rs[None, None, :]
    prob = gaussian_interval_prob(R, A, RAD)
    rb, radb = R**beta, RAD**beta
    # a = rho = 0 sends the comparison power to infinity; the ratio there is
    # 0, which errstate keeps quiet.
    with np.errstate(divide="ignore"):
        ratios = prob / (radb / (A + rb))
    # Case split from the proof: I and II bound by 2, III by 4, IV by a
    # constant below 8; rho = 0 is exact.  The first case that holds names
    # the entry, 0 where none does or rho = 0.
    live = R > 0
    cases = [live & (rb <= A) & (A <= radb), live & (A <= rb) & (R <= RAD),
             live & (A <= rb) & (RAD < R), live & (A >= np.maximum(rb, radb))]
    # the ratios are >= 0, so a case no entry falls in keeps its 0
    maxima = np.zeros(5)
    named = np.zeros(ratios.shape, dtype=bool)
    for c, holds in enumerate(cases, start=1):
        maxima[c] = ratios.max(where=holds & ~named, initial=0.0)
        named |= holds
    maxima[0] = ratios.max(where=~named, initial=0.0)
    return ratios, maxima


def check_gaussian_interval_bound(beta: float) -> CheckReport:
    """Scan of the probability-vs-power bound: the chance that a centered
    Gaussian of scale rho lands within r of a center a is at most a constant
    times r^beta / (a + rho^beta), for r below the beta-dependent cutoff.
    The scan runs 24 and then 48 points per axis, asserts sup ratio <= 8,
    requires the sup to be stable within 10% under that doubling, and
    reports the per-case maxima of the proof's four regimes."""
    if not (0.0 < beta < 1.0):
        raise InvalidArgumentError("beta must lie in (0, 1)")
    ratios, maxima = _interval_bound_ratios(beta, 24)
    ratios2, maxima2 = _interval_bound_ratios(beta, 48)
    sup1 = float(np.max(ratios))
    sup2 = float(np.max(ratios2))
    violations = int(np.sum(ratios2 > 8.0))
    stable = abs(sup2 - sup1) <= 0.1 * max(sup1, 1e-12)
    if not stable:
        violations += 1
    return CheckReport(
        "gaussian-interval-bound",
        int(ratios.size + ratios2.size),
        violations,
        sup2,
        details={
            "sup_coarse": sup1,
            "sup_fine": sup2,
            "stable": stable,
            "case_maxima": dict(zip(("rho=0", "I", "II", "III", "IV"), maxima2)),
        },
    )


# ---------------------------------------------------------------------------
# Graph expected-ball-mass bound on extracted subsystems
# ---------------------------------------------------------------------------


def check_graph_expectation_bound(
    subsystem: ExtractedSubsystem,
    field: FieldSpec,
    refine: int = 0,
) -> CheckReport:
    """On a subsystem with gap growth exponent theta and mass exponent
    gamma, the expected graph-ball mass at radius gap_n^theta must stay
    within a constant of gap_n^gamma, uniformly over levels and atoms.

    theta must equal 1 / (d + 1 - alpha d) for the field, the exponent the
    sharpness proof optimizes; drift-free graph mode; ratios are reported
    per level and must not exceed 8.  ``refine`` deepens the atom
    resolution of the measure without changing interval masses, for
    stability checks.

    Usable levels run from 2 to depth - 1: at the deepest level every
    interval carries a single atom, so the windowed integral degenerates to
    that atom's point mass and shrinks under refinement instead of
    converging.  Levels strictly coarser than the atom resolution average
    over whole clusters and are stable."""
    d = field.range_dim
    ad = field.alpha * d
    if ad >= 1.0:
        raise InvalidArgumentError("the bound needs the subcritical regime alpha d < 1")
    if field.domain_dim != 1:
        raise InvalidArgumentError("subsystems live on the line")
    theta_expected = 1.0 / (d + 1.0 - ad)
    if abs(subsystem.theta - theta_expected) > 1e-9:
        raise InvalidArgumentError(
            f"subsystem theta {subsystem.theta:.6g} does not match the "
            f"field's exponent {theta_expected:.6g}"
        )
    system = subsystem.system
    levels = list(range(2, system.depth))
    if not levels:
        raise DepthExhaustedError("no usable levels: the subsystem is too shallow")
    ctx = KernelContext(field, None, subsystem.measure(refine=refine), "graph")
    etas = [system.gap(nlev) for nlev in levels]
    radii = np.array([eta**subsystem.theta for eta in etas])
    V = _field_masses(ctx, radii)
    ratios = V / np.array([eta**subsystem.gamma for eta in etas])
    level_ratios = [float(x) for x in ratios.max(axis=0)]
    worst = max(level_ratios)
    trials = ratios.size
    violations = int(np.count_nonzero(ratios > 8.0))
    return CheckReport(
        "graph-expectation-bound",
        trials,
        violations,
        worst,
        details={
            "levels": levels,
            "level_ratios": level_ratios,
            "refine": refine,
            "theta": subsystem.theta,
            "gamma": subsystem.gamma,
        },
    )
