"""Closed-form dimension predictions and the min-max crossing solver.

For a set of packing dimension beta in (0, 1] and a field of roughness
alpha with d independent coordinates, the printed formulas are

    image upper:  min(d, beta / alpha)
    graph upper:  min(beta / alpha, beta + d (1 - alpha))
    image lower:  beta d / (alpha d + beta (1 - alpha d))      [alpha d < 1]
    graph lower:  max(image lower, beta (d + 1 - alpha d))     [alpha d < 1]

The graph lower bound is also the value of a min-max problem: the unique
crossing of a decreasing hyperbola g and an increasing piecewise h on
[1, infinity).  solve_crossing solves that crossing analytically and checks
it reproduces the closed form, which is the identity the proofs hinge on.
The strict gap graph_lower < graph upper for 0 < beta < 1 is what makes the
oscillating test sets genuine counterexamples to the naive graph formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateRegimeError, InvalidArgumentError

__all__ = [
    "Regime",
    "predict_image",
    "predict_graph_upper",
    "tx_lower",
    "graph_lower",
    "solve_crossing",
]


@dataclass(frozen=True)
class Regime:
    """Parameter triple (alpha, d, beta): field roughness, number of
    independent range coordinates, packing dimension of the domain set."""

    alpha: float
    d: int
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidArgumentError("alpha must lie in (0, 1)")
        if not (1 <= int(self.d) == self.d):
            raise InvalidArgumentError("d must be a positive integer")
        if not (0.0 <= self.beta <= 1.0):
            raise InvalidArgumentError("beta must lie in [0, 1]")
        object.__setattr__(self, "d", int(self.d))

    def require_subcritical(self):
        if self.alpha * self.d >= 1.0:
            raise DegenerateRegimeError(
                f"alpha * d = {self.alpha * self.d:.6g} >= 1; this prediction "
                "needs the subcritical regime alpha d < 1"
            )


def predict_image(regime: Regime) -> float:
    """Packing dimension of the image of a set with dim = Dim = beta:
    min(d, beta / alpha)."""
    return min(float(regime.d), regime.beta / regime.alpha)


def predict_graph_upper(regime: Regime) -> float:
    """General upper bound for the graph: min(beta/alpha, beta + d(1-alpha)).
    Exact for sets with dim = Dim, strict overestimate on the oscillating
    two-scale sets."""
    return min(
        regime.beta / regime.alpha,
        regime.beta + regime.d * (1.0 - regime.alpha),
    )


def tx_lower(regime: Regime) -> float:
    """Sharp lower bound for image dimensions over all sets of packing
    dimension beta: beta d / (alpha d + beta (1 - alpha d)).  Subcritical
    regimes only."""
    regime.require_subcritical()
    ad = regime.alpha * regime.d
    if regime.beta == 0.0:
        return 0.0
    return regime.beta * regime.d / (ad + regime.beta * (1.0 - ad))


def graph_lower(regime: Regime) -> float:
    """Sharp lower bound for graph dimensions: the larger of tx_lower and
    beta (d + 1 - alpha d)."""
    regime.require_subcritical()
    return max(
        tx_lower(regime),
        regime.beta * (regime.d + 1.0 - regime.alpha * regime.d),
    )


def solve_crossing(regime: Regime) -> tuple[float, float]:
    """Solve min over x >= 1 of max(g(x), h(x)) with

        g(x) = beta / (alpha (1 - beta) x)
        h(x) = d (1 - 1/x)                     on 1 <= x <= 1/alpha
        h(x) = (1-alpha) d + 1 - 1/(alpha x)   on x >= 1/alpha.

    g decreases, h increases, so the minimum sits at their unique crossing
    x_star and equals g(x_star).  Returns (x_star, g(x_star)) and asserts
    the value matches graph_lower to 1e-9; that identity is the content of
    the optimization step in the sharpness proof."""
    regime.require_subcritical()
    a, d, b = regime.alpha, regime.d, regime.beta
    if not (0.0 < b < 1.0):
        raise InvalidArgumentError("the crossing solver needs beta strictly in (0, 1)")

    def g(x: float) -> float:
        return b / (a * (1.0 - b) * x)

    inv_a = 1.0 / a
    tol = 1e-12
    x_low = 1.0 + b / (a * d * (1.0 - b))
    x_high = 1.0 / (a * (1.0 - b) * ((1.0 - a) * d + 1.0))
    if x_low <= inv_a * (1.0 + tol):
        x_star = x_low
    elif x_high >= inv_a * (1.0 - tol):
        x_star = x_high
    else:
        raise DegenerateRegimeError(
            "no branch of the crossing is consistent; the regime is too "
            "close to alpha d = 1 for stable evaluation"
        )
    value = g(x_star)
    reference = graph_lower(regime)
    if not math.isfinite(value) or abs(value - reference) > 1e-9:
        raise DegenerateRegimeError(
            f"crossing value {value!r} disagrees with the closed form "
            f"{reference!r} beyond 1e-9"
        )
    return float(x_star), float(value)
