#!/usr/bin/env python3
"""Middle-thirds set: covering counts, Minkowski bounds, ball-mass exponent.

Everything here is deterministic. The set's dimension log2/log3 should be
pinned by three independent routes: exact covering counts over a geometric
scale ladder, the two Minkowski readings of that ladder, and the scaling
exponent of the natural measure's ball mass.
"""

import math

from packdim import (
    ScaleGrid, build_uniform_cantor, covering_count, dim_ball_mass,
    minkowski_bounds, natural_measure,
)

TRUE = math.log(2.0) / math.log(3.0)

system = build_uniform_cantor(2, 1.0 / 3.0, 12)
print(f"middle-thirds system, depth {system.depth}, target dim {TRUE:.10f}")
print()

print("covering counts at the construction scales:")
for k in (2, 4, 6, 8):
    lie = k * math.log(3.0)
    logn = covering_count(system, lie)
    print(f"  eps = 3^-{k}: log N = {logn:.6f} = {logn/math.log(2):.1f} log 2")

mb = minkowski_bounds(system, [k * math.log(3.0) for k in range(4, 13)])
print()
print(f"Minkowski bounds over 3^-4 .. 3^-12: "
      f"lower {mb.liminf:.10f}, upper {mb.limsup:.10f}")
print(f"both match log2/log3 to {max(abs(mb.liminf-TRUE), abs(mb.limsup-TRUE)):.1e}")

mu = natural_measure(system, 12)
est = dim_ball_mass(mu, ScaleGrid(2, 9, 3.0))
print()
print(f"ball-mass exponent of the natural measure ({mu.count} atoms): {est.value:.10f}")
print(f"deviation from log2/log3: {abs(est.value - TRUE):.2e}")
