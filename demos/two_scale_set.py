#!/usr/bin/env python3
"""The two-scale oscillating set: why covering counts refuse to settle.

The construction alternates a dense burst of m_k children at scale eta_k
with a long barren stretch down to delta_k. Read at the eta scales the set
looks beta-dimensional; read at the delta scales it looks almost empty.
The table below prints both readings level by level, entirely in the log
domain (the scales themselves underflow any float by level 4).
"""

from packdim import ScaleUnrepresentableError, build_tx_system, realize_explicit

BETA = 0.5
tx = build_tx_system(BETA, 0.25, 10)

print(f"beta = {BETA}, {tx.depth} levels")
print(f"{'k':>3} {'log(1/eta_k)':>14} {'log(1/delta_k)':>15} {'ratio@eta':>10} {'ratio@delta':>12}")
acc = 0.0
for k in range(1, tx.depth + 1):
    acc += tx.logm[k - 1]
    at_eta = acc / tx.H[k - 1]
    at_delta = acc / tx.L[k] if k < tx.depth else float("nan")
    print(f"{k:3d} {tx.H[k-1]:14.1f} {tx.L[k] if k < tx.depth else float('inf'):15.1f} "
          f"{at_eta:10.4f} {at_delta:12.6f}")

print()
print(f"the eta-scale ratio converges to beta = {BETA} from above;")
print("the delta-scale ratio collapses like 2^-(k+1). The upper Minkowski")
print("dimension sees the eta reading, the lower one sees the delta reading.")
print()

for level in (2, 3):
    try:
        real = realize_explicit(tx, level)
        print(f"level {level} realized explicitly: {len(real.lefts(level))} intervals")
    except ScaleUnrepresentableError as e:
        print(f"level {level}: {e}")
