"""Bounds for the multiplicative variant and the hyperbolic-region cover.

When the per-coordinate distance condition is replaced by a condition on the
product of distances, the dimension is bracketed by two closed forms, and
the covering side reduces to covering {x*y <= gamma} in the unit square by
dyadic squares whose s-cost scales like gamma^(s-1).  Writes an overlay SVG
of the cover next to this script.
"""

from fractions import Fraction as F
from pathlib import Path

from liminfdim import Enclosure, hyperbolic_cover, mult_bounds, mult_cost_exponent
from liminfdim.svg import square_overlay

# Closed-form bracket, exact rational arithmetic:
lower, upper = mult_bounds(F(1), F(1, 3), 2)
print("tau=1, alpha=1/3, d=2: dimension in [", lower, ",", upper, "]")
lower, upper = mult_bounds(F(1), F(0), 2)
print("alpha=0 collapses the bracket:", lower, "=", upper)

# The cover-cost exponent changes sign exactly at the upper bound:
print("\ncost exponent d - s - tau(s - d + 1) for d=2, tau=1:")
for s in (F(14, 10), F(3, 2), F(8, 5)):
    print(f"  s = {s}: exponent = {mult_cost_exponent(2, F(1), s)}")

# The dyadic cover and its s-cost; the cost tracks gamma^(s-1):
print(f"\n{'gamma':>8} {'squares':>8} {'s-cost':>12} {'cost/gamma^0.6':>15}   (s = 1.6)")
for K in range(4, 13, 2):
    gamma = F(1, 1 << K)
    cover, cost = hyperbolic_cover(gamma, F(8, 5))
    scale = Enclosure.exact_int(1 << K).pow_frac(F(3, 5), 128)
    normalized = (cost * scale).midpoint()
    print(f"  2^-{K:<3} {cover.total_squares():>8} {float(cost.midpoint()):>12.5f} "
          f"{float(normalized):>15.3f}")

cover, _ = hyperbolic_cover(F(1, 64), F(8, 5))
steps = 256
curve = [(x / steps, min(1.0, (1 / 64) / (x / steps))) for x in range(1, steps + 1)]
out = Path(__file__).with_name("hyperbolic_cover.svg")
unit = 2.0 ** -cover.big_k  # the squares are integer triples on this grid
out.write_text(square_overlay("cover of x*y <= 1/64",
                              [(x * unit, y * unit, side * unit)
                               for x, y, side in cover.squares], curve), encoding="ascii")
print("\nwrote", out)
