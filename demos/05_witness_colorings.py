"""
Witness colorings that force the lower bounds
=============================================

The degree formulas are tight because explicit colorings realize every
color on every copy.  Each witness colors an object by the index of its
type; on rich enough instances the whole palette shows up, so fewer
colors can never suffice.
"""

from ordramsey import (
    AdditiveWitness,
    Leveled,
    ProductWitness,
    StrictWitness,
    SumTail,
    realized_colors,
    spread,
)

# Additive, n = 2 over a tail of 3: palette 1 + 3 + 3.
coloring = AdditiveWitness(2, 3)
instance = SumTail((0, 1), 3)
print("additive palette:", coloring.palette)
print("realized:", sorted(realized_colors(coloring, instance)))

# Strict, n = 2 over m = 3 levels: the spread construction hands each
# level disjoint values, so all 9 words appear and none collide.
coloring = StrictWitness(2, 3)
levels = spread(tuple(range(6)), 3)
print("\nspread levels:", levels)
print("strict palette:", coloring.palette)
print("realized:", len(realized_colors(coloring, Leveled(levels))), "of 9")

# Collapse the levels onto one shared value and every pair collides,
# so the coloring degenerates to the single non-strict color.
shared = Leveled(((0,), (0,), (0,)))
print("one shared value:", len(realized_colors(coloring, shared)), "of 9")

# Product witness over level counts (2, 1): tuples of chains colored by
# the type of their concatenation.  Two points are too tight to separate
# every collision pattern; three already realize the whole palette.
coloring = ProductWitness((2, 1))
print("\nproduct palette:", coloring.palette)
for size in (2, 3, 6):
    realized = realized_colors(coloring, tuple(range(size)))
    print(f"universe {size}: {len(realized)} colors")
