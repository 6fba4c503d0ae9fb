"""
The enumeration-backed verification sweep
=========================================

Everything the calculus computes is recomputed here by a second route:
closed-form counters against explicit enumeration, extraction against
reconstruction, the product rule against a literal sum over types, and
the finite-chain convention against an exhaustive coloring search.
"""

from ordramsey import finite_degree_oracle, run_all

report = run_all()
for entry in report.entries:
    if entry.name == "product-count":
        print(entry.line())
print()

# The product-count lines above are the level-count vectors with a part
# above one.  Their counts sit below the ordered-Bell numbers 3, 13, 13
# and 75 of ordered partitions of all the indices: two indices of the
# same part can never share a block, which the closed form over
# rank_counts knows and the ordered-Bell count does not.

summary = report.lines()[-1]
print(summary)
print("sweep ok:", report.ok)

# The oracle behind the finite-chain convention, on its own: the least
# worst-case color count over every k-coloring of the n-subchains.
print("\noracle T(4, 2-subchains, 2 colors):", finite_degree_oracle(4, 2, 2))
print("oracle T(5, 2-subchains, 3 colors):", finite_degree_oracle(5, 2, 3))
print("single subchain, 5 colors:        ", finite_degree_oracle(3, 3, 5))
