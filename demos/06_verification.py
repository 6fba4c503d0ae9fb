"""
The enumeration-backed verification sweep
=========================================

Everything the calculus computes is recomputed here by a second route:
closed-form counters against explicit enumeration, extraction against
reconstruction, the product, power and tail rules against literal sums
over types, and the finite-chain convention against the subchains listed
explicitly.
"""

from ordramsey import run_all

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
