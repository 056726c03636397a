"""
Linearized double shuffle spaces, exactly
=========================================

D_{n,d} collects the degree-d polynomials in n variables killed by every
block-shuffle operator in both group actions.  All elimination is exact:
every solver builds its condition matrix once and eliminates it under both
pivot orders, which must give the same kernel, a guard against bookkeeping
slips.
"""

from mzvkit.dsh import (
    double_shuffle_space,
    cyclic_invariance_kernel,
    dimension_table,
    divided_difference,
    symmetric_dti_solutions,
)

# depth 2: zero until degree 6, then 1 at d = 6, 8, 10 and 2 at d = 12
print("dim D_{2,d}:")
for d, dim in dimension_table(2, range(0, 13)).items():
    print("   d=%2d  (weight %2d):  %d" % (d, 2 + d, dim))

# first depth-3 example with content
print()
print("dim D_{3,8} (weight 11):", dimension_table(3, [8])[8])

# a weight-8 generator: the unique element of D_{2,6}
f = double_shuffle_space(2, 6)[0]
print()
print("generator of D_{2,6}:", f)

# its divided difference is NOT cyclic-invariant; demanding invariance
# on top of the shuffle conditions empties the space in even degree
g = divided_difference(f)
cyc_defect = g - g.permute_variables((2, 3, 1))
print("divided difference cyclic-invariant:", cyc_defect.is_zero())

for n, d in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]:
    assert cyclic_invariance_kernel(n, d) == []
print("cyclic-invariance kernel trivial on the checked (n,d) grid")

# symmetric translation-invariant solutions: constants at d=0, then none
print()
print("symmetric translation-invariant survivors, n=2:")
for d in (0, 2, 4):
    sols = symmetric_dti_solutions(2, d)
    print("   d=%d: %s" % (d, ", ".join(map(str, sols)) if sols else "none"))
print()
print("ok")
