"""
Weight-truncated generating series and the shuffle relation
===========================================================

Packaging regularized constants of depth-n indices into a coefficient
table gives a series on which permutations and integer matrices act.
In the natural scheme the product of two such tables equals a sum of
permuted copies of the joint table, and the defect of that relation is
exactly zero before any number is rounded.
"""

from mzvkit.groupring import shuffle_operator
from mzvkit.indices import format_index
from mzvkit.matrices import perm_matrix
from mzvkit.series import block_product, build_series, series_shuffle_check

K = 5

# a depth-2 table in the natural scheme; each cell is an exact MzvCombo
s2 = build_series("natural", 2, K)
print("natural-scheme table, depth 2, weight <= %d:" % K)
for k in s2.indices():
    combo = s2.coefficient(k)
    if combo.is_zero():
        continue
    terms = ", ".join("%s %s" % (q, format_index(i))
                      for i, q in sorted(combo.terms.items()))
    print("   %s: %s" % (format_index(k), terms))

# multiply a depth-1 and a depth-2 table into a depth-3 one
prod = block_product(build_series("natural", 1, K), s2)

# sum the permuted joint table over the support of the shuffle operator
joint = build_series("natural", 3, K)
acc = None
for sigma, coeff in shuffle_operator(3, 1).terms.items():
    piece = joint.permute(sigma)
    acc = piece if acc is None else acc + piece
defect = prod - acc
print()
print("symbolic defect cells, all zero:",
      all(defect.coefficient(k).is_zero() for k in defect.indices()))

# the packaged check evaluates whatever fails to cancel; here nothing does
for n, i in [(2, 1), (3, 1), (3, 2)]:
    d = series_shuffle_check(n, i, K, scheme="natural", digits=50)
    print("numeric defect (n=%d, i=%d): %s" % (n, i, d.to_decimal(5)))

# the same truncation under the bare stuffle scheme does not cancel;
# the leftover is an honest order-one number, not a rounding artifact
d = series_shuffle_check(2, 1, K, scheme="stuffle", digits=50)
print()
print("stuffle-scheme defect (n=2):", d.to_decimal(10))
assert float(d) > 0.5

# permutation action agrees with the matrix action through perm_matrix
sigma = (2, 3, 1)
assert (joint.permute(sigma) - joint.act_matrix(perm_matrix(sigma))) \
    .coefficient((1, 1, 1)).is_zero()
print()
print("ok")
