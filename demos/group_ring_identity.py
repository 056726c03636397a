"""
A shuffle identity in the integer group ring of S_{n+1}
=======================================================

The block-shuffle operators satisfy 1 + sh c = c (1 + sh t) where c is
the full cycle and t the last transposition.  Mapping permutations to
GL_n(Z) through the sum-zero lattice turns the same identity into exact
matrix algebra.
"""

from mzvkit.groupring import (
    GroupRingElem,
    all_permutations,
    compose,
    cycle_perm,
    embed_elem,
    groupring_identity_check,
    shuffle_operator,
    transposition,
)
from mzvkit.matrices import (
    antidiagonal,
    iota_matrix,
    mat_inverse_unimodular,
    mat_mul,
    neg_identity,
    upper_ones,
)

n = 3
m = n + 1

# sh: depth-1 shuffle operator on the first n letters, letter n+1 fixed
sh = embed_elem(shuffle_operator(n, 1), m)
print("shuffle operator support: %d permutations of %d letters, coeff 1"
      % (len(sh.terms), m))

c = GroupRingElem.from_perm(cycle_perm(m))        # i -> i+1, m -> 1
t = GroupRingElem.from_perm(transposition(m, 1, m))
one = GroupRingElem.one(m)

lhs = one + sh * c
rhs = c * (one + sh * t)
print("1 + sh c == c (1 + sh t):", lhs == rhs)
assert lhs == rhs
print("common support size:", len(lhs.terms))

for n_ in (2, 3, 4, 5):
    assert groupring_identity_check(n_)
print("identity verified exactly for n = 2..5")

# the lattice embedding is a homomorphism into GL_n(Z)
n = 3
perms = all_permutations(n + 1)
assert all(iota_matrix(compose(s, u), n)
           == mat_mul(iota_matrix(s, n), iota_matrix(u, n))
           for s in perms for u in perms)
print("embedding multiplicative on all %d pairs in S_%d" %
      (len(perms) ** 2, n + 1))

# reversal-and-swap generator: image is eps P^-1 w0 P, a reversed
# identity block over a row of -1
sigma = tuple(list(range(n - 1, 0, -1)) + [n + 1, n])
got = iota_matrix(sigma, n)
expect = mat_mul(
    mat_mul(mat_mul(neg_identity(n), mat_inverse_unimodular(upper_ones(n))),
            antidiagonal(n)),
    upper_ones(n))
assert got == expect
print("image of sigma' =")
for row in got:
    print("   %s" % (row,))
print()
print("ok")
