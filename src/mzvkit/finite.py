"""Finite real multiple zeta values and their mod-p counterparts.

The finite real value of an index is the limit of its truncated direct sum
over signed integers ordered strictly by 1/m.  Symbolically it is computed
by the antipode-type splitting sum

    sum_{i=0..n} (-1)^(k_{i+1}+...+k_n)
        reg(k_1..k_i) * reg(k_n..k_{i+1})

with both factors regularized in one scheme by regularization.regularize
("stuffle" for zeta_F, "shuffle" for zeta_F_sharp).  The n+1 signed
products are summed in one Combination.combined call, as full polynomials
in T: every term goes into the integer accumulator under its (T-degree,
index) path, and each coefficient of the result is one Fraction.  The sum
is T-free; that is checked at runtime on the whole polynomial, and the
constant term is the value.  The surjection-weighted variant
zeta_natural_F, the regularization.surjection_sum of zeta_F, matches the
limit of the weakly-ordered weighted direct sums.

Every one of these values, and every mod-p value below, obeys the reversal
relation zeta(k_n, ..., k_1) = (-1)^wt(k) zeta(k_1, ..., k_n).  So only one
member of each pair {k, reversed k} is computed, the smaller tuple (a
palindrome is its own member), and the other is taken from its record by
that sign (_member).  This is an identity, not a skipped check: term i of
the splitting sum of reversed k is term n-i of the sum of k times
(-1)^wt(k), so the whole T-polynomial of reversed k is (-1)^wt(k) times
that of k.  The T-free check runs on every polynomial that is computed,
and each polynomial that is not is the negative or the copy of a checked
one.  The collapses of reversed k are the reversed collapses of k, with
the same stabilizers, so zeta_natural_F is taken the same way.

The mod-p values are literal finite sums in F_p: zeta_A_component over
0 < m_1 < ... < m_n < p, and zeta_natural_A_component the weighted weak-chain
sum over 0 < |m_i| < p/2 whose tie weights 1/r! require p > depth.  For
odd p = 2h + 1 the signed range in its 1/m order, 1..h, -h..-1, is 1..p-1
mod p, so both are numeric.signed_chain_total: the kernel runs over the
columns of m^-k_j mod p for the half m = 1..h only, one per slot, built by
column multiplication reduced mod p from the half table of inverses, and
the halves are joined by the antipode split.  The total is an exact
integer, reduced mod p once, here.  The weak total comes scaled by n! (the
tie weights become binomials), so the natural value is that total times
(n!)^-1, which p > depth makes exist.  The empty index takes the same
path: its chain total is 1, the empty chain, and 0! = 1.  At p = 2 the
range is the one position m = 1, which the reflection does not halve; its
values are taken literally: zeta_A is 1 up to depth one and 0 beyond, and
the natural range 0 < |m| < 1 is empty, so only the empty index has the
natural value 1 there.  The map m -> p - m sends the chains of reversed
k onto those of k, with the same tie runs and the sign (-1)^wt(k), so the
residue of a non-member is taken from its member's too.  The member
residues are kept in one bounded cache of the 4096 used last: a sweep of
seven indices over the 166 primes from 5 to 1000 fits, and a sweep over
many more primes holds no residue of every one.
"""

import math
from array import array
from functools import lru_cache, partial, wraps
from typing import NamedTuple

from .indices import check_index, check_int, format_index, index_splittings, weight
from .numeric import signed_chain_total
from .regularization import MzvCombo, RegPoly, regularize, surjection_sum


def _antipode_poly(k, reg_of_index):
    return RegPoly.zero().combined(
        products=(((-1) ** weight(tail), reg_of_index(head), reg_of_index(tail))
                  for head, tail in index_splittings(k)))


def _constant_term_checked(poly, k, label):
    if poly.degree() > 0:
        raise ArithmeticError(
            "%s(%s) produced T-dependent terms; the splitting sum should be "
            "T-free" % (label, format_index(k)))
    return poly.constant_term()


def _member(k):
    """(member, sign): the member of {k, reversed k} whose value is computed,
    the smaller tuple, and the sign carrying the member's value to k's,
    (-1)^wt(k) when the member is the reversal and 1 when it is k."""
    reverse = k[::-1]
    if reverse < k:
        return reverse, (-1) ** weight(k)
    return k, 1


def _one_per_reversal_pair(compute):
    """compute(k) cached over every index, called on members only: the
    value of a non-member is its member's value times the sign of _member."""
    @lru_cache(maxsize=None)
    @wraps(compute)
    def value(k):
        member, sign = _member(k)
        if member is k:
            return compute(k)
        x = value(member)
        return -x if sign < 0 else x
    return value


@_one_per_reversal_pair
def _zeta_F(k):
    return _constant_term_checked(_antipode_poly(k, partial(regularize, "stuffle")), k, "zeta_F")


def zeta_F(k):
    """Symbolic finite value with series-regularized factors, as an MzvCombo."""
    return _zeta_F(check_index(k))


@_one_per_reversal_pair
def _zeta_F_sharp(k):
    return _constant_term_checked(_antipode_poly(k, partial(regularize, "shuffle")), k,
                                  "zeta_F_sharp")


def zeta_F_sharp(k):
    """Finite value with integral-scheme (shuffle) regularized factors."""
    return _zeta_F_sharp(check_index(k))


@_one_per_reversal_pair
def _zeta_natural_F(k):
    # the module attribute _zeta_F is read at each call, so a wrapper put
    # in its place sees this work too
    return surjection_sum(k, _zeta_F, MzvCombo.zero())


def zeta_natural_F(k):
    """Surjection-weighted finite value: sum of zeta_F over collapsed indices,
    each divided by the order of the collapse's stabilizer."""
    return _zeta_natural_F(check_index(k))


# ---------------------------------------------------------------------------
# mod p

class ModPValue(NamedTuple):
    prime: int
    residue: int

    def __str__(self):
        return "%d (mod %d)" % (self.residue, self.prime)


def is_prime(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def primes_in_range(lo, hi):
    """Primes p with lo <= p <= hi, ascending; lo and hi are ints
    (`check_int`)."""
    check_int(lo, None, "lo and hi must be integers")
    check_int(hi, None, "lo and hi must be integers")
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def _check_prime(p):
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    return p


@lru_cache(maxsize=256)
def _inverses(p):
    """0, 1^-1, ..., (p//2)^-1 in F_p, built once per prime.

    Only the positive half of the range is kept: (p-m)^-1 = -(m^-1).
    Machine integers, not int objects: the tables of all primes below
    1000 hold 0.3 MB this way and 0.9 MB as tuples.  The cache keeps the
    256 primes used last (all 168 primes below 1000 fit), so a sweep over
    large primes does not hold a table of every one.
    """
    return array("q", [0] + [pow(m, -1, p) for m in range(1, p // 2 + 1)])


def _inverse_powers(p, exponents):
    """Columns [m^-a mod p for m = 1..p//2], one per a in `exponents`, each
    built from the one before by a column multiplication reduced mod p."""
    inverses = _inverses(p)[1:].tolist()
    powers = [inverses]
    for _ in range(1, max(exponents, default=1)):
        powers.append([x * y % p for x, y in zip(powers[-1], inverses)])
    return [powers[a - 1] for a in exponents]


@lru_cache(maxsize=4096)
def _member_residue(k, p, weak):
    return signed_chain_total(k, _inverse_powers(p, k), weak=weak) % p


def _chain_residue(k, p, weak):
    """signed_chain_total of k over odd p, mod p, computed for the member
    of {k, reversed k} only."""
    member, sign = _member(k)
    residue = _member_residue(member, p, weak)
    return residue if sign > 0 else -residue % p


def zeta_A_component(k, p):
    """Sum over 0 < m_1 < ... < m_n < p of the inverse power product in F_p."""
    k = check_index(k)
    _check_prime(p)
    if p == 2:
        # the one position m = 1: the empty chain and each chain of depth
        # one weigh 1, and no strict chain is longer
        return ModPValue(p, int(len(k) <= 1))
    return ModPValue(p, _chain_residue(k, p, False))


def zeta_natural_A_component(k, p):
    """Weighted weak-chain sum over 0 < |m_i| < p/2 in F_p.

    Tie runs of length r weigh 1/r!, so r! must be invertible: requires
    p > depth(k).
    """
    k = check_index(k)
    _check_prime(p)
    n = len(k)
    if p <= n:
        raise ValueError("need p > depth for invertible tie weights, got "
                         "p=%d depth=%d" % (p, n))
    if p == 2:
        # the range 0 < |m| < 1 is empty: only the empty chain, weighing 1
        return ModPValue(p, int(n == 0))
    # the weak total comes scaled by n!, which p > n makes invertible
    total = _chain_residue(k, p, True)
    return ModPValue(p, total * pow(math.factorial(n), -1, p) % p)
