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

The mod-p values are literal finite sums in F_p: zeta_A_component over
0 < m_1 < ... < m_n < p, and zeta_natural_A_component the weighted weak-chain
sum over 0 < |m_i| < p/2 whose tie weights 1/r! require p > depth.  For
odd p = 2h + 1 the signed range in its 1/m order, 1..h, -h..-1, is 1..p-1
mod p, so both are numeric.chain_total over the same columns of m^-k_j
mod p for m = 1..p-1, one per slot, built by repeated column
multiplication from the table of inverses.  chain_total sums exact
integers, and the total is reduced mod p once, here.  The weak total comes
scaled by n! (the tie weights become binomials), so the natural value is
that total times (n!)^-1, which p > depth makes exist.
"""

import math
from array import array
from functools import lru_cache, partial
from typing import NamedTuple

from .indices import check_index, format_index, weight
from .numeric import chain_total, power_columns
from .regularization import MzvCombo, RegPoly, regularize, surjection_sum


def _antipode_poly(k, reg_of_index):
    return RegPoly.zero().combined(
        products=(((-1) ** weight(k[i:]), reg_of_index(k[:i]), reg_of_index(k[i:][::-1]))
                  for i in range(len(k) + 1)))


def _constant_term_checked(poly, k, label):
    if poly.degree() > 0:
        raise ArithmeticError(
            "%s(%s) produced T-dependent terms; the splitting sum should be "
            "T-free" % (label, format_index(k)))
    return poly.constant_term()


@lru_cache(maxsize=None)
def _zeta_F(k):
    return _constant_term_checked(_antipode_poly(k, partial(regularize, "stuffle")), k, "zeta_F")


def zeta_F(k):
    """Symbolic finite value with series-regularized factors, as an MzvCombo."""
    return _zeta_F(check_index(k))


@lru_cache(maxsize=None)
def _zeta_F_sharp(k):
    return _constant_term_checked(_antipode_poly(k, partial(regularize, "shuffle")), k,
                                  "zeta_F_sharp")


def zeta_F_sharp(k):
    """Finite value with integral-scheme (shuffle) regularized factors."""
    return _zeta_F_sharp(check_index(k))


def zeta_natural_F(k):
    """Surjection-weighted finite value: sum of zeta_F over collapsed indices,
    each divided by the order of the collapse's stabilizer."""
    # the module attribute _zeta_F is read at each call, so a wrapper put
    # in its place sees this work too
    return surjection_sum(k, _zeta_F, MzvCombo.zero())


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
    """Primes p with lo <= p <= hi, ascending."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def _check_prime(p):
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    return p


@lru_cache(maxsize=256)
def _inverses(p):
    """0, 1^-1, ..., (p-1)^-1 in F_p, built once per prime.

    Machine integers, not int objects: the tables of all primes below 1000
    hold 0.6 MB this way and 1.9 MB as tuples.  The cache keeps the 256
    primes used last (all 168 primes below 1000 fit), so a sweep over
    large primes does not hold a table of every one.
    """
    return array("q", [0] + [pow(m, -1, p) for m in range(1, p)])


def _inverse_powers(p, exponents):
    """Columns [m^-a mod p for m = 1..p-1], one per a in `exponents`."""
    return [[x % p for x in column]
            for column in power_columns(_inverses(p)[1:].tolist(), exponents)]


def zeta_A_component(k, p):
    """Sum over 0 < m_1 < ... < m_n < p of the inverse power product in F_p."""
    k = check_index(k)
    _check_prime(p)
    if not k:
        return ModPValue(p, 1 % p)
    return ModPValue(p, chain_total(_inverse_powers(p, k)) % p)


def zeta_natural_A_component(k, p):
    """Weighted weak-chain sum over 0 < |m_i| < p/2 in F_p.

    Tie runs of length r weigh 1/r!, so r! must be invertible: requires
    p > depth(k).
    """
    k = check_index(k)
    _check_prime(p)
    n = len(k)
    if n == 0:
        return ModPValue(p, 1 % p)
    if p <= n:
        raise ValueError("need p > depth for invertible tie weights, got "
                         "p=%d depth=%d" % (p, n))
    if p == 2:
        return ModPValue(p, 0)  # the range 0 < |m| < 1 is empty
    # for odd p = 2h + 1 the 1/m order 1..h, -h..-1 is 1..p-1 mod p; the
    # weak total comes scaled by n!, which p > n makes invertible
    total = chain_total(_inverse_powers(p, k), weak=True)
    return ModPValue(p, total % p * pow(math.factorial(n), -1, p) % p)
