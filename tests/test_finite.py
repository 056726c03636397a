"""Finite-value tests.

The symbolic splitting sums are checked against extrapolated exact direct
sums (the defining limits), brute-force enumerations mod p, and hand-derived
frozen combinations.
"""

import itertools
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from mzvkit import finite
from mzvkit.finite import (
    ModPValue,
    is_prime,
    primes_in_range,
    zeta_A_component,
    zeta_F,
    zeta_F_sharp,
    zeta_natural_A_component,
    zeta_natural_F,
)
from mzvkit.indices import cone_weight, indices_of_weight, is_admissible, stuffle
from mzvkit.numeric import (
    direct_sum_F,
    direct_sum_natural,
    eval_combo,
    richardson_extrapolate,
)
from mzvkit.regularization import MzvCombo, RegPoly, stuffle_regularize


def z(*k):
    return MzvCombo.of_index(tuple(k))


def _extrapolated(sum_fn, k, jmax=8):
    seq = [sum_fn(k, 2 ** j) for j in range(1, jmax + 1)]
    ext = richardson_extrapolate(seq)
    with mp.workdps(50):
        return mpf(ext.numerator) / ext.denominator


# ---------------------------------------------------------------------------
# zeta_F

def test_zeta_F_frozen_values():
    assert zeta_F(()) == MzvCombo.one()
    for k in (1, 3, 5, 7):
        assert zeta_F((k,)).is_zero(), k
    for k in (2, 4, 6):
        assert zeta_F((k,)) == z(k).scaled(2), k
    assert zeta_F((1, 1)) == -z(2)
    assert zeta_F((2, 1)) == z(1, 2).scaled(-2) - z(3)


def test_zeta_F_matches_direct_sum_limit():
    for k in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        lim = _extrapolated(direct_sum_F, k)
        sym = eval_combo(zeta_F(k), 40)
        with mp.workdps(50):
            assert abs(lim - sym.value) < 1e-3, k


def test_zeta_F_total_is_t_free():
    # the splitting sum must collapse to T^0; zeta_F raises otherwise, so evaluating everywhere is the assertion
    for w in range(1, 8):
        for k in indices_of_weight(w):
            zeta_F(k)
            zeta_F_sharp(k)


def test_t_dependent_splitting_sum_raises_under_tail():
    # factors that keep a T part (here each nonempty factor gets + T) leave
    # T in the full splitting polynomial, which the check must reject
    def reg_with_t(j):
        poly = stuffle_regularize(j)
        return poly + RegPoly.T() if j else poly

    for k in [(2,), (2, 3), (1, 2, 2)]:
        poly = finite._antipode_poly(k, reg_with_t)
        assert poly.degree() > 0
        with pytest.raises(ArithmeticError, match="T-dependent"):
            finite._constant_term_checked(poly, k, "zeta_F")
        honest = finite._antipode_poly(k, stuffle_regularize)
        assert finite._constant_term_checked(honest, k, "zeta_F") == zeta_F(k)


# ---------------------------------------------------------------------------
# zeta_F_sharp

def test_zeta_F_sharp_frozen_values():
    assert zeta_F_sharp(()) == MzvCombo.one()
    for k in (1, 3, 5):
        assert zeta_F_sharp((k,)).is_zero(), k
    assert zeta_F_sharp((1, 1)).is_zero()
    assert zeta_F_sharp((2, 1)) == z(1, 2).scaled(-3)


def test_sharp_differs_from_series_by_weight_minus_two_multiple():
    # at (1,1) the two finite values differ exactly by the weight-2 value
    assert zeta_F_sharp((1, 1)) - zeta_F((1, 1)) == z(2)
    # at (2,1) the difference is z(3)-z(1,2), numerically zero
    d = zeta_F_sharp((2, 1)) - zeta_F((2, 1))
    assert d == z(3) - z(1, 2)
    assert eval_combo(d, 60).is_zero()


def test_product_rule_sharp_times_F():
    # eval(sharp(k)) * eval(F(k')) = sum of eval(sharp(k'')) over the
    # stuffle multiset, for k' with all parts >= 2
    ks = [k for w in range(1, 5) for k in indices_of_weight(w)]
    kprimes = [k for w in range(2, 5) for k in indices_of_weight(w)
               if all(part >= 2 for part in k)]
    for k in ks:
        for kp in kprimes:
            lhs = eval_combo(zeta_F_sharp(k), 50) * eval_combo(zeta_F(kp), 50)
            rhs = None
            for term, mult in stuffle(k, kp).items():
                part = eval_combo(zeta_F_sharp(term), 50).scaled(mult)
                rhs = part if rhs is None else rhs + part
            diff = lhs - rhs
            with mp.workdps(70):
                assert abs(diff.value) < mpf(10) ** -40, (k, kp)


# ---------------------------------------------------------------------------
# zeta_natural_F

def test_natural_depth_two_is_F_plus_half_collapsed():
    for k in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (4, 4)]:
        expect = zeta_F(k) + zeta_F((k[0] + k[1],)).scaled(Fraction(1, 2))
        assert zeta_natural_F(k) == expect, k


def test_natural_one_one_vanishes_exactly():
    assert zeta_natural_F((1, 1)).is_zero()


def test_natural_totally_odd_vanishes_numerically():
    odd_parts = [1, 3, 5, 7]
    indices = [()]
    for depth in (1, 2, 3):
        for tup in itertools.product(odd_parts, repeat=depth):
            if sum(tup) <= 9:
                indices.append(tup)
    for k in indices[1:]:
        v = eval_combo(zeta_natural_F(k), 50)
        with mp.workdps(70):
            assert abs(v.value) < mpf(10) ** -40, k


def test_natural_totally_odd_vanishes_exactly():
    odd = [k for w in range(1, 11) for k in indices_of_weight(w) if all(part % 2 for part in k)]
    assert len(odd) == 143
    for k in odd:
        assert zeta_natural_F(k) == MzvCombo(0), k


def test_natural_matches_weighted_direct_sum_limit():
    # the defining limit, via extrapolation, depth <= 2 weight <= 5
    for w in range(1, 6):
        for k in indices_of_weight(w):
            if len(k) > 2:
                continue
            lim = _extrapolated(direct_sum_natural, k)
            sym = eval_combo(zeta_natural_F(k), 40)
            with mp.workdps(50):
                assert abs(lim - sym.value) < 1e-3, k


def test_natural_keys_are_admissible():
    for w in range(2, 7):
        for k in indices_of_weight(w):
            combo = zeta_natural_F(k)
            assert all(is_admissible(key) for key in combo.terms), k
            assert all(c != 0 for c in combo.terms.values()), k


# ---------------------------------------------------------------------------
# mod p

def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(-7) and not is_prime(True)


def test_depth_zero_components_are_one():
    for p in (2, 3, 101):
        for component in (zeta_A_component, zeta_natural_A_component):
            value = component((), p)
            assert value == ModPValue(p, 1)
            assert str(value) == "1 (mod %d)" % p


def test_inverse_table_built_once_per_prime():
    # the table holds the positive half m = 1..p//2 of the range
    assert finite._inverses(11) is finite._inverses(11)
    assert len(finite._inverses(11)) == 11 // 2 + 1
    inv, inv_sq = finite._inverse_powers(11, (1, 2))
    assert len(inv) == len(inv_sq) == 5
    for m in range(1, 6):
        assert inv[m - 1] * m % 11 == 1
        assert inv_sq[m - 1] * m * m % 11 == 1


def test_power_tables_match_pow():
    # each column is m^-a mod p over the half m = 1..p//2, and the other
    # half follows by the reflection (p-m)^-a = (-1)^a m^-a
    for p in primes_in_range(2, 1000):
        columns = finite._inverse_powers(p, (1, 2, 3, 4))
        for a, column in zip((1, 2, 3, 4), columns):
            assert column == [pow(m, -a, p) for m in range(1, p // 2 + 1)], (p, a)
            for m, x in enumerate(column, 1):
                assert pow(p - m, -a, p) == (-1) ** a * x % p, (p, a, m)


def test_inverse_tables_are_bounded():
    bound = finite._inverses.cache_info().maxsize
    assert bound is not None
    sweep = primes_in_range(2, 2000)
    assert len(sweep) > bound
    for p in sweep:
        zeta_A_component((1,), p)
    assert finite._inverses.cache_info().currsize <= bound


def test_zeta_A_rejects_composite():
    with pytest.raises(ValueError):
        zeta_A_component((2,), 9)


def test_zeta_A_depth_one_frozen():
    # sum of inverses mod 7: 1+4+5+2+3+6 = 21 = 0
    assert zeta_A_component((1,), 7) == ModPValue(7, 0)
    inv_sum = sum(pow(m, -1, 7) for m in range(1, 7)) % 7
    assert inv_sum == 0
    for p in primes_in_range(3, 50):
        assert zeta_A_component((1,), p).residue == 0, p
    assert zeta_A_component((), 5) == ModPValue(5, 1)


def test_zeta_A_brute_force():
    for k in [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1, 3)]:
        for p in (5, 7, 11):
            total = 0
            for tup in itertools.combinations(range(1, p), len(k)):
                term = 1
                for m, e in zip(tup, k):
                    term = term * pow(m, -e, p) % p
                total = (total + term) % p
            assert zeta_A_component(k, p).residue == total, (k, p)


def test_zeta_A_square_identity():
    # 2 * value(1,1) = value(1)^2 - value(2) in F_p
    for p in (5, 7, 11, 13):
        z1 = zeta_A_component((1,), p).residue
        z2 = zeta_A_component((2,), p).residue
        z11 = zeta_A_component((1, 1), p).residue
        assert (2 * z11 - (z1 * z1 - z2)) % p == 0, p


def test_natural_A_rejects_shallow_prime():
    with pytest.raises(ValueError):
        zeta_natural_A_component((1, 1, 1), 3)
    with pytest.raises(ValueError):
        zeta_natural_A_component((1, 1), 2)
    with pytest.raises(ValueError):
        zeta_natural_A_component((2,), 8)


def test_natural_A_smallest_primes():
    # p = 2 leaves no 0 < |m| < p/2
    for k in [(1,), (2,), (3,)]:
        assert zeta_natural_A_component(k, 2) == ModPValue(2, 0), k
    # p = 3 leaves m = 1, -1: the ties (1, 1) and (-1, -1) weigh 1/2
    for k in [(1,), (3,), (1, 1)]:
        assert zeta_natural_A_component(k, 3) == ModPValue(3, 0), k
    assert zeta_natural_A_component((2,), 3) == ModPValue(3, 2)
    assert zeta_natural_A_component((1, 2), 3) == ModPValue(3, 1)  # 1/2 + 1 - 1/2
    assert zeta_natural_A_component((2, 1), 3) == ModPValue(3, 2)  # 1/2 - 1 - 1/2


def test_natural_A_brute_force_via_cone_weight():
    # weighted weak chains over 0<|m|<p/2, with exact rational weights
    # reduced mod p afterwards; depth 4 takes every binomial tie weight
    # C(j, i) of the weak kernel, j <= 4
    for k in [(2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 3), (1, 1, 1, 1), (3, 1, 1, 2)]:
        for p in (5, 7, 11, 13):
            half = (p - 1) // 2
            vals = [m for m in range(1, half + 1)] + \
                   [-m for m in range(1, half + 1)]
            total = 0
            for tup in itertools.product(vals, repeat=len(k)):
                w = cone_weight(tup)
                if not w:
                    continue
                num, den = w.numerator, w.denominator
                term = num * pow(den, -1, p) % p
                for m, e in zip(tup, k):
                    term = term * pow(m % p, -e, p) % p
                total = (total + term) % p
            assert zeta_natural_A_component(k, p).residue == total, (k, p)


def test_natural_A_brute_force_over_weak_chains_of_signed_m():
    # the weak chains of 0 < |m| < p/2 in the 1/m order 1..h, -h..-1,
    # enumerated as weakly increasing positions, each maximal run of r
    # equal entries weighing 1/r!; the residues of that order are 1..p-1
    for p in (5, 7, 11, 13):
        half = (p - 1) // 2
        signed = list(range(1, half + 1)) + list(range(-half, 0))
        assert [m % p for m in signed] == list(range(1, p))
        for k in [(2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 3), (1, 1, 1, 1),
                  (3, 1, 1, 2)]:
            total = 0
            for chain in itertools.combinations_with_replacement(signed, len(k)):
                term = 1
                for _, run in itertools.groupby(chain):
                    term = term * pow(math.factorial(len(list(run))), -1, p) % p
                for m, e in zip(chain, k):
                    term = term * pow(m, -e, p) % p
                total = (total + term) % p
            assert zeta_natural_A_component(k, p).residue == total, (k, p)


def test_natural_A_matches_exact_rational_reduction():
    # same range, so the F_p value is the reduction of the exact rational
    # truncated sum (denominators only involve primes below p)
    for k in [(2,), (2, 1), (1, 1, 2)]:
        for p in (7, 11, 13, 17):
            half = (p - 1) // 2
            exact = direct_sum_natural(k, half + 1)
            expected = exact.numerator * pow(exact.denominator, -1, p) % p
            assert zeta_natural_A_component(k, p).residue == expected, (k, p)


def test_natural_A_totally_odd_vanishes():
    for k in [(1,), (3,), (1, 1), (3, 1), (1, 3), (1, 1, 1), (3, 3, 1)]:
        for p in primes_in_range(5, 60):
            assert zeta_natural_A_component(k, p).residue == 0, (k, p)


def test_natural_A_depth_one_even_example():
    # p=7: 2*(1 + 1/4 + 1/9) = 2*(1+2+4) = 14 = 0 mod 7
    assert zeta_natural_A_component((2,), 7).residue == 0
    brute = 2 * (1 + pow(4, -1, 7) + pow(9, -1, 7)) % 7
    assert brute == 0
