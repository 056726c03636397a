"""The four chain sums against literal loops over their whole ranges.

`numeric.signed_chain_total` sums over the positive half of a range and
joins the halves by the reflection m -> -m.  The loops here use no
reflection: each takes the position tuples of the whole range from
`itertools` in its order (`combinations` for strict chains,
`combinations_with_replacement` for weak ones), weighs a weak chain by
1/r! for each maximal run of r equal positions, and multiplies the
powers of the chosen m.
"""

import itertools
import math
from fractions import Fraction

import pytest

from mzvkit import finite
from mzvkit.finite import primes_in_range, zeta_A_component, zeta_natural_A_component
from mzvkit.indices import compositions
from mzvkit.numeric import direct_sum_F, direct_sum_natural

# weight <= 6 and depth <= 3: palindromes such as (2,), (1, 1), (2, 1, 2) and
# non-palindromes such as (2, 1), (1, 1, 3), (3, 1, 2)
INDICES = [k for w in range(1, 7) for n in range(1, 4) for k in compositions(w, n)]


def _chains(values, n, weak):
    """(chain, r_1! r_2! ..) for each chain of length n over `values` in order."""
    if not weak:
        return ((chain, 1) for chain in itertools.combinations(values, n))
    return ((chain, math.prod(math.factorial(len(list(run)))
                              for _, run in itertools.groupby(chain)))
            for chain in itertools.combinations_with_replacement(values, n))


def _signed(half):
    """0 < |m| <= half in the 1/m order: 1..half, then -half..-1."""
    return list(range(1, half + 1)) + list(range(-half, 0))


def _literal_mod_p(k, values, weak, p):
    total = 0
    for chain, ties in _chains(values, len(k), weak):
        term = pow(ties, -1, p)
        for m, e in zip(chain, k):
            term = term * pow(m, -e, p) % p
        total += term
    return total % p


def _literal_fraction(k, values, weak):
    total = Fraction(0)
    for chain, ties in _chains(values, len(k), weak):
        total += Fraction(1, ties * math.prod(m ** e for m, e in zip(chain, k)))
    return total


def test_indices_cover_palindromes_and_others():
    assert len(INDICES) == 41
    assert {(2, 1, 2), (1, 1), (3,)} <= set(INDICES)
    assert {(2, 1), (1, 1, 3), (3, 1, 2)} <= set(INDICES)


@pytest.mark.parametrize("p", primes_in_range(2, 31))
def test_residues_match_literal_loops(p):
    for k in INDICES:
        # zeta_A: 0 < m_1 < .. < m_n < p
        assert zeta_A_component(k, p).residue == _literal_mod_p(k, range(1, p), False, p), k
        # zeta^natural_A: weak chains of 0 < |m| < p/2, which needs p > depth
        if p > len(k):
            expected = _literal_mod_p(k, _signed(p // 2), True, p)
            assert zeta_natural_A_component(k, p).residue == expected, k


def _residues(k, p):
    """zeta_A and, when p > depth, zeta^natural_A of k at p."""
    natural = zeta_natural_A_component(k, p).residue if p > len(k) else None
    return zeta_A_component(k, p).residue, natural


def _literal_residues(k, p):
    natural = _literal_mod_p(k, _signed(p // 2), True, p) if p > len(k) else None
    return _literal_mod_p(k, range(1, p), False, p), natural


@pytest.mark.parametrize("p", primes_in_range(2, 31))
def test_reversed_pairs_match_literal_loops_in_either_order(p):
    # only one member of a reversal pair is summed; from an empty residue
    # cache, whichever of the pair comes first, both read the literal loops
    pairs = [k for k in INDICES if k < k[::-1]]
    assert len(pairs) == 13
    for first_reversed in (True, False):
        finite._member_residue.cache_clear()
        for k in pairs:
            order = (k[::-1], k) if first_reversed else (k, k[::-1])
            for x in order:
                assert _residues(x, p) == _literal_residues(x, p), (x, order)


@pytest.mark.parametrize("M", [1, 2, 5])
def test_direct_sums_match_literal_loops(M):
    for k in INDICES:
        assert direct_sum_F(k, M) == _literal_fraction(k, _signed(M - 1), False), k
        assert direct_sum_natural(k, M) == _literal_fraction(k, _signed(M - 1), True), k
