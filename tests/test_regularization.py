"""Tests for the two regularization schemes and the combo arithmetic.

Expected polynomials below were derived by hand from the defining
recursions and cross-checked against the classical closed forms
(e.g. the depth-one-repeated series value exp(Tu - sum (-u)^k zeta(k)/k)).
"""

import json
from fractions import Fraction

import pytest

from mzvkit.indices import (
    admissible_indices,
    indices_of_weight,
    shuffle_words,
    stuffle,
    weight,
    word_of_index,
)
from mzvkit.regularization import (
    MzvCombo,
    RegPoly,
    associator_coefficient,
    natural_regularize,
    regularize,
    shuffle_regularize,
    stuffle_regularize,
)


def z(*k):
    return MzvCombo.of_index(tuple(k))


def poly(combo):
    return RegPoly.of_combo(combo)


T = RegPoly.T()
half = Fraction(1, 2)


# ---------------------------------------------------------------------------
# combo arithmetic

def test_combo_constants():
    assert MzvCombo.zero().is_zero()
    assert MzvCombo.one() == MzvCombo.of_rational(1)
    assert z(2) + z(2) == z(2).scaled(2)
    assert (z(2) - z(2)).is_zero()
    assert -z(3) == z(3).scaled(-1)


def test_combo_rejects_bad_terms():
    with pytest.raises(ValueError):
        MzvCombo({(1,): Fraction(1)})       # non-admissible key
    with pytest.raises(ValueError):
        MzvCombo({(2, 1): Fraction(1)})
    with pytest.raises(TypeError):
        MzvCombo({(2,): 0.5})               # floats are not exact
    with pytest.raises(TypeError):
        MzvCombo({(2,): True})


def test_arithmetic_results_hold_no_zero_coefficient():
    assert (z(2) - z(2)).terms == {}
    assert (z(2) + z(3) + (-z(3))).terms == {(2,): 1}
    assert z(2).scaled(Fraction(1, 3)).scaled(3) == z(2)
    # the (2,3), (3,2) and (5,) terms of the cross products cancel
    prod = (z(2) - z(3)) * (z(2) + z(3))
    assert prod.terms == {(2, 2): 2, (4,): 1, (3, 3): -2, (6,): -1}
    assert prod == z(2) * z(2) - z(3) * z(3)
    assert ((z(2) - z(2)) * z(3)).terms == {}


def test_combo_product_weight_two_squares():
    # stuffle expansion of a product of single values
    assert z(2) * z(2) == MzvCombo({(2, 2): 2, (4,): 1})
    assert z(2) * z(3) == MzvCombo({(2, 3): 1, (3, 2): 1, (5,): 1})
    assert MzvCombo.one() * z(5) == z(5)
    assert (MzvCombo.zero() * z(2)).is_zero()


def test_combo_product_matches_public_stuffle():
    indices = [k for w in range(7) for k in admissible_indices(w)]
    for k1 in indices:
        for k2 in indices:
            assert z(*k1) * z(*k2) == MzvCombo(stuffle(k1, k2)), (k1, k2)
    a = MzvCombo({k: Fraction(i + 1, 3) for i, k in enumerate(admissible_indices(5))})
    b = z(2) - z(1, 2).scaled(4)
    expected = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            for term, mult in stuffle(k1, k2).items():
                expected[term] = expected.get(term, 0) + c1 * c2 * mult
    assert a * b == MzvCombo(expected)


def test_combo_product_associative_commutative():
    a, b, c = z(2), z(3), z(1, 2)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_combo_json_round_trip():
    combo = z(2, 2).scaled(2) + z(4).scaled(Fraction(-3, 7))
    text = json.dumps(combo.to_json_obj())
    assert MzvCombo.from_json_obj(json.loads(text)) == combo


def test_regpoly_json_round_trip():
    p = stuffle_regularize((2, 1))
    text = json.dumps(p.to_json_obj())
    assert RegPoly.from_json_obj(json.loads(text)) == p


def test_regpoly_rejects_negative_degree():
    with pytest.raises(ValueError):
        RegPoly({-1: MzvCombo.one()})


# ---------------------------------------------------------------------------
# series scheme

def test_series_fixes_admissible():
    for w in range(2, 7):
        for k in admissible_indices(w):
            assert stuffle_regularize(k) == RegPoly.of_index(k)


def test_series_depth_one():
    assert stuffle_regularize((1,)) == T


def test_series_one_one():
    # value(1)^2 = 2 value(1,1) + value(2)
    expect = (T * T - poly(z(2))).scaled(half)
    assert stuffle_regularize((1, 1)) == expect


def test_series_two_one():
    expect = T * poly(z(2)) - poly(z(1, 2) + z(3))
    assert stuffle_regularize((2, 1)) == expect


def test_series_one_one_one():
    # classical closed form T^3/6 - T z(2)/2 + z(3)/3
    expect = (T * T * T).scaled(Fraction(1, 6)) \
        - T.scaled(half) * poly(z(2)) + poly(z(3).scaled(Fraction(1, 3)))
    assert stuffle_regularize((1, 1, 1)) == expect


def test_series_is_stuffle_homomorphism():
    # the defining property, checked exactly on every pair up to total weight 6
    pairs = []
    for wa in range(1, 6):
        for wb in range(1, 7 - wa):
            for u in indices_of_weight(wa):
                for v in indices_of_weight(wb):
                    pairs.append((u, v))
    for u, v in pairs:
        lhs = stuffle_regularize(u) * stuffle_regularize(v)
        rhs = RegPoly.zero()
        for term, mult in stuffle(u, v).items():
            rhs = rhs + stuffle_regularize(term).scaled(mult)
        assert lhs == rhs, (u, v)


def test_series_homogeneous_in_weight():
    # T^j coefficient only involves indices of weight w - j
    for w in range(1, 8):
        for k in indices_of_weight(w):
            p = stuffle_regularize(k)
            for j, combo in p.terms.items():
                assert combo.weights() == {w - j}, (k, j)


# ---------------------------------------------------------------------------
# integral scheme

def test_shuffle_fixes_admissible_words():
    for w in range(2, 7):
        for k in admissible_indices(w):
            assert shuffle_regularize(word_of_index(k)) == RegPoly.of_index(k)


def test_shuffle_pure_b_powers():
    assert shuffle_regularize("") == RegPoly.of_index(())
    assert shuffle_regularize("B") == T
    fact = 1
    p = RegPoly.of_index(())
    for r in range(1, 6):
        fact *= r
        p = p * T
        assert shuffle_regularize("B" * r) == p.scaled(Fraction(1, fact))


def test_shuffle_bab():
    # B shuffled with AB = BAB + 2 ABB
    expect = T * poly(z(2)) - poly(z(1, 2).scaled(2))
    assert shuffle_regularize("BAB") == expect


def test_shuffle_rejects_non_index_words():
    with pytest.raises(ValueError):
        shuffle_regularize("BA")
    with pytest.raises(ValueError):
        shuffle_regularize("A")
    with pytest.raises(ValueError):
        shuffle_regularize("XY")


def test_shuffle_compatible_with_b_power_multiplication():
    # value(u) T^j / j! must expand along the shuffle of u with B^j;
    # j = 2 genuinely exercises coherence beyond the defining j = 1 case.
    for wt in range(2, 5):
        for k in admissible_indices(wt):
            u = word_of_index(k)
            for j in (1, 2):
                fact = 1
                lhs = shuffle_regularize(u)
                for _ in range(j):
                    lhs = lhs * T
                for step in range(1, j + 1):
                    fact *= step
                lhs = lhs.scaled(Fraction(1, fact))
                rhs = RegPoly.zero()
                for term, mult in shuffle_words(u, "B" * j).items():
                    rhs = rhs + shuffle_regularize(term).scaled(mult)
                # mult of u B^j ... each interleaving counted once; the
                # B^j factor itself contributes j! internal orderings only
                # once because shuffle_words treats letters as identical
                assert lhs == rhs, (u, j)


def test_shuffle_differs_from_series_at_depth_two():
    # the two schemes disagree already at (1,1): series has a -z(2)/2
    # constant term, the integral scheme does not
    s = stuffle_regularize((1, 1))
    i = shuffle_regularize("BB")
    assert s != i
    assert (i - s).constant_term() == z(2).scaled(half)


def test_shuffle_homogeneous_in_weight():
    for w in range(1, 8):
        for k in indices_of_weight(w):
            p = shuffle_regularize(word_of_index(k))
            for j, combo in p.terms.items():
                assert combo.weights() == {w - j}, (k, j)


# ---------------------------------------------------------------------------
# associator coefficients

def test_associator_base_cases():
    assert associator_coefficient("") == MzvCombo.one()
    assert associator_coefficient("A").is_zero()
    assert associator_coefficient("B").is_zero()
    for r in range(2, 6):
        assert associator_coefficient("A" * r).is_zero()
        assert associator_coefficient("B" * r).is_zero()


def test_associator_weight_two_and_three():
    assert associator_coefficient("AB") == z(2)
    assert associator_coefficient("BA") == -z(2)
    assert associator_coefficient("AAB") == z(3)
    assert associator_coefficient("ABB") == z(1, 2)
    assert associator_coefficient("BAB") == z(1, 2).scaled(-2)


def test_associator_admissible_words():
    for w in range(2, 6):
        for k in admissible_indices(w):
            assert associator_coefficient(word_of_index(k)) == MzvCombo.of_index(k)


def _all_words(length):
    words = [""]
    for _ in range(length):
        words = [w + c for w in words for c in "AB"]
    return words


def test_associator_kills_single_letter_products():
    # coefficient map vanishes on (anything) shuffled with a single letter,
    # in both the trailing-A and the trailing-B stripping directions
    for n in range(1, 6):
        for u in _all_words(n):
            for letter in "AB":
                acc = MzvCombo.zero()
                for term, mult in shuffle_words(u, letter).items():
                    acc = acc + associator_coefficient(term).scaled(mult)
                assert acc.is_zero(), (u, letter)


# ---------------------------------------------------------------------------
# surjection-weighted scheme

def test_natural_small_cases():
    assert natural_regularize(()) == RegPoly.of_index(())
    assert natural_regularize((1,)) == T
    assert natural_regularize((1, 1)) == (T * T).scaled(half)


def test_natural_depth_two_closed_form():
    for k in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        expect = stuffle_regularize(k) \
            + stuffle_regularize((k[0] + k[1],)).scaled(half)
        assert natural_regularize(k) == expect, k


def test_natural_depth_three_closed_form():
    k = (2, 1, 1)
    expect = stuffle_regularize((2, 1, 1)) \
        + stuffle_regularize((3, 1)).scaled(half) \
        + stuffle_regularize((2, 2)).scaled(half) \
        + stuffle_regularize((4,)).scaled(Fraction(1, 6))
    assert natural_regularize(k) == expect


def test_regularize_dispatches_every_scheme_name():
    k = (2, 1, 1)
    for name in ("natural", "♮"):
        assert regularize(name, k) == natural_regularize(k)
    for name in ("stuffle", "*"):
        assert regularize(name, k) == stuffle_regularize(k)
    for name in ("shuffle", "♯", "#"):
        assert regularize(name, k) == shuffle_regularize(word_of_index(k))
    # a misspelt scheme is an error, not the shuffle regularization
    with pytest.raises(ValueError, match="unknown scheme"):
        regularize("stufle", k)


def test_natural_homogeneous_in_weight():
    for w in range(1, 7):
        for k in indices_of_weight(w):
            p = natural_regularize(k)
            for j, combo in p.terms.items():
                assert combo.weights() == {w - j}, (k, j)
