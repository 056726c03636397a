"""Tests for exact sparse polynomial arithmetic."""

import random
from fractions import Fraction
from math import comb

import pytest

from mzvkit.groupring import compose
from mzvkit.polynomials import (
    MultiPoly,
    diagonal_translation_invariant,
    monomial_exponents,
    substituted_monomials,
)


def x(i, n):
    return MultiPoly.variable(i, n)


def random_poly(rng, n, max_deg, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = tuple(rng.randrange(0, max_deg + 1) for _ in range(n))
        terms[expo] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return MultiPoly(n, terms)


class TestArithmetic:
    def test_square_expansion(self):
        f = x(1, 2) + x(2, 2)
        assert f * f == MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_zero_cancellation(self):
        f = x(1, 2) - x(1, 2)
        assert f.is_zero()
        assert f.terms == {}

    def test_scalar_ops(self):
        f = x(1, 1)
        assert f.scaled(Fraction(1, 2)) == Fraction(1, 2) * f
        assert (2 * f).coefficient((1,)) == 2
        assert f.scaled(0).is_zero()

    def test_pow(self):
        f = x(1, 2) - x(2, 2)
        assert f ** 3 == f * f * f
        assert f ** 0 == MultiPoly.one(2)
        with pytest.raises(ValueError):
            f ** -1

    def test_results_hold_no_zero_coefficient(self):
        f = MultiPoly(2, {(2, 0): Fraction(1, 3), (0, 1): -2})
        assert (f - f).terms == {}
        assert (f + (-f)).terms == {}
        assert f.scaled(0).terms == {}
        # the cross terms x1*x2 cancel
        square = (x(1, 2) - x(2, 2)) * (x(1, 2) + x(2, 2))
        assert square.terms == {(2, 0): 1, (0, 2): -1}
        assert (f - f).substitute([x(1, 3), x(2, 3)]).terms == {}
        assert (x(1, 2) + x(2, 2)).substitute([x(1, 1), -x(1, 1)]).terms == {}

    def test_coefficient_guards(self):
        with pytest.raises(TypeError):
            MultiPoly(1, {(1,): 0.5})
        with pytest.raises(TypeError):
            MultiPoly(1, {(1,): True})
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(1, {(-1,): 1})

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            x(1, 2) + x(1, 3)

    def test_degree_and_parts(self):
        f = MultiPoly(2, {(3, 1): 2, (1, 1): -1, (0, 0): 5})
        assert f.degree() == 4
        assert MultiPoly.zero(2).degree() == -1
        assert f.homogeneous_part(2) == MultiPoly(2, {(1, 1): -1})
        assert not f.is_homogeneous()
        assert f.homogeneous_part(4).is_homogeneous()

    def test_monomial_count(self):
        for n in (1, 2, 3, 4):
            for d in range(0, 6):
                assert len(monomial_exponents(n, d)) == comb(n + d - 1, n - 1)


class TestCalculus:
    def test_partial_monomial(self):
        f = MultiPoly(2, {(2, 1): 1})
        assert f.partial(1) == MultiPoly(2, {(1, 1): 2})
        assert f.partial(2) == MultiPoly(2, {(2, 0): 1})

    def test_partial_product_rule(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_poly(rng, 3, 3)
            g = random_poly(rng, 3, 3)
            for i in (1, 2, 3):
                assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)

    def test_partials_commute(self):
        rng = random.Random(12)
        for _ in range(10):
            f = random_poly(rng, 3, 4)
            assert f.partial(1).partial(2) == f.partial(2).partial(1)


class TestSubstitution:
    def test_substitute_agrees_with_evaluation(self):
        rng = random.Random(13)
        for _ in range(15):
            f = random_poly(rng, 2, 3)
            g1 = random_poly(rng, 3, 2, max_terms=3)
            g2 = random_poly(rng, 3, 2, max_terms=3)
            h = f.substitute([g1, g2])
            pt = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3)]
            assert h.evaluate(pt) == f.evaluate([g1.evaluate(pt), g2.evaluate(pt)])

    def test_substitute_changes_variable_count(self):
        f = x(1, 1) ** 2
        g = f.substitute([x(2, 3) - x(1, 3)])
        assert g.nvars == 3
        assert g == (x(2, 3) - x(1, 3)) * (x(2, 3) - x(1, 3))

    def test_substitute_into_no_variables(self):
        # a polynomial in no variables is a constant, and stays one
        for value in (0, 5, Fraction(-2, 3)):
            c = MultiPoly.constant(0, value)
            assert c.substitute([]) == c and c.substitute([]).nvars == 0
        with pytest.raises(ValueError):
            MultiPoly.one(0).substitute([x(1, 1)])

    def test_substituted_monomials_into_more_variables(self):
        # x_1 -> y_1 - y_3 and x_2 -> 2 y_2, over int coefficients
        reps = [{(1, 0, 0): 1, (0, 0, 1): -1}, {(0, 1, 0): 2}]
        images = substituted_monomials([(0, 0), (2, 1), (1, 0), (0, 2)], reps, 3)
        assert images == [{(0, 0, 0): 1}, {(2, 1, 0): 2, (1, 1, 1): -4, (0, 1, 2): 2},
                          reps[0], {(0, 2, 0): 4}]
        assert all(type(c) is int for image in images for c in image.values())

    def test_substitute_high_degree(self):
        # one multiplication per degree, 1500 deep, past the default stack
        assert (MultiPoly.monomial((1500,)).substitute([2 * x(1, 1)])
                == MultiPoly.monomial((1500,), 2 ** 1500))

    def test_substitute_arity_check(self):
        with pytest.raises(ValueError):
            x(1, 2).substitute([x(1, 2)])

    def test_divide_by_variable(self):
        f = x(1, 2) * (x(1, 2) - 2 * x(2, 2))
        assert f.divide_by_variable(1) == x(1, 2) - 2 * x(2, 2)
        with pytest.raises(ValueError):
            (x(1, 2) + x(2, 2)).divide_by_variable(1)

    def test_permute_variables_formula(self):
        # g(x) = f applied to sigma-inverse-indexed variables, checked pointwise
        rng = random.Random(14)
        sigma = (3, 1, 2)
        inv = (2, 3, 1)
        for _ in range(10):
            f = random_poly(rng, 3, 3)
            g = f.permute_variables(sigma)
            pt = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
            assert g.evaluate(pt) == f.evaluate([pt[inv[j] - 1] for j in range(3)])

    def test_permute_variables_composes(self):
        rng = random.Random(15)
        for _ in range(10):
            f = random_poly(rng, 4, 3)
            s = tuple(rng.sample(range(1, 5), 4))
            t = tuple(rng.sample(range(1, 5), 4))
            assert (f.permute_variables(compose(s, t))
                    == f.permute_variables(s).permute_variables(t))

    def test_is_symmetric(self):
        assert (x(1, 2) + x(2, 2)).is_symmetric()
        assert not (x(1, 2) - x(2, 2)).is_symmetric()
        e2 = x(1, 3) * x(2, 3) + x(1, 3) * x(3, 3) + x(2, 3) * x(3, 3)
        assert e2.is_symmetric()


class TestDiagonalTranslation:
    def test_listed_examples(self):
        assert diagonal_translation_invariant(x(1, 2) - x(2, 2))
        assert not diagonal_translation_invariant(x(1, 2))
        f = (x(1, 3) - x(3, 3)) * (x(2, 3) - x(3, 3))
        assert diagonal_translation_invariant(f)

    def test_matches_translation_identity(self):
        # invariance along the diagonal means adding t to every variable
        # leaves the polynomial unchanged; check with t as an extra variable
        rng = random.Random(16)
        for _ in range(20):
            n = rng.choice((2, 3))
            f = random_poly(rng, n, 3)
            t = MultiPoly.variable(n + 1, n + 1)
            shifted = f.substitute([MultiPoly.variable(i, n + 1) + t
                                    for i in range(1, n + 1)])
            plain = f.substitute([MultiPoly.variable(i, n + 1)
                                  for i in range(1, n + 1)])
            assert diagonal_translation_invariant(f) == (shifted == plain)
