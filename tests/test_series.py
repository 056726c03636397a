"""Tests for truncated generating-function tables and the shuffle identity."""

import random
from fractions import Fraction

import pytest

from mzvkit.groupring import shuffle_operator
from mzvkit.indices import admissible_indices, indices_of_weight
from mzvkit.matrices import mat_mul, perm_matrix, substitution_forms, upper_ones
from mzvkit.numeric import eval_admissible, eval_combo
from mzvkit.polynomials import MultiPoly
from mzvkit.regularization import MzvCombo
from mzvkit.series import (
    SeriesTrunc,
    block_product,
    build_series,
    normalize_scheme,
    series_shuffle_check,
)


def z(*k):
    return MzvCombo.of_index(tuple(k))


class TestBuildSeries:
    def test_scheme_aliases(self):
        assert normalize_scheme("♮") == "natural"
        assert normalize_scheme("*") == "stuffle"
        assert normalize_scheme("#") == "shuffle"
        assert normalize_scheme("♯") == "shuffle"
        with pytest.raises(ValueError):
            normalize_scheme("qsh")

    def test_depth_one_stuffle(self):
        s = build_series("stuffle", 1, 4)
        assert s.coefficient((1,)).is_zero()
        assert s.coefficient((2,)) == z(2)
        assert s.coefficient((3,)) == z(3)
        # a numeric cell is its combination evaluated, bit for bit
        assert eval_combo(s.coefficient((2,)), 50).value == eval_admissible((2,), 50).value

    def test_admissible_coefficient_is_plain_value(self):
        s = build_series("*", 2, 4)
        assert s.coefficient((2, 2)) == z(2, 2)
        assert s.coefficient((1, 3)) == z(1, 3)

    def test_natural_depth_two_values(self):
        s = build_series("natural", 2, 4)
        # weighted surjection sum: half of the collapsed index joins in
        assert s.coefficient((1, 1)).is_zero()
        assert s.coefficient((1, 2)) == z(1, 2) + z(3).scaled(Fraction(1, 2))
        assert s.coefficient((2, 2)) == z(2, 2) + z(4).scaled(Fraction(1, 2))

    def test_natural_depth_one_equals_stuffle(self):
        a = build_series("natural", 1, 5)
        b = build_series("stuffle", 1, 5)
        assert a.terms == b.terms

    def test_depth_zero(self):
        s = build_series("natural", 0, 3)
        assert s.coefficient(()) == MzvCombo.one()

    def test_index_enumeration(self):
        s = build_series("natural", 2, 4)
        assert s.indices() == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]

    def test_indices_include_zero_cells(self):
        # (1,1) is a zero cell: not stored, but part of the domain
        s = build_series("natural", 2, 4)
        assert (1, 1) not in s.terms and (1, 1) in s.indices()
        assert SeriesTrunc(2, 4, {}).indices() == s.indices()
        assert build_series("stuffle", 2, 4, admissible_only=True).indices() == s.indices()

    def test_weight_bound_guard(self):
        with pytest.raises(ValueError):
            build_series("natural", 3, 2)
        with pytest.raises(ValueError):
            SeriesTrunc(2, 4, {(2, 3): MzvCombo.zero()})
        with pytest.raises(TypeError):
            SeriesTrunc(1, 3, {(2,): Fraction(1)})


def _random_table(rng, n, K):
    """A depth-n table with random rational combinations of a few
    admissible values, some cells left empty."""
    values = [k for w in (2, 3, 4) for k in admissible_indices(w)]
    table = {}
    for w in range(n, K + 1):
        for k in indices_of_weight(w, n):
            if rng.random() < 0.7:
                table[k] = MzvCombo({v: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                                     for v in rng.sample(values, 2)})
    return SeriesTrunc(n, K, table)


def _pairwise(cells):
    """Reference sum of (index, MzvCombo) cells, one pairwise addition at
    a time."""
    out = {}
    for k, v in cells:
        out[k] = out[k] + v if k in out else v
    return out


class TestSeriesAlgebra:
    def test_sums_from_combination(self):
        rng = random.Random(7)
        s, t = _random_table(rng, 2, 5), _random_table(rng, 2, 5)
        total, diff = s + t, s - t
        for k in s.indices():
            assert total.coefficient(k) == s.coefficient(k) + t.coefficient(k)
            assert diff.coefficient(k) == s.coefficient(k) - t.coefficient(k)
            assert (-s).coefficient(k) == -s.coefficient(k)
        assert (s - s).is_zero() and not (s - s)
        assert s + s == s.scaled(2) == 2 * s
        assert s == SeriesTrunc(2, 5, dict(s.terms)) and s != t
        assert hash(s) == hash(SeriesTrunc(2, 5, dict(s.terms)))
        assert s.combined([(1, t), (-1, t)]) == s

    def test_shape_mismatch_rejected(self):
        s = build_series("natural", 2, 5)
        for other in (build_series("natural", 2, 4), build_series("natural", 3, 5)):
            with pytest.raises(ValueError):
                s + other
            with pytest.raises(ValueError):
                s - other
        with pytest.raises(TypeError):
            s + z(2)
        with pytest.raises(TypeError):
            s * s

    def test_act_matrix_matches_pairwise_sums(self):
        rng = random.Random(43)
        for n, gammas in [(2, [upper_ones(2), mat_mul(upper_ones(2), perm_matrix((2, 1)))]),
                          (3, [upper_ones(3), mat_mul(perm_matrix((3, 1, 2)), upper_ones(3))])]:
            s = _random_table(rng, n, 6)
            for gamma in gammas:
                cells = []
                forms = substitution_forms(gamma)
                for k, v in s.terms.items():
                    expansion = MultiPoly.monomial(tuple(e - 1 for e in k)).substitute(forms)
                    cells += [(tuple(e + 1 for e in expo), v.scaled(q))
                              for expo, q in expansion.terms.items()]
                assert s.act_matrix(gamma) == SeriesTrunc(n, 6, _pairwise(cells))

    def test_shuffle_defect_matches_pairwise_sums(self):
        rng = random.Random(44)
        n, i, K = 3, 1, 6
        left, right, full = (_random_table(rng, d, K) for d in (i, n - i, n))
        lhs = block_product(left, right, K)
        sigmas = sorted(shuffle_operator(n, i).support())
        defect = lhs.combined((-1, full.permute(sigma)) for sigma in sigmas)
        cells = list(lhs.terms.items())
        for sigma in sigmas:
            cells += [(k, -v) for k, v in full.permute(sigma).terms.items()]
        assert defect == SeriesTrunc(n, K, _pairwise(cells))
        assert not defect.is_zero()


class TestSeriesActions:
    def test_permute_transport(self):
        table = {(1, 2): z(3), (2, 1): z(1, 2).scaled(2)}
        s = SeriesTrunc(2, 3, table)
        swapped = s.permute((2, 1))
        assert swapped.coefficient((2, 1)) == z(3)
        assert swapped.coefficient((1, 2)) == z(1, 2).scaled(2)

    def test_permute_matches_matrix_action(self):
        rng = random.Random(41)
        s = build_series("natural", 3, 5)
        for _ in range(5):
            sigma = tuple(rng.sample(range(1, 4), 3))
            a = s.permute(sigma)
            b = s.act_matrix(perm_matrix(sigma))
            assert a == b

    def test_action_contravariant(self):
        s = build_series("natural", 2, 5)
        g1 = upper_ones(2)
        g2 = perm_matrix((2, 1))
        lhs = s.act_matrix(mat_mul(g1, g2))
        rhs = s.act_matrix(g1).act_matrix(g2)
        assert lhs == rhs

    def test_action_preserves_weight(self):
        s = build_series("natural", 2, 5)
        acted = s.act_matrix(upper_ones(2))
        assert all(sum(k) <= 5 for k in acted.terms)

    def test_action_matches_polynomial_model(self):
        # a table whose every value is a rational multiple of one fixed
        # symbol transforms exactly like the rational polynomial
        rng = random.Random(42)
        n, K = 2, 5
        ratios = {}
        table = {}
        for w in range(n, K + 1):
            for k in [(a, w - a) for a in range(1, w)]:
                q = Fraction(rng.randrange(-5, 6))
                ratios[k] = q
                table[k] = z(2).scaled(q)
        s = SeriesTrunc(n, K, table)
        poly = MultiPoly(n, {tuple(p - 1 for p in k): q
                             for k, q in ratios.items() if q})
        gamma = mat_mul(upper_ones(2), perm_matrix((2, 1)))
        acted_series = s.act_matrix(gamma)
        from mzvkit.matrices import act_matrix as act_poly
        acted_poly = act_poly(poly, gamma)
        for k in acted_series.indices():
            expo = tuple(p - 1 for p in k)
            assert acted_series.coefficient(k) == z(2).scaled(acted_poly.coefficient(expo))

    def test_block_product(self):
        a = build_series("stuffle", 1, 5)
        b = build_series("stuffle", 1, 5)
        prod = block_product(a, b, 5)
        # symbolic values multiply through the quasi-shuffle expansion
        assert prod.coefficient((2, 3)) == z(2, 3) + z(3, 2) + z(5)
        assert prod.n == 2
        assert all(sum(k) <= 5 for k in prod.terms)

    def test_block_product_bound_beyond_factors_rejected(self):
        # at K = 8 the factor cells up to weight 7 would be needed, but the
        # tables stop at 3: the product would hold 4 of its 15 cells
        a = build_series("natural", 1, 3)
        with pytest.raises(ValueError, match="weight bound 8"):
            block_product(a, a, K=8)
        # min(a.K + b.n, b.K + a.n) = 4 is the largest bound allowed
        assert block_product(a, a, K=4).terms == {(2, 2): z(2) * z(2)}


class TestShuffleIdentity:
    def test_weighted_scheme_defect_vanishes(self):
        d = series_shuffle_check(2, 1, 5, digits=50)
        assert d.is_zero()

    def test_weighted_scheme_cancels_symbolically(self):
        # the identity holds term by term in the quasi-shuffle algebra, so
        # the symbolic difference is empty before any numerics
        for n, i, K in [(2, 1, 6), (3, 2, 6)]:
            left = build_series("natural", i, K)
            right = build_series("natural", n - i, K)
            full = build_series("natural", n, K)
            lhs = block_product(left, right, K)
            rhs = None
            for sigma in sorted(shuffle_operator(n, i).support()):
                acted = full.permute(sigma)
                rhs = acted if rhs is None else rhs + acted
            assert (lhs - rhs).is_zero()

    def test_admissible_truncation_breaks_identity(self):
        d = series_shuffle_check(2, 1, 5, scheme="stuffle",
                                 admissible_only=True, digits=40)
        assert not d.is_zero()
        assert float(d) > 0.1

    def test_plain_stuffle_scheme_has_defect(self):
        d = series_shuffle_check(2, 1, 5, scheme="stuffle", digits=40)
        assert float(d) > 1.0

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            series_shuffle_check(2, 2, 5)
        with pytest.raises(ValueError):
            series_shuffle_check(2, 0, 5)
