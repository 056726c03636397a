"""Tests for the double shuffle spaces, the cyclic-invariance kernel, and
the translation-invariance properties.

Dimension tables below are frozen from runs of both elimination pivot
orders, which must agree; the depth-two pattern (nonzero only in even
degree, dimension floor(d/6)) matches the classical period-polynomial
count, which is an independent anchor for the whole pipeline.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from mzvkit import dsh, linalg
from mzvkit.dsh import (
    act_groupring,
    double_shuffle_space,
    cyclic_invariance_kernel,
    dimension_table,
    divided_difference,
    dsh_dimension,
    functional_equation_space,
    second_order_divergence,
    symmetric_dti_solutions,
    symmetric_slice_basis,
    vector_space_dimension,
)
from mzvkit.groupring import GroupRingElem, shuffle_operator
from mzvkit.linalg import PIVOT_ORDERS, nullspace, reduce_rows, span_equal
from mzvkit.matrices import (
    act_matrix,
    cyclic_action_matrix,
    mat_inverse_unimodular,
    upper_ones,
)
from mzvkit.polynomials import MultiPoly, monomial_exponents

DEPTH2_DIMS = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1,
               7: 0, 8: 1, 9: 0, 10: 1, 11: 0, 12: 2}
DEPTH3_DIMS = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 1}
DEPTH4_DIMS = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}


def random_poly(rng, n, max_deg, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = tuple(rng.randrange(0, max_deg + 1) for _ in range(n))
        terms[expo] = Fraction(rng.randrange(-9, 10))
    return MultiPoly(n, terms)


def satisfies_double_shuffle(f):
    n = f.nvars
    twisted = act_matrix(f, mat_inverse_unimodular(upper_ones(n)))
    for i in range(1, n):
        sh = shuffle_operator(n, i)
        if not act_groupring(f, sh).is_zero():
            return False
        if not act_groupring(twisted, sh).is_zero():
            return False
    return True


class TestDoubleShuffleSpace:
    def test_depth_one_is_everything(self):
        for d in range(0, 5):
            basis = double_shuffle_space(1, d)
            assert len(basis) == 1
            assert basis[0] == MultiPoly(1, {(d,): 1})

    def test_depth_two_dimension_table(self):
        assert dimension_table(2, range(0, 13)) == DEPTH2_DIMS

    def test_depth_three_dimension_table(self):
        assert dimension_table(3, range(0, 9)) == DEPTH3_DIMS

    def test_depth_four_dimension_table(self):
        assert dimension_table(4, range(0, 7)) == DEPTH4_DIMS

    def test_depth_two_even_degree_pattern(self):
        # floor(d/6) in even degree, the depth-two period polynomial count
        # (Gangl-Kaneko-Zagier), and 0 in odd degree
        dims = dimension_table(2, range(0, 25))
        assert dims == {d: 0 if d % 2 else d // 6 for d in range(0, 25)}
        assert {d: dims[d] for d in DEPTH2_DIMS} == DEPTH2_DIMS

    def test_basis_members_satisfy_conditions(self):
        for n, d in [(2, 6), (2, 8), (2, 10), (2, 12), (3, 8)]:
            basis = double_shuffle_space(n, d)
            assert basis, (n, d)
            for f in basis:
                assert f.is_homogeneous() and f.degree() == d
                assert satisfies_double_shuffle(f)

    def test_pivot_orders_agree_on_span(self):
        for n, d in [(2, 6), (2, 12), (3, 8)]:
            basis, rows = dsh._dsh_condition_rows(n, d)
            left, right = [nullspace(rows, len(basis), pivot_order=order)
                           for order in ("left", "right")]
            assert left and span_equal(left, right, len(basis))

    @pytest.mark.parametrize("solve, n, d", [
        (double_shuffle_space, 2, 10),
        (dsh_dimension, 2, 10),
        (cyclic_invariance_kernel, 1, 0),
        (symmetric_dti_solutions, 2, 0),
        (functional_equation_space, 1, 0),
    ], ids=["double_shuffle_space", "dsh_dimension", "cyclic_invariance_kernel",
            "symmetric_dti_solutions", "functional_equation_space"])
    def test_cross_check_wrapper(self, solve, n, d, monkeypatch):
        assert solve(n, d)
        # a right pivot order that loses the kernel must be caught
        exact = dsh.nullspace
        monkeypatch.setattr(dsh, "nullspace", lambda rows, ncols, pivot_order: (
            exact(rows, ncols, pivot_order=pivot_order) if pivot_order == "left" else []))
        with pytest.raises(ArithmeticError):
            solve(n, d)

    def test_cyclic_action_sign(self):
        # every basis member is an eigenvector of the cyclic matrix with
        # eigenvalue (-1)^degree
        for n in (2, 3):
            q = cyclic_action_matrix(n)
            for d in range(0, 9):
                for f in double_shuffle_space(n, d):
                    assert act_matrix(f, q) == f.scaled((-1) ** d)

    def test_vector_space_dimension(self):
        assert vector_space_dimension(2, 10) == 11
        assert vector_space_dimension(3, 4) == 15


class TestModularKernelMatchesBareiss:
    """Every solver gives the same output with the exact kernel over Q in
    place of dsh.nullspace, and no system of the grid needs that fallback."""

    GRID = [(n, d) for n in (1, 2, 3) for d in range(0, 7)] + [(4, 2), (4, 4)]
    EVEN = [(n, d) for n, d in GRID if d % 2 == 0]

    @staticmethod
    def check(monkeypatch, solve):
        exact = linalg._exact_nullspace
        fallbacks = []
        monkeypatch.setattr(linalg, "_exact_nullspace",
                            lambda *args: fallbacks.append(args) or exact(*args))
        modular = solve()
        assert fallbacks == []
        monkeypatch.setattr(dsh, "nullspace", exact)
        assert solve() == modular

    @pytest.mark.parametrize("solver, grid", [
        (double_shuffle_space, GRID),
        (cyclic_invariance_kernel, EVEN),
        (symmetric_dti_solutions, GRID),
        (functional_equation_space, GRID[:-1]),
    ], ids=["double_shuffle_space", "cyclic_invariance_kernel", "symmetric_dti_solutions",
            "functional_equation_space"])
    def test_solver(self, solver, grid, monkeypatch):
        self.check(monkeypatch, lambda: [solver(n, d) for n, d in grid])

    def test_solvers_of_both_orders(self, monkeypatch):
        self.check(monkeypatch, lambda: [dimension_table(n, range(0, 9 - n))
                                         for n in (1, 2, 3, 4)])


class TestConditionRows:
    """The integer condition rows against a reference built through
    act_groupring on MultiPoly, one family per operator, duplicates kept."""

    @staticmethod
    def reference_rows(n, d):
        basis = [MultiPoly.monomial(e) for e in monomial_exponents(n, d)]
        twisted = [act_matrix(f, mat_inverse_unimodular(upper_ones(n))) for f in basis]
        rows = []
        for i in range(1, n):
            sh = shuffle_operator(n, i)
            for family in (basis, twisted):
                images = [act_groupring(f, sh) for f in family]
                targets = sorted({e for img in images for e in img.terms})
                rows += [[img.coefficient(e) for img in images] for e in targets]
        return rows

    GRID = [(n, d) for n in (1, 2, 3) for d in range(0, 7)] + [(4, d) for d in range(0, 5)]

    def test_no_repeated_row(self):
        for n, d in self.GRID + [(3, 10), (4, 6)]:
            _, rows = dsh._dsh_condition_rows(n, d)
            assert len({frozenset(row.items()) for row in rows}) == len(rows), (n, d)

    def test_integer_entries(self):
        for n, d in [(2, 6), (3, 6), (4, 4)]:
            _, rows = dsh._dsh_condition_rows(n, d)
            assert all(type(x) is int for row in rows for x in row.values())
            assert all(x != 0 for row in rows for x in row.values())

    def test_same_row_space_as_reference(self):
        for n, d in self.GRID:
            basis, rows = dsh._dsh_condition_rows(n, d)
            assert basis == [MultiPoly.monomial(e) for e in monomial_exponents(n, d)]
            rows = [tuple(row.get(c, 0) for c in range(len(basis))) for row in rows]
            reference = self.reference_rows(n, d)
            assert reduce_rows(rows, len(basis)) == reduce_rows(reference, len(basis)), (n, d)
            # the same rows, in the same order, each kept at its first occurrence
            assert rows == list(dict.fromkeys(map(tuple, reference))), (n, d)

    def test_twisted_images_at_random_points(self, monkeypatch):
        # the P^-1 twist of x^e, evaluated at x in plain Fractions, is the
        # monomial at y = x P, whose coordinates are y_j = x_1 + ... + x_j
        substitute, calls = dsh.substituted_monomials, []

        def recording(*args):
            calls.append((args, substitute(*args)))
            return calls[-1][1]
        monkeypatch.setattr(dsh, "substituted_monomials", recording)
        rng = random.Random(43)
        for n, d in self.GRID:
            dsh._dsh_condition_rows(n, d)
            (exponents, _, nvars), twisted = calls.pop()
            assert exponents == monomial_exponents(n, d) and nvars == n and not calls
            for _ in range(3):
                x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)]
                y = [sum(x[:j + 1]) for j in range(n)]
                for e, image in zip(exponents, twisted):
                    assert all(type(c) is int for c in image.values()), (n, d, e)
                    value = sum(c * prod(map(pow, x, k)) for k, c in image.items())
                    assert value == prod(map(pow, y, e)), (n, d, e)

    def test_half_the_rows_were_duplicates(self):
        for n, d, before, after in [(3, 10, 264, 132), (4, 6, 504, 256)]:
            assert len(self.reference_rows(n, d)) == before
            assert len(dsh._dsh_condition_rows(n, d)[1]) == after


class TestDividedDifference:
    def test_hand_value(self):
        f = MultiPoly(1, {(2,): 1})
        g = divided_difference(f)
        assert g == MultiPoly(2, {(1, 0): 1, (0, 1): -2})

    def test_divisibility_always_exact(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.choice((1, 2, 3))
            f = random_poly(rng, n, 4)
            g = divided_difference(f)
            x = [MultiPoly.variable(i, n + 1) for i in range(1, n + 2)]
            shifted = f.substitute([x[i + 1] - x[0] for i in range(n)])
            dropped = f.substitute([x[i + 1] for i in range(n)])
            assert x[0] * g == shifted - dropped

    def test_constant_gives_zero(self):
        assert divided_difference(MultiPoly.one(2)).is_zero()


class TestCyclicInvarianceKernel:
    def test_kernel_is_zero(self):
        for n, d in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]:
            assert cyclic_invariance_kernel(n, d) == []

    def test_degree_zero_keeps_constants(self):
        ker = cyclic_invariance_kernel(1, 0)
        assert len(ker) == 1
        assert ker[0] == MultiPoly.one(1)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            cyclic_invariance_kernel(2, 3)

    def test_kernels_build_the_matrix_once(self, monkeypatch):
        calls, orders = [], []
        build, exact = dsh._dsh_condition_rows, dsh.nullspace
        monkeypatch.setattr(dsh, "_dsh_condition_rows",
                            lambda n, d: calls.append((n, d)) or build(n, d))
        monkeypatch.setattr(dsh, "nullspace", lambda rows, ncols, pivot_order: (
            orders.append(pivot_order) or exact(rows, ncols, pivot_order=pivot_order)))
        assert cyclic_invariance_kernel(1, 0) == [MultiPoly.one(1)]
        assert calls == [(1, 0)]
        assert orders == list(PIVOT_ORDERS)


class TestTranslationInvariance:
    def test_symmetric_slice_basis(self):
        # orbit sums are indexed by partitions of d into at most n parts
        def count(d, n, cap=None):
            cap = d if cap is None else cap
            if d == 0:
                return 1
            if n == 0:
                return 0
            return sum(count(d - first, n - 1, first)
                       for first in range(1, min(cap, d) + 1))

        for n in (2, 3):
            for d in range(0, 6):
                basis = symmetric_slice_basis(n, d)
                assert len(basis) == count(d, n)
                for f in basis:
                    assert f.is_symmetric()
                    assert f.is_homogeneous() and (f.degree() == d or d == 0)

    def test_symmetric_dti_forces_constant(self):
        # symmetric f whose x_1-weighted derivative is translation
        # invariant must be constant, so positive degrees give nothing
        for n in (2, 3):
            sols = symmetric_dti_solutions(n, 0)
            assert len(sols) == 1 and sols[0] == MultiPoly.one(n)
            for d in range(1, 5):
                assert symmetric_dti_solutions(n, d) == []

    @pytest.mark.parametrize("solve", [symmetric_dti_solutions, functional_equation_space],
                             ids=["symmetric_dti_solutions", "functional_equation_space"])
    def test_solver_rejects_bad_sizes(self, solve):
        for n, d in [(0, 0), (0, 1), (2, -1)]:
            with pytest.raises(ValueError, match="need n >= 1 and d >= 0"):
                solve(n, d)

    def test_chain_rule_identity(self):
        # d/dx_1 d/dx_{n+1} of (x_{n+1}-x_1) f(x_2-x_1,...) equals the
        # negated second-order divergence of f, composed with the shift
        rng = random.Random(32)
        for _ in range(15):
            n = rng.choice((1, 2, 3))
            f = random_poly(rng, n, 4)
            x = [MultiPoly.variable(i, n + 1) for i in range(1, n + 2)]
            shifted_vars = [x[i + 1] - x[0] for i in range(n)]
            big = (x[n] - x[0]) * f.substitute(shifted_vars)
            lhs = big.partial(n + 1).partial(1)
            rhs = (-second_order_divergence(f)).substitute(shifted_vars)
            assert lhs == rhs

    def test_functional_equation_solutions(self):
        # the balance equation pins everything except constants at these
        # sizes; each solution passes the divergence predicate
        for n in (2, 3):
            for d in range(0, 5):
                space = functional_equation_space(n, d)
                if d == 0:
                    assert len(space) == 1
                else:
                    assert space == []
                for f in space:
                    assert second_order_divergence(f).is_zero()


class TestGroupRingAction:
    def test_matches_permute_variables(self):
        rng = random.Random(33)
        f = random_poly(rng, 3, 3)
        sigma = (2, 3, 1)
        elem = GroupRingElem.from_perm(sigma)
        assert act_groupring(f, elem) == f.permute_variables(sigma)

    def test_linear_in_the_element(self):
        rng = random.Random(34)
        f = random_poly(rng, 3, 3)
        a = GroupRingElem.from_perm((2, 3, 1))
        b = GroupRingElem.from_perm((1, 3, 2))
        combo = a * 2 + b * (-3)
        expect = (f.permute_variables((2, 3, 1)).scaled(2)
                  + f.permute_variables((1, 3, 2)).scaled(-3))
        assert act_groupring(f, combo) == expect

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            act_groupring(MultiPoly.one(2), GroupRingElem.one(3))
