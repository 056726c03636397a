"""Tests for integer matrices, the symmetric-group embedding, group rings,
and the exact nullspace routines."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, prod

import pytest

from mzvkit.groupring import (
    GroupRingElem,
    all_permutations,
    compose,
    cycle_perm,
    embed_elem,
    groupring_identity_check,
    identity_perm,
    invert_perm,
    shuffle_operator,
    transposition,
)
from mzvkit import linalg
from mzvkit.dsh import _dsh_condition_rows
from mzvkit.linalg import (
    PIVOT_ORDERS,
    _exact_nullspace,
    nullspace,
    reduce_rows,
    span_equal,
)
from mzvkit.matrices import (
    act_matrix,
    antidiagonal,
    build_iota,
    cyclic_action_matrix,
    iota_matrix,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    neg_identity,
    perm_matrix,
    upper_ones,
)
from mzvkit.polynomials import MultiPoly


def random_poly(rng, n, max_deg, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = tuple(rng.randrange(0, max_deg + 1) for _ in range(n))
        terms[expo] = Fraction(rng.randrange(-9, 10))
    return MultiPoly(n, terms)


def random_unimodular(rng, n):
    # product of shears and signed permutation matrices stays unimodular
    m = mat_identity(n)
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        shear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        shear[i][j] = rng.randrange(-2, 3)
        m = mat_mul(m, tuple(tuple(row) for row in shear))
        sigma = tuple(rng.sample(range(1, n + 1), n))
        m = mat_mul(m, perm_matrix(sigma))
    return m


class TestMatrices:
    def test_identity_and_mul(self):
        a = ((1, 2), (3, 4))
        assert mat_mul(a, mat_identity(2)) == a
        assert mat_mul(mat_identity(2), a) == a

    @staticmethod
    def leibniz_det(m):
        """Sum over permutations of the sign times the product of entries."""
        n = len(m)
        total = 0
        for sigma in permutations(range(n)):
            inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
            total += (-1) ** inversions * prod(m[i][sigma[i]] for i in range(n))
        return total

    def test_det(self):
        assert mat_det(((1, 2), (3, 4))) == -2
        assert mat_det(((1, 2), (2, 4))) == 0
        assert mat_det(upper_ones(5)) == 1
        assert mat_det(antidiagonal(4)) == 1
        assert mat_det(antidiagonal(3)) == -1
        rng = random.Random(37)
        singular = 0
        for trial in range(120):
            n = rng.randrange(1, 5)
            m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 0:
                # one row a multiple of another makes m singular
                i, j = rng.sample(range(n), 2)
                m[i] = [rng.randrange(-2, 3) * x for x in m[j]]
            m = tuple(map(tuple, m))
            det = self.leibniz_det(m)
            singular += det == 0
            assert mat_det(m) == det, m
        assert singular >= 10

    def test_inverse_upper_ones(self):
        # inverse of the all-ones triangle is the difference operator
        n = 4
        inv = mat_inverse_unimodular(upper_ones(n))
        assert mat_mul(inv, upper_ones(n)) == mat_identity(n)
        assert inv == tuple(tuple(1 if i == j else (-1 if j == i + 1 else 0)
                                  for j in range(n)) for i in range(n))

    def test_inverse_of_every_iota_matrix(self):
        for n in range(1, 5):
            for g in build_iota(n).values():
                assert mat_mul(g, mat_inverse_unimodular(g)) == mat_identity(n)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            mat_inverse_unimodular(((2, 0), (0, 1)))
        with pytest.raises(ValueError):
            mat_inverse_unimodular(((1, 1), (1, 1)))

    def test_perm_matrix_homomorphism(self):
        rng = random.Random(21)
        for _ in range(25):
            s = tuple(rng.sample(range(1, 5), 4))
            t = tuple(rng.sample(range(1, 5), 4))
            assert perm_matrix(compose(s, t)) == mat_mul(perm_matrix(s), perm_matrix(t))

    def test_cyclic_action_matrix_shape(self):
        assert cyclic_action_matrix(2) == ((-1, -1), (1, 0))
        q3 = cyclic_action_matrix(3)
        assert q3 == ((-1, -1, -1), (1, 0, 0), (0, 1, 0))


class TestMatrixAction:
    def test_identity_action(self):
        rng = random.Random(22)
        for n in (1, 2, 3):
            f = random_poly(rng, n, 3)
            assert act_matrix(f, mat_identity(n)) == f

    def test_permutation_action_is_variable_permutation(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.choice((2, 3, 4))
            sigma = tuple(rng.sample(range(1, n + 1), n))
            f = random_poly(rng, n, 3)
            assert act_matrix(f, perm_matrix(sigma)) == f.permute_variables(sigma)

    def test_contravariance(self):
        rng = random.Random(24)
        for n in (2, 3, 4):
            for _ in range(6):
                f = random_poly(rng, n, 5)
                g1 = random_unimodular(rng, n)
                g2 = random_unimodular(rng, n)
                assert (act_matrix(f, mat_mul(g1, g2))
                        == act_matrix(act_matrix(f, g1), g2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            act_matrix(MultiPoly.one(2), mat_identity(3))


class TestIota:
    def test_restriction_to_fixing_subgroup(self):
        # permutations fixing the extra letter act by their plain matrices
        for n in (2, 3, 4):
            for sigma in all_permutations(n):
                extended = sigma + (n + 1,)
                assert iota_matrix(extended, n) == perm_matrix(sigma)

    def test_homomorphism_exhaustive(self):
        for n in (2, 3):
            perms = all_permutations(n + 1)
            for s in perms:
                for t in perms:
                    assert (iota_matrix(compose(s, t), n)
                            == mat_mul(iota_matrix(s, n), iota_matrix(t, n)))

    def test_injective(self):
        for n in (2, 3, 4):
            mats = build_iota(n)
            assert len(set(mats.values())) == len(mats)

    def test_generator_matrix_formula(self):
        # the reversal-and-swap generator maps to eps P^-1 w0 P
        for n in range(2, 7):
            sigma = tuple(list(range(n - 1, 0, -1)) + [n + 1, n])
            expect = mat_mul(
                mat_mul(mat_mul(neg_identity(n),
                                mat_inverse_unimodular(upper_ones(n))),
                        antidiagonal(n)),
                upper_ones(n))
            got = iota_matrix(sigma, n)
            assert got == expect
            # explicit shape: reversed identity block, last row all -1
            for i in range(n - 1):
                assert got[i] == tuple(1 if j == n - 2 - i else 0 for j in range(n))
            assert got[n - 1] == tuple(-1 for _ in range(n))

    def test_cycle_image(self):
        for n in (2, 3, 4):
            got = iota_matrix(cycle_perm(n + 1), n)
            expect = mat_mul(
                mat_mul(mat_mul(mat_mul(neg_identity(n), antidiagonal(n)),
                                mat_inverse_unimodular(upper_ones(n))),
                        antidiagonal(n)),
                upper_ones(n))
            assert got == expect
            assert got == cyclic_action_matrix(n)

    def test_first_last_swap_action(self):
        # f acted by the image of the (1, n+1) swap substitutes
        # (-x_1, x_2 - x_1, ..., x_n - x_1)
        rng = random.Random(25)
        for n in (2, 3, 4):
            tau = transposition(n + 1, 1, n + 1)
            gamma = iota_matrix(tau, n)
            for _ in range(5):
                f = random_poly(rng, n, 4)
                reps = [-MultiPoly.variable(1, n)]
                reps += [MultiPoly.variable(i, n) - MultiPoly.variable(1, n)
                         for i in range(2, n + 1)]
                assert act_matrix(f, gamma) == f.substitute(reps)


class TestGroupRing:
    def test_compose_order(self):
        # product applies the right factor first
        s = (2, 1, 3)
        t = (1, 3, 2)
        assert compose(s, t) == (2, 3, 1)
        assert compose(t, s) == (3, 1, 2)

    def test_inverse(self):
        rng = random.Random(26)
        for _ in range(10):
            s = tuple(rng.sample(range(1, 6), 5))
            assert compose(s, invert_perm(s)) == identity_perm(5)

    def test_ring_axioms(self):
        rng = random.Random(27)
        perms = all_permutations(4)
        elems = [GroupRingElem(4, {rng.choice(perms): rng.randrange(-3, 4),
                                   rng.choice(perms): rng.randrange(-3, 4)})
                 for _ in range(6)]
        a, b, c = elems[0], elems[1], elems[2]
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        one = GroupRingElem.one(4)
        assert one * a == a * one == a

    def test_shuffle_operator_support(self):
        for n in range(1, 6):
            for i in range(0, n + 1):
                assert len(shuffle_operator(n, i).terms) == comb(n, i)
        assert shuffle_operator(3, 0) == GroupRingElem.one(3)
        assert shuffle_operator(3, 3) == GroupRingElem.one(3)
        assert len(shuffle_operator(4, 2).terms) == 6

    def test_single_block_shuffles_are_cycles(self):
        # each term places value j first and keeps the rest in order
        n = 5
        support = shuffle_operator(n, 1).support()
        expected = set()
        for j in range(1, n + 1):
            rest = [v for v in range(1, n + 1) if v != j]
            expected.add(tuple([j] + rest))
        assert support == expected

    def test_identity_in_group_ring(self):
        for n in (2, 3, 4, 5):
            assert groupring_identity_check(n)

    def test_perturbed_identity_fails(self):
        for n in (2, 3, 4):
            assert not groupring_identity_check(n, perturbed=True)

    def test_embed(self):
        e = embed_elem(shuffle_operator(2, 1), 4)
        assert e.m == 4
        assert e.support() == {(1, 2, 3, 4), (2, 1, 3, 4)}


def sparse(rows):
    """Dense literal rows as {column: coefficient} rows."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def rref_nullspace(rows, ncols):
    """Reference kernel read off the dense rows of reduce_rows; independent
    of the modular path."""
    red = reduce_rows(rows, ncols)
    pivots = []
    for row in red:
        pivots.append(next(j for j in range(ncols) if row[j] != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -sum((row[j] * v[j] for j in range(ncols) if j != pc),
                         Fraction(0))
        basis.append(tuple(v))
    return basis


class TestNullspace:
    """The kernel contract, on the modular nullspace here and on the
    exact fallback in TestExactNullspace.  The tests write dense rows,
    which `kernel` passes on as {column: coefficient} rows."""

    raw_kernel = staticmethod(nullspace)

    def kernel(self, rows, *args, **kwargs):
        return self.raw_kernel(sparse(rows), *args, **kwargs)

    def test_known_kernel(self):
        assert self.kernel([[1, 1, 0], [0, 1, 1]], 3) == [(1, -1, 1)]

    def test_full_kernel_no_rows(self):
        basis = self.kernel([], 3)
        assert len(basis) == 3
        assert span_equal(basis, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_zero_kernel(self):
        assert self.kernel([[1, 0], [0, 1]], 2) == []

    def test_fraction_input(self):
        basis = self.kernel([[Fraction(1, 2), Fraction(1, 3)]], 2)
        assert basis == [(2, -3)]

    def test_random_systems(self):
        rng = random.Random(28)
        for _ in range(30):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 9)
            rows = [[rng.randrange(-5, 6) for _ in range(ncols)]
                    for _ in range(nrows)]
            left = self.kernel(rows, ncols, pivot_order="left")
            right = self.kernel(rows, ncols, pivot_order="right")
            rank = len(reduce_rows(rows, ncols))
            assert len(left) == len(right) == ncols - rank
            for v in left + right:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
                content = 0
                for entry in v:
                    content = gcd(content, entry)
                assert content in (0, 1)
                lead = next((entry for entry in v if entry), 1)
                assert lead > 0
            assert span_equal(left, right, ncols)
            assert span_equal(left, rref_nullspace(rows, ncols), ncols)

    def test_int_rows_match_fraction_rows(self):
        rng = random.Random(30)
        systems = []
        for n, d in ((2, 4), (3, 4), (3, 6)):
            basis, rows = _dsh_condition_rows(n, d)
            systems.append(([[row.get(c, 0) for c in range(len(basis))] for row in rows],
                            len(basis)))
        for _ in range(30):
            ncols = rng.randrange(1, 9)
            rows = [[rng.randrange(-6, 7) * rng.choice((1, 1, 2, 3)) for _ in range(ncols)]
                    for _ in range(rng.randrange(1, 7))]
            systems.append((rows, ncols))
        for rows, ncols in systems:
            as_fractions = [[Fraction(x) for x in row] for row in rows]
            for order in PIVOT_ORDERS:
                assert self.kernel(rows, ncols, order) == self.kernel(as_fractions, ncols, order)

    def test_reduce_rows_canonical(self):
        rng = random.Random(29)
        for _ in range(10):
            rows = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(4)]
            red = reduce_rows(rows, 5)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            scaled = [[Fraction(3, 2) * x for x in row] for row in shuffled]
            assert reduce_rows(scaled, 5) == red
            assert reduce_rows(list(red), 5) == red

    def test_bad_pivot_order(self):
        with pytest.raises(ValueError):
            self.kernel([[1]], 1, pivot_order="diagonal")

    @pytest.mark.parametrize("row", [{2: 1}, {0: 1, -1: 2}])
    def test_column_out_of_range(self, row):
        with pytest.raises(ValueError, match="column outside"):
            self.raw_kernel([{0: 1}, row], 2)

    def test_negative_ncols(self):
        with pytest.raises(ValueError, match="ncols must be nonnegative"):
            self.raw_kernel([], -1)


class TestExactNullspace(TestNullspace):
    """The kernel contract on _exact_nullspace, the elimination over Q."""

    raw_kernel = staticmethod(_exact_nullspace)


class TestCertifiedNullspace:
    """nullspace must return the basis of the exact elimination over Q, by
    the modular path or by its fallback."""

    @staticmethod
    def low_rank_system(rng):
        ncols = rng.randrange(2, 9)
        rank = rng.randrange(0, ncols)
        left = [[rng.randrange(-9, 10) for _ in range(rank)] for _ in range(rng.randrange(1, 9))]
        right = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if rank
                else [0] * ncols for row in left]
        return sparse(rows), ncols

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = []
        exact = linalg._exact_nullspace
        monkeypatch.setattr(linalg, "_exact_nullspace",
                            lambda *args: calls.append(args) or exact(*args))
        return calls

    def test_dsh_rows_match_exact_nullspace(self, monkeypatch):
        systems = [_dsh_condition_rows(n, d)
                   for n, top in ((2, 12), (3, 8), (4, 4)) for d in range(top + 1)]
        expected = [[_exact_nullspace(rows, len(basis), order) for order in PIVOT_ORDERS]
                    for basis, rows in systems]
        # every dsh kernel is proved on the modular path, none by the fallback
        calls = self.count_fallbacks(monkeypatch)
        for (basis, rows), bases in zip(systems, expected):
            assert [nullspace(rows, len(basis), order)
                    for order in PIVOT_ORDERS] == bases, len(basis)
        assert calls == []

    def test_random_low_rank_systems_match_exact_nullspace(self):
        rng = random.Random(36)
        for _ in range(40):
            rows, ncols = self.low_rank_system(rng)
            for order in PIVOT_ORDERS:
                assert nullspace(rows, ncols, order) == _exact_nullspace(rows, ncols, order)

    def test_small_cases(self):
        assert nullspace(sparse([[1, 1, 0], [0, 1, 1]]), 3) == [(1, -1, 1)]
        assert nullspace(sparse([[Fraction(1, 2), Fraction(1, 3)]]), 2) == [(2, -3)]
        assert nullspace(sparse([[1, 0], [0, 1]]), 2) == []
        assert nullspace([], 2) == [(0, 1), (1, 0)]
        assert nullspace([], 0) == []
        with pytest.raises(ValueError):
            nullspace(sparse([[1]]), 1, pivot_order="diagonal")

    @staticmethod
    def dense_rref_mod_p(rows, scan, p):
        """Textbook Gauss-Jordan mod p on dense rows, columns in scan order."""
        m = [[row.get(c, 0) % p for c in scan] for row in rows]
        rank = 0
        pivots = {}
        for col in range(len(scan)):
            r = next((i for i in range(rank, len(m)) if m[i][col]), None)
            if r is None:
                continue
            m[rank], m[r] = m[r], m[rank]
            inv = pow(m[rank][col], -1, p)
            m[rank] = [x * inv % p for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][col]:
                    f = m[i][col]
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
            pivots[col] = rank
            rank += 1
        return {col: {c: x for c, x in enumerate(m[r]) if x} for col, r in pivots.items()}

    def test_rref_mod_p_matches_dense_gauss_jordan(self):
        rng = random.Random(61)
        for trial in range(60):
            rows, ncols = self.low_rank_system(rng)
            if rows and trial % 2:
                rows += [dict(rng.choice(rows)) for _ in range(rng.randrange(1, 4))]
                rng.shuffle(rows)
            for p in (7, 101, linalg.PRIME):
                for order in PIVOT_ORDERS:
                    scan = list(range(ncols)) if order == "left" else list(range(ncols))[::-1]
                    # the raw rows over scan positions, not made primitive:
                    # dividing by a content that p divides changes the RREF
                    position = {c: pos for pos, c in enumerate(scan)}
                    positioned = [{position[c]: x for c, x in row.items()} for row in rows]
                    assert (linalg._rref_mod_p(positioned, p)
                            == self.dense_rref_mod_p(rows, scan, p)), (rows, p, order)

    def test_rational_reconstruction(self):
        p = linalg.PRIME
        for a in (0, 1, -1, 7, -630, 10 ** 9):
            for b in (1, 2, 3, 97, 10 ** 9 - 1):
                x = a * pow(b, -1, p) % p
                assert linalg._rational(x, p) == Fraction(a, b), (a, b)

    def test_singular_mod_p_falls_back(self, monkeypatch):
        # det 3: the kernel is 0 over Q but a line mod 3, and the vector
        # found mod 3 fails the exact check
        monkeypatch.setattr(linalg, "PRIME", 3)
        calls = self.count_fallbacks(monkeypatch)
        for order in PIVOT_ORDERS:
            assert nullspace(sparse([[1, 1], [1, 4]]), 2, order) == []
        assert len(calls) == 2

    def test_entries_beyond_reconstruction_fall_back(self, monkeypatch):
        # the kernel (2^40, 3^30, 1) has entries beyond sqrt(PRIME / 2)
        calls = self.count_fallbacks(monkeypatch)
        rows = sparse([[1, 0, -2 ** 40], [0, 1, -3 ** 30]])
        for order in PIVOT_ORDERS:
            assert nullspace(rows, 3, order) == [(2 ** 40, 3 ** 30, 1)]
        assert len(calls) == 2

