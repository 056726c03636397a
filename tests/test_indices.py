import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from mzvkit.indices import (
    admissible_indices,
    brute_force_stabilizer_order,
    brute_force_surjections,
    check_index,
    compositions,
    compositions_nonneg,
    cone_weight,
    depth,
    enumerate_surjections,
    format_index,
    index_of_word,
    index_splittings,
    indices_of_weight,
    is_admissible,
    parse_index,
    push_index,
    shuffle_words,
    stabilizer_order,
    stuffle,
    surjection_values,
    weight,
    word_of_index,
)


def test_basic_index_predicates():
    assert weight(()) == 0 and depth(()) == 0
    assert is_admissible(())
    assert is_admissible((2,)) and is_admissible((1, 2))
    assert not is_admissible((1,)) and not is_admissible((2, 1))
    assert weight((1, 2, 3)) == 6 and depth((1, 2, 3)) == 3


def test_check_index_rejects_bad_parts():
    with pytest.raises(ValueError):
        check_index((0, 1))
    with pytest.raises(ValueError):
        check_index((1, -2))
    with pytest.raises(ValueError):
        check_index((1, True))


def test_index_text_roundtrip():
    assert format_index(()) == "()"
    assert parse_index("()") == ()
    assert parse_index("(1,2,3)") == (1, 2, 3)
    assert parse_index(" ( 1 , 12 ) ") == (1, 12)
    assert format_index((1, 2)) == "(1,2)"
    with pytest.raises(ValueError):
        parse_index("1,2")
    with pytest.raises(ValueError):
        parse_index("(1,,2)")


def test_negative_parts_rejected():
    # a negative number of parts is an error, not an unbounded recursion
    from mzvkit.dsh import vector_space_dimension
    from mzvkit.polynomials import monomial_exponents

    for enumerate_ in (compositions, compositions_nonneg, indices_of_weight):
        with pytest.raises(ValueError):
            list(enumerate_(5, -1))
    with pytest.raises(ValueError):
        monomial_exponents(-1, 2)
    with pytest.raises(ValueError):
        vector_space_dimension(-1, 2)
    assert list(compositions(0, 0)) == [()] and list(compositions_nonneg(2, 0)) == []


def test_negative_total_has_no_compositions():
    # a negative total has no tuple of nonnegative parts, whatever the depth
    from mzvkit.dsh import symmetric_slice_basis, vector_space_dimension
    from mzvkit.polynomials import monomial_exponents

    assert list(compositions_nonneg(-1, 1)) == []
    assert monomial_exponents(1, -1) == []
    assert vector_space_dimension(1, -1) == vector_space_dimension(2, -1) == 0
    assert symmetric_slice_basis(1, -1) == []


def test_surjection_small_cases():
    # (2,1): the constant map only; (2,2): the identity only
    assert enumerate_surjections(2, 1) == [(2,)]
    assert enumerate_surjections(2, 2) == [(1, 1)]
    # (3,2): two monotone surjections, count binomial(2,1)
    assert len(enumerate_surjections(3, 2)) == 2
    with pytest.raises(ValueError):
        enumerate_surjections(2, 3)
    with pytest.raises(ValueError):
        enumerate_surjections(3, 0)


def test_surjection_counts_match_binomial_up_to_8():
    for n in range(1, 9):
        for m in range(1, n + 1):
            count = len(enumerate_surjections(n, m))
            assert count == math.comb(n - 1, m - 1)


def test_surjections_match_brute_force_enumeration():
    # derived oracle: filter all m^n maps for monotone surjectivity
    for n in range(1, 6):
        for m in range(1, n + 1):
            fast = sorted(surjection_values(c) for c in enumerate_surjections(n, m))
            assert fast == brute_force_surjections(n, m)


def test_stabilizer_orders_match_brute_force():
    for n in range(1, 7):
        for m in range(1, n + 1):
            for comp in enumerate_surjections(n, m):
                assert stabilizer_order(comp) == brute_force_stabilizer_order(comp)


def test_push_index():
    assert push_index((2,), (3, 4)) == (7,)
    assert push_index((1, 1, 1), (1, 2, 3)) == (1, 2, 3)
    assert push_index((2, 1), (1, 2, 3)) == (3, 3)
    # weight is preserved by every surjection
    for m in range(1, 5):
        for comp in enumerate_surjections(4, m):
            assert weight(push_index(comp, (1, 3, 2, 5))) == 11
    with pytest.raises(ValueError):
        push_index((2, 1), (1, 2))


def test_stuffle_known_small_cases():
    assert stuffle((1,), (1,)) == Counter({(1, 1): 2, (2,): 1})
    assert stuffle((2,), (3,)) == Counter({(2, 3): 1, (3, 2): 1, (5,): 1})
    assert stuffle((1, 2), ()) == Counter({(1, 2): 1})
    assert stuffle((), ()) == Counter({(): 1})


def test_stuffle_weight_and_depth_bounds():
    result = stuffle((1, 2), (3,))
    for term, mult in result.items():
        assert weight(term) == 6
        assert 2 <= depth(term) <= 3
        assert mult >= 1


def _brute_stuffle(k1, k2):
    # independent recursion on FIRST entries; the product is the same
    if not k1:
        return Counter({k2: 1})
    if not k2:
        return Counter({k1: 1})
    acc = Counter()
    for w, mult in _brute_stuffle(k1[1:], k2).items():
        acc[(k1[0],) + w] += mult
    for w, mult in _brute_stuffle(k1, k2[1:]).items():
        acc[(k2[0],) + w] += mult
    for w, mult in _brute_stuffle(k1[1:], k2[1:]).items():
        acc[(k1[0] + k2[0],) + w] += mult
    return acc


def _small_indices(max_weight):
    out = []
    for w in range(max_weight + 1):
        out.extend(indices_of_weight(w))
    return out


def test_stuffle_matches_independent_recursion():
    idx = _small_indices(4)
    for k1 in idx:
        for k2 in idx:
            assert stuffle(k1, k2) == _brute_stuffle(k1, k2)


def test_stuffle_commutative_and_associative_weight_le_5():
    idx = [k for k in _small_indices(5) if k]
    for k1 in idx:
        for k2 in idx:
            if weight(k1) + weight(k2) > 5:
                continue
            assert stuffle(k1, k2) == stuffle(k2, k1)
    triples = [k for k in _small_indices(3) if k]
    for k1 in triples:
        for k2 in triples:
            for k3 in triples:
                if weight(k1) + weight(k2) + weight(k3) > 5:
                    continue
                left = Counter()
                for w, m in stuffle(k1, k2).items():
                    for v, mm in stuffle(w, k3).items():
                        left[v] += m * mm
                right = Counter()
                for w, m in stuffle(k2, k3).items():
                    for v, mm in stuffle(k1, w).items():
                        right[v] += m * mm
                assert left == right


def test_shuffle_words_small_cases():
    assert shuffle_words("B", "AB") == Counter({"BAB": 1, "ABB": 2})
    assert shuffle_words("ABB", "") == Counter({"ABB": 1})
    assert shuffle_words("A", "A") == Counter({"AA": 2})


def test_shuffle_counts_binomial_up_to_10():
    words = ["", "A", "B", "AB", "BA", "ABB", "BAB", "AABAB"]
    for u in words:
        for v in words:
            if len(u) + len(v) > 10:
                continue
            total = sum(shuffle_words(u, v).values())
            assert total == math.comb(len(u) + len(v), len(u))


def test_word_of_index_convention():
    # reversed order: the LAST part contributes the leading A-run
    assert word_of_index(()) == ""
    assert word_of_index((1,)) == "B"
    assert word_of_index((2,)) == "AB"
    assert word_of_index((1, 2)) == "ABB"
    assert word_of_index((2, 1)) == "BAB"
    assert word_of_index((1, 2, 3)) == "AABABB"
    assert index_of_word("ABB") == (1, 2)
    assert index_of_word("") == ()
    with pytest.raises(ValueError):
        index_of_word("BA")
    with pytest.raises(ValueError):
        index_of_word("BXB")


def test_word_roundtrip_exhaustive_weight_le_8():
    for w in range(9):
        for k in indices_of_weight(w):
            assert index_of_word(word_of_index(k)) == k
    # admissible words begin with A
    for w in range(9):
        for k in indices_of_weight(w):
            word = word_of_index(k)
            assert is_admissible(k) == (word == "" or word.startswith("A"))


def test_cone_weight_depth_2_table():
    # the three depth-2 cases: strict interior, the diagonal, outside
    assert cone_weight((1, 2)) == 1
    assert cone_weight((3, 5)) == 1
    assert cone_weight((4, 4)) == Fraction(1, 2)
    assert cone_weight((-7, -7)) == Fraction(1, 2)
    assert cone_weight((2, 1)) == 0
    assert cone_weight((-1, 1)) == 0
    assert cone_weight((1, -1)) == 1
    assert cone_weight((3, 3, 3)) == Fraction(1, 6)
    assert cone_weight((2, 2, 5)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        cone_weight((1, 0))


def _wedge_fraction(m):
    """Exact tangent-cone ball fraction for depth <= 3, derived geometrically.

    Linearize each adjacent constraint 1/t_i > 1/t_{i+1} at the point: where
    the inequality holds strictly it imposes nothing nearby; where it fails
    strictly the fraction is 0; where 1/m_i = 1/m_{i+1} (i.e. m_i = m_{i+1})
    it becomes the half-space condition d_i < d_{i+1} on the ball direction d,
    because 1/t is strictly decreasing on each branch of the hyperbola.  For
    up to two constraints the spherical volume is elementary: none -> 1, one
    half-space -> 1/2, two half-spaces sharing a coordinate (d_1<d_2<d_3) ->
    a dihedral wedge of angle pi/3, fraction 1/6.
    """
    ys = [Fraction(1, x) for x in m]
    constraints = []
    for i, (a, b) in enumerate(zip(ys, ys[1:])):
        if a < b:
            return Fraction(0)
        if a == b:
            constraints.append(i)
    if len(constraints) == 0:
        return Fraction(1)
    if len(constraints) == 1:
        return Fraction(1, 2)
    if len(constraints) == 2:
        if abs(constraints[0] - constraints[1]) == 1:
            # normals e_i - e_{i+1}, e_{i+1} - e_{i+2} meet at angle 2*pi/3,
            # feasible wedge angle pi/3
            return Fraction(1, 6)
        return Fraction(1, 4)
    raise NotImplementedError("oracle only covers depth <= 3 here")


def test_cone_weight_matches_geometric_oracle_depth_3():
    points = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                if a and b and c:
                    points.append((a, b, c))
    assert len(points) >= 200
    for p in points:
        assert cone_weight(p) == _wedge_fraction(p)


def test_cone_weight_monte_carlo_spot_checks():
    # sample the ball fraction from the raw inequality definition
    numpy = pytest.importorskip("numpy")
    rng = numpy.random.default_rng(20260818)
    eps = 1e-3
    for point in [(1, 2, 3), (2, 2, 7), (5, 5, 5), (3, 1, 2), (-2, -2, 4)]:
        x = numpy.array(point, dtype=float)
        d = rng.normal(size=(200000, 3))
        d /= numpy.linalg.norm(d, axis=1)[:, None]
        r = rng.random(200000) ** (1 / 3)
        samples = x[None, :] + eps * r[:, None] * d
        inv = 1.0 / samples
        inside = (inv[:, 0] > inv[:, 1]) & (inv[:, 1] > inv[:, 2])
        frac = inside.mean()
        assert abs(frac - float(cone_weight(point))) < 0.01


def test_index_splittings():
    assert index_splittings(()) == [((), ())]
    assert index_splittings((1, 2, 3)) == [
        ((), (3, 2, 1)),
        ((1,), (3, 2)),
        ((1, 2), (3,)),
        ((1, 2, 3), ()),
    ]


def _splitting_multiset(k):
    return Counter(index_splittings(k))


def test_splitting_identity_weight_le_4():
    # multiset identity: splittings of all stuffle terms equal the pairwise
    # stuffles of the splittings
    idx = [k for w in range(5) for k in indices_of_weight(w)]
    for k1 in idx:
        for k2 in idx:
            if weight(k1) + weight(k2) > 4:
                continue
            lhs = Counter()
            for term, mult in stuffle(k1, k2).items():
                for pair, m2 in _splitting_multiset(term).items():
                    lhs[pair] += mult * m2
            rhs = Counter()
            for a1, a2 in index_splittings(k1):
                for b1, b2 in index_splittings(k2):
                    for c1, m1 in stuffle(a1, b1).items():
                        for c2, m2 in stuffle(a2, b2).items():
                            rhs[(c1, c2)] += m1 * m2
            assert lhs == rhs


def test_admissible_indices_enumeration():
    assert admissible_indices(0) == [()]
    assert admissible_indices(1) == []
    assert admissible_indices(2) == [(2,)]
    assert set(admissible_indices(4)) == {(4,), (1, 3), (2, 2), (1, 1, 2)}
    assert admissible_indices(6, max_depth=1) == [(6,)]


def test_compositions_edge_cases():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]


def test_compositions_match_brute_force_in_order():
    # the order fixes the dsh basis, the spanning-set labels and the order
    # of the PSLQ inputs, so it is compared as well as the tuples
    for t in range(9):
        for p in range(6):
            nonneg = sorted(c for c in product(range(t + 1), repeat=p) if sum(c) == t)
            assert list(compositions_nonneg(t, p)) == nonneg, (t, p)
            positive = sorted(c for c in product(range(1, t + 1), repeat=p) if sum(c) == t)
            assert list(compositions(t, p)) == positive, (t, p)
