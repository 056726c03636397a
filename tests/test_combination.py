"""Free-module laws shared by the sparse combination types."""

import random
from fractions import Fraction

import pytest

from mzvkit.combination import Combination
from mzvkit.groupring import GroupRingElem, all_permutations
from mzvkit.polynomials import MultiPoly
from mzvkit.regularization import MzvCombo, RegPoly
from mzvkit.series import SeriesTrunc

ADMISSIBLE = [(), (2,), (3,), (1, 2), (4,), (1, 3), (2, 2), (1, 1, 2)]


def _coeff(rng):
    return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))


def _combo(rng):
    return MzvCombo({k: _coeff(rng) for k in rng.sample(ADMISSIBLE, rng.randrange(1, 3))})


def _regpoly(rng):
    return RegPoly({j: _combo(rng) for j in rng.sample(range(3), rng.randrange(1, 3))})


def _multipoly(rng, nvars=2):
    return MultiPoly(nvars, {tuple(rng.randrange(3) for _ in range(nvars)): _coeff(rng)
                             for _ in range(rng.randrange(1, 4))})


def _groupring(rng, m=3):
    perms = all_permutations(m)
    return GroupRingElem(m, {rng.choice(perms): rng.randrange(-3, 4)
                             for _ in range(rng.randrange(1, 4))})


# (random element, the same element through its validating constructor,
#  an element of the same type over another space or None)
TYPES = {
    "MzvCombo": (_combo, lambda a: MzvCombo(a.terms), None),
    "RegPoly": (_regpoly, lambda a: RegPoly(a.terms), None),
    "MultiPoly": (_multipoly, lambda a: MultiPoly(a.nvars, a.terms),
                  lambda rng: _multipoly(rng, 3)),
    "GroupRingElem": (_groupring, lambda a: GroupRingElem(a.m, a.terms),
                      lambda rng: _groupring(rng, 4)),
}


@pytest.mark.parametrize("name", sorted(TYPES))
def test_algebra_laws(name):
    make, rebuild, other_space = TYPES[name]
    rng = random.Random(name)
    for _ in range(12):
        a, b, c = make(rng), make(rng), make(rng)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a - a).terms == {}
        assert a.scaled(0).terms == {}
        assert not (a - a) and (a - a).is_zero()
        assert 2 * a == a + a == a * 2 == a.scaled(2)
        # equal results built by different routes hash alike
        for x, y in [(a + b, b + a), ((a + b) - b, a), (a, rebuild(a)),
                     (a * (b + c), a * b + a * c), (-(-a), a), (a - a, b.scaled(0))]:
            assert x == y
            assert hash(x) == hash(y)
        if other_space is not None:
            d = other_space(rng)
            for op in (lambda: a + d, lambda: a - d, lambda: a * d):
                with pytest.raises(ValueError):
                    op()
            assert a != d
        for bad in (0.5, True):
            for op in (lambda: a * bad, lambda: bad * a, lambda: a.scaled(bad)):
                with pytest.raises(TypeError):
                    op()
        with pytest.raises(TypeError):
            a + 1


def _coefficient_types(x):
    """Each key's coefficient type, and for a nested coefficient its own
    coefficient types."""
    return {key: (type(c), _coefficient_types(c) if isinstance(c, Combination) else None)
            for key, c in x.terms.items()}


def test_negation_equals_scaling_by_minus_one():
    rng = random.Random("negation")
    makes = [make for make, _, _ in TYPES.values()]
    makes.append(lambda rng: SeriesTrunc(1, 3, {(2,): _combo(rng), (3,): _combo(rng)}))
    for make in makes:
        for _ in range(12):
            a = make(rng)
            negated, scaled = -a, a.scaled(-1)
            assert negated == scaled and hash(negated) == hash(scaled)
            assert list(negated.terms) == list(scaled.terms)
            assert _coefficient_types(negated) == _coefficient_types(scaled)
            assert negated._space() == a._space() and (a + negated).is_zero()


def test_operands_of_another_type_raise_type_error():
    rng = random.Random(7)
    elements = [make(rng) for make, _, _ in TYPES.values()]
    for a in elements:
        for b in elements:
            if type(a) is not type(b):
                for op in (lambda: a + b, lambda: a - b, lambda: a * b):
                    with pytest.raises(TypeError):
                        op()
                assert a != b


def test_group_ring_scalars_are_integers():
    elem = GroupRingElem.from_perm((2, 1, 3))
    with pytest.raises(TypeError):
        elem * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * elem
    with pytest.raises(TypeError):
        GroupRingElem(3, {(2, 1, 3): Fraction(1, 2)})
    assert (elem * 3).terms == {(2, 1, 3): 3}


def test_zero_coefficients_are_dropped_from_regpoly():
    z2 = MzvCombo.of_index((2,))
    p = RegPoly({0: z2, 1: z2})
    q = RegPoly({1: -z2})
    assert (p + q).terms == {0: z2}
    assert RegPoly({0: z2 - z2}).terms == {}


# ---------------------------------------------------------------------------
# the integer accumulator: combined() and products against pairwise Fraction
# arithmetic on plain dicts, written out here

def _paths(x):
    """Term dict of x with nested coefficients flattened to (outer, inner)
    paths, so a RegPoly and a flat combination compare alike."""
    if isinstance(x, RegPoly):
        return {(j, k): c for j, combo in x.terms.items() for k, c in combo.terms.items()}
    return dict(x.terms)


def _reference_sum(pairs):
    acc = {}
    for q, x in pairs:
        for path, c in _paths(x).items():
            acc[path] = acc.get(path, 0) + q * c
    return {p: c for p, c in acc.items() if c}


def _reference_product(x, y):
    acc = {}
    for p1, c1 in _paths(x).items():
        for p2, c2 in _paths(y).items():
            if isinstance(x, RegPoly):
                keys = [((p1[0] + p2[0], k), m) for k, m in MzvCombo._key_product(p1[1], p2[1])]
            else:
                keys = type(x)._key_product(p1, p2)
            for key, mult in keys:
                acc[key] = acc.get(key, 0) + c1 * c2 * mult
    return {p: c for p, c in acc.items() if c}


def _reference_combined(start, pairs, products):
    acc = _reference_sum([(1, start)] + list(pairs))
    for q, x, y in products:
        for path, c in _reference_product(x, y).items():
            acc[path] = acc.get(path, 0) + q * c
    return {p: c for p, c in acc.items() if c}


def _nested_regpoly(rng):
    """A RegPoly with several T-degrees and multi-term coefficients."""
    return RegPoly({j: MzvCombo({k: _coeff(rng) for k in rng.sample(ADMISSIBLE, 3)})
                    for j in rng.sample(range(4), 3)})


def _scalar(rng, name):
    if name == "GroupRingElem":
        return rng.randrange(-4, 5)
    return Fraction(rng.randrange(-7, 8), rng.randrange(1, 9))


def _coefficient_type(name):
    return int if name == "GroupRingElem" else Fraction


def _assert_exact(result, name):
    coeffs = list(_paths(result).values())
    assert all(type(c) is _coefficient_type(name) for c in coeffs)
    assert all(c != 0 for c in coeffs)
    if isinstance(result, RegPoly):
        assert all(type(c) is MzvCombo and c for c in result.terms.values())


MAKERS = {name: make for name, (make, _, _) in TYPES.items()}
MAKERS["nested RegPoly"] = _nested_regpoly


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_combined_matches_pairwise_reference(name):
    make = MAKERS[name]
    kind = "RegPoly" if name == "nested RegPoly" else name
    rng = random.Random("combined:" + name)
    for _ in range(15):
        start = make(rng)
        pairs = [(_scalar(rng, kind), make(rng)) for _ in range(rng.randrange(0, 6))]
        products = [(_scalar(rng, kind), make(rng), make(rng))
                    for _ in range(rng.randrange(0, 4))]
        result = start.combined(pairs, products)
        assert type(result) is type(start)
        assert _paths(result) == _reference_combined(start, pairs, products)
        _assert_exact(result, kind)
        # the same sums through the pairwise operators
        folded = start
        for q, x in pairs:
            folded = folded + x.scaled(q)
        for q, x, y in products:
            folded = folded + (x * y).scaled(q)
        assert result == folded and hash(result) == hash(folded)
        # a generator of operands is consumed once
        assert start.combined(iter(pairs), iter(products)) == result
        x, y = make(rng), make(rng)
        product = x * y
        assert _paths(product) == _reference_product(x, y)
        _assert_exact(product, kind)


def test_coprime_and_large_denominators():
    primes = [3, 7, 10007, 2 ** 61 - 1, 2 ** 89 - 1]
    rng = random.Random(11)
    for _ in range(10):
        ops = [(Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes) * rng.choice(primes)),
                MzvCombo({k: Fraction(rng.randrange(1, 10 ** 9), rng.choice(primes))
                          for k in rng.sample(ADMISSIBLE, 4)}))
               for _ in range(6)]
        nested = [(q, RegPoly({j: x.scaled(Fraction(1, p)) for j, p in enumerate(primes[:3])}))
                  for q, x in ops]
        for start, pairs in [(MzvCombo.zero(), ops), (RegPoly.zero(), nested)]:
            result = start.combined(pairs, [(Fraction(1, primes[3]), pairs[0][1], pairs[1][1])])
            expected = _reference_combined(start, pairs,
                                           [(Fraction(1, primes[3]), pairs[0][1], pairs[1][1])])
            assert _paths(result) == expected
            _assert_exact(result, "MzvCombo")


def test_cancellation_drops_keys_and_whole_degrees():
    z2, z3 = MzvCombo.of_index((2,)), MzvCombo.of_index((3,))
    third = Fraction(1, 3)
    p = RegPoly({0: z2, 2: z3.scaled(third) + z2})
    q = RegPoly({2: z3 + z2.scaled(3)})
    # the T^2 coefficient cancels through two denominators
    result = p.combined([(-third, q)])
    assert result.terms == {0: z2}
    assert result.degree() == 0
    # a product cancelled by its negative leaves nothing at all
    t_poly = RegPoly({1: z2, 3: z3})
    gone = RegPoly.zero().combined(products=[(1, t_poly, p), (-1, p, t_poly)])
    assert gone.terms == {} and gone.degree() == -1
    # one key of a flat sum cancels, the others stay
    flat = MzvCombo({(2,): Fraction(1, 6), (3,): Fraction(5, 4)})
    half = MzvCombo({(2,): Fraction(1, 3), (4,): 1})
    assert flat.combined([(Fraction(-1, 2), half)]).terms == {
        (3,): Fraction(5, 4), (4,): Fraction(-1, 2)}
    g = GroupRingElem(3, {(2, 1, 3): 2, (1, 2, 3): 1})
    assert g.combined([(-2, GroupRingElem.from_perm((2, 1, 3)))]).terms == {(1, 2, 3): 1}


def test_coefficient_types_are_preserved():
    g = GroupRingElem(3, {(2, 1, 3): 2, (1, 3, 2): -1})
    h = GroupRingElem(3, {(3, 1, 2): 5})
    for result in (g.combined([(3, h)], [(2, g, h)]), g * h, GroupRingElem.one(3).combined()):
        assert result.terms and all(type(c) is int for c in result.terms.values())
    f = MultiPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    for result in (f.combined([(2, f)], [(1, f, f)]), f * f):
        assert all(type(c) is Fraction for c in result.terms.values())
        assert result.nvars == 2
    # a sum whose every denominator is 1 still holds Fractions
    z2 = MzvCombo.of_index((2,))
    assert all(type(c) is Fraction for c in z2.combined([(2, z2)], [(3, z2, z2)]).terms.values())
    with pytest.raises(TypeError):
        g.combined([(Fraction(1, 2), h)])


def test_combined_rejects_other_spaces_and_types():
    rng = random.Random(5)
    f2, f3 = _multipoly(rng, 2), _multipoly(rng, 3)
    g3, g4 = _groupring(rng, 3), _groupring(rng, 4)
    for a, other in [(f2, f3), (g3, g4)]:
        with pytest.raises(ValueError):
            a.combined([(1, other)])
        with pytest.raises(ValueError):
            a.combined(products=[(1, a, other)])
        with pytest.raises(ValueError):
            a.combined(products=[(1, other, other)])
    a, b = MzvCombo.of_index((2,)), RegPoly.T()
    for x, y in [(a, b), (b, a), (f2, g3), (g3, a)]:
        with pytest.raises(TypeError):
            x.combined([(1, y)])
        with pytest.raises(TypeError):
            x.combined(products=[(1, x, y)])
    with pytest.raises(TypeError):
        a.combined([(0.5, a)])


# ---------------------------------------------------------------------------
# the space: each type states it in its own __slots__, and every result
# carries it over

def _series(rng, n=2, K=5):
    cells = rng.sample(SeriesTrunc(n, K).indices(), 3)
    return SeriesTrunc(n, K, {k: _combo(rng) for k in cells})


# (random element, the element's space read through its public attributes,
#  elements of the same type over other spaces)
SPACES = {
    "MultiPoly": (_multipoly, lambda x: (x.nvars,), [lambda rng: _multipoly(rng, 3)]),
    "GroupRingElem": (_groupring, lambda x: (x.m,), [lambda rng: _groupring(rng, 4)]),
    "SeriesTrunc": (_series, lambda x: (x.n, x.K),
                    [lambda rng: _series(rng, 3, 5), lambda rng: _series(rng, 2, 6)]),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_results_keep_the_space(name):
    make, space_of, others = SPACES[name]
    rng = random.Random("space:" + name)
    for _ in range(5):
        x, y = make(rng), make(rng)
        space = space_of(x)
        results = [x + y, x - x, -x, x.scaled(2), x.combined([(2, y), (-1, x)])]
        if name != "SeriesTrunc":  # a table multiplies only by scalars
            results += [x * y, x.combined(products=[(1, x, y)])]
        for result in results:
            assert type(result) is type(x) and space_of(result) == space
        zero = type(x).zero(*space)
        assert type(zero) is type(x) and space_of(zero) == space
        assert zero.terms == {} and zero == x - x and zero + x == x
        for other in others:
            d = other(rng)
            for op in (lambda: x + d, lambda: x - d, lambda: x.combined([(1, d)])):
                with pytest.raises(ValueError):
                    op()


def test_subclasses_state_their_space_only_in_slots():
    subclasses = Combination.__subclasses__()
    assert {cls.__name__ for cls in subclasses} >= {
        "MzvCombo", "RegPoly", "MultiPoly", "GroupRingElem", "SeriesTrunc"}
    for cls in subclasses:
        assert "__slots__" in vars(cls)
        assert not {"_like", "_space", "zero"} & set(vars(cls)), cls.__name__
