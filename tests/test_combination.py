"""Free-module laws shared by the four sparse combination types."""

import random
from fractions import Fraction

import pytest

from mzvkit.groupring import GroupRingElem, all_permutations
from mzvkit.polynomials import MultiPoly
from mzvkit.regularization import MzvCombo, RegPoly

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
