"""Every input check of the public entry points raises its exception type,
and the public paths that no other test runs give their results."""

from fractions import Fraction

import pytest
from mpmath import mpf

from mzvkit import dsh, matrices
from mzvkit.groupring import GroupRingElem, compose, embed_elem, shuffle_operator
from mzvkit.indices import enumerate_surjections
from mzvkit.linalg import reduce_rows
from mzvkit.numeric import BigReal
from mzvkit.polynomials import MultiPoly
from mzvkit.regularization import MzvCombo, RegPoly
from mzvkit.relations import _pslq
from mzvkit.series import SeriesTrunc, block_product, build_series

X1 = MultiPoly.variable(1, 2)
SERIES = build_series("natural", 2, 5)


def _substitute_mixed():
    MultiPoly.variable(1, 2).substitute([MultiPoly.variable(1, 2), MultiPoly.variable(1, 3)])


CHECKS = {
    # MultiPoly
    "permute_variables repeated letter": (lambda: X1.permute_variables((1, 1)), ValueError),
    "partial variable out of range": (lambda: X1.partial(3), ValueError),
    "divide_by_variable variable out of range": (lambda: X1.divide_by_variable(0), ValueError),
    "variable out of range": (lambda: MultiPoly.variable(3, 2), ValueError),
    "negative variable count": (lambda: MultiPoly(-1), ValueError),
    "substitute over mixed variable counts": (_substitute_mixed, ValueError),
    "evaluate with too few coordinates": (lambda: X1.evaluate([1]), ValueError),
    # SeriesTrunc and series
    "permute repeated letter": (lambda: SERIES.permute((1, 1)), ValueError),
    "act_matrix of the wrong size": (lambda: SERIES.act_matrix(matrices.upper_ones(3)),
                                     ValueError),
    "depth above the weight bound": (lambda: SeriesTrunc(3, 2), ValueError),
    "index of the wrong depth": (lambda: SeriesTrunc(2, 5, {(1,): None}), ValueError),
    "negative depth": (lambda: build_series("natural", -1, 3), ValueError),
    "block_product of a MultiPoly": (lambda: block_product(SERIES, X1), TypeError),
    # groupring
    "compose repeated letter": (lambda: compose((1, 1), (1, 2)), ValueError),
    "compose float letters": (lambda: compose((2, 1), (2.0, 1.0)), ValueError),
    "compose bool letter": (lambda: compose((True, 2), (1, 2)), ValueError),
    "from_perm float letters": (lambda: GroupRingElem.from_perm((2.0, 1.0)), ValueError),
    "GroupRingElem float key": (lambda: GroupRingElem(2, {(2.0, 1.0): 1}), ValueError),
    "permute_variables float letters": (lambda: X1.permute_variables((2.0, 1.0)), ValueError),
    "permute bool letter": (lambda: SERIES.permute((True, 2)), ValueError),
    "group on no letters": (lambda: GroupRingElem(0), ValueError),
    "shuffle_operator on no letters": (lambda: shuffle_operator(0, 0), ValueError),
    "shuffle_operator block too long": (lambda: shuffle_operator(2, 3), ValueError),
    "embed_elem of a MultiPoly": (lambda: embed_elem(X1, 3), TypeError),
    "embed_elem into a smaller group": (lambda: embed_elem(GroupRingElem.one(3), 2),
                                        ValueError),
    # matrices
    "mat_det of an empty matrix": (lambda: matrices.mat_det(()), ValueError),
    "mat_det of a non-square matrix": (lambda: matrices.mat_det(((1, 2),)), ValueError),
    "mat_det of a float entry": (lambda: matrices.mat_det(((1.0,),)), ValueError),
    "mat_mul of sizes 1 and 2": (lambda: matrices.mat_mul(matrices.mat_identity(1),
                                                          matrices.mat_identity(2)), ValueError),
    "build_iota on no letters": (lambda: matrices.build_iota(0), ValueError),
    "act_matrix of a SeriesTrunc": (lambda: matrices.act_matrix(SERIES, matrices.upper_ones(2)),
                                    TypeError),
    # dsh
    "act_groupring by a MultiPoly": (lambda: dsh.act_groupring(X1, X1), TypeError),
    "divided_difference of a SeriesTrunc": (lambda: dsh.divided_difference(SERIES), TypeError),
    "second_order_divergence of a SeriesTrunc": (lambda: dsh.second_order_divergence(SERIES),
                                                 TypeError),
    # the rest
    "reduce_rows row too short": (lambda: reduce_rows([(1, 2)], 3), ValueError),
    "enumerate_surjections float size": (lambda: enumerate_surjections(2.0, 1), ValueError),
    "RegPoly JSON key without T^": (lambda: RegPoly.from_json_obj({"x": {}}), ValueError),
    "pslq of one value": (lambda: _pslq([1], 60), ValueError),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_input_check_raises(name):
    call, exc = CHECKS[name]
    with pytest.raises(exc):
        call()


def test_moved_permutation_checks_name_the_permutation():
    for call in (lambda: X1.permute_variables((1, 1)), lambda: SERIES.permute((1, 1))):
        with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, 1\)$"):
            call()


def test_block_product_default_weight_bound():
    a, b = build_series("natural", 2, 5), build_series("natural", 1, 4)
    prod = block_product(a, b)
    assert prod.K == 4
    assert prod == block_product(a, b, 4)
    assert prod.coefficient((1, 1, 2)) == a.coefficient((1, 1)) * b.coefficient((2,))


def test_regpoly_coefficient():
    z2 = MzvCombo.of_index((2,))
    p = RegPoly({0: z2, 2: MzvCombo.of_index(())})
    assert p.coefficient(0) == z2
    assert p.coefficient(1) == MzvCombo.zero()
    assert p.coefficient(2) == MzvCombo({(): Fraction(1)})


def test_bigreal_reads_back_value_and_error():
    x = BigReal(mpf(3) / 8, mpf(2) ** -70, 20)
    assert x.value == mpf(3) / 8
    assert x.err == mpf(2) ** -70
    assert x.digits == 20
