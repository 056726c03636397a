"""Every input check of the public entry points raises its exception type,
and the public paths that no other test runs give their results."""

from fractions import Fraction

import pytest
from mpmath import mpf

from mzvkit import dsh, matrices
from mzvkit.finite import primes_in_range
from mzvkit.groupring import GroupRingElem, compose, embed_elem, shuffle_operator, transposition
from mzvkit.indices import (
    admissible_indices,
    compositions,
    compositions_nonneg,
    cone_weight,
    enumerate_surjections,
    indices_of_weight,
)
from mzvkit.linalg import nullspace, reduce_rows
from mzvkit.numeric import BigReal, direct_sum_F, direct_sum_natural
from mzvkit.polynomials import MultiPoly
from mzvkit.regularization import MzvCombo, RegPoly
from mzvkit.relations import _pslq, opposite_parity_indices
from mzvkit.series import SeriesTrunc, block_product, build_series

X1 = MultiPoly.variable(1, 2)
SERIES = build_series("natural", 2, 5)
Z2 = MzvCombo.of_index((2,))


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

# Integer arguments that indices.check_int rejects at the entry point: a
# bool, a float and a str cutoff
CHECKS.update({
    # numeric
    "direct_sum_F bool cutoff": (lambda: direct_sum_F((2,), True), ValueError),
    "direct_sum_F float cutoff": (lambda: direct_sum_F((2,), 3.0), ValueError),
    "direct_sum_F str cutoff": (lambda: direct_sum_F((2,), "3"), ValueError),
    "direct_sum_natural bool cutoff": (lambda: direct_sum_natural((2,), True), ValueError),
    # linalg
    "nullspace bool column count": (lambda: nullspace([{0: 1}], True), ValueError),
    "nullspace float column count": (lambda: nullspace([{0: 1}], 2.0), ValueError),
    # dsh
    "dsh_dimension bool depth": (lambda: dsh.dsh_dimension(True, 6), ValueError),
    "dsh_dimension bool degree": (lambda: dsh.dsh_dimension(2, True), ValueError),
    "dsh_dimension float depth": (lambda: dsh.dsh_dimension(2.0, 6), ValueError),
    "dsh_dimension float degree": (lambda: dsh.dsh_dimension(2, 6.0), ValueError),
    # series
    "SeriesTrunc bool depth": (lambda: SeriesTrunc(True, 3), ValueError),
    "SeriesTrunc float depth": (lambda: SeriesTrunc(1.0, 3), ValueError),
    "SeriesTrunc bool weight bound": (lambda: SeriesTrunc(1, True), ValueError),
    "SeriesTrunc float weight bound": (lambda: SeriesTrunc(1, 3.5), ValueError),
    "SeriesTrunc bool index part": (lambda: SeriesTrunc(1, 3, {(True,): Z2}), ValueError),
    "SeriesTrunc float index part": (lambda: SeriesTrunc(1, 3, {(2.0,): Z2}), ValueError),
    "build_series bool depth": (lambda: build_series("natural", True, 3), ValueError),
    "build_series float depth": (lambda: build_series("natural", 1.0, 3), ValueError),
    "build_series bool weight bound": (lambda: build_series("natural", 1, True), ValueError),
    "build_series float weight bound": (lambda: build_series("natural", 1, 3.0), ValueError),
    "block_product bool weight bound": (
        lambda: block_product(build_series("natural", 0, 3), build_series("natural", 1, 3), True),
        ValueError),
    "block_product float weight bound": (
        lambda: block_product(SERIES, build_series("natural", 1, 4), 3.0), ValueError),
    # regularization
    "RegPoly bool T-degree": (lambda: RegPoly({True: Z2}), ValueError),
    # indices
    "enumerate_surjections bool size": (lambda: enumerate_surjections(True, 1), ValueError),
    "enumerate_surjections bool block count": (lambda: enumerate_surjections(2, True),
                                               ValueError),
    "cone_weight bool coordinate": (lambda: cone_weight((True, 2)), ValueError),
    # matrices
    "build_iota bool size": (lambda: matrices.build_iota(True), ValueError),
    "build_iota float size": (lambda: matrices.build_iota(2.0), ValueError),
    # MultiPoly variable indices
    "variable bool index": (lambda: MultiPoly.variable(True, 2), ValueError),
    "variable float index": (lambda: MultiPoly.variable(1.0, 2), ValueError),
    "partial bool variable": (lambda: X1.partial(True), ValueError),
    "partial float variable": (lambda: X1.partial(1.0), ValueError),
    "divide_by_variable bool variable": (lambda: X1.divide_by_variable(True), ValueError),
    # groupring
    "shuffle_operator bool block": (lambda: shuffle_operator(2, True), ValueError),
    "shuffle_operator float block": (lambda: shuffle_operator(2, 1.0), ValueError),
    # linalg takes exact coefficients only (combination.as_fraction)
    "nullspace float coefficient": (lambda: nullspace([{0: 0.1, 1: 1}], 2), TypeError),
    "nullspace bool coefficient": (lambda: nullspace([{0: True, 1: 1}], 2), TypeError),
    "nullspace str coefficient": (lambda: nullspace([{0: "1", 1: 1}], 2), TypeError),
})

# The part counts of the compositions, checked once at the call rather than
# on each level of the recursion, and the integer arguments of the prime
# range, the congruence domain and transposition
CHECKS.update({
    "compositions_nonneg bool part count": (lambda: compositions_nonneg(3, True), ValueError),
    "compositions_nonneg negative part count": (lambda: compositions_nonneg(3, -1), ValueError),
    "compositions float part count": (lambda: compositions(3, 2.0), ValueError),
    "compositions bool part count": (lambda: compositions(3, True), ValueError),
    "indices_of_weight bool depth": (lambda: indices_of_weight(3, True), ValueError),
    "indices_of_weight float depth": (lambda: indices_of_weight(3, 2.0), ValueError),
    "primes_in_range bool lower end": (lambda: primes_in_range(True, 7), ValueError),
    "primes_in_range float lower end": (lambda: primes_in_range(2.0, 7), ValueError),
    "primes_in_range float upper end": (lambda: primes_in_range(2, 7.0), ValueError),
    "opposite_parity_indices bool weight": (lambda: opposite_parity_indices(True, 4),
                                            ValueError),
    "opposite_parity_indices float weight": (lambda: opposite_parity_indices(5.0, 4),
                                             ValueError),
    "opposite_parity_indices bool depth": (lambda: opposite_parity_indices(5, True),
                                           ValueError),
    "transposition bool size": (lambda: transposition(True, 1, 1), ValueError),
    "transposition on no letters": (lambda: transposition(0, 1, 1), ValueError),
    "transposition letter 0": (lambda: transposition(3, 0, 2), ValueError),
    "transposition letter above the size": (lambda: transposition(3, 1, 4), ValueError),
    "transposition float letter": (lambda: transposition(3, 1.0, 2), ValueError),
})

# The weight or total of the compositions and index lists, checked at the
# call: a bool is not taken as 0 or 1, and a float fails there rather than
# in range() or as a non-integer part
CHECKS.update({
    "compositions bool total": (lambda: compositions(True, 1), ValueError),
    "compositions float total": (lambda: compositions(2.5, 1), ValueError),
    "compositions_nonneg bool total": (lambda: compositions_nonneg(True, 1), ValueError),
    "compositions_nonneg float total": (lambda: compositions_nonneg(2.5, 1), ValueError),
    "indices_of_weight bool weight": (lambda: indices_of_weight(True), ValueError),
    "indices_of_weight float weight": (lambda: indices_of_weight(3.0), ValueError),
    "admissible_indices bool weight": (lambda: admissible_indices(True), ValueError),
    "admissible_indices float weight": (lambda: admissible_indices(3.0), ValueError),
})


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
