"""End-to-end acceptance checks, one test per guaranteed capability.

Each test covers one numbered guarantee from the README acceptance table
and prints a single PASS line with its measured runtime.  Where the
guarantee includes a wall-clock budget the test asserts it; budgets are
upper bounds with margin, measured after warm import.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

from mpmath import mp

from mzvkit.dsh import _cyclic_condition_rows, cyclic_invariance_kernel
from mzvkit.finite import (
    primes_in_range,
    zeta_F,
    zeta_natural_A_component,
    zeta_natural_F,
)
from mzvkit.groupring import all_permutations, compose, groupring_identity_check
from mzvkit.indices import (
    brute_force_stabilizer_order,
    brute_force_surjections,
    cone_weight,
    enumerate_surjections,
    stabilizer_order,
    surjection_values,
)
from mzvkit.linalg import PIVOT_ORDERS, _exact_nullspace
from mzvkit.matrices import (
    antidiagonal,
    iota_matrix,
    mat_inverse_unimodular,
    mat_mul,
    neg_identity,
    upper_ones,
)
from mzvkit.numeric import direct_sum_natural, eval_admissible, eval_combo
from mzvkit.relations import (
    check_main_congruence,
    opposite_parity_indices,
    sharp_product_defect,
)
from mzvkit.series import series_shuffle_check

TOTALLY_ODD = [(1,), (3,), (1, 1), (3, 1), (1, 3), (1, 1, 1), (3, 3, 1)]

PRODUCT_RULE_PAIRS = [
    ((1,), (2,)),
    ((1,), (3,)),
    ((2,), (2,)),
    ((1, 1), (2,)),
    ((2, 1), (2,)),
    ((1,), (2, 2)),
    ((1, 2), (3,)),
    ((1, 1, 1), (3,)),
    ((2, 1), (2, 2)),
    ((1, 1), (2, 3)),
]


@contextmanager
def criterion(num, detail, budget=None):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    line = "criterion %2d PASS %7.2fs" % (num, dt)
    if budget is not None:
        line += " (budget %gs)" % budget
    print("%s  %s" % (line, detail))
    if budget is not None:
        assert dt < budget, "criterion %d exceeded budget: %.2fs >= %gs" % (
            num, dt, budget)


def test_criterion_01_surjection_counts_and_stabilizers():
    with criterion(1, "surjection counts and stabilizer orders", budget=1.0):
        for n in range(1, 9):
            for m in range(1, n + 1):
                comps = enumerate_surjections(n, m)
                assert len(comps) == comb(n - 1, m - 1)
        for n in range(1, 7):
            for m in range(1, n + 1):
                comps = enumerate_surjections(n, m)
                fast = sorted(surjection_values(c) for c in comps)
                assert fast == brute_force_surjections(n, m)
                for c in comps:
                    assert stabilizer_order(c) == brute_force_stabilizer_order(c)


def _wedge_fraction(m):
    # exact tangent-cone ball fraction for depth <= 3; independent of
    # cone_weight's run-length formula (see test_indices for the derivation)
    ys = [Fraction(1, x) for x in m]
    ties = []
    for i, (a, b) in enumerate(zip(ys, ys[1:])):
        if a < b:
            return Fraction(0)
        if a == b:
            ties.append(i)
    if len(ties) == 0:
        return Fraction(1)
    if len(ties) == 1:
        return Fraction(1, 2)
    return Fraction(1, 6) if abs(ties[0] - ties[1]) == 1 else Fraction(1, 4)


def test_criterion_02_cone_weight_table_and_oracle():
    with criterion(2, "depth-2 weight table and depth-3 geometric oracle",
                   budget=5.0):
        # depth 2: weight 1 on the three strict regions, 1/2 on the
        # diagonal, 0 elsewhere, over every nonzero lattice point in a box
        for m1 in range(-6, 7):
            for m2 in range(-6, 7):
                if m1 == 0 or m2 == 0:
                    continue
                if (0 < m1 < m2) or (m1 < m2 < 0) or (m2 < 0 < m1):
                    expect = Fraction(1)
                elif m1 == m2:
                    expect = Fraction(1, 2)
                else:
                    expect = Fraction(0)
                assert cone_weight((m1, m2)) == expect, (m1, m2)
        points = [(a, b, c)
                  for a in range(-3, 4) for b in range(-3, 4)
                  for c in range(-3, 4) if a and b and c]
        assert len(points) >= 200
        for p in points:
            assert cone_weight(p) == _wedge_fraction(p), p


def test_criterion_03_totally_odd_partial_sums_vanish():
    with criterion(3, "signed partial sums vanish at every truncation",
                   budget=30.0):
        for k in TOTALLY_ODD:
            for M in range(1, 51):
                assert direct_sum_natural(k, M) == 0, (k, M)


def test_criterion_04_totally_odd_mod_p_vanishing():
    with criterion(4, "mod-p components vanish for primes 5..200",
                   budget=30.0):
        for k in TOTALLY_ODD:
            for p in primes_in_range(5, 200):
                assert zeta_natural_A_component(k, p).residue == 0, (k, p)


def test_criterion_05_depth_two_collapse_formula():
    with criterion(5, "weighted finite value = plain + half collapsed, "
                      "depth 2, weight <= 8"):
        for k1 in range(1, 8):
            for k2 in range(1, 9 - k1):
                lhs = zeta_natural_F((k1, k2))
                rhs = zeta_F((k1, k2)) + zeta_F((k1 + k2,)).scaled(
                    Fraction(1, 2))
                assert lhs == rhs, (k1, k2)
        val = eval_combo(zeta_natural_F((1, 1)), 60)
        assert abs(float(val)) < 1e-40


def test_criterion_06_numeric_engine_reference_values():
    with criterion(6, "eval matches pi^2/6 and the weight-3 reduction "
                      "to 50 digits", budget=10.0):
        v2 = eval_admissible((2,), 60)
        v12 = eval_admissible((1, 2), 60)
        v3 = eval_admissible((3,), 60)
        with mp.workdps(90):
            assert abs(v2.value - mp.pi ** 2 / 6) < mp.mpf(10) ** -50
            assert abs(v12.value - v3.value) < mp.mpf(10) ** -50


def test_criterion_07_group_ring_and_lattice_embedding():
    with criterion(7, "group-ring identity, embedding homomorphism, "
                      "generator matrix formula", budget=10.0):
        for n in (2, 3, 4, 5):
            assert groupring_identity_check(n)
        for n in (1, 2, 3, 4):
            perms = all_permutations(n + 1)
            mats = {s: iota_matrix(s, n) for s in perms}
            for s in perms:
                for t in perms:
                    assert mats[compose(s, t)] == mat_mul(mats[s], mats[t])
        for n in range(1, 7):
            sigma = tuple(list(range(n - 1, 0, -1)) + [n + 1, n])
            expect = mat_mul(
                mat_mul(mat_mul(neg_identity(n),
                                mat_inverse_unimodular(upper_ones(n))),
                        antidiagonal(n)),
                upper_ones(n))
            assert iota_matrix(sigma, n) == expect


def test_criterion_08_series_shuffle_relation():
    with criterion(8, "truncated shuffle relation defect below 1e-40",
                   budget=120.0):
        for n, i, K in [(2, 1, 6), (3, 1, 6), (3, 2, 6)]:
            defect = series_shuffle_check(n, i, K, scheme="natural",
                                          digits=60)
            assert defect.is_zero(), (n, i, K)
            assert float(defect) < 1e-40, (n, i, K)


def test_criterion_09_cyclic_invariance_kernel_trivial():
    with criterion(9, "cyclic-invariance kernel is 0, both pivot orders",
                   budget=60.0):
        for n, d in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]:
            # the kernel raises ArithmeticError unless both pivot orders agree
            assert cyclic_invariance_kernel(n, d) == [], (n, d)
            # exact elimination over Q of the same rows is the second opinion
            basis, rows = _cyclic_condition_rows(n, d)
            for order in PIVOT_ORDERS:
                assert _exact_nullspace(rows, len(basis), order) == [], (n, d, order)


def test_criterion_10_regularized_product_rule():
    with criterion(10, "integral-scheme product rule defect below 1e-40, "
                       "10 pairs"):
        for k, kp in PRODUCT_RULE_PAIRS:
            assert sum(k) + sum(kp) <= 7
            assert all(part >= 2 for part in kp)
            defect = sharp_product_defect(k, kp, digits=60)
            assert defect.is_zero(), (k, kp)
            assert float(defect) < 1e-40, (k, kp)


def _without_residual(entry):
    return {key: value for key, value in entry.items() if key != "residual"}


def test_criterion_11_main_congruence_sweep_with_archive(tmp_path):
    with criterion(11, "congruence confirmed for all 21 opposite-parity "
                       "indices, coefficients match the archive"):
        archive = {}
        for k in opposite_parity_indices(6, 3):
            report = check_main_congruence(k, digits=60)
            assert report.confirmed(), (k, report.verdict)
            assert report.height() < 10 ** 4, (k, report.height())
            assert float(report.residual) < 1e-30, (k, report.residual)
            archive[",".join(map(str, k))] = report.to_json()
        assert len(archive) == 21
        path = tmp_path / "congruence_coefficients.json"
        path.write_text(json.dumps(archive, indent=2, sort_keys=True) + "\n")
        reread = json.loads(path.read_text())
        # the residual is rounding noise; every other field is the result
        committed = json.loads((Path(__file__).resolve().parent.parent / "results"
                                / "congruence_coefficients.json").read_text())
        assert sorted(reread) == sorted(committed)
        for key, entry in reread.items():
            assert _without_residual(entry) == _without_residual(committed[key]), key


def test_criterion_12_main_congruence_sweep_to_weight_eight_matches_archive():
    with criterion(12, "congruence reports for all 73 opposite-parity indices "
                       "of weight <= 8 match the archive but for the residual"):
        archive = {",".join(map(str, k)): check_main_congruence(k, digits=60).to_json()
                   for k in opposite_parity_indices(8, 4)}
        assert len(archive) == 73
        committed = json.loads((Path(__file__).resolve().parent.parent / "results"
                                / "congruence_sweep_w8.json").read_text())
        assert sorted(archive) == sorted(committed)
        for key, entry in archive.items():
            assert entry["verdict"] == "confirmed", key
            assert _without_residual(entry) == _without_residual(committed[key]), key
