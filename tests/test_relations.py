"""Tests for the congruence laboratory: boundary sums, spanning sets, and
integer-relation verdicts.  Expected coefficients below were produced by the
detector itself and cross-checked against classical closed forms where one
exists (even single zetas as rational multiples of powers of the weight-2
value)."""

import io
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from mzvkit import relations
from mzvkit.cli import main
from mzvkit.finite import zeta_natural_F
from mzvkit.numeric import (
    BigReal,
    ValueCache,
    _prec,
    _workdigits,
    default_cache,
    eval_admissible,
    eval_combo,
)
from mzvkit.regularization import MzvCombo
from mzvkit.relations import (
    RelationReport,
    SpanningSet,
    _pslq,
    boundary_expansion,
    build_spanning_set,
    check_main_congruence,
    congruence_rhs,
    contraction_expansion,
    opposite_parity_indices,
    pslq,
    verify_congruence,
    verify_contraction_congruence,
    verify_word_dual_congruence,
    word_dual_expansion,
)


def z(*k):
    return MzvCombo.of_index(tuple(k))


class TestBoundaryExpansion:
    def test_hand_value_depth_two(self):
        # one composition per sum: binomials C(2,2)=1 and C(2,1)=2
        assert boundary_expansion((2, 1)) == z(3).scaled(-3)
        assert boundary_expansion((1, 2)) == z(3).scaled(3)

    def test_depth_one_is_empty_sum(self):
        assert boundary_expansion((4,)).is_zero()
        assert boundary_expansion((6,)).is_zero()

    def test_parity_guards(self):
        with pytest.raises(ValueError):
            boundary_expansion((1, 1))
        with pytest.raises(ValueError):
            boundary_expansion((2,))
        with pytest.raises(ValueError):
            congruence_rhs((3,))

    def test_difference_is_zero_by_depth_two_reduction(self):
        # symbolic difference survives, but only as the classical weight-3
        # depth reduction, so it evaluates to zero
        diff = zeta_natural_F((2, 1)) - boundary_expansion((2, 1))
        assert diff == z(1, 2).scaled(-2) + z(3).scaled(2)
        assert eval_combo(diff, 50).is_zero()


class TestSpanningSet:
    def test_weight_three_empty(self):
        assert build_spanning_set(3, 0).entries == ()

    def test_weight_four(self):
        span = build_spanning_set(4, 0)
        assert span.labels() == ["z(2)*z(2)"]
        with_depth = build_spanning_set(4, 1)
        assert with_depth.labels() == ["z(2)*z(2)", "z(4)"]

    def test_weight_five_unordered_dedup(self):
        span = build_spanning_set(5, 0)
        assert sorted(span.labels()) == ["z(1,2)*z(2)", "z(2)*z(3)"]

    def test_weight_six_product_count(self):
        # 1x4 pairs at 2+4 and 3 unordered pairs at 3+3
        span = build_spanning_set(6, 0)
        assert len(span.entries) == 7

    def test_one_span_per_arguments_and_cache(self):
        c = ValueCache(None)
        assert build_spanning_set(5, 0, 60, cache=c) is \
            build_spanning_set(5, 0, 60, cache=c)
        # cache=None is the process-wide cache at the time of the call
        assert build_spanning_set(5, 0) is \
            build_spanning_set(5, 0, 60, cache=default_cache())

    def test_distinct_caches_get_distinct_spans(self):
        a = build_spanning_set(5, 0, 60, cache=ValueCache(None))
        b = build_spanning_set(5, 0, 60, cache=ValueCache(None))
        assert a is not b
        assert a.labels() == b.labels()

    def test_extra_depth_minus_one_is_the_depth_zero_span(self):
        for w in range(1, 9):
            assert build_spanning_set(w, -1) is build_spanning_set(w, 0)

    def test_chained_reduction_matches_a_reduction_from_scratch(self):
        # each extra depth continues the reduction of the one below it
        for w in range(1, 9):
            for e in range(-1, 3):
                span = build_spanning_set(w, e)
                kept, dropped = [], []
                for label, value in span.entries:
                    rel = _pslq([v.value for _, v in kept] + [value.value],
                                span.digits) if kept else None
                    if rel is None:
                        kept.append((label, value))
                    else:
                        dropped.append(label)
                assert span.reduced == (tuple(kept), tuple(dropped)), (w, e)

    @pytest.mark.parametrize("hand_built_first", [True, False])
    def test_each_span_reports_its_own_labels(self, hand_built_first):
        # same weight, extra depth and digits, other values: each span is
        # reduced from its own entries, whichever is verified first
        target = eval_admissible((1, 3), 60)
        zero = BigReal.from_rational(0, 60)
        hand_built = SpanningSet(4, 0, 60, (("z(4)", eval_admissible((4,), 60)),))
        cases = [(hand_built, (("z(4)", Fraction(1, 4)),)),
                 (build_spanning_set(4, 0), (("z(2)*z(2)", Fraction(1, 10)),))]
        if not hand_built_first:
            cases.reverse()
        for span, coefficients in cases:
            rep = verify_congruence(target, zero, span, target="z(1,3)")
            assert rep.confirmed()
            assert rep.coefficients == coefficients

    def test_relation_without_its_last_value_raises(self, monkeypatch):
        # the values kept so far are independent, so a relation that leaves
        # out the new value is a fault of the search, not a dropped value
        monkeypatch.setattr(relations, "_pslq", lambda values, digits: [1, 0])
        span = SpanningSet(4, 0, 60, (("z(4)", eval_admissible((4,), 60)),
                                      ("z(1,3)", eval_admissible((1, 3), 60))))
        with pytest.raises(ArithmeticError, match="already independent"):
            span.reduced


class TestVerifyCongruence:
    def test_exact_agreement_needs_no_span(self):
        v = eval_admissible((3,), 60)
        rep = verify_congruence(v, v, build_spanning_set(3, 0), target="t")
        assert rep.confirmed()
        assert rep.coefficients == ()
        assert any("no span needed" in n for n in rep.notes)

    def test_product_span_health_check(self):
        # detector must find the classical weight-4 product reduction
        zero = BigReal.from_rational(0, 60)
        rep = verify_congruence(eval_admissible((1, 3), 60), zero,
                                build_spanning_set(4, 0), target="z(1,3)")
        assert rep.confirmed()
        assert rep.coefficients == (("z(2)*z(2)", Fraction(1, 10)),)
        assert float(rep.residual) < 1e-30

    def test_even_single_value(self):
        rep = check_main_congruence((4,))
        assert rep.confirmed()
        assert rep.coefficients == (("z(2)*z(2)", Fraction(4, 5)),)

    def test_perturbation_not_confirmed(self):
        lhs = eval_admissible((1, 4), 60) + BigReal.from_rational(
            Fraction(1, 10 ** 5), 60)
        rep = verify_congruence(lhs, congruence_rhs((1, 4), 60),
                                build_spanning_set(5, 0), target="perturbed")
        assert not rep.confirmed()
        assert rep.verdict == "inconclusive"

    def test_large_residual_at_a_small_height_is_inconclusive(self, monkeypatch):
        # z(1,3) = z(2)^2 / 10; the relation z(1,3) = z(2)^2 has height 1
        # but leaves a residual of about 2.4
        monkeypatch.setattr(relations, "_pslq", lambda values, digits: [-1, 1])
        zero = BigReal.from_rational(0, 60)
        z2 = eval_admissible((2,), 60)
        span = SpanningSet(4, 0, 60, (("z(2)*z(2)", z2 * z2),))
        rep = verify_congruence(eval_admissible((1, 3), 60), zero, span, target="z(1,3)")
        assert rep.verdict == "inconclusive"
        assert rep.coefficients == (("z(2)*z(2)", Fraction(1)),) and rep.height() == 1
        assert rep.notes == ("residual above threshold",)
        assert 2 < float(rep.residual) < 3

    def test_nonzero_difference_with_empty_span(self):
        a = eval_admissible((2,), 60)
        b = BigReal.from_rational(0, 60)
        rep = verify_congruence(a, b, build_spanning_set(3, 0), target="t")
        assert rep.verdict == "inconclusive"

    def test_inputs_at_another_precision_are_rejected(self):
        # the verdict works at the precision of its inputs: mixed precisions
        # raise, and 30-digit inputs are searched at the tolerance of 30
        k = (1, 2, 3)
        made = {d: (eval_combo(zeta_natural_F(k), d), congruence_rhs(k, d),
                    build_spanning_set(6, 1, d)) for d in (30, 60)}
        for i in range(3):
            args = list(made[60])
            args[i] = made[30][i]
            with pytest.raises(ValueError, match="digits of the span"):
                verify_congruence(*args)
        rep = verify_congruence(*made[30])
        assert rep.digits == 30 and rep.confirmed() and rep.height() == 67
        rep = verify_congruence(*made[60])
        assert rep.digits == 60 and rep.confirmed() and rep.height() == 67

    @pytest.mark.parametrize("digits, exponent",
                             [(20, 10), (21, 11), (60, 50), (8, 4), (15, 7), (19, 9)])
    def test_one_zero_threshold(self, digits, exponent):
        # tau(D) = 10^-max(D-10, D//2): is_zero holds just below it, not at it
        tau = Fraction(1, 10 ** exponent)
        assert not BigReal.from_rational(tau, digits).is_zero()
        assert BigReal.from_rational(tau - tau / 10 ** digits, digits).is_zero()
        # the no-span shortcut is is_zero: a larger difference (10^-3 at 8
        # digits) goes to the span, and an empty one confirms nothing
        a = eval_admissible((2,), digits)
        rep = verify_congruence(a, a - BigReal.from_rational(10 * tau, digits),
                                build_spanning_set(3, 0, digits))
        assert rep.verdict == "inconclusive"

    def test_pslq_finds_the_weight_four_relation_at_eight_digits(self):
        # the search tolerance is 10^-max(D-10, D//2): at 8 digits it is
        # 10^-4, where 10^-(D-10) = 100 accepted any vector
        rel = _pslq([eval_admissible((1, 3), 8).value,
                     eval_admissible((2,), 8).value ** 2], 8)
        assert rel == [-10, 1]

    @pytest.mark.parametrize("digits", [8, 9, 12, 15, 21])
    def test_health_confirms_at_low_precision(self, digits):
        out = io.StringIO()
        rc = main(["--digits", str(digits), "relations", "health"], out=out)
        (report,) = json.loads(out.getvalue())["reports"]
        assert rc == 0
        assert report["verdict"] == "confirmed"
        assert report["coefficients"] == {"z(2)*z(2)": "1/10"}

    @pytest.mark.parametrize("digits", [8, 11, 15, 21, 60])
    def test_confirmed_residual_beats_bound_at_any_precision(self, digits):
        # below 21 digits a difference that is_zero accepts can exceed the
        # residual bound 10^-(digits//2); it must not confirm on its own
        out = io.StringIO()
        main(["--digits", str(digits), "relations", "health"], out=out)
        checks = [(r["verdict"], r["residual"])
                  for r in json.loads(out.getvalue())["reports"]]
        for k in [(3, 2), (1, 2)]:
            rep = check_main_congruence(k, digits)
            checks.append((rep.verdict, rep.residual))
        for verdict, residual in checks:
            if verdict == "confirmed":
                assert float(residual) < 10 ** -(digits // 2), (verdict, residual)

    def test_report_json(self):
        rep = check_main_congruence((4,))
        blob = rep.to_json()
        assert blob["verdict"] == "confirmed"
        assert blob["coefficients"] == {"z(2)*z(2)": "4/5"}
        assert blob["evidence"] == "numeric evidence"
        assert isinstance(rep.to_json_str(), str)


class TestMainCongruence:
    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            check_main_congruence((1, 1))
        with pytest.raises(ValueError):
            check_main_congruence((2,))

    # representative verdicts frozen from the full weight<=6 depth<=3 sweep
    FROZEN = {
        (1, 4): {"z(2)*z(3)": Fraction(-2)},
        (2, 3): {"z(2)*z(3)": Fraction(4)},
        (2, 2, 2): {"z(2)*z(4)": Fraction(10, 3)},
        (4, 1, 1): {"z(2)*z(4)": Fraction(-73, 42)},
    }

    @pytest.mark.parametrize("k", sorted(FROZEN))
    def test_frozen_coefficients(self, k):
        rep = check_main_congruence(k)
        assert rep.confirmed()
        # zero coefficients are dropped from reports, so this is exact
        assert dict(rep.coefficients) == self.FROZEN[k]

    def test_exact_weight_three_cases(self):
        for k in [(1, 2), (2, 1)]:
            rep = check_main_congruence(k)
            assert rep.confirmed()
            assert rep.coefficients == ()

    def test_heights_small(self):
        for k in [(1, 1, 4), (3, 2, 1)]:
            rep = check_main_congruence(k)
            assert rep.confirmed()
            assert rep.height() < 100

    def test_precision_doubling_keeps_verdict(self):
        # a cache per precision, so a 100-digit record cannot serve 60 digits
        for k in [(4,), (2, 1)]:
            assert check_main_congruence(k, digits=60, cache=ValueCache(None)).verdict == \
                check_main_congruence(k, digits=100, cache=ValueCache(None)).verdict


class TestContraction:
    def test_parity_guard(self):
        with pytest.raises(ValueError):
            verify_contraction_congruence((2, 1))
        with pytest.raises(ValueError):
            contraction_expansion((2, 2), reading="other")

    def test_expansion_shapes(self):
        # merged neighbour, with and without the duplicated part
        assert contraction_expansion((2, 2)) == \
            MzvCombo.zero() - MzvCombo.of_index((4,))
        displayed = contraction_expansion((2, 2), reading="as_displayed")
        # (4,2) is admissible so the constant term is the value itself
        assert displayed == z(4, 2).scaled(-1)

    def test_weight_homogeneous_reading_confirms(self):
        cases = {
            (1, 1): {},
            (2, 2): {"z(2)*z(2)": Fraction(2)},
            (1, 3): {},
            (1, 1, 1): {"z(3)": Fraction(-1)},
        }
        for k, coeffs in cases.items():
            reps = verify_contraction_congruence(k)
            good = reps["weight_homogeneous"]
            assert good.confirmed(), k
            got = {label: q for label, q in good.coefficients if q != 0}
            assert got == coeffs, k
            # the duplicated-part reading is weight inhomogeneous and fails
            if len(k) >= 2:
                assert reps["as_displayed"].verdict == "inconclusive", k

    def test_depth_one_degenerate(self):
        # empty merge sum on both sides; the odd single value vanishes
        reps = verify_contraction_congruence((3,))
        assert reps["as_displayed"].confirmed()
        assert reps["weight_homogeneous"].confirmed()


class TestWordDual:
    def test_hand_value(self):
        assert word_dual_expansion((2, 1)) == z(3).scaled(-3)

    def test_parity_guards(self):
        with pytest.raises(ValueError):
            word_dual_expansion((1, 1))
        with pytest.raises(ValueError):
            verify_word_dual_congruence((2,))

    def test_verdicts_match_boundary_form(self):
        for k in [(1, 4), (2, 3), (3, 2)]:
            rep = verify_word_dual_congruence(k)
            assert rep.confirmed()
            main = check_main_congruence(k)
            assert dict(rep.coefficients) == dict(main.coefficients)

    def test_word_form_consistent_with_boundary_form(self):
        # the two right-hand sides agree modulo the span
        for k in [(2, 3), (1, 4)]:
            a = eval_combo(word_dual_expansion(k), 60)
            b = congruence_rhs(k, 60)
            rep = verify_congruence(a, b, build_spanning_set(5, 0),
                                    target="cross")
            assert rep.confirmed()


class TestSharpProductRule:
    def test_defect_vanishes_numerically(self):
        from mzvkit.relations import sharp_product_defect
        for k, kp in [((1,), (2,)), ((2, 1), (2,)), ((1, 1), (2, 3))]:
            d = sharp_product_defect(k, kp, digits=60)
            assert d.is_zero()
            assert float(d) < 1e-40

    def test_smallest_case_is_depth_two_reduction(self):
        # expanding (1)*(2) pits the regularized (2,1) constant against the
        # admissible values; the cancellation is the weight-3 reduction again
        from mzvkit.indices import stuffle
        from mzvkit.regularization import shuffle_regularize
        from mzvkit.indices import word_of_index
        acc = MzvCombo.zero()
        for term, mult in stuffle((1,), (2,)).items():
            acc = acc + shuffle_regularize(
                word_of_index(term)).constant_term().scaled(mult)
        assert acc == z(1, 2).scaled(-1) + z(3)
        assert eval_combo(acc, 50).is_zero()

    def test_part_one_factor_rejected(self):
        from mzvkit.relations import sharp_product_defect
        with pytest.raises(ValueError):
            sharp_product_defect((2,), (1,))

    def test_part_one_factor_breaks_identity(self):
        # the hypothesis is sharp: against (1) the same expansion fails
        from mzvkit.indices import stuffle, word_of_index
        from mzvkit.regularization import shuffle_regularize

        def sharp_const(k):
            return shuffle_regularize(word_of_index(k)).constant_term()

        k, kp = (2, 1), (1,)
        acc = MzvCombo.zero()
        for term, mult in stuffle(k, kp).items():
            acc = acc + sharp_const(term).scaled(mult)
        lhs = eval_combo(sharp_const(k), 50) * eval_combo(sharp_const(kp), 50)
        diff = lhs - eval_combo(acc, 50)
        assert not diff.is_zero()
        assert abs(float(diff)) > 2.7


class TestEnumeration:
    def test_opposite_parity_indices(self):
        idxs = opposite_parity_indices(6, 3)
        assert len(idxs) == 21
        assert (2,) not in idxs
        assert all((sum(k) + len(k)) % 2 == 1 for k in idxs)
        assert (4, 1, 1) in idxs and (6,) in idxs


# ---------------------------------------------------------------------------
# the list-based PSLQ against mpmath's

def _reference(values, digits, maxcoeff=10 ** 6, maxsteps=5000):
    """mpmath's pslq as the verdicts ran it before the port: at the working
    precision of `digits`, set globally, with the same tolerance."""
    with mp.workdps(_workdigits(digits)):
        tol = mpf(10) ** (-max(digits - 10, digits // 2))
        return pslq(values, tol=tol, maxcoeff=maxcoeff, maxsteps=maxsteps)


@pytest.fixture(scope="module")
def sweep_vectors():
    """Every (values, digits) that the weight <= 8 sweep passes to _pslq:
    its verdicts and its span reductions, from a fresh value cache."""
    seen = []
    search = relations._pslq

    def record(values, digits):
        seen.append((list(values), digits))
        return search(values, digits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_pslq", record)
        cache = ValueCache(None)
        for k in opposite_parity_indices(8, 4):
            check_main_congruence(k, cache=cache)
    return seen


def _random_vectors():
    """One seeded vector of each length 2..8 at 8, 20, 60 and 120 digits;
    every other one has a planted relation of height up to 10^4."""
    rng = random.Random(16)
    out = []
    for digits in (8, 20, 60, 120):
        with mp.workdps(digits + 20):
            for n in range(2, 9):
                values = [mpf(rng.getrandbits(600) * rng.choice((-1, 1)))
                          / mpf(2) ** rng.randint(595, 605) for _ in range(n)]
                if len(out) % 2:
                    coeffs = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(n - 1)]
                    values[-1] = sum(c * v for c, v in zip(coeffs, values)) \
                        / rng.randint(1, 10 ** 4)
                out.append((values, digits))
    return out


class TestPslqPort:
    def test_sweep_vectors_match_mpmath(self, sweep_vectors):
        assert len(sweep_vectors) == 147
        for values, digits in sweep_vectors:
            assert _pslq(values, digits) == _reference(values, digits)

    def test_random_vectors_match_mpmath(self):
        results = []
        for values, digits in _random_vectors():
            got = _pslq(values, digits)
            assert got == _reference(values, digits), (len(values), digits)
            results.append(got)
        # both outcomes are exercised
        assert any(r is None for r in results) and any(r is not None for r in results)

    def test_zero_entry_raises_in_both(self):
        values = [mpf(1), mpf(0), mpf(3)]
        with pytest.raises(ValueError):
            _pslq(values, 60)
        with pytest.raises(ValueError):
            _reference(values, 60)

    def test_entry_below_tolerance_returns_none_in_both(self):
        # tol is 10^-10 at 20 digits, and 10^-13 is below tol/100
        with mp.workdps(40):
            values = [mpf(1), mpf(10) ** -13]
        assert _pslq(values, 20) is None
        assert _reference(values, 20) is None

    def test_relation_above_maxcoeff_returns_none_in_both(self, monkeypatch):
        with mp.workdps(80):
            values = [mpf(1), mpf(1) / 1234567]
        assert _pslq(values, 60) is None
        assert _reference(values, 60) is None
        big = 10 ** 7
        monkeypatch.setattr(relations, "_PSLQ_MAXCOEFF", big)
        assert _pslq(values, 60) == \
            _reference(values, 60, maxcoeff=big) == [1, -1234567]

    def test_exhausted_maxsteps_returns_none_in_both(self, monkeypatch):
        with mp.workdps(80):
            a, b, c = mpf(2).sqrt(), mpf(3).sqrt(), mpf(5).sqrt()
            values = [a, b, c, 37 * a - 91 * b + 53 * c]
        assert _pslq(values, 60) == _reference(values, 60) is not None
        monkeypatch.setattr(relations, "_PSLQ_MAXSTEPS", 2)
        assert _pslq(values, 60) is None
        assert _reference(values, 60, maxsteps=2) is None

    def test_concurrent_searches_ignore_the_global_precision(self, sweep_vectors):
        # eight threads search while another keeps changing mp.dps; the
        # search reads no global precision, so each result is the serial one
        jobs = [(values, digits) for digits in (8, 30, 60, 120)
                for values, _ in sweep_vectors]
        serial = [_pslq(values, digits) for values, digits in jobs]
        results = [None] * len(jobs)
        stop = threading.Event()

        def churn():
            rng = random.Random(0)
            while not stop.is_set():
                mp.dps = rng.randint(15, 500)

        def search(first):
            for i in range(first, len(jobs), 8):
                results[i] = _pslq(*jobs[i])

        dps, interval = mp.dps, sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        churner = threading.Thread(target=churn)
        churner.start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(search, range(8), timeout=300))
        finally:
            stop.set()
            churner.join(timeout=30)
            sys.setswitchinterval(interval)
            mp.dps = dps
        assert not churner.is_alive()
        assert results == serial


def test_combination_error_is_derived_and_covers_the_value_at_double_precision():
    # every lhs and rhs of the weight <= 8 sweep, each a sum of q_i v_i over
    # values of error 10^-65 at 60 digits, summed exactly and rounded once
    combos = [c for k in opposite_parity_indices(8, 4)
              for c in (zeta_natural_F(k), boundary_expansion(k))]
    assert len(combos) == 146
    at60, at120 = ValueCache(None), ValueCache(None)
    for c in combos:
        low = eval_combo(c, 60, at60)
        high = eval_combo(c, 120, at120)
        with mp.workdps(200):
            assert abs(low.value - high.value) <= low.err, c
            derived = (sum(abs(q) for q in c.terms.values()) * mpf(10) ** -65
                       + abs(low.value) * mpf(10) ** -75)
            # up to the roundings of err itself, a few units of 2^-prec
            assert low.err <= derived * (1 + mpf(2) ** (3 - _prec(60))), c
