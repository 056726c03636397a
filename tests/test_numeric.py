"""Numeric engine tests.

Oracles: an independent pi/zeta implementation (mpmath's own), the classical
Euler identities as cross-checks, plain truncated partial sums of the
defining series with documented tail bounds, and brute-force enumerations of
the signed direct sums at tiny cutoffs.
"""

import itertools
import json
import math
import os
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    from_man_exp,
    from_rational,
    from_str,
    ften,
    mpf_abs,
    mpf_add,
    mpf_mul,
    mpf_pow_int,
    round_nearest,
    to_str,
)

from mzvkit import numeric, relations
from mzvkit.indices import admissible_indices, cone_weight, enumerate_surjections, \
    index_of_word, push_index, stabilizer_order, word_of_index
from mzvkit.numeric import (
    BigReal,
    ValueCache,
    direct_sum_F,
    direct_sum_natural,
    eval_admissible,
    eval_combo,
    eval_constant_term,
    eval_many,
    richardson_extrapolate,
)
from mzvkit.regularization import MzvCombo, shuffle_regularize, stuffle_regularize
from mzvkit.relations import check_main_congruence


def _close(x, y, digits):
    with mp.workdps(digits + 30):
        return abs(x - y) < mpf(10) ** (-digits)


def _naive_partial(k, M):
    # float partial sum of the defining nested series, truncated at m_n < M;
    # shares nothing with the convolution-at-1/2 evaluation path
    h = [0.0] * M
    for m in range(1, M):
        h[m] = float(m) ** (-k[0])
    for a in k[1:]:
        cum = 0.0
        nxt = [0.0] * M
        for m in range(1, M):
            nxt[m] = cum * float(m) ** (-a)
            cum += h[m]
        h = nxt
    return sum(h)


# ---------------------------------------------------------------------------
# eval_admissible

def test_empty_index_is_one():
    v = eval_admissible((), 60)
    assert _close(v.value, mpf(1), 55)
    # the empty word goes through the trie pass like any other, whose
    # product of the two empty prefix values is exactly 1
    for digits in (1, 20, 60, 400):
        cache = ValueCache()
        eval_admissible((), digits, cache)
        assert cache.get("()", digits) == "1.0", digits


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_admissible((1,), 60)
    with pytest.raises(ValueError):
        eval_admissible((2, 1), 60)
    with pytest.raises(ValueError):
        eval_admissible((2,), 0)


def test_one_admissibility_message():
    for call in (lambda: MzvCombo({(2, 1): 1}), lambda: eval_many([(2, 1)]),
                 lambda: eval_admissible((2, 1))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "not an admissible index: (2,1)"


@pytest.mark.parametrize("digits", [2.5, 59.9, True, 0, -3])
def test_rejects_bad_digits(digits, tmp_path):
    cache = ValueCache(str(tmp_path / "values.jsonl"))
    for call in (lambda: eval_admissible((2,), digits, cache),
                 lambda: eval_many([(2,)], digits, cache),
                 lambda: BigReal.from_rational(1, digits),
                 lambda: BigReal(mpf(1), mpf(0), digits)):
        with pytest.raises(ValueError, match="digits must be a positive integer"):
            call()
    # nothing was computed or stored
    assert not (tmp_path / "values.jsonl").exists()


def test_zeta_two_matches_pi_squared_over_six():
    v = eval_admissible((2,), 60)
    with mp.workdps(90):
        target = mp.pi ** 2 / 6
        assert abs(v.value - target) < mpf(10) ** -55


def test_euler_depth_two_identity():
    a = eval_admissible((1, 2), 60)
    b = eval_admissible((3,), 60)
    assert _close(a.value, b.value, 55)


def test_matches_independent_zeta_implementation():
    for n in (2, 3, 5, 7):
        v = eval_admissible((n,), 60)
        with mp.workdps(90):
            assert abs(v.value - mp.zeta(n)) < mpf(10) ** -55, n


@pytest.mark.parametrize("digits", [400, 1000])
def test_high_precision_values_match_identities_not_from_duality(digits):
    # independent of the dual pairs: mpmath's zeta, the even-weight closed
    # forms of zeta(2,2) and zeta(2,2,2), and a stuffle product
    ks = [(n,) for n in range(2, 9)] + [(2, 2), (2, 2, 2), (2, 3), (3, 2)]
    v = dict(zip(ks, (x.value for x in eval_many(ks, digits, cache=ValueCache(None)))))
    with mp.workdps(digits + 30):
        for n in range(2, 9):
            assert _close(v[(n,)], mp.zeta(n), digits - 10), n
        assert _close(v[(2, 2)], mp.pi ** 4 / 120, digits - 10)
        assert _close(v[(2, 2, 2)], mp.pi ** 6 / 5040, digits - 10)
        assert _close(v[(2,)] * v[(3,)], v[(2, 3)] + v[(3, 2)] + v[(5,)], digits - 10)


def test_naive_truncation_oracle():
    # tails at cutoff 4000: below 1e-7 for last part >= 3 (central estimate
    # C / (2 M^2)), far below the 1e-5 assertion threshold
    for k in [(3,), (4,), (2, 3), (1, 4)]:
        v = eval_admissible(k, 30)
        assert abs(float(v.value) - _naive_partial(k, 4000)) < 1e-5, k


def test_precision_doubling_stability():
    # a cache per precision, so the 80-digit record cannot serve 60 digits
    for w in range(2, 9):
        for k in admissible_indices(w):
            a = eval_admissible(k, 60, cache=ValueCache(None))
            b = eval_admissible(k, 80, cache=ValueCache(None))
            assert _close(a.value, b.value, 55), k


def _per_prefix_reference(word, nterms, prec):
    # I(word; 1/2) in fixed point from its own chain-sum pass with floor
    # division, as each convolution factor was summed before the factors
    # shared one pass per word
    if not word:
        return 1 << prec
    exps = [len(run) + 1 for run in word.split("B")[1:]]
    n = len(exps)
    # g[i]: sum over the chains of the slots 1..i that end before m
    g = [1 << prec] + [0] * n
    total = 0
    for m in range(1, nterms + 1):
        g[n] = 0
        for i in reversed(range(n)):
            g[i + 1] += g[i] // m ** exps[i]
        total += g[n] >> m
    return total


def _check_prefix_values(ks, digits):
    # ks: indices of one weight, whose words and dual words share one trie
    workdigits = numeric._workdigits(digits)
    length = sum(ks[0])
    nterms = int(math.ceil(3.33 * workdigits)) + 64 + 8 * length
    prec = dps_to_prec(workdigits) + numeric._GUARD_BITS
    ewords = [word_of_index(k)[::-1] for k in ks]
    values = numeric._prefix_values(
        ewords + [numeric._dual_word(e) for e in ewords], nterms, prec)
    expected = []
    for k, eword in zip(ks, ewords):
        left = [_per_prefix_reference(eword[:j], nterms, prec) for j in range(length + 1)]
        right = [_per_prefix_reference(numeric._dual_word(eword[j:]), nterms, prec)
                 for j in range(length + 1)]
        assert [values[eword[:j]] for j in range(length + 1)] == left, k
        assert [values[numeric._dual_word(eword[j:])] for j in range(length + 1)] == right, k
        total = sum(a * b for a, b in zip(left, right))
        expected.append(to_str(from_man_exp(total, -2 * prec, dps_to_prec(workdigits),
                                            round_nearest), workdigits))
    assert numeric._evaluate(ks, workdigits) == expected, ks


def test_prefix_values_match_per_prefix_passes():
    for w in range(2, 9):
        _check_prefix_values(admissible_indices(w), 60)


def _dual(k):
    return index_of_word(numeric._dual_word(word_of_index(k)))


def _highprec_pairs():
    # one index of weight 6, 7 and 8 with its dual, which differs from it
    for k in [(1, 3, 2), (2, 1, 1, 3), (1, 1, 3, 1, 2)]:
        k_dual = _dual(k)
        assert k_dual != k
        yield k, k_dual


def test_prefix_values_match_per_prefix_passes_at_400_digits():
    for pair in _highprec_pairs():
        _check_prefix_values(list(pair), 400)


def _check_prefix_bound(words, nterms, prec):
    # every prefix value is at most nterms units of 2^-prec below its
    # full-resolution pass and never above it; how many differ
    values = numeric._prefix_values(words, nterms, prec)
    assert set(values) == {w[:j] for w in words for j in range(len(w) + 1)}
    moved = 0
    for prefix, value in values.items():
        shortfall = _per_prefix_reference(prefix, nterms, prec) - value
        assert 0 <= shortfall <= nterms, (prefix, nterms, prec, shortfall)
        moved += shortfall > 0
    return moved


def _evaluator_words(ks, digits):
    # the words and dual words of ks, with the nterms and prec of _evaluate
    workdigits = numeric._workdigits(digits)
    nterms = int(math.ceil(3.33 * workdigits)) + 64 + 8 * sum(ks[0])
    prec = dps_to_prec(workdigits) + numeric._GUARD_BITS
    ewords = [word_of_index(k)[::-1] for k in ks]
    return ewords + [numeric._dual_word(e) for e in ewords], nterms, prec


def test_prefix_values_within_nterms_units_of_full_resolution():
    for w in range(2, 9):
        _check_prefix_bound(*_evaluator_words(admissible_indices(w), 60))
    for digits in (120, 400, 1000):
        for pair in _highprec_pairs():
            _check_prefix_bound(*_evaluator_words(list(pair), digits))


def test_prefix_bound_holds_where_floors_move(monkeypatch):
    # with blocks of 2 and a guard of 3 bits, some final floors do move;
    # the bound covers prefixes with at most G - 1 = 2 letters B
    monkeypatch.setattr(numeric, "_BLOCK_TERMS", 2)
    monkeypatch.setattr(numeric, "_COLUMN_GUARD_BITS", 3)
    words = ["B" + "".join(w) for w in itertools.product("AB", repeat=6) if w.count("B") <= 1]
    assert sum(_check_prefix_bound(words, nterms, prec)
               for prec in (40, 64, 100) for nterms in (120, 200)) > 0


def _bits(values):
    return [(v.value, v.to_decimal(v.digits + 10)) for v in values]


def test_batch_matches_one_at_a_time():
    cases = [([k for w in range(2, 11) for k in admissible_indices(w)], 60)]
    cases += [([x for pair in _highprec_pairs() for x in pair], d) for d in (120, 400)]
    for ks, digits in cases:
        single = [eval_admissible(k, digits, cache=ValueCache(None)) for k in ks]
        assert _bits(eval_many(ks, digits, cache=ValueCache(None))) == _bits(single), digits


def test_batch_edge_cases(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ValueCache(path)
    # duplicates, a dual pair, the empty index and mixed weights in one batch
    ks = [(2, 3), (), (2,), (2, 3), (1, 1, 3), (2,), (1, 2, 2)]
    values = eval_many(ks, 60, cache=cache)
    assert _bits(values) == _bits(eval_admissible(k, 60, cache=ValueCache(None)) for k in ks)
    assert _close(values[1].value, mpf(1), 55)
    assert eval_many([], 60, cache=cache) == []
    with open(path, encoding="utf-8") as fh:
        assert sorted(json.loads(line)["index"] for line in fh) == ["()", "(1,4)", "(2)", "(2,3)"]
    # a bad index or precision anywhere in a batch caches nothing
    for bad, digits in [([(3,), (4,), (2, 1)], 60), ([(2, 1), (3,)], 60), ([(3,), (1,)], 60),
                        ([(3,)], 0)]:
        with pytest.raises(ValueError):
            eval_many(bad, digits, cache=cache)
        assert cache.get("(3)", 60) is None and cache.get("(4)", 60) is None
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 4


def test_batch_checks_each_index_once(monkeypatch):
    ks = admissible_indices(8)
    assert len(ks) == 64
    calls = []

    def counted(k, _check=numeric.check_admissible):
        calls.append(k)
        return _check(k)
    monkeypatch.setattr(numeric, "check_admissible", counted)
    cache = ValueCache(None)
    eval_many(ks, 60, cache=cache)
    assert calls == ks
    # a direct call still checks its index
    eval_admissible(ks[0], 60, cache=cache)
    assert calls == ks + [ks[0]]


def test_batch_values_go_through_eval_admissible(monkeypatch):
    """Each value of a batch is one eval_admissible call, and a value the
    cache lacks is computed inside its call, after that call's cache lookup
    missed, one trie pass per weight: a trace of eval_admissible and
    ValueCache.get counts the computed values of a batch."""
    cache = ValueCache(None)
    eval_admissible((2,), 60, cache=cache)
    log, depth = [], [0]
    original, evaluate, get = numeric.eval_admissible, numeric._evaluate, ValueCache.get

    def traced(k, *args, **kwargs):
        log.append(("call", k))
        depth[0] += 1
        try:
            return original(k, *args, **kwargs)
        finally:
            depth[0] -= 1

    def traced_evaluate(ks, workdigits):
        log.append(("evaluate", depth[0], sorted(ks)))
        return evaluate(ks, workdigits)

    def traced_get(self, index_text, digits):
        found = get(self, index_text, digits)
        log.append(("get", index_text, found is not None))
        return found

    monkeypatch.setattr(numeric, "eval_admissible", traced)
    monkeypatch.setattr(numeric, "_evaluate", traced_evaluate)
    monkeypatch.setattr(ValueCache, "get", traced_get)
    eval_many([(2,), (3,), (2, 2), (1, 2), (2,), (4,)], 60, cache=cache)
    assert log == [
        ("call", (2,)), ("get", "(2)", True),
        ("call", (3,)), ("get", "(3)", False), ("evaluate", 1, [(3,)]),
        ("call", (2, 2)), ("get", "(2,2)", False), ("evaluate", 1, [(2, 2), (4,)]),
        ("call", (1, 2)), ("get", "(3)", True),
        ("call", (2,)), ("get", "(2)", True),
        ("call", (4,)), ("get", "(4)", False),
    ]


def test_overlapping_batches_in_threads_get_serial_bits():
    ks = [k for w in range(2, 9) for k in admissible_indices(w)]
    alone = ValueCache(None)
    serial = dict(zip(ks, _bits(eval_many(ks, 60, cache=alone))))
    batches = [ks[i:i + 40] for i in range(0, len(ks), 15)]
    batches += [b[::-1] for b in batches]
    shared = ValueCache(None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [(b, pool.submit(eval_many, b, 60, shared)) for b in batches]
            for batch, f in futures:
                assert _bits(f.result(timeout=300)) == [serial[k] for k in batch]
    finally:
        sys.setswitchinterval(interval)
    for k in ks:
        key = numeric._record_key(k)[1]
        assert shared.get(key, 60) == alone.get(key, 60) is not None, k


# ---------------------------------------------------------------------------
# combos and polynomials

def test_eval_combo_zero_and_linearity():
    assert eval_combo(MzvCombo.zero(), 60).is_zero()
    prod = MzvCombo.of_index((2,)) * MzvCombo.of_index((2,))
    lhs = eval_combo(prod, 60)
    z2 = eval_admissible((2,), 60)
    with mp.workdps(90):
        target = z2.value * z2.value
    assert _close(lhs.value, target, 50)


def test_eval_constant_term_of_regularization():
    # constant term of the series scheme at (2,1) is -z(1,2)-z(3) = -2 z(3)
    v = eval_constant_term(stuffle_regularize((2, 1)), 60)
    z3 = eval_admissible((3,), 60)
    with mp.workdps(90):
        target = -2 * z3.value
    assert _close(v.value, target, 50)
    w = eval_constant_term(stuffle_regularize((1, 1)), 60)
    z2 = eval_admissible((2,), 60)
    with mp.workdps(90):
        target = -z2.value / 2
    assert _close(w.value, target, 50)


def test_shuffle_homomorphism_numeric():
    # the integral scheme is a homomorphism for the shuffle product; the
    # identity is only numeric (coefficients can differ by true relations,
    # e.g. z(4) vs 4 z(1,3))
    from mzvkit.indices import shuffle_words

    def b_words(n):
        if n == 1:
            return ["B"]
        return [c + w for w in b_words(n - 1) for c in "AB"]

    pairs = []
    for la in range(1, 6):
        for lb in range(la, 8 - la):
            for u in b_words(la):
                for v in b_words(lb):
                    if (v, u) not in pairs:
                        pairs.append((u, v))
    for u, v in pairs:
        lhs = shuffle_regularize(u) * shuffle_regularize(v)
        rhs = None
        for term, mult in shuffle_words(u, v).items():
            part = shuffle_regularize(term).scaled(mult)
            rhs = part if rhs is None else rhs + part
        diff = lhs - rhs
        for j, combo in diff.terms.items():
            assert eval_combo(combo, 60).is_zero(), (u, v, j)


def test_numeric_zero_test_detects_real_relations_only():
    # z(4) = 4 z(1,3) is a true relation; perturbing it must not pass
    rel = MzvCombo({(4,): 1, (1, 3): -4})
    assert eval_combo(rel, 60).is_zero()
    off = rel + MzvCombo({(2,): Fraction(1, 10 ** 6)})
    assert not eval_combo(off, 60).is_zero()


# ---------------------------------------------------------------------------
# BigReal

def test_bigreal_arithmetic():
    x = BigReal.from_rational(Fraction(1, 3), 40)
    y = x + x + x
    assert _close(y.value, mpf(1), 35)
    assert (x - x).is_zero()
    assert _close(x.scaled(3).value, mpf(1), 35)
    assert x.to_decimal(10).startswith("0.333333333")
    assert abs(float(x) - 1 / 3) < 1e-15
    z = x * x
    with mp.workdps(70):
        ninth = mpf(1) / 9
    assert _close(z.value, ninth, 35)
    assert (2 * x - x.scaled(2)).is_zero()


def test_bigreal_negation_keeps_the_error_bound():
    x = BigReal.from_rational(Fraction(2, 7), 40)
    neg = -x
    assert neg.to_decimal() == "-" + x.to_decimal()
    assert neg._e == x._e and neg.err == x.err and neg.digits == x.digits
    assert (abs(neg)._v, abs(neg)._e) == (x._v, x._e)


def test_bigreal_scalar_products_are_scalings():
    x = BigReal.from_rational(Fraction(5, 11), 50)
    for q in (3, Fraction(1, 3)):
        for got in (x * q, q * x):
            expect = x.scaled(q)
            assert (got._v, got._e, got.digits) == (expect._v, expect._e, expect.digits)


@pytest.mark.parametrize("op", [lambda x: x + 1, lambda x: x - 1, lambda x: x * "a",
                                lambda x: "a" * x], ids=["add", "sub", "mul", "rmul"])
def test_bigreal_rejects_other_operands(op):
    with pytest.raises(TypeError):
        op(BigReal.from_rational(Fraction(1, 3), 20))


# every scalar of a BigReal follows combination.as_fraction: an int (not a
# bool) or a Fraction; a float would bring in its binary value silently
SCALAR_ENTRY_POINTS = {
    "from_rational": lambda x, q: BigReal.from_rational(q, x.digits),
    "scaled": lambda x, q: x.scaled(q),
    "mul": lambda x, q: x * q,
    "rmul": lambda x, q: q * x,
    "linear_combination": lambda x, q: numeric.linear_combination([(q, x)], x.digits),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", Decimal("0.1"), True],
                         ids=["float", "half", "str", "decimal", "bool"])
def test_bigreal_scalars_are_exact_rationals(entry, bad):
    with pytest.raises(TypeError):
        SCALAR_ENTRY_POINTS[entry](BigReal.from_rational(Fraction(2, 3), 30), bad)


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_bigreal_int_and_fraction_scalars_agree(entry):
    x = BigReal.from_rational(Fraction(2, 3), 30)
    got = [SCALAR_ENTRY_POINTS[entry](x, q) for q in (3, Fraction(3), Fraction(6, 2))]
    assert len({(y._v, y._e, y.digits) for y in got}) == 1


def test_bigreal_error_tracking_grows():
    x = BigReal.from_rational(Fraction(1, 7), 50)
    assert (x + x).err >= x.err


def test_bigreal_zero_tolerance_is_d_minus_ten():
    tiny = BigReal.from_rational(Fraction(1, 10 ** 55), 60)
    small = BigReal.from_rational(Fraction(1, 10 ** 45), 60)
    assert tiny.is_zero()
    assert not small.is_zero()


def _exact(raw):
    # the rational value of a raw libmp tuple (sign, mantissa, exponent, bits)
    sign, man, exp, _ = raw
    return (-1) ** sign * man * Fraction(2) ** exp


def _random_bigreals(rng, count):
    # BigReals of random rationals at 8-400 digits; every third one repeats
    # an earlier rational at another precision, so sums cancel exactly or
    # nearly
    digits = (8, 9, 15, 30, 60, 61, 100, 200, 400)
    made = []
    for i in range(count):
        if i % 3 == 2:
            q = -made[rng.randrange(len(made))][0]
        else:
            q = Fraction(rng.randrange(-10 ** rng.randrange(1, 60), 10 ** rng.randrange(1, 60)),
                         rng.randrange(1, 10 ** rng.randrange(1, 60)))
        made.append((q, BigReal.from_rational(q, rng.choice(digits))))
    return [x for _, x in made]


def test_linear_combination_is_the_exact_sum_rounded_once():
    rng = random.Random(5)
    xs = _random_bigreals(rng, 120)
    for _ in range(200):
        digits = rng.choice((8, 30, 60, 400))
        terms = [(rng.choice((1, -3, Fraction(rng.randrange(-99, 100), rng.randrange(1, 50)))), x)
                 for x in rng.sample(xs, rng.randrange(1, 5))]
        got = numeric.linear_combination(terms, digits)
        prec = dps_to_prec(digits + 15)
        total = sum(q * _exact(x._v) for q, x in terms)
        assert got._v == from_rational(total.numerator, total.denominator, prec, round_nearest)
        err = sum(abs(q) * _exact(x._e) for q, x in terms)
        rounding = mpf_mul(mpf_abs(got._v), mpf_pow_int(ften, -(digits + 15), prec, round_nearest),
                           prec, round_nearest)
        assert got._e == mpf_add(from_rational(err.numerator, err.denominator, prec, round_nearest),
                                 rounding, prec, round_nearest)
        assert got.digits == digits


def test_sums_and_integer_scalings_are_linear_combinations():
    rng = random.Random(6)
    xs = _random_bigreals(rng, 150)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        digits = min(x.digits, y.digits)
        n = rng.randrange(-10 ** 20, 10 ** 20)
        for got, expect in ((x + y, numeric.linear_combination([(1, x), (1, y)], digits)),
                            (x - y, numeric.linear_combination([(1, x), (-1, y)], digits)),
                            (x.scaled(n), numeric.linear_combination([(n, x)], x.digits))):
            assert (got._v, got._e, got.digits) == (expect._v, expect._e, expect.digits)
        # one rounding of the exact sum is mpf_add's rounding: x + y keeps
        # the bits of adding value to value and error to error
        prec = dps_to_prec(digits + 15)
        v = mpf_add(x._v, y._v, prec, round_nearest)
        rounding = mpf_mul(mpf_abs(v), mpf_pow_int(ften, -(digits + 15), prec, round_nearest),
                           prec, round_nearest)
        err = mpf_add(mpf_add(x._e, y._e, prec, round_nearest), rounding, prec, round_nearest)
        assert ((x + y)._v, (x + y)._e) == (v, err)


# ---------------------------------------------------------------------------
# cache

def test_cache_bit_identity(tmp_path):
    # (1,2,2) is the dual of (2,3), whose record serves both
    path = str(tmp_path / "cache.jsonl")
    v1 = eval_admissible((1, 2, 2), 60, cache=ValueCache(path))
    reloaded = ValueCache(path)
    assert reloaded.get("(2,3)", 60) is not None
    v2 = eval_admissible((2, 3), 60, cache=reloaded)
    assert v1.value == v2.value
    assert v1.to_decimal(70) == v2.to_decimal(70)
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    assert len(recs) == 1
    assert recs[0]["index"] == "(2,3)"
    assert recs[0]["precision"] == 60


def test_dual_indices_evaluate_to_the_same_string():
    # the convolution sums of k and its dual take the same products, so a
    # weight's duals, batched, give the same strings as the weight itself
    workdigits = numeric._workdigits(60)
    for w in range(2, 11):
        ks = admissible_indices(w)
        duals = [_dual(k) for k in ks]
        assert numeric._evaluate(duals, workdigits) == numeric._evaluate(ks, workdigits), w
        for k, k_dual in zip(ks, duals):
            member, text = numeric._record_key(k)
            assert numeric._record_key(k_dual) == (member, text), k
            assert member == min(k, k_dual, key=lambda x: (len(x), x))
            assert text == numeric.format_index(member)


def test_stored_precision_serves_lower_requests(tmp_path, monkeypatch):
    ks = [x for pair in _highprec_pairs() for x in pair]
    fresh = {d: eval_many(ks, d, cache=ValueCache(None)) for d in (60, 120)}
    path = str(tmp_path / "cache.jsonl")
    cache = ValueCache(path)
    eval_many(ks, 400, cache=cache)

    def refuse(ks, workdigits):
        raise AssertionError("computed %r" % (ks,))

    monkeypatch.setattr(numeric, "_evaluate", refuse)
    for digits in (120, 60):
        for k, served, f in zip(ks, eval_many(ks, digits, cache=cache), fresh[digits]):
            assert served.digits == digits and served.err == f.err, (k, digits)
            assert _close(served.value, f.value, digits - 5), (k, digits)
            assert eval_admissible(k, digits, cache=cache).value == served.value, (k, digits)
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    # one 400-digit record per dual pair, none added by the lower requests
    assert [(rec["index"], rec["precision"]) for rec in recs] == [
        ("(1,3,2)", 400), ("(1,4,2)", 400), ("(3,1,4)", 400)]


def test_get_serves_the_smallest_stored_precision_at_least_the_request(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ValueCache(path)
    for digits in (120, 60, 400):
        cache.put("(2)", digits, "%d.5" % digits)
    requests = [1, 59, 60, 61, 120, 121, 400, 401]
    for c in (cache, ValueCache(path)):
        assert [c.get("(2)", d) for d in requests] == \
            ["60.5", "60.5", "60.5", "120.5", "120.5", "400.5", "400.5", None]
        assert [("(2)", d) in c for d in requests] == [True] * 7 + [False]
        assert c.get("(3)", 1) is None and ("(3)", 1) not in c


def test_puts_and_gets_of_many_precisions_in_threads():
    # readers never see a precision below the request; no put is lost
    cache = ValueCache(None)
    precisions = list(range(10, 410, 10))
    order = precisions[1::2] + precisions[::2]

    def put_all(shift):
        for d in order[shift:] + order[:shift]:
            cache.put("(2)", d, "%d" % d)

    def get_all(_):
        for d in range(1, 420):
            found = cache.get("(2)", d)
            assert found is None or int(found) >= d, (d, found)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(f, i) for i in range(4) for f in (put_all, get_all)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert [cache.get("(2)", d) for d in precisions] == ["%d" % d for d in precisions]
    assert cache.get("(2)", 15) == "20" and cache.get("(2)", 401) is None


# three records written before records were keyed on dual pairs: (1,2) is
# the dual of (3) and (1,1,3) that of (1,4); the record of (1,1,3) is
# served under its pair's key (1,4)
_UNPAIRED_RECORDS = [
    '{"index": "(1,2)", "precision": 20, "value": "1.20205690315959428539973816151145",'
    ' "digest": "a5a9dfcc"}',
    '{"index": "(3)", "precision": 20, "value": "1.20205690315959428539973816151145",'
    ' "digest": "c479587c"}',
    '{"index": "(1,1,3)", "precision": 30, "value": '
    '"0.0965511599894437344656455314289427640320103723", "digest": "da1a1b31"}',
]


def test_cache_file_of_unpaired_records_loads_without_warnings(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in _UNPAIRED_RECORDS)
    before = os.stat(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ValueCache(path)
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    values = [json.loads(line)["value"] for line in _UNPAIRED_RECORDS]
    assert cache.get("(3)", 20) == values[1] and cache.get("(1,4)", 30) == values[2]
    # both members of a pair get the stored bits, and they are the bits of
    # a fresh computation
    for k, digits, text in [((3,), 20, values[1]), ((1, 2), 20, values[1]),
                            ((1, 1, 3), 30, values[2]), ((1, 4), 30, values[2])]:
        parsed = from_str(text, numeric._prec(digits), round_nearest)
        assert eval_admissible(k, digits, cache=cache).value._mpf_ == parsed, k
        assert eval_admissible(k, digits, cache=ValueCache(None)).value._mpf_ == parsed, k
    # nothing was computed again, so nothing was appended
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    with open(path, encoding="utf-8") as fh:
        assert [json.loads(line)["index"] for line in fh] == ["(1,2)", "(3)", "(1,1,3)"]


def test_cache_skips_blank_lines_without_warnings(tmp_path):
    # blank and whitespace-only lines between records are no damage: every
    # record loads, and the file is not rewritten
    path = str(tmp_path / "cache.jsonl")
    text = "\n" + _UNPAIRED_RECORDS[0] + "\n  \n\t\n" + _UNPAIRED_RECORDS[2] + "\n\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ValueCache(path)
    values = [json.loads(line)["value"] for line in _UNPAIRED_RECORDS]
    assert cache.get("(3)", 20) == values[0] and cache.get("(1,4)", 30) == values[2]
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == text


def test_cache_distinguishes_precision(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = ValueCache(path)
    eval_admissible((2,), 50, cache=c)
    eval_admissible((2,), 60, cache=c)
    assert c.get("(2)", 50) != c.get("(2)", 60)


def test_default_cache_env_pickup(tmp_path, monkeypatch):
    import mzvkit.numeric as numeric
    path = str(tmp_path / "envcache.jsonl")
    monkeypatch.setenv("MZV_CACHE_PATH", path)
    monkeypatch.setattr(numeric, "_default_cache", None)
    eval_admissible((2,), 45)
    with open(path, encoding="utf-8") as fh:
        assert "(2)" in fh.read()
    monkeypatch.setattr(numeric, "_default_cache", None)


def test_cache_skips_malformed_lines(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    eval_admissible((2, 3), 60, cache=ValueCache(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"index": "(4)", "precision": 60, "value": "garbage"}) + "\n")
        fh.write('{"index": "(3)", "preci')  # torn by a crash mid-write
    with pytest.warns(UserWarning, match="skipped 2 malformed"):
        cache = ValueCache(path)
    assert cache.get("(2,3)", 60) is not None
    assert cache.get("(3)", 60) is None and cache.get("(4)", 60) is None
    for k in [(2, 3), (3,), (4,)]:
        fresh = eval_admissible(k, 60, cache=ValueCache(None))
        assert eval_admissible(k, 60, cache=cache).to_decimal(70) == fresh.to_decimal(70)
    # the first load rewrote the file without the bad lines, so a second
    # load warns no more and serves every good value
    before = os.stat(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reread = ValueCache(path)
    after = os.stat(path)  # a clean load writes nothing
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    for text in ["(2,3)", "(3)", "(4)"]:
        assert reread.get(text, 60) == cache.get(text, 60) is not None
    with open(path, encoding="utf-8") as fh:
        assert [json.loads(line)["index"] for line in fh] == ["(2,3)", "(3)", "(4)"]


def test_cache_appends_after_a_last_record_without_its_newline(tmp_path):
    # a crash after a whole record but before its newline leaves a valid
    # last line; the next record must start a line of its own
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_UNPAIRED_RECORDS[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache = ValueCache(path)
    eval_admissible((2,), 20, cache=cache)
    value = cache.get("(2)", 20)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == _UNPAIRED_RECORDS[1] + "\n" + numeric._record("(2)", 20, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reread = ValueCache(path)
    assert reread.get("(3)", 20) == json.loads(_UNPAIRED_RECORDS[1])["value"]
    assert reread.get("(2)", 20) == value is not None


def test_cache_skips_records_that_name_no_admissible_index(tmp_path):
    # digests that match, over index texts that are no admissible index
    path = str(tmp_path / "cache.jsonl")
    value = json.loads(_UNPAIRED_RECORDS[2])["value"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_UNPAIRED_RECORDS[2] + "\n")
        fh.writelines(numeric._record(text, 30, value) for text in ["(2,1)", "(0,3)", "zeta"])
    with pytest.warns(UserWarning, match="skipped 3 malformed"):
        cache = ValueCache(path)
    assert cache.get("(1,4)", 30) == value
    # the one rewrite keeps the good record, under its pair's key
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == numeric._record("(1,4)", 30, value)


def _edit_value(rec):
    # another last digit, still a parsable value
    value = rec["value"]
    rec["value"] = value[:-1] + str((int(value[-1]) + 1) % 10)


def _strip_digest(rec):
    del rec["digest"]


@pytest.mark.parametrize("alter", [_edit_value, _strip_digest])
def test_cache_rejects_altered_records(tmp_path, alter):
    # the duals of (2,3) and (5,) write the records of (2,3) and (5,)
    path = str(tmp_path / "cache.jsonl")
    eval_many([(1, 2, 2), (1, 1, 1, 2)], 60, cache=ValueCache(path))
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    assert [rec["index"] for rec in recs] == ["(2,3)", "(5)"]
    assert all(len(rec["digest"]) == 8 for rec in recs)
    alter(recs[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in recs)
    with pytest.warns(UserWarning, match="skipped 1 malformed or altered"):
        cache = ValueCache(path)
    assert cache.get("(2,3)", 60) is not None and cache.get("(5)", 60) is None
    fresh = eval_admissible((5,), 60, cache=ValueCache(None))
    assert _bits([eval_admissible((5,), 60, cache=cache)]) == _bits([fresh])
    # the file was rewritten once: a clean load warns no more and writes nothing
    before = os.stat(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reread = ValueCache(path)
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert reread.get("(5)", 60) == cache.get("(5)", 60) is not None


def test_cache_rewrite_failure_keeps_the_file(tmp_path, monkeypatch):
    # a file that cannot be replaced keeps its bad line, leaves no
    # temporary file behind, and still serves the good records
    path = str(tmp_path / "cache.jsonl")
    eval_admissible((2, 3), 60, cache=ValueCache(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"index": "(3)", "preci')
    with open(path, encoding="utf-8") as fh:
        text = fh.read()

    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.warns(UserWarning, match="skipped 1 malformed"):
        cache = ValueCache(path)
    assert cache.get("(2,3)", 60) is not None
    assert os.listdir(tmp_path) == ["cache.jsonl"]
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == text


def test_thread_safety_same_bits():
    cache = ValueCache(None)
    serial = {k: eval_admissible(k, 60, cache=ValueCache(None)).to_decimal(70)
              for k in [(1, 3), (2, 2)]}
    results = []
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(eval_admissible, k, 60, cache)
                   for _ in range(3) for k in [(1, 3), (2, 2)]]
        for f in futures:
            results.append(f.result())
    for k, v in zip([(1, 3), (2, 2)] * 3, results):
        assert v.to_decimal(70) == serial[k]

    # congruence checks: BigReal arithmetic and lock-free PSLQ under threads
    targets = [(1, 4), (2, 3), (1, 1, 4), (2, 2, 2), (1, 3, 2)]
    relations._spanning_set.cache_clear()
    serial = [check_main_congruence(k, 60, cache=ValueCache(None)).to_json()
              for k in targets]
    relations._spanning_set.cache_clear()
    shared = ValueCache(None)

    def run_all(shift):
        order = targets[shift:] + targets[:shift]
        reports = {k: check_main_congruence(k, 60, cache=shared).to_json()
                   for k in order}
        return [reports[k] for k in targets]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_all, shift) for shift in range(4)]
            for f in futures:
                assert f.result(timeout=300) == serial
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# exact direct sums

def test_direct_sum_F_basics():
    for M in (1, 5):
        assert direct_sum_F((), M) == 1
        assert direct_sum_natural((), M) == 1
    for k in [(2,), (1, 1), (2, 1, 3)]:
        assert direct_sum_F(k, 1) == 0, k
        assert direct_sum_natural(k, 1) == 0, k
    for M in range(2, 10):
        assert direct_sum_F((1,), M) == 0
    assert direct_sum_F((2,), 3) == Fraction(5, 2)
    for M in (0, -3):
        with pytest.raises(ValueError):
            direct_sum_F((2,), M)
        with pytest.raises(ValueError):
            direct_sum_natural((1, 1), M)
        # the empty index is no exception to the cutoff check
        for direct_sum in (direct_sum_F, direct_sum_natural):
            with pytest.raises(ValueError, match="M must be a positive integer"):
                direct_sum((), M)


def test_direct_sum_F_depth_two_closed_form():
    # pairing the full square (which cancels) against the diagonal gives
    # sum over strict chains of 1/(m1 m2) = -sum_{0<m<M} 1/m^2
    for M in (2, 3, 5, 10):
        expect = -sum(Fraction(1, m * m) for m in range(1, M))
        assert direct_sum_F((1, 1), M) == expect


def _signed_values(M):
    return [m for m in range(1, M)] + [-m for m in range(1, M)]


def test_direct_sum_F_brute_force():
    cases = [(k, M) for k in [(1,), (2,), (1, 1), (2, 1), (1, 2)] for M in (2, 4, 6)]
    for k, M in cases + [((2, 1, 1, 3), 4), ((1, 1, 1, 1), 5)]:
        vals = _signed_values(M)
        total = Fraction(0)
        for tup in itertools.product(vals, repeat=len(k)):
            recips = [Fraction(1, m) for m in tup]
            if all(recips[i] > recips[i + 1] for i in range(len(tup) - 1)):
                term = Fraction(1)
                for m, e in zip(tup, k):
                    term *= Fraction(1, m ** e)
                total += term
        assert direct_sum_F(k, M) == total, (k, M)


def test_direct_sum_natural_brute_force_via_cone_weight():
    # depth 4 takes every binomial tie weight C(j, i) of the weak kernel, j <= 4
    cases = [((1, 1), 5), ((2, 1), 5), ((1, 2), 4), ((1, 1, 1), 4), ((2, 1, 3), 5),
             ((1, 1, 1, 1), 4), ((3, 1, 1, 2), 4)]
    for k, M in cases:
        vals = _signed_values(M)
        total = Fraction(0)
        for tup in itertools.product(vals, repeat=len(k)):
            w = cone_weight(tup)
            if w:
                term = w
                for m, e in zip(tup, k):
                    term *= Fraction(1, m ** e)
                total += term
        assert direct_sum_natural(k, M) == total, (k, M)


def test_direct_sum_natural_depth_one_matches_strict():
    for M in (2, 3, 7):
        assert direct_sum_natural((2,), M) == direct_sum_F((2,), M)
    assert direct_sum_natural((2,), 3) == Fraction(5, 2)


def test_direct_sum_natural_surjection_expansion():
    # weighted weak chains = sum over ordered surjections of strict chains
    # of the collapsed index, divided by the stabilizer order
    for k in [(2, 1), (2, 1, 1), (1, 2, 2)]:
        n = len(k)
        for M in (4, 9):
            expect = Fraction(0)
            for m in range(1, n + 1):
                for comp in enumerate_surjections(n, m):
                    expect += Fraction(1, stabilizer_order(comp)) \
                        * direct_sum_F(push_index(comp, k), M)
            assert direct_sum_natural(k, M) == expect, (k, M)


def test_totally_odd_natural_vanishes():
    for k in [(1,), (3,), (1, 1), (3, 1), (1, 3), (1, 1, 1), (3, 3, 1)]:
        for M in (2, 5, 13):
            assert direct_sum_natural(k, M) == 0, (k, M)


# ---------------------------------------------------------------------------
# extrapolation

def test_richardson_exact_geometric():
    seq = [Fraction(1) + Fraction(1, 2 ** j) for j in range(1, 6)]
    assert richardson_extrapolate(seq) == 1
    assert richardson_extrapolate([Fraction(7, 3)] * 4) == Fraction(7, 3)
    with pytest.raises(ValueError):
        richardson_extrapolate([])


def test_richardson_depth_two_limits():
    seq = [direct_sum_F((1, 1), 2 ** j) for j in range(1, 9)]
    ext = richardson_extrapolate(seq)
    with mp.workdps(40):
        val = mpf(ext.numerator) / ext.denominator
        assert abs(val + mp.pi ** 2 / 6) < 1e-6


def test_richardson_depth_one_limit():
    seq = [direct_sum_F((2,), 2 ** j) for j in range(1, 9)]
    ext = richardson_extrapolate(seq)
    with mp.workdps(40):
        val = mpf(ext.numerator) / ext.denominator
        assert abs(val - mp.pi ** 2 / 3) < 1e-6
