"""Numeric congruence laboratory.

Checks, to high precision, that finite symmetric values agree with explicit
boundary sums modulo a spanning set of products and lower-depth values.  The
verdicts are integer-relation detections, not proofs; every report is
labeled as numeric evidence.  A verdict works at the precision D that its
inputs share, and a confirmed one always has a residual below 10^-(D//2):
a difference confirmed without a span is one that `BigReal.is_zero`
accepts, below 10^-max(D-10, D//2), the tolerance of the PSLQ search too.

A spanning set is built once per (weight, extra depth, digits, value cache)
and shared by every check that asks for it; its PSLQ reduction to an
independent subset is computed once per spanning set, from its own values.
The sets of one weight form a chain: extra depth 0 holds the products, and
the set of extra depth e >= 1 is the set of depth e - 1 followed by the
values of depth e, so its reduction continues the shorter set's kept and
dropped lists.  Each weight's product part is thus evaluated (in one
`eval_many` batch) and reduced once, whatever the extra depths asked for.
An extra depth below 0 lists the same entries as 0 and gets that set.

The integer-relation search `_pslq` is a port of mpmath 1.3's fixed-point
PSLQ (Ferguson-Bailey-Arno) that returns mpmath's relation for every input.
It rounds the inputs and the tolerance as mpmath does at the working
precision and runs mpmath's integer steps in the same order, so each
integer it computes is mpmath's.  It drops only work: dicts become lists,
the matrix A that mpmath updates but never reads is gone, and a reduction
step (t*X) >> prec, whose rounded t is always T*2^prec, becomes the exact
T*X, skipped when T = 0.  Its precision is an argument, so it reads no
global state and concurrent searches need no lock.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod

from mpmath import pslq  # noqa: F401  the reference _pslq reproduces, kept under this name
from mpmath.libmp import mpf_pos, round_nearest, sqrt_fixed, to_fixed

from .finite import zeta_F, zeta_natural_F
from .indices import (
    admissible_indices,
    check_index,
    check_int,
    compositions_nonneg,
    format_index,
    indices_of_weight,
    stuffle,
    weight,
    word_of_index,
)
from .numeric import (
    DEFAULT_DIGITS,
    BigReal,
    _prec,
    _zero_tolerance,
    default_cache,
    eval_admissible,
    eval_combo,
    eval_many,
    linear_combination,
)
from .regularization import MzvCombo, associator_coefficient, regularize

__all__ = [
    "RelationReport",
    "SpanningSet",
    "boundary_expansion",
    "congruence_rhs",
    "build_spanning_set",
    "verify_congruence",
    "check_main_congruence",
    "contraction_expansion",
    "verify_contraction_congruence",
    "word_dual_expansion",
    "verify_word_dual_congruence",
    "sharp_product_defect",
    "opposite_parity_indices",
]

EVIDENCE = "numeric evidence"


# ---------------------------------------------------------------------------
# boundary expansion for the main congruence

def _check_opposite_parity(k):
    k = check_index(k)
    w = weight(k)
    if (w + len(k)) % 2 == 0:
        raise ValueError(
            "weight and depth must have different parities, got %s" % format_index(k))
    if w == 2:
        raise ValueError("weight 2 is excluded")
    return k


def boundary_expansion(k):
    """Two binomial-weighted boundary sums for an index, as an MzvCombo.

    First sum: the leading part k_1 is distributed over the remaining
    parts, weighted by binomials, with sign -(-1)^{k_1}.  Second sum: the
    same with the trailing part k_n distributed over the leading parts,
    with sign +(-1)^{k_n}.  Depth 1 degenerates to zero: a positive part
    cannot be distributed over an empty tuple.  Each term is the constant
    term of the stuffle regularization; no term is an all-ones index, so
    the scheme choice only moves the value by products, which the spanning
    set absorbs.
    """
    k = _check_opposite_parity(k)
    terms = []
    for part, rest, sign in ((k[0], k[1:], -((-1) ** k[0])), (k[-1], k[:-1], (-1) ** k[-1])):
        for ell in compositions_nonneg(part, len(rest)):
            coef = prod(comb(a + e - 1, e) for a, e in zip(rest, ell))
            target = tuple(a + e for a, e in zip(rest, ell))
            terms.append((sign * coef, regularize("stuffle", target).constant_term()))
    return MzvCombo.zero().combined(terms)


def congruence_rhs(k, digits=DEFAULT_DIGITS, cache=None):
    """Numeric value of the boundary expansion."""
    return eval_combo(boundary_expansion(k), digits, cache)


# ---------------------------------------------------------------------------
# integer-relation search

_PSLQ_MAXSTEPS = 5000
_PSLQ_MAXCOEFF = 10 ** 6
_PSLQ_EXTRA_BITS = 60


def _pslq(values, digits):
    """Integer relation of the mpf `values`, or None: the result of
    mpmath's `pslq(values, tol, _PSLQ_MAXCOEFF, _PSLQ_MAXSTEPS)` at the
    working precision of `digits`, computed without setting that precision.

    The tolerance is the zero threshold of `BigReal.is_zero`,
    10^-max(D-10, D//2) (`numeric._zero_tolerance`).  Raises ValueError on
    a zero entry, as mpmath does.
    """
    n = len(values)
    if n < 2:
        raise ValueError("n cannot be less than 2")
    wprec = _prec(digits)
    prec = wprec + _PSLQ_EXTRA_BITS
    half = 1 << (prec - 1)
    tol = to_fixed(_zero_tolerance(digits), prec)
    x = [to_fixed(mpf_pos(v._mpf_, wprec, round_nearest), prec) for v in values]
    minx = min(map(abs, x))
    if not minx:
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if minx < tol // 100:
        return None
    g = sqrt_fixed((4 << prec) // 3, prec)
    weights = [(g ** i, prec * (i - 1)) for i in range(1, n)]
    # H[i][j] is mpmath's H[i+1, j+1]; B[j][k] is its B[k+1, j+1] over
    # 2^prec, so B is kept by columns and its entries are the relations
    B = [[int(i == k) for k in range(n)] for i in range(n)]
    H = [[0] * n for _ in range(n)]
    s, t = [0] * n, 0
    for k in range(n - 1, -1, -1):
        t += x[k] ** 2 >> prec
        s[k] = sqrt_fixed(t, prec)
    t = s[0]
    y = [(xk << prec) // t for xk in x]
    s = [(sk << prec) // t for sk in s]
    for i in range(n):
        if i < n - 1 and s[i]:
            H[i][i] = (s[i + 1] << prec) // s[i]
        for j in range(i):
            sjj1 = s[j] * s[j + 1]
            if sjj1:
                H[i][j] = ((-y[i] * y[j]) << prec) // sjj1

    def reduce(i, j):
        # row i of H less T times row j, column j of B plus T times column i
        Hi, Hj = H[i], H[j]
        T = (((Hi[j] << prec) // Hj[j]) + half) >> prec
        if T:
            y[j] += T * y[i]
            for k in range(j + 1):
                Hi[k] -= T * Hj[k]
            Bi, Bj = B[i], B[j]
            for k in range(n):
                Bj[k] += T * Bi[k]

    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            if H[j][j]:
                reduce(i, j)
    maxcoeff = _PSLQ_MAXCOEFF
    for _ in range(_PSLQ_MAXSTEPS):
        m, szmax = -1, -1
        for i, (gi, shift) in enumerate(weights):
            sz = (gi * abs(H[i][i])) >> shift
            if sz > szmax:
                m, szmax = i, sz
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        B[m], B[m + 1] = B[m + 1], B[m]
        if m <= n - 3:
            Hm = H[m]
            t0 = sqrt_fixed((Hm[m] ** 2 + Hm[m + 1] ** 2) >> prec, prec)
            if not t0:
                break
            t1 = (Hm[m] << prec) // t0
            t2 = (Hm[m + 1] << prec) // t0
            for Hi in H[m:]:
                t3, t4 = Hi[m], Hi[m + 1]
                Hi[m] = (t1 * t3 + t2 * t4) >> prec
                Hi[m + 1] = (-t2 * t3 + t1 * t4) >> prec
        for i in range(m + 1, n):
            for j in range(min(i - 1, m + 1), -1, -1):
                if not H[j][j]:
                    break  # precision exhausted, as mpmath reads it
                reduce(i, j)
        for yi, column in zip(y, B):
            if abs(yi) < tol and max(map(abs, column)) < maxcoeff:
                return column
        recnorm = max(abs(h) for row in H for h in row)
        if not recnorm or ((1 << (2 * prec)) // recnorm >> prec) // 100 >= maxcoeff:
            break
    return None


# ---------------------------------------------------------------------------
# spanning sets

@dataclass(frozen=True)
class SpanningSet:
    """Labeled values spanning the product part plus a depth-bounded part.

    `shorter`, when set, is the spanning set of one less extra depth; its
    entries are the first entries of this one."""

    weight: int
    max_extra_depth: int
    digits: int
    entries: tuple  # of (label, BigReal), every value, none dropped
    shorter: "SpanningSet" = field(default=None, compare=False, repr=False)

    def labels(self):
        return [label for label, _ in self.entries]

    @cached_property
    def reduced(self):
        """(kept, dropped): the entries without each value that is
        integer-relation dependent on the values kept before it, so the
        final detection runs on an independent list.  Computed once per
        spanning set, from its own values.  A set built on a shorter one
        continues that set's reduction, which is what the entries they
        share would give again."""
        kept, dropped, start = [], [], 0
        if self.shorter is not None:
            kept, dropped = map(list, self.shorter.reduced)
            start = len(self.shorter.entries)
        for label, value in self.entries[start:]:
            rel = _pslq([v.value for _, v in kept] + [value.value],
                        self.digits) if kept else None
            if rel is None:
                kept.append((label, value))
            elif rel[-1] == 0:
                raise ArithmeticError(
                    "relation among already independent span values: %s" % (rel,))
            else:
                dropped.append(label)
        return tuple(kept), tuple(dropped)


def build_spanning_set(target_weight, max_extra_depth, digits=DEFAULT_DIGITS,
                       cache=None):
    """All products of two admissible values with weights summing to the
    target, plus all admissible values of the target weight with depth at
    most max_extra_depth.  Unordered product pairs are listed once.

    One SpanningSet per (target weight, max_extra_depth, digits, value
    cache) is built and then shared; a max_extra_depth below 0 lists the
    same entries as 0 and gets that set.  cache=None means the process-wide
    cache at the time of the call."""
    return _spanning_set(target_weight, max(max_extra_depth, 0), digits,
                         default_cache() if cache is None else cache)


@lru_cache(maxsize=64)
def _spanning_set(target_weight, max_extra_depth, digits, cache):
    if max_extra_depth:
        # the set of one less extra depth, then the values of this depth
        shorter = _spanning_set(target_weight, max_extra_depth - 1, digits, cache)
        ks = [k for k in admissible_indices(target_weight, max_extra_depth)
              if len(k) == max_extra_depth]
        entries = shorter.entries + tuple(
            ("z%s" % format_index(k), v) for k, v in zip(ks, eval_many(ks, digits, cache)))
        return SpanningSet(target_weight, max_extra_depth, digits, entries, shorter)
    factors = [k for w in range(2, target_weight - 1) for k in admissible_indices(w)]
    value = dict(zip(factors, eval_many(factors, digits, cache)))
    entries = []
    for wa in range(2, target_weight // 2 + 1):
        left = admissible_indices(wa)
        # equal weights give each unordered pair once, in product order
        pairs = (combinations_with_replacement(left, 2) if 2 * wa == target_weight
                 else product(left, admissible_indices(target_weight - wa)))
        for pair in pairs:
            a, b = sorted(pair)
            entries.append(("z%s*z%s" % (format_index(a), format_index(b)), value[a] * value[b]))
    return SpanningSet(target_weight, 0, digits, tuple(entries))


# ---------------------------------------------------------------------------
# integer-relation engine

def _height(coefficients):
    """The largest |numerator| or denominator of the (label, Fraction)
    coefficients, 0 for none: what a verdict bounds and a report shows."""
    return max((max(abs(q.numerator), q.denominator) for _, q in coefficients), default=0)


@dataclass(frozen=True)
class RelationReport:
    """Outcome of one relation check.  Never more than numeric evidence."""

    target: str
    verdict: str  # "confirmed" or "inconclusive"
    digits: int
    denom_bound: int
    coefficients: tuple  # of (label, Fraction)
    residual: str
    notes: tuple = field(default=())
    evidence: str = EVIDENCE

    def confirmed(self):
        return self.verdict == "confirmed"

    def height(self):
        return _height(self.coefficients)

    def to_json(self):
        return {
            "target": self.target,
            "verdict": self.verdict,
            "digits": self.digits,
            "denom_bound": self.denom_bound,
            "coefficients": {label: str(q) for label, q in self.coefficients},
            "height": self.height(),
            "residual": self.residual,
            "notes": list(self.notes),
            "evidence": self.evidence,
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def verify_congruence(lhs, rhs, span, denom_bound=10 ** 4, target="", notes=()):
    """Detect lhs - rhs as a bounded-height rational combination of the
    values of a SpanningSet, reduced to an independent subset, at the
    precision D its inputs share: lhs and rhs must be at the digits of the
    span, or ValueError is raised.  A difference that `is_zero` accepts,
    below 10^-max(D-10, D//2), is confirmed without a span.  Otherwise the
    verdict confirms only when the residual is below 10^-(D//2) and the
    report's height stays below denom_bound.  The residual is lhs - rhs
    less the combination, summed exactly and rounded once
    (`linear_combination`)."""
    digits = span.digits
    if not lhs.digits == rhs.digits == digits:
        raise ValueError("lhs and rhs must be at the %d digits of the span, got %d and %d"
                         % (digits, lhs.digits, rhs.digits))
    notes = list(notes)
    diff = lhs - rhs
    # without a relation the report has no coefficients and shows |lhs - rhs|
    verdict, coeffs, residual = "inconclusive", (), abs(diff).to_decimal(20)
    if diff.is_zero():
        verdict = "confirmed"
        notes.append("difference below detection tolerance, no span needed")
    else:
        kept, dropped = span.reduced
        if dropped:
            notes.append("dependent span values dropped: " + ", ".join(dropped))
        rel = _pslq([diff.value] + [v.value for _, v in kept], digits) if kept else None
        if not kept:
            notes.append("empty span and nonzero difference")
        elif rel is None or rel[0] == 0:
            notes.append("no integer relation found at this precision")
        else:
            coeffs = tuple((label, Fraction(-rel[j + 1], rel[0]))
                           for j, (label, _) in enumerate(kept) if rel[j + 1] != 0)
            remainder = abs(linear_combination(
                [(1, lhs), (-1, rhs)] + [(Fraction(rel[j + 1], rel[0]), v)
                                         for j, (_, v) in enumerate(kept)], digits))
            residual = remainder.to_decimal(20)
            bound = BigReal.from_rational(Fraction(1, 10 ** (digits // 2)), digits)
            height = _height(coeffs)
            verdict = "confirmed"
            if not remainder.value < bound.value:
                verdict = "inconclusive"
                notes.append("residual above threshold")
            if height >= denom_bound:
                verdict = "inconclusive"
                notes.append("coefficient height %d exceeds bound" % height)
    return RelationReport(target, verdict, digits, denom_bound,
                          coeffs, residual, tuple(notes))


# ---------------------------------------------------------------------------
# the shipped relation checks

def _congruence(k, lhs, rhs, target, digits, denom_bound, cache, notes=()):
    """The report of one shipped check: the MzvCombos lhs and rhs of the
    index k are evaluated, and their difference is detected modulo the
    spanning set of extra depth n-2."""
    lhs = eval_combo(lhs, digits, cache)
    rhs = eval_combo(rhs, digits, cache)
    span = build_spanning_set(weight(k), len(k) - 2, digits, cache)
    return verify_congruence(lhs, rhs, span, denom_bound, target=target, notes=notes)


def check_main_congruence(k, digits=DEFAULT_DIGITS, denom_bound=10 ** 4,
                          cache=None):
    """Natural finite value against the boundary expansion, modulo products
    plus values of depth at most n-2."""
    k = _check_opposite_parity(k)
    lhs, rhs = zeta_natural_F(k), boundary_expansion(k)
    notes = ["difference vanishes symbolically"] if lhs == rhs else []
    return _congruence(k, lhs, rhs, "zeta_natural_F%s" % format_index(k),
                       digits, denom_bound, cache, notes)


CONTRACTION_READINGS = ("as_displayed", "weight_homogeneous")


def contraction_expansion(k, reading="weight_homogeneous"):
    """Minus the sum of values with two neighbours merged.

    reading="weight_homogeneous" replaces the pair (k_i, k_{i+1}) by their
    sum.  reading="as_displayed" keeps a second copy of k_{i+1} after the
    merged part; this variant is weight-inhomogeneous and is provided so
    both candidate statements can be tested side by side.
    """
    k = check_index(k)
    if reading not in CONTRACTION_READINGS:
        raise ValueError("unknown reading %r" % (reading,))
    terms = []
    for i in range(1, len(k)):
        merged = (k[i - 1] + k[i],)
        if reading == "as_displayed":
            target = k[:i - 1] + merged + k[i:]
        else:
            target = k[:i - 1] + merged + k[i + 1:]
        terms.append((-1, regularize("stuffle", target).constant_term()))
    return MzvCombo.zero().combined(terms)


def verify_contraction_congruence(k, digits=DEFAULT_DIGITS,
                                  denom_bound=10 ** 4, cache=None):
    """Finite value against the merged-neighbour sums, same-parity indices.

    Returns one report per reading; the caller sees which candidate holds.
    """
    k = check_index(k)
    if (weight(k) + len(k)) % 2 == 1:
        raise ValueError(
            "weight and depth must have the same parity, got %s" % format_index(k))
    return {reading: _congruence(k, zeta_F(k), contraction_expansion(k, reading),
                                 "zeta_F%s [%s]" % (format_index(k), reading),
                                 digits, denom_bound, cache)
            for reading in CONTRACTION_READINGS}


def word_dual_expansion(k):
    """Word-coefficient form of the boundary sums, as an MzvCombo.

    The two words are the index word and the reversed-index word, each with
    the final letter B replaced by A.  Such words fall outside the plain
    index dictionary; their coefficients follow the two-letter series
    convention implemented by associator_coefficient.
    """
    k = _check_opposite_parity(k)
    w = word_of_index(k)[:-1] + "A"
    wstar = word_of_index(k[::-1])[:-1] + "A"
    sign = (-1) ** weight(k)
    return (associator_coefficient(w).scaled(-1)
            + associator_coefficient(wstar).scaled(-sign))


def verify_word_dual_congruence(k, digits=DEFAULT_DIGITS,
                                denom_bound=10 ** 4, cache=None):
    """Finite value against the word-coefficient boundary form."""
    k = _check_opposite_parity(k)
    return _congruence(k, zeta_F(k), word_dual_expansion(k),
                       "zeta_F%s [word form]" % format_index(k), digits, denom_bound, cache,
                       ("A-terminated words use the two-letter series convention",))


def sharp_product_defect(k, kprime, digits=DEFAULT_DIGITS, cache=None):
    """Numeric defect of the quasi-shuffle expansion for integral-scheme
    constant terms against a factor whose parts are all at least 2.

    Left side: the two real numbers multiplied.  Right side: the sum of
    constant terms over the quasi-shuffle multiset.  Returns |lhs - rhs|.
    The identity needs the strict part bound; against a factor with a part
    equal to 1 the defect is of order one.
    """
    k = check_index(k)
    kprime = check_index(kprime)
    if any(p < 2 for p in kprime):
        raise ValueError("every part of the second factor must be >= 2, got %s"
                         % format_index(kprime))
    left = eval_combo(regularize("shuffle", k).constant_term(), digits, cache) * \
        eval_admissible(kprime, digits, cache)
    acc = MzvCombo.zero().combined((mult, regularize("shuffle", term).constant_term())
                                   for term, mult in stuffle(k, kprime).items())
    return abs(left - eval_combo(acc, digits, cache))


def opposite_parity_indices(max_weight, max_depth):
    """All indices with weight+depth odd, weight at most max_weight but not
    2, depth at most max_depth; the domain of the main congruence.  Both
    bounds are ints (`check_int`)."""
    check_int(max_weight, None, "max_weight and max_depth must be integers")
    check_int(max_depth, None, "max_weight and max_depth must be integers")
    out = []
    for w in range(1, max_weight + 1):
        if w == 2:
            continue
        for n in range(1, max_depth + 1):
            if (w + n) % 2 == 0:
                continue
            out.extend(indices_of_weight(w, n))
    return out
