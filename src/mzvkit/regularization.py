"""Regularized multiple zeta values as polynomials in T.

Non-admissible indices (trailing part 1) and non-admissible words (leading
letter B) do not define convergent values.  Both standard schemes extend them
to polynomials in a formal variable T over exact rational combinations of
admissible values:

- series scheme: close the index algebra under the stuffle product with the
  convention that the value of (1) is T itself;
- integral scheme: close the word algebra under the shuffle product with the
  convention that the value of the word B is T.

The "constant term" of either scheme means the T^0 coefficient.  The two
schemes produce different polynomials for the same input and are never mixed;
T is one shared formal symbol but each value knows which product built it
only through the call used to produce it.

MzvCombo is an exact rational linear combination of admissible indices, the
coefficient domain for everything symbolic in this package.  Products of
MzvCombos expand through the stuffle product, which is a true identity of the
underlying real numbers, so the expansion is valid no matter which scheme the
factors came from.
"""

from fractions import Fraction
from functools import lru_cache

from .indices import (
    _stuffle,
    check_index,
    check_word,
    format_index,
    index_of_word,
    is_admissible,
    parse_index,
    shuffle_words,
    stabilizer_order,
    enumerate_surjections,
    push_index,
    weight,
)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("exact rational coefficient expected, got %r" % (x,))


class MzvCombo:
    """Exact rational linear combination of admissible indices.

    The empty index () stands for the constant 1, so plain rationals embed.
    Instances are immutable by convention: no method mutates self.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                k = check_index(k)
                if not is_admissible(k):
                    raise ValueError("MzvCombo keys must be admissible, got %s"
                                     % format_index(k))
                c = _as_fraction(c)
                if c:
                    clean[k] = clean.get(k, Fraction(0)) + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def _trusted(cls, terms):
        """Result of arithmetic on validated instances: the keys are already
        admissible and the coefficients Fractions, so only zero
        coefficients are dropped."""
        combo = object.__new__(cls)
        combo.terms = {k: c for k, c in terms.items() if c}
        return combo

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def of_index(cls, k):
        return cls({check_index(k): Fraction(1)})

    @classmethod
    def of_rational(cls, q):
        return cls({(): _as_fraction(q)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MzvCombo):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, MzvCombo):
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return MzvCombo._trusted(acc)

    def __sub__(self, other):
        if not isinstance(other, MzvCombo):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MzvCombo._trusted({k: -c for k, c in self.terms.items()})

    def scaled(self, q):
        q = _as_fraction(q)
        if not q:
            return MzvCombo.zero()
        return MzvCombo._trusted({k: c * q for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if isinstance(other, MzvCombo):
            return combo_product(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def weights(self):
        """Set of weights occurring among the terms."""
        return {weight(k) for k in self.terms}

    def __repr__(self):
        if not self.terms:
            return "MzvCombo(0)"
        bits = []
        for k in sorted(self.terms):
            bits.append("%s*z%s" % (self.terms[k], format_index(k)))
        return "MzvCombo(" + " + ".join(bits) + ")"

    def to_json_obj(self):
        return {format_index(k): str(c) for k, c in sorted(self.terms.items())}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({parse_index(key): Fraction(val) for key, val in obj.items()})


def combo_product(a, b):
    """Product of two combinations, expanded through the stuffle product.

    The stuffle of two admissible indices only produces admissible indices
    (the last part of every term is a sum containing some last part >= 2),
    so the result stays inside the admissible span.  The keys of both
    combinations are checked indices already, so the cached product is read
    directly.
    """
    acc = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c = c1 * c2
            for term, mult in _stuffle(k1, k2):
                acc[term] = acc[term] + c * mult if term in acc else c * mult
    return MzvCombo._trusted(acc)


class RegPoly:
    """Polynomial in the regularization variable T with MzvCombo coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for j, combo in coeffs.items():
                if not isinstance(j, int) or j < 0:
                    raise ValueError("T-degrees must be nonnegative integers")
                if not isinstance(combo, MzvCombo):
                    combo = MzvCombo(combo)
                if not combo.is_zero():
                    clean[j] = combo
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of_combo(cls, combo):
        return cls({0: combo})

    @classmethod
    def of_index(cls, k):
        return cls({0: MzvCombo.of_index(k)})

    @classmethod
    def T(cls):
        return cls({1: MzvCombo.one()})

    def constant_term(self):
        return self.coeffs.get(0, MzvCombo.zero())

    def coefficient(self, j):
        return self.coeffs.get(j, MzvCombo.zero())

    def degree(self):
        return max(self.coeffs, default=-1)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, RegPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((j, hash(c)) for j, c in self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, RegPoly):
            return NotImplemented
        acc = dict(self.coeffs)
        for j, combo in other.coeffs.items():
            acc[j] = acc.get(j, MzvCombo.zero()) + combo
        return RegPoly(acc)

    def __sub__(self, other):
        if not isinstance(other, RegPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RegPoly({j: -combo for j, combo in self.coeffs.items()})

    def scaled(self, q):
        return RegPoly({j: combo.scaled(q) for j, combo in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if isinstance(other, RegPoly):
            acc = {}
            for j1, c1 in self.coeffs.items():
                for j2, c2 in other.coeffs.items():
                    j = j1 + j2
                    prod = combo_product(c1, c2)
                    acc[j] = acc.get(j, MzvCombo.zero()) + prod
            return RegPoly(acc)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __repr__(self):
        if not self.coeffs:
            return "RegPoly(0)"
        bits = []
        for j in sorted(self.coeffs):
            bits.append("T^%d*(%r)" % (j, self.coeffs[j]))
        return "RegPoly(" + " + ".join(bits) + ")"

    def to_json_obj(self):
        return {"T^%d" % j: combo.to_json_obj()
                for j, combo in sorted(self.coeffs.items())}

    @classmethod
    def from_json_obj(cls, obj):
        coeffs = {}
        for key, val in obj.items():
            if not key.startswith("T^"):
                raise ValueError("RegPoly JSON keys look like 'T^j', got %r" % key)
            coeffs[int(key[2:])] = MzvCombo.from_json_obj(val)
        return cls(coeffs)


@lru_cache(maxsize=None)
def stuffle_regularize(k):
    """Series-scheme regularization of an index, as a RegPoly.

    Admissible indices are fixed points.  Otherwise let u be k with the last
    part (which is 1) removed, and expand u stuffled with (1).  The term k
    itself occurs with multiplicity c = number of trailing 1-parts of k,
    and every other term has strictly fewer trailing 1-parts, so

        value(k) = (value(u) * T - sum of the other terms) / c

    terminates: the recursion strictly reduces the trailing-1 count until an
    admissible index remains.
    """
    k = check_index(k)
    if is_admissible(k):
        return RegPoly.of_index(k)
    head = k[:-1]
    expansion = dict(_stuffle(head, (1,)))
    mult_k = expansion[k]
    acc = stuffle_regularize(head) * RegPoly.T()
    for term, mult in expansion.items():
        if term == k:
            continue
        acc = acc - stuffle_regularize(term).scaled(mult)
    return acc.scaled(Fraction(1, mult_k))


@lru_cache(maxsize=None)
def shuffle_regularize(w):
    """Integral-scheme regularization of a B-terminated word, as a RegPoly.

    Admissible words (leading A, or empty) are fixed points mapped to their
    index.  Otherwise w = B + rest, and expanding B shuffled with rest makes
    w occur with multiplicity equal to its leading-B run length while all
    other interleavings have exactly one fewer leading B, so the recursion
    on the leading-B count terminates.
    """
    w = check_word(w)
    if w != "" and not w.endswith("B"):
        raise ValueError("shuffle_regularize needs a B-terminated word, got %r" % w)
    if w == "" or w.startswith("A"):
        return RegPoly.of_index(index_of_word(w))
    rest = w[1:]
    expansion = shuffle_words("B", rest)
    mult_w = expansion[w]
    acc = shuffle_regularize(rest) * RegPoly.T()
    for term, mult in expansion.items():
        if term == w:
            continue
        acc = acc - shuffle_regularize(term).scaled(mult)
    return acc.scaled(Fraction(1, mult_w))


@lru_cache(maxsize=None)
def associator_coefficient(w):
    """Coefficient of the word w in the associator series, as an MzvCombo.

    This is the unique extension of the admissible values to a shuffle
    homomorphism on all words with value 0 on both single letters.  For
    B-terminated words it is the constant term of shuffle_regularize; a
    trailing A-run of length r is stripped through

        0 = value(w minus one A) * value(A)
          = r * value(w) + (other interleavings with shorter trailing runs)

    which terminates on the trailing-A count.
    """
    w = check_word(w)
    if w == "":
        return MzvCombo.one()
    if w.endswith("B"):
        return shuffle_regularize(w).constant_term()
    body = w.rstrip("A")
    run = len(w) - len(body)
    head = body + "A" * (run - 1)
    expansion = shuffle_words(head, "A")
    if expansion[w] != run:
        raise ArithmeticError("%r occurs %d times in its trailing-A expansion, "
                              "expected %d" % (w, expansion[w], run))
    acc = MzvCombo.zero()
    for term, mult in expansion.items():
        if term == w:
            continue
        acc = acc - associator_coefficient(term).scaled(mult)
    return acc.scaled(Fraction(1, run))


@lru_cache(maxsize=None)
def natural_regularize(k):
    """Surjection-weighted series regularization.

    The sum over all weakly order-preserving surjections phi of
    stuffle_regularize(phi_* k) / (order of the stabilizer of phi).
    Depth 0 and 1 are degenerate: only the identity surjection exists.
    """
    k = check_index(k)
    if len(k) == 0:
        return RegPoly.of_index(())
    acc = RegPoly.zero()
    n = len(k)
    for m in range(1, n + 1):
        for comp in enumerate_surjections(n, m):
            part = stuffle_regularize(push_index(comp, k))
            acc = acc + part.scaled(Fraction(1, stabilizer_order(comp)))
    return acc
