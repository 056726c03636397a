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
coefficient domain for everything symbolic in this package, and RegPoly a
polynomial in T over it; both take their arithmetic from
combination.Combination.  Products of MzvCombos expand through the stuffle
product, which is a true identity of the underlying real numbers, so the
expansion is valid no matter which scheme the factors came from.

Both schemes, and the associator coefficients, peel one letter or part off
the target: a product of shorter values expands into the target and terms
that are closer to admissible, so the target's value is that product minus
the other terms, divided by the target's multiplicity.  The product and
the scaled terms go into one Combination.combined call, so each step
builds one Fraction per coefficient of the result instead of one per term
and copy of a running sum; surjection_sum is one such call as well, over
the surjections of each depth, which are listed once (`_surjections`).

regularize(scheme, k) is the one dispatch from a scheme name (SCHEMES,
aliases through normalize_scheme) to the regularization of an index:
natural_regularize, stuffle_regularize, or shuffle_regularize of the index
word.  series, finite, relations and the CLI all regularize through it.
"""

from fractions import Fraction
from functools import lru_cache

from .combination import Combination, as_fraction
from .indices import (
    _block_bounds,
    _stuffle,
    check_admissible,
    check_index,
    check_word,
    compositions,
    format_index,
    index_of_word,
    is_admissible,
    parse_index,
    shuffle_words,
    stabilizer_order,
    weight,
    word_of_index,
)


class MzvCombo(Combination):
    """Exact rational linear combination of admissible indices.

    The empty index () stands for the constant 1, so plain rationals embed.
    Products expand through the stuffle product of the keys.
    """

    __slots__ = ()

    # The stuffle of two admissible indices only produces admissible indices
    # (the last part of every term is a sum containing some last part >= 2),
    # so products stay inside the admissible span.  Keys are checked indices
    # already, so the cached product is read directly.
    _key_product = staticmethod(_stuffle)

    def __init__(self, terms=None):
        self.terms = self._merged((check_admissible(k), as_fraction(c))
                                  for k, c in (terms or {}).items())

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def of_index(cls, k):
        return cls({check_index(k): Fraction(1)})

    @classmethod
    def of_rational(cls, q):
        return cls({(): as_fraction(q)})

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
        """{index text: coefficient text}, listed by depth, then index."""
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {format_index(k): str(c) for k, c in items}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({parse_index(key): Fraction(val) for key, val in obj.items()})


class RegPoly(Combination):
    """Polynomial in the regularization variable T with MzvCombo
    coefficients, keyed by T-degree."""

    __slots__ = ()

    _nested = True

    @staticmethod
    def _key_product(j1, j2):
        return ((j1 + j2, 1),)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for j, combo in terms.items():
                if not isinstance(j, int) or j < 0:
                    raise ValueError("T-degrees must be nonnegative integers")
                if not isinstance(combo, MzvCombo):
                    combo = MzvCombo(combo)
                if combo:
                    clean[j] = combo
        self.terms = clean

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
        return self.terms.get(0, MzvCombo.zero())

    def coefficient(self, j):
        return self.terms.get(j, MzvCombo.zero())

    def degree(self):
        return max(self.terms, default=-1)

    def __repr__(self):
        if not self.terms:
            return "RegPoly(0)"
        bits = []
        for j in sorted(self.terms):
            bits.append("T^%d*(%r)" % (j, self.terms[j]))
        return "RegPoly(" + " + ".join(bits) + ")"

    def to_json_obj(self):
        return {"T^%d" % j: combo.to_json_obj()
                for j, combo in sorted(self.terms.items())}

    @classmethod
    def from_json_obj(cls, obj):
        terms = {}
        for key, val in obj.items():
            if not key.startswith("T^"):
                raise ValueError("RegPoly JSON keys look like 'T^j', got %r" % key)
            terms[int(key[2:])] = MzvCombo.from_json_obj(val)
        return cls(terms)


def _peel(target, expansion, value, zero, product=()):
    """value(target), given that the product of the factor pair `product`
    (none: zero) is the sum of mult * value(term) over the (term, mult)
    pairs of the mapping `expansion`: subtract the other terms and divide
    by the multiplicity of the target, in one sum."""
    c = expansion[target]
    return zero.combined(((Fraction(-mult, c), value(term))
                          for term, mult in expansion.items() if term != target),
                         [(Fraction(1, c),) + product] if product else ())


@lru_cache(maxsize=16)
def _surjections(n):
    """(1 / order of the stabilizer, block bounds) for every weakly
    order-preserving surjection of {1..n}; block j of an index k is
    k[a:b] for the j-th bounds (a, b) of indices._block_bounds."""
    return tuple((Fraction(1, stabilizer_order(comp)), _block_bounds(comp))
                 for m in range(n + 1) for comp in compositions(n, m))


def surjection_sum(k, value, zero):
    """Sum, added to zero, of value(phi_* k) / (order of the stabilizer
    of phi) over the weakly order-preserving surjections phi of {1..depth}.

    The empty index has one surjection, the empty one, of stabilizer 1.
    """
    k = check_index(k)
    return zero.combined((q, value(tuple(sum(k[a:b]) for a, b in bounds)))
                         for q, bounds in _surjections(len(k)))


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
    return _peel(k, dict(_stuffle(head, (1,))), stuffle_regularize, RegPoly.zero(),
                 (stuffle_regularize(head), RegPoly.T()))


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
    return _peel(w, shuffle_words("B", rest), shuffle_regularize, RegPoly.zero(),
                 (shuffle_regularize(rest), RegPoly.T()))


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
    return _peel(w, expansion, associator_coefficient, MzvCombo.zero())


@lru_cache(maxsize=None)
def natural_regularize(k):
    """Surjection-weighted series regularization.

    The sum over all weakly order-preserving surjections phi of
    stuffle_regularize(phi_* k) / (order of the stabilizer of phi).
    Depth 0 and 1 are degenerate: only the identity surjection exists.
    """
    return surjection_sum(k, stuffle_regularize, RegPoly.zero())


SCHEMES = ("natural", "stuffle", "shuffle")

_SCHEME_ALIASES = {
    "natural": "natural", "♮": "natural",
    "stuffle": "stuffle", "*": "stuffle",
    "shuffle": "shuffle", "♯": "shuffle", "#": "shuffle",
}


def normalize_scheme(scheme):
    try:
        return _SCHEME_ALIASES[scheme]
    except KeyError:
        raise ValueError("unknown scheme %r (expected one of %s)"
                         % (scheme, ", ".join(SCHEMES))) from None


def regularize(scheme, k):
    """The regularization polynomial of the index k in a scheme of SCHEMES
    or one of its aliases: the one dispatch from a scheme name to its
    regularization.  An unknown name raises ValueError."""
    scheme = normalize_scheme(scheme)
    if scheme == "natural":
        return natural_regularize(k)
    if scheme == "stuffle":
        return stuffle_regularize(k)
    return shuffle_regularize(word_of_index(k))
