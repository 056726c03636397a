"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is stored as a dict mapping exponent tuples
(one nonnegative int per variable) to nonzero Fraction coefficients.  All
arithmetic is exact, so identity tests mean actual polynomial equality.
These are the coefficient carriers for the linear-algebra side of the
package: homogeneous components, variable substitution by polynomials
(used for integer-matrix actions), partial derivatives, and exact division
by a single variable.  Sums, scaling, equality and the product (exponent
tuples add) come from combination.Combination.

permute_terms is the one permutation action on key tuples: it permutes the
variables of a MultiPoly, the index entries of a series.SeriesTrunc, and
the exponent tuples of the dsh condition images.  The permutations are
validated by groupring, which also gives the adjacent swaps of
is_symmetric.  substituted_monomials is the one substitution: it expands
monomials with each variable replaced by a term dict, for
MultiPoly.substitute (and so the matrix actions of matrices and the
divided differences of dsh), for the matrix action on a series.SeriesTrunc,
and for the P^{-1} twist of the dsh condition images.
"""

from fractions import Fraction
from operator import add

from .combination import Combination, as_fraction
from .groupring import _check_perm, transposition
from .indices import check_int, compositions_nonneg

__all__ = [
    "MultiPoly",
    "permute_terms",
    "substituted_monomials",
    "monomial_exponents",
    "diagonal_translation_invariant",
]


def _position(i, nvars):
    """The 0-based position of the variable x_i: i must be an int in
    1..nvars (`check_int`), else ValueError."""
    message = "variable index out of range 1..%d" % nvars
    if check_int(i, 1, message) > nvars:
        raise ValueError("%s, got %r" % (message, i))
    return i - 1


class MultiPoly(Combination):
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero Fractions.
    Instances are treated as immutable: every operation returns a new object.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = check_int(nvars, 0, "nvars must be a nonnegative integer")
        self.terms = self._merged((self._check_exponents(expo), as_fraction(coeff))
                                  for expo, coeff in (terms or {}).items())

    def _check_exponents(self, expo):
        expo = tuple(expo)
        if len(expo) != self.nvars:
            raise ValueError("exponent tuple %r does not have %d entries" % (expo, self.nvars))
        for e in expo:
            check_int(e, 0, "exponents must be nonnegative integers")
        return expo

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: as_fraction(value)})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, i, nvars):
        """The polynomial x_i (1-based index, matching the math displays;
        checked by `_position`)."""
        expo = [0] * nvars
        expo[_position(i, nvars)] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, expo, coeff=1):
        return cls(len(expo), {tuple(expo): as_fraction(coeff)})

    # ---- ring operations ----------------------------------------------

    @staticmethod
    def _key_product(ea, eb):
        return ((tuple(map(add, ea, eb)), 1),)

    def __pow__(self, k):
        check_int(k, 0, "exponent must be a nonnegative integer")
        acc = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # ---- structure ----------------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_part(self, d):
        return self._like({e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    # ---- calculus and substitution -------------------------------------

    def _lowered(self, i):
        """(exponent tuple with x_i lowered by one, exponent of x_i,
        coefficient) for every term that x_i (1-based, checked by
        `_position`) divides."""
        j = _position(i, self.nvars)
        return [(expo[:j] + (expo[j] - 1,) + expo[j + 1:], expo[j], coeff)
                for expo, coeff in self.terms.items() if expo[j]]

    def partial(self, i):
        """Partial derivative with respect to x_i (1-based)."""
        return self._like({expo: coeff * e for expo, e, coeff in self._lowered(i)})

    def diagonal_derivative(self):
        """sum_i df/dx_i: the derivative along the diagonal direction (1, ..., 1)."""
        return MultiPoly.zero(self.nvars).combined(
            (1, self.partial(i)) for i in range(1, self.nvars + 1))

    def substitute(self, replacements):
        """Compose: replace x_i by replacements[i-1] (all in a common ring).

        The replacement polynomials fix the variable count of the result,
        so substitution into more (or fewer) variables is allowed.
        """
        replacements = list(replacements)
        if len(replacements) != self.nvars:
            raise ValueError("need %d replacement polynomials, got %d"
                             % (self.nvars, len(replacements)))
        target = replacements[0].nvars if replacements else 0
        for r in replacements:
            if not isinstance(r, MultiPoly) or r.nvars != target:
                raise ValueError("replacements must be MultiPoly over a common variable set")
        images = substituted_monomials(self.terms, [r.terms for r in replacements], target)
        zero = MultiPoly.zero(target)
        return zero.combined((coeff, zero._like(image))
                             for coeff, image in zip(self.terms.values(), images))

    def permute_variables(self, sigma):
        """Return g with g(x_1,...,x_n) = f(x_{sigma^{-1}(1)},...,x_{sigma^{-1}(n)}).

        ``sigma`` is a permutation of 1..n as an image tuple.  The exponent of
        x_j in the image of a monomial with exponents e is e[sigma(j)].
        """
        return self._like(permute_terms(self.terms, _check_perm(sigma, self.nvars)))

    def divide_by_variable(self, i):
        """Exact division by x_i; raises ValueError if some term lacks x_i."""
        lowered = self._lowered(i)
        if len(lowered) != len(self.terms):
            raise ValueError("polynomial is not divisible by x_%d" % i)
        return self._like({expo: coeff for expo, _, coeff in lowered})

    def is_symmetric(self):
        """Invariance under all variable permutations (adjacent swaps suffice)."""
        n = self.nvars
        return all(self.permute_variables(transposition(n, i, i + 1)) == self
                   for i in range(1, n))

    def evaluate(self, point):
        point = [as_fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("need %d coordinates" % self.nvars)
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            prod = coeff
            for x, e in zip(point, expo):
                prod *= x ** e
            total += prod
        return total

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(%d, 0)" % self.nvars
        bits = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            mono = "*".join("x%d^%d" % (j + 1, e) for j, e in enumerate(expo) if e)
            bits.append("%s%s" % (coeff, "*" + mono if mono else ""))
        return "MultiPoly(%d, %s)" % (self.nvars, " + ".join(bits))


def permute_terms(terms, sigma):
    """The term dict with every key tuple e sent to (e[sigma(1)-1], ...,
    e[sigma(n)-1]), its coefficient unchanged.

    ``sigma`` is a permutation of 1..n as an image tuple, so the map is a
    bijection of the keys and nothing adds up.
    """
    positions = [s - 1 for s in sigma]
    return {tuple(map(e.__getitem__, positions)): c for e, c in terms.items()}


def substituted_monomials(exponents, replacements, nvars):
    """The term dict of each monomial x^e, for e in ``exponents`` (tuples),
    with x_j replaced by the term dict replacements[j] over exponent tuples
    of length nvars.

    The image of x^e is the image of the monomial one degree lower times
    one replacement, memoized for this call only; a loop, not recursion,
    walks down the degrees, so the stack does not bound the degree.  Its
    coefficients are sums of products of the replacements' coefficients,
    so int coefficients stay int.
    """
    # a replacement term multiplies by adding its nonzero exponents only
    items = [[([(i, x) for i, x in enumerate(r_e) if x], r_c) for r_e, r_c in r.items()]
             for r in replacements]
    images = {(0,) * len(items): {(0,) * nvars: 1}}

    def image(e):
        steps = []
        while e not in images:
            j = next(i for i, x in enumerate(e) if x)
            steps.append((e, j))
            e = e[:j] + (e[j] - 1,) + e[j + 1:]
        img = images[e]
        for e, j in reversed(steps):
            out = {}
            get = out.get
            for expo, c in img.items():
                for r_nz, r_c in items[j]:
                    key = list(expo)
                    for i, x in r_nz:
                        key[i] += x
                    key = tuple(key)
                    out[key] = get(key, 0) + c * r_c
            img = images[e] = {k: v for k, v in out.items() if v}
        return img
    return [image(e) for e in exponents]


def monomial_exponents(nvars, degree):
    """Exponent tuples of the degree-`degree` monomials in nvars variables.

    Deterministic order; this is the basis ordering used by the linear
    algebra over homogeneous slices.
    """
    return list(compositions_nonneg(degree, nvars))


def diagonal_translation_invariant(f):
    """True iff the partial derivatives of f sum to zero.

    Equivalent to f(x_1 + t, ..., x_n + t) = f(x_1, ..., x_n) as a
    polynomial identity in t and the x_i.
    """
    if not isinstance(f, MultiPoly):
        raise TypeError("expected MultiPoly")
    return f.diagonal_derivative().is_zero()
