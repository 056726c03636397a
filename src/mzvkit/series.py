"""Weight-truncated generating functions of regularized values.

A depth-n series stores, for every index (k_1,...,k_n) with all entries
>= 1 and total weight at most K, the coefficient of the monomial
x_1^{k_1-1} ... x_n^{k_n-1}.  Coefficients are exact combinations of
admissible values (MzvCombo), and a table is a combination.Combination
over its indices, so sums, differences, scaling and equality come from
that algebra; a numeric cell is eval_combo(s.coefficient(k), digits).
Three coefficient schemes exist, each the constant term of
regularize(scheme, k), the scheme dispatch of the regularization module
(which also owns SCHEMES and normalize_scheme; this module re-exports
them):

  natural   constant term of the surjection-weighted series regularization
  stuffle   constant term of the series regularization
  shuffle   constant term of the word regularization of the index word

Unimodular changes of variable act exactly on these tables: a linear
substitution preserves total degree, so the truncation is stable.  The
block product and the permutation action together express the shuffle
identity for the natural series,

  lhs = (depth-i series) * (depth-(n-i) series in the remaining variables)
  rhs = sum over block-increasing permutations of the acted depth-n series

whose coefficientwise numeric defect series_shuffle_check measures.  The
permutation action is polynomials.permute_terms on the index keys, the
same map that permutes the variables of a MultiPoly.
"""

from .combination import Combination
from .groupring import _check_perm, shuffle_operator
from .indices import check_index, check_int, indices_of_weight, is_admissible
from .matrices import column_forms, mat_inverse_unimodular
from .numeric import BigReal, DEFAULT_DIGITS, eval_combo
from .polynomials import permute_terms, substituted_monomials
from .regularization import SCHEMES, MzvCombo, normalize_scheme, regularize

__all__ = [
    "SCHEMES",
    "regularize",
    "SeriesTrunc",
    "build_series",
    "block_product",
    "series_shuffle_check",
]


def _domain(n, K):
    """Every index of depth n and weight n..K."""
    return (k for w in range(n, K + 1) for k in indices_of_weight(w, n))


class SeriesTrunc(Combination):
    """Truncated coefficient table of a depth-n generating function: a
    combination of the indices of depth n and weight <= K with MzvCombo
    coefficients.  Zero cells are not stored.  n and K are ints with
    0 <= n <= K (`check_int`), and each key an index (`check_index`)."""

    __slots__ = ("n", "K")

    _nested = True

    def __init__(self, n, K, terms=None):
        self.n = check_int(n, 0, "need 0 <= n <= K")
        self.K = check_int(K, n, "need 0 <= n <= K")
        clean = {}
        for k, v in (terms or {}).items():
            k = check_index(k)
            if len(k) != n:
                raise ValueError("bad index %r for depth %d" % (k, n))
            if sum(k) > K:
                raise ValueError("index %r exceeds weight bound %d" % (k, K))
            if not isinstance(v, MzvCombo):
                raise TypeError("series coefficients must be MzvCombo, got %s"
                                % type(v).__name__)
            if v:
                clean[k] = v
        self.terms = clean

    # a scalar multiple, but no product of two tables: block_product
    # multiplies tables in disjoint variables
    __mul__ = __rmul__ = Combination.scaled

    def coefficient(self, k):
        return self.terms.get(tuple(k), MzvCombo.zero())

    def indices(self):
        """The whole domain, zero cells included, in sorted order."""
        return sorted(_domain(self.n, self.K))

    def permute(self, sigma):
        """Variable permutation: the result coefficient at k picks up the
        source coefficient at (k_{sigma^{-1}(1)}, ..., k_{sigma^{-1}(n)})."""
        return self._like(permute_terms(self.terms, _check_perm(sigma, self.n)))

    def act_matrix(self, gamma):
        """(f|_gamma)(x) = f(x gamma^{-1}), coefficient by coefficient.

        The source monomials x^(k-1) of every index expand exactly in one
        call of polynomials.substituted_monomials, sharing its memo, through
        the linear forms of the columns of gamma^{-1}
        (matrices.column_forms); total degree is preserved, so no mass
        leaves the truncation.
        """
        if len(gamma) != self.n:
            raise ValueError("matrix size %d does not match depth %d" % (len(gamma), self.n))
        images = substituted_monomials([tuple(e - 1 for e in k) for k in self.terms],
                                       column_forms(mat_inverse_unimodular(gamma)), self.n)
        return self._like({}).combined(
            (q, self._like({tuple(x + 1 for x in expo): v}))
            for v, image in zip(self.terms.values(), images) for expo, q in image.items())

    def __repr__(self):
        return "SeriesTrunc(n=%d, K=%d, %d coefficients)" % (self.n, self.K, len(self.terms))


def build_series(scheme, n, K, admissible_only=False):
    """Coefficient table of the depth-n generating function, weight <= K.

    The depth-0 series is the constant 1.  With admissible_only=True the
    non-admissible indices are dropped instead of regularized; that
    truncation breaks the shuffle identity and exists as a negative
    control.  n >= 0 and K >= n must be ints (`check_int`).
    """
    scheme = normalize_scheme(scheme)
    check_int(n, 0, "depth must be nonnegative")
    check_int(K, n, "weight bound cannot hold indices of depth %r" % (n,))
    return SeriesTrunc(n, K, {k: regularize(scheme, k).constant_term()
                              for k in _domain(n, K)
                              if not admissible_only or is_admissible(k)})


def block_product(a, b, K=None):
    """Product of series in disjoint variable blocks.

    The depth-(a.n+b.n) coefficient at the concatenated index is the
    product of the factor coefficients; indices beyond the weight bound
    are dropped.  K defaults to min(a.K, b.K).  A K above
    min(a.K + b.n, b.K + a.n) raises ValueError: that table would have
    cells whose factor coefficients lie beyond a factor's weight bound,
    and a K that is not an int (`check_int`) raises ValueError.
    """
    if not isinstance(a, SeriesTrunc) or not isinstance(b, SeriesTrunc):
        raise TypeError("expected SeriesTrunc operands")
    if K is None:
        K = min(a.K, b.K)
    complete = min(a.K + b.n, b.K + a.n)
    if check_int(K, None, "weight bound must be an integer") > complete:
        raise ValueError("weight bound %d exceeds %d, the largest the factors "
                         "determine" % (K, complete))
    return SeriesTrunc(a.n + b.n, K, {ka + kb: va * vb
                                      for ka, va in a.terms.items()
                                      for kb, vb in b.terms.items()
                                      if sum(ka) + sum(kb) <= K})


def series_shuffle_check(n, i, K, scheme="natural", digits=DEFAULT_DIGITS,
                         admissible_only=False, cache=None):
    """Max absolute numeric defect of the shuffle identity at weight <= K.

    Builds the identity symbolically (so equal combinations cancel before
    any rounding) and evaluates one combination per index.  Returns the
    largest magnitude as a BigReal; for the natural scheme this should
    vanish to working precision, while admissible-only truncations leave
    an order-one defect.
    """
    scheme = normalize_scheme(scheme)
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    left, right, full = (build_series(scheme, d, K, admissible_only) for d in (i, n - i, n))
    defect = block_product(left, right, K).combined(
        (-1, full.permute(sigma)) for sigma in sorted(shuffle_operator(n, i).support()))
    worst = BigReal.from_rational(0, digits)
    for k in sorted(defect.terms):
        mag = abs(eval_combo(defect.terms[k], digits, cache))
        if mag.value > worst.value:
            worst = mag
    return worst
