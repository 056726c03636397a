"""Weight-truncated generating functions of regularized values.

A depth-n series stores, for every index (k_1,...,k_n) with all entries
>= 1 and total weight at most K, the coefficient of the monomial
x_1^{k_1-1} ... x_n^{k_n-1}.  Coefficients are symbolic combinations of
admissible values (mode "symbolic") or their high-precision evaluations
(mode "numeric").  Three coefficient schemes exist, each the constant term
of regularize(scheme, k):

  natural   constant term of the surjection-weighted series regularization
  stuffle   constant term of the series regularization
  shuffle   constant term of the word regularization of the index word

Unimodular changes of variable act exactly on these tables: a linear
substitution preserves total degree, so the truncation is stable.  The
block product and the permutation action together express the shuffle
identity for the natural series,

  lhs = (depth-i series) * (depth-(n-i) series in the remaining variables)
  rhs = sum over block-increasing permutations of the acted depth-n series

whose coefficientwise numeric defect series_shuffle_check measures.
"""

from fractions import Fraction

from .groupring import shuffle_operator
from .indices import format_index, indices_of_weight, is_admissible, word_of_index
from .matrices import substitution_forms
from .numeric import BigReal, DEFAULT_DIGITS, eval_combo
from .polynomials import MultiPoly
from .regularization import (
    MzvCombo,
    natural_regularize,
    shuffle_regularize,
    stuffle_regularize,
)

__all__ = [
    "SCHEMES",
    "regularize",
    "SeriesTrunc",
    "build_series",
    "block_product",
    "series_shuffle_check",
]

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
    """The regularization polynomial of the index k in a normalized scheme."""
    if scheme == "natural":
        return natural_regularize(k)
    if scheme == "stuffle":
        return stuffle_regularize(k)
    return shuffle_regularize(word_of_index(k))


class SeriesTrunc:
    """Truncated coefficient table of a depth-n generating function."""

    __slots__ = ("n", "K", "coefficients", "mode", "digits")

    def __init__(self, n, K, coefficients, mode, digits=None):
        if n < 0 or K < n:
            raise ValueError("need 0 <= n <= K")
        if mode not in ("symbolic", "numeric"):
            raise ValueError("mode must be 'symbolic' or 'numeric'")
        self.n = n
        self.K = K
        self.mode = mode
        self.digits = digits
        clean = {}
        for k, v in coefficients.items():
            k = tuple(k)
            if len(k) != n or any(p < 1 for p in k):
                raise ValueError("bad index %r for depth %d" % (k, n))
            if sum(k) > K:
                raise ValueError("index %r exceeds weight bound %d" % (k, K))
            clean[k] = v
        self.coefficients = clean

    def _zero(self):
        if self.mode == "symbolic":
            return MzvCombo.zero()
        return BigReal.from_rational(0, self.digits or DEFAULT_DIGITS)

    def coefficient(self, k):
        return self.coefficients.get(tuple(k), self._zero())

    def indices(self):
        return sorted(self.coefficients)

    def permute(self, sigma):
        """Variable permutation: the result coefficient at k picks up the
        source coefficient at (k_{sigma^{-1}(1)}, ..., k_{sigma^{-1}(n)})."""
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise ValueError("sigma must be a permutation of 1..%d" % self.n)
        out = {}
        for k, v in self.coefficients.items():
            target = tuple(k[sigma[j] - 1] for j in range(self.n))
            out[target] = out[target] + v if target in out else v
        return SeriesTrunc(self.n, self.K, out, self.mode, self.digits)

    def act_matrix(self, gamma):
        """(f|_gamma)(x) = f(x gamma^{-1}), coefficient by coefficient.

        Each source monomial x^(k-1) expands exactly through the linear
        forms of matrices.substitution_forms; total degree is preserved, so
        no mass leaves the truncation.
        """
        n = self.n
        if len(gamma) != n:
            raise ValueError("matrix size %d does not match depth %d" % (len(gamma), n))
        forms = substitution_forms(gamma)
        out = {}
        for k, v in self.coefficients.items():
            expansion = MultiPoly.monomial(tuple(e - 1 for e in k)).substitute(forms)
            for expo, q in expansion.terms.items():
                target = tuple(x + 1 for x in expo)
                term = v.scaled(q)
                out[target] = out[target] + term if target in out else term
        return SeriesTrunc(n, self.K, out, self.mode, self.digits)

    def __sub__(self, other):
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        if (self.n, self.K, self.mode) != (other.n, other.K, other.mode):
            raise ValueError("series shapes differ")
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = (out[k] - v) if k in out else (self._zero() - v)
        return SeriesTrunc(self.n, self.K, out, self.mode, self.digits)

    def __add__(self, other):
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        if (self.n, self.K, self.mode) != (other.n, other.K, other.mode):
            raise ValueError("series shapes differ")
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = (out[k] + v) if k in out else v
        return SeriesTrunc(self.n, self.K, out, self.mode, self.digits)

    def __repr__(self):
        return ("SeriesTrunc(n=%d, K=%d, mode=%s, %d coefficients)"
                % (self.n, self.K, self.mode, len(self.coefficients)))


def build_series(scheme, n, K, mode="symbolic", digits=DEFAULT_DIGITS,
                 admissible_only=False, cache=None):
    """Coefficient table of the depth-n generating function, weight <= K.

    The depth-0 series is the constant 1.  With admissible_only=True the
    non-admissible indices are dropped instead of regularized; that
    truncation breaks the shuffle identity and exists as a negative
    control.
    """
    scheme = normalize_scheme(scheme)
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if K < n:
        raise ValueError("weight bound %d cannot hold indices of depth %d" % (K, n))
    coeffs = {}
    if n == 0:
        one = MzvCombo.one()
        coeffs[()] = one if mode == "symbolic" else eval_combo(one, digits, cache)
        return SeriesTrunc(0, K, coeffs, mode, digits if mode == "numeric" else None)
    for w in range(n, K + 1):
        for k in indices_of_weight(w, n):
            if admissible_only and not is_admissible(k):
                continue
            combo = regularize(scheme, k).constant_term()
            if mode == "symbolic":
                coeffs[k] = combo
            else:
                coeffs[k] = eval_combo(combo, digits, cache)
    return SeriesTrunc(n, K, coeffs, mode, digits if mode == "numeric" else None)


def block_product(a, b, K=None):
    """Product of series in disjoint variable blocks.

    The depth-(a.n+b.n) coefficient at the concatenated index is the
    product of the factor coefficients; indices beyond the weight bound
    are dropped.
    """
    if not isinstance(a, SeriesTrunc) or not isinstance(b, SeriesTrunc):
        raise TypeError("expected SeriesTrunc operands")
    if a.mode != b.mode:
        raise ValueError("cannot mix symbolic and numeric series")
    if K is None:
        K = min(a.K, b.K)
    out = {}
    for ka, va in a.coefficients.items():
        wa = sum(ka)
        for kb, vb in b.coefficients.items():
            if wa + sum(kb) > K:
                continue
            out[ka + kb] = va * vb
    digits = None
    if a.mode == "numeric":
        digits = min(a.digits or DEFAULT_DIGITS, b.digits or DEFAULT_DIGITS)
    return SeriesTrunc(a.n + b.n, K, out, a.mode, digits)


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
    left = build_series(scheme, i, K, "symbolic", admissible_only=admissible_only)
    right = build_series(scheme, n - i, K, "symbolic", admissible_only=admissible_only)
    full = build_series(scheme, n, K, "symbolic", admissible_only=admissible_only)
    lhs = block_product(left, right, K)
    rhs = None
    for sigma in sorted(shuffle_operator(n, i).support()):
        acted = full.permute(sigma)
        rhs = acted if rhs is None else rhs + acted
    worst = BigReal.from_rational(0, digits)
    for k in sorted(set(lhs.coefficients) | set(rhs.coefficients)):
        diff = lhs.coefficient(k) - rhs.coefficient(k)
        if diff.is_zero():
            continue
        mag = abs(eval_combo(diff, digits, cache))
        if mag.value > worst.value:
            worst = mag
    return worst


def series_table_rows(series):
    """(index text, value) rows in deterministic order, for reporting."""
    rows = []
    for k in series.indices():
        v = series.coefficients[k]
        if isinstance(v, BigReal):
            rows.append((format_index(k), v.to_decimal()))
        else:
            rows.append((format_index(k), repr(v)))
    return rows
