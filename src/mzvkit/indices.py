"""Indices, binary words, ordered surjections, and their combinatorics.

An index is a tuple of positive integers (k_1, ..., k_n); the empty tuple ()
is allowed.  Weight is the sum of the parts, depth their number.  An index is
admissible when it is empty or its last part is at least 2; admissibility is
what makes the nested series

    zeta(k_1, ..., k_n) = sum over 0 < m_1 < ... < m_n of m_1^-k_1 ... m_n^-k_n

converge.

Words are strings over the alphabet {A, B}.  The word of an index lists the
parts in reverse:

    word_of_index((k_1, ..., k_n)) = A^(k_n-1) B A^(k_(n-1)-1) B ... A^(k_1-1) B

so an index word always ends with B and carries one B per part, and it is
admissible (k_n >= 2) exactly when it starts with A.  Both orders circulate in
the literature; this package uses the reversed one above everywhere.

A weakly order-preserving surjection {1..n} -> {1..m} is stored as the
composition (c_1, ..., c_m) of n into m positive parts, c_j being the size of
the preimage of j.  Multisets of indices or words are collections.Counter
maps; multiplicities matter (stuffle((1), (1)) contains (1, 1) twice).
"""

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, permutations


# ---------------------------------------------------------------------------
# indices

def check_index(k):
    """Validate and normalize an index to a tuple of positive ints."""
    k = tuple(k)
    for part in k:
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError("index parts must be positive integers, got %r" % (part,))
    return k


def check_admissible(k):
    """Validate an index (`check_index`) and require it to be admissible."""
    k = check_index(k)
    if not is_admissible(k):
        raise ValueError("not an admissible index: %s" % format_index(k))
    return k


def weight(k):
    return sum(k)


def depth(k):
    return len(k)


def is_admissible(k):
    return len(k) == 0 or k[-1] >= 2


def format_index(k):
    return "(" + ",".join(str(part) for part in k) + ")"


def parse_index(text):
    """Parse the canonical text form "(1,2,3)"; "()" is the empty index."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("index text must look like (1,2,3), got %r" % (text,))
    body = s[1:-1].strip()
    if not body:
        return ()
    if not re.fullmatch(r"\d+(\s*,\s*\d+)*", body):
        raise ValueError("index text must look like (1,2,3), got %r" % (text,))
    return check_index(int(p) for p in body.split(","))


def compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`: the
    tuples of compositions_nonneg(total - parts, parts) with one added to
    each part, in the same (lexicographic) order."""
    for c in compositions_nonneg(total - parts, parts):
        yield tuple([x + 1 for x in c])


def compositions_nonneg(total, parts):
    """All tuples of `parts` integers >= 0 summing to `total`, in
    lexicographic order; none when `total` is negative."""
    if parts < 0:
        raise ValueError("parts must be >= 0, got %d" % parts)
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_nonneg(total - first, parts - 1):
            yield (first,) + rest


def indices_of_weight(w, n=None):
    """All indices of weight w, optionally restricted to depth n."""
    if n is not None:
        yield from compositions(w, n)
        return
    if w == 0:
        yield ()
        return
    for d in range(1, w + 1):
        yield from compositions(w, d)


def admissible_indices(w, max_depth=None):
    """All admissible indices of weight w (last part >= 2), depth-bounded."""
    out = []
    for k in indices_of_weight(w):
        if not is_admissible(k):
            continue
        if max_depth is not None and len(k) > max_depth:
            continue
        out.append(k)
    return out


# ---------------------------------------------------------------------------
# ordered surjections, stored as compositions of n

def enumerate_surjections(n, m):
    """Weakly order-preserving surjections {1..n} -> {1..m}, as compositions.

    There are binomial(n-1, m-1) of them.
    """
    if not (isinstance(n, int) and isinstance(m, int)):
        raise ValueError("n and m must be integers")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n, got n=%r m=%r" % (n, m))
    return list(compositions(n, m))


def surjection_values(comp):
    """The value tuple (phi(1), ..., phi(n)) of the surjection."""
    values = []
    for j, size in enumerate(comp, start=1):
        values.extend([j] * size)
    return tuple(values)


def stabilizer_order(comp):
    """Order of the subgroup of S_n fixing the surjection: prod (c_j)!."""
    order = 1
    for size in comp:
        order *= math.factorial(size)
    return order


def _block_bounds(comp):
    """The slice bounds (a, b) of each block of the surjection: the block
    of j in an index k is k[a:b]."""
    return tuple(zip(accumulate(comp, initial=0), accumulate(comp)))


def push_index(comp, k):
    """Collapse k along the surjection: block sums (weight is preserved)."""
    k = check_index(k)
    if sum(comp) != len(k):
        raise ValueError("depth mismatch: surjection of %d vs index of depth %d"
                         % (sum(comp), len(k)))
    return tuple(sum(k[a:b]) for a, b in _block_bounds(comp))



# ---------------------------------------------------------------------------
# stuffle and shuffle

@lru_cache(maxsize=None)
def _stuffle(k1, k2):
    if not k1:
        return ((k2, 1),)
    if not k2:
        return ((k1, 1),)
    acc = Counter()
    a, b = k1[-1], k2[-1]
    for w, mult in _stuffle(k1[:-1], k2):
        acc[w + (a,)] += mult
    for w, mult in _stuffle(k1, k2[:-1]):
        acc[w + (b,)] += mult
    for w, mult in _stuffle(k1[:-1], k2[:-1]):
        acc[w + (a + b,)] += mult
    return tuple(sorted(acc.items()))


def stuffle(k1, k2):
    """Quasi-shuffle product of two indices, as a Counter multiset.

    Merges the two nested summation ranges; coincident summation variables
    collapse and their exponents add.  stuffle((k), (k')) is
    {(k,k'), (k',k), (k+k')}, and repeated elements carry multiplicity.
    """
    k1 = check_index(k1)
    k2 = check_index(k2)
    return Counter(dict(_stuffle(k1, k2)))


@lru_cache(maxsize=None)
def _shuffle_words(u, v):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc = Counter()
    for w, mult in _shuffle_words(u[1:], v):
        acc[u[0] + w] += mult
    for w, mult in _shuffle_words(u, v[1:]):
        acc[v[0] + w] += mult
    return tuple(sorted(acc.items()))


def check_word(w):
    if not isinstance(w, str) or any(c not in "AB" for c in w):
        raise ValueError("words are strings over {A, B}, got %r" % (w,))
    return w


def shuffle_words(u, v):
    """All interleavings of u and v preserving internal letter order.

    Counter multiset with total multiplicity binomial(|u|+|v|, |u|).
    """
    u = check_word(u)
    v = check_word(v)
    return Counter(dict(_shuffle_words(u, v)))


# ---------------------------------------------------------------------------
# index <-> word

def word_of_index(k):
    k = check_index(k)
    return "".join("A" * (part - 1) + "B" for part in reversed(k))


def index_of_word(w):
    check_word(w)
    if w == "":
        return ()
    if not w.endswith("B"):
        raise ValueError("index words must end with B, got %r" % (w,))
    parts = [len(run) + 1 for run in w.split("B")[:-1]]
    return tuple(reversed(parts))


# ---------------------------------------------------------------------------
# cone weight

def cone_weight(m):
    """Local ball fraction of the region 1/t_1 > ... > 1/t_n at the point m.

    Closed form: write y_i = 1/m_i; if the sequence y is not weakly
    decreasing the point lies outside the closed region and the weight is 0;
    otherwise each maximal run of equal y-values of length r contributes a
    factor 1/r!.  Points with all y_i strictly decreasing are interior and
    get weight 1.
    """
    m = tuple(m)
    if any(not isinstance(x, int) or x == 0 for x in m):
        raise ValueError("cone_weight needs nonzero integer coordinates")
    ys = [Fraction(1, x) for x in m]
    if any(a < b for a, b in zip(ys, ys[1:])):
        return Fraction(0)
    return Fraction(1, stabilizer_order(len(list(run)) for _, run in groupby(ys)))


# ---------------------------------------------------------------------------
# splittings of an index into prefix / reversed suffix pairs

def index_splittings(k):
    """The n+1 pairs ((k_1..k_i), (k_n..k_{i+1})) for 0 <= i <= n.

    The second component is the remaining tail written in reverse.  These are
    the splittings entering the symmetrized product formulas; note the list
    may contain repeated pairs for symmetric k, and multiplicity matters to
    the multiset identities built on top.
    """
    k = check_index(k)
    n = len(k)
    return [(k[:i], tuple(reversed(k[i:]))) for i in range(n + 1)]


# ---------------------------------------------------------------------------
# brute-force oracles, which the test suite checks the fast paths against

def brute_force_surjections(n, m):
    """Enumerate all maps {1..n} -> {1..m} and filter, for cross-checking."""
    def all_maps(length):
        if length == 0:
            yield ()
            return
        for rest in all_maps(length - 1):
            for v in range(1, m + 1):
                yield rest + (v,)

    found = []
    for values in all_maps(n):
        if set(values) != set(range(1, m + 1)):
            continue
        if any(values[i + 1] < values[i] for i in range(n - 1)):
            continue
        found.append(values)
    return sorted(found)


def brute_force_stabilizer_order(comp):
    """Count permutations of {1..n} fixing the surjection pointwise."""
    values = surjection_values(comp)
    n = len(values)
    count = 0
    for sigma in permutations(range(n)):
        if all(values[sigma[i]] == values[i] for i in range(n)):
            count += 1
    return count
