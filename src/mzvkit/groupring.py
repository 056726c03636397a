"""Integer group rings of symmetric groups, and the shuffle elements.

Permutations of 1..m are image tuples: sigma[i-1] = sigma(i).  Products
compose right to left, (sigma tau)(i) = sigma(tau(i)), and the group ring
multiplies by convolution under that composition: GroupRingElem is a
combination.Combination with integer coefficients and compose as the
product of keys.

shuffle_operator(n, i) is the sum of the permutations whose values are
increasing on positions 1..i and on positions i+1..n.  Together with the
full cycle and the transposition swapping the first and last letters these
satisfy an exact identity in the group ring on n+1 letters, checked by
groupring_identity_check.
"""

from itertools import combinations, permutations

from .combination import Combination
from .indices import check_int

__all__ = [
    "identity_perm",
    "compose",
    "invert_perm",
    "cycle_perm",
    "transposition",
    "GroupRingElem",
    "shuffle_operator",
    "embed_elem",
    "groupring_identity_check",
    "all_permutations",
]


def _check_perm(sigma, m=None):
    """sigma as a tuple, when it is a permutation of 1..m (of 1..len(sigma)
    when m is None) with every letter an int (`check_int`)."""
    sigma = tuple(sigma)
    if m is None:
        m = len(sigma)
    message = "not a permutation of 1..%d: %r" % (m, sigma)
    if sorted(check_int(x, None, message) for x in sigma) != list(range(1, m + 1)):
        raise ValueError(message)
    return sigma


def identity_perm(m):
    return tuple(range(1, m + 1))


def compose(sigma, tau):
    """(sigma tau)(i) = sigma(tau(i)): apply tau first, then sigma."""
    sigma = _check_perm(sigma)
    tau = _check_perm(tau, len(sigma))
    return tuple(sigma[tau[i] - 1] for i in range(len(sigma)))


def invert_perm(sigma):
    sigma = _check_perm(sigma)
    out = [0] * len(sigma)
    for i, v in enumerate(sigma):
        out[v - 1] = i + 1
    return tuple(out)


def cycle_perm(m):
    """The full cycle sending i to i+1 and m to 1."""
    return tuple(list(range(2, m + 1)) + [1])


def transposition(m, a, b):
    """The permutation of 1..m swapping a and b; m >= 1 and 1 <= a, b <= m
    are ints (`check_int`), else ValueError."""
    check_int(m, 1, "m must be a positive integer")
    message = "need 1 <= a, b <= %d" % m
    for x in (a, b):
        if check_int(x, 1, message) > m:
            raise ValueError("%s, got %r" % (message, x))
    out = list(range(1, m + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


class GroupRingElem(Combination):
    """Finite integer combination of permutations of 1..m; products
    compose the permutations."""

    __slots__ = ("m",)

    def __init__(self, m, terms=None):
        self.m = check_int(m, 1, "m must be a positive integer")
        self.terms = self._merged((_check_perm(sigma, m), self._scalar(c))
                                  for sigma, c in (terms or {}).items())

    @staticmethod
    def _scalar(q):
        if isinstance(q, int) and not isinstance(q, bool):
            return q
        raise TypeError("group-ring coefficients must be integers, got %r" % (q,))

    @staticmethod
    def _ratio(n, den):
        # integer coefficients and scalars leave every denominator 1
        return n

    @staticmethod
    def _key_product(sigma, tau):
        return ((compose(sigma, tau), 1),)

    @classmethod
    def one(cls, m):
        return cls(m, {identity_perm(m): 1})

    @classmethod
    def from_perm(cls, sigma):
        sigma = _check_perm(sigma)
        return cls(len(sigma), {sigma: 1})

    def support(self):
        return set(self.terms)

    def __repr__(self):
        if not self.terms:
            return "GroupRingElem(%d, 0)" % self.m
        bits = ["%+d*%r" % (c, s) for s, c in sorted(self.terms.items())]
        return "GroupRingElem(%d, %s)" % (self.m, " ".join(bits))


def shuffle_operator(n, i):
    """Sum of the permutations increasing on positions 1..i and i+1..n.

    Each is determined by the i-element value set placed (sorted) on the
    first block, so the support has binomial(n, i) elements.  n >= 1 and
    0 <= i <= n must be ints (`check_int`).
    """
    check_int(n, 1, "n must be a positive integer")
    if check_int(i, 0, "need 0 <= i <= n") > n:
        raise ValueError("need 0 <= i <= n, got %r" % (i,))
    terms = {}
    universe = range(1, n + 1)
    for first in combinations(universe, i):
        rest = sorted(set(universe) - set(first))
        terms[tuple(list(first) + rest)] = 1
    return GroupRingElem(n, terms)


def embed_elem(elem, m):
    """Reinterpret an element over 1..elem.m inside the group on 1..m, fixing the new letters."""
    if not isinstance(elem, GroupRingElem):
        raise TypeError("expected GroupRingElem")
    if m < elem.m:
        raise ValueError("cannot embed into a smaller group")
    tail = tuple(range(elem.m + 1, m + 1))
    return GroupRingElem(m, {sigma + tail: c for sigma, c in elem.terms.items()})


def groupring_identity_check(n, perturbed=False):
    """Exact check of 1 + sh c = c (1 + sh t) on n+1 letters.

    Here sh is the embedded shuffle_operator(n, 1), c the full cycle, and
    t the transposition of 1 and n+1.  With perturbed=True the transposition
    is dropped from the right-hand side, which must break the identity.
    """
    m = n + 1
    one = GroupRingElem.one(m)
    sh = embed_elem(shuffle_operator(n, 1), m)
    c = GroupRingElem.from_perm(cycle_perm(m))
    t = GroupRingElem.from_perm(transposition(m, 1, m))
    lhs = one + sh * c
    rhs = c * (one + sh * t) if not perturbed else c * (one + sh)
    return lhs == rhs


def all_permutations(m):
    """All image tuples of permutations of 1..m, in lexicographic order."""
    return list(permutations(range(1, m + 1)))
