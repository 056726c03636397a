"""Golden digests of the symbolic layer.

For every index of weight <= 8 (the empty index included), and for the
B-terminated word of each, the sha256 of the canonical JSON of its
regularization and finite values is frozen here.  Any change in a single
coefficient of any of them changes a digest; the values were recorded
before the combination sums moved to the integer accumulator.

The literal sums are frozen the same way: both mod-p residues for every
index of weight <= 8 and depth <= 4 at every prime below 200 (the natural
one where p > depth), and both direct sums as exact fractions at every
cutoff M <= 12.  They were recorded while the chain sums still ran over
the whole range, before they were split into two half-range sums.
"""

import hashlib
import json

import pytest

from mzvkit import finite, numeric, regularization
from mzvkit.indices import compositions, format_index, word_of_index

MAX_WEIGHT = 8

INDICES = [k for w in range(MAX_WEIGHT + 1) for n in range(w + 1) for k in compositions(w, n)]

DIGESTS = {
    "zeta_F": "d7aaf2f45463c6576c07c0c1d961cd7d05c22505b77914adea49a1cf469ad5fe",
    "zeta_F_sharp": "af9c693b811df3c8d72739e93b8de0e6c86f4cd2b3c218b4202973cc75556f82",
    "zeta_natural_F": "700eafd674be9dc30c9beb057673d7649ebccd09c6eae7e6c344acb66a8dada1",
    "stuffle_regularize": "5bf1c8f081e0b8468c192b255c5420621bc915feb114f3af7ec49d638a13a27d",
    "shuffle_regularize": "0edebefaf44a84164f38acb9838dc4eaa126701ec1f4dfcf666b6c8e9106dd06",
    "natural_regularize": "181a3b90124d972de159856ff6fc475f7e1184d70bf32321b44316fd3fbbe9c9",
}

FUNCTIONS = {
    "zeta_F": finite.zeta_F,
    "zeta_F_sharp": finite.zeta_F_sharp,
    "zeta_natural_F": finite.zeta_natural_F,
    "stuffle_regularize": regularization.stuffle_regularize,
    "shuffle_regularize": regularization.shuffle_regularize,
    "natural_regularize": regularization.natural_regularize,
}


def _digest(name):
    if name == "shuffle_regularize":
        keyed = [(word_of_index(k), word_of_index(k)) for k in INDICES]
    else:
        keyed = [(format_index(k), k) for k in INDICES]
    f = FUNCTIONS[name]
    text = json.dumps({key: f(arg).to_json_obj() for key, arg in keyed},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_index_of_weight_at_most_eight():
    assert len(INDICES) == 2 ** MAX_WEIGHT
    assert len({word_of_index(k) for k in INDICES}) == len(INDICES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_symbolic_digest(name):
    assert _digest(name) == DIGESTS[name]


SUM_INDICES = [k for w in range(MAX_WEIGHT + 1) for n in range(min(w, 4) + 1)
               for k in compositions(w, n)]
SUM_PRIMES = finite.primes_in_range(2, 200)
SUM_MAX_M = 12

SUM_DIGESTS = {
    "zeta_A_component": "43ec86f7f0dab399add7023b084a3fc88d10702eebcd5c78b6f3a38febc19b90",
    "zeta_natural_A_component":
        "c2ca190f79aaaf5a89ff8db6edf7f0d93c7bd2a5612ed156819a9dc8ce410e05",
    "direct_sum_F": "b4c53ed95d776d13811a8ee27aef3a0802c4f1008905bd79ebbd20b9b4c4bfed",
    "direct_sum_natural": "d52fe09a5c3da57c5e6de573984eeeae1e1f4cc409868a6e5fd65cbf6003f209",
}


def _sum_values(name):
    """The frozen values of one sum, keyed "<index>@<p or M>"."""
    if name.startswith("zeta"):
        f = getattr(finite, name)
        return {"%s@%d" % (format_index(k), p): f(k, p).residue
                for k in SUM_INDICES for p in SUM_PRIMES
                if name == "zeta_A_component" or p > len(k)}
    f = getattr(numeric, name)
    return {"%s@%d" % (format_index(k), M): str(f(k, M))
            for k in SUM_INDICES for M in range(1, SUM_MAX_M + 1)}


def test_sum_grid():
    # 163 indices at 46 primes; the natural residue skips the 280 pairs with p <= depth
    assert len(SUM_INDICES) == 163 and len(SUM_PRIMES) == 46
    assert sum(p <= len(k) for k in SUM_INDICES for p in SUM_PRIMES) == 280


@pytest.mark.parametrize("name", sorted(SUM_DIGESTS))
def test_sum_digest(name):
    text = json.dumps(_sum_values(name), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SUM_DIGESTS[name]
