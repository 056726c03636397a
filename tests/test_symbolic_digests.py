"""Golden digests of the symbolic layer.

For every index of weight <= 8 (the empty index included), and for the
B-terminated word of each, the sha256 of the canonical JSON of its
regularization and finite values is frozen here.  Any change in a single
coefficient of any of them changes a digest; the values were recorded
before the combination sums moved to the integer accumulator.
"""

import hashlib
import json

import pytest

from mzvkit import finite, regularization
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
