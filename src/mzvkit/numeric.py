"""Arbitrary-precision numeric evaluation and exact truncated direct sums.

Admissible values are computed through the convolution split of the iterated
integral at 1/2: writing the integral word of an index innermost-first as
e_1 .. e_L (B = dt/(1-t), A = dt/t, so the word is B A^{k_1-1} .. B A^{k_n-1}),

    value(k) = sum_{j=0..L} I(e_1..e_j; 1/2) * I(dual(e_{j+1}..e_L); 1/2)

where dual reverses the word and swaps the letters.  Every factor is a
multiple polylogarithm partial sum at argument 1/2, so the series converge
geometrically (one bit per term) instead of polynomially like the defining
sum.  Admissibility guarantees each factor's innermost letter is B, which is
what keeps the factors finite.

The dual index, whose innermost-first word is dual(e), takes the same
products with j and L - j swapped: its sum is the same integer, so the
duality theorem value(k) = value(dual(k)) holds here bit for bit.  One
cache record therefore serves a dual pair, keyed on its member of lower
depth (ties going to the smaller tuple, `_record_key`), and a record
stored at D' digits serves every request at D <= D' digits: the stored
string is parsed at the working precision of D, which adds one rounding
below |value| 10^-(D+15) and keeps the error bound 10^-(D+5).

Every left factor is a prefix e_1..e_j of the word and every right factor
dual(e_{j+1}..e_L) is the prefix of length L - j of dual(e), so all the
factors of a value are prefix values of two words.  `eval_many` groups the
records it has to compute, one per dual pair, by weight (the number of
terms N and the precision depend only on the weight and the digits) and
puts the words and dual words of a group into one prefix trie, so each
prefix shared by several words is summed once (`_prefix_values`).  Each
value of a batch still passes through its own `eval_admissible` call,
which looks it up in the cache; the first call of a weight that misses
computes the trie pass of the whole weight.  Each trie node is one
whole-column step over m = 1..N: a B opens a summation slot from the
exclusive prefix sums of its parent's column, every letter floor-divides
the column by m (`map(floordiv, col, ms)`), and the node's value sums
the column shifted right by m.  A column is kept only at a branch point,
while another child of that node still needs it, so the walk holds a few
columns at a time, not one per trie level.  The factors are summed in fixed
point: Python integers scaled by 2^P, P being the binary precision of the
working digits D + 15 plus _GUARD_BITS.  Term m reaches a value only
through 2^-m, so a column does not keep all its entries at 2^-P: the
positions go in blocks of _BLOCK_TERMS, and the block starting at lo
keeps its entries in units of 2^(s-P), s = max(0, lo - G), G =
_COLUMN_GUARD_BITS bits.  The first B is floor((2^P >> s) / m), a later
B shifts its running sum right by the growth of s at each block
boundary, and a node's value sums entry >> (m - s), so late entries
are short integers.  Every entry depends only on its prefix, N and P:
a value computed in a batch is bit-identical to the value computed
alone, and an index and its dual, whose sums take the same products,
give one string.  The letters divide by m one at a time; the terms are
non-negative, so floor(floor(x / m) / m) = floor(x / m^2), and a letter
commutes with dropping the low s bits, floor(floor(x / 2^s) / m) =
floor(floor(x / m) / 2^s), so only the carried sums of the Bs drop
bits.  `_prefix_values` derives the bound: each prefix value is at
most N units of 2^-P below the value of the full-resolution pass (every
s = 0), which a factor of depth n over N terms already places within
(n + 1) N floor units of the exact series, and the guard bits keep both
far below 10^-(D+15).  The sum is rounded to the working precision
through `mpmath.libmp`, and every `BigReal` operation names its
precision, so no code here reads mpmath's global (and thread-unsafe)
precision.

A `BigReal` holds the raw `mpmath.libmp` tuples of its value and of its
error bound; `value` and `err` are mpf views, built when read.
`eval_admissible` parses each stored string once per requested precision
(`_parsed`).  A BigReal adds in one place: a linear combination sum q_i x_i
(`linear_combination`, behind x + y, x - y, x.scaled(q), `eval_combo` and
the residual of `relations.verify_congruence`) is summed exactly, as an
integer over the binary mantissas of the x_i and the common denominator of
the q_i, and rounded once at the working precision of the smallest D.  Its
error bound is derived: sum |q_i| err_i, summed the same way, plus that one
rounding, |sum| 10^-(D+15).  A sum of two terms, or one term scaled by an
integer below 2^P, is therefore the correctly rounded result that
`mpf_add` and `mpf_mul` give; a scaling by a non-integer rounds the exact
product once, and a longer combination is not a term-by-term sum, which
rounds every product and every partial sum.  A BigReal at D digits is
zero when |value| < 10^-max(D-10, D//2) (`_zero_tolerance`), the one
threshold that the PSLQ search of `relations` also uses: 10^-(D-10) from
20 digits up, and below that the residual bound 10^-(D//2) of a verdict,
which keeps it below 1 at any precision.

The exact truncated sums (the signed direct sums below and the mod-p sums
in `finite`) are sums over chains of integers: slot j of the index weighs
the value at position t by an integer w_j[t], and `chain_totals`, the one
chain-sum kernel, sums the chains level by level over whole columns.
With C_j[t] the chains of the slots 1..j ending at position t and E_j[t]
= sum_{s<t} C_j[s] (E_0 = 1), strict chains take C_j = E_{j-1} w_j.  A
weak chain whose last run has r = j - i equal positions weighs 1/r!.
With level j scaled by j!, that weight becomes the integer j!/(i! r!) =
C(j, i) times level i scaled by i!, so on the scaled levels

    C_j = sum_{i<j} C(j, i) E_i w_{i+1} .. w_j

and the kernel returns every level's total, [1, T_1, .., T_n].  Each level
is a few column products and one prefix sum over exact integers.  Each
of these sums runs over a signed range 1..h, -h..-1 in its 1/m order, and
-m weighs (-1)^k_j times m in slot j, so `signed_chain_total` passes the
kernel columns over the positive half m = 1..h only.  A chain takes its
first s slots from 1..h and the others from -h..-1, which runs the half
backwards, and no tie crosses the halves, so the whole total is

    sum_{s=0..n} (-1)^(k_(s+1)+..+k_n) [C(n, s)] P_s Q_(n-s),

P the level totals of the columns, Q those of the reversed columns (P
itself for a palindromic index), and the binomial, which joins the two
scaled levels, taken for weak chains only.  This is the antipode split of
the finite value, sum_i (-1)^(k_(i+1)+..+k_n) zeta*(k_1..k_i)
zeta*(k_n..k_(i+1)), on the truncated sums.  The mod-p sums reduce the
total once, at the caller.  The truncated direct sums over signed integer
tuples with 0 < |m| < M (ordered strictly or weakly by 1/m, the weak case
weighted by inverse factorials of the tie run lengths) take h = M - 1 and
the integer columns (L/m)^a, L = lcm(1..M-1), and divide the total by
L^weight (and n!) as one exact `Fraction`.
"""

import functools
import json
import math
import os
import tempfile
import threading
import warnings
import zlib
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import add, floordiv, mul, rshift

from mpmath import mp
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    from_man_exp,
    from_rational,
    from_str,
    ften,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    round_nearest,
    to_str,
)

from .combination import as_fraction
from .indices import (
    check_admissible,
    check_index,
    check_int,
    format_index,
    index_of_word,
    parse_index,
    word_of_index,
)

DEFAULT_DIGITS = 60
_GUARD_DIGITS = 15
_GUARD_BITS = 32
# the evaluator's column blocks (`_prefix_values`): positions per block, and
# the guard G; the block starting at lo keeps its entries in units of
# 2^(s-P), s = max(0, lo - G), so an entry keeps G bits or more below the
# last unit of what its term, weighed by 2^-m, adds to a value
_BLOCK_TERMS = 64
_COLUMN_GUARD_BITS = 64


def _check_digits(digits):
    check_int(digits, 1, "digits must be a positive integer")


def _workdigits(digits):
    return digits + _GUARD_DIGITS


@functools.lru_cache(maxsize=256)
def _prec(digits):
    """Binary working precision for the nominal precision `digits`."""
    return dps_to_prec(_workdigits(digits))


@functools.lru_cache(maxsize=256)
def _power_of_ten(e, digits):
    """10^e as a raw mpf, rounded at the working precision of `digits`."""
    return mpf_pow_int(ften, e, _prec(digits), round_nearest)


def _zero_tolerance(digits):
    """The zero threshold tau(D) = 10^-max(D-10, D//2) as a raw mpf: what
    `BigReal.is_zero` and the PSLQ search of `relations` count as zero.
    From 20 digits up it is 10^-(D-10); below that it is the residual
    bound 10^-(D//2) of `relations.verify_congruence`, so a low precision
    still has a tolerance below 1."""
    return _power_of_ten(-max(digits - 10, digits // 2), digits)


def chain_totals(columns, weak=False):
    """The level totals [1, T_1, .., T_n] of the weight columns w_1..w_n.

    The columns are lists of integers of one length N.  A chain of level
    j picks positions t_1 < .. < t_j (t_1 <= .. <= t_j when `weak` is set)
    and contributes w_1[t_1] * .. * w_j[t_j]; a weak chain also weighs 1/r!
    for each maximal run of r equal positions, and weak level j is
    returned scaled by j!, which makes it an integer.  T_j sums level j
    over all chains.  The levels are exact integers; a caller that wants
    a residue reduces once, at the end.
    """
    n = len(columns)
    totals = [1]
    # prefixes[i][t]: level i (times i! when weak) summed over the
    # positions before t; level 0 is the empty chain
    prefixes = [repeat(1)]
    for j, column in enumerate(columns, 1):
        if weak:
            # Horner in the start i of the last run: C(j, i) prefixes[i]
            # times w_{i+1} .. w_j, summed over i < j
            level = prefixes[0]
            for i in range(1, j):
                level = map(add, map(mul, level, columns[i - 1]),
                            map(mul, prefixes[i], repeat(math.comb(j, i))))
            level = map(mul, level, column)
        else:
            level = map(mul, prefixes[-1], column)
        if j == n:
            totals.append(sum(level))
        else:
            prefixes.append(list(accumulate(level, initial=0)))
            totals.append(prefixes[-1][-1])
    return totals


def signed_chain_total(k, columns, weak=False):
    """The chain total of the index k over the signed range 1..h, -h..-1
    (the 1/m order), from its columns over the positive half only: column
    j weighs m = 1..h, and -m weighs (-1)^k_j times that.

    A chain puts its slots 1..s on the positive half and s+1..n on the
    negative half, where the order runs backwards through 1..h: read from
    slot n down, those slots are a chain of the reversed columns.  No tie
    crosses the halves, so a weak chain's 1/r! weights factor, and the
    n!-scaled total takes C(n, s) times the two scaled levels.  So the
    total is sum_s (-1)^(k_(s+1)+..+k_n) [C(n, s)] P_s Q_(n-s), P the
    level totals of the columns and Q those of the reversed columns (P
    itself when k is a palindrome).
    """
    n = len(k)
    heads = chain_totals(columns, weak)
    tails = heads if k == k[::-1] else chain_totals(columns[::-1], weak)
    return sum((-1) ** sum(k[s:]) * (math.comb(n, s) if weak else 1) * heads[s] * tails[n - s]
               for s in range(n + 1))


def power_columns(base, exponents):
    """The columns [x^a for x in base], one per a in `exponents` (all >= 1),
    each built from the one before by a column multiplication."""
    powers = [base]
    for _ in range(1, max(exponents, default=1)):
        powers.append(list(map(mul, powers[-1], base)))
    return [powers[a - 1] for a in exponents]


class BigReal:
    """A real number at a stated decimal precision with an error estimate.

    `value` is the number as an mpmath float, `err` a conservative bound
    on the distance to the intended real number, `digits` the nominal
    precision D.  Both are kept as raw `mpmath.libmp` tuples and `value`
    and `err` are read-only mpf views of them, built when read.  `is_zero`
    tests |value| < 10^-max(D-10, D//2) (`_zero_tolerance`).  Each
    operation rounds at the working precision of D (the smaller D of two
    operands) through `mpmath.libmp`: +, - and `scaled` are
    `linear_combination` calls, rounded once, and * rounds each product
    of values and errors.
    """

    __slots__ = ("_v", "_e", "digits")

    def __init__(self, value, err, digits):
        _check_digits(digits)
        self._v = value._mpf_
        self._e = err._mpf_
        self.digits = digits

    @classmethod
    def _raw(cls, v, err, digits):
        # the raw tuples v and err, digits already checked
        x = object.__new__(cls)
        x._v, x._e, x.digits = v, err, digits
        return x

    @property
    def value(self):
        return mp.make_mpf(self._v)

    @property
    def err(self):
        return mp.make_mpf(self._e)

    @classmethod
    def _rounded(cls, v, err, digits):
        # v was rounded at the working precision: err grows by |v| 10^-(D+15)
        prec = _prec(digits)
        rounding = mpf_mul(mpf_abs(v), _power_of_ten(-_workdigits(digits), digits),
                           prec, round_nearest)
        return cls._raw(v, mpf_add(err, rounding, prec, round_nearest), digits)

    @classmethod
    def from_rational(cls, q, digits=DEFAULT_DIGITS):
        _check_digits(digits)
        q = as_fraction(q)
        v = from_rational(q.numerator, q.denominator, _prec(digits), round_nearest)
        return cls._rounded(v, fzero, digits)

    def is_zero(self):
        return mpf_lt(mpf_abs(self._v), _zero_tolerance(self.digits))

    def __add__(self, other):
        if not isinstance(other, BigReal):
            return NotImplemented
        return linear_combination(((1, self), (1, other)), min(self.digits, other.digits))

    def __sub__(self, other):
        if not isinstance(other, BigReal):
            return NotImplemented
        return linear_combination(((1, self), (-1, other)), min(self.digits, other.digits))

    def __neg__(self):
        return BigReal._raw(mpf_neg(self._v), self._e, self.digits)

    def __abs__(self):
        return BigReal._raw(mpf_abs(self._v), self._e, self.digits)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, BigReal):
            return NotImplemented
        d = min(self.digits, other.digits)
        prec = _prec(d)
        a, ea = self._v, self._e
        b, eb = other._v, other._e
        err = fzero
        for x, y in ((mpf_abs(a), eb), (mpf_abs(b), ea), (ea, eb)):
            err = mpf_add(err, mpf_mul(x, y, prec, round_nearest), prec, round_nearest)
        return BigReal._rounded(mpf_mul(a, b, prec, round_nearest), err, d)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, q):
        return linear_combination(((q, self),), self.digits)

    def to_decimal(self, digits=None):
        return to_str(self._v, digits if digits is not None else self.digits)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return "BigReal(%s, digits=%d)" % (self.to_decimal(min(self.digits, 20)),
                                           self.digits)


def _exact_sum(terms, den, prec):
    """The raw mpf nearest to sum(c * x for c, x in terms) / den at `prec`:
    c and den > 0 are integers, x a raw mpf, and the sum is taken exactly
    over the binary mantissas, so the result is rounded once."""
    terms = [(-c if x[0] else c, x[1], x[2]) for c, x in terms if x[1]]
    if not terms:
        return fzero
    low = min(exp for _, _, exp in terms)
    total = sum(c * man << (exp - low) for c, man, exp in terms)
    return mpf_div(from_man_exp(total, low), from_int(den), prec, round_nearest)


def linear_combination(terms, digits):
    """sum(q * x for q, x in terms), the q exact rationals (an int, not a
    bool, or a Fraction: `combination.as_fraction`) and the x BigReals, as
    a BigReal at `digits`.

    The sum is exact, as integers over the binary values and the common
    denominator of the q, and is rounded once at the working precision of
    `digits`.  Its error is sum(|q| err(x)), summed the same way, plus
    that one rounding, |sum| 10^-(D+15)."""
    _check_digits(digits)
    terms = [(q, x) for q, x in ((as_fraction(q), x) for q, x in terms) if q]
    den = math.lcm(*(q.denominator for q, _ in terms))
    scales = [(q.numerator * (den // q.denominator), x) for q, x in terms]
    prec = _prec(digits)
    return BigReal._rounded(_exact_sum([(c, x._v) for c, x in scales], den, prec),
                            _exact_sum([(abs(c), x._e) for c, x in scales], den, prec),
                            digits)


def _digest(index_text, digits, value_text):
    """Short digest of one cache record, over its index, precision and value:
    the CRC-32 of the three.  It detects any single contiguous edit of up
    to 4 bytes, and any other accidental edit except with probability
    about 2^-32; it is no defence against a forger.
    zlib is loaded with the interpreter already; hashlib would load
    OpenSSL, some 3.7 MB of resident memory, into every process."""
    text = "%s|%d|%s" % (index_text, digits, value_text)
    return "%08x" % zlib.crc32(text.encode("utf-8"))


def _record(index_text, digits, value_text):
    """One JSON line of the value cache file."""
    return json.dumps({"index": index_text, "precision": digits, "value": value_text,
                       "digest": _digest(index_text, digits, value_text)}) + "\n"


class ValueCache:
    """Persistent (index, precision) -> decimal string store.

    Backed by a JSON-lines file and one dict from each index text to the
    ascending tuple of its (precision, value text) records, built on load
    and extended under the `put` lock.  A lookup at D digits (`get`, `in`)
    bisects that tuple for the record of the smallest precision >= D.
    `eval_admissible` looks a value up under the member of its dual pair
    that keys the pair (`_record_key`) and parses the stored text at the
    working precision of the request: at the stored precision that is
    bit-identical to a fresh computation (fresh computations go through
    the same serialize/parse round trip), and a lower request gets the
    stored value rounded to its precision.  A record that an older file
    holds under the other member of a pair loads under the pair's key,
    since both values are the same bits.  Reads are lock-free: a write
    replaces an index's tuple whole, so a reader sees the old tuple or
    the new one.  Writes serialize.  Each record carries a short digest
    over its index, precision and value.  Bad lines (a torn last line
    after a crash, a record with a missing key, an unparsable value or an
    index text that is not an admissible index, and a record whose digest
    is missing or does not match, such as a value edited by hand or a
    record written before records had digests) are skipped with one
    warning, so their values are computed again, and the file is then
    rewritten once with the good records only; a load that skips nothing
    writes nothing.  Records another process appends between that load
    and the rewrite are lost, and computed again when next needed.  The
    digest detects edits and damage, not a forger: anyone who can write
    the file can write a matching digest.  A path that cannot be written
    (a file in a missing directory, a file or directory without write
    permission) raises OSError in the constructor, before any value is
    computed; a missing file is created at the first write.
    """

    def __init__(self, path=None):
        self.path = path
        # index text -> its (precision, value text) records, ascending
        self._records = {}
        self._lock = threading.Lock()
        self._torn = False  # the file does not end with a newline
        if path is not None and not os.access(
                path if os.path.exists(path) else os.path.dirname(os.path.abspath(path)),
                os.W_OK):
            # fail before any value is computed, not at the first write
            raise OSError("cannot write the value cache file %s" % path)
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            bad = 0
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    digits = int(rec["precision"])
                    from_str(rec["value"], 53)  # syntax check only
                    if rec["digest"] != _digest(rec["index"], digits, rec["value"]):
                        raise ValueError("digest mismatch")
                    k = check_admissible(parse_index(rec["index"]))
                except (ValueError, KeyError, TypeError, AttributeError):
                    bad += 1
                    continue
                # older files may hold the other member of a dual pair; its
                # value is bit-identical, so it serves under the pair's key
                self._add(_record_key(k)[1], digits, rec["value"])
            self._torn = bool(text) and not text.endswith("\n")
            if bad:
                warnings.warn("value cache %s: skipped %d malformed or altered line(s); "
                              "their values will be recomputed" % (path, bad))
                try:
                    self._rewrite()
                except OSError:
                    pass  # an unwritable file keeps its bad lines; the next load warns again

    def _rewrite(self):
        """Replace the file by the good records only, listed by index.

        The records go to a temporary file in the same directory, which is
        fsynced and then renamed over the file, so a crash leaves either the
        old file or the new one.
        """
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(self.path)))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(_record(index_text, digits, value_text)
                              for index_text, records in self._records.items()
                              for digits, value_text in records)
                fh.flush()
                os.fsync(fh.fileno())
            os.chmod(tmp, os.stat(self.path).st_mode & 0o777)
            os.replace(tmp, self.path)
        except OSError:
            os.unlink(tmp)
            raise
        self._torn = False

    def _serving(self, index_text, digits):
        """The (precision, value text) record that serves a request at
        `digits`, the one of the smallest precision >= digits, or None."""
        records = self._records.get(index_text, ())
        i = bisect_left(records, (digits,))
        return records[i] if i < len(records) else None

    def _add(self, index_text, digits, value_text):
        """Store one record unless its precision is stored for its index;
        whether it was stored."""
        records = self._records.get(index_text, ())
        i = bisect_left(records, (digits,))
        if i < len(records) and records[i][0] == digits:
            return False
        self._records[index_text] = records[:i] + ((digits, value_text),) + records[i:]
        return True

    def get(self, index_text, digits):
        """The value text of the smallest stored precision >= digits, or
        None."""
        record = self._serving(index_text, digits)
        return None if record is None else record[1]

    def __contains__(self, key):
        """Whether some precision >= digits is stored for (index_text, digits)."""
        return self._serving(*key) is not None

    def put(self, index_text, digits, value_text):
        with self._lock:
            if not self._add(index_text, digits, value_text):
                return
            if self.path is not None:
                line = _record(index_text, digits, value_text)
                if self._torn:
                    line = "\n" + line
                    self._torn = False
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)


_default_cache = None
_default_cache_lock = threading.Lock()


def default_cache():
    """Process-wide cache; file-backed iff MZV_CACHE_PATH is set."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = ValueCache(os.environ.get("MZV_CACHE_PATH"))
        return _default_cache


def configure_cache(path):
    """Point the process-wide cache at a file (None = memory only)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = ValueCache(path)
        return _default_cache


def _dual_word(w):
    return "".join("A" if c == "B" else "B" for c in reversed(w))


@functools.lru_cache(maxsize=4096)
def _record_key(k):
    """The member of {k, dual(k)} whose record serves both, and its text:
    the one of lower depth, ties going to the smaller tuple.

    The convolution sum of the dual index takes the same products as that
    of k, with j and L - j swapped, so `_evaluate` gives both the same
    string."""
    dual = index_of_word(_dual_word(word_of_index(k)))
    member = min(k, dual, key=lambda x: (len(x), x))
    return member, format_index(member)


def _exclusive_sums(column, blocks):
    """The exclusive prefix sums of a blocked column, each block's in its
    own units: the running sum is shifted right by the growth of s at
    each block boundary."""
    entries = iter(column)
    out, total, units = [], 0, 0
    for positions, s in blocks:
        sums = list(accumulate(islice(entries, len(positions)), initial=total >> (s - units)))
        total, units = sums.pop(), s
        out.append(sums)
    return chain.from_iterable(out)


def _prefix_values(words, nterms, prec):
    """{prefix: I(prefix; 1/2) in fixed point scaled by 2^prec} for every
    prefix of every word, the empty prefix included.

    Each word is innermost first and starts with B.  The words go into one
    prefix trie, and each trie node is one whole-column step over m =
    1..nterms from its parent's column: a B opens a summation slot, whose
    column is the exclusive prefix sum of the parent's (the chains of the
    earlier slots ending before m), and every letter then floor-divides by
    m.  A node's value sums its column shifted right by m.  A column is
    kept only while children still need it, so the walk holds one column
    per branch point of the current path.  The truncation error of each
    value is below 2^-nterms times a small polynomial factor.

    Entry m reaches the value only through 2^-m, so its low bits count
    only through carries.  The positions therefore go in blocks of
    _BLOCK_TERMS, and the block starting at lo keeps
    its entries in units of 2^(s - prec), s = max(0, lo - G), G =
    _COLUMN_GUARD_BITS: the first B is floor((2^prec >> s) / m), a later B
    carries its running sum across blocks and shifts it right by the
    growth of s at each block boundary, every letter floor-divides by m,
    and the value sums entry >> (m - s).  Write x_m for the entry of the
    full-resolution pass (every s = 0) and y_m for the blocked one.

    Bound.  Every step is monotone and rounds down, and floor(floor(x /
    2^s) / m) = floor(floor(x / m) / 2^s), so d_m = floor(x_m / 2^s) - y_m
    >= 0, and d_m = 0 wherever s = 0.  The first B has d = 0, and a letter
    keeps d (floor((a - d) / m) >= floor(a / m) - d).  At a later B let d'
    bound the parent's d, and let r be the shortfall of the running sum
    against the full-resolution running sum divided by 2^s.  Each parent
    entry adds less than d' + 1 to r (d' from the entry, 1 from its
    floor).  r = 0 while s = 0, and s grows by at least 1 at every later
    block boundary, whose shift maps r to less than r / 2 + 1.  So r <
    2 _BLOCK_TERMS (d' + 1) + 2 at every position, and since s > 0 only
    at m > G >= _BLOCK_TERMS, the B entry floor(running / m) has d <
    r / m + 1 <= 2 d' + 3.  A prefix with n letters B therefore has d <
    3 * 2^(n-1) <= 2^G for n <= G - 1, and since m - s >= G wherever
    s > 0, each final floor y_m >> (m - s) is the full-resolution floor
    x_m >> m or one less.  So each prefix value is at most nterms units of
    2^-prec below that of the full-resolution pass and never above it:
    next to the (n + 1) nterms floor units that pass loses against the
    exact series, the blocked pass loses at most (n + 2) nterms.
    Every entry is a function of the prefix, nterms and prec alone, so a
    prefix value does not depend on the trie it is computed in.
    """
    trie = {}
    for word in words:
        node = trie
        for c in word:
            node = node.setdefault(c, {})
    # the positions in blocks, each with its s
    blocks = [(range(lo, min(lo + _BLOCK_TERMS, nterms + 1)), max(0, lo - _COLUMN_GUARD_BITS))
              for lo in range(1, nterms + 1, _BLOCK_TERMS)]
    ms = range(1, nterms + 1)
    shifts = [m - s for positions, s in blocks for m in positions]
    one = 1 << prec
    values = {"": one}
    stack = [(c, child, None) for c, child in trie.items()]
    while stack:
        prefix, node, column = stack.pop()
        if column is None:  # the first B: the empty chain weighs 1 at every m
            column = list(chain.from_iterable(map(floordiv, repeat(one >> s), positions)
                                              for positions, s in blocks))
        elif prefix[-1] == "B":
            column = map(floordiv, _exclusive_sums(column, blocks), ms)
        else:
            column = map(floordiv, column, ms)
        if node:
            column = list(column)
            stack.extend((prefix + c, child, column) for c, child in node.items())
        values[prefix] = sum(map(rshift, column, shifts))
    return values


def _evaluate(ks, workdigits):
    """Decimal strings of the admissible indices ks, all of one weight, at
    the working precision: the convolution sum of each index over the
    prefix values of all their words and dual words at once."""
    length = sum(ks[0])
    nterms = int(math.ceil(3.33 * workdigits)) + 64 + 8 * length
    workprec = dps_to_prec(workdigits)
    prec = workprec + _GUARD_BITS
    pairs = [(e, _dual_word(e)) for e in (word_of_index(k)[::-1] for k in ks)]
    values = _prefix_values({w for pair in pairs for w in pair}, nterms, prec)
    out = []
    for e, d in pairs:
        total = sum(values[e[:j]] * values[d[:length - j]] for j in range(length + 1))
        out.append(to_str(from_man_exp(total, -2 * prec, workprec, round_nearest), workdigits))
    return out


def eval_many(indices, digits=DEFAULT_DIGITS, cache=None):
    """Numeric values of admissible indices, in input order, each correct
    to well within 10^-(D-5).

    Every index is checked, once, before anything is computed.  The batch is
    deduplicated by record key, so an index and its dual are one value.
    Each value then goes through `eval_admissible`, and at the first value
    of a weight that the cache lacks, all the records of that weight it
    lacks are computed in one trie pass; each is bit-identical to its
    value computed alone.
    """
    ks = [check_admissible(k) for k in indices]
    _check_digits(digits)
    if cache is None:
        cache = default_cache()
    missing = {}  # weight -> the record members of that weight the cache lacks
    for k in ks:
        member, key = _record_key(k)
        if (key, digits) not in cache:
            missing.setdefault(sum(k), {})[member] = None
    computed = {}

    def compute(k):
        if k not in computed:
            group = list(missing.pop(sum(k)))
            computed.update(zip(group, _evaluate(group, _workdigits(digits))))
        return computed[k]

    return [eval_admissible(k, digits, cache, compute) for k in ks]


def eval_admissible(k, digits=DEFAULT_DIGITS, cache=None, _compute=None):
    """Numeric value of an admissible index, correct to well within 10^-(D-5).

    One cache lookup, under the record key of the index's dual pair, at
    the smallest stored precision >= D.  A value the cache lacks is that
    member's value computed as a batch of one and stored at D digits;
    `eval_many` passes `_compute`, which gives the value from its batch
    instead; it has checked the index and the digits already."""
    if _compute is None:
        k = check_admissible(k)
        _check_digits(digits)
    if cache is None:
        cache = default_cache()
    member, key = _record_key(k)
    stored = cache.get(key, digits)
    if stored is None:
        stored = _compute(member) if _compute else _evaluate([member], _workdigits(digits))[0]
        cache.put(key, digits, stored)
    return BigReal._raw(_parsed(stored, digits), _power_of_ten(-(digits + 5), digits), digits)


@functools.lru_cache(maxsize=4096)
def _parsed(text, digits):
    """A stored decimal string as a raw mpf at the working precision of
    `digits`; each (text, digits) is parsed once."""
    return from_str(text, _prec(digits), round_nearest)


def eval_combo(combo, digits=DEFAULT_DIGITS, cache=None):
    """Linear extension of eval_admissible to an MzvCombo, summed exactly
    and rounded once (`linear_combination`)."""
    ks = sorted(combo.terms)
    return linear_combination([(combo.terms[k], v)
                               for k, v in zip(ks, eval_many(ks, digits, cache))], digits)


def eval_constant_term(poly, digits=DEFAULT_DIGITS, cache=None):
    """Numeric value of the T^0 coefficient of a RegPoly."""
    return eval_combo(poly.constant_term(), digits, cache)


# ---------------------------------------------------------------------------
# exact truncated direct sums over signed integers

def _direct_sum(k, M, weak):
    k = check_index(k)
    check_int(M, 1, "M must be a positive integer")
    # L = lcm(1..M-1) makes every weight (L/m)^a an integer
    scale = math.lcm(*range(1, M))
    columns = power_columns([scale // m for m in range(1, M)], k)
    return Fraction(signed_chain_total(k, columns, weak),
                    scale ** sum(k) * (math.factorial(len(k)) if weak else 1))


def direct_sum_F(k, M):
    """Exact partial sum over tuples with 0<|m_i|<M and 1/m_1 > ... > 1/m_n.

    Tuples are strict chains in the 1/m order, i.e. increasing position
    subsequences of the signed range.  The cutoff M goes through
    `indices.check_int`: a positive int, not a bool.
    """
    return _direct_sum(k, M, weak=False)


def direct_sum_natural(k, M):
    """Weighted partial sum over weak chains in the 1/m order.

    A tuple weakly decreasing in 1/m is weighted by the product of 1/r!
    over its maximal runs of equal entries; all other tuples weigh 0.  M
    is checked as in direct_sum_F.
    """
    return _direct_sum(k, M, weak=True)


def richardson_extrapolate(values):
    """Accelerate s(M) sampled at M = 2^j, j increasing by 1.

    Assumes an error expansion whose M^-t terms may carry coefficients
    linear in log M (signed harmonic cancellations produce such terms), so
    each power factor is applied twice: the first pass turns (a + b log M)
    M^-t into a constant-coefficient M^-t term, the second removes it.
    Exact on Fractions, also fine on floats.
    """
    row = list(values)
    if not row:
        raise ValueError("need at least one sample")
    t = 0
    while len(row) > 1:
        factor = 2 ** (t // 2 + 1)
        row = [(factor * row[i + 1] - row[i]) / (factor - 1)
               for i in range(len(row) - 1)]
        t += 1
    return row[0]
