"""Finite linear combinations over a key set: the free-module arithmetic.

Every symbolic object of the package is a dict `terms` from keys to nonzero
coefficients: admissible indices (MzvCombo), powers of T (RegPoly),
exponent tuples (MultiPoly), permutations (GroupRingElem) and the indices
of a weight-truncated series table (SeriesTrunc).  Scaling acts on the
dicts alone, equality and hashing on the dicts and the space, and negation
is scaling by -1, done by negating each coefficient.  Each product is a
product of keys extended bilinearly, as the stuffle and shuffle algebras
are defined: a subclass says how two keys multiply.

Every sum and every product go through one accumulator, private to this
module: combined(pairs, products) sums many terms, x + y and x - y are
combined calls of one term and x * y one of one product, and every other
module sums through combined, a term dict entering as an operand built by
_like.  The accumulator keeps integer numerators in one dict per
denominator, so adding a term multiplies and adds integers and builds no
Fraction.  A coefficient that is a combination itself (the MzvCombo of a
RegPoly or a SeriesTrunc) is summed under its outer key, as one more
level of the same dicts.  At the end the denominators are brought to
their lcm, and each key of the result gets one coefficient, built once
(keys with equal numerators share it).

A subclass states its space, what must agree between operands (a
variable count, a group size or a series shape), as its own __slots__
beside the inherited `terms`: () when nothing does.  Every result is built
over the space of its first operand, the slots copied, and zero(*space) is
the empty combination of that space.  A subclass supplies these hooks:

  _scalar(q)      the coefficient rule for a scalar factor;
  _ratio(n, d)    the coefficient n/d built once per key of a sum (a
                  Fraction unless the coefficients are integers);
  _key_product    (k1, k2) -> iterable of (key, multiplicity) pairs, for
                  the classes that multiply;
  _nested         True when the coefficients are combinations themselves.

Operands of another type get NotImplemented, so Python raises TypeError
(combined raises it directly); operands of the same type over different
spaces raise ValueError.  A constructor takes the space, then the terms
(None for none); it validates each (key, coefficient) pair of its input
and hands them to _merged, which adds up equal keys.
"""

from fractions import Fraction
from math import lcm


def as_fraction(x):
    """An exact rational coefficient: an int (not a bool) or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("exact rational coefficient expected, got %r" % (x,))


class _Sum:
    """Sum of scaled term dicts and products of term dicts, kept as integer
    numerators: parts maps each denominator to a dict key -> numerator.
    Nothing is reduced until total()."""

    __slots__ = ("like", "parts")

    def __init__(self, like):
        self.like = like  # an element of the result's type and space
        self.parts = {}

    def add(self, terms, num, den):
        """Add num/den times the term dict."""
        parts = self.parts
        last = nums = None
        for key, c in terms.items():
            n, d = c.as_integer_ratio()
            if d != last:
                # the terms of one combination share few denominators
                last = d
                nums = parts.setdefault(d * den, {})
            nums[key] = nums.get(key, 0) + n * num

    def add_product(self, left, right, num, den):
        """Add num/den times the product of two term dicts."""
        key_product = self.like._key_product
        parts = self.parts
        for k1, c1 in left.items():
            n1, d1 = c1.as_integer_ratio()
            n1 *= num
            d1 *= den
            last = nums = None
            for k2, c2 in right.items():
                n, d = c2.as_integer_ratio()
                n *= n1
                if d != last:
                    last = d
                    nums = parts.setdefault(d * d1, {})
                for key, mult in key_product(k1, k2):
                    nums[key] = nums.get(key, 0) + (n if mult == 1 else n * mult)

    def total(self):
        """The term dict of the sum: one coefficient per nonzero key."""
        parts = self.parts
        if len(parts) == 1:
            (den, nums), = parts.items()
        else:
            den = lcm(*parts)
            nums = {}
            for d, bucket in parts.items():
                scale = den // d
                for key, n in bucket.items():
                    nums[key] = nums.get(key, 0) + n * scale
        # keys with equal numerators share one coefficient: a product of
        # two terms lands on several keys with the same value
        ratio = self.like._ratio
        made = {}
        out = {}
        for key, n in nums.items():
            if n:
                c = made.get(n)
                if c is None:
                    c = made[n] = ratio(n, den)
                out[key] = c
        return out


class _NestedSum:
    """The sum for combinations of combinations: one _Sum per outer key,
    so a term is summed under its (outer key, inner key) path."""

    __slots__ = ("like", "parts")

    def __init__(self, like):
        self.like = like
        self.parts = {}

    def _inner(self, key, coeff):
        inner = self.parts.get(key)
        if inner is None:
            inner = self.parts[key] = _Sum(coeff)
        return inner

    def add(self, terms, num, den):
        for key, coeff in terms.items():
            self._inner(key, coeff).add(coeff.terms, num, den)

    def add_product(self, left, right, num, den):
        key_product = self.like._key_product
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                for key, mult in key_product(k1, k2):
                    self._inner(key, c1).add_product(c1.terms, c2.terms, num * mult, den)

    def total(self):
        out = {}
        for key, inner in self.parts.items():
            terms = inner.total()
            if terms:  # an outer key whose inner sum cancels is dropped
                out[key] = inner.like._like(terms)
        return out


class Combination:
    """Base of the sparse combinations; instances are never mutated.  Only
    subclasses are instantiated, each declaring its own __slots__."""

    __slots__ = ("terms",)

    _scalar = staticmethod(as_fraction)
    _ratio = Fraction
    _nested = False

    def _like(self, terms):
        """A result over this space from terms without zero coefficients,
        validating nothing again."""
        new = object.__new__(type(self))
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        new.terms = terms
        return new

    def _space(self):
        """The values of the subclass's own slots, a tuple."""
        return tuple([getattr(self, name) for name in self.__slots__])

    @classmethod
    def zero(cls, *space):
        return cls(*space)

    @staticmethod
    def _merged(pairs):
        """The term dict of validated (key, coefficient) pairs, the
        constructors' one merge: the coefficients of equal keys add up, and
        a key whose sum is zero is dropped."""
        acc = {}
        for key, c in pairs:
            if c:
                acc[key] = acc.get(key, 0) + c
        return {key: c for key, c in acc.items() if c}

    def _same(self, other):
        """True for an operand of this type over the same space."""
        if type(other) is not type(self):
            return False
        # slot by slot, so a class without a space compares nothing
        for name in self.__slots__:
            if getattr(self, name) != getattr(other, name):
                raise ValueError("%s operands over different spaces: %r vs %r"
                                 % (type(self).__name__, self._space(), other._space()))
        return True

    def _sum(self):
        return (_NestedSum if self._nested else _Sum)(self)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __add__(self, other):
        if not self._same(other):
            return NotImplemented
        return self.combined(((1, other),))

    def __neg__(self):
        """scaled(-1) with each coefficient negated directly, so no
        Fraction product is built.  A coefficient, a Fraction, an int or a
        combination, negates to its own type as its product by the scalar
        -1 does, so the two agree key for key, coefficient types included."""
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not self._same(other):
            return NotImplemented
        return self.combined(((-1, other),))

    def scaled(self, q):
        q = self._scalar(q)
        return self._like({k: c * q for k, c in self.terms.items()} if q else {})

    def combined(self, pairs=(), products=()):
        """self + the sum of q*x over the (q, x) pairs + the sum of q*x*y
        over the (q, x, y) triples, summed in one pass.

        Every operand must have this type (else TypeError) and this space
        (else ValueError); q follows the scalar rule of the type.
        """
        acc = self._sum()
        acc.add(self.terms, 1, 1)
        for q, x in pairs:
            num, den = self._scalar(q).as_integer_ratio()
            acc.add(self._operand(x).terms, num, den)
        for q, x, y in products:
            num, den = self._scalar(q).as_integer_ratio()
            acc.add_product(self._operand(x).terms, self._operand(y).terms, num, den)
        return self._like(acc.total())

    def _operand(self, x):
        if not self._same(x):
            raise TypeError("%s expected, got %s" % (type(self).__name__, type(x).__name__))
        return x

    def __mul__(self, other):
        """Scalar multiple for an int or Fraction, else the bilinear
        extension of _key_product: a combined call of one product."""
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not self._same(other):
            return NotImplemented
        return self._like({}).combined(products=((1, self, other),))

    # reached only for a left operand of another type: a scalar
    __rmul__ = __mul__
