"""Finite linear combinations over a key set: the free-module arithmetic.

Every symbolic object of the package is a dict `terms` from keys to nonzero
coefficients: admissible indices (MzvCombo), powers of T (RegPoly),
exponent tuples (MultiPoly) and permutations (GroupRingElem).  Sums,
negation, scaling, equality and hashing act on the dicts alone.  Each
product is a product of keys extended bilinearly, as the stuffle and
shuffle algebras are defined: a subclass says how two keys multiply.

A subclass supplies four hooks:

  _like(terms)    a result in the same space, zero coefficients dropped,
                  without validating keys again (the default suits a class
                  whose only slot is `terms`);
  _space()        what must agree between operands (a variable count or a
                  group size), None when nothing does;
  _scalar(q)      the coefficient rule for a scalar factor;
  _key_product    (k1, k2) -> iterable of (key, multiplicity) pairs.

Operands of another type get NotImplemented, so Python raises TypeError;
operands of the same type over different spaces raise ValueError.
"""

from fractions import Fraction


def as_fraction(x):
    """An exact rational coefficient: an int (not a bool) or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("exact rational coefficient expected, got %r" % (x,))


class Combination:
    """Base of the sparse combinations; instances are never mutated."""

    __slots__ = ("terms",)

    _scalar = staticmethod(as_fraction)

    def _like(self, terms):
        new = object.__new__(type(self))
        new.terms = {k: c for k, c in terms.items() if c}
        return new

    def _space(self):
        return None

    def _same(self, other):
        """True for an operand of this type over the same space."""
        if type(other) is not type(self):
            return False
        if self._space() != other._space():
            raise ValueError("%s operands over different spaces: %r vs %r"
                             % (type(self).__name__, self._space(), other._space()))
        return True

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
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return self._like(acc)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not self._same(other):
            return NotImplemented
        return self + (-other)

    def scaled(self, q):
        q = self._scalar(q)
        return self._like({k: c * q for k, c in self.terms.items()} if q else {})

    def __mul__(self, other):
        """Scalar multiple for an int or Fraction, else the bilinear
        extension of _key_product."""
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not self._same(other):
            return NotImplemented
        key_product = self._key_product
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1 * c2
                for key, mult in key_product(k1, k2):
                    term = c if mult == 1 else c * mult
                    acc[key] = acc[key] + term if key in acc else term
        return self._like(acc)

    # reached only for a left operand of another type: a scalar
    __rmul__ = __mul__
