"""Exact rational linear algebra: one certified kernel, and RREF.

Callers pass sparse rows: a row is a mapping {column: coefficient}, the
coefficients int or Fraction, an absent column zero, so an elimination
reads only the nonzero entries and no dense working matrix is built.

Every elimination works in one row format and one pivot format.  The
kernels prepare their rows in one place, _scanned_rows, which validates
them and renames each column to its position in the scan of the pivot
order, making each row primitive over Z.  Both eliminations,
_rref_mod_p behind nullspace and the exact _rref, then take rows over
positions 0..ncols-1, take their pivots in increasing position and
return {pivot position: row}; both kernels read their basis off that
through one read-off, _kernel_basis.  mat_det and reduce_rows scan left
to right, so they pass their rows as they are.

nullspace returns a primitive integer basis of the right kernel from a
Gauss-Jordan elimination modulo the word-size prime PRIME, which inserts
the rows one at a time into a fully reduced basis, with a proof over Q on
two sides.  Rank mod p is at most rank over Q, so the nullity over Q is
at most the nullity mod p; no free column mod p therefore proves the
kernel is 0.  Otherwise each kernel vector mod p is lifted by rational
reconstruction and checked exactly, A v = 0 over Z; the checked vectors
are independent, so the nullity over Q is at least the nullity mod p, and
the two bounds meet.  A reconstruction that fails, or a vector that fails
the check, sends the system to the exact elimination instead.

The pivot column order is selectable; running the same system with both
orders and comparing the spanned subspaces is the cross-check used by the
callers.  The pivot columns are the first column basis in scan order,
which does not depend on the order or the repetition of the rows, so
neither does the returned basis.

_rref is Gauss-Jordan elimination over Q, position by position, kept
apart from the row insertion of _rref_mod_p as an independent second
opinion.  It gives the fallback kernel _exact_nullspace, which the tests
also use as the reference, the signed product of its pivots for
matrices.mat_det, and reduce_rows: a canonical reduced row echelon form
over Fraction of dense rows, which makes span comparison a simple
equality test and inverts unimodular matrices in
matrices.mat_inverse_unimodular.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

__all__ = [
    "nullspace",
    "reduce_rows",
    "span_equal",
]

PIVOT_ORDERS = ("left", "right")

# the prime of nullspace: below 2^64, and rational reconstruction
# recovers entries up to sqrt(PRIME / 2), about 1.07e9
PRIME = 2 ** 61 - 1


def _primitive(vec):
    """Clear denominators, divide by content, make the leading entry positive.

    `vec` holds rationals; a row of ints has no denominators to clear.
    """
    if not all(type(x) is int for x in vec):
        vec = [Fraction(x) for x in vec]
        mult = lcm(*(x.denominator for x in vec))
        vec = [int(x * mult) for x in vec]
    g = gcd(*vec) or 1
    if next((x for x in vec if x), 0) < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(x // g for x in vec)


def _scanned_rows(rows, ncols, pivot_order):
    """The scan of pivot_order and each nonzero {column: coefficient} row
    as a primitive integer row over scan positions; zero rows are dropped.

    scan lists the columns in the order pivot_order scans them for pivots,
    so scan[pos] is the column at position pos; either scan is its own
    inverse, so scan[c] is also the position of column c.
    """
    if pivot_order not in PIVOT_ORDERS:
        raise ValueError("pivot_order must be one of %r" % (PIVOT_ORDERS,))
    if ncols < 0:
        raise ValueError("ncols must be nonnegative")
    scan = list(range(ncols)) if pivot_order == "left" else list(range(ncols - 1, -1, -1))
    out = []
    for row in rows:
        if not all(0 <= c < ncols for c in row):
            raise ValueError("row %r has a column outside 0..%d" % (row, ncols - 1))
        cols = [c for c in row if row[c]]
        if cols:
            out.append(dict(zip([scan[c] for c in cols], _primitive([row[c] for c in cols]))))
    return scan, out


def _rref(rows, ncols):
    """Reduced row echelon form over Q of the {position: coefficient} rows,
    by Gauss-Jordan elimination with the pivots taken in increasing
    position.

    For each position, the first remaining row with an entry there
    becomes the pivot row, is divided by that entry, and the position is
    cleared from every other row.  Returns (pivots, det): pivots maps each
    pivot position, in increasing order, to its row, each pivot 1 and
    alone in its column; det is the product of the entries divided out,
    times the sign of the order in which the rows became pivot rows, which
    for n rows of rank n is their determinant.
    """
    rest = [{c: x for c, x in row.items() if x} for row in rows]
    pivots = {}
    det = 1
    for col in range(ncols):
        i = next((i for i, row in enumerate(rest) if col in row), None)
        if i is None:
            continue
        # taking row i of the rest moves it past the i rows before it
        prow = rest.pop(i)
        x = prow[col]
        det *= -x if i % 2 else x
        prow = {c: Fraction(y, x) for c, y in prow.items()}
        for row in chain(rest, pivots.values()):
            f = row.get(col)
            if f:
                for c, y in prow.items():
                    z = row.get(c, 0) - f * y
                    if z:
                        row[c] = z
                    else:
                        del row[c]
        pivots[col] = prow
    return pivots, det


def _kernel_basis(pivots, scan, lift):
    """The kernel basis read off the reduced echelon form `pivots`
    ({pivot position: row}) of rows over the positions of `scan`.

    Each free position f gives one vector, 1 at column scan[f] and
    lift(-row[f]) at the column of each pivot row; the primitive vectors
    come back sorted, or None when lift returns None on an entry.
    """
    basis = []
    for f in range(len(scan)):
        if f in pivots:
            continue
        vec = [0] * len(scan)
        vec[scan[f]] = 1
        for pc, prow in pivots.items():
            x = prow.get(f)
            if x:
                q = lift(-x)
                if q is None:
                    return None
                vec[scan[pc]] = q
        basis.append(_primitive(vec))
    basis.sort()
    return basis


def _exact_nullspace(rows, ncols, pivot_order="left"):
    """nullspace(rows, ncols, pivot_order), read off the reduced row
    echelon form over Q: the fallback of nullspace, and the exact second
    opinion its tests compare against."""
    scan, m = _scanned_rows(rows, ncols, pivot_order)
    return _kernel_basis(_rref(m, ncols)[0], scan, Fraction)


def _subtract_multiple(row, prow, col, p):
    """row -= row[col] * prow mod p, for dict rows; prow[col] is 1."""
    f = row[col]
    for c, x in prow.items():
        y = (row.get(c, 0) - f * x) % p
        if y:
            row[c] = y
        else:
            del row[c]


def _rref_mod_p(rows, p):
    """Pivot rows of the reduced row echelon form of the integer
    {position: coefficient} rows mod p.

    Each row is inserted into a fully reduced basis: it is reduced by the
    pivot rows so far (each zero at every other pivot position, so one
    pass clears them all), its least remaining position becomes a pivot,
    and that position is cleared from the earlier pivot rows.  The working
    set never exceeds the final RREF, which is unique, so the row order
    does not matter.  Returns {pivot position: row dict}, each pivot 1 and
    alone in its column.
    """
    pivots = {}
    for row in rows:
        r = {c: x % p for c, x in row.items() if x % p}
        # a pivot row adds only non-pivot columns, so the pivot columns of
        # r are known before the pass
        for col in [c for c in r if c in pivots]:
            _subtract_multiple(r, pivots[col], col, p)
        if not r:
            continue
        col = min(r)
        inv = pow(r[col], -1, p)
        for c in r:
            r[c] = r[c] * inv % p
        for prow in pivots.values():
            if col in prow:
                _subtract_multiple(prow, r, col, p)
        pivots[col] = r
    return pivots


def _rational(x, p):
    """The fraction a/b with a = b*x mod p and |a|, |b| <= sqrt(p/2), or
    None when there is none (Wang's rational reconstruction)."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, x % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def nullspace(rows, ncols, pivot_order="left"):
    """Primitive integer basis of the right kernel {v | A v = 0} of the
    {column: coefficient} rows of A, computed modulo PRIME and proved over
    Q.  The basis vectors are dense tuples of length ncols.

    pivot_order chooses whether elimination scans candidate pivot columns
    left to right or right to left; the kernel is the same subspace either
    way, but the free columns (and the basis) differ, which is what makes
    the two runs a useful consistency check.

    Gauss-Jordan mod PRIME gives the rank r and, per free column, the
    kernel vector of the reduced echelon form.  No free column proves the
    kernel is 0: rank mod p <= rank over Q.  Otherwise each vector is
    lifted by rational reconstruction and checked exactly, A v = 0 over Z.
    The checked vectors are independent (each is 1 at its own free column
    and 0 at the others), so nullity over Q >= ncols - r, and the rank
    bound gives <= ; they span the kernel.  Their last nonzero entries in
    scan order are the free columns, which fixes those as the free columns
    over Q, so the basis is _exact_nullspace's, vector for vector.  A failed
    reconstruction or check falls back to _exact_nullspace.
    """
    scan, m = _scanned_rows(rows, ncols, pivot_order)
    p = PRIME
    basis = _kernel_basis(_rref_mod_p(m, p), scan, lambda x: _rational(x, p))
    if basis is None or any(sum(x * vec[scan[c]] for c, x in row.items())
                            for vec in basis for row in m):
        return _exact_nullspace(rows, ncols, pivot_order)
    return basis


def reduce_rows(rows, ncols):
    """Canonical reduced row echelon form over Fraction of dense rows.

    Returns a tuple of nonzero row tuples, pivots scanned left to right,
    each pivot 1 and alone in its column.  Equal spans give equal outputs.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length mismatch")
    pivots, _ = _rref([dict(enumerate(row)) for row in rows], ncols)
    return tuple(tuple(Fraction(prow.get(c, 0)) for c in range(ncols)) for prow in pivots.values())


def span_equal(basis_a, basis_b, ncols):
    """True iff the two vector lists span the same subspace of Q^ncols."""
    return reduce_rows(list(basis_a), ncols) == reduce_rows(list(basis_b), ncols)
