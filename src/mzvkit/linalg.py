"""Exact rational linear algebra: fraction-free nullspaces and RREF.

The nullspace routine runs Bareiss elimination on an integer copy of the
input (every intermediate division is exact, and checked: a remainder
raises ArithmeticError; no fractions appear until back-substitution) and
returns a primitive integer basis.  The pivot column order is selectable;
running the same system with both orders and comparing the spanned
subspaces is the cross-check used by the callers.  The pivot columns are
the first column basis in scan order, which does not depend on the order
or the repetition of the rows, so neither does the returned basis.

reduce_rows computes a canonical reduced row echelon form over Fraction,
which makes span comparison a simple equality test.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "nullspace",
    "reduce_rows",
    "span_equal",
    "matvec",
]

PIVOT_ORDERS = ("left", "right")


def _primitive(vec):
    """Clear denominators, divide by content, make the leading entry positive.

    `vec` holds ints or Fractions; a row of ints has no denominators to clear.
    """
    if not all(type(x) is int for x in vec):
        mult = lcm(*(x.denominator for x in vec))
        vec = [int(x * mult) for x in vec]
    g = gcd(*vec) or 1
    if next((x for x in vec if x), 0) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _integer_rows(rows, ncols):
    """Each nonzero row as a primitive integer row; zero rows are dropped."""
    out = []
    for row in rows:
        if not all(type(x) is int for x in row):
            row = [Fraction(x) for x in row]
        if len(row) != ncols:
            raise ValueError("row length %d != %d" % (len(row), ncols))
        if any(row):
            out.append(list(_primitive(row)))
    return out


def matvec(rows, vec):
    return [sum(Fraction(a) * Fraction(b) for a, b in zip(row, vec)) for row in rows]


def nullspace(rows, ncols, pivot_order="left"):
    """Primitive integer basis of the right kernel {v | A v = 0}.

    pivot_order chooses whether elimination scans candidate pivot columns
    left to right or right to left; the kernel is the same subspace either
    way, but the elimination path (and the raw basis) differs, which is
    what makes the two runs a useful consistency check.
    """
    if pivot_order not in PIVOT_ORDERS:
        raise ValueError("pivot_order must be one of %r" % (PIVOT_ORDERS,))
    if ncols < 0:
        raise ValueError("ncols must be nonnegative")
    m = _integer_rows(rows, ncols)
    col_scan = list(range(ncols)) if pivot_order == "left" else list(range(ncols - 1, -1, -1))

    # Bareiss fraction-free elimination.  prev is the previous pivot; every
    # division below is exact by the Sylvester identity.
    pivots = []  # (row, col) in elimination order
    used_cols = set()
    k = 0
    prev = 1
    while k < len(m):
        piv_row = piv_col = None
        for c in col_scan:
            if c in used_cols:
                continue
            r = next((r for r in range(k, len(m)) if m[r][c] != 0), None)
            if r is not None:
                piv_row, piv_col = r, c
                break
        if piv_row is None:
            break
        m[k], m[piv_row] = m[piv_row], m[k]
        p = m[k][piv_col]
        for r in range(k + 1, len(m)):
            factor = m[r][piv_col]
            row = m[r]
            top = m[k]
            # the uniform update keeps every entry an exact minor, so the
            # division by the previous pivot never truncates
            for c in range(ncols):
                num = p * row[c] - factor * top[c]
                if num % prev:
                    raise ArithmeticError("Bareiss division by %d is not exact" % prev)
                row[c] = num // prev
        pivots.append((k, piv_col))
        used_cols.add(piv_col)
        prev = p
        k += 1

    free_cols = [c for c in col_scan if c not in used_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in reversed(pivots):
            s = sum((Fraction(m[r][c]) * v[c] for c in range(ncols) if c != pc and m[r][c]),
                    Fraction(0))
            v[pc] = -s / m[r][pc]
        basis.append(_primitive(v))
    basis.sort()
    return basis


def reduce_rows(rows, ncols):
    """Canonical reduced row echelon form over Fraction.

    Returns a tuple of nonzero row tuples, pivots scanned left to right,
    each pivot 1 and alone in its column.  Equal spans give equal outputs.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        scale = 1 / mat[rank][col]
        mat[rank] = [x * scale for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    out = [tuple(row) for row in mat[:rank] if any(x != 0 for x in row)]
    return tuple(out)


def span_equal(basis_a, basis_b, ncols):
    """True iff the two vector lists span the same subspace of Q^ncols."""
    return reduce_rows(list(basis_a), ncols) == reduce_rows(list(basis_b), ncols)
