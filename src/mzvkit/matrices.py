"""Unimodular integer matrices acting on polynomials by substitution.

Matrices are tuples of row tuples with integer entries.  The action used
throughout is on row vectors: (f|_g)(x) = f(x g^{-1}), so the action is
contravariant, f|_{gh} = (f|_g)|_h.  Only matrices invertible over the
integers (determinant +-1) act; anything else is rejected.  Both use
linalg's one exact elimination: mat_det is the signed product of its
pivots, and mat_inverse_unimodular reads m^-1 off the reduced row echelon
form of [m | I].

The special matrices built here generate an embedded copy of the symmetric
group on n+1 letters inside GL_n(Z):

  perm_matrix(sigma)   entries delta_{i, sigma(j)}, so w_sigma e_j = e_sigma(j)
  upper_ones(n)        unit upper triangular all-ones matrix P
  antidiagonal(n)      reversal matrix w_0
  neg_identity(n)      -1
  cyclic_action_matrix(n)   first row all -1, ones on the subdiagonal

build_iota(n) extends sigma -> w_sigma from the n-letter subgroup to the
full (n+1)-letter group: letters 1..n map to the basis vectors and letter
n+1 to the vector whose coordinates sum to the negated total, so the
matrix of sigma has columns vec(sigma(j)) - vec(sigma(n+1)).
"""

from itertools import permutations

from .groupring import _check_perm
from .linalg import _rref, reduce_rows
from .polynomials import MultiPoly

__all__ = [
    "mat_identity",
    "mat_mul",
    "mat_det",
    "mat_inverse_unimodular",
    "perm_matrix",
    "upper_ones",
    "antidiagonal",
    "neg_identity",
    "cyclic_action_matrix",
    "iota_matrix",
    "build_iota",
    "substitution_forms",
    "act_matrix",
]


def _check_matrix(m):
    if not isinstance(m, tuple) or not m:
        raise ValueError("matrix must be a nonempty tuple of row tuples")
    n = len(m)
    for row in m:
        if not isinstance(row, tuple) or len(row) != n:
            raise ValueError("matrix must be square")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError("matrix entries must be integers")
    return n


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n = _check_matrix(a)
    if _check_matrix(b) != n:
        raise ValueError("size mismatch")
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def mat_det(m):
    """Exact determinant of an integer matrix: the signed product of the
    pivots of its Gauss-Jordan elimination over Q.

    The elimination runs on the raw rows; dividing a row by its content or
    fixing its sign, as the kernels do, would change the determinant.
    """
    n = _check_matrix(m)
    pivots, det = _rref([dict(enumerate(row)) for row in m], n)
    return int(det) if len(pivots) == n else 0


def mat_inverse_unimodular(m):
    """Inverse of an integer matrix with determinant +-1.

    Raises ValueError for any other determinant: those matrices do not act
    on polynomial rings with integer substitutions.
    """
    n = _check_matrix(m)
    red = reduce_rows([row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m)],
                      2 * n)
    # [m | I] reduces to [I | m^-1] exactly when m is invertible, and
    # m^-1 is an integer matrix exactly when det m is a unit, since
    # det m * det m^-1 = 1
    if (any(row[i] != 1 for i, row in enumerate(red))
            or any(x.denominator != 1 for row in red for x in row[n:])):
        raise ValueError("matrix is not invertible over the integers (det=%d)" % mat_det(m))
    return tuple(tuple(int(x) for x in row[n:]) for row in red)


def perm_matrix(sigma):
    """Permutation matrix w_sigma with entries delta_{i, sigma(j)}."""
    sigma = _check_perm(sigma)
    n = len(sigma)
    return tuple(tuple(1 if i + 1 == sigma[j] else 0 for j in range(n))
                 for i in range(n))


def upper_ones(n):
    return tuple(tuple(1 if j >= i else 0 for j in range(n)) for i in range(n))


def antidiagonal(n):
    return tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


def neg_identity(n):
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


def cyclic_action_matrix(n):
    """First row all -1, ones on the subdiagonal; the image of the full cycle."""
    rows = [tuple(-1 for _ in range(n))]
    for i in range(1, n):
        rows.append(tuple(1 if j == i - 1 else 0 for j in range(n)))
    return tuple(rows)


def iota_matrix(sigma, n=None):
    """Matrix of a permutation of 1..n+1 acting on the sum-zero lattice.

    Column j is vec(sigma(j)) - vec(sigma(n+1)) where vec(i) = e_i for
    i <= n and vec(n+1) = 0.  Restricted to permutations fixing n+1 this
    reproduces perm_matrix.
    """
    sigma = tuple(sigma)
    if n is None:
        n = len(sigma) - 1
    _check_perm(sigma, n + 1)

    def vec(i):
        return tuple(1 if r + 1 == i else 0 for r in range(n))

    last = vec(sigma[n])
    cols = [tuple(a - b for a, b in zip(vec(sigma[j]), last)) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def build_iota(n):
    """The embedding of all permutations of 1..n+1 into GL_n(Z), as a dict."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return {sigma: iota_matrix(sigma, n)
            for sigma in permutations(range(1, n + 2))}


def substitution_forms(gamma):
    """The linear forms of x gamma^{-1}: entry j replaces x_j in f|_gamma.

    Form j is sum_i delta[i][j] x_i with delta = gamma^{-1}, so one inversion
    serves every polynomial or monomial acted on.
    """
    delta = mat_inverse_unimodular(gamma)
    n = len(delta)
    return [MultiPoly(n, {tuple(int(r == i) for r in range(n)): delta[i][j] for i in range(n)})
            for j in range(n)]


def act_matrix(f, gamma):
    """Row-vector substitution action (f|_gamma)(x) = f(x gamma^{-1}) on a MultiPoly.

    Contravariant: acting by a product equals acting by the factors left
    to right.
    """
    if not isinstance(f, MultiPoly):
        raise TypeError("expected MultiPoly")
    n = _check_matrix(gamma)
    if f.nvars != n:
        raise ValueError("matrix size %d does not match variable count %d" % (n, f.nvars))
    return f.substitute(substitution_forms(gamma))
