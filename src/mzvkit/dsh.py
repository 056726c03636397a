"""Linearized double shuffle spaces and the cyclic-invariance kernel.

For n >= 1 and d >= 0 let V be the homogeneous polynomials of degree d in
x_1..x_n.  The double shuffle space collects the f in V killed both by the
shuffle sums (acting through permutation matrices) and by the same sums
composed with the inverse all-ones triangular substitution:

    f|_{sh_{n,i}} = 0   and   (f|_{P^{-1}})|_{sh_{n,i}} = 0,   1 <= i <= n-1.

All conditions are exact linear constraints on the coefficients over a
basis.  Every solver runs one pipeline: basis, images, condition rows, a
nullspace of linalg, polynomials.  The images are built over exponent
tuples with integer coefficients.  A permutation sends a monomial to a
monomial: each permutation of a shuffle operator is mapped once over the
degree-d exponent tuples by polynomials.permute_terms, the package's one
permutation action, and each image term looks its target up.  The P^{-1}
twists of the basis monomials come from one call of
polynomials.substituted_monomials, the package's one monomial
substitution, over the integer forms x_1 + ... + x_j, so they keep integer
coefficients.  Each target monomial of an image family gives one sparse
condition row {column: coefficient}, built straight from the images, in
linalg's row format.  A condition row that repeats an earlier one is
dropped: it does not change the row space.

The conditions of i and n-i are the same rows.  The permutations that
increase on 1..n-i and on n-i+1..n are those that increase on 1..i and on
i+1..n composed with the block rotation rho, so sh_{n,n-i} = sh_{n,i} rho,
and the family of n-i is the family of i with its target monomials
permuted by rho.  A target permutation only reorders the rows, so the
families are built for i = 1..floor(n/2) only; the row space, and so every
kernel, is that of all n-1 families.

The nullspace is linalg's one kernel: Gauss-Jordan modulo a prime, with
the kernel proved over Q (rank mod p bounds the nullity from above, exactly
checked kernel vectors from below), and Gauss-Jordan elimination over Q
when reconstruction or the check fails.  Every solver eliminates its one
condition matrix under each of PIVOT_ORDERS and raises ArithmeticError
unless the kernels span the same space; it returns the "left" basis.

The cyclic-invariance kernel adds one more constraint family: form

    g(x_1,...,x_{n+1}) = (f(x_2-x_1,...,x_{n+1}-x_1) - f(x_2,...,x_{n+1})) / x_1

(the division is always exact) and require g to be invariant under the
cyclic shift of its n+1 variables.  For even degree d >= 2 this cuts the
space to zero; degree 0 keeps the constants.
"""

from fractions import Fraction

from .groupring import GroupRingElem, cycle_perm, invert_perm, shuffle_operator
from .indices import check_int
from .linalg import PIVOT_ORDERS, nullspace, span_equal
from .matrices import column_forms, upper_ones
from .polynomials import (
    MultiPoly,
    diagonal_translation_invariant,
    monomial_exponents,
    permute_terms,
    substituted_monomials,
)

__all__ = [
    "act_groupring",
    "vector_space_dimension",
    "double_shuffle_space",
    "dsh_dimension",
    "dimension_table",
    "divided_difference",
    "cyclic_invariance_kernel",
    "symmetric_slice_basis",
    "symmetric_dti_solutions",
    "functional_equation_space",
    "second_order_divergence",
    "diagonal_translation_invariant",
]


def act_groupring(f, elem):
    """f|_x for a group-ring element x: coefficient-weighted sum of f|_{w_sigma}."""
    if not isinstance(elem, GroupRingElem):
        raise TypeError("expected GroupRingElem")
    if elem.m != f.nvars:
        raise ValueError("group on %d letters cannot act on %d variables" % (elem.m, f.nvars))
    return MultiPoly.zero(f.nvars).combined(
        (c, f.permute_variables(sigma)) for sigma, c in elem.terms.items())


def vector_space_dimension(n, d):
    return len(monomial_exponents(n, d))


def _rows_from_images(*families):
    """Linear conditions 'image == 0', each distinct row once.

    A family lists, for one linear map, the term dict (exponent ->
    coefficient) of the image of each basis element; each target monomial
    of a family, in sorted order, gives one row {column: coefficient},
    whose columns are the positions in the basis of the elements whose
    image has that term, in increasing order.  A repeated row adds nothing
    to the row space, so only its first occurrence is kept.
    """
    rows = {}
    for images in families:
        by_target = {}
        for col, img in enumerate(images):
            for e, x in img.items():
                by_target.setdefault(e, {})[col] = x
        rows.update(dict.fromkeys(tuple(by_target[e].items()) for e in sorted(by_target)))
    return [dict(row) for row in rows]


def _kernel(basis, rows):
    """The combinations of basis killed by the condition rows, one per
    primitive integer nullspace vector under the "left" pivot order.

    The rows are eliminated under each of PIVOT_ORDERS; ArithmeticError
    unless the kernels span the same space.
    """
    kernels = [nullspace(rows, len(basis), pivot_order=order) for order in PIVOT_ORDERS]
    if not span_equal(*kernels, len(basis)):
        raise ArithmeticError("pivot orders disagree on a kernel in %d unknowns: dims %r"
                              % (len(basis), [len(k) for k in kernels]))
    zero = MultiPoly.zero(basis[0].nvars)
    return [zero.combined((c, b) for c, b in zip(vec, basis) if c) for vec in kernels[0]]


def _require_degree(n, d):
    """Require ints (`check_int`) n >= 1 and d >= 0."""
    check_int(n, 1, "need n >= 1 and d >= 0")
    check_int(d, 0, "need n >= 1 and d >= 0")


def _dsh_condition_rows(n, d):
    """The degree-d monomial basis in n variables and the double shuffle
    conditions on it."""
    _require_degree(n, d)
    exponents = monomial_exponents(n, d)
    basis = [MultiPoly.monomial(e) for e in exponents]
    # f|_{P^{-1}} substitutes x P: x_j becomes column j of P, the form
    # x_1 + ... + x_j, the same for every monomial; the forms have integer
    # coefficients, so the twisted monomials do too
    plain = [{e: 1} for e in exponents]
    twisted = substituted_monomials(exponents, column_forms(upper_ones(n)), n)
    identity = dict(zip(exponents, exponents))
    families = []
    # the family of n - i is that of i with its targets permuted, so it
    # gives no new row (module docstring)
    for i in range(1, n // 2 + 1):
        # permuting the keys of {e: e} by sigma^-1 leaves at each exponent
        # tuple its image under sigma
        moves = [(c, permute_terms(identity, invert_perm(sigma)))
                 for sigma, c in shuffle_operator(n, i).terms.items()]
        for images in (plain, twisted):
            family = []
            for terms in images:
                out = {}
                for c, moved in moves:
                    for e, x in terms.items():
                        key = moved[e]
                        out[key] = out.get(key, 0) + c * x
                family.append({e: x for e, x in out.items() if x})
            families.append(family)
    return basis, _rows_from_images(*families)


def double_shuffle_space(n, d):
    """Basis of the double shuffle space in n variables, degree d."""
    return _kernel(*_dsh_condition_rows(n, d))


def dsh_dimension(n, d):
    """dim of the double shuffle space, checked by every pivot order;
    n >= 1 and d >= 0 must be ints (ValueError otherwise)."""
    return len(double_shuffle_space(n, d))


def dimension_table(n, degrees):
    return {d: dsh_dimension(n, d) for d in degrees}


def _shift_vars(n):
    """Replacement lists sending f(x_1..x_n) into n+1 variables."""
    m = n + 1
    x = [MultiPoly.variable(i, m) for i in range(1, m + 1)]
    shifted = [x[i + 1] - x[0] for i in range(n)]      # x_{i+1} - x_1
    dropped_first = [x[i + 1] for i in range(n)]       # x_2 .. x_{n+1}
    leading = [x[i] for i in range(n)]                 # x_1 .. x_n
    return shifted, dropped_first, leading


def divided_difference(f):
    """(f(x_2-x_1,...,x_{n+1}-x_1) - f(x_2,...,x_{n+1})) / x_1, exactly.

    The numerator vanishes at x_1 = 0, so the division never fails.
    """
    if not isinstance(f, MultiPoly):
        raise TypeError("expected MultiPoly")
    shifted, dropped_first, _ = _shift_vars(f.nvars)
    return (f.substitute(shifted) - f.substitute(dropped_first)).divide_by_variable(1)


def _cyclic_condition_rows(n, d):
    """The double shuffle basis and conditions, plus cyclic invariance of
    the divided difference."""
    if d % 2 != 0:
        raise ValueError("degree must be even, got %d" % d)
    basis, rows = _dsh_condition_rows(n, d)
    cyc = cycle_perm(n + 1)
    defects = [g - g.permute_variables(cyc) for g in map(divided_difference, basis)]
    return basis, rows + _rows_from_images([g.terms for g in defects])


def cyclic_invariance_kernel(n, d):
    """Members of the double shuffle space whose divided difference is cyclic.

    Requires even d (the odd case is outside the statement being checked).
    Expected: empty basis for even d >= 2; for d = 0 the constants remain.
    """
    return _kernel(*_cyclic_condition_rows(n, d))


def symmetric_slice_basis(n, d):
    """Orbit-sum basis of the symmetric homogeneous polynomials of degree d."""
    orbits = {}
    for e in monomial_exponents(n, d):
        orbits.setdefault(tuple(sorted(e, reverse=True)), set()).add(e)
    out = []
    for key in sorted(orbits):
        out.append(MultiPoly(n, {e: Fraction(1) for e in orbits[key]}))
    return out


def symmetric_dti_solutions(n, d):
    """Symmetric f of degree d with x_1-weighted first derivative translation invariant.

    Solves, over the symmetric slice, the condition that d/dx_1 (x_1 f) has
    partial derivatives summing to zero.  Only constants should survive.
    The images are those of second_order_divergence, which weighs x_n: the
    transposition of x_1 and x_n fixes a symmetric f and commutes with the
    sum of the partials, so it carries each x_1 image to the x_n image and
    only permutes the targets, giving the same condition rows.
    """
    _require_degree(n, d)
    basis = symmetric_slice_basis(n, d)
    return _kernel(basis, _rows_from_images([second_order_divergence(f).terms for f in basis]))


def functional_equation_space(n, d):
    """Homogeneous f of degree d with the two-sided divided-difference balance.

    The constraint, in n+1 variables:

      x_{n+1} (f(x_2-x_1,..,x_{n+1}-x_1) - f(x_2,..,x_{n+1}))
        = x_1 (f(x_2-x_1,..,x_{n+1}-x_1) - f(x_1,..,x_n)).
    """
    _require_degree(n, d)
    basis = [MultiPoly.monomial(e) for e in monomial_exponents(n, d)]
    shifted, dropped_first, leading = _shift_vars(n)
    m = n + 1
    x1 = MultiPoly.variable(1, m)
    xm = MultiPoly.variable(m, m)
    images = []
    for f in basis:
        a = f.substitute(shifted)
        images.append((xm * (a - f.substitute(dropped_first))
                       - x1 * (a - f.substitute(leading))).terms)
    return _kernel(basis, _rows_from_images(images))


def second_order_divergence(f):
    """sum_i d/dx_i of d/dx_n (x_n f); zero iff that inner derivative is
    translation invariant along the diagonal."""
    if not isinstance(f, MultiPoly):
        raise TypeError("expected MultiPoly")
    n = f.nvars
    return (MultiPoly.variable(n, n) * f).partial(n).diagonal_derivative()
