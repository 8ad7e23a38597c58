"""Helpers shared by the test modules: constructions and enumerations that
only the tests need, built on the package's public API."""

import itertools

from soclelab.errors import InputError
from soclelab.exactla import Mat, Subspace, enum_coeff_points, mat_of_rows, rref_rows, vec_combo
from soclelab.strongness import BilinearSystem, BlockSpec
from soclelab.tensorcover import TensorSubspace


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enum_points(s: Subspace):
    """Projective-point representatives of a subspace, in its ambient space."""
    if s.dim == 0:
        raise InputError("zero subspace has no projective points")
    field = s.field
    basis = list(s.basis_rows)
    for coeffs in enum_coeff_points(field, s.dim):
        yield vec_combo(field, basis, coeffs)


def rref_gauss_jordan(rows, ncols: int, field) -> tuple[list[list[int]], list[int]]:
    """RREF by Gauss-Jordan elimination through the field tables: each pivot
    column is cleared in every other row at once.  The oracle for the column
    sweep with back-substitution and for the packed F_2 path."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    sub, mul = field.tables.sub, field.tables.mul
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        head = rows[r][c]
        if head != 1:
            mf = mul[field.inv(head)]
            rows[r] = [mf[x] for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                mf = mul[rows[i][c]]
                rows[i] = [sub[x][mf[y]] for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[: len(pivots)], pivots


def inverse(g: Mat) -> Mat | None:
    """g^-1, or None when g is singular: [g | I] always has rank n, and g is
    invertible exactly when the pivots of its RREF are the first n columns,
    which leaves g^-1 as the right half."""
    n = g.rows
    rows = [g.row(i) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    reduced, pivots = rref_rows(rows, 2 * n, g.field)
    if pivots != list(range(n)):
        return None
    return mat_of_rows(g.field, n, [row[n:] for row in reduced])


def general_linear(field, n: int):
    """Every pair (g, g^-1) with g in GL_n(F_q), g in entry order."""
    for entries in itertools.product(field.elements(), repeat=n * n):
        g = Mat(field, n, n, entries)
        g_inv = inverse(g)
        if g_inv is not None:
            yield g, g_inv


def random_invertible(field, n: int, rng) -> tuple[Mat, Mat]:
    """A uniformly random (g, g^-1) with g in GL_n(F_q), by rejection."""
    while True:
        g = Mat(field, n, n, tuple(rng.randrange(field.q) for _ in range(n * n)))
        g_inv = inverse(g)
        if g_inv is not None:
            return g, g_inv


def to_bilinear(a: TensorSubspace) -> BilinearSystem:
    """Reinterpret A as a system of linear maps F_q^m -> F_q^n over trivial
    block structure (S = T = F_q acting by scalars).

    Each basis matrix t becomes the map b |-> t^T b, so that a rank-one
    element b (x) c acts with kernel the hyperplane orthogonal to b and image
    spanned by c.  Under this dualization row coverage of A becomes the
    maximal-submodule annihilation condition of the system and column
    coverage becomes the simple-image condition (a tested invariant).
    """
    maps = tuple(mat.transpose() for mat in a.basis)
    return BilinearSystem(
        field=a.field,
        s_blocks=(BlockSpec(1, a.m),),
        t_blocks=(BlockSpec(1, a.n),),
        a_basis=maps,
    )
