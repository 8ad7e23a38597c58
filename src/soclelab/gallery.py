"""Certified constructors for the package's worked examples.

Every constructor ships with the analysis values it is expected to have;
tests re-derive those values through the verification operations rather
than comparing stored numbers against stored numbers.  Certificates are
verified at construction (the Algebra constructor re-checks every claim),
and constructors additionally assert the structural facts they promise,
raising TheoremViolation when a promise fails.
"""

from __future__ import annotations

import inspect
from typing import Callable

from .algebra import Algebra, algebra_make, socle_is_central
from .budget import DEFAULT_BUDGET, Budget
from .errors import InputError, OutOfScopeError, TheoremViolation
from .exactla import Mat, Subspace, enum_coeff_points, mat_of_columns, mat_of_rows
from .gf import Field, field_make, field_of_order
from .modrep import ModuleRep, quotient_action
from .strongness import BilinearSystem, BlockSpec
from .tensorcover import TensorSubspace, check_bound, rank_one


# ---------------------------------------------------------------------------
# tensor subspace families
# ---------------------------------------------------------------------------

def make_cross(m: int, n: int, field: Field, b=None, c=None) -> TensorSubspace:
    """Matrices supported on one row-direction plus one column-direction:
    the span of b (x) C and B (x) c.  Dimension is exactly m + n - 1 and
    both coverage conditions hold."""
    if m < 1 or n < 1:
        raise InputError("cross space needs m, n >= 1")
    b = tuple(b) if b is not None else tuple(1 if i == 0 else 0 for i in range(m))
    c = tuple(c) if c is not None else tuple(1 if j == 0 else 0 for j in range(n))
    if len(b) != m or len(c) != n or not any(b) or not any(c):
        raise InputError("cross directions must be nonzero vectors of the right lengths")
    vectors = [rank_one(field, b, tuple(1 if t == j else 0 for t in range(n))).flatten() for j in range(n)]
    vectors += [rank_one(field, tuple(1 if t == i else 0 for t in range(m)), c).flatten() for i in range(m)]
    flat = Subspace.from_vectors(field, m * n, vectors)
    ts = TensorSubspace.from_flat(field, m, n, flat)
    if ts.dim != m + n - 1:
        raise TheoremViolation(f"cross space has dimension {ts.dim}, expected {m + n - 1}")
    if not check_bound(ts).both_hold:
        raise TheoremViolation("cross space fails a coverage condition")
    return ts


def make_corner_family(m: int, n: int, t: int, field: Field) -> TensorSubspace:
    """Matrices supported on the first t rows and t columns whose first t
    diagonal entries agree.  Dimension is t(m + n - t) - (t - 1); both
    coverage conditions are verified at construction."""
    if not (1 <= t <= min(m, n)):
        raise InputError(f"corner parameter must satisfy 1 <= t <= min({m}, {n})")
    diag_entries = {}
    for i in range(t):
        diag_entries[(i, i)] = 1
    diag = Mat._of(field, m, n, tuple(diag_entries.get((i, j), 0) for i in range(m) for j in range(n)))
    basis = [diag]
    for i in range(m):
        for j in range(n):
            if i == j and i < t:
                continue
            if i < t or j < t:
                basis.append(Mat.unit(field, m, n, i, j))
    ts = TensorSubspace(field, m, n, tuple(basis))
    expected = t * (m + n - t) - (t - 1)
    if ts.dim != expected:
        raise TheoremViolation(f"corner family has dimension {ts.dim}, expected {expected}")
    if not check_bound(ts).both_hold:
        raise TheoremViolation("corner family fails a coverage condition")
    return ts


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def make_matrix_algebra(n: int, field: Field) -> Algebra:
    """Full n x n matrix algebra, semisimple with one block."""
    units = [Mat.unit(field, n, n, i, j) for i in range(n) for j in range(n)]
    unit_coords = [tuple(1 if k == i * n + j else 0 for k in range(n * n)) for i in range(n) for j in range(n)]
    cert = {"radical_basis": [], "split": True, "blocks": [{"n": n, "matrix_units": unit_coords}]}
    return algebra_make(field, matrix_basis=units, certificate=cert)


def make_triangular(n: int, field: Field, scalar_diagonal: bool = False) -> Algebra:
    """Upper triangular n x n matrices, optionally with scalar diagonal.

    The radical is the strict upper triangle; the quotient splits into n
    one-dimensional blocks (one block when the diagonal is scalar)."""
    if n < 1:
        raise InputError("need n >= 1")
    basis = []
    if scalar_diagonal:
        basis.append(Mat.identity(field, n))
        diag_count = 1
    else:
        basis.extend(Mat.unit(field, n, n, i, i) for i in range(n))
        diag_count = n
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis.extend(Mat.unit(field, n, n, i, j) for i, j in uppers)
    dim = diag_count + len(uppers)
    radical = [tuple(1 if k == diag_count + idx else 0 for k in range(dim)) for idx in range(len(uppers))]
    blocks = [
        {"n": 1, "matrix_units": [tuple(1 if k == b else 0 for k in range(dim))]}
        for b in range(diag_count)
    ]
    cert = {"radical_basis": radical, "split": True, "blocks": blocks}
    return algebra_make(field, matrix_basis=basis, certificate=cert)


def make_square_zero_extension(field: Field, g: int) -> Algebra:
    """Local algebra k + V with V*V = 0 and dim V = g (the truncated
    polynomial ring in g variables modulo all quadratic monomials)."""
    if g < 1:
        raise InputError("need at least one square-zero generator")
    dim = g + 1
    zero = (0,) * dim

    def e(i):
        return tuple(1 if k == i else 0 for k in range(dim))

    mult = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i == 0:
                row.append(e(j))
            elif j == 0:
                row.append(e(i))
            else:
                row.append(zero)
        mult.append(tuple(row))
    cert = {
        "radical_basis": [e(i) for i in range(1, dim)],
        "split": True,
        "blocks": [{"n": 1, "matrix_units": [e(0)]}],
    }
    return algebra_make(field, dim=dim, mult=tuple(mult), one=e(0), certificate=cert)


def make_twisted_truncated(p: int, d: int, n: int) -> Algebra:
    """Truncated twisted polynomial ring over the degree-d extension of F_p,
    with the extension's Frobenius as the twist, truncated at x^(n+1).

    An F_p-algebra of dimension d(n+1).  The socle is the top power's line
    over the extension field; its centrality is computed and asserted to be
    equivalent to d dividing n."""
    if n < 1:
        raise InputError("need n >= 1")
    big = field_make(p, d)
    base = field_make(p)
    dim = d * (n + 1)

    def frob_power(a: int, times: int) -> int:
        for _ in range(times % d if d > 1 else 0):
            a = big.frobenius(a)
        return a

    def idx(j: int, t: int) -> int:
        return j * d + t

    zero = (0,) * dim
    alpha = [big.from_coeffs(tuple(1 if s == t else 0 for s in range(d))) for t in range(d)]
    mult = []
    for j in range(n + 1):
        for s in range(d):
            row = []
            for l in range(n + 1):
                for t in range(d):
                    if j + l > n:
                        row.append(zero)
                        continue
                    # (x^j a_s)(x^l a_t) = x^(j+l) theta^{-l}(a_s) a_t
                    coeff = big.mul(frob_power(alpha[s], (d - (l % d)) % d if d > 1 else 0), alpha[t])
                    coeffs = big.coeffs(coeff)
                    out = [0] * dim
                    for tt, c in enumerate(coeffs):
                        out[idx(j + l, tt)] = c
                    row.append(tuple(out))
            mult.append(tuple(row))
    one = tuple(1 if k == 0 else 0 for k in range(dim))
    radical = [tuple(1 if k == idx(j, t) else 0 for k in range(dim)) for j in range(1, n + 1) for t in range(d)]
    if d == 1:
        cert = {"radical_basis": radical, "split": True,
                "blocks": [{"n": 1, "matrix_units": [one]}]}
    else:
        cert = {"radical_basis": radical, "split": False, "local": True}
    alg = algebra_make(base, dim=dim, mult=mult, one=one, certificate=cert)
    central = socle_is_central(alg)  # certified: the radical is read, not scanned
    if central != (n % d == 0):
        raise TheoremViolation(
            f"twisted truncated ring p={p}, d={d}, n={n}: socle centrality {central} "
            f"disagrees with divisibility {(n % d == 0)}"
        )
    return alg


# ---------------------------------------------------------------------------
# the counterexample system and module
# ---------------------------------------------------------------------------

def make_line_cover_system(field: Field, d: int, budget: Budget = DEFAULT_BUDGET) -> BilinearSystem:
    """One S-block per line of k^d, each acting by a rank-one map onto its
    line: the small-field system whose length inequality fails.

    Component i maps the i-th coordinate of B onto the i-th projective
    point of C = k^d, in the package's deterministic point order."""
    if d < 2:
        raise InputError("need d >= 2")
    q = field.q
    count = (q**d - 1) // (q - 1)
    budget.guard("line-cover components", count)
    points = list(enum_coeff_points(field, d))
    a_mats = []
    for i, pt in enumerate(points):
        entries = [[0] * count for _ in range(d)]
        for r in range(d):
            entries[r][i] = pt[r]
        a_mats.append(mat_of_rows(field, count, entries))
    sys = BilinearSystem(field, tuple(BlockSpec(1, 1) for _ in range(count)), (BlockSpec(1, d),), tuple(a_mats))
    return sys


def make_row_diagonal_pair() -> tuple[Algebra, ModuleRep]:
    """The 6-dimensional ring of 4 x 4 matrices over F_2 supported on the
    first row and the diagonal, with equal (1,1) and (2,2) entries, together
    with its 5-dimensional faithful minimal module.

    The module is the span of six matrix units in the 4 x 3 matrices modulo
    the line through the sum of the first-row units."""
    F = field_make(2)

    def unit4(i, j):
        return Mat.unit(F, 4, 4, i, j)

    basis = [unit4(0, 0).add(unit4(1, 1)), unit4(2, 2), unit4(3, 3), unit4(0, 1), unit4(0, 2), unit4(0, 3)]

    def e6(i):
        return tuple(1 if k == i else 0 for k in range(6))

    cert = {
        "radical_basis": [e6(3), e6(4), e6(5)],
        "split": True,
        "blocks": [{"n": 1, "matrix_units": [e6(0)]},
                   {"n": 1, "matrix_units": [e6(1)]},
                   {"n": 1, "matrix_units": [e6(2)]}],
    }
    alg = algebra_make(F, matrix_basis=basis, certificate=cert)

    # span of {e11, e12, e13, e21, e32, e43} inside the 4 x 3 matrices
    span_units = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 2)]

    def act_on_span(ring_mat: Mat) -> Mat:
        cols = []
        for (i, j) in span_units:
            cell = Mat.unit(F, 4, 3, i, j)
            product = ring_mat.mul(cell)
            coords = [0] * 6
            for idx, (a, b) in enumerate(span_units):
                coords[idx] = product[a, b]
            # the product must stay inside the span
            check = Mat.zero(F, 4, 3)
            for idx, (a, b) in enumerate(span_units):
                if coords[idx]:
                    check = check.add(Mat.unit(F, 4, 3, a, b).scale(coords[idx]))
            if check != product:
                raise TheoremViolation("module span is not invariant under the ring")
            cols.append(coords)
        return mat_of_columns(F, 6, cols)

    action6 = tuple(act_on_span(mat) for mat in basis)
    m6 = ModuleRep(alg, 6, action6)
    z = Subspace.from_vectors(F, 6, [(1, 1, 1, 0, 0, 0)])
    module = quotient_action(m6, z).rep
    return alg, module


def make_number_field_example():
    """Stub for the characteristic-zero number-field example: out of scope."""
    raise OutOfScopeError(
        "the characteristic-zero number-field example needs a cube root of 2, "
        "a primitive cube root of unity, a field trace, and an order-3 "
        "automorphism; it has no finite-field analog in this toolkit"
    )


# ---------------------------------------------------------------------------
# registries: expected analysis values and the full algebra grid
# ---------------------------------------------------------------------------

ROW_DIAGONAL_EXPECTED = {
    "ring_dim": 6,
    "radical_dim": 3,
    "socle_dim": 3,
    "socle_bimodule_length": 3,
    "left_vertices": 1,
    "right_vertices": 3,
    "edges": 3,
    "chi": 1,
    "module_dim": 5,
    "top_length": 3,
    "socle_length": 2,
    "jm_dim": 2,
    "lhs": 5,
    "rhs": 4,
    "holds": False,
}

LINE_COVER_EXPECTED = {
    # (q, d) -> (lhs, rhs)
    (2, 2): (5, 4),
    (3, 2): (6, 5),
    (2, 3): (10, 8),
}


def criterion8_algebras() -> list[tuple[str, Algebra]]:
    """The five small local algebras with central socle whose modules the
    exhaustive local-bound battery scans, by name."""
    f2 = field_make(2)
    return [
        ("kx2-q2", make_twisted_truncated(2, 1, 1)),
        ("kx2-q3", make_twisted_truncated(3, 1, 1)),
        ("kxy2-q2", make_square_zero_extension(f2, 2)),
        ("scalar-tri2-q2", make_triangular(2, f2, True)),
        ("scalar-tri3-q2", make_triangular(3, f2, True)),
    ]


def iter_gallery_algebras(max_ring: int | None = None):
    """The regression grid: every named algebra the gallery ships.

    With max_ring set, algebras whose full element count exceeds it are
    skipped.  The radical-oracle agreement battery does not set it: a ring
    over the run's cap stops that battery at the oracle's own guard."""
    items = []
    for q in (2, 3):
        field = field_make(q)
        for n in range(1, 5):
            for scalar in (False, True):
                items.append((f"triangular-{n}x{n}-q{q}{'-scalar' if scalar else ''}",
                              make_triangular(n, field, scalar)))
        items.append((f"square-zero-extension-q{q}-g2", make_square_zero_extension(field, 2)))
        for n in (1, 2):
            items.append((f"matrix-algebra-{n}x{n}-q{q}", make_matrix_algebra(n, field)))
    for p in (2, 3):
        for d in (1, 2):
            for n in range(1, 5):
                items.append((f"twisted-truncated-p{p}-d{d}-n{n}", make_twisted_truncated(p, d, n)))
    items.append(("row-diagonal-ring", make_row_diagonal_pair()[0]))
    for name, alg in items:
        if max_ring is not None and alg.field.q ** alg.dim > max_ring:
            continue
        yield name, alg


# ---------------------------------------------------------------------------
# the `gallery make` registry
# ---------------------------------------------------------------------------

def gallery_params(build: Callable) -> dict:
    """A gallery item's parameters and their defaults, in order: the
    positional parameters of its build callable.  A keyword-only `budget`
    is not one; `gallery_make` passes it the run's budget."""
    return {p.name: p.default for p in inspect.signature(build).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD}


def gallery_make(build: Callable, params: dict, budget: Budget) -> dict:
    """The JSON object build returns for params."""
    if "budget" in inspect.signature(build).parameters:
        params = {**params, "budget": budget}
    return build(**params)


def _row_diagonal_json() -> dict:
    ring, module = make_row_diagonal_pair()
    return {"algebra": ring.to_json(), "module": module.to_json(inline_algebra=True)}


# name -> (description, build); build returns the item's JSON object
GALLERY = {
    "cross": ("row + column support space; dim m+n-1, both coverage conditions",
              lambda m=2, n=2, q=2: make_cross(m, n, field_of_order(q)).to_json()),
    "corner": ("first t rows and columns with equal leading diagonal",
               lambda m=3, n=3, t=2, q=2: make_corner_family(m, n, t, field_of_order(q)).to_json()),
    "triangular": ("upper triangular n x n matrices, optionally scalar diagonal",
                   lambda n=3, q=2, scalar=False: make_triangular(n, field_of_order(q), scalar).to_json()),
    "matrix-algebra": ("full n x n matrix algebra",
                       lambda n=2, q=2: make_matrix_algebra(n, field_of_order(q)).to_json()),
    "square-zero-extension": ("local algebra k + V with V V = 0, dim V = g",
                              lambda q=2, g=2: make_square_zero_extension(field_of_order(q), g).to_json()),
    "twisted-truncated": ("truncated twisted polynomial ring over F_{p^d}",
                          lambda p=2, d=2, n=2: make_twisted_truncated(p, d, n).to_json()),
    "line-cover-system": ("one block per line of k^d acting onto that line; fails the length inequality",
                          lambda q=2, d=2, *, budget: make_line_cover_system(field_of_order(q), d, budget).to_json()),
    "row-diagonal-module": ("the 6-dim F_2 ring (first row + diagonal) with its 5-dim faithful minimal module",
                            _row_diagonal_json),
    "number-field-example": ("characteristic-zero example: documented out-of-scope stub",
                             make_number_field_example),
}
