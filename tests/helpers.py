"""Helpers shared by the test modules: constructions and enumerations that
only the tests need, built on the package's public API."""

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from soclelab.algebra import _encode_coords, _quasi_regular_flags, _unit_flags, algebra_make, socles
from soclelab.budget import DEFAULT_BUDGET
from soclelab.cli import VERDICT_EXIT
from soclelab.errors import PreconditionError, TheoremViolation
from soclelab.exactla import (
    Mat,
    RowBasis,
    Subspace,
    enum_coeff_points,
    enum_hyperplanes,
    kernel,
    mat_of_columns,
    mat_of_rows,
    mat_vec,
    num_projective_points,
    row_rank,
    rref_rows,
    vec_combo,
)
from soclelab.modrep import ModuleRep, block_decomposition, quotient_action, radical_image, restrict_action, socle_subspace
from soclelab.strongness import BilinearSystem, BlockSpec, StrongReport, _side_block
from soclelab.tensorcover import CoverageSide, TensorSubspace, _both_conditions_generic, _groups, rank_one


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) by the dimension formula, from the span of both bases."""
    return a.dim + b.dim - Subspace.from_vectors(a.field, a.ambient_dim, a.basis_rows + b.basis_rows).dim


def enum_points(s: Subspace):
    """Projective-point representatives of a subspace, in its ambient space
    (none for the zero subspace)."""
    field = s.field
    basis = list(s.basis_rows)
    for coeffs in enum_coeff_points(field, s.dim):
        yield vec_combo(field, basis, coeffs)


def enum_subspaces_by_free_entries(field, n: int, dim: int):
    """All dim-dimensional subspaces of F_q^n, each RREF built afresh from one
    product of all its free entries: pivot columns in `combinations` order,
    then the free entries in `product` order.  The oracle for
    `enum_subspaces`, which picks each subspace's rows from per-row tables."""
    for pivots in itertools.combinations(range(n), dim):
        pivot_set = set(pivots)
        free_positions = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in itertools.product(field.elements(), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_positions, values):
                rows[i][j] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows), pivots)


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


def matrix_combination(mats, coords) -> Mat:
    """sum_i c_i mats[i] by scaling and adding: the oracle for `mat_vec`."""
    out = Mat.zero(mats[0].field, mats[0].rows, mats[0].cols)
    for c, m in zip(coords, mats):
        out = out.add(m.scale(c))
    return out


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


# -- per-point coverage: the oracle for tensorcover's residual table --

def coverage_residuals(flat: Subspace, b, n: int) -> list:
    """The residuals modulo the flat space of b (x) e_j, j = 0 .. n - 1, each
    reduced from scratch as a vector of length m * n."""
    residuals = []
    for j in range(n):
        v = [0] * (len(b) * n)
        for i, bi in enumerate(b):
            if bi:
                v[i * n + j] = bi
        residuals.append(flat.reduce(v))
    return residuals


def coverage_partner_space(flat: Subspace, b, n: int) -> Subspace:
    """{c : b (x) c lies in the flat space}, given a row factor b: the c that
    combine the residual columns to zero."""
    return kernel(mat_of_columns(flat.field, len(b) * n, coverage_residuals(flat, b, n)))


def coverage_transpose_flat(flat: Subspace, m: int, n: int) -> Subspace:
    """The same space of m x n matrices, transposed to n x m, in RREF."""
    perm = [i * n + j for j in range(n) for i in range(m)]
    return Subspace.from_vectors(flat.field, m * n, [tuple(row[k] for k in perm) for row in flat.basis_rows])


def coverage_sides(flat: Subspace, m: int, n: int) -> tuple[list, list]:
    """Per-point partner spaces, built point by point: [(b, {c : b (x) c in A})]
    over the row points, and [(c, {b : b (x) c in A})] over the column
    points, the latter as row partners of the transposed space."""
    field = flat.field
    flat_t = coverage_transpose_flat(flat, m, n)
    rows = [(b, coverage_partner_space(flat, b, n)) for b in enum_coeff_points(field, m)]
    cols = [(c, coverage_partner_space(flat_t, c, m)) for c in enum_coeff_points(field, n)]
    return rows, cols


def coverage_partners(flat: Subspace, res: list, m: int, n: int, rows: bool, kernels: dict):
    """(point, partner space) for each projective point of one side, one
    `vec_combo` per group of the residual table; the partner of a row point b
    is {c : b (x) c in A}, and dually.  `kernels` maps each residual matrix
    met so far (its tuple of columns, over flat's field) to its kernel."""
    field, width = flat.field, m * n - flat.dim
    groups, k = _groups(res, m, n, rows)
    for p in enum_coeff_points(field, k):
        key = tuple([vec_combo(field, g, p) for g in groups])
        if key not in kernels:
            kernels[key] = kernel(mat_of_columns(field, width, key))
        yield p, kernels[key]


def coverage_by_partner_kernels(flat: Subspace, m: int, n: int, rows: bool, res: list, kernels: dict) -> CoverageSide:
    """One witnessed coverage condition from `coverage_partners`' whole kernels:
    the oracle for tensorcover's `_coverage`, which keeps one partner row per
    residual matrix and one rank-one vector per witness in its table."""
    witnesses = []
    for p, partner in coverage_partners(flat, res, m, n, rows, kernels):
        if partner.dim == 0:
            return CoverageSide(False, witnesses, p)
        b, c = (p, partner.basis_rows[0]) if rows else (partner.basis_rows[0], p)
        if not flat.contains_vector(rank_one(flat.field, b, c).flatten()):
            raise TheoremViolation("coverage witness failed membership re-check")
        witnesses.append((b, c))
    return CoverageSide(True, witnesses, None)


def minimal_by_hyperplane_kernels(a: TensorSubspace) -> tuple[bool, TensorSubspace | None]:
    """Hyperplane minimality built one hyperplane at a time in A's own basis:
    for each projective point phi of the coefficient space, the kernel of phi
    combined with A's basis matrices.  The oracle for `check_minimal`, which
    takes the closed-form hyperplanes of A's RREF instead.  It tests each
    candidate by the generic coverage path, so it shares no code with F_2's
    packed words.  A must satisfy both coverage conditions."""
    field, d = a.field, a.dim
    basis = list(a.basis)
    for phi in enum_coeff_points(field, d):
        coeff_kernel = kernel(mat_of_rows(field, d, [phi]))
        candidate = TensorSubspace(field, a.m, a.n, tuple(mat_vec(basis, c) for c in coeff_kernel.basis_rows))
        if _both_conditions_generic(candidate.flat(), a.m, a.n):
            return False, candidate
    return True, None


# -- the full-size coverage solves: the oracle for the corner tests of strongness --

def _slot_vector(dim: int, off: int, n: int, copy_vec, row: int) -> tuple[int, ...]:
    """The vector with multiplicity pattern copy_vec at row coordinate `row`
    of the block at offset off (slot off + copy*n + row)."""
    out = [0] * dim
    for j, c in enumerate(copy_vec):
        out[off + j * n + row] = c
    return tuple(out)


def maximal_b_submodules(sys: BilinearSystem):
    """Yield (e, hyperplane basis rows, spanning vectors in B) for every
    maximal submodule H (x) k^{n_e} (+) (the other S-blocks) of B, in
    `enum_hyperplanes` order."""
    for e, block in enumerate(sys.s_blocks):
        if block.mult == 0:
            continue
        others = [
            tuple(int(i == sys._b_offsets[e2] + t) for i in range(sys.dim_b))
            for e2, block2 in enumerate(sys.s_blocks) if e2 != e
            for t in range(block2.module_dim())
        ]
        for hyper in enum_hyperplanes(Subspace.full(sys.field, block.mult)):
            vectors = others + [
                _slot_vector(sys.dim_b, sys._b_offsets[e], block.n, h, i) for h in hyper.basis_rows for i in range(block.n)
            ]
            yield e, hyper.basis_rows, vectors


def simple_c_submodules(sys: BilinearSystem):
    """Yield (f, point mu, spanning vectors in C) for every simple submodule
    span(mu) (x) k^{n_f} of C, in `enum_coeff_points` order."""
    for f, block in enumerate(sys.t_blocks):
        if block.mult == 0:
            continue
        for mu in enum_coeff_points(sys.field, block.mult):
            yield f, mu, [_slot_vector(sys.dim_c, sys._c_offsets[f], block.n, mu, i) for i in range(block.n)]


def span_basis(sys: BilinearSystem, maps) -> list[Mat]:
    """A basis of span(maps), as full-size maps B -> C.  The solves below
    run over it, so a nonzero coefficient vector is a nonzero element."""
    span = Subspace.from_vectors(sys.field, sys.dim_b * sys.dim_c, [m.flatten() for m in maps])
    return [Mat(sys.field, sys.dim_c, sys.dim_b, row) for row in span.basis_rows]


def _nonzero_solution(field, basis, rows) -> tuple | None:
    """A nonzero coefficient vector over basis solving the given rows, or None."""
    if not basis:
        return None
    combos = kernel(mat_of_rows(field, len(basis), rows))
    return combos.basis_rows[0] if combos.dim else None


def annihilating_combo(sys: BilinearSystem, basis: list[Mat], vectors) -> tuple | None:
    """Coefficients over the independent maps `basis` of a nonzero element
    killing every given B-vector, or None."""
    rows = []
    for v in vectors:
        images = [a.apply(v) for a in basis]
        rows.extend([image[coord] for image in images] for coord in range(sys.dim_c))
    return _nonzero_solution(sys.field, basis, rows)


def image_in_submodule_combo(sys: BilinearSystem, basis: list[Mat], target_vectors) -> tuple | None:
    """Coefficients over the independent maps `basis` of a nonzero element
    whose image lies in span(target_vectors), or None."""
    target = Subspace.from_vectors(sys.field, sys.dim_c, target_vectors)
    rows = []
    for col in range(sys.dim_b):
        residuals = [target.reduce(a.col(col)) for a in basis]
        rows.extend([residual[coord] for residual in residuals] for coord in range(sys.dim_c))
    return _nonzero_solution(sys.field, basis, rows)


def coverage_by_full_size_solves(sys: BilinearSystem) -> tuple:
    """(cond_b, cond_c, first failing (e, H), first failing (f, mu)) of the
    system, each member decided by a full-size solve over a basis of span(A)."""
    basis = span_basis(sys, sys.a_basis)
    b_fail = next(((e, hyper) for e, hyper, vectors in maximal_b_submodules(sys)
                   if annihilating_combo(sys, basis, vectors) is None), None)
    c_fail = next(((f, mu) for f, mu, vectors in simple_c_submodules(sys)
                   if image_in_submodule_combo(sys, basis, vectors) is None), None)
    return b_fail is None, c_fail is None, b_fail, c_fail


def submodule_closure(m: ModuleRep, vectors) -> Subspace:
    """Smallest action-invariant subspace containing the given vectors,
    closed under the actions of the algebra's generators."""
    gens = [m.action[g] for g in m.algebra.generators()]
    basis = RowBasis(m.field, m.dim)
    frontier = []
    for v in vectors:
        if basis.add(v):
            frontier.append(tuple(v))
    while frontier:
        nxt = []
        for v in frontier:
            for mat in gens:
                w = mat.apply(v)
                if basis.add(w):
                    nxt.append(w)
        frontier = nxt
    return Subspace.from_vectors(m.field, m.dim, basis.snapshot())


# -- module minimality by soc(R)'s images and residuals: the oracle for the
# `_kills` rank test on soc(R)'s maps and on their transposes --

def images_on(mats, w: Subspace) -> list:
    """Per matrix, the images of w's basis under it, concatenated."""
    return [tuple(itertools.chain.from_iterable(mat.apply(v) for v in w.basis_rows)) for mat in mats]


def residuals_mod(mats, k_sub: Subspace) -> list:
    """Per matrix, its columns reduced modulo k_sub, concatenated."""
    return [
        tuple(itertools.chain.from_iterable(k_sub.reduce(mat.col(k)) for k in range(mat.cols)))
        for mat in mats
    ]


def soc_annihilator_dim(field, soc_images: list, width: int) -> int:
    """dim(soc(R) ∩ annihilator), given what each basis element of soc(R)
    does (its action on a subspace, or its residuals modulo one), as vectors
    of length width: the basis is independent, so the intersection has the
    basis size less the rank of those vectors."""
    return len(soc_images) - row_rank(soc_images, width, field)


# -- lengths by idempotent ranks and corner spans: the oracles for the block
# multiplicities of `semisimple_length` and the one corner pass of the socle graph --

def semisimple_lengths(rep, budget=DEFAULT_BUDGET) -> dict[int, int]:
    """Per-block lengths of a module killed by the radical, each the rank
    of the block idempotent's action divided by the block's matrix size."""
    alg = rep.algebra
    blocks = alg.blocks()
    for j in alg.radical(budget).basis_rows:
        if any(rep.act_mat(j).entries):
            raise PreconditionError("module is not killed by the radical")
    lengths = {}
    for f, block in enumerate(blocks):
        rank = rep.act_mat(alg.certificate.idempotent(alg.field, f)).rank()
        if rank % block.n:
            raise TheoremViolation("block rank not divisible by block size: certificate corrupt")
        lengths[f] = rank // block.n
    if sum(lengths[f] * block.n for f, block in enumerate(blocks)) != rep.dim:
        raise TheoremViolation("block projections do not decompose the module")
    return lengths


def top_socle_lengths(m, budget=DEFAULT_BUDGET) -> tuple[int, int]:
    """(length of M/JM, length of soc(M)), each through a module built for it:
    the quotient module M/JM and the restricted module soc(M)."""
    top = quotient_action(m, radical_image(m, budget)).rep
    soc = restrict_action(m, socle_subspace(m, budget))
    return sum(semisimple_lengths(top, budget).values()), sum(semisimple_lengths(soc, budget).values())


def _corner_space(r, f, ideal, e) -> Subspace:
    vectors = [r.mul_coords(r.mul_coords(f, v), e) for v in ideal.basis_rows]
    return Subspace.from_vectors(r.field, r.dim, vectors)


def _check_killed_by_radical(r, ideal, budget):
    zero = (0,) * r.dim
    for v in ideal.basis_rows:
        for j in r.radical(budget).basis_rows:
            if r.mul_coords(j, v) != zero or r.mul_coords(v, j) != zero:
                raise PreconditionError("ideal is not killed by the radical on both sides")


def bimodule_length_by_corner_spans(r, ideal, budget=DEFAULT_BUDGET) -> int:
    """Sum over all block pairs of dim(f X e) / (n_f n_e), one corner span each."""
    blocks = r.blocks()
    _check_killed_by_radical(r, ideal, budget)
    idem = [r.certificate.idempotent(r.field, i) for i in range(len(blocks))]
    total = 0
    for fi, bf in enumerate(blocks):
        for ei, be in enumerate(blocks):
            corner = _corner_space(r, idem[fi], ideal, idem[ei])
            if corner.dim % (bf.n * be.n):
                raise TheoremViolation("corner dimension not divisible by block sizes")
            total += corner.dim // (bf.n * be.n)
    return total


def socle_graph_by_vertex_spans(r, budget=DEFAULT_BUDGET) -> tuple:
    """(left vertices, right vertices, edges, edge lengths, chi) of the socle
    graph: a left vertex f has f soc(R) != 0 and a right vertex e has
    soc(R) e != 0, each found by its own span, and the edges are the nonzero
    corners between them."""
    blocks = r.blocks()
    soc = socles(r, budget).twosided
    _check_killed_by_radical(r, soc, budget)
    idem = [r.certificate.idempotent(r.field, i) for i in range(len(blocks))]

    def nonzero(vectors) -> bool:
        return Subspace.from_vectors(r.field, r.dim, vectors).dim > 0

    left = tuple(i for i, f in enumerate(idem) if nonzero([r.mul_coords(f, v) for v in soc.basis_rows]))
    right = tuple(i for i, f in enumerate(idem) if nonzero([r.mul_coords(v, f) for v in soc.basis_rows]))
    edges, lengths = [], []
    for fi in left:
        for ei in right:
            corner = _corner_space(r, idem[fi], soc, idem[ei])
            if corner.dim:
                n_pair = blocks[fi].n * blocks[ei].n
                if corner.dim % n_pair:
                    raise TheoremViolation("corner dimension not divisible by block sizes")
                edges.append((fi, ei))
                lengths.append(corner.dim // n_pair)
    return left, right, tuple(edges), tuple(lengths), len(left) + len(right) - len(edges)


# -- the induced system through built modules: the oracle for `system_from_module`,
# which reads the kept top and soc(M) in M's own coordinates --

def solve(m: Mat, target) -> tuple | None:
    """One solution x of m x = target by eliminating the augmented matrix,
    or None when inconsistent."""
    aug_rows = [list(m.row(i)) + [target[i]] for i in range(m.rows)]
    reduced, pivots = rref_rows(aug_rows, m.cols + 1, m.field)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for row, p in zip(reduced, pivots):
        x[p] = row[m.cols]
    return tuple(x)


def system_from_module_by_restriction(m, budget=DEFAULT_BUDGET) -> BilinearSystem:
    """The induced system with adapted bases taken in two modules built for
    it: the quotient module M/JM and soc(M) restricted to its own canonical
    basis, whose coordinates the socle images are mapped into."""
    soc_r = socles(m.algebra, budget).twosided
    qd = quotient_action(m, radical_image(m, budget))
    soc_m = socle_subspace(m, budget)
    soc_rep = restrict_action(m, soc_m)

    def adapted(rep):
        specs, columns = [], []
        for part in block_decomposition(rep):
            specs.append(BlockSpec(part.n, part.mult.dim))
            for u in part.mult.basis_rows:
                columns.extend(part.summand(u))
        assert len(columns) == rep.dim == Subspace.from_vectors(rep.field, rep.dim, columns).dim
        return tuple(specs), columns

    s_blocks, b_columns = adapted(qd.rep)
    t_blocks, c_columns = adapted(soc_rep)
    c_basis_mat = mat_of_columns(m.field, soc_rep.dim, c_columns)
    a_mats = []
    for a in soc_r.basis_rows:
        act = m.act_mat(a)
        cols = [solve(c_basis_mat, soc_m.coordinates_of(act.apply(qd.lift(b)))) for b in b_columns]
        assert None not in cols
        a_mats.append(mat_of_columns(m.field, len(c_columns), cols))
    return BilinearSystem(m.field, s_blocks, t_blocks, tuple(a_mats))


# -- the residue ring through its structure constants: the oracle for
# `Algebra._residue_is_division`, which reads left multiplications mod J --

def residue_is_division_by_quotient(alg, J) -> bool:
    """Whether alg/J is a division ring, from the quotient's own structure
    constants: each nonzero residue's left multiplication matrix is
    assembled entry by entry and rank-tested."""
    pivots = set(J.pivots)
    free = [k for k in range(alg.dim) if k not in pivots]
    dim_res = len(free)
    if dim_res == 0:
        return False

    def project(coords):
        red = J.reduce(coords)
        return tuple(red[k] for k in free)

    def lift(i):
        return tuple(1 if k == free[i] else 0 for k in range(alg.dim))

    field = alg.field
    mult_res = [[project(alg.mul_coords(lift(i), lift(j))) for j in range(dim_res)] for i in range(dim_res)]
    for coords in itertools.product(field.elements(), repeat=dim_res):
        if not any(coords):
            continue
        rows = [[0] * dim_res for _ in range(dim_res)]
        for j in range(dim_res):
            col = [0] * dim_res
            for i, xi in enumerate(coords):
                if xi:
                    col = [field.add(a, field.mul(xi, b)) for a, b in zip(col, mult_res[i][j])]
            for k in range(dim_res):
                rows[k][j] = col[k]
        if mat_of_rows(field, dim_res, rows).rank() != dim_res:
            return False
    return True


# -- the radical oracle's membership scan code by code: the oracle for the
# coset visit and the Rx odometer of `algebra.radical_bruteforce` --

def radical_by_code_scan(r) -> Subspace:
    """The span of the radical members `radical_bruteforce` finds, by its
    older scan: every code whose most significant nonzero digit is 1, in
    order, reduced by the verified span V to a coset representative; each
    new non-unit, quasi-regular representative x is tested by walking every
    combination of an RREF basis of Rx through itertools.product and
    vec_combo.  A representative is a coordinate tuple reduced by V and
    scaled to leading coordinate 1; a rejected one is kept, reduced again
    as V grows."""
    field = r.field
    q, d = field.q, r.dim
    unit = _unit_flags(r)
    qr = _quasi_regular_flags(r, unit)

    def ideal_inside_qr(x) -> bool:
        rows = rref_rows([vec_combo(field, r.mult[i], x) for i in range(d)], d, field)[0]
        return all(qr[_encode_coords(vec_combo(field, rows, combo), q)]
                   for combo in itertools.product(field.elements(), repeat=len(rows)))

    def reduce(x) -> tuple:
        v = jbasis.reduce(x)
        head = next((c for c in v if c), 1)
        return tuple(field.mul(field.inv(head), c) for c in v)

    jbasis = RowBasis(field, d)
    zero = (0,) * d
    rejected: set = set()
    for code in itertools.chain.from_iterable(range(q**k, 2 * q**k) for k in range(d)):
        if unit[code] or not qr[code]:
            continue
        rep = reduce([code // q**i % q for i in range(d)])
        if rep == zero or rep in rejected:
            continue
        if ideal_inside_qr(rep):
            jbasis.add(rep)
            rejected = {reduce(v) for v in rejected}
            assert zero not in rejected
        else:
            rejected.add(rep)
    return Subspace.from_vectors(field, d, jbasis.snapshot())


# -- the ideal test and the centrality test by single products: the oracles
# for `algebra._nilpotent_ideal_defect` and `algebra.socle_is_central`, which
# read every b_i v and v b_i off the columns of R_v and L_v --

def nilpotent_ideal_defect_by_products(r, J: Subspace) -> str | None:
    """The first property of a nilpotent two-sided ideal that J lacks, with
    each product b_i v, v b_i and x y formed by `mul_coords`: for each basis
    row v of J and each i in turn, b_i v in J ("left"), then v b_i in J
    ("right"); then the powers of J must fall to 0 ("nilpotent")."""
    for v in J.basis_rows:
        for i in range(r.dim):
            if not J.contains_vector(r.mul_coords(r.basis_coords(i), v)):
                return "left"
            if not J.contains_vector(r.mul_coords(v, r.basis_coords(i))):
                return "right"
    power = J
    while power.dim:
        products = [r.mul_coords(x, y) for x in power.basis_rows for y in J.basis_rows]
        nxt = Subspace.from_vectors(r.field, r.dim, products)
        if nxt.dim >= power.dim:
            return "nilpotent"
        power = nxt
    return None


def socle_is_central_by_products(r, budget=DEFAULT_BUDGET) -> bool:
    """Whether v b_i = b_i v for every basis row v of the two-sided socle and
    every basis element b_i, each product formed by `mul_coords`."""
    for v in socles(r, budget).twosided.basis_rows:
        for i in range(r.dim):
            b = r.basis_coords(i)
            if r.mul_coords(v, b) != r.mul_coords(b, v):
                return False
    return True


# -- the structure check by basis triples: the oracle for
# `Algebra._verify_structure`, which compares L_{b_i b_j} with
# L_{b_i} L_{b_j} column by column --

def structure_defect(field, dim: int, mult, one) -> str | None:
    """The message the construction-time structure check gives for these
    structure constants, or None when they pass: the identity law on each
    basis element, then associativity on each basis triple (i, j, k) in
    order, as (b_i b_j) b_k = b_i (b_j b_k) with every product expanded
    through the structure constants by the Field methods."""
    def mul(x, y):
        out = [0] * dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                c = field.mul(xi, yj)
                if c:
                    for k, ck in enumerate(mult[i][j]):
                        out[k] = field.add(out[k], field.mul(c, ck))
        return tuple(out)

    basis = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
    for i, bi in enumerate(basis):
        if mul(one, bi) != bi or mul(bi, one) != bi:
            return f"identity law fails on basis element {i}"
    for i, j, k in itertools.product(range(dim), repeat=3):
        if mul(mult[i][j], basis[k]) != mul(basis[i], mult[j][k]):
            return f"associativity fails on basis triple ({i}, {j}, {k})"
    return None


# -- N-strength by walking the elements: the oracle for the member tests of
# `strongness._strong_parts` --

def strong_parts_by_elements(sys: BilinearSystem, parts, side: str, block: int, N, budget) -> StrongReport:
    """Left or right N-strength of the union of the spans of the parts (lists
    of maps), element by element: every element's image (left) or kernel
    (right) multiplicity space is solved once, on first need, in enumeration
    order, and a family fails when no solved space of dimension 1 (left) or
    s - 1 (right) avoids every member.  Charged to the budget as
    `_strong_parts` charges it."""
    field = sys.field
    if side == "left":
        t = sys.t_blocks[block].mult
        members = list(enum_hyperplanes(Subspace.full(field, t))) if t else []
        mult_space, want = sys.image_mult_space, 1
        avoids, as_json = (lambda mult, hyper: not hyper.contains(mult)), (lambda hyper: list(hyper.basis_rows))
    else:
        s = sys.s_blocks[block].mult
        members = list(enum_coeff_points(field, s))
        mult_space, want = sys.kernel_mult_space, s - 1
        avoids, as_json = (lambda mult, point: not mult.contains_vector(point)), list
    max_k = min(int(math.floor(N)), len(members))
    part_spans = [Subspace.from_vectors(field, sys.dim_b * sys.dim_c, [m.flatten() for m in part]) for part in parts]
    total_families = sum(math.comb(len(members), k) for k in range(0, max_k + 1))
    n_elements = sum(num_projective_points(sp.dim, field.q) if sp.dim else 0 for sp in part_spans)
    budget.guard(f"{side}-strong family enumeration", total_families * max(n_elements, 1))

    elements = (
        Mat._of(field, sys.dim_c, sys.dim_b, tuple(vec))
        for span in part_spans
        for vec in enum_points(span)
    )
    qualifying: list[Subspace] = []

    def candidates():
        yield from qualifying
        for a in elements:
            mult = mult_space(a, block)
            if mult.dim == want:
                qualifying.append(mult)
                yield mult

    for k in range(0, max_k + 1):
        for family in itertools.combinations(members, k):
            if not any(all(avoids(mult, member) for member in family) for mult in candidates()):
                return StrongReport(False, side, N, [as_json(member) for member in family])
    return StrongReport(True, side, N, None)


def union_split_by_elements(sys: BilinearSystem, parts, side: str, N, t_block=None, s_block=None,
                            budget=DEFAULT_BUDGET):
    """`strongness.union_split` with every strength decided by
    `strong_parts_by_elements`."""
    block = _side_block(sys, side, t_block, s_block)
    union_report = strong_parts_by_elements(sys, parts, side, block, N, budget)
    if not union_report.strong:
        return None, union_report
    target = Fraction(N) / len(parts)
    for idx, part in enumerate(parts):
        rep = strong_parts_by_elements(sys, [part], side, block, target, budget)
        if rep.strong:
            return idx, rep
    raise TheoremViolation(f"union is {N}-strong but no part of {len(parts)} is {target}-strong")


# -- k-duality: the transposed system, the opposite algebra and the dual module --

def transpose_system(sys: BilinearSystem) -> BilinearSystem:
    """(T, S, A^T) through the verifying constructor: the balance check and
    the corner spaces run afresh on the transposed full-size maps."""
    return BilinearSystem(sys.field, sys.t_blocks, sys.s_blocks, tuple(a.transpose() for a in sys.a_basis))


def transpose_tensor(ts: TensorSubspace) -> TensorSubspace:
    """{X^T : X in ts}, an n x m tensor subspace."""
    return TensorSubspace(ts.field, ts.n, ts.m, tuple(mat.transpose() for mat in ts.basis))


def opposite_algebra(alg):
    """R^op: b_i * b_j = b_j b_i, with R's radical and, for a split
    certificate, each block's matrix units E_ij taken as E_ji; verified
    afresh by `algebra_make`."""
    cert = alg.certificate
    certificate = None if cert is None else {
        "radical_basis": [list(v) for v in cert.radical.basis_rows],
        "split": cert.split,
        "local": cert.local,
        "blocks": [{"n": b.n, "matrix_units": [b.unit(j, i) for i in range(b.n) for j in range(b.n)]}
                   for b in cert.blocks],
    }
    mult = [[alg.mult[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
    return algebra_make(alg.field, dim=alg.dim, mult=mult, one=alg.one, certificate=certificate)


def dual_module(m: ModuleRep, opposite) -> ModuleRep:
    """M* = Hom_k(M, k) over the opposite algebra: each action transposed,
    verified afresh by the constructor."""
    return ModuleRep(opposite, m.dim, tuple(a.transpose() for a in m.action))


RECORD_KEYS = ("command", "details", "inputs", "verdict")
# most severe first: a run exits by the first of these among its verdicts
VERDICT_SEVERITY = ("internal-error", "violation", "input-error", "budget", "counterexample", "pass")


def check_records(code: int, out: str, command: str, read=(), optional=()) -> list[dict]:
    """The JSON-line records of one CLI run's stdout, each checked for the
    shape every record has: the keys, plus the `optional` ones the run asked
    for (`timing`); the run's one command name; a verdict in `VERDICT_EXIT`;
    and `inputs` mapping each path in `read`, and no other, to the sha256 of
    its bytes.  The exit code must be that of the most severe verdict."""
    records = [json.loads(line) for line in out.splitlines()]
    assert records, "a run prints at least one record"
    hashes = {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in read}
    for record in records:
        assert sorted(record) == sorted((*RECORD_KEYS, *optional))
        assert record["command"] == command
        assert record["verdict"] in VERDICT_EXIT
        assert isinstance(record["details"], dict)
        assert record["inputs"] == hashes
    verdicts = {record["verdict"] for record in records}
    assert code == VERDICT_EXIT[next(v for v in VERDICT_SEVERITY if v in verdicts)]
    return records
