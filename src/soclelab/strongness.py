"""Bilinear systems over split semisimple block structure.

A BilinearSystem is the data of two split semisimple algebras S and T
(products of full matrix algebras over one F_q, given as block sizes), a
left S-module B and left T-module C (given blockwise by multiplicities),
and a set A of balanced maps B -> C given by generating matrices.  The
package works with the split case only: finite division rings are fields,
so nothing finite is lost, and every block is a full matrix algebra over
the base field.

Module bookkeeping runs through multiplicity spaces: the block-f part of C
is k^{t_f} (x) k^{n_f} (copies tensor column space), its submodules
correspond to subspaces of the multiplicity space k^{t_f}, and the
submodule generated by a vector corresponds to the span of that vector's
column components.  All predicates reduce to small exact solves and
guarded enumerations over these spaces.

The coordinate layout is owned here: the slot (block, copy, row) of B or C
sits at offset + copy*n + row, offsets block-major.  Everything that
touches a block reads or writes it by index selection in this layout: the
corner multiplicity spaces W_fe of a set of maps (`_corner_orbits`), their
inverse U (x) Matr_{n_f x n_e}(k) (`tensor_maps`), the compressions to a
corner, row or column (`BilinearSystem.block_maps`) and the multiplicity
vectors of an image or kernel.  The balance check, the block graph and the
degrees are read off the W_fe of the generators, kept once per system.

The coverage conditions, the orbit-swap conditions, N-strength and the
base case of relative strength ask one question of a sub-bimodule: does
some nonzero element kill a given maximal submodule of B, or map B into a
given simple submodule of C?  It is decided per member on the W_fe
(`_kills_maximal`, `_maps_into_simple`): A's own for coverage and relative
strength, each part's for strength, those of T a S for the swap conditions,
which run over the tuples of corner subspaces that a T a S can take, each
decided once.  For strength that is exact because a nonzero block X of
W_fe is itself the element X (x) E_00.  Each is one rank test per corner,
`_kills` or `_lands_in`; `modrep` decides a module's two minimality
properties with `_kills` alone, on soc(R)'s maps and on their transposes.
`BilinearSystem.transpose` is k-duality on systems: (S, T, A) goes to
(T, S, A^T), which swaps the two questions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

from .algebra import SocleGraph
from .budget import DEFAULT_BUDGET, Budget
from .errors import BudgetExceeded, InputError, PreconditionError, TheoremViolation, decoding, json_int, json_keys
from .exactla import (
    Mat,
    Subspace,
    all_subspaces,
    enum_coeff_points,
    enum_subspaces,
    full_hyperplanes,
    kernel,
    mat_of_rows,
    num_projective_points,
    num_subspaces,
    row_rank,
    rref_rows,
    vec_combo,
)
from .gf import Field


@dataclass(frozen=True)
class BlockSpec:
    """One full matrix-algebra block Matr_n(F_q) with module multiplicity."""

    n: int
    mult: int

    def __post_init__(self):
        if self.n < 1 or self.mult < 0:
            raise InputError(f"block needs n >= 1 and mult >= 0, got n = {self.n}, mult = {self.mult}")

    def module_dim(self) -> int:
        return self.n * self.mult


class BilinearSystem:
    """Split system: S, T block data plus generating matrices for A.

    Coordinates of B are block-major and copy-major within a block: the
    vector slot (block e, copy j, row i) sits at offset_e + j*n_e + i.
    The generators need not be independent; independence is exactly the
    nondegeneracy predicate and is reported, not assumed.  span(A) and the
    W_fe of the generators are computed on first read and kept.
    """

    def __init__(
        self,
        field: Field,
        s_blocks: tuple[BlockSpec, ...],
        t_blocks: tuple[BlockSpec, ...],
        a_basis: tuple[Mat, ...],
        _skip_verify: bool = False,
    ):
        self.field = field
        self.s_blocks = tuple(s_blocks)
        self.t_blocks = tuple(t_blocks)
        self.a_basis = tuple(a_basis)
        self.dim_b = sum(b.module_dim() for b in self.s_blocks)
        self.dim_c = sum(b.module_dim() for b in self.t_blocks)
        self._b_offsets = self._offsets(self.s_blocks)
        self._c_offsets = self._offsets(self.t_blocks)
        self._a_span: Subspace | None = None
        self._corner_spaces: dict | None = None
        for a in self.a_basis:
            if a.field != field or (a.rows, a.cols) != (self.dim_c, self.dim_b):
                raise InputError("system generator has wrong shape or field")
        if not _skip_verify:
            self._verify_balanced()

    @staticmethod
    def _offsets(blocks) -> tuple[int, ...]:
        out = []
        at = 0
        for b in blocks:
            out.append(at)
            at += b.module_dim()
        return tuple(out)

    # -- spans and corners --------------------------------------------------------
    def _verify_balanced(self):
        """The span of the generators must be closed under t . a . s.

        The sum of T a S over the generators is the direct sum over (f, e) of
        W_fe (x) Matr_{n_f x n_e}(k), with W_fe read off the generators'
        corner blocks (`corner_spaces`), and it contains span(A) (take
        t = 1, s = 1).  So span(A) is closed under the block actions exactly
        when the two have the same dimension, sum n_f * n_e * dim W_fe."""
        if self.a_span().dim != _bimodule_dim(self, self.corner_spaces()):
            raise InputError("generators are not closed under the block actions (not a sub-bimodule)")

    def a_span(self) -> Subspace:
        """span(A) in the flattened map space, computed on first read."""
        if self._a_span is None:
            self._a_span = Subspace.from_vectors(
                self.field, self.dim_b * self.dim_c, [a.flatten() for a in self.a_basis]
            )
        return self._a_span

    def corner_spaces(self) -> dict[tuple[int, int], tuple]:
        """RREF bases of the nonzero W_fe of A, keyed by corner (f, e),
        computed on first read (`_corner_orbits` of the generators)."""
        if self._corner_spaces is None:
            self._corner_spaces = _corner_orbits(self, self.a_basis)
        return self._corner_spaces

    def transpose(self) -> "BilinearSystem":
        """The system (T, S, A^T), the k-dual of this one: B and C swap and
        each generator is transposed.  The block algebras are closed under
        transposition, so the span stays balanced and is not checked again."""
        return BilinearSystem(self.field, self.t_blocks, self.s_blocks,
                              tuple(a.transpose() for a in self.a_basis), _skip_verify=True)

    def block_maps(self, f: int | None = None, e: int | None = None) -> list[Mat]:
        """The generators with every entry outside codomain block f and domain
        block e zeroed, where given: the corner f A e, the row f A, or the
        column A e."""
        rows = self._slots(self._c_offsets, self.t_blocks, f, self.dim_c)
        cols = self._slots(self._b_offsets, self.s_blocks, e, self.dim_b)
        keep = [r in rows and c in cols for r in range(self.dim_c) for c in range(self.dim_b)]
        return [
            Mat._of(self.field, self.dim_c, self.dim_b, tuple(x if k else 0 for x, k in zip(a.entries, keep)))
            for a in self.a_basis
        ]

    @staticmethod
    def _slots(offsets, blocks, index: int | None, dim: int) -> range:
        if index is None:
            return range(dim)
        return range(offsets[index], offsets[index] + blocks[index].module_dim())

    # -- multiplicity-space helpers -------------------------------------------------
    def _image_mult_vectors(self, a: Mat, f: int) -> list:
        """The nonzero copy vectors (a[(f, j, i), col])_j over every row i of
        block f and every column col of a; they span `image_mult_space`."""
        block = self.t_blocks[f]
        off = self._c_offsets[f]
        entries, width = a.entries, a.cols
        vectors = (
            tuple(entries[(off + j * block.n + i) * width + col] for j in range(block.mult))
            for col in range(width)
            for i in range(block.n)
        )
        return [v for v in vectors if any(v)]

    def image_mult_space(self, a: Mat, f: int) -> Subspace:
        """Multiplicity space of the submodule generated by a's image, block f."""
        return Subspace.from_vectors(self.field, self.t_blocks[f].mult, self._image_mult_vectors(a, f))

    def _kernel_mult_rows(self, a: Mat, e: int) -> list:
        """The nonzero rows of the solve whose null space is `kernel_mult_space`."""
        block = self.s_blocks[e]
        off = self._b_offsets[e]
        entries, width = a.entries, a.cols
        # m in k^{mult} lies in the kernel-submodule iff sum_j m_j a(e_{j,i}) = 0 for all i;
        # row (i, coord) of the solve holds coordinate coord of a(e_{j,i}) for each copy j
        rows = (
            [entries[coord * width + off + j * block.n + i] for j in range(block.mult)]
            for i in range(block.n)
            for coord in range(self.dim_c)
        )
        return [r for r in rows if any(r)]

    def kernel_mult_space(self, a: Mat, e: int) -> Subspace:
        """Multiplicity space of the largest submodule of eB inside ker(a)."""
        return kernel(mat_of_rows(self.field, self.s_blocks[e].mult, self._kernel_mult_rows(a, e)))

    # -- serialization --------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "s_blocks": [{"n": b.n, "mult": b.mult} for b in self.s_blocks],
            "t_blocks": [{"n": b.n, "mult": b.mult} for b in self.t_blocks],
            "a_basis": [a.to_json() for a in self.a_basis],
        }

    @staticmethod
    def from_json(data: dict) -> "BilinearSystem":
        with decoding("system", data):
            json_keys(data, ("field", "s_blocks", "t_blocks", "a_basis"))
            field = Field.from_json(data["field"])

            def block(raw):
                json_keys(raw, ("n", "mult"), "block key")
                return BlockSpec(json_int(raw, "n"), json_int(raw, "mult"))

            s_blocks = tuple(block(b) for b in data["s_blocks"])
            t_blocks = tuple(block(b) for b in data["t_blocks"])
            a_basis = tuple(Mat.from_json(mj, field) for mj in data["a_basis"])
        return BilinearSystem(field, s_blocks, t_blocks, a_basis)


# ---------------------------------------------------------------------------
# the three base predicates
# ---------------------------------------------------------------------------

@dataclass
class PredicateReport:
    nondegenerate: bool
    cond_b: bool
    cond_c: bool
    cond_b_failing: tuple | None = None
    cond_c_failing: tuple | None = None


def predicates(sys: BilinearSystem) -> PredicateReport:
    """Nondegeneracy plus the two coverage conditions of the system.

    Nondegeneracy is the independence of the generating maps.  The first
    coverage condition asks, for every maximal submodule of B, for a nonzero
    element of A annihilating it; the second, for every simple submodule of
    C, for a nonzero element of A mapping B into it.  Both are decided on
    A's W_fe (`_kills_maximal`, `_maps_into_simple`); the first member that
    fails is reported.
    """
    # vacuously true for empty A; false exactly when the generators are dependent
    nondeg = sys.a_span().dim == len(sys.a_basis)
    corners = sys.corner_spaces()
    b_fail = next(
        ((e, hyper) for e, hyper in _maximal_members(sys) if not _kills_maximal(sys, corners, e, hyper)), None
    )
    c_fail = next(((f, mu) for f, mu in _simple_members(sys) if not _maps_into_simple(sys, corners, f, mu)), None)
    return PredicateReport(nondeg, b_fail is None, c_fail is None, b_fail, c_fail)


# ---------------------------------------------------------------------------
# small conditions
# ---------------------------------------------------------------------------

def _corner_orbits(sys: BilinearSystem, maps) -> dict[tuple[int, int], tuple]:
    """RREF bases of the nonzero multiplicity spaces W_fe of the
    sub-bimodule sum_a T a S over the given maps, keyed by corner (f, e).

    Write A^{fe}_{jk} for the t_f x s_e matrix (c, c') -> a[(f,c,j), (e,c',k)],
    slots indexed offset + copy*n + row.  A matrix unit E_ij of T-block f
    times a times a matrix unit E_kl of S-block e is A^{fe}_{jk} (x) E_il, so
    T a S = (+)_{(f,e)} W_fe (x) Matr_{n_f x n_e}(k), where W_fe is the span
    of the n_f * n_e blocks A^{fe}_{jk}; over several maps the W_fe add up.
    Each nonzero entry of a map goes to its block through the tables of
    (block, copy, row) per slot of C and of B; each basis row is a t_f x s_e
    matrix, row-major."""
    rows, cols = (
        [(x, c, i) for x, b in enumerate(side) for c in range(b.mult) for i in range(b.n)]
        for side in (sys.t_blocks, sys.s_blocks)
    )
    width, blocks = sys.dim_b, {}  # (f, e) -> {(map, j, k): A^{fe}_{jk} of that map}
    for index, a in enumerate(maps):
        entries = a.entries
        for at in itertools.compress(range(len(entries)), entries):
            (f, c, j), (e, c2, k) = rows[at // width], cols[at % width]
            s_mult = sys.s_blocks[e].mult
            corner = blocks.setdefault((f, e), {})
            if (index, j, k) not in corner:
                corner[index, j, k] = [0] * (sys.t_blocks[f].mult * s_mult)
            corner[index, j, k][c * s_mult + c2] = entries[at]
    return {
        (f, e): tuple(map(tuple, rref_rows(
            list(corner.values()), sys.t_blocks[f].mult * sys.s_blocks[e].mult, sys.field)[0]))
        for (f, e), corner in sorted(blocks.items())
    }


def _bimodule_dim(sys: BilinearSystem, corners: dict) -> int:
    """dim (+) W_fe (x) Matr_{n_f x n_e}(k), given the W_fe's bases."""
    return sum(sys.t_blocks[f].n * sys.s_blocks[e].n * len(basis) for (f, e), basis in corners.items())


def tensor_maps(sys: BilinearSystem, f: int, e: int, u_rows) -> list[Mat]:
    """Basis of U (x) Matr_{n_f x n_e}(k) as full-size maps B -> C, for U
    spanned by the independent t_f x s_e matrices u_rows (row-major): the
    inverse of the corner read, one map per u and matrix unit E_ab."""
    bf, be = sys.t_blocks[f], sys.s_blocks[e]
    c_off, b_off = sys._c_offsets[f], sys._b_offsets[e]
    mats = []
    for u in u_rows:
        for a in range(bf.n):
            for b in range(be.n):
                entries = [0] * (sys.dim_c * sys.dim_b)
                for c in range(bf.mult):
                    for c2 in range(be.mult):
                        entries[(c_off + c * bf.n + a) * sys.dim_b + b_off + c2 * be.n + b] = u[c * be.mult + c2]
                mats.append(Mat._of(sys.field, sys.dim_c, sys.dim_b, tuple(entries)))
    return mats


def _maximal_members(sys: BilinearSystem):
    """Yield (e, H) for every maximal submodule H (x) k^{n_e} (+) (the other
    S-blocks) of B: H runs over the hyperplanes of k^{s_e} in
    `enum_hyperplanes` order, given by basis rows."""
    for e, be in enumerate(sys.s_blocks):
        for hyper in full_hyperplanes(sys.field, be.mult):
            yield e, hyper.basis_rows


def _simple_members(sys: BilinearSystem):
    """Yield (f, mu) for every simple submodule span(mu) (x) k^{n_f} of C:
    mu runs over the points of P(k^{t_f}) in `enum_coeff_points` order."""
    for f, bf in enumerate(sys.t_blocks):
        for mu in enum_coeff_points(sys.field, bf.mult):
            yield f, mu


@functools.lru_cache(maxsize=None)
def _off_sets(field: Field, dim: int) -> tuple[int, ...]:
    """Bit j of entry i is set when point j of P(k^dim) lies off hyperplane i,
    and equally point i off hyperplane j: hyperplane i (`enum_hyperplanes`)
    is the kernel of point i (`enum_coeff_points`), so both say u_i . u_j != 0."""
    points = list(enum_coeff_points(field, dim))
    return tuple(sum(1 << j for j, v in enumerate(points) if vec_combo(field, [(x,) for x in v], u)[0]) for u in points)


def _kills(field: Field, maps, s: int, vectors) -> bool:
    """Whether some nonzero combination of the independent row-major t x s
    matrices `maps` is zero on every given vector of k^s.  X v is the
    combination of X's columns weighted by v, linear in X, so the answer is a
    rank drop of the stacked images (with no vectors, any map qualifies)."""
    if not vectors:
        return bool(maps)
    images = []
    for x in maps:
        columns = [x[c::s] for c in range(s)]
        images.append(tuple(itertools.chain.from_iterable(vec_combo(field, columns, v) for v in vectors)))
    if len(images) == 1:  # one row has rank 0 or 1: a zero test, no elimination
        return not any(images[0])
    return row_rank(images, len(images[0]), field) < len(images)


def _lands_in(field: Field, maps, s: int, pivot_rows) -> bool:
    """Whether some nonzero combination of the independent row-major t x s
    matrices `maps` has every column in the span of the given RREF rows of
    k^t.  A column v reduces to v less v[p] rho over the rows rho with their
    leading 1 at p: read by rows of X, row r loses rho[r] times row p, and
    row p vanishes, so it is left out.  That is linear in X, so the answer is
    a rank drop of the reduced maps."""
    sub, mul = field.tables.sub, field.tables.mul
    leads = [rho.index(1) for rho in pivot_rows]
    images = []
    for x in maps:
        image = []
        for r in range(len(x) // s):
            if r in leads:
                continue
            v = x[r * s:(r + 1) * s]
            for p, rho in zip(leads, pivot_rows):
                if rho[r]:
                    mc = mul[rho[r]]
                    v = [sub[a][mc[b]] for a, b in zip(v, x[p * s:(p + 1) * s])]
            image.extend(v)
        images.append(image)
    return row_rank(images, len(images[0]) if images else 0, field) < len(images)


def _kills_maximal(sys: BilinearSystem, corners: dict, e: int, hyper) -> bool:
    """Whether some nonzero element of the sub-bimodule with the given corner
    bases kills the maximal submodule H (x) k^{n_e} (+) (the other S-blocks).

    An element kills the other S-blocks exactly when its components outside
    column block e vanish, and its (f, e) component sum X_il (x) E_il kills
    H (x) k^{n_e} exactly when every multiplicity block X_il kills H.  So
    the answer is yes exactly when some W_fe in column e holds a nonzero X
    with X|_H = 0: one `_kills` of W_fe on H's basis per corner.  When
    s_e = 1, H = 0 and any nonzero W_fe qualifies."""
    s = sys.s_blocks[e].mult
    return any(_kills(sys.field, basis, s, hyper) for (_f, e2), basis in corners.items() if e2 == e)


def _maps_into_simple(sys: BilinearSystem, corners: dict, f: int, mu) -> bool:
    """Whether some nonzero element of the sub-bimodule with the given corner
    bases maps B into the simple submodule span(mu) (x) k^{n_f} of C.

    Dually to `_kills_maximal`, an element maps into it exactly when its
    components outside row block f vanish and every multiplicity block of
    its (f, e) components has its columns in span(mu).  So the answer is yes
    exactly when some W_fe in row f holds a nonzero X with columns in
    span(mu): one `_lands_in` of W_fe modulo mu, a point with its leading 1,
    per corner.  When t_f = 1 the only point is mu = (1) and any nonzero W_fe
    qualifies."""
    return any(_lands_in(sys.field, basis, sys.s_blocks[e].mult, (mu,))
               for (f2, e), basis in corners.items() if f2 == f)


def _corner_hypotheses(sys: BilinearSystem, corners: dict) -> tuple[bool, bool]:
    """(simple image, maximal kernel) at an element a, read off the corners
    of T a S = (+)_{(f,e)} W_fe (x) Matr_{n_f x n_e}(k) (`_corner_orbits` of a).

    Simple image: the submodule generated by a's image is T a(B), and
    T a(B) = (T a S)(B) because S holds 1 and S B = B.  X (x) E_il maps
    m (x) v to X m (x) E_il v, so block f of (T a S)(B) has multiplicity
    space sum_e colspan W_fe, and the submodule is simple exactly when
    sum_f dim(sum_e colspan W_fe) = 1.

    Maximal kernel: the largest submodule of B inside ker(a) is
    {b : a S b = 0}, the intersection of ker w over w in T a S (T holds 1,
    and a s b = 0 gives t a s b = 0).  X (x) E_il kills the block-e part
    sum_l m_l (x) e_l exactly when X m_l = 0, so that intersection has
    block-e multiplicity space the common null space of the W_fe over f, of
    codimension dim(sum_f rowspan W_fe).  For a != 0 it contains a maximal
    submodule exactly when sum_e dim(sum_f rowspan W_fe) = 1."""
    columns = [[] for _ in sys.t_blocks]
    rows = [[] for _ in sys.s_blocks]
    for (f, e), basis in corners.items():
        s = sys.s_blocks[e].mult
        for x in basis:
            columns[f].extend(x[c::s] for c in range(s))
            rows[e].extend(x[r:r + s] for r in range(0, len(x), s))
    return tuple(
        sum(row_rank(vectors, block.mult, sys.field) for vectors, block in zip(spans, blocks) if vectors) == 1
        for spans, blocks in ((columns, sys.t_blocks), (rows, sys.s_blocks))
    )


def _swap_failures(sys: BilinearSystem, corners: dict) -> tuple[bool, bool]:
    """Which swap directions fail at an element a, given the corners of T a S.

    Forward fails when a's image generates a simple submodule but no nonzero
    element of T a S kills a maximal submodule of B; backward fails when
    ker(a) contains a maximal submodule but no nonzero element of T a S maps
    B into a simple submodule of C."""
    simple_image, maximal_kernel = _corner_hypotheses(sys, corners)
    return (
        simple_image and not any(_kills_maximal(sys, corners, e, hyper) for e, hyper in _maximal_members(sys)),
        maximal_kernel and not any(_maps_into_simple(sys, corners, f, mu) for f, mu in _simple_members(sys)),
    )


def small_conditions(sys: BilinearSystem, budget: Budget = DEFAULT_BUDGET) -> None:
    """The two orbit-swap conditions, decided once per tuple of corner subspaces.

    For every nonzero element a of A: when a's image generates a simple
    submodule, some nonzero element of the sub-bimodule T a S must kill a
    maximal submodule of B; when ker(a) contains a maximal submodule, some
    nonzero element of T a S must map B into a simple submodule of C.

    Both hypotheses and both conclusions depend on a only through
    T a S = (+)_{(f,e)} U_fe (x) Matr_{n_f x n_e}(k), where U_fe is spanned by
    the n_f * n_e multiplicity blocks of a's (f, e) component
    (`_corner_orbits`), and `_swap_failures` decides them from the U_fe.
    span(A) is balanced, so it is (+) W_fe (x) Matr_{n_f x n_e}(k) with W_fe
    the corner spaces of A: the components of a range independently, each
    over every n_f * n_e-tuple of vectors of W_fe.  So the tuples (U_fe) that
    occur are exactly those with U_fe a subspace of W_fe of dimension at most
    n_f * n_e, not all zero.  Each is decided once, in `itertools.product`
    order over the corners, with U_fe built from W_fe's RREF rows by an RREF
    coordinate basis, which gives U_fe in RREF.  The tuples are counted by
    Gaussian binomials and charged to the budget before any is built.

    The chain matrix blocks => swap both => swap either is proved for split
    systems, the only representable ones, so a failure in either direction
    is an implementation bug: it raises TheoremViolation naming the tuple.
    """
    field = sys.field
    corners = sys.corner_spaces()
    reach = [sys.t_blocks[f].n * sys.s_blocks[e].n for f, e in corners]
    count = math.prod(num_subspaces(len(basis), field.q, m) for basis, m in zip(corners.values(), reach))
    budget.guard("small-conditions enumeration", count - 1)
    choices = [
        [(fe, tuple(vec_combo(field, basis, c) for c in coords.basis_rows))
         for coords in all_subspaces(field, len(basis), range(m + 1))]
        for (fe, basis), m in zip(corners.items(), reach)
    ]
    # the first tuple is all zero: a = 0
    for pick in itertools.islice(itertools.product(*choices), 1, None):
        subspaces = {fe: rows for fe, rows in pick if rows}
        forward, backward = _swap_failures(sys, subspaces)
        if forward or backward:
            raise TheoremViolation(
                f"split system fails the {'forward' if forward else 'backward'} swap condition "
                f"at the corner subspaces {subspaces}"
            )


# ---------------------------------------------------------------------------
# N-strong predicates
# ---------------------------------------------------------------------------

@dataclass
class StrongReport:
    strong: bool
    side: str
    N: object
    witness_family: list | None  # failing family when not strong

    def to_json(self) -> dict:
        return {
            "strong": self.strong,
            "side": self.side,
            "N": str(self.N),
            "witness_family": self.witness_family,
        }


def _strong_parts(
    sys: BilinearSystem, part_corners: list[dict], side: str, block: int, N, budget: Budget
) -> StrongReport:
    """Left or right N-strength of the union of the parts, each a
    sub-bimodule given by its corner bases, on codomain block f = block
    (left) or domain block e = block (right).

    Left: for every family of at most floor(N) hyperplanes of k^t, some
    element's image generates a simple submodule (multiplicity dimension 1)
    outside every member.  Checking families of maximal submodules only is
    lossless: enlarging a member of a family can only make the evasion
    requirement harder, and every proper submodule sits inside a maximal one.

    Right: for every family of at most floor(N) points of k^s, some element's
    kernel contains a maximal submodule (multiplicity dimension s - 1) that
    misses every member.  Families of simple submodules suffice: shrinking a
    member to a simple submodule inside it hardens the not-contained
    requirement.

    No element is walked: a point p is some element's image multiplicity
    space exactly when a part passes `_maps_into_simple` at p, and a
    hyperplane H some element's kernel multiplicity space exactly when a part
    passes `_kills_maximal` at H (one block X (x) E_00 suffices, see the
    module docstring).  A family fails when no qualifying point (left) or
    hyperplane (right) lies off every member (`_off_sets`).  The charge stays
    families times the parts' elements up to scalars, though none is walked,
    and it is made before any member is enumerated.
    """
    field, left = sys.field, side == "left"
    dim = (sys.t_blocks if left else sys.s_blocks)[block].mult
    n_members = num_projective_points(dim, field.q)  # as many hyperplanes as points
    max_k = min(int(math.floor(N)), n_members)
    total_families = sum(math.comb(n_members, k) for k in range(0, max_k + 1))
    n_elements = sum(num_projective_points(_bimodule_dim(sys, corners), field.q) for corners in part_corners)
    budget.guard(f"{side}-strong family enumeration", total_families * max(n_elements, 1))

    points = tuple(enum_coeff_points(field, dim))
    hyperplanes = [hyper.basis_rows for hyper in full_hyperplanes(field, dim)]
    members, duals, test = (hyperplanes, points, _maps_into_simple) if left else (points, hyperplanes, _kills_maximal)
    qualifying = sum(1 << i for i, x in enumerate(duals) if any(test(sys, c, block, x) for c in part_corners))
    off = _off_sets(field, dim)
    for k in range(0, max_k + 1):
        for family in itertools.combinations(range(len(members)), k):
            if not functools.reduce(operator.and_, (off[m] for m in family), qualifying):
                return StrongReport(False, side, N, [list(members[m]) for m in family])
    return StrongReport(True, side, N, None)


def _side_block(sys: BilinearSystem, side: str, t_block: int | None, s_block: int | None) -> int:
    """The block whose multiplicity space a side's families live in: the
    codomain block on the left, the domain block on the right; it may be
    omitted when only one block of that kind is nonzero."""
    if side == "left":
        given, blocks, kind = t_block, sys.t_blocks, "codomain"
    elif side == "right":
        given, blocks, kind = s_block, sys.s_blocks, "domain"
    else:
        raise InputError(f"side must be left or right, got {side!r}")
    if given is not None:
        return given
    live = [i for i, b in enumerate(blocks) if b.mult > 0]
    if len(live) != 1:
        raise PreconditionError(f"{kind} block must be specified when several are nonzero")
    return live[0]


def n_strong(
    sys: BilinearSystem,
    side: str,
    N,
    t_block: int | None = None,
    s_block: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> StrongReport:
    """Left or right N-strength of a map set drawn from the system.

    The map set is the corner f A e when both blocks are given, the row
    f A (all of A compressed to codomain block f) when only t_block is
    given on the left, and dually on the right.  Family sizes use floor(N).
    """
    block = _side_block(sys, side, t_block, s_block)
    f, e = (block, s_block) if side == "left" else (t_block, block)
    corners = {fe: w for fe, w in sys.corner_spaces().items() if f in (None, fe[0]) and e in (None, fe[1])}
    return _strong_parts(sys, [corners], side, block, N, budget)


def union_split(
    sys: BilinearSystem,
    parts: list[list[Mat]],
    side: str,
    N,
    t_block: int | None = None,
    s_block: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
):
    """Instance check of the union law: when the union of the parts is
    N-strong, some single part must be N/d-strong; find and return its index.

    Returns (index, report) on success, (None, counterexample report) when
    the union itself is not N-strong.  A strong union with no strong part
    contradicts a proved statement and raises TheoremViolation.  A part that
    does not span the sub-bimodule of its corners raises PreconditionError.
    """
    block = _side_block(sys, side, t_block, s_block)
    part_corners = [_corner_orbits(sys, part) for part in parts]
    for idx, (part, corners) in enumerate(zip(parts, part_corners)):
        if row_rank([a.flatten() for a in part], sys.dim_b * sys.dim_c, sys.field) != _bimodule_dim(sys, corners):
            raise PreconditionError(f"part {idx} does not span a sub-bimodule")
    union_report = _strong_parts(sys, part_corners, side, block, N, budget)
    if not union_report.strong:
        return None, union_report
    target = Fraction(N) / len(parts)
    for idx, corners in enumerate(part_corners):
        rep = _strong_parts(sys, [corners], side, block, target, budget)
        if rep.strong:
            return idx, rep
    raise TheoremViolation(f"union is {N}-strong but no part of {len(parts)} is {target}-strong")


# ---------------------------------------------------------------------------
# union-coverage law for module lattices
# ---------------------------------------------------------------------------

def no_union_cover(field: Field, block: BlockSpec, N: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Verify, on the module (k^n)^t over Matr_n(F_q), that no family of at
    most N proper submodules covers the module, and that no family of at
    most N nonzero submodules meets every maximal submodule.

    Finding a covering family with N <= q contradicts a proved statement
    (TheoremViolation); with N > q a cover may legitimately exist and the
    function just reports it.
    """
    n, t = block.n, block.mult
    q = field.q
    subs = list(all_subspaces(field, t))
    proper = [s for s in subs if s.dim < t]
    nonzero = [s for s in subs if s.dim > 0]
    max_reach = min(n, t)
    reachable = [s for s in subs if 1 <= s.dim <= max_reach]
    hyperplanes = [s for s in subs if s.dim == t - 1]
    total = sum(math.comb(len(proper), k) for k in range(1, N + 1))
    budget.guard("union-cover family enumeration", total)

    # no family covers the reachable submodules; none meets every hyperplane
    covered_assertion = not any(
        all(any(m.contains(w) for m in family) for w in reachable)
        for k in range(1, N + 1) for family in itertools.combinations(proper, k)
    )
    blocking_assertion = not any(
        all(any(h.contains(y) for y in family) for h in hyperplanes)
        for k in range(1, N + 1) for family in itertools.combinations(nonzero, k)
    )
    holds = covered_assertion and blocking_assertion
    if not holds and N <= q:
        raise TheoremViolation(
            f"a family of <= {N} submodules covers (k^{n})^{t} over F_{q}: contradicts the covering lemma"
        )
    return holds


# ---------------------------------------------------------------------------
# the length inequality
# ---------------------------------------------------------------------------

@dataclass
class StrengthBudget:
    """Cardinality data of the system, always recomputed, never supplied."""

    N_S: int
    N_T: int
    d_S: int
    d_T: int
    l_S: int
    l_T: int

    @property
    def cardD_ok(self) -> bool:
        """The cardinality hypothesis: q >= d_T l_S and q >= d_S l_T, with q = N_S = N_T."""
        return self.N_S >= self.d_T * self.l_S and self.N_T >= self.d_S * self.l_T


@dataclass
class SystemReport:
    budget: StrengthBudget
    graph: SocleGraph
    lt_b: int
    lt_c: int
    lt_a: int
    lhs: int
    rhs: int
    holds: bool
    hypotheses_met: dict
    field_size: int

    def to_json(self) -> dict:
        return asdict(self)


def system_graph(sys: BilinearSystem) -> SocleGraph:
    """Block graph of the system; its edge lengths sum to the bimodule length of A."""
    left_vertices = tuple(f for f, b in enumerate(sys.t_blocks) if b.mult > 0)
    right_vertices = tuple(e for e, b in enumerate(sys.s_blocks) if b.mult > 0)
    # a nonzero W_fe has t_f, s_e > 0, so its corner joins two vertices
    corners = sys.corner_spaces()
    return SocleGraph(left_vertices, right_vertices, tuple(corners), tuple(len(basis) for basis in corners.values()))


def strength_budget(sys: BilinearSystem) -> StrengthBudget:
    q = sys.field.q
    edges = sys.corner_spaces()
    d_T = max(Counter(f for f, _ in edges).values(), default=0)
    d_S = max(Counter(e for _, e in edges).values(), default=0)
    l_S = max((b.mult for b in sys.s_blocks), default=0)
    l_T = max((b.mult for b in sys.t_blocks), default=0)
    return StrengthBudget(q, q, d_S, d_T, l_S, l_T)


def prop41_check(sys: BilinearSystem, budget: Budget = DEFAULT_BUDGET) -> SystemReport:
    """Full instance check of the block-length inequality
    lt(B) + lt(C) <= lt(A) + chi(G), with every hypothesis evaluated so a
    failing inequality is attributable to a failing hypothesis.

    All hypotheses verified true together with a failing inequality is an
    implementation bug (the statement is proved) and raises TheoremViolation.
    """
    preds = predicates(sys)
    graph = system_graph(sys)
    lt_a = graph.socle_bimodule_length
    sbudget = strength_budget(sys)
    lt_b = sum(b.mult for b in sys.s_blocks)
    lt_c = sum(b.mult for b in sys.t_blocks)
    lhs = lt_b + lt_c
    rhs = lt_a + graph.chi
    holds = lhs <= rhs
    # a swap failure raises; over budget, the swap condition is implied for
    # split systems by the proved implication chain from the matrix-block condition
    with contextlib.suppress(BudgetExceeded):
        small_conditions(sys, budget)
    hypotheses = {
        "nondeg": preds.nondegenerate,
        "cond_b": preds.cond_b,
        "cond_c": preds.cond_c,
        "small_either": True,
        "cardD": sbudget.cardD_ok,
    }
    report = SystemReport(sbudget, graph, lt_b, lt_c, lt_a, lhs, rhs, holds, hypotheses, sys.field.q)
    if all(hypotheses.values()) and not holds:
        raise TheoremViolation(
            f"all hypotheses hold over F_{sys.field.q} but {lhs} > {rhs}: the proved inequality failed"
        )
    return report


# ---------------------------------------------------------------------------
# recursive relative strength (experimental)
# ---------------------------------------------------------------------------

def relative_n_strong(
    sys: BilinearSystem,
    N,
    y_prime: Subspace,
    t_block: int | None = None,
    s_block: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Recursive relative variant of left N-strength (experimental).

    y_prime is a submodule of the codomain block given by its multiplicity
    subspace.  W is the row f A, or the corner f A e when s_block is given.
    Length 1: some nonzero element of W maps into it (`_maps_into_simple`
    on A's W_fe in row f, or at (f, e) alone).  Length r+1: for every
    length-(r-1) submodule below it, more than N length-r intermediates are
    relatively strong.  Memoized on canonical forms.  Every subspace the
    recursion enumerates is charged to the budget.
    """
    f = _side_block(sys, "left", t_block, s_block)
    corners = {fe: basis for fe, basis in sys.corner_spaces().items() if s_block is None or fe[1] == s_block}
    if y_prime.dim == 0:
        raise PreconditionError("relative strength needs a nonzero submodule")
    memo: dict = {}
    field = sys.field
    examined = 0

    def subspaces_of_dim(space: Subspace, d: int):
        nonlocal examined
        for inner in enum_subspaces(field, space.dim, d):
            examined += 1
            budget.guard("relative-strength subspace enumeration", examined)
            vectors = [vec_combo(field, list(space.basis_rows), c) for c in inner.basis_rows]
            yield Subspace.from_vectors(field, space.ambient_dim, vectors)

    def rec(sub: Subspace) -> bool:
        key = sub.basis_rows
        if key in memo:
            return memo[key]
        r = sub.dim
        if r == 1:
            # a 1-dimensional RREF basis row is the point with its leading 1
            result = _maps_into_simple(sys, corners, f, sub.basis_rows[0])
        else:
            result = True
            for below in subspaces_of_dim(sub, r - 2):
                count = 0
                for mid in subspaces_of_dim(sub, r - 1):
                    if below.dim and not mid.contains(below):
                        continue
                    if rec(mid):
                        count += 1
                if not count > N:
                    result = False
                    break
        memo[key] = result
        return result

    return rec(y_prime)
