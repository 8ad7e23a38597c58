"""Finite-dimensional associative F_q-algebras with identity.

An Algebra carries verified structure constants (the identity law, and
associativity on all basis triples as L_{b_i b_j} = L_{b_i} L_{b_j}, are
checked at construction) and an
optional certificate: the radical as an explicit nilpotent two-sided ideal,
plus either matrix-unit bases exhibiting the semisimple quotient as a
product of full matrix algebras over F_q ("split"), or a verified division
quotient ("local", possibly non-split).  Certified claims are never trusted
blindly; every piece is re-verified at construction time.

The radical certificate has an independent oracle: an exhaustive scan of the
whole ring by quasi-regularity (x is radical iff 1 - rx is invertible for
every r).  The scan rank-tests one element per scalar class for unit flags
(unit(cx) = unit(x) for c != 0), then decides membership once per coset of
the verified radical span, up to scalars: it visits only the code of each
coset that the span already reduces, from a byte mask that narrows by one
digit, and loses the rejected cosets' codes, per verified member, and walks
the principal left ideal Rx by an odometer, with early exit.  Unit testing
goes through the matrix basis when it represents 1 as the identity matrix
(invertibility in the matrix ring then equals invertibility in the
subalgebra), else through the regular representation.  When every matrix of
that representation is block upper (or lower) triangular at one cut of the
indices, found from the matrices alone, an element's determinant is the
product of its diagonal blocks' determinants; so the scan rank-tests the
matrices with every entry outside those blocks set to zero.  A basis element
whose masked matrix is zero is an idle digit: it changes no flag, and the
flags are copied across it instead of walked.  Over F_2 and F_3 the matrices
are walked and rank-tested packed whole into bit words
(`exactla._full_rank_kernels`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import asdict, dataclass

from .budget import DEFAULT_BUDGET, Budget
from .errors import InputError, NotSplitError, PreconditionError, TheoremViolation, decoding, json_bool, json_int
from .exactla import (
    Mat,
    RowBasis,
    SpanTracker,
    Subspace,
    _full_rank_kernels,
    free_positions,
    kernel,
    mat_of_columns,
    mat_of_rows,
    mat_vec,
    row_rank,
    rref_rows,
    vec_add,
    vec_combo,
)
from .gf import Field

Coords = tuple


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One full matrix-algebra factor of the semisimple quotient.

    matrix_units holds lifts to R of an n*n matrix-unit basis of the factor,
    row-major; all relations are verified modulo the radical.
    """

    n: int
    matrix_units: tuple[Coords, ...]

    def unit(self, i: int, j: int) -> Coords:
        return self.matrix_units[i * self.n + j]


@dataclass(frozen=True)
class CertifiedStructure:
    radical: Subspace
    split: bool
    blocks: tuple[Block, ...]  # empty unless split
    local: bool

    def idempotent(self, field: Field, f: int) -> Coords:
        block = self.blocks[f]
        total = (0,) * self.radical.ambient_dim
        for i in range(block.n):
            total = vec_add(field, total, block.unit(i, i))
        return total


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class Algebra:
    """Verified associative unital algebra over F_q, dim d, basis-indexed."""

    def __init__(
        self,
        field: Field,
        dim: int,
        mult: tuple,  # mult[i][j] = coords of b_i * b_j
        one: Coords,
        matrix_basis: tuple[Mat, ...] | None = None,
        certificate: CertifiedStructure | None = None,
    ):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.one = tuple(one)
        self.matrix_basis = matrix_basis
        self.certificate = certificate
        self._radical_cache: Subspace | None = None
        self._socles_cache: SocleTriple | None = None
        self._generators_cache: tuple[int, ...] | None = None
        # the j with b_j != 1, which the relation check pairs with each generator
        self.non_identity_basis = tuple(j for j in range(dim) if self.basis_coords(j) != self.one)
        self.left_mats = tuple(
            Mat(field, dim, dim, tuple(mult[i][j][k] for k in range(dim) for j in range(dim)))
            for i in range(dim)
        )
        self.right_mats = tuple(
            Mat(field, dim, dim, tuple(mult[j][i][k] for k in range(dim) for j in range(dim)))
            for i in range(dim)
        )
        self._verify_structure()
        if certificate is not None:
            self._verify_certificate(certificate)

    # -- arithmetic on coordinate vectors ------------------------------------
    def left_mult_mat(self, x: Coords) -> Mat:
        return mat_vec(self.left_mats, x)

    def right_mult_mat(self, x: Coords) -> Mat:
        return mat_vec(self.right_mats, x)

    def mul_coords(self, x: Coords, y: Coords) -> Coords:
        add, mul = self.field.tables.add, self.field.tables.mul
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.mult[i]
            mx = mul[xi]
            for j, yj in enumerate(y):
                if yj:
                    mf = mul[mx[yj]]
                    for k, ck in enumerate(row[j]):
                        if ck:
                            out[k] = add[out[k]][mf[ck]]
        return tuple(out)

    def basis_coords(self, i: int) -> Coords:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def generators(self) -> tuple[int, ...]:
        """Basis indices that generate the algebra as a unital algebra, none
        of them redundant.  Each index in turn is dropped when the others
        kept so far still generate; an index that is kept cannot be dropped
        from any subset either, so the result is irredundant.  Computed once
        and then kept."""
        if self._generators_cache is None:
            gens = list(range(self.dim))
            for i in range(self.dim):
                rest = [g for g in gens if g != i]
                if self.words(rest)[1].rank == self.dim:
                    gens = rest
            self._generators_cache = tuple(gens)
        return self._generators_cache

    def words(self, indices) -> tuple[list[tuple[int, int]], SpanTracker]:
        """The words in the given basis elements that span the unital
        subalgebra they generate, grown breadth first one right factor at a
        time from 1 until no new word leaves the span (or the span is the
        whole algebra).  Returns the recipe, one (parent word, position in
        indices) per word after 1, and a SpanTracker over the word values,
        1 first, in recipe order."""
        tracker = SpanTracker(self.field, self.dim, self.dim)
        tracker.add(self.one)
        recipe: list[tuple[int, int]] = []
        values = [self.one]
        frontier = [0]
        while frontier and tracker.rank < self.dim:
            nxt = []
            for w_idx in frontier:
                for g_pos, g in enumerate(indices):
                    w = self.mul_coords(values[w_idx], self.basis_coords(g))
                    if tracker.express(w) is None:
                        tracker.add(w)
                        values.append(w)
                        recipe.append((w_idx, g_pos))
                        nxt.append(len(values) - 1)
            frontier = nxt
        return recipe, tracker

    # -- verification ----------------------------------------------------------
    def _verify_structure(self):
        """The identity law on each basis element, then associativity on each
        basis triple (i, j, k) in order; a failure names the first.  Column k
        of L_x is x b_k (of R_x, b_k x), so the identity law says column i of
        L_1 and R_1 is e_i, and the triples (i, j, *) say L_{b_i b_j} = L_{b_i}
        L_{b_j}, whose columns k are (b_i b_j) b_k and b_i (b_j b_k)."""
        d = self.dim
        if not d:
            return
        left_one, right_one = self.left_mult_mat(self.one).entries, self.right_mult_mat(self.one).entries
        for i in range(d):
            bi = self.basis_coords(i)
            if left_one[i::d] != bi or right_one[i::d] != bi:
                raise InputError(f"identity law fails on basis element {i}")
        for i, li in enumerate(self.left_mats):
            for j, lj in enumerate(self.left_mats):
                lhs, rhs = mat_vec(self.left_mats, self.mult[i][j]).entries, li.mul(lj).entries
                if lhs != rhs:
                    k = next(k for k in range(d) if lhs[k::d] != rhs[k::d])
                    raise InputError(f"associativity fails on basis triple ({i}, {j}, {k})")

    def _verify_certificate(self, cert: CertifiedStructure):
        J = cert.radical
        if J.ambient_dim != self.dim or J.field != self.field:
            raise InputError("bad certificate: radical basis lives in the wrong space")
        defect = _nilpotent_ideal_defect(self, J)
        if defect:
            lacks = {"left": "a left ideal", "right": "a right ideal", "nilpotent": "nilpotent"}[defect]
            raise InputError(f"bad certificate: claimed radical is not {lacks}")
        if cert.split:
            self._verify_split_blocks(cert)
        elif cert.local:
            if not self._residue_is_division(J):
                raise InputError("bad certificate: quotient by claimed radical is not a division ring")
        else:
            raise InputError("certificate must claim split blocks or a local (division) quotient")

    def _verify_split_blocks(self, cert: CertifiedStructure):
        J = cert.radical
        for f, block in enumerate(cert.blocks):
            if block.n < 1 or len(block.matrix_units) != block.n * block.n:
                raise InputError(f"bad certificate: block {f} has n = {block.n} and {len(block.matrix_units)} "
                                 f"matrix units, needs n >= 1 and n^2 units")
        total = sum(b.n * b.n for b in cert.blocks)
        if total != self.dim - J.dim:
            raise InputError("bad certificate: block sizes do not fill the semisimple quotient")
        units = [u for block in cert.blocks for u in block.matrix_units]
        if row_rank([*J.basis_rows, *units], self.dim, self.field) != J.dim + len(units):
            raise InputError("bad certificate: matrix units dependent modulo the radical")
        # unit relations modulo J, including across blocks
        for f, bf in enumerate(cert.blocks):
            for g, bg in enumerate(cert.blocks):
                for i in range(bf.n):
                    for j in range(bf.n):
                        for k in range(bg.n):
                            for l in range(bg.n):
                                prod = self.mul_coords(bf.unit(i, j), bg.unit(k, l))
                                expect = bf.unit(i, l) if (f == g and j == k) else None
                                diff = prod if expect is None else tuple(
                                    self.field.sub(a, b) for a, b in zip(prod, expect)
                                )
                                if not J.contains_vector(diff):
                                    raise InputError(
                                        f"bad certificate: matrix-unit relation fails at blocks ({f},{g})"
                                    )
        total_one = (0,) * self.dim
        for f in range(len(cert.blocks)):
            total_one = vec_add(self.field, total_one, cert.idempotent(self.field, f))
        diff = tuple(self.field.sub(a, b) for a, b in zip(total_one, self.one))
        if not J.contains_vector(diff):
            raise InputError("bad certificate: block idempotents do not sum to the identity modulo J")

    # -- residue ring ------------------------------------------------------------
    def _residue_is_division(self, J: Subspace) -> bool:
        """Whether R/J is a division ring: R/J is nonzero and every nonzero
        residue acts invertibly on it by left multiplication.  R/J has the
        basis of J's free positions; column j of L_i, the left
        multiplication of b_i, is b_i b_j mod J read at those positions."""
        free = free_positions(self.dim, J.pivots)
        if not free:
            return False
        n = len(free)
        residue_mats = [
            mat_of_columns(self.field, n, [[J.reduce(self.mult[i][j])[k] for k in free] for j in free])
            for i in free
        ]
        return all(mat_vec(residue_mats, x).rank() == n
                   for x in itertools.product(self.field.elements(), repeat=n) if any(x))

    # -- radical access ------------------------------------------------------------
    def radical(self, budget: Budget = DEFAULT_BUDGET) -> Subspace:
        """The Jacobson radical: certified when available, else brute-forced."""
        if self.certificate is not None:
            return self.certificate.radical
        if self._radical_cache is None:
            self._radical_cache = radical_bruteforce(self, budget)
        return self._radical_cache

    def blocks(self) -> tuple[Block, ...]:
        if self.certificate is None or not self.certificate.split:
            raise NotSplitError("operation requires a split certificate (matrix-unit blocks)")
        return self.certificate.blocks

    # -- serialization ----------------------------------------------------------------
    def to_json(self) -> dict:
        def enc_coords(coords):
            return [self.field.element_to_json(c) for c in coords]

        out: dict = {
            "field": self.field.to_json(),
            "dim": self.dim,
            "one": enc_coords(self.one),
            "mult": [[enc_coords(self.mult[i][j]) for j in range(self.dim)] for i in range(self.dim)],
        }
        if self.matrix_basis is not None:
            out["matrix_basis"] = [m.to_json() for m in self.matrix_basis]
        if self.certificate is not None:
            cert: dict = {
                "radical_basis": [enc_coords(v) for v in self.certificate.radical.basis_rows],
                "split": self.certificate.split,
                "local": self.certificate.local,
            }
            if self.certificate.split:
                cert["blocks"] = [
                    {"n": b.n, "matrix_units": [enc_coords(u) for u in b.matrix_units]}
                    for b in self.certificate.blocks
                ]
            out["certificate"] = cert
        return out

    @staticmethod
    def from_json(data: dict) -> "Algebra":
        with decoding("algebra", data):
            field = Field.from_json(data["field"])

            def dec_coords(raw, width):
                coords = [field.element_from_json(x, "coordinate") for x in raw]
                if len(coords) != width:
                    raise InputError("coordinate vector has wrong length")
                return tuple(coords)

            dim = json_int(data, "dim")
            matrix_basis = None
            if "matrix_basis" in data:
                matrix_basis = [Mat.from_json(mj, field) for mj in data["matrix_basis"]]
            mult = None
            if "mult" in data:
                mult = [[dec_coords(data["mult"][i][j], dim) for j in range(dim)] for i in range(dim)]
            one = dec_coords(data["one"], dim) if "one" in data else None
            cert_spec = None
            if data.get("certificate"):
                raw = data["certificate"]
                cert_spec = {
                    "radical_basis": [dec_coords(v, dim) for v in raw.get("radical_basis", [])],
                    "blocks": [
                        {"n": json_int(b, "n"), "matrix_units": [dec_coords(u, dim) for u in b["matrix_units"]]}
                        for b in raw.get("blocks", [])
                    ],
                }
                cert_spec.update((flag, json_bool(raw, flag)) for flag in ("split", "local") if flag in raw)
        return algebra_make(field, dim=dim, mult=mult, matrix_basis=matrix_basis, one=one, certificate=cert_spec)


def algebra_make(
    field: Field,
    dim: int | None = None,
    mult=None,
    matrix_basis=None,
    one=None,
    certificate: dict | None = None,
) -> Algebra:
    """Build and fully verify an algebra from structure constants or a
    product-closed matrix basis; rejections name the first failing datum."""
    if matrix_basis is not None:
        matrix_basis = tuple(matrix_basis)
        if not matrix_basis:
            raise InputError("empty matrix basis")
        d = len(matrix_basis)
        if dim is not None and dim != d:
            raise InputError("dim disagrees with matrix basis length")
        nsz = matrix_basis[0].rows
        if any(m.rows != nsz or m.cols != nsz or m.field != field for m in matrix_basis):
            raise InputError("matrix basis must be square matrices over one field")
        tracker = SpanTracker(field, nsz * nsz, d)
        for idx, m in enumerate(matrix_basis):
            if not tracker.add(m.flatten()):
                raise InputError(f"matrix basis element {idx} is dependent on earlier ones")
        derived_mult = []
        for i in range(d):
            row = []
            for j in range(d):
                prod = matrix_basis[i].mul(matrix_basis[j])
                coords = tracker.express(prod.flatten())
                if coords is None:
                    raise InputError(f"matrix basis is not product-closed at pair ({i}, {j})")
                row.append(coords)
            derived_mult.append(tuple(row))
        if mult is not None:
            for i in range(d):
                for j in range(d):
                    if tuple(mult[i][j]) != derived_mult[i][j]:
                        raise InputError(f"supplied structure constants disagree with matrix basis at ({i}, {j})")
        mult = tuple(derived_mult)
        if one is None:
            one = tracker.express(Mat.identity(field, nsz).flatten())
            if one is None:
                raise InputError("matrix basis does not span an identity element")
        dim = d
    else:
        if mult is None or dim is None or one is None:
            raise InputError("need structure constants with dim and identity coordinates, or a matrix basis")
        mult = tuple(tuple(tuple(c) for c in row) for row in mult)
        one = tuple(one)
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise InputError("structure constant table has wrong shape")
        if len(one) != dim or any(len(c) != dim for row in mult for c in row):
            raise InputError("coordinate vector has wrong length")

    cert_obj = None
    if certificate is not None:
        radical = Subspace.from_vectors(field, dim, certificate.get("radical_basis", []))
        split = bool(certificate.get("split", False))
        blocks = tuple(
            Block(int(b["n"]), tuple(tuple(u) for u in b["matrix_units"]))
            for b in certificate.get("blocks", [])
        )
        if split:
            local = len(blocks) == 1 and blocks[0].n == 1  # R/J is a division ring exactly then
            if certificate.get("local", local) != local:
                raise InputError(f"bad certificate: split blocks of sizes {[b.n for b in blocks]} claim "
                                 f"local = {certificate['local']}, but only one block with n = 1 is local")
        else:
            local = bool(certificate.get("local", False))
        cert_obj = CertifiedStructure(radical, split, blocks if split else (), local)

    return Algebra(field, dim, mult, tuple(one), matrix_basis, cert_obj)


# ---------------------------------------------------------------------------
# brute-force radical oracle
# ---------------------------------------------------------------------------

def _action_flats(r: Algebra) -> tuple[list[tuple[int, ...]], int]:
    """Flattened matrices of a faithful representation, one per basis element.

    The matrix basis serves only when it represents 1 as the identity matrix:
    then x is a unit of R iff its matrix is invertible.  A basis of corner
    matrices (1 acting as a proper idempotent) makes every element singular,
    so such an algebra falls back to its left regular representation.
    """
    if r.matrix_basis is not None:
        n = r.matrix_basis[0].rows
        if mat_vec(r.matrix_basis, r.one) == Mat.identity(r.field, n):
            return [m.entries for m in r.matrix_basis], n
    return [L.entries for L in r.left_mats], r.dim


def _diagonal_block_cuts(flats, n: int) -> tuple[int, ...]:
    """The finest cut of 0..n-1 at which every flat n*n matrix in `flats` is
    block upper triangular, or else block lower triangular: the starts of
    the blocks after the first, () when neither side has a cut.  When both
    have one, the side with more blocks wins, upper on a tie.

    A nonzero entry (i, j) below the diagonal forbids an upper cut at every
    c with j < c <= i, and one above the diagonal a lower cut at every c
    with i < c <= j.  One pass over the union of the nonzero entries keeps,
    per index t and side, the farthest index an entry at t reaches; c is a
    cut when nothing before c reaches c.
    """
    # below[j]: the last row i >= j with (i, j) nonzero; above[i]: the last
    # column j >= i with (i, j) nonzero
    below, above = list(range(n)), list(range(n))
    for pos, column in enumerate(zip(*flats)):
        if any(column):
            i, j = divmod(pos, n)
            if i > j:
                below[j] = max(below[j], i)
            elif i < j:
                above[i] = max(above[i], j)

    def cuts(reach):
        out, far = [], 0
        for c in range(1, n):
            far = max(far, reach[c - 1])
            if far < c:
                out.append(c)
        return tuple(out)

    upper, lower = cuts(below), cuts(above)
    return upper if len(upper) >= len(lower) else lower


def _mask_outside_blocks(flats, n: int, cuts) -> list:
    """The flats with every entry outside the diagonal blocks of `cuts` set
    to zero."""
    block = [sum(c <= t for c in cuts) for t in range(n)]
    keep = [block[i] == block[j] for i in range(n) for j in range(n)]
    return [[x if kept else 0 for x, kept in zip(flat, keep)] for flat in flats]


def _odometer_flags(base, flats, n: int, field: Field) -> bytearray:
    """flags[code] = 1 when base + sum_i digit_i * flats[i] has full rank, for
    every code of len(flats) base-q digits (digit i the coefficient of flats[i]).

    An odometer walks the codes, keeping the matrix incrementally (one add of
    a scaled matrix per digit change), and tests each for full rank with a
    column sweep that stops at the first column without a pivot.  The matrices
    are held packed as `_full_rank_kernels` gives them for the field: over F_2
    one word, where a step is one XOR; over F_3 two bit-planes, where a step
    is one bitsliced add; otherwise lists of field codes.

    A digit whose matrix is zero (an idle digit) cannot change a flag, so the
    odometer never turns it.  When the carry reaches an idle digit j, the q^j
    codes below it have just been filled, and that slice is copied q - 1
    times, for the digit values 1..q-1, instead of walked.
    """
    q = field.q
    pack, add, full_rank = _full_rank_kernels(field, n)
    mul = field.tables.mul
    k = len(flats)
    # None marks an idle digit
    scaled = [[None] + [pack([mul[v][x] for x in flat]) for v in range(1, q)] if any(flat) else None
              for flat in flats]
    flags = bytearray(q**k)
    digits = [0] * k
    acc = [pack(base)] * (k + 1)  # acc[j] = base + contribution of digits j..k-1
    code = 0
    while True:
        flags[code] = full_rank(acc[0])
        code += 1
        j = 0
        while j < k and (scaled[j] is None or digits[j] == q - 1):
            if scaled[j] is None:
                width = q**j
                flags[code: code + (q - 1) * width] = flags[code - width: code] * (q - 1)
                code += (q - 1) * width
            digits[j] = 0
            j += 1
        if j == k:
            return flags
        digits[j] += 1
        acc[j] = add(acc[j + 1], scaled[j][digits[j]])
        for i in range(j - 1, -1, -1):
            acc[i] = acc[j]


def _permute_digits(table: bytes, q: int, maps) -> bytearray:
    """out[code] = table[code'], digit i of code' being maps[i][digit i of code].

    The low half of the digits is gathered through one index list, and the
    high half moves whole slices of that size, so no q^len(maps)-long list
    of ints is ever built.
    """
    out = bytearray(table)
    if not maps:
        return out
    low = (len(maps) + 1) // 2

    def offsets(digit_maps, scale):
        # offsets[code] = sum of digit_maps[i][digit i of code] * scale * q^i
        offs = [0]
        for digit_map in digit_maps:
            offs = [o + digit_map[v] * scale for v in range(q) for o in offs]
            scale *= q
        return offs

    width = q**low
    gather = operator.itemgetter(*offsets(maps[:low], 1))
    for start, h in zip(range(0, len(table), width), offsets(maps[low:], width)):
        out[start: start + width] = gather(table[h: h + width])
    return out


def _unit_flags(r: Algebra) -> bytearray:
    """unit[code] = 1 when the element with that coordinate code is invertible.

    The representation's matrices are first cut into diagonal blocks (see
    _diagonal_block_cuts): every element's matrix is then block triangular,
    its determinant is the product of its diagonal blocks' determinants, and
    so it is invertible exactly when the matrix with every entry outside
    those blocks set to zero is.  The scan rank-tests those masked matrices.
    After masking, some basis matrices are zero (the strictly upper matrix
    units of a triangular algebra, the x^i a with i >= 1 of a truncated
    polynomial ring): their digits are idle and never change a flag.

    unit(cx) = unit(x) for every scalar c != 0, so the rank test runs once
    per scalar class: only on the elements whose most significant nonzero
    digit is 1.  For each top digit k an odometer walks the lower digits,
    starting from the matrix of basis element k, on packed words over F_2
    and F_3, and copies the flags across idle digits (see _odometer_flags).
    The segment of leading digit c >= 2 is that segment permuted by the
    digit map x -> c^-1 x.  When digit k itself is idle, every segment of
    top digit k is a copy of the codes below it.
    """
    field = r.field
    q, d = field.q, r.dim
    flats, n = _action_flats(r)
    cuts = _diagonal_block_cuts(flats, n)
    if cuts:
        flats = _mask_outside_blocks(flats, n, cuts)
    inv, mul = field.tables.inv, field.tables.mul
    unit = bytearray(q**d)
    unit[0] = n == 0  # the zero element is a unit only in the zero ring
    for k in range(d):
        width = q**k  # the codes of top digit k and leading digit c are c * width + lower
        if not any(flats[k]):
            unit[width: q * width] = unit[:width] * (q - 1)
            continue
        lead = _odometer_flags(flats[k], flats[:k], n, field)
        unit[width: 2 * width] = lead
        for c in range(2, q):
            unit[c * width: (c + 1) * width] = _permute_digits(lead, q, [mul[inv[c]]] * k)
    return unit


def _quasi_regular_flags(r: Algebra, unit: bytearray) -> bytearray:
    """qr[code] = unit(1 - x): the unit flags permuted by the digit maps
    x_i -> one_i - x_i."""
    sub = r.field.tables.sub
    return _permute_digits(unit, r.field.q, [sub[o] for o in r.one])


def _encode_coords(coords, q: int) -> int:
    code = 0
    for c in reversed(coords):
        code = code * q + c
    return code


def _decode_coords(code: int, q: int, d: int) -> Coords:
    """The d coordinates of a code: base-q digit i is coordinate i."""
    out = []
    for _ in range(d):
        out.append(code % q)
        code //= q
    return tuple(out)


def _coset_representative(basis: RowBasis, x) -> Coords:
    """x reduced by the rows of basis and scaled to most significant nonzero
    coordinate 1: the one code of its coset, up to scalars, that is zero at
    the basis's pivots.  Zero stays zero."""
    tables = basis.field.tables
    v = basis.reduce(x)
    mf = tables.mul[tables.inv[next((c for c in reversed(v) if c), 1)]]
    return tuple([mf[c] for c in v])


def _nilpotent_ideal_defect(r: Algebra, J: Subspace) -> str | None:
    """The first property of a nilpotent two-sided ideal that J lacks:
    "left" or "right" (ideal), "nilpotent", or None when it has them all.
    Column i of R_v is b_i v and of L_v is v b_i, so each basis row v of J
    gives all 2d products with the basis from its two multiplication
    matrices, tested for each i in turn (b_i v, then v b_i); the power chain
    takes x y as R_y x, the combination of R_y's columns by x."""
    d = r.dim
    right_columns = []
    for v in J.basis_rows:
        rv, lv = r.right_mult_mat(v).entries, r.left_mult_mat(v).entries
        columns = [rv[i::d] for i in range(d)]
        for i, column in enumerate(columns):
            if not J.contains_vector(column):
                return "left"
            if not J.contains_vector(lv[i::d]):
                return "right"
        right_columns.append(columns)
    # in an ideal the powers descend; a nonzero power that stops descending never reaches 0
    power = J
    while power.dim:
        products = [vec_combo(r.field, columns, x) for x in power.basis_rows for columns in right_columns]
        nxt = Subspace.from_vectors(r.field, r.dim, products)
        if nxt.dim >= power.dim:
            return "nilpotent"
        power = nxt
    return None


def radical_bruteforce(r: Algebra, budget: Budget = DEFAULT_BUDGET) -> Subspace:
    """Exhaustive quasi-regularity oracle for the Jacobson radical.

    Membership is decided exactly: x is radical iff every element of the
    principal left ideal Rx is quasi-regular (1 - y invertible for all
    y in Rx).  Units can never be radical and are skipped outright.  The
    members verified so far span V, and x is radical iff x - v is (v in V)
    and R(cx) = Rx (c != 0); likewise x is a unit iff x - v is, and 1 - x
    iff 1 - x + v is, so both flags are constant on each coset x + V.  So
    one code stands for each coset up to scalars: the one with zero digits
    at V's pivot columns (already reduced by V) and most significant
    nonzero digit 1.  The codes to visit are held as a byte mask over all
    q^d codes, built once from the flags (top digit 1, non-unit,
    quasi-regular) and walked by bytes.find, so a skipped code costs no
    Python step.  V is kept in RREF, so each verified member adds one pivot
    p, its leading coordinate, and the mask is narrowed by one AND with the
    pattern "digit p is 0".  Each representative is tested once, and a
    rejected one stays rejected while V grows: it is held as a coordinate
    tuple in the mask's form, and after each verified member it is reduced
    again and its code cleared from the mask (if one falls into V the
    oracle has contradicted itself).  The test walks every combination of
    an RREF basis of Rx by an odometer, one scaled basis row added per step.

    The unit flags are computed once per scalar class (see _unit_flags).
    The result is re-verified as a nilpotent two-sided ideal, each product
    with the basis read off a column of R_v or L_v.
    """
    field = r.field
    q, d = field.q, r.dim
    size = q**d
    budget.guard_ring("radical oracle", size)

    unit = _unit_flags(r)
    qr = _quasi_regular_flags(r, unit)
    add, mul = field.tables.add, field.tables.mul

    jbasis = RowBasis(field, d)

    def ideal_inside_qr(x: Coords) -> bool:
        # basis of Rx: row i is b_i x, column i of R_x
        rx = r.right_mult_mat(x).entries
        rows = rref_rows([rx[i::d] for i in range(d)], d, field)[0]
        scaled = [[[mul[c][t] for t in row] for c in range(q)] for row in rows]
        # every combination, by an odometer: acc[j] is the combination
        # of rows j.. by the digits, and a step adds one scaled row
        k = len(rows)
        digits = [0] * k
        acc = [[0] * d] * (k + 1)
        while True:
            j = 0
            while j < k and digits[j] == q - 1:
                digits[j] = 0
                j += 1
            if j == k:
                return True
            digits[j] += 1
            acc[j] = [add[a][b] for a, b in zip(acc[j + 1], scaled[j][digits[j]])]
            for i in range(j):
                acc[i] = acc[j]
            if qr[_encode_coords(acc[j], q)] == 0:
                return False

    # the codes still to visit: top digit 1, non-unit, quasi-regular, and
    # zero at every pivot of the verified span V, so each is its own
    # reduction by V; both flags are constant on the cosets of V
    candidates = (int.from_bytes(qr, "little") & ~int.from_bytes(unit, "little")).to_bytes(size, "little")
    todo = bytearray(size)
    for k in range(d):
        todo[q**k: 2 * q**k] = candidates[q**k: 2 * q**k]
    zero = (0,) * d
    rejected: set = set()
    code = todo.find(1)
    while code >= 0:
        x = _decode_coords(code, q, d)
        if ideal_inside_qr(x):
            jbasis.add(x)
            # x is reduced, so its leading coordinate p is V's new pivot:
            # drop every code whose digit p is nonzero, and the code of each
            # rejected coset, reduced again by the grown V
            width = q ** next(p for p, c in enumerate(x) if c)
            keep = bytearray((b"\1" * width + bytes((q - 1) * width)) * (size // (q * width)))
            rejected = {_coset_representative(jbasis, v) for v in rejected}
            if zero in rejected:
                raise TheoremViolation("radical oracle rejected a member of the verified span")
            for v in rejected:
                keep[_encode_coords(v, q)] = 0
            todo = (int.from_bytes(todo, "little") & int.from_bytes(keep, "little")).to_bytes(size, "little")
        else:
            rejected.add(x)
        code = todo.find(1, code + 1)

    radical = Subspace.from_vectors(field, d, jbasis.snapshot())

    defect = _nilpotent_ideal_defect(r, radical)
    if defect:
        produced = {"left": "non-left-ideal", "right": "non-right-ideal", "nilpotent": "non-nilpotent ideal"}[defect]
        raise TheoremViolation(f"radical oracle produced a {produced}")
    return radical


# ---------------------------------------------------------------------------
# socles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SocleTriple:
    left: Subspace
    right: Subspace
    twosided: Subspace


def socles(r: Algebra, budget: Budget = DEFAULT_BUDGET) -> SocleTriple:
    """Left socle {x : Jx = 0}, right socle {x : xJ = 0}, and their
    intersection (the two-sided socle).  Valid because J is nilpotent.
    Computed once per algebra and then kept."""
    if r._socles_cache is None:
        r._socles_cache = _socles(r, budget)
    return r._socles_cache


def _socles(r: Algebra, budget: Budget) -> SocleTriple:
    J = r.radical(budget)
    if J.dim == 0:
        full = Subspace.full(r.field, r.dim)
        return SocleTriple(full, full, full)
    left_rows = []
    right_rows = []
    for v in J.basis_rows:
        left_rows.extend(r.left_mult_mat(v).row_list())
        right_rows.extend(r.right_mult_mat(v).row_list())
    left = kernel(mat_of_rows(r.field, r.dim, left_rows))
    right = kernel(mat_of_rows(r.field, r.dim, right_rows))
    return SocleTriple(left, right, kernel(mat_of_rows(r.field, r.dim, left_rows + right_rows)))


# ---------------------------------------------------------------------------
# bimodule lengths and the socle graph
# ---------------------------------------------------------------------------

def _corner_lengths(r: Algebra, ideal: Subspace, budget: Budget) -> dict[tuple[int, int], int]:
    """The nonzero corners of a J-killed two-sided ideal X over the split
    semisimple quotient: {(f, e): dim(f X e) / (n_f n_e)}, in (f, e) order,
    where f and e are block idempotents.  X must be killed by J on both
    sides; a corner dimension that the block sizes do not divide means a
    corrupt certificate."""
    blocks = r.blocks()
    J = r.radical(budget)
    zero = (0,) * r.dim
    for v in ideal.basis_rows:
        for j in J.basis_rows:
            if r.mul_coords(j, v) != zero or r.mul_coords(v, j) != zero:
                raise PreconditionError("ideal is not killed by the radical on both sides")
    idempotents = [r.certificate.idempotent(r.field, i) for i in range(len(blocks))]
    lengths = {}
    for fi, f in enumerate(idempotents):
        fx = [r.mul_coords(f, v) for v in ideal.basis_rows]
        for ei, e in enumerate(idempotents):
            dim = row_rank([r.mul_coords(x, e) for x in fx], r.dim, r.field)
            if dim == 0:
                continue
            n_pair = blocks[fi].n * blocks[ei].n
            if dim % n_pair:
                raise TheoremViolation(f"corner dimension {dim} not divisible by {n_pair}: certificate corrupt")
            lengths[(fi, ei)] = dim // n_pair
    return lengths


def bimodule_length(r: Algebra, ideal: Subspace, budget: Budget = DEFAULT_BUDGET) -> int:
    """Length of a J-killed two-sided ideal as a bimodule over the split
    semisimple quotient: sum over block pairs of dim(f X e) / (n_f n_e)."""
    return sum(_corner_lengths(r, ideal, budget).values())


@dataclass(frozen=True)
class SocleGraph:
    """Bipartite graph on quotient blocks with edges where f soc(R) e != 0.

    The vertices are the edge endpoints: a left vertex f has f soc(R) != 0,
    a right vertex e has soc(R) e != 0.  chi is vertices minus edges;
    edge_lengths are bimodule lengths of the corner spaces, parallel to
    edges.
    """

    left_vertices: tuple[int, ...]
    right_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_lengths: tuple[int, ...]
    chi: int

    def __post_init__(self):
        if self.chi != len(self.left_vertices) + len(self.right_vertices) - len(self.edges):
            raise InputError("inconsistent Euler characteristic")
        left, right = set(self.left_vertices), set(self.right_vertices)
        for f, e in self.edges:
            if f not in left or e not in right:
                raise InputError("edge endpoint is not a vertex")
        if any(l < 1 for l in self.edge_lengths):
            raise InputError("edge lengths must be >= 1")

    @property
    def socle_bimodule_length(self) -> int:
        return sum(self.edge_lengths)

    def to_json(self) -> dict:
        return asdict(self)


def socle_graph(r: Algebra, budget: Budget = DEFAULT_BUDGET) -> SocleGraph:
    """The socle graph, read off one pass over the corners f soc(R) e.

    Its vertices are exactly the edge endpoints.  soc(R) J = 0 and the block
    idempotents sum to 1 modulo J, so x = sum_e x e for x in soc(R), and
    f soc(R) is the direct sum of its corners f soc(R) e: it is nonzero iff
    some corner in row f is.  Likewise J soc(R) = 0 makes soc(R) f the sum
    of the corners e soc(R) f."""
    r.blocks()  # NotSplitError before any radical work
    lengths = _corner_lengths(r, socles(r, budget).twosided, budget)
    edges = tuple(lengths)
    left = tuple(sorted({f for f, _ in edges}))
    right = tuple(sorted({e for _, e in edges}))
    return SocleGraph(left, right, edges, tuple(lengths.values()), len(left) + len(right) - len(edges))


def socle_is_central(r: Algebra, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Whether every two-sided-socle element commutes with every element.
    Column i of L_v is v b_i and of R_v is b_i v, so a socle row v is
    central iff L_v = R_v."""
    soc = socles(r, budget).twosided
    return all(r.left_mult_mat(v).entries == r.right_mult_mat(v).entries for v in soc.basis_rows)


def improved_bound(g: SocleGraph) -> int:
    """Sharper right-hand side for the length inequality, from the graph:
    the socle's bimodule length plus a nonnegative chi, or minus the -chi
    smallest edge lengths for a negative one (chi = V - E, so -chi <= E)."""
    if g.chi >= 0:
        return g.socle_bimodule_length + g.chi
    drop = -g.chi
    return g.socle_bimodule_length - sum(sorted(g.edge_lengths)[:drop])
