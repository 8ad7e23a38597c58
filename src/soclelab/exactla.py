"""Exact matrices and subspaces over F_q.

Everything is canonical: a subspace is stored as the reduced row echelon
form of any spanning set, so equality, deduplication and deterministic
search results come for free.  The cost is re-echelonization on each
operation, which is fine at desk scale (dimensions in the tens).

All elimination goes through one core.  `_echelon` is a forward column
sweep over the field tables, and `_reduce` subtracts pivot rows from one
vector.  `_rref` (and its list-returning wrapper `rref_rows`) is the sweep
plus a back-substitution by `_reduce`, `row_rank` the sweep's pivot count,
and `RowBasis`, `SpanTracker`, `Subspace.reduce` and `contains_vector`
reduce through `_reduce`, over every field; tests cross-check them against
a Gauss-Jordan oracle.  Every combination of rows by coefficients
(`Mat.mul`, `Mat.apply`, `mat_vec`) is one `vec_combo`.  `Subspace.full`,
the unit rows and, up to a bound, `full_hyperplanes` and the point tuple of
`enum_coeff_points` are built once per field (or width, or q) and
dimension and then shared.
`enum_pivot_patterns` builds each pivot pattern's row choices once, and
`enum_subspaces` (or `tensorcover`'s scan) picks one per row.

Each linear-algebra question has one entry point: a dimension is
`row_rank`, a span `Subspace.from_vectors` (`_span` for the package's own
vectors), a null space `kernel`, membership `Subspace.contains_vector`,
coordinates over independent vectors `SpanTracker.express` (None off their
span), and a quotient F^n / S is read in S's complement coordinates.  That
is the quotient table: `free_positions` lists the coordinates off S's
pivots, once per shape, and `unit_residuals` gives the residual of each
unit vector modulo S at them, in closed form, with no elimination.

The radical oracle's full-rank test (`_full_rank_kernels`) packs a whole
n*n matrix into Python ints over F_2 (one word, as M4RI packs rows:
Albrecht, Bard & Hart, ACM TOMS 37, 2010) and F_3 (two bit-planes, as in
Boothby & Bradshaw's bitslicing, arXiv:0901.1413), and eliminates column by
column with a few word operations; every other field takes `_echelon` with
stop_at_gap, the tests' oracle for the packed kernels.  The F_2 word
(`_pack_gf2`) also packs `tensorcover`'s coverage residuals over F_2, and
the F_3 bit-planes serve `Mat.mul_is_zero`, the module relations'
zero-product test (`_mul_is_zero_gf3`).

Matrix validation runs only on external input: `Mat(...)`, `Mat.from_rows`
and `Mat.from_json` check shape and entry range.  Every matrix the package
computes itself (sums, products, transposes, actions, ...) is built with the
unchecked `Mat._of`, since its entries are field codes by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, decoding, json_int, json_keys
from .gf import Field

Vec = tuple  # tuple of element codes


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------

def _echelon(rows: list, ncols: int, field: Field, stop_at_gap: bool = False) -> list[int] | None:
    """One forward column sweep: brings `rows` to row echelon form with a
    leading 1 in each pivot row, and returns the pivot columns.

    `rows` is a list the sweep reorders and rebinds in place; the row
    objects themselves are never written, so they may be tuples.  Afterwards
    rows[:len(pivots)] are the pivot rows, each zero left of its pivot and
    with zeros below every pivot, and the rest are zero.  Rows above a pivot
    are left alone: `_rref` back-substitutes, and a rank needs no more.
    With stop_at_gap the sweep returns None at the first column that gets no
    pivot, which is the early exit of a full-rank test.  The radical oracle
    takes it for q other than 2 and 3 (see `_full_rank_kernels`), and the
    tests keep it as the oracle for the packed kernels of F_2 and F_3."""
    sub, mul = field.tables.sub, field.tables.mul
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            if stop_at_gap:
                return None
            continue
        prow = rows[i]
        rows[i] = rows[r]
        head = prow[c]
        if head != 1:
            mf = mul[field.inv(head)]
            prow = [mf[x] for x in prow]
        rows[r] = prow
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                mf = mul[f]
                rows[i] = [sub[x][mf[y]] for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if stop_at_gap and r < ncols:
        return None
    return pivots


def _reduce(v, pivot_rows, sub, mul):
    """v minus v[c] times row, for each (c, row) of pivot_rows in turn; each
    row has a 1 at its pivot c.  Returns v itself when nothing is taken off,
    and a new list otherwise."""
    for c, row in pivot_rows:
        f = v[c]
        if f:
            mf = mul[f]
            v = [sub[x][mf[y]] for x, y in zip(v, row)]
    return v


def _pack_gf2(row) -> int:
    word = 0
    for j, x in enumerate(row):
        if x:
            word |= 1 << j
    return word


# Whole-matrix words: entry t of a flat row-major n*n matrix is bit t, so row
# i holds bits n*i .. n*i+n-1.  Bit n*i of a row-set word stands for row i,
# and rows * pivot_row copies pivot_row into each of those rows' slots at once
# (pivot_row < 2^n, so the copies never carry into each other).

# the codes 0, 1, 2 as the binary digit each contributes to one bit-plane
_ONES_DIGITS = bytes.maketrans(b"\0\1\2", b"010")
_TWOS_DIGITS = bytes.maketrans(b"\0\1\2", b"001")


def _pack_gf3(flat) -> tuple[int, int]:
    """The bit-planes (ones, twos) of a vector over F_3: bit t of `ones` is set
    where entry t is 1, and of `twos` where it is 2 = -1.  The codes, last
    first, become one bytes object, and each plane is read off it as a
    binary numeral by one translate: no Python-level loop over the entries."""
    codes = bytes(flat[::-1])
    return int(codes.translate(_ONES_DIGITS) or b"0", 2), int(codes.translate(_TWOS_DIGITS) or b"0", 2)


def _add_gf3(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Bitsliced sum of two F_3 vectors held as (ones, twos) planes."""
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _full_rank_gf2(word: int, n: int) -> bool:
    """Whether the n*n matrix over F_2 packed in `word` is invertible.

    One elimination step per column, on the whole word: the lowest row with
    a 1 in column c is the pivot, and one XOR adds it to every row with a 1
    there, itself included.  So a row that served as a pivot is zero from
    then on and never serves again.  Returns False at the first column
    without a pivot.
    """
    ends = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit n*i of every row i
    mask = (1 << n) - 1
    for c in range(n):
        rows = (word >> c) & ends
        if not rows:
            return False
        low = rows & -rows
        word ^= rows * ((word >> (low.bit_length() - 1)) & mask)
    return True


def _full_rank_gf3(ones: int, twos: int, n: int) -> bool:
    """Whether the n*n matrix over F_3 with bit-planes (ones, twos) is
    invertible.

    `_full_rank_gf2`'s column steps: the pivot row, scaled to a leading 1
    (its planes swapped when it leads with -1), is subtracted from every row
    with a 1 in column c and added to every one with a -1, itself included,
    in one bitsliced add.  That add is `_add_gf3`'s, inlined: a call per
    column makes the test 15-30 % slower at n >= 6.
    """
    ends = ((1 << n * n) - 1) // ((1 << n) - 1)
    mask = (1 << n) - 1
    for c in range(n):
        plus = (ones >> c) & ends
        minus = (twos >> c) & ends
        rows = plus | minus
        if not rows:
            return False
        shift = (rows & -rows).bit_length() - 1
        p1, p2 = (ones >> shift) & mask, (twos >> shift) & mask
        if (minus >> shift) & 1:
            p1, p2 = p2, p1
        t1, t2 = plus * p2 | minus * p1, plus * p1 | minus * p2
        t = (ones | t2) ^ (twos | t1)
        ones, twos = (twos | t2) ^ t, (ones | t1) ^ t
    return True


def _mul_is_zero_gf3(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    """Whether A B = 0 for n x n matrices over F_3 packed as whole-matrix
    (ones, twos) bit-planes.  Row i of A B sums A[i, t] times row t of B, so
    for each column t the rows of A holding 1 there (a row-set word) take row
    t of B in one multiply, those holding -1 take its negation (its planes
    swapped), and a bitsliced add sums the terms into A B.  That add is
    `_add_gf3`'s, inlined, as in `_full_rank_gf3`."""
    ends = ((1 << n * n) - 1) // ((1 << n) - 1)
    mask = (1 << n) - 1
    a1, a2 = a
    b1, b2 = b
    p1 = p2 = 0
    for t in range(n):
        plus, minus = (a1 >> t) & ends, (a2 >> t) & ends
        if plus | minus:
            r1, r2 = (b1 >> n * t) & mask, (b2 >> n * t) & mask
            t1, t2 = plus * r1 | minus * r2, plus * r2 | minus * r1
            s = (p1 | t2) ^ (p2 | t1)
            p1, p2 = (p2 | t2) ^ s, (p1 | t1) ^ s
    return not (p1 | p2)


def _full_rank_kernels(field: Field, n: int):
    """(pack, add, full_rank) for flat row-major n*n matrices over `field`:
    pack turns a flat into the form the other two take, add sums two packed
    matrices, and full_rank tests one for invertibility.  Over F_2 a matrix
    is one word and over F_3 a pair of bit-planes; otherwise it stays a list
    of field codes, tested by `_echelon` with stop_at_gap."""
    if field.q == 2:
        return _pack_gf2, int.__xor__, lambda word: _full_rank_gf2(word, n)
    if field.q == 3:
        return _pack_gf3, _add_gf3, lambda planes: _full_rank_gf3(*planes, n)
    add = field.tables.add
    starts = range(0, n * n, n)

    def full_rank(flat) -> bool:
        return _echelon([flat[s: s + n] for s in starts], n, field, stop_at_gap=True) is not None

    return list, lambda a, b: [add[x][y] for x, y in zip(a, b)], full_rank


def rref_rows(rows, ncols: int, field: Field) -> tuple[list[list[int]], list[int]]:
    """RREF of a list of row vectors; returns (nonzero rows as new lists, pivot columns)."""
    reduced, pivots = _rref(list(rows), ncols, field)
    return [list(r) for r in reduced], pivots


def _rref(rows: list, ncols: int, field: Field) -> tuple[list, list[int]]:
    """`rref_rows` on a list it reorders and cuts in place.  No row is copied
    or written, so rows may be tuples; one left as it was comes back as is.
    The column sweep gives the echelon rows, and each is then reduced, bottom
    up, by the pivot rows below it.  Those are already reduced, so each is
    zero at the others' pivots and the order they are taken in is free."""
    pivots = _echelon(rows, ncols, field)
    del rows[len(pivots):]
    sub, mul = field.tables.sub, field.tables.mul
    below: list[tuple[int, list[int]]] = []
    for i in range(len(pivots) - 1, -1, -1):
        rows[i] = _reduce(rows[i], below, sub, mul)
        below.append((pivots[i], rows[i]))
    return rows, pivots


def row_rank(rows, ncols: int, field: Field) -> int:
    """Dimension of the span of the given row vectors: the pivot count of
    one column sweep, with no back-substitution."""
    return len(_echelon(list(rows), ncols, field))


# ---------------------------------------------------------------------------
# incremental row space (membership and rank without full re-reduction)
# ---------------------------------------------------------------------------

class RowBasis:
    """Mutable accumulator for a row space, kept in reduced echelon form.

    add() returns True when the vector enlarged the space.  snapshot() emits
    the canonical RREF rows sorted by pivot column.  Pivots are taken only
    among the first ncols coordinates; a row may carry further coordinates,
    which ride along with every row operation (see SpanTracker).
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._by_pivot: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._by_pivot)

    def reduce(self, vec) -> list[int]:
        tables = self.field.tables
        return _reduce(list(vec), self._by_pivot.items(), tables.sub, tables.mul)

    def add(self, vec) -> bool:
        rows = [self.reduce(vec)]
        pivots = _echelon(rows, self.ncols, self.field)  # the leading coordinate, scaled to 1
        if not pivots:
            return False
        pivot, v = pivots[0], rows[0]
        sub, mul = self.field.tables.sub, self.field.tables.mul
        by_pivot = self._by_pivot
        for c, row in by_pivot.items():
            by_pivot[c] = _reduce(row, ((pivot, v),), sub, mul)
        by_pivot[pivot] = v
        return True

    def snapshot(self) -> list[tuple[int, ...]]:
        return [tuple(self._by_pivot[c]) for c in sorted(self._by_pivot)]


class SpanTracker:
    """Row space that can express members as combinations of the vectors added.

    One RowBasis holds rows (vector | coefficient record), with pivots in
    the vector part only: input i enters with the unit record e_i, so each
    reduced row carries how it was built from the inputs.  express() reduces
    (vector | 0); a member of the span leaves (0 | -c), c its coefficients
    over the original input vectors.
    """

    def __init__(self, field: Field, ncols: int, n_inputs: int):
        self.field = field
        self.ncols = ncols
        self.n_inputs = n_inputs
        self._added = 0
        self._basis = RowBasis(field, ncols)

    @property
    def rank(self) -> int:
        return self._basis.rank

    def add(self, vec) -> bool:
        if self._added >= self.n_inputs:
            raise InputError("SpanTracker capacity exceeded")
        record = [0] * self.n_inputs
        record[self._added] = 1
        self._added += 1
        return self._basis.add(list(vec) + record)

    def express(self, vec):
        """Coefficients over the added vectors, or None when not in the span."""
        v = self._basis.reduce(list(vec) + [0] * self.n_inputs)
        if any(v[: self.ncols]):
            return None
        neg = self.field.tables.neg
        return tuple([neg[x] for x in v[self.ncols:]])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mat:
    """Immutable row-major matrix over a fixed finite field.

    `Mat(...)`, `from_rows` and `from_json` validate their input (entry count,
    entry range, ragged rows); they are the entry points for external data.
    `_of` skips the checks and is for entries the package computed itself.
    """

    field: Field
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = self.entries
        if len(entries) != self.rows * self.cols:
            raise InputError(f"matrix literal has {len(entries)} entries, needs {self.rows * self.cols}")
        if entries and (min(entries) < 0 or max(entries) >= self.field.q):
            raise InputError("matrix entry out of field range")

    # construction ----------------------------------------------------------
    @staticmethod
    def _of(field: Field, rows: int, cols: int, entries: tuple[int, ...]) -> "Mat":
        """Unchecked constructor: entries must be a tuple of rows * cols codes.

        The fields are set one at a time, as the dataclass __init__ does;
        going through `__dict__` would give every such matrix a dict of its
        own and add about 130 bytes to each."""
        mat = object.__new__(Mat)
        setattr_ = object.__setattr__
        setattr_(mat, "field", field)
        setattr_(mat, "rows", rows)
        setattr_(mat, "cols", cols)
        setattr_(mat, "entries", entries)
        return mat

    @staticmethod
    def from_rows(field: Field, rows) -> "Mat":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged matrix literal")
        return Mat(field, len(rows), ncols, tuple(x for r in rows for x in r))

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Mat":
        return Mat._of(field, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        """The n x n identity, built once per (field, n) and then shared, as
        every Mat is immutable."""
        return _identity(field, n)

    @staticmethod
    def unit(field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        return Mat._of(field, rows, cols, tuple(1 if (r, c) == (i, j) else 0 for r in range(rows) for c in range(cols)))

    # access ------------------------------------------------------------------
    def __getitem__(self, rc: tuple[int, int]) -> int:
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return self.entries[j::self.cols]

    def row_list(self) -> list[Vec]:
        return [self.row(i) for i in range(self.rows)]

    # arithmetic ----------------------------------------------------------------
    def add(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise InputError("mixed fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")
        add = self.field.tables.add
        return Mat._of(self.field, self.rows, self.cols, tuple([add[a][b] for a, b in zip(self.entries, other.entries)]))

    def scale(self, c: int) -> "Mat":
        mc = self.field.tables.mul[c]
        return Mat._of(self.field, self.rows, self.cols, tuple([mc[a] for a in self.entries]))

    def _check_product(self, other: "Mat"):
        if self.field != other.field:
            raise InputError("mixed fields")
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")

    def _product_rows(self, other: "Mat"):
        """The rows of self * other, one by one: row i is `vec_combo` of B's
        rows by A's row i.  With no rows in B every product row is zero."""
        k, m = self.cols, other.cols
        if not k:
            return itertools.repeat((0,) * m, self.rows)
        a, b = self.entries, other.entries
        brows = [b[t * m: (t + 1) * m] for t in range(k)]
        return (vec_combo(self.field, brows, a[i * k: (i + 1) * k]) for i in range(self.rows))

    def mul(self, other: "Mat") -> "Mat":
        self._check_product(other)
        return Mat._of(self.field, self.rows, other.cols, tuple([x for row in self._product_rows(other) for x in row]))

    def mul_is_zero(self, other: "Mat") -> bool:
        """Whether self * other is the zero matrix, without building it.
        Square matrices over F_3 are tested on whole-matrix bit-planes
        (`_mul_is_zero_gf3`; X X packs X once); every other field or shape
        combines rows and stops at the first nonzero one.  The built product
        is the tests' oracle."""
        self._check_product(other)
        n = self.rows
        if n and n == self.cols == other.cols and self.field.q == 3:
            a = _pack_gf3(self.entries)
            return _mul_is_zero_gf3(a, a if other is self else _pack_gf3(other.entries), n)
        return not any(any(orow) for orow in self._product_rows(other))

    def apply(self, vec) -> Vec:
        """Matrix times column vector: `vec_combo` of the columns by the
        vector's coordinates."""
        cols = self.cols
        if len(vec) != cols:
            raise InputError("vector length mismatch")
        if not cols:
            return (0,) * self.rows
        entries = self.entries
        return vec_combo(self.field, [entries[j::cols] for j in range(cols)], vec)

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self.cols, self.rows, transposed(self.entries, self.cols))

    def flatten(self) -> Vec:
        return self.entries

    # reduction ----------------------------------------------------------------
    def rank(self) -> int:
        return row_rank(self.row_list(), self.cols, self.field)

    # JSON ----------------------------------------------------------------------
    def to_json(self) -> dict:
        enc = self.field.element_to_json
        return {
            "field": self.field.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[enc(self[i, j]) for j in range(self.cols)] for i in range(self.rows)],
        }

    @staticmethod
    def from_json(data: dict, field: Field | None = None) -> "Mat":
        with decoding("matrix", data):
            json_keys(data, ("field", "rows", "cols", "entries"))
            if field is None:
                field = Field.from_json(data.get("field", {}))
            elif "field" in data and Field.from_json(data["field"]) != field:
                raise ValueError("matrix field differs from the enclosing field")
            rows = [[field.element_from_json(x, "matrix entry") for x in row] for row in data["entries"]]
            shape = json_int(data, "rows"), json_int(data, "cols")
        mat = Mat.from_rows(field, rows) if rows else Mat.zero(field, 0, shape[1])
        if (mat.rows, mat.cols) != shape:
            raise InputError("matrix JSON shape disagrees with entries")
        return mat


@lru_cache(maxsize=None)
def _identity(field: Field, n: int) -> Mat:
    return Mat._of(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def mat_vec(mats: list[Mat], coords) -> Mat:
    """Linear combination of matrices with the given coefficients.  A unit
    vector e_i (a basis element's coordinates) returns mats[i] as it is."""
    if not mats:
        raise InputError("empty combination")
    if coords.count(0) == len(coords) - 1 and 1 in coords:
        return mats[coords.index(1)]
    first = mats[0]
    return Mat._of(first.field, first.rows, first.cols, vec_combo(first.field, [m.entries for m in mats], coords))


def mat_of_rows(field: Field, ncols: int, rows) -> Mat:
    """The matrix with the given rows, unchecked: a list of code vectors the
    package computed itself, each of length ncols."""
    return Mat._of(field, len(rows), ncols, tuple(itertools.chain.from_iterable(rows)))


def mat_of_columns(field: Field, nrows: int, columns) -> Mat:
    """The matrix with the given columns, unchecked: a list of code vectors
    the package computed itself, each of length nrows."""
    return Mat._of(field, nrows, len(columns), tuple(itertools.chain.from_iterable(zip(*columns))))


def transposed(entries, cols: int) -> Vec:
    """The entries of the transpose of a row-major matrix with `cols` columns, row-major."""
    return tuple(itertools.chain.from_iterable(entries[j::cols] for j in range(cols)))


def vec_combo(field: Field, vectors, coeffs) -> Vec:
    """The combination sum c_i v_i.  The first term is taken as it is when
    its coefficient is 1, so a single such term (a basis element, or a unit
    structure constant) returns its vector with no arithmetic."""
    add, mul = field.tables.add, field.tables.mul
    out = None
    for c, v in zip(coeffs, vectors):
        if not c:
            continue
        mc = mul[c]
        if out is None:
            out = v if c == 1 else [mc[y] for y in v]
        else:
            out = [add[x][mc[y]] for x, y in zip(out, v)]
    return (0,) * len(vectors[0]) if out is None else tuple(out)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in canonical form: basis rows in RREF, no zero rows.

    Two equal subspaces always have identical basis matrices, so dataclass
    equality and hashing are semantic.
    """

    field: Field
    ambient_dim: int
    basis_rows: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise InputError("vector length disagrees with ambient dimension")
        return Subspace._span(field, ambient_dim, vectors)

    @staticmethod
    def _span(field: Field, ambient_dim: int, vectors) -> "Subspace":
        """Unchecked `from_vectors`, as `Mat._of` is for matrices: the vectors
        are code sequences the package computed itself, each of length
        ambient_dim, in a list `_rref` may reorder, reduced by that one call."""
        reduced, pivots = _rref(vectors, ambient_dim, field)
        return Subspace(field, ambient_dim, tuple(map(tuple, reduced)), tuple(pivots))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, (), ())

    @staticmethod
    @lru_cache(maxsize=None)
    def full(field: Field, ambient_dim: int) -> "Subspace":
        """F_q^n with the unit basis, built once per (field, n) and then
        shared, as every Subspace is immutable."""
        return Subspace(field, ambient_dim, _unit_rows(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    def basis_mat(self) -> Mat:
        if not self.basis_rows:
            return Mat.zero(self.field, 0, self.ambient_dim)
        return mat_of_rows(self.field, self.ambient_dim, self.basis_rows)

    def reduce(self, vec) -> Vec:
        tables = self.field.tables
        return tuple(_reduce(vec, zip(self.pivots, self.basis_rows), tables.sub, tables.mul))

    def contains_vector(self, vec) -> bool:
        tables = self.field.tables
        return not any(_reduce(vec, zip(self.pivots, self.basis_rows), tables.sub, tables.mul))

    def coordinates_of(self, vec) -> Vec:
        """Coefficients of vec in the canonical basis; errors if not a member."""
        coords = tuple(vec[c] for c in self.pivots)
        if not self.contains_vector(vec):
            raise InputError("vector outside subspace")
        return coords

    def contains(self, other: "Subspace") -> bool:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise InputError("ambient mismatch")
        return all(self.contains_vector(v) for v in other.basis_rows)

    def sort_key(self):
        return (self.dim, self.pivots, self.basis_rows)


def kernel(m: Mat) -> Subspace:
    """Right null space {v : m v = 0}, canonical, from one elimination.

    The columns are eliminated in reverse order.  A free column f (in the
    original order) then gives the solution e_f minus the pivot terms, and
    every pivot it meets lies to the right of f, since a reduced row is
    zero left of its pivot in reversed order.  So each solution has its
    leading 1 at f and zeros at the other free columns: the solutions,
    taken by f ascending, are the kernel's RREF as they stand."""
    ncols = m.cols
    reduced, pivots = rref_rows([m.row(i)[::-1] for i in range(m.rows)], ncols, m.field)
    neg = m.field.tables.neg
    pivot_set = set(pivots)  # reversed indices: column j is ncols - 1 - j
    free = [f for f in range(ncols) if ncols - 1 - f not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            v[ncols - 1 - p] = neg[row[ncols - 1 - f]]
        basis.append(tuple(v))
    return Subspace(m.field, ncols, tuple(basis), tuple(free))


# ---------------------------------------------------------------------------
# the quotient table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def free_positions(dim: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates of F^dim off the given pivots, one table per shape:
    the complement coordinates of a quotient by a subspace with those pivots."""
    return tuple(k for k in range(dim) if k not in pivots)


@lru_cache(maxsize=None)
def _unit_rows(dim: int) -> tuple[Vec, ...]:
    """The unit vectors of F^dim, one table per width: codes 0 and 1 are the
    same in every field."""
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def unit_residuals(sub: Subspace) -> list[Vec]:
    """The residual of each unit vector e_k modulo sub, read at sub's free
    positions (it is zero at the pivots): e_k off the pivots, and e_k minus
    its pivot row at a pivot.  Reduction is linear, so the residual of v at
    the free positions is the combination of these by v's coordinates."""
    neg = sub.field.tables.neg
    free = free_positions(sub.ambient_dim, sub.pivots)
    res = list(_unit_rows(len(free)))
    for p, row in zip(sub.pivots, sub.basis_rows):  # ascending, so each lands at index p
        res.insert(p, tuple([neg[row[f]] for f in free]))
    return res


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def num_projective_points(dim: int, q: int) -> int:
    return (q**dim - 1) // (q - 1)


def num_subspaces(dim: int, q: int, max_dim: int) -> int:
    """The number of subspaces of F_q^dim of dimension at most max_dim: the
    Gaussian binomials [dim, d]_q summed over d, each from the last by
    [dim, d + 1] = [dim, d] (q^(dim-d) - 1) / (q^(d+1) - 1)."""
    total = term = 1
    for d in range(min(dim, max_dim)):
        term = term * (q ** (dim - d) - 1) // (q ** (d + 1) - 1)
        total += term
    return total


# the most points (so hyperplanes) of P(F^t) that `enum_coeff_points` and
# `full_hyperplanes` keep: a larger t enumerates them afresh.  Measured with
# tracemalloc on CPython 3.11, a kept tuple of hyperplanes costs 0.80 MB at
# F_2^10 (1,023), the largest kept over F_2, against 1.81 MB at F_2^11, the
# first left out; so each shared tuple stays under 1 MB
_SHARED_POINTS = 1024


def enum_coeff_points(field: Field, dim: int):
    """Canonical representatives of the 1-dim subspaces of F_q^dim.

    Vectors whose first nonzero coordinate is 1; one per projective point,
    in a fixed order (leading position ascending, tail in code order).  Up
    to `_SHARED_POINTS` of them come as one tuple, built once per
    (q, dim) and then shared, as `full_hyperplanes` are; more are
    enumerated afresh, one at a time."""
    if num_projective_points(dim, field.q) > _SHARED_POINTS:
        return _coeff_points(field.q, dim)
    return _shared_points(field.q, dim)


def _coeff_points(q: int, dim: int):
    for lead in range(dim):
        for tail in itertools.product(range(q), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


@lru_cache(maxsize=None)
def _shared_points(q: int, dim: int) -> tuple[Vec, ...]:
    return tuple(_coeff_points(q, dim))


def enum_hyperplanes(s: Subspace):
    """All codimension-1 subspaces of s, canonical, in a fixed order.

    One hyperplane per projective point phi of the coefficient space, in
    `enum_coeff_points` order: the x in s whose coordinates satisfy
    phi . x = 0.  It is built directly in RREF.  Let k be the last index
    with phi[k] != 0; the hyperplane is spanned by
    r_j - (phi[j] / phi[k]) * r_k for every j != k, where r_j are the basis
    rows of s.  Those rows are already reduced: for j > k the coefficient
    is 0 and the row is r_j itself, and for j < k subtracting a multiple of
    r_k leaves r_j's leading 1 in place, since r_k is zero before its pivot
    p_k and zero at every other pivot column.  So the pivots are those of s
    without p_k, and no elimination runs."""
    if s.dim == 0:
        raise InputError("zero subspace has no hyperplanes")
    field = s.field
    sub, mul, inv = field.tables.sub, field.tables.mul, field.tables.inv
    basis, pivots = s.basis_rows, s.pivots
    for phi in enum_coeff_points(field, s.dim):
        k = max(j for j, x in enumerate(phi) if x)
        last_row = basis[k]
        scale = mul[inv[phi[k]]]  # phi[j] -> phi[j] / phi[k]
        rows = []
        for j, row in enumerate(basis):
            if j == k:
                continue
            if phi[j]:
                mf = mul[scale[phi[j]]]
                rows.append(tuple([sub[x][mf[y]] for x, y in zip(row, last_row)]))
            else:
                rows.append(row)
        yield Subspace(field, s.ambient_dim, tuple(rows), pivots[:k] + pivots[k + 1:])


def full_hyperplanes(field: Field, t: int):
    """The hyperplanes of F^t in `enum_hyperplanes` order (none when t = 0).
    Up to `_SHARED_POINTS` of them come as one tuple, enumerated once
    per (field, t) and then shared, as `Subspace.full` is; more are
    enumerated afresh, one at a time."""
    if num_projective_points(t, field.q) > _SHARED_POINTS:
        return enum_hyperplanes(Subspace.full(field, t))
    return _shared_hyperplanes(field, t)


@lru_cache(maxsize=None)
def _shared_hyperplanes(field: Field, t: int) -> tuple[Subspace, ...]:
    return tuple(enum_hyperplanes(Subspace.full(field, t))) if t else ()


def enum_pivot_patterns(field: Field, n: int, dim: int):
    """(pivots, choices) per pivot pattern of the dim-dimensional subspaces
    of F_q^n, in `combinations` order: choices[i] lists row i's RREF rows
    in `product` order, and the pattern's subspaces are their `product`."""
    elements = field.elements()
    for pivots in itertools.combinations(range(n), dim):
        yield pivots, [[(0,) * p + (1,) + tail
                        for tail in itertools.product(*[(0,) if j in pivots else elements for j in range(p + 1, n)])]
                       for p in pivots]


def enum_subspaces(field: Field, n: int, dim: int):
    """All dim-dimensional subspaces of F_q^n, one pick per row from each
    pattern of `enum_pivot_patterns`, RREF by construction."""
    for pivots, choices in enum_pivot_patterns(field, n, dim):
        for rows in itertools.product(*choices):
            yield Subspace(field, n, rows, pivots)


def all_subspaces(field: Field, n: int, dims=None):
    """Every subspace of F_q^n (optionally restricted to given dimensions)."""
    for d in dims if dims is not None else range(n + 1):
        yield from enum_subspaces(field, n, d)
