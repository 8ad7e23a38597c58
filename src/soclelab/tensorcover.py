"""Rank-one coverage of tensor subspaces.

A TensorSubspace is a subspace A of the m*n matrices over F_q, thought of
as a subspace of (row space) tensor (column space).  The two coverage
conditions ask that every projective point of F_q^m occurs as the row
factor of a nonzero rank-one element of A, and dually for column factors.
When both hold, dim(A) >= m + n - 1; a verified instance violating that
bound is reported as a theorem violation (a bug), never as a result.

Both conditions are read from one table per space, `exactla.unit_residuals`:
the residual modulo A of each unit vector, at the free coordinates of A's
RREF (it is zero at the pivots).  Reduction is linear, so b (x) e_j has
residual sum_i b_i res[i n + j] and e_i (x) c has sum_j c_j res[i n + j].  A vector
lies in A exactly when its residual is zero, so the table is exact: the
partners {c : b (x) c in A} are the kernel of b's residual columns.  The
scan and the certification walk the shared point tuple of
`enum_coeff_points`; the certification lays each coordinate's residuals in
every group (`_groups`) end to end, so a point's matrix is one combination,
and the scan combines each group, or over F_2 XORs one word per residual
(`_pack_gf2`) and tests independence in an XOR basis.  The scan walks
`enum_pivot_patterns`, where a pivot row's residual is its negated free
entries: each row choice's is computed once per pattern, and a subspace's
table is assembled from its rows'.  The search and criterion 1 read the
scan's verdicts, and the search builds a `Subspace` only for a satisfier.

Both conditions quantify over projective points rather than all nonzero
vectors: rank-one membership is scalar-homogeneous, so nothing is lost and
the work drops by a factor of (q - 1).  Minimality is decided on hyperplanes
only, which suffices because the conditions are upward monotone (tested).
`check_bound` tests each hyperplane of one space, in `enum_hyperplanes`
order; the exhaustive `search_minimal` instead looks each one up among the
satisfiers it found one dimension down, which it has already enumerated in
full.  Both certify by `_witnessed_report`, one witness table per call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, islice, product
from operator import xor

from .budget import DEFAULT_BUDGET, Budget
from .errors import InputError, PreconditionError, TheoremViolation, decoding, json_int, json_keys
from .exactla import (
    Mat,
    Subspace,
    _pack_gf2,
    _unit_rows,
    enum_coeff_points,
    enum_hyperplanes,
    enum_pivot_patterns,
    free_positions,
    kernel,
    num_projective_points,
    num_subspaces,
    row_rank,
    transposed,
    unit_residuals,
    vec_combo,
)
from .gf import Field


@dataclass(frozen=True)
class TensorSubspace:
    """Subspace of the m*n matrices over F_q, given by an independent basis."""

    field: Field
    m: int
    n: int
    basis: tuple[Mat, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError("tensor factors must be nonzero")
        for mat in self.basis:
            if mat.field != self.field or (mat.rows, mat.cols) != (self.m, self.n):
                raise InputError("basis matrix shape or field mismatch")
        if self.flat().dim != len(self.basis):
            raise InputError("basis matrices are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def flat(self) -> Subspace:
        """The same space as a canonical subspace of F_q^(m*n), row-major."""
        return Subspace.from_vectors(self.field, self.m * self.n, [mat.flatten() for mat in self.basis])

    @staticmethod
    def from_flat(field: Field, m: int, n: int, flat: Subspace) -> "TensorSubspace":
        mats = tuple(Mat._of(field, m, n, row) for row in flat.basis_rows)
        return TensorSubspace(field, m, n, mats)

    @staticmethod
    def full(field: Field, m: int, n: int) -> "TensorSubspace":
        return TensorSubspace.from_flat(field, m, n, Subspace.full(field, m * n))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "n": self.n,
            "basis": [mat.to_json() for mat in self.basis],
        }

    @staticmethod
    def from_json(data: dict) -> "TensorSubspace":
        with decoding("tensor subspace", data):
            json_keys(data, ("field", "m", "n", "basis"))
            field = Field.from_json(data["field"])
            basis = tuple(Mat.from_json(mj, field) for mj in data["basis"])
            m, n = json_int(data, "m"), json_int(data, "n")
        return TensorSubspace(field, m, n, basis)


def rank_one(field: Field, b, c) -> Mat:
    """The matrix b (x) c with entries b_i * c_j."""
    mul = field.mul
    return Mat._of(field, len(b), len(c), tuple(mul(x, y) for x in b for y in c))


# ---------------------------------------------------------------------------
# the coverage conditions
# ---------------------------------------------------------------------------

def _groups(res: list, m: int, n: int, rows: bool) -> tuple[list, int]:
    """(groups, k) of one side: b (x) e_j's residual (e_i (x) c's) is group j (i) combined by the point."""
    return ([res[j::n] for j in range(n)], m) if rows else ([res[i * n:i * n + n] for i in range(m)], n)


def _residual(field: Field, row, free):
    """A pivot row's residual at the free coordinates: its entries there
    negated, packed by `_pack_gf2` into one word over F_2 (where -1 = 1)."""
    neg = field.tables.neg
    return _pack_gf2([row[f] for f in free]) if field.q == 2 else tuple([neg[row[f]] for f in free])


def _covers(field: Field, res: list, m: int, n: int, width: int) -> bool:
    # b is uncovered when its residuals are independent, never when they outnumber the free coordinates
    for rows, count in ((True, n), (False, m)) if n <= m else ((False, m), (True, n)):  # fewer words first
        if count > width:
            continue
        if field.q != 2:
            groups, k = _groups(res, m, n, rows)
            for p in enum_coeff_points(field, k):
                if row_rank([vec_combo(field, g, p) for g in groups], width, field) == count:
                    return False
            continue
        units = _groups(res, m, n, not rows)[0]  # units[t]: coordinate t's word in each group
        combos = [(0,) * count]  # per support mask, from the mask with its lowest bit cleared
        for mask in range(1, 1 << len(units)):
            low = mask & -mask
            combos.append(combo := tuple(map(xor, combos[mask ^ low], units[low.bit_length() - 1])))
            basis = []  # min(w, w ^ b) clears b's top bit from w, and no later basis word sets it
            for w in combo:
                for b in basis:
                    w = min(w, w ^ b)
                if not w:
                    break
                basis.append(w)
            else:
                return False
    return True


def _both_conditions_flat(flat: Subspace, m: int, n: int) -> bool:
    """Both coverage conditions of one space: the scan of one pattern, one choice per row."""
    return next(_coverage_scan(flat.field, m, n, [(flat.pivots, [[row] for row in flat.basis_rows])]))[2]


def _coverage_scan(field: Field, m: int, n: int, patterns):
    """(pivots, rows, holds) for each subspace of the m*n matrices in the
    `enum_pivot_patterns` patterns, holds whether both conditions hold: each
    row choice's residual once per pattern, in lists parallel to the choices."""
    for pivots, choices in patterns:
        width = m * n - len(pivots)
        if min(m, n) > width:  # neither side is tested, so no residual table is built
            for rows in product(*choices):
                yield pivots, rows, True
            continue
        free = free_positions(m * n, pivots)
        residuals = [[_residual(field, row, free) for row in rows] for rows in choices]
        res = [1 << t for t in range(width)] if field.q == 2 else list(_unit_rows(width))
        for p in pivots:  # ascending, so each lands at index p
            res.insert(p, None)
        for rows, picked in zip(product(*choices), product(*residuals)):
            for p, r in zip(pivots, picked):
                res[p] = r
            yield pivots, rows, _covers(field, res, m, n, width)


@dataclass
class CoverageSide:
    holds: bool
    witnesses: list  # (point, partner) pairs for covered points
    failing: tuple | None  # first uncovered projective point, if any

    def to_json(self) -> dict:
        return asdict(self)


def _coverage(flat: Subspace, m: int, n: int, rows: bool, res: list, kernels: dict) -> CoverageSide:
    """One coverage condition, witnessed.  `kernels`, one field's witness
    table, maps each residual matrix, keyed with its group count (its shape),
    to its first partner or (), and each pair to b (x) c flattened."""
    field, width = flat.field, m * n - flat.dim
    groups, k = _groups(res, m, n, rows)
    count, witnesses = len(groups), []
    columns = [tuple(chain.from_iterable(unit)) for unit in zip(*groups)]
    for p in enum_coeff_points(field, k):
        key = (count, vec_combo(field, columns, p))
        if (partner := kernels.get(key)) is None:
            basis = kernel(Mat._of(field, width, count, transposed(key[1], width))).basis_rows
            partner = kernels[key] = basis[0] if basis else ()
        if not partner:
            return CoverageSide(False, witnesses, p)
        pair = (p, partner) if rows else (partner, p)
        if (tensor := kernels.get(pair)) is None:
            tensor = kernels[pair] = rank_one(field, *pair).flatten()
        if not flat.contains_vector(tensor):
            raise TheoremViolation("coverage witness failed membership re-check")
        witnesses.append(pair)
    return CoverageSide(True, witnesses, None)


@dataclass
class CoverageReport:
    m: int
    n: int
    dim_A: int
    cond_b: CoverageSide
    cond_c: CoverageSide
    bound_holds: bool
    minimal: bool | None = None
    violating_hyperplane: TensorSubspace | None = None

    @property
    def both_hold(self) -> bool:
        return self.cond_b.holds and self.cond_c.holds

    def to_json(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "dim_A": self.dim_A,
            "cond_b": self.cond_b.to_json(),
            "cond_c": self.cond_c.to_json(),
            "bound": {"lower": self.m + self.n - 1, "holds": self.bound_holds},
        }
        if self.minimal is not None:
            out["minimal"] = self.minimal
            if self.violating_hyperplane is not None:
                out["violating_hyperplane"] = self.violating_hyperplane.to_json()
        return out


def _witnessed_report(flat: Subspace, m: int, n: int, kernels: dict) -> CoverageReport:
    """Both witnessed coverage conditions of the flat space, from one residual
    table, and dim >= m + n - 1; both holding below the bound raises
    TheoremViolation, since it is an implementation bug by definition."""
    res = unit_residuals(flat)
    cond_b, cond_c = (_coverage(flat, m, n, rows, res, kernels) for rows in (True, False))
    report = CoverageReport(m, n, flat.dim, cond_b, cond_c, flat.dim >= m + n - 1)
    if report.both_hold and not report.bound_holds:
        raise TheoremViolation(
            f"coverage conditions hold but dim {flat.dim} < {m}+{n}-1 for m={m}, n={n}, q={flat.field.q}"
        )
    return report


def check_bound(
    a: TensorSubspace, check_minimality: bool = False, budget: Budget = DEFAULT_BUDGET
) -> CoverageReport:
    """Run both coverage conditions and compare dim(A) with m + n - 1, as
    `_witnessed_report` does.

    With `check_minimality`, a space satisfying both conditions is minimal
    when none of its hyperplanes does; hyperplanes suffice because the
    conditions are upward monotone.  Both scans, the projective points of
    the two sides and then the hyperplanes, are charged to the budget before
    they start, and the first satisfying hyperplane of `enum_hyperplanes` is
    reported in RREF, whatever basis A was given in.
    """
    q = a.field.q
    budget.guard("coverage point enumeration", num_projective_points(a.m, q) + num_projective_points(a.n, q))
    flat = a.flat()
    report = _witnessed_report(flat, a.m, a.n, {})
    if check_minimality and report.both_hold:
        budget.guard("minimality hyperplane enumeration", num_projective_points(a.dim, q))
        hit = next((h for h in enum_hyperplanes(flat) if _both_conditions_flat(h, a.m, a.n)), None)
        report.minimal = hit is None
        if hit is not None:
            report.violating_hyperplane = TensorSubspace.from_flat(a.field, a.m, a.n, hit)
    return report


def check_minimal(a: TensorSubspace, budget: Budget = DEFAULT_BUDGET) -> tuple[bool, TensorSubspace | None]:
    """(minimal, first satisfying hyperplane or None), as `check_bound` with
    `check_minimality` decides them; a space failing a coverage condition
    has no minimality verdict and raises PreconditionError."""
    report = check_bound(a, check_minimality=True, budget=budget)
    if report.minimal is None:
        raise PreconditionError("minimality is only defined for spaces satisfying both coverage conditions")
    return report.minimal, report.violating_hyperplane


# ---------------------------------------------------------------------------
# exhaustive search oracle
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    minimal: list[TensorSubspace]
    complete: bool
    examined: int

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "examined": self.examined,
            "minimal": [t.to_json() for t in self.minimal],
        }


def search_minimal(
    m: int,
    n: int,
    field: Field,
    budget: Budget = DEFAULT_BUDGET,
    threads: int = 1,
) -> SearchResult:
    """Exhaustively enumerate subspaces of the m*n matrices, in increasing
    dimension, and return every one that satisfies both coverage conditions
    and has no satisfying hyperplane.

    Dimensions are scanned low to high, and a satisfier is minimal exactly
    when none of its hyperplanes satisfies both conditions (upward
    monotonicity).  That is decided by lookup, not by re-testing: the
    hyperplanes of a dimension-d satisfier have dimension d - 1, and
    dimension d is scanned only after the scan of d - 1 finished, so the
    satisfiers of d - 1 kept in `below`, by their RREF rows, are all of them.
    Each minimal satisfier is certified by `_witnessed_report` before it is
    reported, with one witness table for the whole call.
    The budget caps the number of subspaces examined, checked before each
    one is tested; on exhaustion the partial result is flagged incomplete.

    The search is sequential.  `threads` accepts only 1: the benchmark's
    coverage-search workload (`perfbench/workloads.py`) still passes
    `threads=1`, and the parameter goes once it no longer does.  Any other
    value is an input error, not a request that is silently ignored.
    """
    if threads != 1:
        raise InputError(f"search_minimal runs sequentially; threads must be 1, got {threads!r}")
    if m < 1 or n < 1:
        raise InputError("tensor factors must be nonzero")
    examined = 0
    minimal: list[Subspace] = []
    kernels: dict = {}
    below: set = set()  # the basis rows of every satisfier of dimension dim - 1
    for dim in range(0, m * n + 1):
        satisfiers: set = set()
        # islice stops at the cap before the scan tests one more subspace
        scan = _coverage_scan(field, m, n, enum_pivot_patterns(field, m * n, dim))
        for pivots, rows, holds in islice(scan, budget.max_enumeration - examined):
            examined += 1
            if not holds:
                continue
            satisfiers.add(rows)
            flat = Subspace(field, m * n, rows, pivots)
            if not below or not any(h.basis_rows in below for h in enum_hyperplanes(flat)):
                # certify what is reported: witnesses re-checked by membership,
                # and a space below the bound raises TheoremViolation; the charged
                # subspace scan bounds it: one walk of the points per satisfier
                if not _witnessed_report(flat, m, n, kernels).both_hold:
                    raise TheoremViolation("search satisfier failed the witnessed coverage check")
                minimal.append(flat)
        below = satisfiers
    minimal.sort(key=Subspace.sort_key)
    complete = examined == num_subspaces(m * n, field.q, m * n)
    return SearchResult([TensorSubspace.from_flat(field, m, n, flat) for flat in minimal], complete, examined)
