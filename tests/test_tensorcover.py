from types import SimpleNamespace

import pytest

from soclelab.budget import Budget
from soclelab.errors import BudgetExceeded, InputError, PreconditionError, TheoremViolation
from soclelab.exactla import (
    Mat,
    Subspace,
    _pack_gf2,
    all_subspaces,
    enum_coeff_points,
    mat_vec,
    num_projective_points,
    unit_residuals,
)
from soclelab.gf import field_make
from soclelab.strongness import predicates
from soclelab.tensorcover import (
    CoverageSide,
    TensorSubspace,
    check_bound,
    check_minimal,
    rank_one,
    search_minimal,
)
from soclelab.gallery import make_corner_family, make_cross
from soclelab import tensorcover

from helpers import (
    coverage_by_partner_kernels,
    coverage_partners,
    coverage_sides,
    coverage_transpose_flat,
    minimal_by_hyperplane_kernels,
    random_invertible,
    to_bilinear,
    transpose_tensor,
)

GF2 = field_make(2)
GF3 = field_make(3)


def brute_coverage(ts: TensorSubspace):
    """Independent oracle: enumerate all projective pairs and test rank-one
    membership directly."""
    field = ts.field
    rows_uncovered = []
    cols_covered = set()
    flat = ts.flat()
    pts_b = list(enum_coeff_points(field, ts.m))
    pts_c = list(enum_coeff_points(field, ts.n))
    rows_ok = True
    for b in pts_b:
        if not any(flat.contains_vector(rank_one(field, b, c).flatten()) for c in pts_c):
            rows_ok = False
    cols_ok = True
    for c in pts_c:
        if not any(flat.contains_vector(rank_one(field, b, c).flatten()) for b in pts_b):
            cols_ok = False
    return rows_ok, cols_ok


def coverage_verdicts(ts: TensorSubspace) -> tuple[bool, bool]:
    """(row coverage holds, column coverage holds), from one `check_bound`."""
    report = check_bound(ts)
    return report.cond_b.holds, report.cond_c.holds


def test_full_space_satisfies_both():
    for field, m, n in ((GF2, 2, 2), (GF3, 2, 3), (GF2, 3, 2)):
        ts = TensorSubspace.full(field, m, n)
        assert check_bound(ts).both_hold


def test_single_rank_one_fails():
    b, c = (1, 0), (1, 0)
    ts = TensorSubspace(GF2, 2, 2, (rank_one(GF2, b, c),))
    report = check_bound(ts)
    side = report.cond_b
    assert not side.holds
    assert side.failing is not None and side.failing != b
    assert not report.cond_c.holds


def test_cross_space_satisfies_and_is_tight():
    for field in (GF2, GF3):
        for m, n in ((2, 2), (3, 4), (1, 1), (2, 1)):
            ts = make_cross(m, n, field)
            report = check_bound(ts)
            assert report.both_hold
            assert ts.dim == m + n - 1
            assert report.bound_holds


def test_witnesses_verify_membership():
    ts = make_cross(2, 3, GF3)
    side = check_bound(ts).cond_b
    for b, c in side.witnesses:
        assert ts.flat().contains_vector(rank_one(GF3, b, c).flatten())
    assert len(side.witnesses) == (3**2 - 1) // 2


def test_solver_agrees_with_brute_force_oracle(rng):
    # dual-route check on random subspaces, including non-square shapes
    for _ in range(60):
        m, n = rng.choice(((2, 2), (2, 3), (3, 2)))
        field = rng.choice((GF2, GF3))
        dim = rng.randrange(0, m * n + 1)
        vectors = [
            tuple(rng.randrange(field.q) for _ in range(m * n)) for _ in range(dim)
        ]
        flat = Subspace.from_vectors(field, m * n, vectors)
        if flat.dim == 0:
            continue
        ts = TensorSubspace.from_flat(field, m, n, flat)
        rows_ok, cols_ok = brute_coverage(ts)
        assert coverage_verdicts(ts) == (rows_ok, cols_ok)


ORACLE_CASES = [
    (2, 2, GF2), (2, 2, GF3), (2, 3, GF2), (3, 2, GF2), (1, 3, GF3), (3, 1, GF2), (2, 2, field_make(2, 2)),
    (1, 2, field_make(5)), (2, 2, field_make(5)),
]


def oracle_side(partners, columns: bool) -> CoverageSide:
    # the witnessed condition read off the oracle's partner spaces; a column
    # witness is reported as (row factor, column point)
    witnesses = []
    for point, partner in partners:
        if partner.dim == 0:
            return CoverageSide(False, witnesses, point)
        other = partner.basis_rows[0]
        witnesses.append((other, point) if columns else (point, other))
    return CoverageSide(True, witnesses, None)


def test_both_conditions_build_the_residual_table_only_for_a_tested_side(monkeypatch):
    # over 2x2 a space of dim 3 or 4 leaves fewer than two free coordinates,
    # so neither side is tested and the space satisfies both conditions.
    # F_2 builds its table as packed words, every other field by unit_residuals
    built = []

    def table(name, build):
        return lambda flat: built.append((name, flat.field.q, flat.dim)) or build(flat)

    monkeypatch.setattr(tensorcover, "unit_residuals", table("residuals", unit_residuals))
    monkeypatch.setattr(tensorcover, "_residual_words", table("words", tensorcover._residual_words))
    for q in (2, 7):
        for flat in all_subspaces(field_make(q), 4, dims=(3, 4)):
            assert tensorcover._both_conditions_flat(flat, 2, 2)
    assert not built
    for q in (2, 7):
        for flat in all_subspaces(field_make(q), 4, dims=(1, 2)):
            tensorcover._both_conditions_flat(flat, 2, 2)
    assert set(built) == {("words", 2, 1), ("words", 2, 2), ("residuals", 7, 1), ("residuals", 7, 2)}


def test_residual_words_pack_the_quotient_table():
    # the F_2 words read off the pivot rows are the packed unit_residuals
    for n in range(1, 7):
        for flat in all_subspaces(GF2, n):
            assert tensorcover._residual_words(flat) == [_pack_gf2(r) for r in unit_residuals(flat)]


def test_packed_conditions_match_the_generic_path(rng):
    # F_2's packed words against the generic path, its oracle: every subspace
    # of the small shapes, then seeded random subspaces of 2x4 and 4x2 at
    # every dimension, with each verdict seen on each shape
    def verdict(flat, m, n):
        packed = tensorcover._both_conditions_flat(flat, m, n)
        assert packed == tensorcover._both_conditions_generic(flat, m, n), (m, n, flat)
        return packed

    for m, n in ((2, 2), (2, 3), (3, 2), (1, 3), (3, 1)):
        assert {verdict(flat, m, n) for flat in all_subspaces(GF2, m * n)} == {True, False}, (m, n)
    for m, n in ((2, 4), (4, 2)):
        spaces = [Subspace.from_vectors(GF2, m * n, [[rng.randrange(2) for _ in range(m * n)] for _ in range(dim)])
                  for dim in range(m * n + 1) for _ in range(40)]
        assert {verdict(flat, m, n) for flat in spaces} == {True, False}, (m, n)


def check_against_the_oracle(flat: Subspace, m: int, n: int, kernels: dict) -> list:
    # the one residual table gives the partner spaces, verdicts and witnesses
    # of both sides that reducing each point's tensors from scratch gives,
    # the column side through the transposed space; returns the partner dims.
    # `kernels` is shared by every space of one case, as in search_minimal
    rows, cols = coverage_sides(flat, m, n)
    res = unit_residuals(flat)
    assert list(coverage_partners(flat, res, m, n, True, kernels)) == rows
    assert list(coverage_partners(flat, res, m, n, False, kernels)) == cols
    both = all(partner.dim for _, partner in rows + cols)
    assert tensorcover._both_conditions_flat(flat, m, n) == both
    ts = TensorSubspace.from_flat(flat.field, m, n, flat)
    report = check_bound(ts)
    assert report.cond_b == oracle_side(rows, columns=False)
    assert report.cond_c == oracle_side(cols, columns=True)
    return [partner.dim for _, partner in rows + cols]


def test_rank_coverage_matches_the_partner_spaces(rng):
    # every subspace of the oracle cases, then random ones of the shapes and
    # fields the cases leave out
    for m, n, field in ORACLE_CASES:
        kernels = {}
        partner_dims = [d for flat in all_subspaces(field, m * n) for d in check_against_the_oracle(flat, m, n, kernels)]
        assert 0 in partner_dims and any(partner_dims), (m, n, field.q)
    for field in (GF2, GF3, field_make(2, 2), field_make(5)):
        for m, n in ((1, 2), (2, 3), (3, 2)):
            kernels = {}
            for _ in range(8):
                dim = rng.randint(0, m * n)
                vectors = [[rng.randrange(field.q) for _ in range(m * n)] for _ in range(dim)]
                check_against_the_oracle(Subspace.from_vectors(field, m * n, vectors), m, n, kernels)


def test_witness_table_matches_the_partner_kernel_oracle(rng):
    # one combination per point and one witness table give each side the
    # oracle's witnesses, in its order, and its failing point.  One table per
    # field serves every shape and both sides, as one search's serves its
    # dimensions, so a key that lost its shape would hand a partner of one
    # width to a matrix of another.  Every subspace, but for 2x3 and 3x2 over
    # F_4: their 565,723 subspaces each would take about 75 s, so they take
    # seeded random ones
    def sides(flat, m, n, table, oracle_table):
        res = unit_residuals(flat)
        got = [tensorcover._coverage(flat, m, n, rows, res, table).to_json() for rows in (True, False)]
        want = [coverage_by_partner_kernels(flat, m, n, rows, res, oracle_table).to_json() for rows in (True, False)]
        assert got == want, (m, n, flat)
        return tuple(side["holds"] for side in got)

    gf4 = field_make(2, 2)
    for field in (GF2, GF3, gf4, field_make(5)):
        table, oracle_table = {}, {}
        for m, n in ((2, 2),) if field.q == 5 else ((2, 2), (2, 3), (3, 2)):
            if field is gf4 and m * n == 6:
                spaces = [Subspace.from_vectors(field, 6, [[rng.randrange(4) for _ in range(6)] for _ in range(dim)])
                          for dim in range(7) for _ in range(30)]
            else:
                spaces = all_subspaces(field, m * n)
            seen = {sides(flat, m, n, table, oracle_table) for flat in spaces}
            assert {row for row, _ in seen} == {col for _, col in seen} == {True, False}, (m, n, field.q)


def test_generic_conditions_test_the_side_of_fewer_words_first(monkeypatch):
    # transposing a space swaps its sides, so every subspace of 2x3 over F_3
    # and its transpose, which runs over every subspace of 3x2, get one
    # verdict whichever side is tested first
    verdicts = set()
    for flat in all_subspaces(GF3, 6):
        verdict = tensorcover._both_conditions_generic(flat, 2, 3)
        assert tensorcover._both_conditions_generic(coverage_transpose_flat(flat, 2, 3), 3, 2) == verdict, flat
        verdicts.add(verdict)
    assert verdicts == {True, False}
    # the zero space fails at the first point of the first side tested: on
    # 2x3 the column side (points of F^3, 2 words each), on 3x2 the row side
    tested = []
    monkeypatch.setattr(tensorcover, "enum_coeff_points", lambda field, k: tested.append(k) or enum_coeff_points(field, k))
    for m, n in ((2, 3), (3, 2), (2, 2)):
        assert not tensorcover._both_conditions_generic(Subspace.zero(GF3, m * n), m, n)
    assert tested == [3, 3, 2]


def test_coverage_is_invariant_under_changes_of_basis(rng):
    # P A Q, for P in GL_m and Q in GL_n, carries b (x) c to (P b) (x) (Q^T c),
    # so it keeps both conditions; transposing A swaps them
    fields = [GF2, GF3, field_make(2, 2), field_make(5)]
    seen = set()
    for _ in range(120):
        field = rng.choice(fields)
        m, n = rng.choice(((1, 2), (2, 1), (2, 2), (2, 3), (3, 2)))
        vectors = [[rng.randrange(field.q) for _ in range(m * n)] for _ in range(rng.randint(1, m * n))]
        ts = TensorSubspace.from_flat(field, m, n, Subspace.from_vectors(field, m * n, vectors))
        p, _ = random_invertible(field, m, rng)
        q, _ = random_invertible(field, n, rng)
        moved = TensorSubspace(field, m, n, tuple(p.mul(t).mul(q) for t in ts.basis))
        sides = coverage_verdicts(ts)
        both = tensorcover._both_conditions_flat(ts.flat(), m, n)
        assert both == all(sides)
        assert coverage_verdicts(moved) == sides
        assert tensorcover._both_conditions_flat(moved.flat(), m, n) == both
        transposed = transpose_tensor(ts)
        assert coverage_verdicts(transposed) == sides[::-1]
        assert tensorcover._both_conditions_flat(transposed.flat(), n, m) == both
        seen.add(sides)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_transpose_duality(rng):
    for _ in range(40):
        m, n = rng.choice(((2, 3), (3, 2), (2, 2)))
        vectors = [tuple(rng.randrange(2) for _ in range(m * n)) for _ in range(3)]
        flat = Subspace.from_vectors(GF2, m * n, vectors)
        if flat.dim == 0:
            continue
        ts = TensorSubspace.from_flat(GF2, m, n, flat)
        assert coverage_verdicts(ts) == coverage_verdicts(transpose_tensor(ts))[::-1]


def test_monotonicity_of_conditions(rng):
    # if a subspace satisfies a condition, so does anything containing it
    for _ in range(30):
        ts = make_cross(2, 2, GF2) if rng.random() < 0.5 else make_cross(2, 3, GF2)
        extra = tuple(rng.randrange(2) for _ in range(ts.m * ts.n))
        bigger_flat = Subspace.from_vectors(GF2, ts.m * ts.n, ts.flat().basis_rows + (extra,))
        bigger = TensorSubspace.from_flat(GF2, ts.m, ts.n, bigger_flat)
        assert check_bound(bigger).both_hold


def test_exhaustive_bound_f2_2x2():
    # every subspace of the 2x2 matrices over F_2 satisfying both conditions
    # has dimension >= 3 (all 67 subspaces scanned)
    total = satisfying = 0
    for flat in all_subspaces(GF2, 4):
        total += 1
        if flat.dim == 0:
            continue
        ts = TensorSubspace.from_flat(GF2, 2, 2, flat)
        if check_bound(ts).both_hold:
            satisfying += 1
            assert ts.dim >= 3
    assert total == 67
    assert satisfying == 16


def test_check_bound_flags():
    report = check_bound(TensorSubspace.full(GF2, 2, 2))
    assert report.both_hold and report.bound_holds  # 4 >= 3
    small = TensorSubspace(GF2, 2, 2, (rank_one(GF2, (1, 0), (1, 0)),))
    report2 = check_bound(small)
    assert not report2.both_hold
    assert not report2.bound_holds


def test_minimality_cross_and_full():
    # over F_3, the cross space is tight, so every hyperplane violates the
    # bound and minimality is automatic
    ts = make_cross(2, 2, GF3)
    is_min, witness = check_minimal(ts)
    assert is_min and witness is None
    full = TensorSubspace.full(GF2, 2, 2)
    is_min2, witness2 = check_minimal(full)
    assert not is_min2
    assert witness2 is not None and witness2.dim == 3
    assert check_bound(witness2).both_hold


def test_minimality_precondition():
    small = TensorSubspace(GF2, 2, 2, (rank_one(GF2, (1, 0), (1, 0)),))
    with pytest.raises(PreconditionError):
        check_minimal(small)


def test_corner_family_minimality_split():
    ts3 = make_corner_family(3, 3, 2, GF3)
    is_min, _ = check_minimal(ts3)
    assert is_min
    ts2 = make_corner_family(3, 3, 3, GF2)
    is_min2, witness = check_minimal(ts2)
    assert not is_min2
    assert witness is not None
    assert check_bound(witness).both_hold
    assert witness.dim == ts2.dim - 1


def test_minimality_scan_is_charged_to_the_budget():
    full = TensorSubspace.full(GF2, 2, 2)
    hyperplanes = num_projective_points(full.dim, GF2.q)
    with pytest.raises(BudgetExceeded) as info:
        check_minimal(full, Budget(max_enumeration=hyperplanes - 1))
    assert info.value.what == "minimality hyperplane enumeration"
    assert info.value.needed == hyperplanes
    assert check_minimal(full, Budget(max_enumeration=hyperplanes))[0] is False
    with pytest.raises(BudgetExceeded):
        check_bound(full, check_minimality=True, budget=Budget(max_enumeration=hyperplanes - 1))
    assert check_bound(full, check_minimality=True, budget=Budget(max_enumeration=hyperplanes)).minimal is False


def test_check_minimal_matches_the_per_hyperplane_oracle():
    # the closed-form hyperplanes of A's RREF give the verdict and the first
    # satisfying hyperplane, basis included, that building each hyperplane
    # from a kernel in A's own basis gives
    not_minimal = 0
    for m, n, field, satisfiers in ((2, 2, GF2, 16), (2, 2, GF3, 41), (2, 3, GF2, 85)):
        seen = 0
        for flat in all_subspaces(field, m * n):
            if not tensorcover._both_conditions_flat(flat, m, n):
                continue
            ts = TensorSubspace.from_flat(field, m, n, flat)
            expected = minimal_by_hyperplane_kernels(ts)
            assert check_minimal(ts) == expected
            seen += 1
            not_minimal += not expected[0]
        assert seen == satisfiers, (m, n, field.q)
    assert not_minimal == 24


def recombined(ts: TensorSubspace, g: Mat) -> TensorSubspace:
    """A's basis recombined by the invertible matrix g: row i of g gives the
    coordinates of basis matrix i."""
    return TensorSubspace(ts.field, ts.m, ts.n, tuple(mat_vec(list(ts.basis), g.row(i)) for i in range(g.rows)))


def test_minimality_report_does_not_depend_on_the_basis(rng):
    # the report of A given in RREF, with its basis shuffled, and recombined
    # by an invertible matrix: same verdicts, witnesses and hyperplane
    full = TensorSubspace.full(GF3, 2, 2)
    b = full.basis
    cases = [
        (make_corner_family(3, 3, 3, GF2), None),
        (full, TensorSubspace(GF3, 2, 2, (b[0].add(b[1]), b[1], b[3], b[2].scale(2)))),
    ]
    for field, m, n in ((GF3, 2, 2), (GF2, 2, 3), (GF2, 3, 2)):
        while True:
            vectors = [[rng.randrange(field.q) for _ in range(m * n)] for _ in range(rng.randint(m + n - 1, m * n))]
            flat = Subspace.from_vectors(field, m * n, vectors)
            if tensorcover._both_conditions_flat(flat, m, n):
                cases.append((TensorSubspace.from_flat(field, m, n, flat), None))
                break
    minimal = set()
    for ts, given in cases:
        rref = TensorSubspace.from_flat(ts.field, ts.m, ts.n, ts.flat())
        expected = check_bound(rref, check_minimality=True).to_json()
        shuffled = list(ts.basis)
        rng.shuffle(shuffled)
        others = [TensorSubspace(ts.field, ts.m, ts.n, tuple(shuffled)), recombined(ts, random_invertible(ts.field, ts.dim, rng)[0])]
        for other in others + ([given] if given else []):
            assert other.flat() == rref.flat()
            assert check_bound(other, check_minimality=True).to_json() == expected
        minimal.add(expected["minimal"])
    assert minimal == {True, False}


@pytest.mark.parametrize("m, n, q", [(2, 2, 2), (2, 2, 3), (1, 3, 2), (3, 2, 2), (2, 3, 2)])
def test_search_minimal_agrees_with_check_minimal(m, n, q):
    # check_minimal re-tests every hyperplane; search_minimal looks them up
    # among the satisfiers one dimension down
    field = field_make(q)
    expected = []
    for flat in all_subspaces(field, m * n):
        ts = TensorSubspace.from_flat(field, m, n, flat)
        if check_bound(ts).both_hold and check_minimal(ts)[0]:
            expected.append(flat.sort_key())
    assert expected
    result = search_minimal(m, n, field)
    assert result.complete
    assert sorted(t.flat().sort_key() for t in result.minimal) == sorted(expected)


@pytest.mark.parametrize("q", [2, 3])
def test_search_minimal_lookup_finds_a_lone_satisfying_hyperplane(q, monkeypatch):
    # On every shape small enough for a test, each non-minimal coverage
    # satisfier has several satisfying hyperplanes, so comparing with
    # check_minimal cannot catch a lookup that misses one.  The upward-closed
    # family of superspaces of one subspace `gen` can: a
    # superspace of dimension dim(gen) + 1 has gen as its only satisfying
    # hyperplane, and gen takes every position in the hyperplane order.
    # That family is not a coverage family, so the certification of each
    # reported space is stubbed out too.
    field = field_make(q)
    monkeypatch.setattr(tensorcover, "_witnessed_report", lambda flat, m, n, kernels: SimpleNamespace(both_hold=True))
    for gen in all_subspaces(field, 3, dims=(1, 2)):
        monkeypatch.setattr(tensorcover, "_both_conditions_flat", lambda flat, m, n, gen=gen: flat.contains(gen))
        result = search_minimal(1, 3, field)
        assert result.complete
        assert [t.flat() for t in result.minimal] == [gen]


def test_search_minimal_certifies_what_it_reports(monkeypatch):
    # a fast scan that accepts every nonzero space is caught by the witnessed
    # check, and one the witnessed check also accepts by the bound
    monkeypatch.setattr(tensorcover, "_both_conditions_flat", lambda flat, m, n: flat.dim >= 1)
    with pytest.raises(TheoremViolation, match="witnessed coverage check"):
        search_minimal(2, 2, GF2)
    holding = CoverageSide(True, [], None)
    monkeypatch.setattr(tensorcover, "_coverage", lambda flat, m, n, rows, res, kernels: holding)
    with pytest.raises(TheoremViolation, match="dim 1 < 2\\+2-1"):
        search_minimal(2, 2, GF2)


def test_search_minimal_computes_one_kernel_per_residual_matrix(monkeypatch):
    # the witness table of one search: each distinct residual matrix has its
    # kernel computed once and each distinct witness pair its rank-one vector,
    # while every point of every certified space is still re-checked by
    # membership (8 row and 8 column points over F_7)
    matrices, pairs, rechecks = [], [], []
    real_kernel, real_rank_one, real_contains = tensorcover.kernel, tensorcover.rank_one, Subspace.contains_vector

    def counted_kernel(mat):
        matrices.append((mat.rows, mat.cols, mat.entries))
        return real_kernel(mat)

    def counted_rank_one(field, b, c):
        pairs.append((b, c))
        return real_rank_one(field, b, c)

    def counted_contains(self, vec):
        rechecks.append(vec)
        return real_contains(self, vec)

    monkeypatch.setattr(tensorcover, "kernel", counted_kernel)
    monkeypatch.setattr(tensorcover, "rank_one", counted_rank_one)
    monkeypatch.setattr(Subspace, "contains_vector", counted_contains)
    result = search_minimal(2, 2, field_make(7))
    assert len(result.minimal) == 400
    assert len(matrices) == len(set(matrices)) == 49
    assert len(pairs) == len(set(pairs)) == 64
    assert len(rechecks) == 16 * 400


def test_search_minimal_rejects_empty_factors():
    # checked before any enumeration, as TensorSubspace checks its shape
    for m, n in ((0, 2), (2, 0), (-1, 2), (0, 0)):
        with pytest.raises(InputError, match="tensor factors must be nonzero"):
            search_minimal(m, n, GF2)


def test_search_minimal_2x2_f2():
    result = search_minimal(2, 2, GF2)
    assert result.complete
    assert result.minimal
    assert all(t.dim == 3 for t in result.minimal)
    cross_flat = make_cross(2, 2, GF2).flat()
    assert any(t.flat() == cross_flat for t in result.minimal)
    # deterministic order
    again = search_minimal(2, 2, GF2)
    assert [t.flat() for t in again.minimal] == [t.flat() for t in result.minimal]


def test_search_minimal_degenerate_shapes():
    result = search_minimal(2, 1, GF2)
    assert result.complete
    assert len(result.minimal) == 1
    assert result.minimal[0].flat() == Subspace.full(GF2, 2)
    tiny = search_minimal(1, 1, GF3)
    assert len(tiny.minimal) == 1 and tiny.minimal[0].dim == 1


def test_search_budget_exhaustion_flagged():
    result = search_minimal(2, 2, GF2, budget=Budget(max_enumeration=10))
    assert not result.complete
    assert result.examined <= 10


def test_to_bilinear_condition_mapping(rng):
    # row coverage of the tensor space maps to the kernel condition of the
    # induced system, column coverage to the image condition
    samples = [make_cross(2, 2, GF2), make_cross(2, 3, GF3), make_corner_family(3, 3, 2, GF3)]
    for _ in range(20):
        m, n = rng.choice(((2, 2), (2, 3)))
        vectors = [tuple(rng.randrange(2) for _ in range(m * n)) for _ in range(rng.randrange(1, 4))]
        flat = Subspace.from_vectors(GF2, m * n, vectors)
        if flat.dim:
            samples.append(TensorSubspace.from_flat(GF2, m, n, flat))
    for ts in samples:
        system = to_bilinear(ts)
        preds = predicates(system)
        assert preds.nondegenerate
        assert (preds.cond_b, preds.cond_c) == coverage_verdicts(ts)


def test_to_bilinear_examples():
    cross = to_bilinear(make_cross(2, 2, GF2))
    preds = predicates(cross)
    assert preds.nondegenerate and preds.cond_b and preds.cond_c

    # zero-padded single rank one: nondegenerate but fails the kernel condition
    single = TensorSubspace(GF2, 2, 2, (rank_one(GF2, (1, 0), (1, 0)),))
    preds2 = predicates(to_bilinear(single))
    assert preds2.nondegenerate and not preds2.cond_b

    corner = to_bilinear(make_corner_family(3, 3, 2, GF3))
    preds3 = predicates(corner)
    assert preds3.nondegenerate and preds3.cond_b and preds3.cond_c


def test_tensor_validation():
    with pytest.raises(InputError):
        TensorSubspace(GF2, 2, 2, (rank_one(GF2, (1, 0), (1, 0)),) * 2)  # dependent
    with pytest.raises(InputError):
        TensorSubspace(GF2, 2, 2, (rank_one(GF2, (1, 0), (1, 0, 0)),))  # shape


def test_json_round_trip():
    ts = make_corner_family(3, 3, 2, GF3)
    again = TensorSubspace.from_json(ts.to_json())
    assert again.flat() == ts.flat()
    assert again.m == ts.m and again.n == ts.n


@pytest.mark.parametrize("cap", [5, 38, 700, 2400])
def test_search_stops_at_the_cap(cap):
    # 2x3 over F_2 has 1, 63, 651, 1395, 651, ... subspaces by dimension; the
    # pivot patterns of dimension 1 hold 32, 16, 8, ... of them.  The caps stop
    # inside the first and the second pattern of dimension 1, and inside
    # dimensions 2 and 4
    result = search_minimal(2, 3, GF2, budget=Budget(max_enumeration=cap))
    assert result.examined == cap
    assert not result.complete
    if cap == 2400:
        assert len(result.minimal) == 10  # a prefix of dimension 4 holds minimal spaces


@pytest.mark.parametrize("cap, complete, minimal", [
    (63, False, 0), (64, False, 0), (65, False, 0), (2824, False, 63), (2825, True, 63),
])
def test_search_cap_at_the_dimension_boundaries(cap, complete, minimal):
    # 2x3 over F_2 has 1 + 63 subspaces of dimension <= 1 and 2,825 in all,
    # the last of them the full space of dimension 6: a cap spent inside,
    # at the end of or just past a dimension examines exactly the cap, and
    # only the total completes the search
    result = search_minimal(2, 3, GF2, budget=Budget(max_enumeration=cap))
    assert (result.examined, result.complete, len(result.minimal)) == (cap, complete, minimal)


def test_search_is_sequential_only():
    # `threads` is kept for callers that pass 1; any other value is refused
    assert search_minimal(2, 2, GF2, threads=1).complete
    for threads in (2, 0):
        with pytest.raises(InputError, match="threads must be 1"):
            search_minimal(2, 2, GF2, threads=threads)
