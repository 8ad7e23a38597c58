import itertools

import pytest

from soclelab import exactla
from soclelab.corpus import square_zero_matrices
from soclelab.errors import InputError
from soclelab.exactla import (
    Mat,
    RowBasis,
    SpanTracker,
    Subspace,
    all_subspaces,
    enum_coeff_points,
    enum_hyperplanes,
    enum_subspaces,
    free_positions,
    kernel,
    mat_vec,
    num_projective_points,
    num_subspaces,
    row_rank,
    rref_rows,
    unit_residuals,
    vec_combo,
)
from soclelab.gf import Field, field_make

from helpers import (
    enum_points,
    enum_subspaces_by_free_entries,
    gaussian_binomial,
    matrix_combination,
    rref_gauss_jordan,
    solve,
)

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)
# every field the table-indexed kernels are cross-checked on
ORACLE_FIELDS = [field_make(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


def random_mat(field, rows, cols, rng):
    return Mat.from_rows(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


# -- rref ---------------------------------------------------------------------

def test_rref_identity_and_zero():
    ident = Mat.identity(GF2, 3)
    assert rref_rows(ident.row_list(), 3, GF2) == ([list(r) for r in ident.row_list()], [0, 1, 2])
    assert rref_rows(Mat.zero(GF2, 2, 4).row_list(), 4, GF2) == ([], [])


def test_rref_rank_one_dependent_rows():
    # second row is twice the first over F_3: 2 * (1, 2) = (2, 1)
    assert rref_rows([(1, 2), (2, 1)], 2, GF3) == ([[1, 2]], [0])


def test_rref_is_canonical_and_idempotent(rng):
    for field in (GF2, GF3, GF4):
        for _ in range(40):
            m = random_mat(field, 4, 5, rng)
            red, pivots = rref_rows(m.row_list(), 5, field)
            assert rref_rows(red, 5, field) == (red, pivots)


def _shaped_rows(field, nrows, ncols, rng):
    """Random rows, about a third of them zero, with some columns all zero."""
    dead = {j for j in range(ncols) if rng.random() < 0.25}
    rows = [[0 if j in dead else rng.randrange(field.q) for j in range(ncols)] for _ in range(nrows)]
    for row in rows:
        if rng.random() < 0.3:
            row[:] = [0] * ncols
    return rows


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_and_row_rank_match_gauss_jordan(field, rng):
    # wide (3 x 8), tall (8 x 3), square, no rows, no columns, all zero, and
    # random shapes; rows given as lists and as tuples, which stay unchanged
    shapes = [(3, 8), (8, 3), (5, 5), (0, 4), (4, 0), (1, 1)] + [
        (rng.randint(0, 7), rng.randint(0, 7)) for _ in range(40)]
    for nrows, ncols in shapes:
        for _ in range(5):
            rows = _shaped_rows(field, nrows, ncols, rng)
            want = rref_gauss_jordan(rows, ncols, field)
            for given in (rows, [tuple(r) for r in rows]):
                before = [list(r) for r in given]
                assert rref_rows(given, ncols, field) == want
                assert row_rank(given, ncols, field) == len(want[1])
                assert [list(r) for r in given] == before
    assert rref_rows([[0] * 3] * 4, 3, field) == ([], []) and row_rank([[0] * 3] * 4, 3, field) == 0


@pytest.mark.parametrize("field", [field_make(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (7, 1), (3, 2))], ids=repr)
def test_rref_core_matches_the_list_wrapper_and_writes_no_row(field, rng):
    # `_rref`, behind `Subspace._span`, reorders the list it gets but copies
    # and writes no row: each input row, list or tuple, keeps its entries,
    # and the rows and pivots are those of `rref_rows`
    for _ in range(80):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rows = _shaped_rows(field, nrows, ncols, rng)
        want = rref_rows([list(r) for r in rows], ncols, field)
        for given in (rows, [tuple(r) for r in rows]):
            before = [list(r) for r in given]
            reduced, pivots = exactla._rref(list(given), ncols, field)
            assert ([list(r) for r in reduced], pivots) == want
            assert [list(r) for r in given] == before
            span = Subspace._span(field, ncols, list(given))
            assert (span.basis_rows, span.pivots) == (tuple(map(tuple, want[0])), tuple(want[1]))


# -- kernels and images ---------------------------------------------------------

def test_kernel_examples():
    assert kernel(Mat.identity(GF2, 3)).dim == 0
    full = kernel(Mat.zero(GF2, 1, 3))
    assert full.dim == 3
    k = kernel(Mat.from_rows(GF2, [[1, 1, 0]]))
    assert k.dim == 2
    assert k.contains_vector((1, 1, 0))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_vec_combo_matches_the_termwise_sum(field, rng):
    # all-zero, single unit, single non-unit and random coefficients, on
    # tuple and list vectors
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 5)
        vectors = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.5:
            vectors = [tuple(v) for v in vectors]
        at, c = rng.randrange(k), rng.randrange(1, field.q)
        for coeffs in ([0] * k, [1 if i == at else 0 for i in range(k)], [c if i == at else 0 for i in range(k)],
                       [rng.randrange(field.q) for _ in range(k)]):
            want = [0] * n
            for ci, v in zip(coeffs, vectors):
                want = [field.add(x, field.mul(ci, y)) for x, y in zip(want, v)]
            got = vec_combo(field, vectors, coeffs)
            assert type(got) is tuple and got == tuple(want)


def kernel_by_two_eliminations(m: Mat) -> Subspace:
    """Solutions from the RREF of m's rows, then made canonical by a second
    elimination."""
    reduced, pivots = rref_rows(m.row_list(), m.cols, m.field)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [0] * m.cols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            v[p] = m.field.neg(row[f])
        basis.append(v)
    return Subspace.from_vectors(m.field, m.cols, basis)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_kernel_matches_the_two_elimination_construction(field, rng):
    for _ in range(600):
        rows, cols = rng.randint(0, 6), rng.randint(0, 8)
        density = rng.random()
        m = Mat.from_rows(field, [[rng.randrange(field.q) if rng.random() < density else 0 for _ in range(cols)]
                                  for _ in range(rows)]) if rows else Mat.zero(field, 0, cols)
        got, want = kernel(m), kernel_by_two_eliminations(m)
        assert (got.basis_rows, got.pivots) == (want.basis_rows, want.pivots)
        assert all(type(v) is tuple for v in got.basis_rows)


def test_kernel_image_rank_nullity(rng):
    for field in (GF2, GF3):
        for _ in range(40):
            m = random_mat(field, 3, 5, rng)
            assert kernel(m).dim + m.rank() == m.cols
            assert Subspace.from_vectors(field, m.rows, m.transpose().row_list()).dim == m.rank()
            for v in kernel(m).basis_rows:
                assert not any(m.apply(v))


def test_solve(rng):
    for _ in range(40):
        m = random_mat(GF3, 3, 4, rng)
        x = tuple(rng.randrange(3) for _ in range(4))
        target = m.apply(x)
        found = solve(m, target)
        assert found is not None
        assert m.apply(found) == target
    assert solve(Mat.zero(GF2, 2, 2), (1, 0)) is None


# -- subspace lattice -------------------------------------------------------------

def test_subspace_ops_examples():
    plane = Subspace.from_vectors(GF2, 2, [(1, 0), (0, 1)])
    line = Subspace.from_vectors(GF2, 2, [(1, 1)])
    assert plane.contains(line) is True
    assert line.contains(plane) is False
    assert line == Subspace.from_vectors(GF2, 2, [(1, 1), (0, 0)])
    with pytest.raises(InputError, match="ambient mismatch"):
        line.contains(Subspace.full(GF2, 3))


@pytest.mark.parametrize("q,max_n", [(2, 4), (3, 4), (5, 4)])
def test_unit_residuals_match_reducing_each_unit_vector(q, max_n):
    # the closed-form quotient table against reducing e_k from scratch and
    # reading it off the pivots, on every subspace of F_q^n
    field = field_make(q)
    for n in range(max_n + 1):
        units = Subspace.full(field, n).basis_rows
        for s in all_subspaces(field, n):
            free = free_positions(n, s.pivots)
            assert free == tuple(sorted(set(range(n)) - set(s.pivots)))
            assert unit_residuals(s) == [tuple(s.reduce(e)[k] for k in free) for e in units]


def test_canonical_equality(rng):
    # shuffled spanning sets of the same space give identical objects
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        a = Subspace.from_vectors(GF3, 4, rows)
        mixed = [vec_combo(GF3, [tuple(r) for r in rows], tuple(rng.randrange(3) for _ in rows))
                 for _ in range(6)]
        b = Subspace.from_vectors(GF3, 4, [v for v in mixed if any(v)])
        assert b.dim <= a.dim
        if b.dim == a.dim:
            assert a == b


# -- enumeration --------------------------------------------------------------------

@pytest.mark.parametrize("q,dim,expected", [(2, 2, 3), (3, 2, 4), (2, 3, 7), (3, 3, 13)])
def test_enum_points_counts(q, dim, expected):
    field = field_make(q)
    pts = list(enum_points(Subspace.full(field, dim)))
    assert len(pts) == expected == num_projective_points(dim, q)
    # pairwise non-proportional, and every nonzero vector is proportional to exactly one
    for i, p1 in enumerate(pts):
        for p2 in pts[i + 1:]:
            for c in range(1, q):
                assert tuple(field.mul(c, x) for x in p1) != p2
    covered = set()
    for p in pts:
        for c in range(1, q):
            covered.add(tuple(field.mul(c, x) for x in p))
    assert len(covered) == q**dim - 1


def test_enum_points_of_proper_subspace():
    s = Subspace.from_vectors(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    pts = list(enum_points(s))
    assert len(pts) == 3
    for p in pts:
        assert s.contains_vector(p)


def test_enum_hyperplanes_counts():
    assert len(list(enum_hyperplanes(Subspace.full(GF2, 2)))) == 3
    assert len(list(enum_hyperplanes(Subspace.full(GF3, 3)))) == 13
    line = Subspace.from_vectors(GF2, 3, [(1, 0, 1)])
    hyps = list(enum_hyperplanes(line))
    assert len(hyps) == 1 and hyps[0].dim == 0
    for h in enum_hyperplanes(Subspace.full(GF3, 3)):
        assert h.dim == 2


def _hyperplanes_by_kernel(s):
    """The kernel-based construction: one 1 x d kernel per coefficient point."""
    field, basis = s.field, list(s.basis_rows)
    for phi in enum_coeff_points(field, s.dim):
        coeff_kernel = kernel(Mat.from_rows(field, [phi]))
        vectors = [vec_combo(field, basis, c) for c in coeff_kernel.basis_rows]
        yield Subspace.from_vectors(field, s.ambient_dim, vectors)


def _hyperplanes_by_elimination(s):
    """The construction the closed form replaced: r_j - phi[j] * r_lead for
    every j != lead, phi's leading 1, then put in canonical form by rref."""
    field, basis = s.field, s.basis_rows
    sub, mul = field.tables.sub, field.tables.mul
    for phi in enum_coeff_points(field, s.dim):
        lead = phi.index(1)
        vectors = [
            [sub[x][mul[phi[j]][y]] for x, y in zip(row, basis[lead])]
            for j, row in enumerate(basis) if j != lead
        ]
        yield Subspace.from_vectors(field, s.ambient_dim, vectors)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_enum_hyperplanes_matches_kernel_construction(field, rng):
    # rows and pivots alike (Subspace equality), against both references, and
    # the closed-form rows are already their own RREF
    for ambient in range(1, 7):
        for dim in range(1, min(5, ambient) + 1):
            if num_projective_points(dim, field.q) > 1000:
                continue
            for _ in range(3):
                vectors = [[rng.randrange(field.q) for _ in range(ambient)] for _ in range(dim)]
                s = Subspace.from_vectors(field, ambient, vectors)
                if s.dim == 0:
                    continue
                closed = list(enum_hyperplanes(s))
                assert closed == list(_hyperplanes_by_kernel(s)) == list(_hyperplanes_by_elimination(s))
                for h in closed:
                    assert rref_rows(h.basis_rows, ambient, field) == ([list(r) for r in h.basis_rows], list(h.pivots))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_row_rank_is_the_dimension_of_the_span(field, rng):
    for _ in range(30):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        vectors = [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.5:
            vectors.append(list(vec_combo(field, vectors, [rng.randrange(field.q) for _ in vectors])))
        rank = row_rank(vectors, cols, field)
        assert rank == Subspace.from_vectors(field, cols, vectors).dim
        if vectors:
            m = Mat.from_rows(field, vectors)
            assert rank == m.rank() == len(vectors) - kernel(m.transpose()).dim


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_enum_subspaces_matches_one_product_over_all_free_entries(field):
    # the per-row tables give the subspaces (rows and pivots) in the order
    # of building each RREF afresh from one product of its free entries, in
    # every dimension of F_q^n, n <= 4, and of F_2^6
    for n in range(5) if field.q > 2 else (0, 1, 2, 3, 4, 6):
        for dim in range(n + 1):
            got = list(enum_subspaces(field, n, dim))
            assert got == list(enum_subspaces_by_free_entries(field, n, dim)), (n, dim)
            assert len(got) == gaussian_binomial(n, dim, field.q)


def test_coeff_points_are_one_shared_tuple_up_to_the_bound():
    # up to the bound the points come as one tuple per (q, dim), in the
    # generator's order, and a second call (with an equal field) returns the
    # same object; past it they come one at a time, in the same order
    shared = afresh = 0
    for field in ORACLE_FIELDS:
        for dim in range(6):
            points = enum_coeff_points(field, dim)
            want = list(exactla._coeff_points(field.q, dim))
            assert list(points) == want == sorted(want, key=lambda v: (v.index(1), v))
            assert len(want) == num_projective_points(dim, field.q)
            if len(want) <= exactla._SHARED_POINTS:
                assert type(points) is tuple and enum_coeff_points(field_make(field.p, field.e), dim) is points
                shared += 1
            else:
                assert type(points) is not tuple
                afresh += 1
    assert shared and afresh


def test_subspace_counts_match_gaussian_binomials():
    assert sum(1 for _ in all_subspaces(GF2, 4)) == 67
    assert sum(1 for _ in all_subspaces(GF2, 6)) == 2825
    assert sum(1 for _ in all_subspaces(GF3, 4)) == 212
    for k in range(5):
        assert sum(1 for _ in enum_subspaces(GF2, 4, k)) == gaussian_binomial(4, k, 2)
    # every enumerated subspace is already canonical and distinct
    seen = set(s.basis_rows for s in all_subspaces(GF3, 3))
    assert len(seen) == sum(gaussian_binomial(3, k, 3) for k in range(4))
    # the counter, uncapped (max_dim = n) and capped, against the enumeration
    for field, top_n in ((GF2, 5), (GF3, 3)):
        for n in range(top_n + 1):
            assert num_subspaces(n, field.q, n) == sum(1 for _ in all_subspaces(field, n))
            for max_dim in range(n + 2):
                assert num_subspaces(n, field.q, max_dim) == sum(1 for _ in all_subspaces(field, n, range(max_dim + 1)))


def test_no_union_of_q_hyperplanes_covers_full_space():
    # for dims 2..3 over q <= 3: exhaustive over q-subsets of hyperplanes
    for q in (2, 3):
        field = field_make(q)
        for dim in (2, 3):
            space = Subspace.full(field, dim)
            hyperplanes = list(enum_hyperplanes(space))
            points = list(enum_points(space))
            for family in itertools.combinations(hyperplanes, q):
                assert any(
                    all(not h.contains_vector(p) for h in family) for p in points
                ), f"q={q} dim={dim}: {q} hyperplanes covered the space"


def test_q_plus_one_lines_do_cover_the_plane():
    # sanity for the complement: over F_2, all 3 lines cover the plane
    lines = list(enum_hyperplanes(Subspace.full(GF2, 2)))
    for p in enum_points(Subspace.full(GF2, 2)):
        assert any(l.contains_vector(p) for l in lines)


# -- trackers -------------------------------------------------------------------------

def test_row_basis_incremental(rng):
    for _ in range(20):
        vectors = [[rng.randrange(3) for _ in range(5)] for _ in range(7)]
        rb = RowBasis(GF3, 5)
        for v in vectors:
            rb.add(v)
        sub = Subspace.from_vectors(GF3, 5, vectors)
        assert rb.rank == sub.dim
        assert tuple(rb.snapshot()) == sub.basis_rows
        for v in vectors:
            assert not any(rb.reduce(v))


def test_span_tracker_expresses_members(rng):
    for _ in range(20):
        vectors = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(5)]
        tracker = SpanTracker(GF3, 4, 5)
        for v in vectors:
            tracker.add(v)
        coeffs = tuple(rng.randrange(3) for _ in range(5))
        member = vec_combo(GF3, list(vectors), coeffs)
        combo = tracker.express(member)
        assert combo is not None
        assert vec_combo(GF3, list(vectors), combo) == member
    assert SpanTracker(GF2, 2, 1).express((1, 0)) is None


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_span_tracker_round_trips(field, rng):
    # inputs with repeats and combinations of earlier ones: add() reports
    # exactly the vectors that enlarge the span, every member (each input
    # included) is expressed over the inputs, and a non-member is not
    for _ in range(40):
        ncols, n_inputs = rng.randint(1, 5), rng.randint(1, 6)
        vectors = []
        for _ in range(n_inputs):
            if vectors and rng.random() < 0.4:
                vectors.append(vec_combo(field, vectors, [rng.randrange(field.q) for _ in vectors]))
            else:
                vectors.append(tuple(rng.randrange(field.q) for _ in range(ncols)))
        tracker = SpanTracker(field, ncols, n_inputs)
        for i, v in enumerate(vectors):
            grows = Subspace.from_vectors(field, ncols, vectors[: i + 1]).dim > tracker.rank
            assert tracker.add(v) is grows
        span = Subspace.from_vectors(field, ncols, vectors)
        assert tracker.rank == span.dim
        for member in vectors + [vec_combo(field, vectors, [rng.randrange(field.q) for _ in vectors])]:
            combo = tracker.express(member)
            assert len(combo) == n_inputs and vec_combo(field, vectors, combo) == member
        outside = tuple(rng.randrange(field.q) for _ in range(ncols))
        assert (tracker.express(outside) is None) is (not span.contains_vector(outside))


def test_span_tracker_capacity_exceeded():
    tracker = SpanTracker(GF3, 2, 2)
    assert tracker.add((1, 0)) and not tracker.add((2, 0))
    with pytest.raises(InputError, match="SpanTracker capacity exceeded"):
        tracker.add((0, 1))
    assert tracker.rank == 1 and tracker.express((2, 0)) == (2, 0)


# -- matrices over extension fields ----------------------------------------------------

def test_extension_field_matrix_arithmetic():
    m = Mat.from_rows(GF4, [[2, 1], [0, 2]])  # 2 encodes x
    sq = m.mul(m)
    # (x I + N)^2 = x^2 I + 2xN = (x+1) I + (x+x) N over characteristic 2
    assert sq[0, 0] == 3 and sq[1, 1] == 3
    assert sq[0, 1] == GF4.add(GF4.mul(2, 1), GF4.mul(1, 2))
    assert len(rref_rows(m.row_list(), 2, GF4)[1]) == 2


def test_mat_json_round_trip():
    for field in (GF2, GF3, GF4):
        m = Mat.from_rows(field, [[1, field.q - 1, 0], [0, 1, 1]])
        again = Mat.from_json(m.to_json())
        assert again == m


# -- table-indexed kernels against the Field methods -------------------------------------

def _naive_mul(a: Mat, b: Mat) -> tuple:
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            out.append(acc)
    return tuple(out)


def _naive_reduce(field, basis_rows, pivots, vec) -> tuple:
    # rows in RREF: subtract vec[p] times the row with pivot p, for each pivot
    out = list(vec)
    for row, p in zip(basis_rows, pivots):
        out = [field.sub(x, field.mul(vec[p], y)) for x, y in zip(out, row)]
    return tuple(out)


def _random_rows(field, nrows, ncols, rng, dependent: bool):
    rows = [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]
    if dependent and nrows >= 2:
        c = rng.randrange(field.q)
        rows[-1] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[0], rows[1])]
    return rows


def full_rank_flat(flat, n: int, field) -> bool:
    """The radical oracle's full-rank test on a flat row-major n*n matrix."""
    return exactla._echelon([flat[i * n: (i + 1) * n] for i in range(n)], n, field, stop_at_gap=True) is not None


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_full_rank_flat_matches_rank(field, rng):
    for trial in range(60):
        n = rng.randrange(1, 6)
        m = Mat.from_rows(field, _random_rows(field, n, n, rng, dependent=trial % 3 == 0))
        full = len(rref_gauss_jordan(m.row_list(), n, field)[1]) == n
        assert full_rank_flat(list(m.entries), n, field) == full
        assert full_rank_flat(m.entries, n, field) == full


def test_full_rank_test_stops_at_the_first_column_without_a_pivot(monkeypatch):
    # column 0 of [[0, 2], [0, 2]] has no pivot over F_3: the early exit
    # returns there, before the pivot 2 of column 1 is normalised by 2^-1
    calls = []
    inv = Field.inv
    monkeypatch.setattr(Field, "inv", lambda self, a: calls.append(a) or inv(self, a))
    assert exactla._echelon([[0, 2], [0, 2]], 2, GF3, stop_at_gap=True) is None
    assert calls == []
    assert exactla._echelon([[0, 2], [0, 2]], 2, GF3) == [1]
    assert calls == [2]


def full_rank_word(flat, n: int, field) -> bool:
    """The packed full-rank kernel of F_2 or F_3 on a flat row-major n*n matrix."""
    if field.q == 2:
        return exactla._full_rank_gf2(exactla._pack_gf2(flat), n)
    return exactla._full_rank_gf3(*exactla._pack_gf3(flat), n)


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_packed_full_rank_kernels_match_rank(field, rng):
    # n up to 11: from n = 9 the matrix spans more than 64 bits
    for trial in range(400):
        n = 1 + trial % 11
        m = Mat.from_rows(field, _random_rows(field, n, n, rng, dependent=trial % 3 == 0))
        full = len(rref_gauss_jordan(m.row_list(), n, field)[1]) == n
        assert full_rank_word(m.entries, n, field) == full, m.row_list()
    # an upper unitriangular matrix, invertible at every n
    for n in range(1, 12):
        flat = [int(i <= j) for i in range(n) for j in range(n)]
        assert full_rank_word(flat, n, field)


@pytest.mark.parametrize(
    "field,rows,full",
    [
        # every pivot is -1: each must be scaled to 1 (the planes swapped)
        # before it clears the rows below
        (GF3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], True),
        (GF3, [[2, 1], [1, 2]], False),
        # a pivot led by -1 over rows led by 1 and by -1, and the reverse
        (GF3, [[2, 1, 0], [1, 0, 1], [2, 2, 2]], True),
        (GF3, [[1, 0, 2], [2, 1, 0], [1, 1, 1]], False),
        # full up to the last column, which gets no pivot
        (GF3, [[1, 0, 1], [0, 1, 2], [1, 1, 0]], False),
        (GF3, [[1, 0, 0], [0, 2, 0], [0, 0, 0]], False),
        (GF2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]], False),
        (GF2, [[1, 0, 1], [0, 1, 1], [1, 1, 1]], True),
    ],
)
def test_packed_full_rank_pinned(field, rows, full):
    n = len(rows)
    assert (len(rref_gauss_jordan(rows, n, field)[1]) == n) == full
    assert full_rank_word([x for r in rows for x in r], n, field) == full


def test_packed_f3_add_matches_the_field_tables():
    values = list(itertools.product(range(3), repeat=2))
    a, b = [x for x, _ in values], [y for _, y in values]
    total = exactla._add_gf3(exactla._pack_gf3(a), exactla._pack_gf3(b))
    assert total == exactla._pack_gf3([GF3.add(x, y) for x, y in values])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_mat_mul_and_apply_match_naive(field, rng):
    for _ in range(30):
        n, k, m = (rng.randrange(1, 5) for _ in range(3))
        a, b = random_mat(field, n, k, rng), random_mat(field, k, m, rng)
        assert a.mul(b).entries == _naive_mul(a, b)
        # random, zero, sparse (at most two nonzero coordinates) and dense vectors
        nonzero = range(1, field.q)
        sparse = [0] * k
        for j in rng.sample(range(k), min(2, k)):
            sparse[j] = rng.choice(nonzero)
        for vec in (tuple(rng.randrange(field.q) for _ in range(k)), (0,) * k, tuple(sparse),
                    tuple(rng.choice(nonzero) for _ in range(k))):
            column = Mat.from_rows(field, [[x] for x in vec])
            assert a.apply(vec) == _naive_mul(a, column)


@pytest.mark.parametrize("field", [GF2, GF3, GF4, field_make(3, 2)], ids=repr)
def test_mat_mul_row_combinations_match_the_triple_loop(field, rng):
    # every shape with sides 0-3, zero-sized ones included, each with entries
    # drawn from {0, 1} (so rows start with a unit coefficient or are zero)
    # and from the whole field.  Mat.apply runs on the same shapes: with no
    # columns (k = 0) it combines no vectors, with no rows empty ones
    for n, k, m in itertools.product(range(4), repeat=3):
        for values in ((0, 1), tuple(range(field.q))):
            a = Mat.from_rows(field, [[rng.choice(values) for _ in range(k)] for _ in range(n)]) \
                if n else Mat.zero(field, 0, k)
            b = Mat.from_rows(field, [[rng.randrange(field.q) for _ in range(m)] for _ in range(k)]) \
                if k else Mat.zero(field, 0, m)
            product = a.mul(b)
            assert (product.rows, product.cols) == (n, m)
            assert product.entries == _naive_mul(a, b)
            vec = tuple(rng.randrange(field.q) for _ in range(k))
            column = Mat.from_rows(field, [[x] for x in vec]) if k else Mat.zero(field, 0, 1)
            assert a.apply(vec) == _naive_mul(a, column)


def product_is_zero(a: Mat, b: Mat) -> bool:
    """The oracle for `Mat.mul_is_zero`: build the product and look."""
    return not any(a.mul(b).entries)


def _sparse_mat(field, rows, cols, rng):
    """A random matrix with about one entry in three nonzero, so that zero
    products are common."""
    return Mat.from_rows(field, [[rng.randrange(1, field.q) if rng.random() < 0.3 else 0 for _ in range(cols)]
                                 for _ in range(rows)])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_mul_is_zero_matches_the_product(field, rng):
    # square n <= 5 (the packed path over F_3): dense, sparse and the
    # same object on both sides
    outcomes = set()
    for n in range(1, 6):
        for trial in range(40):
            a, b = (_sparse_mat(field, n, n, rng) if trial % 2 else random_mat(field, n, n, rng) for _ in range(2))
            assert a.mul_is_zero(b) == product_is_zero(a, b), (a.row_list(), b.row_list())
            assert a.mul_is_zero(a) == product_is_zero(a, a), a.row_list()
            outcomes.add(a.mul_is_zero(b))
    assert outcomes == {True, False}
    # square-zero pool members: X X = 0, and X Y for pairs drawn from the pool
    for n in (2, 3, 4) if field.q <= 3 else (2, 3):
        pool = square_zero_matrices(field, n)
        sample = rng.sample(pool, min(30, len(pool)))
        assert all(x.mul_is_zero(x) for x in sample)
        for x, y in zip(sample, sample[1:]):
            assert x.mul_is_zero(y) == product_is_zero(x, y)
    # rectangular shapes (the generic path), zero-sized sides included; B's
    # columns are a basis of ker A or random
    for rows, k, cols in itertools.product(range(4), repeat=3):
        if rows == k == cols and rows:
            continue
        a = _sparse_mat(field, rows, k, rng) if rows else Mat.zero(field, 0, k)
        basis = kernel(a).basis_rows
        b = Mat.from_rows(field, list(zip(*basis))) if basis else Mat.zero(field, k, 0)
        assert a.mul_is_zero(b) and product_is_zero(a, b)
        b = random_mat(field, k, cols, rng) if k else Mat.zero(field, 0, cols)
        assert a.mul_is_zero(b) == product_is_zero(a, b)


def test_mul_is_zero_on_empty_and_mismatched_matrices():
    for field in (GF2, GF3, field_make(5)):
        empty = Mat.zero(field, 0, 0)
        assert empty.mul_is_zero(empty) and product_is_zero(empty, empty)
        assert Mat.zero(field, 2, 0).mul_is_zero(Mat.zero(field, 0, 3))
    # a mismatch raises as `mul` does, before any packing
    one = Mat.identity(GF3, 2)
    for other, message in ((Mat.identity(GF2, 2), "mixed fields"), (Mat.zero(GF3, 3, 3), "cannot multiply 2x2 by 3x3")):
        for method in (one.mul, one.mul_is_zero):
            with pytest.raises(InputError, match=message):
                method(other)


def test_packed_f3_planes_match_the_codes(rng):
    # lengths 0 to 130: empty, within one 64-bit word, and beyond it
    for length in range(131):
        flat = [rng.randrange(3) for _ in range(length)]
        ones = sum(1 << j for j, x in enumerate(flat) if x == 1)
        twos = sum(1 << j for j, x in enumerate(flat) if x == 2)
        assert exactla._pack_gf3(flat) == exactla._pack_gf3(tuple(flat)) == (ones, twos)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_row_basis_and_reduce_match_generic_rref(field, rng):
    for trial in range(30):
        ncols = rng.randrange(1, 6)
        rows = _random_rows(field, rng.randrange(1, 5), ncols, rng, dependent=trial % 2 == 0)
        reduced, pivots = rref_gauss_jordan(rows, ncols, field)
        rb = RowBasis(field, ncols)
        for r in rows:
            rb.add(r)
        assert rb.snapshot() == [tuple(r) for r in reduced]
        s = Subspace.from_vectors(field, ncols, rows)
        assert s.basis_rows == tuple(tuple(r) for r in reduced) and s.pivots == tuple(pivots)
        for _ in range(5):
            vec = tuple(rng.randrange(field.q) for _ in range(ncols))
            expected = _naive_reduce(field, reduced, pivots, vec)
            assert s.reduce(vec) == expected
            assert tuple(rb.reduce(vec)) == expected
            member = len(rref_gauss_jordan(rows + [list(vec)], ncols, field)[1]) == len(pivots)
            assert s.contains_vector(vec) == (not any(rb.reduce(vec))) == member


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_mat_rejects_entries_out_of_range(field):
    for bad in (-1, field.q):
        with pytest.raises(InputError, match="matrix entry out of field range"):
            Mat(field, 2, 2, (0, 1, bad, 0))
        # the other two validating entry points reject, not reduce, the same values
        with pytest.raises(InputError, match="matrix entry out of field range"):
            Mat.from_rows(field, [[0, 1], [bad, 0]])
        with pytest.raises(InputError, match="matrix entry out of field range"):
            Mat.from_json({"rows": 2, "cols": 2, "entries": [[0, 1], [bad, 0]]}, field)
    assert Mat(field, 1, 2, (0, field.q - 1)).entries == (0, field.q - 1)
    assert Mat(field, 0, 3, ()).rows == 0
    with pytest.raises(InputError, match="matrix literal has 3 entries, needs 4"):
        Mat(field, 2, 2, (0, 1, 0))
    # the other two validating entry points
    with pytest.raises(InputError, match="ragged"):
        Mat.from_rows(field, [[0, 1], [1]])
    with pytest.raises(InputError, match="out of field range"):
        Mat.from_rows(field, [[0, float(field.q)]])
    good = Mat.from_rows(field, [[0, 1], [field.q - 1, 0]]).to_json()
    # a coefficient list one longer than the degree encodes q, one past the last code
    too_long = [0] * field.e + [1]
    for entries, message in (([[0, 1], [too_long, 0]], "out of field range"),
                             ([[0, 1], [1]], "ragged"),
                             ([[0, 1]], "shape disagrees")):
        with pytest.raises(InputError, match=message):
            Mat.from_json({**good, "entries": entries}, field)
    assert Mat.from_json(good, field) == Mat.from_rows(field, [[0, 1], [field.q - 1, 0]])


def test_mat_json_shape_must_be_integers():
    # a float or string shape was truncated or parsed; now it is an input error
    good = Mat.from_rows(GF2, [[0, 1]]).to_json()
    for key, bad in (("rows", 1.7), ("rows", "1"), ("cols", 2.0), ("cols", True)):
        with pytest.raises(InputError, match=f"bad matrix JSON: {key} must be an integer"):
            Mat.from_json({**good, key: bad}, GF2)


# -- unchecked internal construction against the checked boundary ------------------------

def recheck(m: Mat) -> None:
    """An internally built matrix passes the checked constructor again."""
    again = Mat(m.field, m.rows, m.cols, m.entries)
    assert type(m.entries) is tuple
    assert again == m and hash(again) == hash(m)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_internal_matrices_pass_the_checked_constructor(field, rng):
    for _ in range(20):
        n, k, m = (rng.randrange(1, 5) for _ in range(3))
        a, b, c = random_mat(field, n, k, rng), random_mat(field, n, k, rng), random_mat(field, k, m, rng)
        s = rng.randrange(field.q)
        for out in (a.add(b), a.scale(s), a.mul(c), a.transpose(),
                    mat_vec([a, b], (s, field.q - 1)), Mat.zero(field, n, k), Mat.identity(field, n),
                    Mat.unit(field, n, k, rng.randrange(n), rng.randrange(k))):
            recheck(out)
    empty = Mat.zero(field, 0, 3)
    for out in (empty, empty.transpose(), empty.scale(1), Mat.identity(field, 0)):
        recheck(out)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_mat_vec_returns_a_unit_vectors_matrix_and_combines_the_rest(field, rng):
    for _ in range(20):
        d, n = rng.randrange(1, 5), rng.randrange(1, 4)
        mats = [random_mat(field, n, n, rng) for _ in range(d)]
        units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        assert all(mat_vec(mats, e) is mats[i] and mat_vec(mats, list(e)) is mats[i] for i, e in enumerate(units))
        # c e_i with c != 1, zero, and random coefficients are combined
        coords = [tuple(c if j == i else 0 for j in range(d)) for i in range(d) for c in range(field.q)]
        coords += [tuple(rng.randrange(field.q) for _ in range(d)) for _ in range(8)]
        for c in coords + [list(c) for c in coords]:
            got = mat_vec(mats, c)
            assert got == matrix_combination(mats, c)
            recheck(got)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_col_is_apply_to_a_unit_vector(field, rng):
    for _ in range(20):
        n, k = rng.randrange(1, 5), rng.randrange(1, 5)
        a = random_mat(field, n, k, rng)
        for j in range(k):
            unit = tuple(1 if t == j else 0 for t in range(k))
            assert a.col(j) == a.apply(unit) == tuple(a[i, j] for i in range(n))
    assert Mat.zero(field, 0, 3).col(2) == ()
