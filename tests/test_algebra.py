import itertools
import random

import pytest

from soclelab import algebra, exactla
from soclelab.algebra import (
    Algebra,
    SocleGraph,
    _action_flats,
    _encode_coords,
    _odometer_flags,
    _permute_digits,
    _quasi_regular_flags,
    _unit_flags,
    algebra_make,
    bimodule_length,
    improved_bound,
    improved_bound_value,
    radical_bruteforce,
    socle_graph,
    socle_is_central,
    socles,
)
from soclelab.budget import Budget
from soclelab.errors import BudgetExceeded, InputError, NotSplitError
from soclelab.exactla import Mat, RowBasis, Subspace, _decode_coords, _echelon, mat_vec, row_rank
from soclelab.gf import field_make
from soclelab.gallery import (
    criterion8_algebras,
    make_matrix_algebra,
    make_row_diagonal_pair,
    make_square_zero_extension,
    make_triangular,
    iter_gallery_algebras,
    make_twisted_truncated,
)

from helpers import bimodule_length_by_corner_spans, residue_is_division_by_quotient, socle_graph_by_vertex_spans

GF2 = field_make(2)
GF3 = field_make(3)


def truncated_poly(field):
    """F_q[x]/(x^2) with no certificate, to exercise the oracle fallback."""
    mult = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    return algebra_make(field, dim=2, mult=mult, one=(1, 0))


# -- construction and validation ------------------------------------------------

def test_matrix_algebra_construction():
    alg = make_matrix_algebra(2, GF2)
    assert alg.dim == 4
    assert alg.certificate.radical.dim == 0
    assert alg.certificate.split


def test_rejects_broken_structure_constants():
    # matrix-unit constants with e12 * e21 redirected to e22: breaks
    # associativity on (e12, e21, e11) and is rejected with that triple
    good = make_matrix_algebra(2, GF2)
    mult = [list(row) for row in good.mult]
    # basis order: e11, e12, e21, e22 -> indices 0, 1, 2, 3
    mult[1][2] = (0, 0, 0, 1)
    with pytest.raises(InputError, match="associativity.*\\("):
        algebra_make(GF2, dim=4, mult=mult, one=good.one)


def test_rejects_non_closed_matrix_basis():
    # e12 * e23 = e13 falls outside span{I, e12, e23}
    mats = [Mat.identity(GF2, 3), Mat.unit(GF2, 3, 3, 0, 1), Mat.unit(GF2, 3, 3, 1, 2)]
    with pytest.raises(InputError, match="not product-closed"):
        algebra_make(GF2, matrix_basis=mats)


def test_rejects_bad_certificates():
    base = truncated_poly(GF2)
    with pytest.raises(InputError, match="not a left ideal|not a right ideal"):
        algebra_make(GF2, dim=2, mult=base.mult, one=base.one,
                     certificate={"radical_basis": [(1, 0)], "split": True,
                                  "blocks": [{"n": 1, "matrix_units": [(0, 1)]}]})
    with pytest.raises(InputError, match="nilpotent"):
        algebra_make(GF2, dim=4, mult=make_matrix_algebra(2, GF2).mult,
                     one=make_matrix_algebra(2, GF2).one,
                     certificate={"radical_basis": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                                  "split": True, "blocks": []})
    with pytest.raises(InputError, match="block sizes"):
        algebra_make(GF2, dim=2, mult=base.mult, one=base.one,
                     certificate={"radical_basis": [(0, 1)], "split": True,
                                  "blocks": [{"n": 2, "matrix_units": [(1, 0)] * 4}]})


def test_rejects_a_local_certificate_whose_residue_ring_is_not_division():
    base = truncated_poly(GF2)
    tri = make_triangular(2, GF2, False)
    # F_2[x]/(x^2) modulo zero (x is a zero divisor), and the upper triangular
    # 2x2 matrices modulo their radical (F_2 x F_2)
    for alg, radical_basis in ((base, []), (tri, [(0, 0, 1)])):
        with pytest.raises(InputError, match="quotient by claimed radical is not a division ring"):
            algebra_make(GF2, dim=alg.dim, mult=alg.mult, one=alg.one,
                         certificate={"radical_basis": radical_basis, "split": False, "local": True})
    # modulo its radical F_2[x]/(x^2) is F_2, a field
    local = algebra_make(GF2, dim=2, mult=base.mult, one=base.one,
                         certificate={"radical_basis": [(0, 1)], "split": False, "local": True})
    assert local.certificate.local


def test_residue_division_test_matches_the_quotient_structure_constants():
    # the left multiplications mod J against the quotient's structure
    # constants, on the radical, zero and seeded random subspaces of the gallery
    rng = random.Random(150)
    verdicts = []
    for _name, alg in iter_gallery_algebras():
        field, d = alg.field, alg.dim
        J = alg.radical()
        subs = [J, Subspace.zero(field, d)]
        for k in (1, 2, 3):
            vectors = [tuple(rng.randrange(field.q) for _ in range(d)) for _ in range(k)]
            subs += [Subspace.from_vectors(field, d, list(J.basis_rows) + vectors[:1]),
                     Subspace.from_vectors(field, d, vectors)]
        for sub in subs:
            if field.q ** (d - sub.dim) <= 729:
                verdicts.append(alg._residue_is_division(sub))
                assert verdicts[-1] == residue_is_division_by_quotient(alg, sub), (_name, sub.basis_rows)
    assert len(verdicts) >= 150 and True in verdicts and False in verdicts


# -- the radical oracle ------------------------------------------------------------

def test_radical_semisimple_is_zero():
    assert radical_bruteforce(make_matrix_algebra(2, GF2)).dim == 0


def test_radical_truncated_polynomial():
    alg = truncated_poly(GF2)
    rad = radical_bruteforce(alg)
    assert rad == Subspace.from_vectors(GF2, 2, [(0, 1)])
    # uncertified algebra: radical() falls back to the oracle and caches
    assert alg.radical() == rad


def test_radical_row_diagonal_ring():
    ring, _ = make_row_diagonal_pair()
    brute = radical_bruteforce(ring)
    assert brute.dim == 3
    assert brute == ring.certificate.radical


@pytest.mark.parametrize("maker,args", [
    (make_triangular, (3, GF3, False)),
    (make_triangular, (2, GF3, True)),
    (make_twisted_truncated, (2, 2, 2)),
    (make_square_zero_extension, (GF3, 2)),
])
def test_radical_oracle_agrees_with_certificates(maker, args):
    alg = maker(*args)
    assert radical_bruteforce(alg) == alg.certificate.radical


def test_radical_budget_guard():
    alg = make_triangular(4, GF3, False)  # 3^10 elements
    with pytest.raises(BudgetExceeded):
        radical_bruteforce(alg, Budget(max_ring=1000))


def radical_by_definition(alg):
    """J(R) from the definition alone: x is radical iff 1 - y is a unit for
    every y in Rx = {r x : r in R}, a unit being an element whose left
    multiplication has full rank.  Every element x is tested and Rx is walked
    element by element: no coset, scalar or span shortcut."""
    field, d = alg.field, alg.dim
    elements = list(itertools.product(field.elements(), repeat=d))
    units = {z for z in elements if alg.left_mult_mat(z).rank() == d}

    def quasi_regular(y):
        return tuple(field.sub(a, b) for a, b in zip(alg.one, y)) in units

    members = [x for x in elements if all(quasi_regular(alg.mul_coords(r, x)) for r in elements)]
    radical = Subspace.from_vectors(field, d, members)
    assert len(members) == field.q ** radical.dim  # the members form a subspace
    return radical


def random_triangular_subalgebra(field, n, max_dim, rng):
    """A random unital subalgebra of the upper-triangular n x n matrices: the
    closure of the identity and two random upper-triangular matrices, redrawn
    until it has dimension 2..max_dim."""
    while True:
        gens = [Mat(field, n, n, tuple(rng.randrange(field.q) if j >= i and rng.random() < 0.5 else 0
                                       for i in range(n) for j in range(n)))
                for _ in range(2)]
        span = RowBasis(field, n * n)
        basis = [m for m in [Mat.identity(field, n)] + gens if span.add(m.entries)]
        i = 0
        while i < len(basis) <= max_dim:
            for j in range(len(basis)):
                for prod in (basis[i].mul(basis[j]), basis[j].mul(basis[i])):
                    if span.add(prod.entries):
                        basis.append(prod)
            i += 1
        if 2 <= len(basis) <= max_dim:
            return algebra_make(field, matrix_basis=basis)


def test_radical_oracle_matches_definition_on_small_gallery():
    for name, alg in iter_gallery_algebras(max_ring=3**5):
        assert radical_bruteforce(alg) == radical_by_definition(alg), name


@pytest.mark.parametrize("p,e,n,max_dim", [(2, 1, 4, 7), (3, 1, 3, 5), (2, 2, 3, 4), (5, 1, 3, 4)])
def test_radical_oracle_matches_definition_on_random_triangular(p, e, n, max_dim):
    # F_4 has two scalars besides 1, each the inverse of the other, so the
    # oracle's scaling of coset representatives by inverses is exercised
    # there; over F_5 the scalars 2 and 3 are inverses and 4 is its own
    field = field_make(p, e)
    rng = random.Random(f"radical-by-definition/{field.q}")
    for _ in range(6):
        alg = random_triangular_subalgebra(field, n, max_dim, rng)
        assert radical_bruteforce(alg) == radical_by_definition(alg)


def test_packed_coset_kernels_give_the_generic_radical(monkeypatch):
    # every F_2 and F_3 gallery algebra with at most 3^8 elements, and seeded
    # random triangular subalgebras, through the packed coset kernels and then
    # through the generic ones those fields would otherwise take
    algebras = [alg for _name, alg in iter_gallery_algebras(max_ring=3**8) if alg.field.q in (2, 3)]
    for field, n, max_dim in ((GF2, 4, 7), (GF3, 3, 5)):
        rng = random.Random(f"packed-coset-kernels/{field.q}")
        algebras += [random_triangular_subalgebra(field, n, max_dim, rng) for _ in range(4)]
    packed = [radical_bruteforce(alg) for alg in algebras]
    monkeypatch.setattr(algebra, "_coset_kernels", exactla._generic_coset_kernels)
    assert [radical_bruteforce(alg) for alg in algebras] == packed
    assert any(rad.dim >= 6 for rad in packed)


def test_left_ideal_rows_are_the_combinations_of_structure_constants():
    # the radical oracle builds row i of a basis of Rx as b_i x, the
    # combination of the b_i b_j by the x_j
    rng = random.Random(28)
    checked = 0
    for name, alg in iter_gallery_algebras():
        field = alg.field
        for _ in range(4):
            x = tuple(rng.randrange(field.q) for _ in range(alg.dim))
            for i in range(alg.dim):
                assert exactla.vec_combo(field, alg.mult[i], x) == alg.mul_coords(alg.basis_coords(i), x), name
                checked += 1
    assert checked > 500


def corner_truncated_poly():
    """k[x]/(x^2) in a corner of M_3: 1 is diag(1, 1, 0), not the identity."""
    corner = Mat(GF2, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 0))
    return algebra_make(GF2, matrix_basis=[corner, Mat.unit(GF2, 3, 3, 0, 1)], one=(1, 0))


def test_radical_of_a_corner_matrix_basis():
    # every matrix of the basis is singular in M_3, so units are read off
    # the regular representation instead
    alg = corner_truncated_poly()
    assert mat_vec(alg.matrix_basis, alg.one) != Mat.identity(GF2, 3)
    twin = algebra_make(GF2, dim=2, mult=alg.mult, one=alg.one)
    expected = Subspace.from_vectors(GF2, 2, [(0, 1)])
    assert radical_bruteforce(alg) == radical_by_definition(alg) == radical_bruteforce(twin) == expected
    assert alg.radical() == expected  # uncertified: radical() falls back to the oracle


def unit_flags_per_element(alg):
    """unit[code] with one rank test per element: an odometer over every
    coordinate vector, keeping the representing matrix incrementally, and a
    full sweep (no early exit) for the rank."""
    field = alg.field
    q, d = field.q, alg.dim
    flats, n = _action_flats(alg)
    scaled = [[[field.mul(v, x) for x in flat] for v in range(q)] for flat in flats]
    unit = bytearray(q**d)
    digits = [0] * d
    acc = [[0] * (n * n) for _ in range(d + 1)]  # acc[k] = contribution of digits k..d-1
    for code in range(q**d):
        if code:
            k = 0
            while digits[k] == q - 1:
                digits[k] = 0
                k += 1
            digits[k] += 1
            acc[k] = [field.add(a, b) for a, b in zip(acc[k + 1], scaled[k][digits[k]])]
            for j in range(k - 1, -1, -1):
                acc[j] = acc[j + 1]
        unit[code] = row_rank([acc[0][i * n: (i + 1) * n] for i in range(n)], n, field) == n
    return bytes(unit)


def unit_flag_algebras():
    """Algebras over every field q <= 9, with and without a matrix basis,
    of dimension 0 and up, some whose basis element 0 is not 1.  The gallery
    items include regular representations with n = 6 over F_3
    (twisted-truncated-p3-d2-n2) and n = 8 over F_2; twisted-truncated-p2-d2-n4
    adds n = 10, whose packed matrices are words wider than 64 bits."""
    yield from iter_gallery_algebras(max_ring=3**6)
    yield "twisted-truncated-p2-d2-n4", make_twisted_truncated(2, 2, 4)
    yield "corner-truncated-poly", corner_truncated_poly()
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        field = field_make(p, e)
        q = field.q
        yield f"zero-ring-q{q}", algebra_make(field, dim=0, mult=[], one=())
        yield f"field-q{q}", algebra_make(field, dim=1, mult=[[(1,)]], one=(1,))
        # k[x]/(x^2) on the basis (x, 1)
        yield f"x-first-q{q}", algebra_make(field, dim=2, mult=[[(0, 0), (1, 0)], [(1, 0), (0, 1)]], one=(0, 1))
        yield f"triangular-2x2-q{q}", make_triangular(2, field, False)
        yield f"triangular-2x2-q{q}-scalar", make_triangular(2, field, True)
        yield f"square-zero-q{q}-g2", make_square_zero_extension(field, 2)
        if q <= 5:
            yield f"matrix-algebra-2x2-q{q}", make_matrix_algebra(2, field)


def test_unit_flags_match_the_per_element_scan():
    for name, alg in unit_flag_algebras():
        assert _unit_flags(alg) == unit_flags_per_element(alg), name


def odometer_flags_by_echelon(base, flats, n, field):
    """_odometer_flags with each matrix built from scratch and tested by the
    list sweep `_echelon` with stop_at_gap, the path of every q other than 2
    and 3."""
    q, k = field.q, len(flats)
    flags = bytearray(q**k)
    for code, top_first in enumerate(itertools.product(range(q), repeat=k)):
        flat = list(base)
        for digit, m in zip(reversed(top_first), flats):
            flat = [field.add(x, field.mul(digit, y)) for x, y in zip(flat, m)]
        flags[code] = _echelon([flat[s: s + n] for s in range(0, n * n, n)], n, field, stop_at_gap=True) is not None
    return bytes(flags)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_odometer_flags_match_the_list_sweep_on_random_matrices(p, e):
    # over F_2 and F_3 the odometer runs on packed words; n up to 11 makes
    # words wider than 64 bits.  Low-rank flats make both outcomes common
    field = field_make(p, e)
    q = field.q
    rng = random.Random(f"odometer/{q}")
    seen = set()
    for trial in range(40):
        n = rng.randrange(1, 12)
        k = rng.randrange(0, 4 if q <= 3 else 3)

        def rand_flat():
            if trial % 2:
                return [rng.randrange(q) for _ in range(n * n)]
            u, v = [rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)]
            return [field.mul(x, y) for x in u for y in v]  # rank at most 1

        base = rand_flat()
        if trial % 4 == 3:
            base = [int(i % (n + 1) == 0) for i in range(n * n)]  # the identity
        flats = [rand_flat() for _ in range(k)]
        flags = _odometer_flags(base, flats, n, field)
        assert bytes(flags) == odometer_flags_by_echelon(base, flats, n, field), (n, k, trial)
        seen.update(flags)
    assert seen == {0, 1}


def test_quasi_regular_flags_read_the_unit_flag_of_one_minus_x():
    for name, alg in unit_flag_algebras():
        field, q, d = alg.field, alg.field.q, alg.dim
        unit = _unit_flags(alg)
        expected = bytes(
            unit[_encode_coords([field.sub(o, x) for o, x in zip(alg.one, _decode_coords(code, q, d))], q)]
            for code in range(q**d)
        )
        assert _quasi_regular_flags(alg, unit) == expected, name


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_permute_digits_matches_coordinate_codes(p, e):
    field = field_make(p, e)
    q = field.q
    rng = random.Random(f"permute-digits/{q}")
    for d in range(5):
        table = bytes(rng.randrange(256) for _ in range(q**d))
        maps = [rng.sample(range(q), q) for _ in range(d)]
        expected = bytes(
            table[_encode_coords([digit_map[c] for digit_map, c in zip(maps, _decode_coords(code, q, d))], q)]
            for code in range(q**d)
        )
        assert _permute_digits(table, q, maps) == expected, d


# -- socles --------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_triangular_socle_closed_forms(q, n):
    field = field_make(q)
    alg = make_triangular(n, field, False)
    st = socles(alg)
    assert st.left.dim == n      # top row
    assert st.right.dim == n     # last column
    assert st.twosided.dim == 1  # upper right corner
    # identify the corner explicitly: basis vector of the last strict-upper cell
    if n > 1:
        corner_mat = alg.matrix_basis and Mat.unit(field, n, n, 0, n - 1)
        uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
        corner_index = n + uppers.index((0, n - 1))
        expect = tuple(1 if k == corner_index else 0 for k in range(alg.dim))
        assert st.twosided.contains_vector(expect)


def test_socles_are_kept_but_not_after_a_budget_stop():
    alg = truncated_poly(GF2)  # uncertified: socles runs the radical oracle
    with pytest.raises(BudgetExceeded):
        socles(alg, Budget(max_ring=1))
    st = socles(alg)
    assert st.twosided == Subspace.from_vectors(GF2, 2, [(0, 1)])
    assert socles(alg) is st


def test_simple_algebra_socle_is_everything():
    alg = make_matrix_algebra(2, GF3)
    st = socles(alg)
    assert st.left.dim == st.right.dim == st.twosided.dim == 4


def test_row_diagonal_socle():
    ring, _ = make_row_diagonal_pair()
    st = socles(ring)
    assert st.twosided.dim == 3
    assert st.twosided == ring.certificate.radical  # soc(R) = J here


# -- bimodule lengths -------------------------------------------------------------------

def test_matrix_algebra_socle_has_bimodule_length_one():
    for n in (1, 2):
        for field in (GF2, GF3):
            alg = make_matrix_algebra(n, field)
            st = socles(alg)
            assert bimodule_length(alg, st.twosided) == 1


def test_triangular_corner_length_one():
    alg = make_triangular(3, GF2, False)
    assert bimodule_length(alg, socles(alg).twosided) == 1


def test_row_diagonal_socle_length_three():
    ring, _ = make_row_diagonal_pair()
    assert bimodule_length(ring, socles(ring).twosided) == 3


def test_bimodule_length_requires_split():
    alg = make_twisted_truncated(2, 2, 2)
    with pytest.raises(NotSplitError):
        bimodule_length(alg, socles(alg).twosided)


def test_bimodule_length_requires_killed_ideal():
    alg = make_triangular(2, GF2, False)
    with pytest.raises(Exception):
        bimodule_length(alg, Subspace.full(GF2, alg.dim))


# -- socle graphs -----------------------------------------------------------------------

def test_row_diagonal_graph():
    ring, _ = make_row_diagonal_pair()
    g = socle_graph(ring)
    assert len(g.left_vertices) == 1
    assert len(g.right_vertices) == 3
    assert len(g.edges) == 3
    assert g.chi == 1
    assert g.edge_lengths == (1, 1, 1)


def test_local_algebra_graph():
    alg = make_twisted_truncated(2, 1, 1)  # F_2[x]/(x^2), split local
    g = socle_graph(alg)
    assert len(g.left_vertices) == 1 and len(g.right_vertices) == 1
    assert len(g.edges) == 1 and g.chi == 1


def test_semisimple_graph():
    g = socle_graph(make_matrix_algebra(2, GF3))
    assert g.chi == 1 and g.edges == ((0, 0),) and g.edge_lengths == (1,)


def test_graph_validation():
    with pytest.raises(InputError):
        SocleGraph((0,), (0,), ((0, 0),), (1,), 7)  # wrong chi
    with pytest.raises(InputError):
        SocleGraph((0,), (0,), ((0, 1),), (1,), 1)  # edge endpoint not a vertex


# -- improved bound -------------------------------------------------------------------------

def test_improved_bound_formula_values():
    assert improved_bound_value(1, (1, 1, 1), 3) == 4
    assert improved_bound_value(-1, (1, 2, 2, 2), 7) == 6
    assert improved_bound_value(-2, (1, 1, 3), 5) == 3
    assert improved_bound_value(0, (2, 2), 4) == 4


def test_improved_bound_on_graphs():
    ring, _ = make_row_diagonal_pair()
    g = socle_graph(ring)
    assert improved_bound(g, 3) == 4
    # a realizable graph with negative Euler characteristic
    g_neg = SocleGraph((0, 1), (0, 1, 2),
                       ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)),
                       (1, 2, 2, 2, 1, 1), -1)
    assert improved_bound(g_neg, 9) == 8


def test_socle_killed_by_radical_on_every_gallery_algebra():
    from soclelab.gallery import iter_gallery_algebras

    for name, alg in iter_gallery_algebras():
        soc = socles(alg).twosided
        J = alg.radical()
        zero = (0,) * alg.dim
        for v in soc.basis_rows:
            for j in J.basis_rows:
                assert alg.mul_coords(j, v) == zero, name
                assert alg.mul_coords(v, j) == zero, name


def test_one_corner_pass_matches_the_vertex_and_corner_spans_on_the_gallery():
    # socle_graph takes its vertices from its edges; the oracle spans f soc(R)
    # and soc(R) f per block and then every corner between the vertices
    split = 0
    for name, alg in iter_gallery_algebras():
        if alg.certificate is None or not alg.certificate.split:
            continue
        split += 1
        soc = socles(alg).twosided
        g = socle_graph(alg)
        assert (g.left_vertices, g.right_vertices, g.edges, g.edge_lengths, g.chi) \
            == socle_graph_by_vertex_spans(alg), name
        assert bimodule_length(alg, soc) == g.socle_bimodule_length == bimodule_length_by_corner_spans(alg, soc), name
    assert split >= 20


def test_socle_graph_refuses_a_non_split_algebra_before_radical_work(monkeypatch):
    alg = make_twisted_truncated(2, 2, 2)

    def no_radical(self, budget=None):
        raise AssertionError("radical computed before the split check")

    monkeypatch.setattr(Algebra, "radical", no_radical)
    with pytest.raises(NotSplitError):
        socle_graph(alg)


def test_socle_dimension_decomposes_over_edges():
    # dim soc = sum over edges of n_f * n_e * (edge bimodule length)
    for alg in (make_row_diagonal_pair()[0], make_triangular(3, GF3, False),
                make_matrix_algebra(2, GF2), make_square_zero_extension(GF3, 2)):
        soc = socles(alg).twosided
        g = socle_graph(alg)
        blocks = alg.blocks()
        total = sum(
            blocks[f].n * blocks[e].n * length
            for (f, e), length in zip(g.edges, g.edge_lengths)
        )
        assert total == soc.dim


def test_even_loop_graph_has_chi_zero():
    # a 2k-cycle alternating sides: as many vertices as edges
    g = SocleGraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 1), (1, 0)), (1, 1, 1, 1), 0)
    assert g.chi == 0
    assert improved_bound(g, 5) == 5


# -- centrality and locality -------------------------------------------------------------------

def test_socle_centrality():
    assert socle_is_central(make_square_zero_extension(GF2, 2))  # commutative
    assert socle_is_central(make_triangular(2, GF3, True))
    assert not socle_is_central(make_triangular(3, GF2, False))  # corner not central
    assert socle_is_central(make_twisted_truncated(2, 2, 2))
    assert not socle_is_central(make_twisted_truncated(2, 2, 1))


def test_locality():
    # read off the certificates: a local algebra has a division residue ring,
    # and a split one is local exactly when it has the one block n = 1
    for alg, local in ((make_twisted_truncated(2, 2, 3), True), (make_triangular(3, GF2, True), True),
                       (make_triangular(2, GF2, False), False), (make_matrix_algebra(2, GF2), False)):
        cert = alg.certificate
        assert cert.local is local
        if cert.split:
            assert ([b.n for b in cert.blocks] == [1]) is local


# -- serialization -------------------------------------------------------------------------------

def test_algebra_json_round_trip():
    for alg in (make_matrix_algebra(2, GF3), make_triangular(3, GF2, True),
                make_twisted_truncated(2, 2, 2), make_row_diagonal_pair()[0]):
        data = alg.to_json()
        again = Algebra.from_json(data)
        assert again.to_json() == data


def test_algebra_json_rejects_elements_out_of_field_range():
    # Algebra and Mat decode through one codec, which reduces nothing
    for alg, edit in ((make_triangular(2, GF2), lambda d: d.update(one=[5] + d["one"][1:])),
                      (make_matrix_algebra(1, field_make(2, 2)), lambda d: d["mult"][0][0].__setitem__(0, [3])),
                      (make_matrix_algebra(1, field_make(2, 2)),
                       lambda d: d["matrix_basis"][0]["entries"][0].__setitem__(0, [3]))):
        data = alg.to_json()
        edit(data)
        with pytest.raises(InputError, match="out of field range"):
            Algebra.from_json(data)


def test_certificate_flags_must_be_json_booleans():
    # a string is not a flag: "no" and "false" would both be true as Python values
    data = make_triangular(2, GF2).to_json()
    data["certificate"].update(split="no", local="false")
    with pytest.raises(InputError, match="split must be true or false, got 'no'"):
        Algebra.from_json(data)
    data["certificate"]["split"] = True
    with pytest.raises(InputError, match="local must be true or false, got 'false'"):
        Algebra.from_json(data)


@pytest.mark.parametrize("scalar", [False, True], ids=["two-blocks", "one-block"])
def test_split_certificate_local_claim_must_match_its_blocks(scalar):
    # a split certificate is local exactly when it is one block with n = 1, so
    # a claim either way is checked against the blocks, never written back
    alg = make_triangular(2, GF2, scalar)
    data = alg.to_json()
    assert data["certificate"]["local"] is scalar
    data["certificate"]["local"] = not scalar
    with pytest.raises(InputError, match="only one block with n = 1 is local"):
        Algebra.from_json(data)
    del data["certificate"]["local"]  # the claim is optional, and then derived
    assert Algebra.from_json(data).to_json() == alg.to_json()


def test_split_certificate_rejects_an_empty_block():
    # a block of size 0 fills nothing of R/J, so the size count alone accepts it
    data = make_triangular(2, GF2).to_json()
    data["certificate"]["blocks"].append({"n": 0, "matrix_units": []})
    with pytest.raises(InputError, match="block 2 has n = 0 and 0 matrix units"):
        Algebra.from_json(data)


def test_split_certificate_rejects_a_block_with_the_wrong_unit_count():
    # both matrix units in the first n = 1 block, none in the second: the
    # sizes fill R/J, but the second block has no unit E_00 to check
    data = make_triangular(2, GF2).to_json()
    first, second = data["certificate"]["blocks"]
    first["matrix_units"] += second["matrix_units"]
    second["matrix_units"] = []
    with pytest.raises(InputError, match="block 0 has n = 1 and 2 matrix units, needs n >= 1 and n\\^2 units"):
        Algebra.from_json(data)


def test_split_gallery_algebras_write_local_as_one_block_of_size_one():
    written = set()
    for name, alg in iter_gallery_algebras():
        cert = alg.to_json().get("certificate")
        if cert is not None and cert["split"]:
            blocks = cert["blocks"]
            assert cert["local"] is (len(blocks) == 1 and blocks[0]["n"] == 1), name
            written.add(cert["local"])
    assert written == {True, False}


# -- generators ----------------------------------------------------------------------------------

def unital_closure_by_products(alg: Algebra, indices) -> Subspace:
    """The unital subalgebra the given basis elements generate, grown as a
    span closed under products of its own basis (no words): the oracle for
    `Algebra.generators`."""
    span = Subspace.from_vectors(alg.field, alg.dim, [alg.one] + [alg.basis_coords(g) for g in indices])
    while True:
        products = [alg.mul_coords(x, y) for x in span.basis_rows for y in span.basis_rows]
        grown = span.sum(Subspace.from_vectors(alg.field, alg.dim, products))
        if grown == span:
            return span
        span = grown


def test_generators_generate_and_none_is_redundant():
    checked = 0
    for name, alg in iter_gallery_algebras():
        gens = alg.generators()
        assert alg.generators() is gens, name
        assert list(gens) == sorted(set(gens)), name
        assert unital_closure_by_products(alg, gens).dim == alg.dim, name
        for g in gens:
            assert unital_closure_by_products(alg, [h for h in gens if h != g]).dim < alg.dim, (name, g)
        checked += 1
    assert checked == 39


def test_generators_of_the_criterion8_algebras():
    assert {name: alg.generators() for name, alg in criterion8_algebras()} == {
        "kx2-q2": (1,), "kx2-q3": (1,), "kxy2-q2": (1, 2), "scalar-tri2-q2": (1,), "scalar-tri3-q2": (1, 3),
    }
    # F_q needs no generator; upper triangular 2x2 needs e22 and e12, since e11 = 1 - e22
    assert make_triangular(1, GF2).generators() == ()
    assert make_triangular(2, GF3).generators() == (1, 2)
