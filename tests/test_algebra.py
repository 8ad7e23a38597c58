import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from soclelab import algebra, exactla
from soclelab.algebra import (
    Algebra,
    SocleGraph,
    _action_flats,
    _decode_coords,
    _diagonal_block_cuts,
    _encode_coords,
    _mask_outside_blocks,
    _nilpotent_ideal_defect,
    _odometer_flags,
    _permute_digits,
    _quasi_regular_flags,
    _unit_flags,
    algebra_make,
    bimodule_length,
    improved_bound,
    radical_bruteforce,
    socle_graph,
    socle_is_central,
    socles,
)
from soclelab.budget import Budget
from soclelab.cli import main
from soclelab.errors import BudgetExceeded, InputError, NotSplitError, TheoremViolation
from soclelab.exactla import Mat, RowBasis, Subspace, _echelon, mat_vec, row_rank
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

from helpers import (
    bimodule_length_by_corner_spans,
    intersection_dim,
    nilpotent_ideal_defect_by_products,
    radical_by_code_scan,
    residue_is_division_by_quotient,
    socle_graph_by_vertex_spans,
    socle_is_central_by_products,
    structure_defect,
)

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
    # matrix-unit constants with e12 * e21 redirected to e22 (basis order
    # e11, e12, e21, e22 -> indices 0, 1, 2, 3).  The first triple to fail
    # is (e11, e12, e21): (e11 e12) e21 = e12 e21 is now e22, while
    # e11 (e12 e21) = e11 e22 = 0
    good = make_matrix_algebra(2, GF2)
    mult = [list(row) for row in good.mult]
    mult[1][2] = (0, 0, 0, 1)
    with pytest.raises(InputError, match=r"^associativity fails on basis triple \(0, 1, 2\)$"):
        algebra_make(GF2, dim=4, mult=mult, one=good.one)


def _structure_cases():
    """Gallery algebras whose structure check the perturbation test runs:
    over F_2, F_3 and F_4 (whose codes 2 and 3 are not prime-field
    residues), dims 3 to 6."""
    gf4 = field_make(2, 2)
    yield make_matrix_algebra(2, GF2)
    yield make_triangular(3, GF2)
    yield make_row_diagonal_pair()[0]
    yield make_twisted_truncated(2, 2, 2)
    yield make_matrix_algebra(2, GF3)
    yield make_triangular(3, GF3, True)
    yield make_twisted_truncated(3, 1, 3)
    yield make_square_zero_extension(GF3, 2)
    yield make_matrix_algebra(2, gf4)
    yield make_triangular(3, gf4)
    yield make_square_zero_extension(gf4, 2)


def test_structure_check_matches_the_triple_scan_on_perturbed_algebras(rng):
    # one structure constant or one coordinate of 1 changed at random: the
    # construction fails with the triple scan's message, or passes when the
    # scan finds no failure
    seen = []
    for alg in _structure_cases():
        field, d = alg.field, alg.dim
        assert structure_defect(field, d, alg.mult, alg.one) is None
        for _ in range(24):
            mult = [list(row) for row in alg.mult]
            one = list(alg.one)
            if rng.random() < 0.2:
                target, pos = one, rng.randrange(d)
            else:
                i, j = rng.randrange(d), rng.randrange(d)
                target = mult[i][j] = list(mult[i][j])
                pos = rng.randrange(d)
            target[pos] = rng.choice([c for c in field.elements() if c != target[pos]])
            expected = structure_defect(field, d, mult, one)
            seen.append(expected)
            if expected is None:
                assert algebra_make(field, dim=d, mult=mult, one=one).dim == d
            else:
                with pytest.raises(InputError) as err:
                    algebra_make(field, dim=d, mult=mult, one=one)
                assert str(err.value) == expected
    triples = [re.fullmatch(r"associativity fails on basis triple \((\d+), (\d+), (\d+)\)", m) for m in seen if m]
    assert any(t and int(t[1]) > 0 and int(t[3]) > 0 for t in triples)
    assert any(m and m.startswith("identity law") for m in seen)
    assert None in seen


def test_rejects_coordinate_vectors_of_the_wrong_length():
    # one over-long structure constant, or an over-long 1, with a nonzero
    # extra coordinate: the check never reads that coordinate, so the
    # constructor refuses the shape before it
    good = make_matrix_algebra(2, GF2)
    mult = [list(row) for row in good.mult]
    mult[1][2] = (1, 0, 0, 0, 1)
    with pytest.raises(InputError, match=r"^coordinate vector has wrong length$"):
        algebra_make(GF2, dim=4, mult=mult, one=good.one)
    for one in (good.one + (1,), good.one[:3]):
        with pytest.raises(InputError, match=r"^coordinate vector has wrong length$"):
            algebra_make(GF2, dim=4, mult=good.mult, one=one)


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


# in M_2(F_2), basis E00, E01, E10, E11: the matrices with zero second
# column are a left ideal only, and those with zero second row a right ideal only
M2_ONE_SIDED = {"right": [(1, 0, 0, 0), (0, 0, 1, 0)], "left": [(1, 0, 0, 0), (0, 1, 0, 0)]}


@pytest.mark.parametrize("side", ["left", "right"])
def test_rejects_a_one_sided_ideal_certificate_naming_the_missing_side(side):
    m2 = make_matrix_algebra(2, GF2)
    with pytest.raises(InputError) as excinfo:
        algebra_make(GF2, dim=4, mult=m2.mult, one=m2.one,
                     certificate={"radical_basis": M2_ONE_SIDED[side], "split": True, "blocks": []})
    assert str(excinfo.value) == f"bad certificate: claimed radical is not a {side} ideal"


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


def _analyze_record(tmp_path, capsys, data):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    code = main(["algebra", "analyze", str(path)])
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return code, record


# the upper triangular 2x2 matrices over F_2, basis E00, E11, E01: radical
# span(E01), blocks E00 and E11; each certificate breaks one later check
@pytest.mark.parametrize("certificate, message", [
    ({"radical_basis": [[0, 0, 1]], "split": False, "local": False},
     "certificate must claim split blocks or a local (division) quotient"),
    ({"radical_basis": [[0, 0, 1]], "split": True,
      "blocks": [{"n": 1, "matrix_units": [[1, 0, 0]]}, {"n": 1, "matrix_units": [[1, 0, 1]]}]},
     "bad certificate: matrix units dependent modulo the radical"),
    # E00 and the identity: E00 * 1 is not in J, as blocks (0, 1) need
    ({"radical_basis": [[0, 0, 1]], "split": True,
      "blocks": [{"n": 1, "matrix_units": [[1, 0, 0]]}, {"n": 1, "matrix_units": [[1, 1, 0]]}]},
     "bad certificate: matrix-unit relation fails at blocks (0,1)"),
], ids=["neither-split-nor-local", "units-dependent-mod-J", "unit-relation"])
def test_analyze_rejects_each_bad_certificate(tmp_path, capsys, certificate, message):
    data = make_triangular(2, GF2, False).to_json()
    data["certificate"] = certificate
    code, record = _analyze_record(tmp_path, capsys, data)
    assert (code, record["verdict"], record["details"]) == (2, "input-error", {"error": message})


def test_analyze_rejects_idempotents_that_miss_the_identity(tmp_path, capsys, monkeypatch):
    # units that fill R/J and satisfy the unit relations have an idempotent
    # sum that is a left identity of R/J, so only a forced sum reaches the check
    data = make_triangular(2, GF2, False).to_json()
    monkeypatch.setattr(algebra.CertifiedStructure, "idempotent", lambda self, field, f: (0,) * self.radical.ambient_dim)
    code, record = _analyze_record(tmp_path, capsys, data)
    message = "bad certificate: block idempotents do not sum to the identity modulo J"
    assert (code, record["verdict"], record["details"]) == (2, "input-error", {"error": message})


def test_certificate_radical_in_the_wrong_space_is_rejected():
    # JSON decoding sizes the radical to the algebra, so only a direct
    # construction can hand over a radical of another ambient dimension
    tri = make_triangular(2, GF2, False)
    cert = algebra.CertifiedStructure(Subspace.zero(GF2, tri.dim + 1), True, tri.certificate.blocks, False)
    with pytest.raises(InputError) as excinfo:
        Algebra(GF2, tri.dim, tri.mult, tri.one, certificate=cert)
    assert str(excinfo.value) == "bad certificate: radical basis lives in the wrong space"


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


def test_ideal_defect_matches_the_single_products_on_gallery_radicals():
    checked = 0
    for name, alg in iter_gallery_algebras():
        if alg.certificate is not None:
            J = alg.certificate.radical
            assert _nilpotent_ideal_defect(alg, J) == nilpotent_ideal_defect_by_products(alg, J) is None, name
            checked += 1
    assert checked >= 30


def test_ideal_defect_matches_the_single_products_on_random_triangular():
    # the oracle's radical, and that radical with one random vector added,
    # which mostly breaks one of the three properties
    verdicts = set()
    for p, e, n, max_dim in [(2, 1, 4, 7), (3, 1, 3, 5), (2, 2, 3, 4)]:
        field = field_make(p, e)
        rng = random.Random(f"ideal-defect/{field.q}")
        for _ in range(4):
            alg = random_triangular_subalgebra(field, n, max_dim, rng)
            J = radical_bruteforce(alg)
            extra = tuple(rng.randrange(field.q) for _ in range(alg.dim))
            for sub in (J, Subspace.from_vectors(field, alg.dim, list(J.basis_rows) + [extra])):
                verdict = _nilpotent_ideal_defect(alg, sub)
                assert verdict == nilpotent_ideal_defect_by_products(alg, sub)
                verdicts.add(verdict)
    assert None in verdicts and len(verdicts) >= 2


def test_ideal_defect_names_each_missing_property_on_m2():
    m2 = make_matrix_algebra(2, GF2)
    subs = {side: Subspace.from_vectors(GF2, 4, rows) for side, rows in M2_ONE_SIDED.items()}
    subs["nilpotent"] = Subspace.full(GF2, 4)
    subs[None] = Subspace.zero(GF2, 4)
    for want, sub in subs.items():
        assert _nilpotent_ideal_defect(m2, sub) == nilpotent_ideal_defect_by_products(m2, sub) == want


def test_radical_oracle_matches_the_code_scan_on_certified_gallery_algebras():
    checked = 0
    for name, alg in iter_gallery_algebras(max_ring=3**8):
        if alg.certificate is not None:
            assert radical_bruteforce(alg) == radical_by_code_scan(alg), name
            checked += 1
    assert checked >= 30


def test_radical_oracle_matches_the_code_scan_on_random_triangular(monkeypatch):
    # the coset visit narrows its codes by one digit per pivot of the
    # verified span V; random subalgebras have radical vectors that are not
    # basis vectors, so V gains a pivot p below the top digit k of the
    # vector added, part way through the codes of top digit k
    added = []

    class RecordingBasis(RowBasis):
        def add(self, vec):
            added.append(tuple(vec))
            return super().add(vec)

    monkeypatch.setattr(algebra, "RowBasis", RecordingBasis)
    mid_range = 0
    for p, e, n, max_dim in [(2, 1, 4, 7), (3, 1, 3, 5), (2, 2, 3, 4), (5, 1, 3, 4)]:
        field = field_make(p, e)
        rng = random.Random(f"radical-code-scan/{field.q}")
        for _ in range(6):
            alg = random_triangular_subalgebra(field, n, max_dim, rng)
            added.clear()
            assert radical_bruteforce(alg) == radical_by_code_scan(alg)
            for x in added:
                support = [i for i, c in enumerate(x) if c]
                top = support[-1]
                # x scaled to top digit 1 is not the last code of its range
                lower = [field.mul(field.inv(x[top]), c) for c in x[:top]]
                mid_range += support[0] < top and any(c != field.q - 1 for c in lower)
    assert mid_range >= 5


def test_coset_visit_tests_each_radical_coset_once(monkeypatch):
    # one Rx walk (one rref_rows call) per member the oracle tests: on these
    # algebras every code visited is a new radical basis vector, since the
    # mask drops each code that is nonzero at a pivot of V; a scan of every
    # top-digit-1 code reduced by V makes 20 tests on triangular 4x4 over F_3
    tests = []

    def counting_rref_rows(*args):
        tests.append(1)
        return exactla.rref_rows(*args)

    monkeypatch.setattr(algebra, "rref_rows", counting_rref_rows)
    for alg in (make_triangular(4, GF3, False), make_twisted_truncated(3, 2, 3), make_twisted_truncated(2, 2, 4)):
        tests.clear()
        dim = radical_bruteforce(alg).dim
        assert dim >= 6 and len(tests) == dim
    # random subalgebras of dim 4 where a radical member takes a rejected
    # coset to a code still to visit: that code is cleared, not tested
    # again, so 7 tests and not 8 over F_3; over F_5 the rejected coset's
    # code is cleared only once it is scaled to top digit 1 (8 tests, not 9)
    for field, max_dim, draws, expected in ((GF3, 5, 10, (4, 1, 7)), (field_make(5), 4, 18, (4, 2, 8))):
        rng = random.Random(f"radical-code-scan/{field.q}")
        for _ in range(draws):
            alg = random_triangular_subalgebra(field, 3, max_dim, rng)
        tests.clear()
        assert (alg.dim, radical_bruteforce(alg).dim, len(tests)) == expected


def test_each_member_accepted_read_the_flag_of_every_element_of_its_ideal(monkeypatch):
    # the odometer over Rx: the test of a member that is accepted reads the
    # quasi-regular flag of each nonzero element of Rx, and no other
    lookups: list[set] = []
    accepted = []

    class RecordingFlags(bytearray):
        def __getitem__(self, i):
            lookups[-1].add(i)
            return super().__getitem__(i)

    class RecordingBasis(RowBasis):
        def add(self, vec):
            accepted.append((tuple(vec), len(lookups) - 1))
            return super().add(vec)

    def new_test(*args):
        lookups.append(set())
        return exactla.rref_rows(*args)

    monkeypatch.setattr(algebra, "_quasi_regular_flags", lambda r, unit: RecordingFlags(_quasi_regular_flags(r, unit)))
    monkeypatch.setattr(algebra, "RowBasis", RecordingBasis)
    monkeypatch.setattr(algebra, "rref_rows", new_test)
    # over F_2, F_3, F_4 and F_5, with ideals Rx of dimension up to 6
    algebras = [make_twisted_truncated(2, 2, 3), make_triangular(3, GF3, False), make_twisted_truncated(3, 1, 3),
                make_triangular(3, field_make(2, 2), False), make_twisted_truncated(5, 1, 3)]
    checked = 0
    for alg in algebras:
        field = alg.field
        lookups.clear()
        accepted.clear()
        radical_bruteforce(alg)
        elements = list(itertools.product(field.elements(), repeat=alg.dim))
        for x, test in accepted:
            ideal = {_encode_coords(alg.mul_coords(r, x), field.q) for r in elements} - {0}
            assert lookups[test] == ideal
            checked += len(ideal) > field.q - 1
    assert checked >= 10


class FlagsReadingZeroFirst(bytearray):
    """Quasi-regular flags that read 0 on their first `lies` lookups by
    index, and the truth after."""
    lies = 0

    def __getitem__(self, i):
        if isinstance(i, int) and self.lies:
            self.lies -= 1
            return 0
        return super().__getitem__(i)


def reject_first_tests(r, unit):
    # each of the first five elements the oracle tests is rejected at its
    # first lookup, radical or not
    flags = FlagsReadingZeroFirst(_quasi_regular_flags(r, unit))
    flags.lies = 5
    return flags


def unscaled_representative(basis, x):
    """A rejected representative reduced again by V but left unscaled, so
    the code cleared is not its coset's, and that coset is tested again."""
    return tuple(basis.reduce(x))


def all_quasi_regular(r, unit):
    return bytearray(b"\1" * len(unit))


# the two self-checks of the radical oracle, each forced through the library
# and through `algebra analyze --oracle`.  With canonical representatives a
# coset is tested at most once, so no flags alone bring a rejected one into
# V: the first case also clears the wrong code for a rejected coset, and
# tests that coset again on true flags after the lies run out
VIOLATIONS = [
    ({"_quasi_regular_flags": reject_first_tests, "_coset_representative": unscaled_representative},
     ["twisted-truncated", "p=3", "d=1", "n=3"], "radical oracle rejected a member of the verified span"),
    # every non-unit accepted, the idempotent E_00 first
    ({"_quasi_regular_flags": all_quasi_regular}, ["matrix-algebra", "n=2", "q=2"], "radical oracle produced a non-"),
]


@pytest.mark.parametrize("patches, gallery_args, message", VIOLATIONS)
def test_radical_oracle_self_checks_raise_theorem_violation(tmp_path, capsys, monkeypatch, patches, gallery_args, message):
    path = str(tmp_path / "alg.json")
    assert main(["gallery", "make", *gallery_args, "-o", path]) == 0
    alg = Algebra.from_json(json.loads(Path(path).read_text()))
    radical_bruteforce(alg)  # true flags: no violation
    for name, patched in patches.items():
        monkeypatch.setattr(algebra, name, patched)
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        radical_bruteforce(alg)
    capsys.readouterr()
    assert main(["algebra", "analyze", path, "--oracle"]) == 4
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 1
    assert records[0]["verdict"] == "violation"
    assert records[0]["details"]["error"].startswith(message)


def test_corner_dimension_off_the_block_sizes_is_a_violation(tmp_path, capsys, monkeypatch):
    # M_2(F_2) has one block, n = 2, and its socle is the whole algebra, the
    # one corner of dimension 4; a corner rank one too high is not divisible
    # by n * n.  Only the corner rank is raised: the certificate check's rank
    # of the matrix units modulo the radical, also a `row_rank` call, stays true
    path = tmp_path / "m22.json"
    path.write_text(json.dumps(make_matrix_algebra(2, field_make(2)).to_json()))
    alg = Algebra.from_json(json.loads(path.read_text()))
    assert bimodule_length(alg, socles(alg).twosided) == 1

    def corner_rank_raised(rows, ncols, field):
        rank = row_rank(rows, ncols, field)
        return rank + 1 if sys._getframe(1).f_code.co_name == "_corner_lengths" else rank

    monkeypatch.setattr(algebra, "row_rank", corner_rank_raised)
    message = "corner dimension 5 not divisible by 4: certificate corrupt"
    with pytest.raises(TheoremViolation, match="^" + re.escape(message) + "$"):
        bimodule_length(alg, socles(alg).twosided)
    capsys.readouterr()
    assert main(["algebra", "analyze", str(path)]) == 4
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["command"], r["verdict"], r["details"]) for r in records] == \
        [("algebra analyze", "violation", {"error": message})]


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
    full sweep (no early exit) for the rank.  It reads the whole matrices of
    _action_flats, never masked to diagonal blocks, and copies no flag."""
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


def test_unit_scan_rank_tests_only_the_codes_of_active_digits(monkeypatch):
    # one test per scalar class of the codes over the digits that stay
    # nonzero after masking; idle digits are copied, never walked
    counted = []

    def counting_kernels(field, n):
        pack, add, full_rank = exactla._full_rank_kernels(field, n)
        return pack, add, lambda packed: counted.append(1) or full_rank(packed)

    monkeypatch.setattr(algebra, "_full_rank_kernels", counting_kernels)
    units = {(i, j): Mat.unit(GF3, 2, 2, i, j) for i in range(2) for j in range(2)}
    cases = [
        # no cut: every digit active, 1 + 3 + 9 + 27 tests, as without masking
        (make_matrix_algebra(2, GF3), 40),
        # the six strictly upper matrix units are idle
        (make_triangular(4, GF3), 40),
        # only the two degree-0 basis elements stay active
        (make_twisted_truncated(3, 2, 3), 4),
        # an idle digit below the active ones: E_00 over it, E_11 over it and E_00
        (algebra_make(GF3, matrix_basis=[units[0, 1], units[0, 0], units[1, 1]]), 1 + 3),
    ]
    for alg, tests in cases:
        counted.clear()
        _unit_flags(alg)
        assert len(counted) == tests


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


def cuts_by_definition(flats, n, upper):
    """Every c in 1..n-1 at which all the flats are block upper (or lower)
    triangular: no nonzero entry crosses c on the wrong side of the
    diagonal.  Each cut is allowed or not on its own, so these together are
    the finest cut of that side."""
    def crosses(i, j, c):
        return j < c <= i if upper else i < c <= j
    return tuple(c for c in range(1, n)
                 if not any(flat[i * n + j] and crosses(i, j, c) for flat in flats
                            for i in range(n) for j in range(n)))


def test_diagonal_block_cuts_on_gallery_algebras():
    # matrix basis with 1 as the identity: upper triangular, one block per index
    flats, n = _action_flats(make_triangular(4, GF3))
    assert (n, _diagonal_block_cuts(flats, n)) == (4, (1, 2, 3))
    assert cuts_by_definition(flats, n, upper=True) == (1, 2, 3)
    # regular representation: x^i a maps x^j b into degree i + j, block lower
    # triangular by degree, one 2x2 block per degree
    flats, n = _action_flats(make_twisted_truncated(3, 2, 3))
    assert (n, _diagonal_block_cuts(flats, n)) == (8, (2, 4, 6))
    assert (cuts_by_definition(flats, n, upper=False), cuts_by_definition(flats, n, upper=True)) == ((2, 4, 6), ())
    # simple: no cut on either side
    flats, n = _action_flats(make_matrix_algebra(2, GF3))
    assert _diagonal_block_cuts(flats, n) == ()
    # the zero ring: n = 0 and no flats
    flats, n = _action_flats(algebra_make(GF2, dim=0, mult=[], one=()))
    assert (flats, n, _diagonal_block_cuts(flats, n)) == ([], 0, ())
    # every unit-flag algebra: the side with more cuts by the definition
    for name, alg in unit_flag_algebras():
        flats, n = _action_flats(alg)
        upper, lower = cuts_by_definition(flats, n, True), cuts_by_definition(flats, n, False)
        assert _diagonal_block_cuts(flats, n) == (upper if len(upper) >= len(lower) else lower), name


def random_block_triangular_flats(rng, field, n, k, upper, sparse):
    """A base and k flats, all block upper (or lower) triangular at a random
    cut.  Some flats are nonzero only outside the diagonal blocks, so they
    are zero once masked; sparse ones make singular matrices common."""
    q = field.q
    cut = rng.sample(range(1, n), rng.randrange(1, n))
    block = [sum(c <= t for c in cut) for t in range(n)]

    def rand_flat(inside):
        def allowed(i, j):
            if block[i] == block[j]:
                return inside
            return block[i] < block[j] if upper else block[i] > block[j]
        return [rng.randrange(q) if allowed(i, j) and not (sparse and rng.randrange(3)) else 0
                for i in range(n) for j in range(n)]

    return rand_flat(True), [rand_flat(rng.randrange(3) > 0) for _ in range(k)], len(cut)


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
    # block triangular flats, masked outside the diagonal blocks as
    # _unit_flags masks them: the masked odometer, with its idle digits,
    # against the list sweep on the unmasked flats
    rng = random.Random(f"masked-odometer/{q}")
    seen, idle_digits = set(), 0
    for trial in range(40):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, 5 if q <= 3 else 4)
        base, flats, cut_count = random_block_triangular_flats(rng, field, n, k, trial % 2 == 0, trial % 3 == 0)
        every = [base] + flats
        cuts = _diagonal_block_cuts(every, n)
        upper, lower = cuts_by_definition(every, n, True), cuts_by_definition(every, n, False)
        assert cuts == (upper if len(upper) >= len(lower) else lower)
        assert len(cuts) >= cut_count
        masked_base, *masked = _mask_outside_blocks(every, n, cuts)
        idle_digits += sum(not any(flat) for flat in masked)
        flags = _odometer_flags(masked_base, masked, n, field)
        assert bytes(flags) == odometer_flags_by_echelon(base, flats, n, field), (n, k, trial)
        seen.update(flags)
    assert seen == {0, 1}
    assert idle_digits > 0


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
    # chi > 0 adds chi to the socle's bimodule length
    g = SocleGraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 1)), (1, 1, 1), 1)
    assert improved_bound(g) == 4
    # chi = 0 on a 4-cycle: the bimodule length itself
    g = SocleGraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 1), (1, 0)), (2, 2, 1, 3), 0)
    assert improved_bound(g) == 8
    # chi = -2 on 3 + 3 vertices and 8 edges drops the two smallest lengths
    edges = tuple((f, e) for f in range(3) for e in range(3) if (f, e) != (2, 2))
    g = SocleGraph((0, 1, 2), (0, 1, 2), edges, (2, 1, 3, 2, 2, 1, 2, 2), -2)
    assert improved_bound(g) == 15 - 1 - 1


def test_improved_bound_on_graphs():
    ring, _ = make_row_diagonal_pair()
    g = socle_graph(ring)
    assert g.socle_bimodule_length == 3
    assert improved_bound(g) == 4
    # a realizable graph with negative Euler characteristic
    g_neg = SocleGraph((0, 1), (0, 1, 2),
                       ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)),
                       (1, 2, 2, 2, 1, 1), -1)
    assert improved_bound(g_neg) == 8


def test_socle_killed_by_radical_on_every_gallery_algebra():
    from soclelab.gallery import iter_gallery_algebras

    # and it is all of left ∩ right: {x : Jx = 0 = xJ}
    for name, alg in iter_gallery_algebras():
        triple = socles(alg)
        soc = triple.twosided
        assert soc.dim == intersection_dim(triple.left, triple.right), name
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
    assert improved_bound(g) == g.socle_bimodule_length


# -- centrality and locality -------------------------------------------------------------------

def test_socle_centrality():
    assert socle_is_central(make_square_zero_extension(GF2, 2))  # commutative
    assert socle_is_central(make_triangular(2, GF3, True))
    assert not socle_is_central(make_triangular(3, GF2, False))  # corner not central
    assert socle_is_central(make_twisted_truncated(2, 2, 2))
    assert not socle_is_central(make_twisted_truncated(2, 2, 1))


def test_socle_centrality_matches_the_single_products_on_the_gallery():
    verdicts = []
    for name, alg in iter_gallery_algebras():
        verdicts.append(socle_is_central(alg))
        assert verdicts[-1] == socle_is_central_by_products(alg), name
    assert True in verdicts and False in verdicts


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
        grown = Subspace.from_vectors(alg.field, alg.dim, list(span.basis_rows) + products)
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
