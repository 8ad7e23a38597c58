import json
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from soclelab import gallery
from soclelab.algebra import bimodule_length, radical_bruteforce, socle_graph, socle_is_central, socles
from soclelab.cli import main
from soclelab.errors import InputError, OutOfScopeError, TheoremViolation
from soclelab.gf import field_make
from soclelab.gallery import (
    LINE_COVER_EXPECTED,
    ROW_DIAGONAL_EXPECTED,
    iter_gallery_algebras,
    make_corner_family,
    make_cross,
    make_line_cover_system,
    make_row_diagonal_pair,
    make_square_zero_extension,
    make_triangular,
    make_twisted_truncated,
    make_number_field_example,
)
from soclelab.modrep import faithful, graph_socle_check, minimal_faithful, radical_image, top_socle
from soclelab.strongness import predicates, prop41_check, small_conditions
from soclelab.tensorcover import CoverageSide, TensorSubspace, check_bound, check_minimal

GF2 = field_make(2)
GF3 = field_make(3)


# -- tensor families -----------------------------------------------------------

def test_cross_dimensions():
    assert make_cross(2, 2, GF2).dim == 3
    assert make_cross(1, 1, GF3).dim == 1
    ts = make_cross(3, 4, GF2)
    assert ts.dim == 6
    assert check_bound(ts).both_hold


def test_cross_with_custom_directions():
    ts = make_cross(2, 3, GF3, b=(1, 2), c=(0, 1, 1))
    assert ts.dim == 4
    assert check_bound(ts).cond_b.holds


def test_corner_t1_equals_cross():
    for field, m, n in ((GF2, 3, 3), (GF3, 2, 4)):
        assert make_corner_family(m, n, 1, field).flat() == make_cross(m, n, field).flat()


def test_corner_dimension_formula():
    for (m, n, t) in ((3, 3, 2), (3, 3, 3), (4, 3, 2), (2, 2, 2)):
        ts = make_corner_family(m, n, t, GF2)
        assert ts.dim == t * (m + n - t) - (t - 1)


def test_corner_minimality_depends_on_field():
    assert check_minimal(make_corner_family(3, 3, 2, GF3))[0]
    is_min, witness = check_minimal(make_corner_family(3, 3, 3, GF2))
    assert not is_min and witness is not None


def test_corner_rejects_bad_parameter():
    with pytest.raises(InputError):
        make_corner_family(2, 3, 3, GF2)


def _cross_span_one_short(monkeypatch):
    # the span loses its last vector, e_(m-1) (x) c, which no other one spans
    real = gallery.Subspace.from_vectors
    monkeypatch.setattr(gallery, "Subspace", SimpleNamespace(from_vectors=lambda f, dim, vs: real(f, dim, vs[:-1])))


def _corner_basis_one_short(monkeypatch):
    monkeypatch.setattr(gallery, "TensorSubspace", lambda f, m, n, basis: TensorSubspace(f, m, n, basis[:-1]))


def _failing(side: str):
    # the constructor's one `check_bound` reports that side failed
    def force(monkeypatch):
        real = gallery.check_bound
        failed = {side: CoverageSide(False, [], None)}
        monkeypatch.setattr(gallery, "check_bound", lambda ts: replace(real(ts), **failed))
    return force


@pytest.mark.parametrize("item, build, force, message", [
    ("cross", lambda: make_cross(2, 2, GF2), _cross_span_one_short, "cross space has dimension 2, expected 3"),
    ("cross", lambda: make_cross(2, 2, GF2), _failing("cond_b"), "cross space fails a coverage condition"),
    ("cross", lambda: make_cross(2, 2, GF2), _failing("cond_c"), "cross space fails a coverage condition"),
    ("corner", lambda: make_corner_family(3, 3, 2, GF2), _corner_basis_one_short,
     "corner family has dimension 6, expected 7"),
    ("corner", lambda: make_corner_family(3, 3, 2, GF2), _failing("cond_b"),
     "corner family fails a coverage condition"),
    ("corner", lambda: make_corner_family(3, 3, 2, GF2), _failing("cond_c"),
     "corner family fails a coverage condition"),
])
def test_tensor_family_self_checks_are_violations(capsys, monkeypatch, item, build, force, message):
    # each promise the cross and corner constructors check, forced to fail:
    # the constructor raises, and `gallery make` (at its default parameters,
    # the ones built here) exits 4 with one "violation" record naming it
    force(monkeypatch)
    with pytest.raises(TheoremViolation, match="^" + re.escape(message) + "$"):
        build()
    code = main(["gallery", "make", item])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 4
    assert [(r["command"], r["verdict"]) for r in records] == [("gallery make", "violation")]
    assert records[0]["details"] == {"error": message}


# -- algebra constructors ---------------------------------------------------------

def test_triangular_certificates():
    alg = make_triangular(3, GF2, False)
    assert alg.certificate.radical.dim == 3
    assert len(alg.certificate.blocks) == 3
    scalar = make_triangular(2, GF3, True)
    assert len(scalar.certificate.blocks) == 1
    assert scalar.certificate.local
    assert socle_is_central(scalar)  # local with residue field the base field
    assert make_triangular(1, GF2, False).dim == 1  # the field itself


def test_twisted_truncated_centrality_table():
    for p in (2, 3):
        for d in (1, 2):
            for n in range(1, 5):
                alg = make_twisted_truncated(p, d, n)
                assert alg.dim == d * (n + 1)
                assert socle_is_central(alg) == (n % d == 0)
                soc = socles(alg).twosided
                assert soc.dim == d  # the top power's line over the extension


def test_twisted_d1_is_plain_truncated_polynomial():
    alg = make_twisted_truncated(3, 1, 2)
    # commutative: the structure constants are symmetric
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.mult[i][j] == alg.mult[j][i]
    assert alg.certificate.split


def test_square_zero_extension():
    alg = make_square_zero_extension(GF2, 2)
    assert alg.dim == 3
    assert alg.certificate.radical.dim == 2
    assert socles(alg).twosided.dim == 2
    assert socle_is_central(alg)


# -- the counterexample pair --------------------------------------------------------

def test_row_diagonal_expected_values_rederived():
    exp = ROW_DIAGONAL_EXPECTED
    ring, module = make_row_diagonal_pair()
    assert ring.dim == exp["ring_dim"]
    assert module.dim == exp["module_dim"]
    rad = radical_bruteforce(ring)
    assert rad.dim == exp["radical_dim"]
    soc = socles(ring).twosided
    assert soc.dim == exp["socle_dim"]
    assert bimodule_length(ring, soc) == exp["socle_bimodule_length"]
    graph = socle_graph(ring)
    assert graph.chi == exp["chi"]
    assert len(graph.edges) == exp["edges"]
    assert len(graph.left_vertices) == exp["left_vertices"]
    assert len(graph.right_vertices) == exp["right_vertices"]
    ok, _ = faithful(module)
    assert ok
    assert minimal_faithful(module).minimal
    ts = top_socle(module)
    assert ts.top_length == exp["top_length"]
    assert ts.socle_length == exp["socle_length"]
    assert radical_image(module).dim == exp["jm_dim"]
    ineq = graph_socle_check(module).inequality
    assert (ineq["lhs"], ineq["rhs"], ineq["holds"]) == (exp["lhs"], exp["rhs"], exp["holds"])


def test_line_cover_systems_expected_table():
    for (q, d), (lhs, rhs) in LINE_COVER_EXPECTED.items():
        sys_obj = make_line_cover_system(field_make(q), d)
        preds = predicates(sys_obj)
        assert preds.nondegenerate and preds.cond_b and preds.cond_c
        assert small_conditions(sys_obj) is None
        rep = prop41_check(sys_obj)
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
        assert not rep.holds
        assert not rep.budget.cardD_ok


def test_line_cover_component_count():
    sys_obj = make_line_cover_system(GF3, 2)
    assert len(sys_obj.s_blocks) == 4  # (9-1)/2 lines of k^2 over F_3
    sys_obj3 = make_line_cover_system(GF2, 3)
    assert len(sys_obj3.s_blocks) == 7


def test_number_field_stub():
    with pytest.raises(OutOfScopeError):
        make_number_field_example()


def test_gallery_grid_certificates_verified():
    names = set()
    for name, alg in iter_gallery_algebras():
        names.add(name)
        assert alg.certificate is not None
        # certificates were re-verified at construction; radical is exact
        assert alg.certificate.radical.dim < alg.dim or alg.dim == 0
    assert "triangular-4x4-q3" in names
    assert "twisted-truncated-p3-d2-n4" in names
    assert "row-diagonal-ring" in names
    assert len(names) == 39


def test_gallery_grid_ring_cap():
    capped = [name for name, _ in iter_gallery_algebras(max_ring=2**10)]
    assert "twisted-truncated-p3-d2-n4" not in capped  # 3^10 elements
    assert "twisted-truncated-p2-d1-n1" in capped
