"""End-to-end checks on algebras and systems with mixed block sizes.

The product of a 2x2 matrix algebra and the base field exercises every
blockwise code path (idempotent lifts, matrix-unit extraction, corner
lengths) with a genuinely non-scalar block, and its column module gives a
semisimple case where the graph bound holds with equality.
"""

import pytest

from soclelab import modrep
from soclelab.algebra import algebra_make, bimodule_length, radical_bruteforce, socle_graph, socles
from soclelab.errors import InputError
from soclelab.exactla import Mat
from soclelab.gf import field_make
from soclelab.gallery import make_row_diagonal_pair, make_square_zero_extension, make_triangular
from soclelab.modrep import (
    ModuleRep,
    faithful,
    graph_socle_check,
    local_socle_check,
    minimal_faithful,
    module_report,
    regular_module,
    shrink_submodule,
    system_from_module,
    top_socle,
)
from soclelab.strongness import n_strong, predicates, prop41_check, small_conditions

from helpers import semisimple_lengths

GF2 = field_make(2)


def product_algebra():
    """Matr_2(F_2) x F_2 embedded block-diagonally in the 3x3 matrices."""
    units22 = [Mat.unit(GF2, 3, 3, i, j) for i in range(2) for j in range(2)]
    basis = units22 + [Mat.unit(GF2, 3, 3, 2, 2)]

    def e(i):
        return tuple(1 if k == i else 0 for k in range(5))

    cert = {
        "radical_basis": [],
        "split": True,
        "blocks": [
            {"n": 2, "matrix_units": [e(0), e(1), e(2), e(3)]},
            {"n": 1, "matrix_units": [e(4)]},
        ],
    }
    return algebra_make(GF2, matrix_basis=basis, certificate=cert)


def column_module(alg):
    """The defining 3-dimensional module k^2 + k."""
    return ModuleRep(alg, 3, tuple(alg.matrix_basis))


def test_matrix_algebra_one_sided_versus_bimodule_length():
    # the full matrix algebra is its own socle: length n on one side, 1 as a
    # bimodule
    from soclelab.gallery import make_matrix_algebra

    for n in (1, 2):
        alg = make_matrix_algebra(n, GF2)
        left_lengths = semisimple_lengths(regular_module(alg))
        assert sum(left_lengths.values()) == n
        assert bimodule_length(alg, socles(alg).twosided) == 1


def test_product_algebra_structure():
    alg = product_algebra()
    assert alg.dim == 5
    assert radical_bruteforce(alg).dim == 0
    soc = socles(alg).twosided
    assert soc.dim == 5  # semisimple: the socle is everything
    assert bimodule_length(alg, soc) == 2  # one simple bimodule per factor
    g = socle_graph(alg)
    assert set(g.edges) == {(0, 0), (1, 1)}
    assert g.chi == 2  # two disjoint one-edge components
    assert g.edge_lengths == (1, 1)


def test_product_module_minimal_with_equality():
    alg = product_algebra()
    mod = column_module(alg)
    ok, _ = faithful(mod)
    assert ok
    assert minimal_faithful(mod).minimal
    ts = top_socle(mod)
    assert ts.top_length == 2 and ts.socle_length == 2
    rep = graph_socle_check(mod)
    ineq = rep.inequality
    assert (ineq["lhs"], ineq["rhs"], ineq["holds"]) == (4, 4, True)
    assert all(ineq["hypotheses_met"].values())


def test_product_module_system_blocks():
    alg = product_algebra()
    system = system_from_module(column_module(alg))
    assert [b.n for b in system.s_blocks] == [2, 1]
    assert [b.mult for b in system.s_blocks] == [1, 1]
    preds = predicates(system)
    assert preds.nondegenerate and preds.cond_b and preds.cond_c
    rep = prop41_check(system)
    assert rep.holds and rep.lt_a == 2
    assert small_conditions(system) is None


def test_product_module_double_not_minimal_and_shrinks():
    alg = product_algebra()
    double = column_module(alg).direct_sum(column_module(alg))
    rep = minimal_faithful(double)
    assert not rep.minimal
    shrunk = shrink_submodule(double)
    assert faithful(shrunk)[0]
    assert top_socle(shrunk).top_length <= 2


def test_strength_on_size_two_codomain_block():
    alg = product_algebra()
    system = system_from_module(column_module(alg))
    # codomain block 0 is Matr_2 with multiplicity 1: its only proper
    # submodule is zero, so strength reduces to having a simple-image element
    rep = n_strong(system, "left", 2, t_block=0, s_block=0)
    assert rep.strong
    rep_right = n_strong(system, "right", 2, t_block=0, s_block=0)
    assert rep_right.strong


def test_bad_local_certificate_rejected():
    # claiming a local (division) quotient for a two-block algebra must fail
    tri = make_triangular(2, GF2, False)
    with pytest.raises(InputError, match="division"):
        algebra_make(GF2, dim=3, mult=tri.mult, one=tri.one,
                     certificate={"radical_basis": [(0, 0, 1)], "split": False, "local": True})


def test_module_report_on_uncertified_algebra():
    mult = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    bare = algebra_make(GF2, dim=2, mult=mult, one=(1, 0))  # no certificate
    rep = module_report(regular_module(bare))
    assert rep.faithful
    assert rep.top_length is None
    assert any("not split-certified" in note for note in rep.notes)


@pytest.mark.parametrize("build, direct", [
    (lambda: make_row_diagonal_pair()[1], graph_socle_check),
    (lambda: regular_module(make_square_zero_extension(GF2, 2)), local_socle_check),
    (lambda: column_module(product_algebra()), graph_socle_check),
], ids=["row-diagonal", "szr", "product"])
def test_module_report_decides_minimality_and_lengths_once(monkeypatch, build, direct):
    # the report shares its lengths and minimality with the bound, so on a
    # minimal module each runs once, and its inequality is the direct check's
    mod = build()
    expected = direct(mod)
    calls = {"faithful": 0, "minimal_faithful": 0, "top_socle": 0}
    for name in calls:
        real = getattr(modrep, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(modrep, name, counted)
    report = module_report(build())
    assert calls == {"faithful": 2, "minimal_faithful": 1, "top_socle": 1}
    assert report.inequality == expected.inequality
    assert report.notes == expected.notes
    assert (report.top_length, report.socle_length) == (expected.top_length, expected.socle_length)
