"""k-duality as an oracle: the transpose (T, S, A^T) of a split system swaps
B with C, and the dual M* = Hom_k(M, k) of a module, over the opposite
algebra, swaps submodules with quotients.  Each relation is checked with
exact equality, witness indices included: hyperplane i of
`full_hyperplanes` is the kernel of point i of `enum_coeff_points`."""

import functools
import random

from soclelab.algebra import socle_is_central, socles
from soclelab.budget import Budget
from soclelab.corpus import faithful_corpus, random_split_system
from soclelab.errors import BudgetExceeded
from soclelab.exactla import Subspace, enum_coeff_points, full_hyperplanes, transposed
from soclelab.gallery import make_line_cover_system
from soclelab.gf import field_make
from soclelab.modrep import module_report, shrink_quotient, shrink_submodule, top_socle
from soclelab.strongness import n_strong, predicates, prop41_check

from helpers import dual_module, opposite_algebra, transpose_system

DUALITY_FIELDS = tuple(field_make(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)))


@functools.lru_cache(maxsize=None)
def duality_systems():
    """The line-cover systems and 20 seeded random split systems per field
    over F_2, F_3, F_4 and F_5."""
    systems = [make_line_cover_system(field_make(q), d) for q, d in ((2, 2), (3, 2), (2, 3))]
    for field in DUALITY_FIELDS:
        rng = random.Random(f"duality/{field.q}")
        systems.extend(random_split_system(field, rng) for _ in range(20))
    return tuple(systems)


def hyperplane_index(field, dim: int, hyper) -> int:
    return [h.basis_rows for h in full_hyperplanes(field, dim)].index(tuple(map(tuple, hyper)))


def point_index(field, dim: int, mu) -> int:
    return list(enum_coeff_points(field, dim)).index(tuple(mu))


def test_transpose_matches_the_verifying_constructor():
    # the transpose skips the balance check: the verifying constructor takes
    # the same transposed generators, and each corner space W_ef of the
    # transpose is W_fe with its t_f x s_e basis rows transposed
    for sys_obj in duality_systems():
        dual, fresh = sys_obj.transpose(), transpose_system(sys_obj)
        assert (dual.s_blocks, dual.t_blocks, dual.a_basis) == (fresh.s_blocks, fresh.t_blocks, fresh.a_basis)
        assert dual.corner_spaces() == fresh.corner_spaces()
        assert dual.transpose().a_basis == sys_obj.a_basis
        assert len(dual.corner_spaces()) == len(sys_obj.corner_spaces())
        for (f, e), basis in sys_obj.corner_spaces().items():
            rows = [transposed(x, sys_obj.s_blocks[e].mult) for x in basis]
            assert Subspace.from_vectors(sys_obj.field, len(rows[0]), rows).basis_rows == dual.corner_spaces()[e, f]


def test_transpose_swaps_the_coverage_conditions():
    # cond_b of a system is cond_c of its transpose and the other way round,
    # and a failing maximal submodule (e, H_i) is the failing simple
    # submodule (e, point i) of the transpose
    failing = 0
    for sys_obj in duality_systems():
        fresh = transpose_system(sys_obj)
        preds, dual = predicates(sys_obj), predicates(fresh)
        assert preds.nondegenerate == dual.nondegenerate
        for this, that, b_side, c_side in ((preds, dual, sys_obj, fresh), (dual, preds, fresh, sys_obj)):
            assert this.cond_b == that.cond_c, sys_obj.to_json()
            if this.cond_b_failing is None:
                assert that.cond_c_failing is None
                continue
            (e, hyper), (f, mu) = this.cond_b_failing, that.cond_c_failing
            dim = b_side.s_blocks[e].mult
            assert f == e and c_side.t_blocks[f].mult == dim
            assert hyperplane_index(sys_obj.field, dim, hyper) == point_index(sys_obj.field, dim, mu)
            failing += 1
    assert failing >= 10


def test_left_strength_is_right_strength_of_the_transpose():
    # left N-strength on codomain block f, of the row and of each corner, is
    # right N-strength on domain block f of the transpose, with hyperplane i
    # of a failing family standing for point i; a budget stop needs the same
    cap = Budget(max_enumeration=2000)
    checked = not_strong = stopped = 0
    for sys_obj in duality_systems():
        fresh = transpose_system(sys_obj)
        field = sys_obj.field
        for f, block in enumerate(sys_obj.t_blocks):
            for e in (None, *range(len(sys_obj.s_blocks))):
                for N in (1, 2):
                    try:
                        left = n_strong(sys_obj, "left", N, t_block=f, s_block=e, budget=cap)
                    except BudgetExceeded as exc:
                        try:
                            n_strong(fresh, "right", N, t_block=e, s_block=f, budget=cap)
                        except BudgetExceeded as dual_exc:
                            assert dual_exc.needed == exc.needed
                        else:
                            raise AssertionError("only the left side stopped")
                        stopped += 1
                        continue
                    right = n_strong(fresh, "right", N, t_block=e, s_block=f, budget=cap)
                    assert left.strong == right.strong, (sys_obj.to_json(), f, e, N)
                    checked += 1
                    if left.strong:
                        assert left.witness_family is right.witness_family is None
                        continue
                    not_strong += 1
                    assert [hyperplane_index(field, block.mult, h) for h in left.witness_family] == \
                        [point_index(field, block.mult, mu) for mu in right.witness_family]
    assert checked >= 500 and not_strong >= 100 and stopped, (checked, not_strong, stopped)


def test_prop41_check_swaps_the_two_sides():
    # lt_b and lt_c trade places; lt_a, chi, the inequality and the
    # cardinality condition stay; cond_b and cond_c trade places
    cap = Budget(max_enumeration=200)
    for sys_obj in duality_systems():
        rep, dual = prop41_check(sys_obj, cap), prop41_check(transpose_system(sys_obj), cap)
        assert (rep.lt_b, rep.lt_c) == (dual.lt_c, dual.lt_b)
        assert (rep.lt_a, rep.graph.chi, rep.lhs, rep.rhs, rep.holds) == \
            (dual.lt_a, dual.graph.chi, dual.lhs, dual.rhs, dual.holds)
        swapped = dict(dual.hypotheses_met, cond_b=dual.hypotheses_met["cond_c"], cond_c=dual.hypotheses_met["cond_b"])
        assert rep.hypotheses_met == swapped, sys_obj.to_json()


@functools.lru_cache(maxsize=None)
def duality_corpus():
    """The shrink battery's faithful corpus at the default seed."""
    return tuple(faithful_corpus(random.Random(20260808), min_count=200))


def test_dual_module_report_swaps_top_and_socle():
    # M* over R^op: faithfulness, the bound and the notes stay, top and
    # socle lengths trade places, and so do the two minimality properties
    minimal = one_sided = 0
    opposites = {}  # by the identity of the algebra, which the corpus shares among its modules
    for name, m in duality_corpus():
        if id(m.algebra) not in opposites:
            opposites[id(m.algebra)] = m.algebra, opposite_algebra(m.algebra)  # the algebra kept keeps its id
        report = module_report(m).to_json()
        dual = module_report(dual_module(m, opposites[id(m.algebra)][1])).to_json()
        swapped = dict(dual, top_length=dual["socle_length"], socle_length=dual["top_length"],
                       no_faithful_max_submodule=dual["no_faithful_simple_quotient"],
                       no_faithful_simple_quotient=dual["no_faithful_max_submodule"])
        if report["inequality"] and "system" in report["inequality"]:
            # the induced system of M* is the transpose of M's, up to bases: only its own report differs
            system, dual_system = report["inequality"].pop("system"), swapped["inequality"].pop("system")
            assert (system["lt_b"], system["lt_c"], system["holds"]) == \
                (dual_system["lt_c"], dual_system["lt_b"], dual_system["holds"])
        assert report == swapped, name
        flags = report["no_faithful_max_submodule"], report["no_faithful_simple_quotient"]
        minimal += all(flags)
        one_sided += flags[0] != flags[1]
    assert minimal and one_sided


def test_opposite_algebra_swaps_the_one_sided_socles():
    # R^op has R's radical and two-sided socle, its left socle is R's right
    # socle, and its socle is central exactly when R's is
    seen = set()
    for _name, m in duality_corpus():
        alg = m.algebra
        if id(alg) in seen:
            continue
        seen.add(id(alg))
        opposite = opposite_algebra(alg)
        assert opposite.radical().basis_rows == alg.radical().basis_rows
        mine, theirs = socles(alg), socles(opposite)
        assert (theirs.left, theirs.right, theirs.twosided) == (mine.right, mine.left, mine.twosided)
        assert socle_is_central(opposite) == socle_is_central(alg)
    assert len(seen) >= 5


def test_shrinking_the_dual_quotient_side_is_the_dual_of_the_submodule_shrink():
    # submodules of M are the annihilators of quotients of M*, so the
    # quotient-shrink of M* over R^op has the dimension of M's
    # submodule-shrink, with top and socle lengths trading places
    opposites = {}
    shrunk, lopsided = 0, 0
    for name, m in duality_corpus():
        if id(m.algebra) not in opposites:
            opposites[id(m.algebra)] = m.algebra, opposite_algebra(m.algebra)
        sub = shrink_submodule(m)
        quot = shrink_quotient(dual_module(m, opposites[id(m.algebra)][1]))
        assert sub.dim == quot.dim, name
        mine, theirs = top_socle(sub), top_socle(quot)
        assert (mine.top_length, mine.socle_length) == (theirs.socle_length, theirs.top_length), name
        shrunk += sub.dim < m.dim
        lopsided += mine.top_length != mine.socle_length
    assert shrunk and lopsided
