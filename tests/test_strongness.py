import functools
import itertools
import json
import math
import random

import pytest

from soclelab import strongness
from soclelab.budget import Budget
from soclelab.cli import main
from soclelab.errors import BudgetExceeded, InputError, PreconditionError, TheoremViolation
from soclelab.corpus import random_split_system, random_verified_system
from soclelab.exactla import (
    Mat,
    RowBasis,
    Subspace,
    all_subspaces,
    kernel,
    num_projective_points,
    num_subspaces,
    row_rank,
)
from soclelab.gf import field_make
from soclelab.gallery import make_cross, make_line_cover_system
from soclelab.strongness import (
    BilinearSystem,
    BlockSpec,
    StrongReport,
    n_strong,
    no_union_cover,
    predicates,
    prop41_check,
    relative_n_strong,
    small_conditions,
    strength_budget,
    system_graph,
    tensor_maps,
    union_split,
    _corner_hypotheses,
    _corner_orbits,
    _kills_maximal,
    _maps_into_simple,
    _maximal_members,
    _simple_members,
    _swap_failures,
)

from helpers import (
    annihilating_combo,
    coverage_by_full_size_solves,
    enum_points,
    image_in_submodule_combo,
    maximal_b_submodules,
    rref_gauss_jordan,
    simple_c_submodules,
    strong_parts_by_elements,
    to_bilinear,
    union_split_by_elements,
)

GF2 = field_make(2)
GF3 = field_make(3)


def full_hom_system(field, s, t):
    gens = tuple(Mat.unit(field, t, s, i, j) for i in range(t) for j in range(s))
    return BilinearSystem(field, (BlockSpec(1, s),), (BlockSpec(1, t),), gens)


LINE_COVER_2 = make_line_cover_system(GF2, 2)


# -- base predicates --------------------------------------------------------------

def test_line_cover_predicates():
    preds = predicates(LINE_COVER_2)
    assert preds.nondegenerate and preds.cond_b and preds.cond_c


def test_zero_system_predicates():
    sys0 = BilinearSystem(GF2, (BlockSpec(1, 1),), (BlockSpec(1, 1),), ())
    preds = predicates(sys0)
    assert preds.nondegenerate          # vacuous for empty A
    assert not preds.cond_b             # nothing annihilates the zero submodule... there is no nonzero a at all


def test_cross_system_predicates():
    preds = predicates(to_bilinear(make_cross(2, 2, GF2)))
    assert preds.nondegenerate and preds.cond_b and preds.cond_c


def test_dependent_generators_fail_nondegeneracy():
    a = Mat.unit(GF2, 2, 2, 0, 0)
    sys_dep = BilinearSystem(GF2, (BlockSpec(1, 2),), (BlockSpec(1, 2),), (a, a))
    assert not predicates(sys_dep).nondegenerate


def test_balance_verification_rejects_non_bimodule():
    # a single off-diagonal unit between two S-blocks is not closed under
    # the block projectors acting on a two-block codomain side
    gens = (Mat.from_rows(GF2, [[1, 0], [0, 1]]),)
    with pytest.raises(InputError, match="sub-bimodule"):
        BilinearSystem(GF2, (BlockSpec(1, 1), BlockSpec(1, 1)),
                       (BlockSpec(1, 1), BlockSpec(1, 1)), gens)
    # one n = 2 block on each side: the projectors are the identity, so only
    # the matrix units see that span(E_11) is not closed
    with pytest.raises(InputError, match="sub-bimodule"):
        BilinearSystem(GF2, (BlockSpec(2, 1),), (BlockSpec(2, 1),), (Mat.unit(GF2, 2, 2, 0, 0),))


def test_block_sizes_are_checked():
    # a block needs n >= 1; a multiplicity of 0 is an absent module block
    for n, mult in ((0, 2), (-1, -1), (1, -1), (0, 0)):
        with pytest.raises(InputError, match="block needs n >= 1 and mult >= 0"):
            BlockSpec(n, mult)
    assert BlockSpec(1, 0).module_dim() == 0


# -- small conditions --------------------------------------------------------------

def test_line_cover_small_conditions():
    assert small_conditions(LINE_COVER_2) is None


def test_small_conditions_on_split_systems_never_break_the_chain():
    systems = [
        full_hom_system(GF2, 2, 2),
        full_hom_system(GF3, 1, 2),
        to_bilinear(make_cross(2, 3, GF2)),
        make_line_cover_system(GF3, 2),
    ]
    for sys_obj in systems:
        # the proved implication chain blocks => both => either: a failure raises
        assert small_conditions(sys_obj) is None


def test_small_conditions_vacuous_on_missing_block_pairs():
    # A touches only the first S-block: the untouched pair is vacuously fine,
    # and the block structure keeps the implication chain intact
    gens = (Mat.from_rows(GF2, [[1, 0]]),)
    sys_obj = BilinearSystem(GF2, (BlockSpec(1, 1), BlockSpec(1, 1)), (BlockSpec(1, 1),), gens)
    assert small_conditions(sys_obj) is None
    assert (0, 1) not in sys_obj.corner_spaces()  # the empty pair
    assert not any(any(m.entries) for m in sys_obj.block_maps(0, 1))


# -- the swap conditions by corners, against full-size maps built by matrix units --

def _sides(sys_obj):
    return ((sys_obj.t_blocks, sys_obj._c_offsets, sys_obj.dim_c),
            (sys_obj.s_blocks, sys_obj._b_offsets, sys_obj.dim_b))


def all_units(sys_obj):
    """Oracle: every matrix unit E_ij of every T-block acting on C and of
    every S-block acting on B, as full-size block-diagonal matrices."""
    out = []
    for blocks, offsets, dim in _sides(sys_obj):
        units = []
        for block, off in zip(blocks, offsets):
            for i in range(block.n):
                for j in range(block.n):
                    entries = [0] * (dim * dim)
                    for c in range(block.mult):
                        entries[(off + c * block.n + i) * dim + off + c * block.n + j] = 1
                    units.append(Mat._of(sys_obj.field, dim, dim, tuple(entries)))
        out.append(units)
    return out


def all_projectors(sys_obj):
    """Oracle: the full-size diagonal projector onto each T-block of C and
    onto each S-block of B."""
    return [
        [Mat._of(sys_obj.field, dim, dim, tuple(int(r == c and off <= r < off + block.module_dim())
                                                for r in range(dim) for c in range(dim)))
         for block, off in zip(blocks, offsets)]
        for blocks, offsets, dim in _sides(sys_obj)
    ]


def unit_orbit(sys_obj, a):
    """Oracle: T a S spanned by every E_ij a E_kl, each a product of full-size
    matrices with the matrix units of the blocks."""
    span = RowBasis(sys_obj.field, sys_obj.dim_b * sys_obj.dim_c)
    units_t, units_s = all_units(sys_obj)
    for ut in units_t:
        ua = ut.mul(a)
        for us in units_s:
            span.add(ua.mul(us).flatten())
    return [Mat._of(sys_obj.field, sys_obj.dim_c, sys_obj.dim_b, w) for w in span.snapshot()]


def _image_is_inside_simple(sys_obj, a):
    """Oracle: the submodule generated by a's image is simple, by the ranks of
    a's own image multiplicity vectors, summed over the blocks."""
    total = 0
    for f, block in enumerate(sys_obj.t_blocks):
        total += row_rank(sys_obj._image_mult_vectors(a, f), block.mult, sys_obj.field)
        if total > 1:
            return False
    return total == 1


def _kernel_contains_maximal(sys_obj, a):
    """Oracle: ker(a) contains a maximal submodule of B, by the colengths of
    a's own kernel multiplicity spaces (the ranks of their solves)."""
    total = 0
    for e, block in enumerate(sys_obj.s_blocks):
        total += row_rank(sys_obj._kernel_mult_rows(a, e), block.mult, sys_obj.field)
        if total > 1:
            return False
    return total == 1


def per_element_swap_failures(sys_obj, a):
    """Oracle: the swap failures at a, with both hypotheses read off a itself,
    T a S built only when one holds, and the members listed by the full-size
    enumerations.  The per-member tests are looked up on the module, so a
    test that patches them patches the oracle too."""
    simple_image = _image_is_inside_simple(sys_obj, a)
    maximal_kernel = _kernel_contains_maximal(sys_obj, a)
    if not (simple_image or maximal_kernel):
        return False, False
    corners = _corner_orbits(sys_obj, (a,))
    return (
        simple_image and not any(strongness._kills_maximal(sys_obj, corners, e, hyper)
                                 for e, hyper, _ in maximal_b_submodules(sys_obj)),
        maximal_kernel and not any(strongness._maps_into_simple(sys_obj, corners, f, mu)
                                   for f, mu, _ in simple_c_submodules(sys_obj)),
    )


def corner_tensor(sys_obj, f, e, x, i, l):
    """The full-size map X (x) E_il on the corner (f, e): slot (f, c, i) <- (e, c', l)
    carries X[c, c'], for X a flattened t_f x s_e matrix."""
    bf, be = sys_obj.t_blocks[f], sys_obj.s_blocks[e]
    c_off, b_off = sys_obj._c_offsets[f], sys_obj._b_offsets[e]
    entries = [0] * (sys_obj.dim_c * sys_obj.dim_b)
    for c in range(bf.mult):
        for c2 in range(be.mult):
            entries[(c_off + c * bf.n + i) * sys_obj.dim_b + b_off + c2 * be.n + l] = x[c * be.mult + c2]
    return Mat._of(sys_obj.field, sys_obj.dim_c, sys_obj.dim_b, tuple(entries))


def tensor_system(field, s_blocks, t_blocks, corner_spaces):
    """The system whose A is the sum of U_fe (x) Matr_{n_f x n_e} over the given
    corners {(f, e): spanning rows of U_fe}, built from full-size maps."""
    skeleton = BilinearSystem(field, s_blocks, t_blocks, ())
    gens = tuple(
        corner_tensor(skeleton, f, e, x, i, l)
        for (f, e), rows in sorted(corner_spaces.items())
        for x in rows
        for i in range(t_blocks[f].n)
        for l in range(s_blocks[e].n)
    )
    return BilinearSystem(field, s_blocks, t_blocks, gens)


# S = T = Matr_2 x k with multiplicity two on the Matr_2 blocks: n > 1 on both sides
TWO_BY_TWO = tensor_system(
    GF2,
    (BlockSpec(2, 2), BlockSpec(1, 1)),
    (BlockSpec(2, 2), BlockSpec(1, 1)),
    {(0, 0): [(1, 0, 0, 1)], (1, 0): [(1, 1)], (0, 1): [(1, 0)]},
)


def corner_check_systems():
    """Seeded random split systems over F_2 .. F_9 (small enough for the
    full-size oracle) plus the fixed systems of the chain test."""
    systems = [
        full_hom_system(GF2, 2, 2),
        full_hom_system(GF3, 1, 2),
        to_bilinear(make_cross(2, 3, GF2)),
        make_line_cover_system(GF3, 2),
        TWO_BY_TWO,
    ]
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)):
        field = field_make(p, e)
        for seed in (0, 1, 2, 3, 20, 29):
            sys_obj = random_split_system(field, random.Random(seed))
            if num_projective_points(sys_obj.a_span().dim, field.q) <= 160:
                systems.append(sys_obj)
    return systems


def test_corner_orbits_span_the_unit_orbit():
    for sys_obj in corner_check_systems()[:12]:
        field = sys_obj.field
        for vec in itertools.islice(enum_points(sys_obj.a_span()), 40):
            a = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
            corners = _corner_orbits(sys_obj, (a,))
            rebuilt = [
                corner_tensor(sys_obj, f, e, x, i, l).flatten()
                for (f, e), basis in corners.items()
                for x in basis
                for i in range(sys_obj.t_blocks[f].n)
                for l in range(sys_obj.s_blocks[e].n)
            ]
            oracle = [w.flatten() for w in unit_orbit(sys_obj, a)]
            ambient = sys_obj.dim_b * sys_obj.dim_c
            assert len(rebuilt) == len(oracle)
            assert Subspace.from_vectors(field, ambient, rebuilt) == Subspace.from_vectors(field, ambient, oracle)


def corner_blocks_by_index(sys_obj, maps):
    """The corner read by index selection: every A^{fe}_{jk} of every map,
    entry by entry at offset + copy * n + row, zero blocks dropped."""
    corners = {}
    for f, bf in enumerate(sys_obj.t_blocks):
        for e, be in enumerate(sys_obj.s_blocks):
            c_off, b_off = sys_obj._c_offsets[f], sys_obj._b_offsets[e]
            blocks = [
                block
                for a in maps
                for j in range(bf.n)
                for k in range(be.n)
                if any(block := [
                    a.entries[(c_off + c * bf.n + j) * a.cols + b_off + c2 * be.n + k]
                    for c in range(bf.mult)
                    for c2 in range(be.mult)
                ])
            ]
            if blocks:
                corners[f, e] = tuple(map(tuple, rref_gauss_jordan(blocks, bf.mult * be.mult, sys_obj.field)[0]))
    return corners


def test_corner_read_matches_index_selection():
    # several maps at once, sparse and dense, not closed under the block
    # actions: the corners and their order match the entry-by-entry read
    rng = random.Random(7)
    fields = [field_make(2), field_make(3), field_make(2, 2), field_make(5), field_make(3, 2)]
    for i in range(300):
        sys_obj = random_split_system(fields[i % len(fields)], rng)
        field, density = sys_obj.field, rng.choice((0.1, 0.5, 1.0))
        maps = [sys_obj.a_basis] + [
            [Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(
                rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(sys_obj.dim_c * sys_obj.dim_b)))
             for _ in range(count)]
            for count in (0, 1, 3)
        ]
        for group in maps:
            assert list(_corner_orbits(sys_obj, group).items()) == list(corner_blocks_by_index(sys_obj, group).items())


def test_per_member_corner_tests_match_full_size_solves():
    # at every point a, each maximal submodule of B and each simple submodule
    # of C is decided on the corners of T a S and by a full-size solve over a
    # basis of T a S, built from the matrix units
    systems = corner_check_systems()
    assert any(b.n > 1 for sys_obj in systems for b in sys_obj.s_blocks)
    assert any(b.n > 1 for sys_obj in systems for b in sys_obj.t_blocks)
    assert {sys_obj.field.q for sys_obj in systems} == {2, 3, 4, 5, 7, 9}
    checked = kills = maps = false_kills = false_maps = 0
    for sys_obj in systems:
        field = sys_obj.field
        maximal, simple = list(maximal_b_submodules(sys_obj)), list(simple_c_submodules(sys_obj))
        # the members come in the order of the full-size enumerations
        assert list(_maximal_members(sys_obj)) == [(e, hyper) for e, hyper, _ in maximal]
        assert list(_simple_members(sys_obj)) == [(f, mu) for f, mu, _ in simple]
        for vec in enum_points(sys_obj.a_span()):
            a = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
            corners = _corner_orbits(sys_obj, (a,))
            orbit = unit_orbit(sys_obj, a)
            for e, hyper, vectors in maximal:
                by_corners = _kills_maximal(sys_obj, corners, e, hyper)
                assert by_corners == (annihilating_combo(sys_obj, orbit, vectors) is not None), (
                    sys_obj.to_json(), vec, e, hyper)
                kills += by_corners
                false_kills += not by_corners
            for f, mu, vectors in simple:
                by_corners = _maps_into_simple(sys_obj, corners, f, mu)
                assert by_corners == (image_in_submodule_combo(sys_obj, orbit, vectors) is not None), (
                    sys_obj.to_json(), vec, f, mu)
                maps += by_corners
                false_maps += not by_corners
            checked += 1
    assert checked > 1500
    assert kills and maps and false_kills and false_maps


def test_swap_hypotheses_by_rank_match_the_multiplicity_spaces():
    # the rank sums against the dimensions of the spaces they replace:
    # a simple image has multiplicity dimension 1 in exactly one block, and a
    # kernel holds a maximal submodule when the colengths sum to 1
    simple = maximal = checked = 0
    for sys_obj in corner_check_systems():
        field = sys_obj.field
        for vec in enum_points(sys_obj.a_span()):
            a = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
            image_dims = [sys_obj.image_mult_space(a, f).dim for f in range(len(sys_obj.t_blocks))]
            colengths = [b.mult - sys_obj.kernel_mult_space(a, e).dim
                         for e, b in enumerate(sys_obj.s_blocks) if b.mult]
            by_spaces = [d for d in image_dims if d] == [1]
            assert _image_is_inside_simple(sys_obj, a) == by_spaces, (sys_obj.to_json(), vec)
            assert _kernel_contains_maximal(sys_obj, a) == (sum(colengths) == 1), (sys_obj.to_json(), vec)
            # the same pair read off the corners of T a S
            corners = _corner_orbits(sys_obj, (a,))
            assert _corner_hypotheses(sys_obj, corners) == (by_spaces, sum(colengths) == 1), (sys_obj.to_json(), vec)
            simple += by_spaces
            maximal += sum(colengths) == 1
            checked += 1
    assert 0 < simple < checked and 0 < maximal < checked


def test_per_member_corner_tests_pinned():
    # Hom(k^2, k^2) over F_2 with n = 1: T a S is just span(a).  The identity
    # kills no hyperplane and its image is no line.  E_01 kills exactly the
    # line of e_0 and maps into exactly that line; E_10 maps into the line of
    # e_1, whose leading 1 is not in the first coordinate.
    sys_obj = full_hom_system(GF2, 2, 2)
    hyperplanes, points = ((0, 1), (1, 1), (1, 0)), ((1, 0), (1, 1), (0, 1))
    identity = _corner_orbits(sys_obj, (Mat.identity(GF2, 2),))
    assert identity == {(0, 0): ((1, 0, 0, 1),)}
    assert list(_maximal_members(sys_obj)) == [(0, (h,)) for h in hyperplanes]
    assert list(_simple_members(sys_obj)) == [(0, mu) for mu in points]
    assert not any(_kills_maximal(sys_obj, identity, 0, (h,)) for h in hyperplanes)
    assert not any(_maps_into_simple(sys_obj, identity, 0, mu) for mu in points)
    rank_one = _corner_orbits(sys_obj, (Mat.unit(GF2, 2, 2, 0, 1),))
    assert [_kills_maximal(sys_obj, rank_one, 0, (h,)) for h in hyperplanes] == [False, False, True]
    assert [_maps_into_simple(sys_obj, rank_one, 0, mu) for mu in points] == [True, False, False]
    lower = _corner_orbits(sys_obj, (Mat.unit(GF2, 2, 2, 1, 0),))
    assert [_maps_into_simple(sys_obj, lower, 0, mu) for mu in points] == [False, False, True]
    # s_e = 1: the only maximal submodule of B is zero, which every nonzero
    # element kills, so the kernel side holds on any nonzero corner
    column_sys = full_hom_system(GF2, 1, 2)
    column = _corner_orbits(column_sys, (Mat.from_rows(GF2, [[1], [1]]),))
    assert column == {(0, 0): ((1, 1),)}
    assert list(_maximal_members(column_sys)) == [(0, ())]
    assert _kills_maximal(column_sys, column, 0, ())
    # a member of another block sees none of these corners
    two_blocks = BilinearSystem(GF2, (BlockSpec(1, 1), BlockSpec(1, 1)), (BlockSpec(1, 1),),
                                (Mat.from_rows(GF2, [[1, 0]]),))
    corners = two_blocks.corner_spaces()
    assert corners == {(0, 0): ((1,),)}
    assert [_kills_maximal(two_blocks, corners, e, ()) for e in (0, 1)] == [True, False]


def test_small_conditions_budget():
    big = full_hom_system(GF3, 3, 3)
    with pytest.raises(BudgetExceeded):
        small_conditions(big, Budget(max_enumeration=5))


def test_corner_hypotheses_pinned():
    # Hom(k^2, k^2) over F_2: the identity has neither a simple image nor a
    # kernel holding a maximal submodule, a rank-one map has both, and the
    # zero map (no corners) has neither: its kernel is all of B
    sys_obj = full_hom_system(GF2, 2, 2)
    assert _corner_hypotheses(sys_obj, _corner_orbits(sys_obj, (Mat.identity(GF2, 2),))) == (False, False)
    assert _corner_hypotheses(sys_obj, _corner_orbits(sys_obj, (Mat.unit(GF2, 2, 2, 0, 1),))) == (True, True)
    assert _corner_hypotheses(sys_obj, {}) == (False, False)
    # Hom(k^2, k^3) over F_3: a rank-two map has neither, a rank-one map both
    wide = full_hom_system(GF3, 2, 3)
    rank_two = Mat.from_rows(GF3, [[1, 0], [0, 1], [0, 0]])
    assert _corner_hypotheses(wide, _corner_orbits(wide, (rank_two,))) == (False, False)
    assert _corner_hypotheses(wide, _corner_orbits(wide, (Mat.unit(GF3, 3, 2, 2, 0),))) == (True, True)


def _no_corner_solution(sys_obj, corners, index, member):
    return False


@pytest.mark.parametrize("patched", [False, True])
def test_memoised_swap_decision_matches_the_per_element_oracle(monkeypatch, patched):
    # `_swap_failures` on a point's corner tuple (the corners of T a S) must
    # match the per-element oracle read off the point itself, at every point,
    # and points must share tuples.  Unpatched, split systems never fail a
    # swap direction, so every decision is (False, False); with both
    # per-member tests patched to False a decision is the pair of hypotheses,
    # so the decisions compared are nontrivial
    if patched:
        monkeypatch.setattr(strongness, "_kills_maximal", _no_corner_solution)
        monkeypatch.setattr(strongness, "_maps_into_simple", _no_corner_solution)
    points = failing = reused = 0
    for sys_obj in corner_check_systems():
        field = sys_obj.field
        memo = {}
        for vec in enum_points(sys_obj.a_span()):
            a = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
            corners = _corner_orbits(sys_obj, (a,))
            key = tuple(sorted(corners.items()))
            reused += key in memo
            if key not in memo:
                memo[key] = _swap_failures(sys_obj, corners)
            expected = per_element_swap_failures(sys_obj, a)
            assert memo[key] == expected, (sys_obj.to_json(), vec)
            points += 1
            failing += any(expected)
    assert points > 1500 and reused
    assert (failing > 0) == patched


def recording_swap_decisions(monkeypatch):
    """The corner tuples that `_swap_failures` is called with, appended as
    `small_conditions` decides them."""
    calls = []
    real = strongness._swap_failures

    def recording(sys_obj, corners):
        calls.append(dict(corners))
        return real(sys_obj, corners)

    monkeypatch.setattr(strongness, "_swap_failures", recording)
    return calls


# a seeded random split system over F_3 with an n = 2 codomain block, the rs3.json of the CI hash step
RS3 = random_split_system(GF3, random.Random(21))


@functools.lru_cache(maxsize=None)
def criterion9_systems():
    """The 500 systems of criterion 9 at its default seed, in the order of
    `reproduce.battery_system_no_violation`."""
    rng = random.Random(20260808)
    fields = [field_make(2, 2), field_make(5), field_make(7), field_make(3, 2)]
    systems, idx = [], 0
    while len(systems) < 500:
        result = random_verified_system(fields[idx % len(fields)], rng)
        idx += 1
        if result is not None:
            systems.append(result[0])
    return tuple(systems)


def test_small_conditions_decides_each_distinct_orbit_once(monkeypatch):
    # the tuples decided are exactly the distinct corner tuples of T a S over
    # the points of A, read point by point, each decided once
    small = [sys_obj for sys_obj in criterion9_systems()
             if num_projective_points(sys_obj.a_span().dim, sys_obj.field.q) <= 400]
    assert len(small) == 220
    calls = recording_swap_decisions(monkeypatch)
    points = decisions = 0
    for sys_obj in corner_check_systems() + [RS3] + small:
        del calls[:]
        assert small_conditions(sys_obj) is None
        field, span = sys_obj.field, sys_obj.a_span()
        keys = set()
        for vec in enum_points(span):
            a = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
            keys.add(tuple(sorted(_corner_orbits(sys_obj, (a,)).items())))
        decided = [tuple(sorted(corners.items())) for corners in calls]
        assert len(decided) == len(set(decided)) and set(decided) == keys, sys_obj.to_json()
        points += num_projective_points(span.dim, field.q)
        decisions += len(calls)
    assert decisions < points


def tuple_count(sys_obj):
    """The number of nonzero tuples of corner subspaces U_fe of W_fe with
    dim U_fe <= n_f * n_e."""
    return math.prod(num_subspaces(len(basis), sys_obj.field.q, sys_obj.t_blocks[f].n * sys_obj.s_blocks[e].n)
                     for (f, e), basis in sys_obj.corner_spaces().items()) - 1


def test_tuple_weights_partition_the_points(monkeypatch):
    # a tuple (U_fe) is taken by prod s(U_fe) / (q - 1) points of A, where
    # s(U) = prod_{i < dim U} (q^m - q^i) counts the m-tuples of vectors of U
    # that span it, m = n_f * n_e; over the decided tuples these sum to P(A).
    # Also on criterion 9's systems with more points than the default cap
    # and at most 1,000 tuples, whose point scan would not fit
    over_cap = [sys_obj for sys_obj in criterion9_systems()
                if num_projective_points(sys_obj.a_span().dim, sys_obj.field.q) > Budget().max_enumeration
                and tuple_count(sys_obj) <= 1000]
    assert len(over_cap) == 50
    calls = recording_swap_decisions(monkeypatch)
    for sys_obj in corner_check_systems() + [RS3] + over_cap:
        del calls[:]
        assert small_conditions(sys_obj) is None
        q = sys_obj.field.q
        total = 0
        for corners in calls:
            weight = 1
            for (f, e), basis in corners.items():
                m = sys_obj.t_blocks[f].n * sys_obj.s_blocks[e].n
                weight *= math.prod(q**m - q**i for i in range(len(basis)))
            assert weight % (q - 1) == 0
            total += weight // (q - 1)
        assert total == num_projective_points(sys_obj.a_span().dim, q), sys_obj.to_json()
        assert len(calls) == tuple_count(sys_obj)  # the count charged is the work done


def test_small_conditions_charges_tuples_not_points(monkeypatch):
    # TWO_BY_TWO has 255 points of P(A), but each of its three corners W_fe is
    # one line, so 2^3 - 1 nonzero tuples; the count is charged before any is built
    assert num_projective_points(TWO_BY_TWO.a_span().dim, 2) == 255
    calls = recording_swap_decisions(monkeypatch)
    assert small_conditions(TWO_BY_TWO, Budget(max_enumeration=7)) is None
    assert len(calls) == 7
    del calls[:]
    with pytest.raises(BudgetExceeded, match="small-conditions enumeration") as exc:
        small_conditions(TWO_BY_TWO, Budget(max_enumeration=6))
    assert (exc.value.needed, exc.value.cap) == (7, 6)
    assert calls == []


@pytest.mark.parametrize("patched, direction", [("_kills_maximal", "forward"), ("_maps_into_simple", "backward")])
def test_a_swap_failure_in_either_direction_raises(monkeypatch, patched, direction):
    # TWO_BY_TWO: W_01 and W_10 are spanned by one vector of k^2, so each
    # element of those corners has a simple image and a kernel holding a
    # maximal submodule; with one per-member test patched to False, that
    # direction fails there, and a failure in one direction is a violation
    assert small_conditions(TWO_BY_TWO) is None
    monkeypatch.setattr(strongness, patched, _no_corner_solution)
    with pytest.raises(TheoremViolation, match=f"fails the {direction} swap condition"):
        small_conditions(TWO_BY_TWO)


# -- the balance check, block maps and the graph, against the full-size oracles --

FIELDS = tuple(field_make(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)))


@pytest.mark.parametrize("field", FIELDS + (field_make(2, 3),), ids=repr)
def test_one_map_kills_matches_the_rank_definition(field, rng):
    # with one map X, `_kills` is a zero test of the image; the definition is
    # a rank drop of the one stacked row (X v_1, ..., X v_k), by Gauss-Jordan.
    # The vectors are a basis of ker X (X kills them) or random ones
    outcomes = set()
    for trial in range(80):
        t, s = rng.randrange(1, 5), rng.randrange(1, 5)
        x = Mat.from_rows(field, [[rng.randrange(field.q) if rng.random() < 0.5 else 0 for _ in range(s)]
                                  for _ in range(t)])
        ker = kernel(x).basis_rows
        vectors = list(ker) if trial % 2 and ker else \
            [tuple(rng.randrange(field.q) for _ in range(s)) for _ in range(rng.randrange(1, 3))]
        stacked = [c for v in vectors for c in x.apply(v)]
        by_rank = not rref_gauss_jordan([stacked], len(stacked), field)[1]
        assert strongness._kills(field, [x.entries], s, vectors) == by_rank, (x.row_list(), vectors)
        outcomes.add(by_rank)
    assert outcomes == {True, False}


@functools.lru_cache(maxsize=None)
def random_systems():
    """Seeded corpus systems, 48 per field over F_2, F_3, F_4, F_5, F_7, F_9."""
    return tuple(random_split_system(field, random.Random(seed)) for field in FIELDS for seed in range(48))


def closed_under_units(sys_obj, gens):
    """Oracle: span(gens) contains every E_ij a and every a E_kl, products of
    full-size matrices with the matrix units of the blocks."""
    span = RowBasis(sys_obj.field, sys_obj.dim_b * sys_obj.dim_c)
    for a in gens:
        span.add(a.flatten())
    units_t, units_s = all_units(sys_obj)
    return all(not any(span.reduce(u.mul(a).flatten())) for a in gens for u in units_t) and all(
        not any(span.reduce(a.mul(u).flatten())) for a in gens for u in units_s)


def passes_balance_check(sys_obj, gens):
    try:
        BilinearSystem(sys_obj.field, sys_obj.s_blocks, sys_obj.t_blocks, tuple(gens))
    except InputError:
        return False
    return True


def test_balance_check_by_dimension_matches_the_matrix_units():
    # each corpus system, the same without its first generator, and the same
    # with a random matrix added
    rng = random.Random(7)
    checked = unbalanced = 0
    for sys_obj in random_systems():
        field, gens = sys_obj.field, list(sys_obj.a_basis)
        extra = Mat._of(field, sys_obj.dim_c, sys_obj.dim_b,
                        tuple(rng.randrange(field.q) for _ in range(sys_obj.dim_c * sys_obj.dim_b)))
        for variant in (gens, gens[1:], gens + [extra]):
            closed = closed_under_units(sys_obj, variant)
            assert passes_balance_check(sys_obj, variant) == closed, (sys_obj.to_json(), len(variant))
            checked += 1
            unbalanced += not closed
    assert checked == 3 * len(random_systems())
    assert 0 < unbalanced < checked, (unbalanced, checked)


def test_block_maps_and_graph_match_projector_products():
    for sys_obj in random_systems():
        # the corpus builds its systems unverified; the balance check accepts every one
        assert passes_balance_check(sys_obj, sys_obj.a_basis), sys_obj.to_json()
        gens = sys_obj.a_basis
        projectors_t, projectors_s = all_projectors(sys_obj)
        assert sys_obj.block_maps() == list(gens)
        for f, pf in enumerate(projectors_t):
            assert sys_obj.block_maps(f, None) == [pf.mul(a) for a in gens]
        for e, pe in enumerate(projectors_s):
            assert sys_obj.block_maps(None, e) == [a.mul(pe) for a in gens]
        edges, lengths = [], []
        for f, pf in enumerate(projectors_t):
            for e, pe in enumerate(projectors_s):
                corner = [pf.mul(a).mul(pe) for a in gens]
                assert sys_obj.block_maps(f, e) == corner
                dim = Subspace.from_vectors(sys_obj.field, sys_obj.dim_b * sys_obj.dim_c,
                                            [m.flatten() for m in corner]).dim
                pair = sys_obj.t_blocks[f].n * sys_obj.s_blocks[e].n
                assert dim % pair == 0
                if dim:
                    edges.append((f, e))
                    lengths.append(dim // pair)
        graph, lt_a = system_graph(sys_obj)
        assert (graph.edges, graph.edge_lengths, lt_a) == (tuple(edges), tuple(lengths), sum(lengths))
        degrees = strength_budget(sys_obj)
        assert degrees.d_T == max(sum(1 for f2, _ in edges if f2 == f) for f, _ in edges)
        assert degrees.d_S == max(sum(1 for _, e2 in edges if e2 == e) for _, e in edges)


def test_tensor_maps_write_the_corner_layout():
    for sys_obj in random_systems()[::6] + (TWO_BY_TWO,):
        for (f, e), basis in sys_obj.corner_spaces().items():
            expected = [corner_tensor(sys_obj, f, e, u, i, l).flatten()
                        for u in basis for i in range(sys_obj.t_blocks[f].n) for l in range(sys_obj.s_blocks[e].n)]
            assert [m.flatten() for m in tensor_maps(sys_obj, f, e, basis)] == expected
            # reading the corner back gives U again
            assert _corner_orbits(sys_obj, tensor_maps(sys_obj, f, e, basis)) == {(f, e): basis}


# -- the coverage conditions, against full-size solves -----------------------------------

def test_coverage_predicates_match_full_size_solves():
    false_b = false_c = 0
    for sys_obj in random_systems():
        preds = predicates(sys_obj)
        got = (preds.cond_b, preds.cond_c, preds.cond_b_failing, preds.cond_c_failing)
        assert got == coverage_by_full_size_solves(sys_obj), sys_obj.to_json()
        false_b += not preds.cond_b
        false_c += not preds.cond_c
    assert false_b and false_c, (false_b, false_c)


def test_coverage_counts_elements_not_coefficient_vectors():
    # S = one block with multiplicity 2, T = k: span(E_00) kills the line of
    # e_1 only.  The hyperplanes come in the order (0, 1), (1, 1), (1, 0), so
    # the first one not killed is spanned by (1, 1).  Listing E_00 twice adds
    # a combination that is the zero map and must not count as an element.
    once = BilinearSystem(GF2, (BlockSpec(1, 2),), (BlockSpec(1, 1),), (Mat.unit(GF2, 1, 2, 0, 0),))
    twice = BilinearSystem(GF2, once.s_blocks, once.t_blocks, once.a_basis * 2)
    for sys_obj in (once, twice):
        preds = predicates(sys_obj)
        assert (preds.cond_b, preds.cond_b_failing) == (False, (0, ((1, 1),)))
        assert preds.cond_c
    assert predicates(once).nondegenerate and not predicates(twice).nondegenerate


# -- strength ------------------------------------------------------------------------

def test_line_cover_strength_pattern():
    assert n_strong(LINE_COVER_2, "left", 2, t_block=0).strong
    for e in range(3):
        assert not n_strong(LINE_COVER_2, "left", 1, t_block=0, s_block=e).strong
    # failing report carries the blocking family
    rep = n_strong(LINE_COVER_2, "left", 1, t_block=0, s_block=0)
    assert rep.witness_family is not None


def test_full_hom_is_q_strong():
    for field in (GF2, GF3):
        q = field.q
        for s, t in ((1, 2), (2, 2), (1, 3)):
            sys_obj = full_hom_system(field, s, t)
            assert n_strong(sys_obj, "left", q, t_block=0).strong
            assert n_strong(sys_obj, "right", q, s_block=0).strong


def test_strength_monotone_in_n():
    sys_obj = full_hom_system(GF3, 2, 2)
    for side in ("left", "right"):
        strengths = [n_strong(sys_obj, side, n).strong for n in (1, 2, 3)]
        # once it fails it must stay failed for larger N
        assert strengths == sorted(strengths, reverse=True)
    assert n_strong(LINE_COVER_2, "left", 2, t_block=0).strong
    assert n_strong(LINE_COVER_2, "left", 1, t_block=0).strong  # weaker condition


def brute_left_strong_all_proper_families(sys_obj, f, N):
    """Oracle for the maximal-family reduction: families drawn from ALL
    proper submodules, not just maximal ones."""
    field = sys_obj.field
    t = sys_obj.t_blocks[f].mult
    proper = [s for s in all_subspaces(field, t) if s.dim < t]
    span = sys_obj.a_span()
    elements = list(enum_points(span))
    size = int(N)
    for k in range(0, min(size, len(proper)) + 1):
        for family in itertools.combinations(proper, k):
            found = False
            for vec in elements:
                a = Mat(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
                mult = sys_obj.image_mult_space(a, f)
                if mult.dim != 1:
                    continue
                if all(not member.contains(mult) for member in family):
                    found = True
                    break
            if not found:
                return False
    return True


def brute_right_strong_all_nonzero_families(sys_obj, e, N):
    """Oracle for the simple-family reduction on the right: families drawn
    from ALL nonzero submodules, not just simple ones."""
    field = sys_obj.field
    s = sys_obj.s_blocks[e].mult
    nonzero = [y for y in all_subspaces(field, s) if y.dim > 0]
    pe = all_projectors(sys_obj)[1][e]
    span = Subspace.from_vectors(field, sys_obj.dim_b * sys_obj.dim_c, [a.mul(pe).flatten() for a in sys_obj.a_basis])
    elements = list(enum_points(span))
    size = int(N)
    for k in range(0, min(size, len(nonzero)) + 1):
        for family in itertools.combinations(nonzero, k):
            found = False
            for vec in elements:
                a = Mat(field, sys_obj.dim_c, sys_obj.dim_b, tuple(vec))
                kmult = sys_obj.kernel_mult_space(a, e)
                if kmult.dim != s - 1:
                    continue
                if all(not kmult.contains(member) for member in family):
                    found = True
                    break
            if not found:
                return False
    return True


def test_maximal_family_reduction_is_exact():
    # exhaustive comparison against the all-proper (left) or all-nonzero
    # (right) families oracle at q = 2
    samples = [
        full_hom_system(GF2, 1, 2),
        full_hom_system(GF2, 2, 2),
        full_hom_system(GF2, 1, 3),
        full_hom_system(GF2, 2, 1),
        full_hom_system(GF2, 3, 1),
        LINE_COVER_2,
    ]
    # plus every 1- and 2-dimensional span inside Hom(k^1, k^2) and Hom(k^2, k^1)
    for flat in all_subspaces(GF2, 2):
        if flat.dim == 0:
            continue
        gens = tuple(Mat(GF2, 2, 1, row) for row in flat.basis_rows)
        samples.append(BilinearSystem(GF2, (BlockSpec(1, 1),), (BlockSpec(1, 2),), gens))
        gens = tuple(Mat(GF2, 1, 2, row) for row in flat.basis_rows)
        samples.append(BilinearSystem(GF2, (BlockSpec(1, 2),), (BlockSpec(1, 1),), gens))
    for sys_obj in samples:
        for N in (1, 2, 3):
            fast = n_strong(sys_obj, "left", N, t_block=0).strong
            slow = brute_left_strong_all_proper_families(sys_obj, 0, N)
            assert fast == slow, (sys_obj.to_json(), "left", N)
            fast = n_strong(sys_obj, "right", N, s_block=0).strong
            slow = brute_right_strong_all_nonzero_families(sys_obj, 0, N)
            assert fast == slow, (sys_obj.to_json(), "right", N)


def test_failing_witness_families_are_pinned():
    # left: the only element of the corner 0 A 0 maps onto the line (1, 0),
    # so the hyperplane spanned by (1, 0) is avoided by nothing
    left = n_strong(LINE_COVER_2, "left", 1, t_block=0, s_block=0)
    assert not left.strong
    assert left.witness_family == [[(1, 0)]]
    # right: every nonzero functional on F_2^2 kills one of the three points
    right = n_strong(full_hom_system(GF2, 2, 1), "right", 3, s_block=0)
    assert not right.strong
    assert right.witness_family == [[1, 0], [1, 1], [0, 1]]


def test_budget_guard_on_families():
    sys_obj = full_hom_system(GF3, 3, 3)
    with pytest.raises(BudgetExceeded):
        n_strong(sys_obj, "left", 13, budget=Budget(max_enumeration=50))


def strength_systems():
    """Seeded corpus systems over F_2, F_3, F_4, F_5 and F_7 with dim A <= 8
    and at most 400 elements up to scalars, so the element walk stays short."""
    systems = []
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
        field = field_make(p, e)
        for seed in range(18):
            sys_obj = random_split_system(field, random.Random(f"strength/{p}^{e}/{seed}"))
            dim = sys_obj.a_span().dim
            if dim <= 8 and num_projective_points(dim, field.q) <= 400:
                systems.append(sys_obj)
    return systems


def strength_maps(sys_obj):
    """(side, t_block, s_block) for every row and every corner on the left,
    and every column and every corner on the right."""
    for f in range(len(sys_obj.t_blocks)):
        yield "left", f, None
        yield from (("left", f, e) for e in range(len(sys_obj.s_blocks)))
    for e in range(len(sys_obj.s_blocks)):
        yield "right", None, e
        yield from (("right", f, e) for f in range(len(sys_obj.t_blocks)))


def raised(call):
    """(what, needed) of the BudgetExceeded that call raises."""
    with pytest.raises(BudgetExceeded) as exc:
        call()
    return exc.value.what, exc.value.needed


def test_member_tests_match_the_element_walk():
    # n_strong on every row, column and corner and union_split over the
    # corners of every row and column, both sides, N = 1, 2, 3: the same
    # report, witness family included, and the same budget charge at cap 0
    zero = Budget(max_enumeration=0)
    calls = not_strong = 0
    for sys_obj in strength_systems():
        for side, f, e in strength_maps(sys_obj):
            block = f if side == "left" else e
            maps = sys_obj.block_maps(f, e)
            for N in (1, 2, 3):
                got = n_strong(sys_obj, side, N, t_block=f, s_block=e)
                want = strong_parts_by_elements(sys_obj, [maps], side, block, N, Budget())
                assert got.to_json() == want.to_json(), (sys_obj.to_json(), side, f, e, N)
                calls += 1
                not_strong += not got.strong
            assert raised(lambda: n_strong(sys_obj, side, 3, t_block=f, s_block=e, budget=zero)) == raised(
                lambda: strong_parts_by_elements(sys_obj, [maps], side, block, 3, zero))
        for side, blocks in (("left", sys_obj.t_blocks), ("right", sys_obj.s_blocks)):
            for block in range(len(blocks)):
                f, e = (block, None) if side == "left" else (None, block)
                other = len(sys_obj.s_blocks if side == "left" else sys_obj.t_blocks)
                parts = [sys_obj.block_maps(f, i) if side == "left" else sys_obj.block_maps(i, e) for i in range(other)]
                for N in (1, 2, 3):
                    idx, rep = union_split(sys_obj, parts, side, N, t_block=f, s_block=e)
                    want_idx, want_rep = union_split_by_elements(sys_obj, parts, side, N, t_block=f, s_block=e)
                    assert (idx, rep.to_json()) == (want_idx, want_rep.to_json()), (sys_obj.to_json(), side, block, N)
                    calls += 1
                assert raised(lambda: union_split(sys_obj, parts, side, 2, f, e, zero)) == raised(
                    lambda: union_split_by_elements(sys_obj, parts, side, 2, f, e, zero))
    assert calls >= 1500 and not_strong >= 150, (calls, not_strong)


def test_strength_charge_comes_before_any_member_is_enumerated(monkeypatch):
    # at cap 0 the family charge stops n_strong, on either side, before it
    # enumerates a point or a hyperplane of k^dim; with room, both run
    calls = []
    for name in ("enum_coeff_points", "full_hyperplanes"):
        monkeypatch.setattr(strongness, name,
                            lambda *args, name=name, enum=getattr(strongness, name): calls.append(name) or enum(*args))
    sys_obj = make_line_cover_system(GF3, 2)
    for side, s_block in (("left", None), ("right", 0)):
        assert raised(lambda: n_strong(sys_obj, side, 3, s_block=s_block, budget=Budget(max_enumeration=0)))[0] \
            == f"{side}-strong family enumeration"
    assert calls == []
    n_strong(sys_obj, "left", 3)
    assert set(calls) == {"enum_coeff_points", "full_hyperplanes"}


def test_union_split_rejects_a_part_that_is_not_a_sub_bimodule():
    # full corner of a T-block (n = 2, mult = 2) and an S-block (n = 2, mult = 1);
    # the one map with A_00 = (1, 0)^T and A_11 = (0, 1)^T has a 2-dimensional
    # image multiplicity space, but T a S also holds A_00 (x) E_00, whose is 1-dimensional
    sys_obj = tensor_system(GF2, (BlockSpec(2, 1),), (BlockSpec(2, 2),), {(0, 0): [(1, 0), (0, 1)]})
    part = [corner_tensor(sys_obj, 0, 0, (1, 0), 0, 0).add(corner_tensor(sys_obj, 0, 0, (0, 1), 1, 1))]
    assert sys_obj.image_mult_space(part[0], 0).dim == 2
    with pytest.raises(PreconditionError, match="part 0 does not span a sub-bimodule"):
        union_split(sys_obj, [part], "left", 1, t_block=0)
    # the whole of A is a sub-bimodule, so the same call runs on it
    idx, rep = union_split(sys_obj, [list(sys_obj.a_basis)], "left", 1, t_block=0)
    assert idx == 0 and rep.strong


# -- the union law ----------------------------------------------------------------------

def test_union_split_line_cover():
    parts = [LINE_COVER_2.block_maps(0, e) for e in range(3)]
    idx, rep = union_split(LINE_COVER_2, parts, "left", 2, t_block=0)
    assert idx is not None
    assert rep.strong  # the found part is 2/3-strong (empty families + simple image)


def test_union_split_single_part():
    sys_obj = full_hom_system(GF2, 1, 2)
    idx, rep = union_split(sys_obj, [list(sys_obj.a_basis)], "left", 2, t_block=0)
    assert idx == 0 and rep.strong
    weak = BilinearSystem(GF2, (BlockSpec(1, 1),), (BlockSpec(1, 2),),
                          (Mat.unit(GF2, 2, 1, 0, 0),))
    idx2, rep2 = union_split(weak, [list(weak.a_basis)], "left", 2, t_block=0)
    assert idx2 is None and not rep2.strong
    assert rep2.witness_family is not None


def test_union_split_not_strong_returns_counterexample():
    # two spans that each miss a line: their union misses a 2-family
    part1 = [Mat.unit(GF2, 2, 1, 0, 0)]
    part2 = [Mat.unit(GF2, 2, 1, 1, 0)]
    sys_obj = full_hom_system(GF2, 1, 2)
    idx, rep = union_split(sys_obj, [part1, part2], "left", 2, t_block=0)
    assert idx is None and not rep.strong


def test_union_split_raises_when_no_part_is_strong(monkeypatch):
    # the union law is proved: with the union forced strong and each single
    # part forced to fail on the empty family, a strong union with no strong
    # part is a violation
    parts = [LINE_COVER_2.block_maps(0, e) for e in range(3)]
    monkeypatch.setattr(strongness, "_strong_parts", lambda sys_obj, part_corners, side, block, N, budget:
                        StrongReport(len(part_corners) > 1, side, N, None if len(part_corners) > 1 else []))
    with pytest.raises(TheoremViolation, match=r"union is 2-strong but no part of 3 is 2/3-strong"):
        union_split(LINE_COVER_2, parts, "left", 2, t_block=0)


# -- the covering law ---------------------------------------------------------------------

def test_no_union_cover_raises_on_a_cover_within_the_lemma(monkeypatch):
    # the covering lemma is proved for N <= q: with every containment forced
    # true, the first family covers the module, and that is a violation; for
    # N > q a cover is reported, not raised
    monkeypatch.setattr(Subspace, "contains", lambda self, other: True)
    with pytest.raises(TheoremViolation, match=r"covers \(k\^1\)\^2 over F_2: contradicts the covering lemma"):
        no_union_cover(GF2, BlockSpec(1, 2), 2)
    assert not no_union_cover(GF2, BlockSpec(1, 2), 3)


def test_no_union_cover_values():
    assert no_union_cover(GF2, BlockSpec(1, 2), 2)
    assert not no_union_cover(GF2, BlockSpec(1, 2), 3)  # 3 lines do cover; N > q
    assert no_union_cover(GF3, BlockSpec(1, 2), 3)
    assert no_union_cover(GF2, BlockSpec(2, 1), 2)
    assert no_union_cover(GF3, BlockSpec(1, 3), 3)


# -- the length inequality -----------------------------------------------------------------

def test_prop41_line_cover_values():
    rep = prop41_check(LINE_COVER_2)
    assert (rep.lt_b, rep.lt_c, rep.lt_a) == (3, 2, 3)
    assert rep.graph.chi == 1
    assert (rep.lhs, rep.rhs, rep.holds) == (5, 4, False)
    failed = [k for k, v in rep.hypotheses_met.items() if not v]
    assert failed == ["cardD"]
    b = rep.budget
    assert (b.N_T, b.d_T, b.l_S, b.N_S, b.d_S, b.l_T) == (2, 3, 1, 2, 1, 2)


def test_prop41_cross_system_over_f3_holds():
    rep = prop41_check(to_bilinear(make_cross(2, 2, GF3)))
    assert (rep.lhs, rep.rhs) == (4, 4)
    assert rep.holds
    assert all(rep.hypotheses_met.values())


def test_prop41_raises_when_all_hypotheses_hold_but_the_inequality_fails(monkeypatch, tmp_path, capsys):
    # the cross system over F_3 meets every hypothesis with lhs = rhs = 4;
    # with lt(A) forced one lower, the proved inequality fails, a violation,
    # and `system check` reports it as verdict "violation", exit 4
    sys_obj = to_bilinear(make_cross(2, 2, GF3))
    path = tmp_path / "cross3.json"
    path.write_text(json.dumps(sys_obj.to_json()))
    real = strongness.system_graph
    monkeypatch.setattr(strongness, "system_graph", lambda s: (real(s)[0], real(s)[1] - 1))
    with pytest.raises(TheoremViolation, match=r"all hypotheses hold over F_3 but 4 > 3"):
        prop41_check(sys_obj)
    capsys.readouterr()
    assert main(["system", "check", str(path)]) == 4
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["command"], r["verdict"]) for r in records] == [("system check", "violation")]
    assert records[0]["details"]["error"].startswith("all hypotheses hold over F_3 but 4 > 3")


def test_prop41_line_cover_family():
    expected = {(2, 2): (5, 4), (3, 2): (6, 5), (2, 3): (10, 8)}
    for (q, d), (lhs, rhs) in expected.items():
        rep = prop41_check(make_line_cover_system(field_make(q), d))
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
        assert not rep.holds
        assert not rep.hypotheses_met["cardD"]


def test_system_graph_structure():
    graph, lt_a = system_graph(LINE_COVER_2)
    assert len(graph.left_vertices) == 1 and len(graph.right_vertices) == 3
    assert lt_a == 3 and graph.edge_lengths == (1, 1, 1)


# -- relative strength (experimental) --------------------------------------------------------

def test_relative_base_case():
    line = Subspace.from_vectors(GF2, 2, [(1, 0)])
    assert relative_n_strong(LINE_COVER_2, 1, line, t_block=0)
    # A = span(E_10) misses that line: the only line that receives a map is
    # the line of e_1, so A is not relatively 1-strong against all of k^2
    weak = BilinearSystem(GF2, (BlockSpec(1, 1),), (BlockSpec(1, 2),),
                          (Mat.unit(GF2, 2, 1, 1, 0),))
    assert [relative_n_strong(weak, 1, Subspace.from_vectors(GF2, 2, [mu]), t_block=0)
            for mu in ((1, 0), (0, 1), (1, 1))] == [False, True, False]
    assert not relative_n_strong(weak, 1, Subspace.full(GF2, 2), t_block=0)


def relative_base_by_brute_force(sys_obj, f, e, mu):
    """Oracle: some nonzero element of span(f A e) (f A when e is None),
    enumerated point by point over a basis of the span, maps every column
    into span(mu) (x) k^{n_f}."""
    field = sys_obj.field
    span = Subspace.from_vectors(field, sys_obj.dim_b * sys_obj.dim_c, [m.flatten() for m in sys_obj.block_maps(f, e)])
    target_vectors = next(vectors for g, point, vectors in simple_c_submodules(sys_obj) if (g, point) == (f, mu))
    target = Subspace.from_vectors(field, sys_obj.dim_c, target_vectors)
    for vec in enum_points(span):
        a = Mat(field, sys_obj.dim_c, sys_obj.dim_b, vec)
        if all(not any(target.reduce(a.col(c))) for c in range(sys_obj.dim_b)):
            return True
    return False


def test_relative_base_case_matches_brute_force():
    systems = [sys_obj for sys_obj in random_systems() if sys_obj.field.q <= 3 and sys_obj.a_span().dim <= 8]
    systems += [make_line_cover_system(GF3, 2), TWO_BY_TWO]
    checked = strong = 0
    for sys_obj in systems:
        field = sys_obj.field
        for f, mu in _simple_members(sys_obj):
            line = Subspace.from_vectors(field, sys_obj.t_blocks[f].mult, [mu])
            for e in (None, *range(len(sys_obj.s_blocks))):
                got = relative_n_strong(sys_obj, 1, line, t_block=f, s_block=e)
                assert got == relative_base_by_brute_force(sys_obj, f, e, mu), (sys_obj.to_json(), f, e, mu)
                checked += 1
                strong += got
    assert 0 < strong < checked and checked > 300, (strong, checked)


def test_relative_corner_with_one_line_is_not_strong():
    # the corner 0 A 2 of line-cover-system q=3 d=2 is one line, W_02 = span(mu)
    # for one point mu: only that line of k^2 receives a map, and 1-strength
    # against all of k^2 needs two of them.  The other generators compress to
    # zero on this corner and must not count as nonzero elements.
    lc3 = make_line_cover_system(GF3, 2)
    assert len(lc3.corner_spaces()[0, 2]) == 1
    assert sum(relative_n_strong(lc3, 1, Subspace.from_vectors(GF3, 2, [mu]), t_block=0, s_block=2)
               for mu in ((1, 0), (0, 1), (1, 1), (1, 2))) == 1
    assert not relative_n_strong(lc3, 1, Subspace.full(GF3, 2), t_block=0, s_block=2)
    assert relative_n_strong(lc3, 1, Subspace.full(GF3, 2), t_block=0)


def test_relative_strength_charges_its_enumeration():
    # length 2 enumerates the zero subspace, then the three lines of F_2^2
    target = Subspace.full(GF2, 2)
    with pytest.raises(BudgetExceeded, match="relative-strength subspace enumeration") as exc:
        relative_n_strong(LINE_COVER_2, 1, target, t_block=0, budget=Budget(max_enumeration=1))
    assert (exc.value.needed, exc.value.cap) == (2, 1)
    assert relative_n_strong(LINE_COVER_2, 1, target, t_block=0, budget=Budget(max_enumeration=4))


def test_relative_full_map_space_small_n():
    for field in (GF2, GF3):
        q = field.q
        for s, t in ((1, 2), (2, 2)):
            sys_obj = full_hom_system(field, s, t)
            target = Subspace.full(field, t)
            for n in range(1, q):
                assert relative_n_strong(sys_obj, n, target, t_block=0)


def test_relative_consistency_with_simple_coverage():
    # when every simple submodule receives a map and q >= N, the recursive
    # notion holds against the full codomain
    for sys_obj in (LINE_COVER_2, make_line_cover_system(GF3, 2), full_hom_system(GF3, 2, 2)):
        field = sys_obj.field
        t = sys_obj.t_blocks[0].mult
        preds = predicates(sys_obj)
        if not preds.cond_c:
            continue
        for n in range(1, field.q + 1):
            assert relative_n_strong(sys_obj, n, Subspace.full(field, t), t_block=0)


def test_relative_needs_nonzero_target():
    with pytest.raises(PreconditionError):
        relative_n_strong(LINE_COVER_2, 1, Subspace.zero(GF2, 2), t_block=0)


# -- serialization ------------------------------------------------------------------------------

def test_system_json_round_trip():
    for sys_obj in (LINE_COVER_2, full_hom_system(GF3, 2, 2)):
        data = sys_obj.to_json()
        again = BilinearSystem.from_json(data)
        assert again.to_json() == data
