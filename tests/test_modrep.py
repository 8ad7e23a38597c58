import itertools
import json
import random
import re
from types import SimpleNamespace

import pytest

from soclelab.algebra import algebra_make, bimodule_length, socle_graph, socles
from soclelab.budget import Budget
from soclelab.cli import main
from soclelab.corpus import ModuleAssembler, iter_generator_modules, random_generator_module
from soclelab.errors import BudgetExceeded, InputError, NotSplitError, PreconditionError, TheoremViolation
from soclelab.exactla import (
    Mat,
    Subspace,
    enum_hyperplanes,
    kernel,
    mat_of_columns,
    mat_of_rows,
    mat_vec,
)
from soclelab.gf import Field, field_make
from soclelab import exactla, modrep, strongness
from soclelab.gallery import (
    criterion8_algebras,
    iter_gallery_algebras,
    make_matrix_algebra,
    make_row_diagonal_pair,
    make_square_zero_extension,
    make_triangular,
    make_twisted_truncated,
)
from soclelab.modrep import (
    ModuleRep,
    annihilator,
    block_decomposition,
    faithful,
    graph_socle_check,
    local_socle_check,
    maximal_submodules,
    minimal_faithful,
    module_report,
    quotient_action,
    radical_image,
    regular_module,
    restrict_action,
    semisimple_length,
    shrink_quotient,
    shrink_subfactor,
    shrink_submodule,
    simple_socle_submodules,
    socle_subspace,
    system_from_module,
    top,
    top_socle,
)
from soclelab.strongness import predicates

from helpers import (
    images_on,
    intersection_dim,
    matrix_combination,
    random_invertible,
    residuals_mod,
    soc_annihilator_dim,
    submodule_closure,
    system_from_module_by_restriction,
    top_socle_lengths,
)

GF2 = field_make(2)
GF3 = field_make(3)

KX2 = make_twisted_truncated(2, 1, 1)      # F_2[x]/(x^2)
KX3 = make_twisted_truncated(3, 1, 1)      # F_3[x]/(x^2)
KXY = make_square_zero_extension(GF2, 2)   # F_2[x,y]/(x,y)^2


def test_radical_image_is_kept_but_not_after_a_budget_stop():
    # F_2[x]/(x^2) without a certificate: JM needs the radical oracle
    alg = algebra_make(GF2, dim=2, mult=[[(1, 0), (0, 1)], [(0, 1), (0, 0)]], one=(1, 0))
    m = regular_module(alg)
    with pytest.raises(BudgetExceeded):
        radical_image(m, Budget(max_ring=1))
    jm = radical_image(m)
    assert jm == Subspace.from_vectors(GF2, 2, [(0, 1)])
    assert radical_image(m) is jm


def test_socle_is_kept_but_not_after_a_budget_stop():
    # the same uncertified ring: soc(M) needs the radical oracle too
    alg = algebra_make(GF2, dim=2, mult=[[(1, 0), (0, 1)], [(0, 1), (0, 0)]], one=(1, 0))
    m = regular_module(alg)
    with pytest.raises(BudgetExceeded):
        socle_subspace(m, Budget(max_ring=1))
    soc = socle_subspace(m)
    assert soc == Subspace.from_vectors(GF2, 2, [(0, 1)])
    assert socle_subspace(m) is soc


def test_top_is_kept_but_not_after_a_budget_stop(monkeypatch):
    # a certified radical never runs out of budget, so the stop is patched in
    m = make_row_diagonal_pair()[1]
    real = m.algebra.radical

    def stopped(budget=None):
        raise BudgetExceeded("radical", 2, 1)

    monkeypatch.setattr(m.algebra, "radical", stopped)
    with pytest.raises(BudgetExceeded):
        top(m)
    monkeypatch.setattr(m.algebra, "radical", real)
    qd = top(m)
    assert qd.sub == radical_image(m) and qd.dim == m.dim - qd.sub.dim
    assert top(m) is qd


def test_top_refuses_a_non_split_algebra_before_radical_work():
    alg = algebra_make(GF2, dim=2, mult=[[(1, 0), (0, 1)], [(0, 1), (0, 0)]], one=(1, 0))
    with pytest.raises(NotSplitError):
        top(regular_module(alg), Budget(max_ring=1))


def test_graph_socle_check_builds_the_top_and_the_socle_once(monkeypatch):
    # every reader takes M/JM and soc(M) from the module: one quotient of JM,
    # one socle kernel, and the top's quotient module the only module built
    module = make_row_diagonal_pair()[1]
    expected = graph_socle_check(make_row_diagonal_pair()[1])
    jm = radical_image(make_row_diagonal_pair()[1])
    socle_rows = [row for j in module.algebra.radical().basis_rows for row in module.act_mat(j).row_list()]
    socle_mat = mat_of_rows(module.field, module.dim, socle_rows)
    calls = {"ModuleRep": 0, "quotients of JM": 0, "socle kernels": 0, "restrict_action": 0}

    def counting(name, real, counts=lambda *args: True):
        def counted(*args, **kwargs):
            calls[name] += counts(*args)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(ModuleRep, "__init__", counting("ModuleRep", ModuleRep.__init__))
    monkeypatch.setattr(modrep, "quotient_action",
                        counting("quotients of JM", modrep.quotient_action, lambda m, sub: sub == jm))
    monkeypatch.setattr(modrep, "kernel", counting("socle kernels", modrep.kernel, lambda mat: mat == socle_mat))
    monkeypatch.setattr(modrep, "restrict_action", counting("restrict_action", modrep.restrict_action))
    report = graph_socle_check(module)
    assert calls == {"ModuleRep": 1, "quotients of JM": 1, "socle kernels": 1, "restrict_action": 0}
    assert report == expected


def test_system_from_module_matches_the_restricted_socle_oracle():
    # soc(M) read blockwise in M's coordinates gives the system that the
    # restricted socle module gives, on the split gallery's regular modules
    # (the n = 2 blocks of matrix-algebra among them), their squares and the
    # row-diagonal module
    modules = [make_row_diagonal_pair()[1]]
    for _name, alg in split_gallery_algebras():
        reg = regular_module(alg)
        modules += [reg, reg.direct_sum(reg)]
    assert any(block.n == 2 for m in modules for block in m.algebra.blocks())
    for m in modules:
        assert system_from_module(m).to_json() == system_from_module_by_restriction(m).to_json()


class _DependentTracker(exactla.SpanTracker):
    def add(self, vec) -> bool:
        return False


class _OffSpanTracker(exactla.SpanTracker):
    def express(self, vec):
        return None


@pytest.mark.parametrize("tracker, message", [
    (_DependentTracker, "adapted block basis failed to decompose the module"),
    (_OffSpanTracker, "socle image left the adapted socle basis span"),
], ids=["dependent-basis", "image-off-span"])
def test_system_from_module_violations(monkeypatch, tracker, message):
    # an adapted basis that its SpanTracker finds dependent, or a socle image
    # that the tracker cannot express over the adapted socle basis
    module = make_row_diagonal_pair()[1]
    system_from_module(module)  # the true answers: no violation
    monkeypatch.setattr(modrep, "SpanTracker", tracker)
    with pytest.raises(TheoremViolation, match=message):
        system_from_module(module)


# -- construction ----------------------------------------------------------------

def test_regular_modules_are_valid_and_faithful():
    for alg in (KX2, KXY, make_triangular(3, GF2, False), make_matrix_algebra(2, GF3)):
        reg = regular_module(alg)
        ok, ann = faithful(reg)
        assert ok and ann.dim == 0


def test_rejects_relation_violation():
    # e11 must act idempotently in the triangular algebra
    tri = make_triangular(2, GF2, False)  # basis e11, e22, e12
    bad = (
        Mat.from_rows(GF2, [[0, 1], [0, 0]]),  # e11 acting non-idempotently
        Mat.identity(GF2, 2),
        Mat.zero(GF2, 2, 2),
    )
    with pytest.raises(InputError, match="identity|basis pair"):
        ModuleRep(tri, 2, bad)


def pair_error(i: int, j: int) -> str:
    return re.escape(f"action violates the structure constants at basis pair ({i}, {j})")


def test_relation_error_names_a_failing_generator_pair():
    # 1 acts as I and x (the generator) does not square to zero: (1, 1) is
    # the first failing pair, and a generator pair
    assert KX2.generators() == (1,)
    action = (Mat.identity(GF2, 2), Mat.from_rows(GF2, [[0, 1], [0, 1]]))
    with pytest.raises(InputError, match=pair_error(1, 1)):
        ModuleRep(KX2, 2, action)


def test_relation_error_names_the_first_failing_pair_not_the_generator_pair():
    # scalar T_3(F_2), basis 1, e12, e13, e23, generated by e12 and e23.
    # Every pair (e12, b) holds, so the generator pass first fails at e23,
    # at (3, 1); the first failing pair of the whole scan is (2, 1).
    alg = make_triangular(3, GF2, True)
    assert alg.generators() == (1, 3)
    action = (
        Mat.identity(GF2, 2),
        Mat.from_rows(GF2, [[0, 0], [1, 0]]),
        Mat.from_rows(GF2, [[0, 0], [0, 1]]),
        Mat.from_rows(GF2, [[0, 1], [0, 0]]),
    )
    unchecked = ModuleRep(alg, 2, action, _skip_verify=True)
    assert all(unchecked._relation_holds(1, j) for j in range(4))
    assert [j for j in range(4) if not unchecked._relation_holds(3, j)][0] == 1
    with pytest.raises(InputError, match=pair_error(2, 1)):
        ModuleRep(alg, 2, action)


def test_a_generator_pair_that_fails_alone_is_a_violation(tmp_path, capsys, monkeypatch):
    # the relation test fails once, on the first generator pair, and holds on
    # every pair of the rescan, which then finds no pair to name
    module = regular_module(KX2)
    path = tmp_path / "kx2.json"
    path.write_text(json.dumps(module.to_json()))
    holds = ModuleRep._relation_holds

    def failing_once():
        calls = []

        def relation_holds(self, i, j):
            calls.append((i, j))
            return len(calls) > 1 and holds(self, i, j)
        return relation_holds

    message = "a generator pair failed but no basis pair does"
    monkeypatch.setattr(ModuleRep, "_relation_holds", failing_once())
    with pytest.raises(TheoremViolation, match="^" + re.escape(message) + "$"):
        ModuleRep(KX2, module.dim, module.action)
    monkeypatch.setattr(ModuleRep, "_relation_holds", failing_once())
    assert main(["module", "check", str(path)]) == 4
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["command"], r["verdict"], r["details"]) for r in records] == \
        [("module check", "violation", {"error": message})]


def test_zero_relation_targets_still_reject():
    # x^2 = 0 in F_3[x]/(x^2), so pair (1, 1) is a zero test, and X^2 != 0
    x_mat = Mat.from_rows(GF3, [[0, 1], [0, 2]])
    assert KX3.mult[1][1] == (0, 0) and any(x_mat.mul(x_mat).entries)
    assert ModuleAssembler(KX3).assemble([x_mat]) is None
    with pytest.raises(InputError, match=pair_error(1, 1)):
        ModuleRep(KX3, 2, (Mat.identity(GF3, 2), x_mat))
    # xy = 0 in F_2[x,y]/(x,y)^2, but E_01 E_10 = E_00
    x_mat, y_mat = Mat.unit(GF2, 2, 2, 0, 1), Mat.unit(GF2, 2, 2, 1, 0)
    assert KXY.mult[1][2] == (0, 0, 0)
    with pytest.raises(InputError, match=pair_error(1, 2)):
        ModuleRep(KXY, 2, (Mat.identity(GF2, 2), x_mat, y_mat))


def test_act_mat_reads_basis_elements_and_combines_every_other_element():
    rng = random.Random(28)
    modules = [regular_module(alg) for _name, alg in split_gallery_algebras()]
    modules += [m for _name, alg in criterion8_algebras() for dim in (2, 3, 4)
                if (m := random_generator_module(ModuleAssembler(alg), dim, rng)) is not None]
    assert len(modules) > 30
    for m in modules:
        alg, d = m.algebra, m.algebra.dim
        units = [alg.basis_coords(i) for i in range(d)]
        assert all(m.act_mat(e) is m.action[i] for i, e in enumerate(units))
        coords = units + [(0,) * d, alg.one] + [tuple(rng.randrange(alg.field.q) for _ in range(d)) for _ in range(6)]
        for c in coords + [list(c) for c in coords]:
            assert m.act_mat(c) == matrix_combination(m.action, c)


def test_rejects_identity_violation():
    with pytest.raises(InputError, match="identity"):
        ModuleRep(KX2, 2, (Mat.zero(GF2, 2, 2), Mat.zero(GF2, 2, 2)))


def test_simple_module_over_triangular_not_faithful():
    tri = make_triangular(2, GF2, False)  # basis e11, e22, e12
    simple = ModuleRep(tri, 1, (
        Mat.identity(GF2, 1),  # e11 acts as 1
        Mat.zero(GF2, 1, 1),   # e22 acts as 0
        Mat.zero(GF2, 1, 1),   # e12 acts as 0
    ))
    ok, ann = faithful(simple)
    assert not ok
    assert ann.contains_vector((0, 0, 1))  # e12 annihilates


# -- top and socle -----------------------------------------------------------------

def test_regular_top_socle_local():
    ts = top_socle(regular_module(KX2))
    assert ts.top_length == 1 and ts.socle_length == 1
    ts3 = top_socle(regular_module(KXY))
    assert ts3.top_length == 1 and ts3.socle_length == 2


def split_gallery_algebras():
    for name, alg in iter_gallery_algebras():
        if alg.certificate is not None and alg.certificate.split:
            yield name, alg


def test_block_multiplicities_match_idempotent_ranks_on_the_gallery():
    # top_socle reads each length as the sum of the block multiplicities; the
    # oracle builds M/JM and soc(M) as modules and ranks the block idempotents
    for name, alg in split_gallery_algebras():
        reg = regular_module(alg)
        for m in (reg, reg.direct_sum(reg)):
            ts = top_socle(m)
            assert (ts.top_length, ts.socle_length) == top_socle_lengths(m), (name, m.dim)


@pytest.mark.parametrize("on", ["top", "socle"])
def test_semisimple_length_rejects_a_lost_multiplicity_space(monkeypatch, on):
    # a block of several that is not the identity takes its multiplicity space
    # E_f,00 W as the span of E_f,00 on W's basis, W the whole top or the
    # socle; with every E_f,00 read as zero those spaces cannot fill W
    module = make_row_diagonal_pair()[1]
    args = (top(module),) if on == "top" else (module, socle_subspace(module))
    ts = top_socle(module)
    assert semisimple_length(*args) == (ts.top_length if on == "top" else ts.socle_length)
    assert len(module.algebra.blocks()) > 1
    def zero_unit(part, i, j):
        return Mat.zero(part._rep.field, part._rep.dim, part._rep.dim)

    monkeypatch.setattr(modrep.BlockPart, "unit", zero_unit)
    with pytest.raises(TheoremViolation, match="block projections do not decompose the module"):
        semisimple_length(*args)


@pytest.mark.parametrize("module", [regular_module(KXY), make_row_diagonal_pair()[1]], ids=["local", "row-diagonal"])
def test_semisimple_length_rejects_parts_that_miss_a_vector(monkeypatch, module):
    real = modrep.block_decomposition

    def lossy(rep, sub=None):
        dropped = False
        for part in real(rep, sub):
            if part.mult.dim and not dropped:
                part.mult = Subspace.from_vectors(rep.field, rep.dim, part.mult.basis_rows[1:])
                dropped = True
            yield part

    soc = socle_subspace(module)
    assert semisimple_length(module, soc) == top_socle(module).socle_length
    monkeypatch.setattr(modrep, "block_decomposition", lossy)
    with pytest.raises(TheoremViolation, match="do not decompose"):
        semisimple_length(module, soc)
    with pytest.raises(TheoremViolation, match="do not decompose"):
        top_socle(module)


def test_column_module_over_matrix_algebra():
    alg = make_matrix_algebra(2, GF2)
    cols = ModuleRep(alg, 2, tuple(alg.matrix_basis))
    ok, _ = faithful(cols)
    assert ok
    ts = top_socle(cols)
    assert ts.top_length == 1 and ts.socle_length == 1


def test_row_diagonal_module_values():
    _ring, module = make_row_diagonal_pair()
    ok, _ = faithful(module)
    assert ok
    ts = top_socle(module)
    assert (ts.top_length, ts.socle_length) == (3, 2)
    jm, soc = radical_image(module), socle_subspace(module)
    assert jm.dim == 2 and soc.dim == 2
    assert jm == soc


def test_socle_equals_sum_of_simple_submodules():
    # cross-check the kernel formula against explicit simple enumeration
    samples = [regular_module(KXY), regular_module(KX3),
               make_row_diagonal_pair()[1],
               regular_module(make_triangular(3, GF2, True))]
    for mod in samples:
        soc = socle_subspace(mod)
        total = Subspace.zero(mod.field, mod.dim)
        count = 0
        for _f, _u, l_sub in simple_socle_submodules(mod):
            count += 1
            total = Subspace.from_vectors(mod.field, mod.dim, total.basis_rows + l_sub.basis_rows)
        assert total == soc
        assert count >= 1


def column_module(alg):
    return ModuleRep(alg, alg.matrix_basis[0].rows, tuple(alg.matrix_basis))


def test_matrix_block_of_size_two_minimality():
    # over the full 2x2 matrix algebra the column module is minimal faithful
    alg = make_matrix_algebra(2, GF2)
    cols = column_module(alg)
    rep = minimal_faithful(cols)
    assert rep.minimal
    ineq = graph_socle_check(cols).inequality
    assert ineq["lhs"] == 2 and ineq["rhs"] == 2 and ineq["holds"]

    double = cols.direct_sum(cols)
    rep2 = minimal_faithful(double)
    assert not rep2.no_faithful_max_submodule  # one copy is already faithful
    assert rep2.submodule_witness is not None
    assert faithful(restrict_action(double, rep2.submodule_witness))[0]


def test_matrix_block_shrink():
    alg = make_matrix_algebra(2, GF3)
    double = column_module(alg).direct_sum(column_module(alg))
    shrunk = shrink_submodule(double)
    assert shrunk.dim == 2  # one simple copy suffices; soc(R) has bimodule length 1
    assert faithful(shrunk)[0]
    q = shrink_quotient(double)
    assert q.dim == 2 and faithful(q)[0]


# -- minimality -------------------------------------------------------------------------

def test_row_diagonal_module_is_minimal():
    _ring, module = make_row_diagonal_pair()
    rep = minimal_faithful(module)
    assert rep.no_faithful_max_submodule and rep.no_faithful_simple_quotient


def test_double_regular_is_not_minimal():
    rr = regular_module(KX2).direct_sum(regular_module(KX2))
    rep = minimal_faithful(rr)
    assert not rep.no_faithful_max_submodule
    assert rep.submodule_witness is not None
    # the witness really is faithful and proper
    sub = restrict_action(rr, rep.submodule_witness)
    ok, _ = faithful(sub)
    assert ok and sub.dim < rr.dim


def test_regular_kxy_is_minimal_with_three_simples():
    reg = regular_module(KXY)
    simples = list(simple_socle_submodules(reg))
    assert len(simples) == 3  # projective points of the 2-dim socle over F_2
    maxes = list(maximal_submodules(reg))
    assert len(maxes) == 1    # 1-dimensional top
    rep = minimal_faithful(reg)
    assert rep.minimal


def test_minimality_needs_faithful():
    tri = make_triangular(2, GF2, False)
    simple = ModuleRep(tri, 1, (Mat.identity(GF2, 1), Mat.zero(GF2, 1, 1), Mat.zero(GF2, 1, 1)))
    with pytest.raises(PreconditionError):
        minimal_faithful(simple)


def test_faithful_submodule_implies_faithful_maximal_one():
    # upward monotonicity of faithfulness, exhaustively on small modules
    for mod in (regular_module(KX2).direct_sum(regular_module(KX2)),
                regular_module(KXY)):
        all_subs = set()
        for count in range(1, 3):
            for vecs in itertools.combinations(list(itertools.product(mod.field.elements(), repeat=mod.dim))[1:], count):
                all_subs.add(submodule_closure(mod, list(vecs)))
        proper_faithful = [
            s for s in all_subs
            if s.dim < mod.dim and faithful(restrict_action(mod, s))[0]
        ]
        max_faithful = [
            w for _f, _h, w in maximal_submodules(mod)
            if faithful(restrict_action(mod, w))[0]
        ]
        assert bool(proper_faithful) == bool(max_faithful)


# -- the local bound ------------------------------------------------------------------------

def test_local_bound_regular_modules():
    rep = local_socle_check(regular_module(KXY))
    assert rep.inequality == {"kind": "local", "lhs": 3, "rhs": 3, "holds": True, "socle_dim": 2}
    rep3 = local_socle_check(regular_module(KX3))
    assert rep3.inequality["lhs"] == 2 and rep3.inequality["rhs"] == 2


def test_local_bound_scalar_triangular():
    reg = regular_module(make_triangular(2, GF3, True))
    rep = local_socle_check(reg)
    assert rep.inequality["holds"]


def test_local_bound_preconditions():
    ring, _ = make_row_diagonal_pair()
    with pytest.raises(PreconditionError, match="local"):
        local_socle_check(regular_module(ring))
    with pytest.raises(NotSplitError):
        local_socle_check(regular_module(make_twisted_truncated(2, 2, 2)))
    rr = regular_module(KX2).direct_sum(regular_module(KX2))
    with pytest.raises(PreconditionError, match="minimal"):
        local_socle_check(rr)


# -- the graph bound --------------------------------------------------------------------------

def test_graph_bound_row_diagonal():
    _ring, module = make_row_diagonal_pair()
    rep = graph_socle_check(module)
    ineq = rep.inequality
    assert ineq["lhs"] == 5 and ineq["rhs"] == 4 and not ineq["holds"]
    met = ineq["hypotheses_met"]
    assert met == {"nondeg": True, "cond_b": True, "cond_c": True,
                   "small_either": True, "cardD": False}
    assert rep.notes  # explains the failure via the field-size hypothesis


def test_graph_bound_refuses_non_minimal():
    tri = make_triangular(2, GF2, False)
    reg = regular_module(tri)
    with pytest.raises(PreconditionError, match="minimal"):
        graph_socle_check(reg)
    # the lengths themselves are still computable blockwise
    ts = top_socle(reg)
    assert ts.top_length == 2 and ts.socle_length == 2
    g = socle_graph(tri)
    assert bimodule_length(tri, socles(tri).twosided) + g.chi == 2


def test_module_report_dispatch():
    rep_local = module_report(regular_module(KXY))
    assert rep_local.inequality["kind"] == "local"
    rep_graph = module_report(make_row_diagonal_pair()[1])
    assert rep_graph.inequality["kind"] == "socle_graph"
    tri_rep = module_report(regular_module(make_triangular(2, GF2, False)))
    assert tri_rep.inequality is None
    assert any("not minimal" in note for note in tri_rep.notes)
    nonsplit = module_report(regular_module(make_twisted_truncated(2, 2, 2)))
    assert nonsplit.faithful and nonsplit.top_length is None


def test_system_from_module_matches_paper_numbers():
    _ring, module = make_row_diagonal_pair()
    system = system_from_module(module)
    from soclelab.strongness import prop41_check, strength_budget

    rep = prop41_check(system)
    assert (rep.lhs, rep.rhs) == (5, 4)
    budget = strength_budget(system)
    assert (budget.N_T, budget.d_T, budget.l_S) == (2, 3, 1)
    assert not budget.cardD_ok


# -- shrinking ---------------------------------------------------------------------------------

def test_shrink_submodule_double_regular():
    rr = regular_module(KX2).direct_sum(regular_module(KX2))
    shrunk = shrink_submodule(rr)
    assert faithful(shrunk)[0]
    assert top_socle(shrunk).top_length == 1
    assert shrunk.dim == 2  # one copy suffices


def test_shrink_quotient_double_regular():
    rr = regular_module(KX2).direct_sum(regular_module(KX2))
    shrunk = shrink_quotient(rr)
    assert faithful(shrunk)[0]
    assert top_socle(shrunk).socle_length == 1


def test_shrink_identity_cases():
    # cyclic faithful module: the submodule shrink returns everything
    reg = regular_module(KXY)
    shrunk = shrink_submodule(reg)
    assert shrunk.dim == reg.dim
    assert top_socle(shrunk).top_length == 1
    # regular module over F_3[x]/(x^2): the quotient shrink keeps it whole
    reg3 = regular_module(KX3)
    q3 = shrink_quotient(reg3)
    assert q3.dim == reg3.dim
    assert top_socle(q3).socle_length == 1


def test_shrink_triple_regular_subfactor():
    r3 = regular_module(KX2).direct_sum(regular_module(KX2)).direct_sum(regular_module(KX2))
    sub = shrink_subfactor(r3)
    ts = top_socle(sub)
    assert faithful(sub)[0]
    assert ts.top_length <= 1 and ts.socle_length <= 1


def test_shrink_on_minimal_module_respects_bounds():
    _ring, module = make_row_diagonal_pair()
    n_bound = 3
    m1 = shrink_submodule(module)
    assert faithful(m1)[0] and top_socle(m1).top_length <= n_bound
    m2 = shrink_quotient(module)
    assert faithful(m2)[0] and top_socle(m2).socle_length <= n_bound
    m3 = shrink_subfactor(module)
    ts = top_socle(m3)
    assert ts.top_length <= n_bound and ts.socle_length <= n_bound


def test_shrink_subfactor_kxy_regular():
    reg = regular_module(KXY)
    sub = shrink_subfactor(reg)
    ts = top_socle(sub)
    assert ts.top_length <= 2 and ts.socle_length <= 2
    assert faithful(sub)[0]


def test_shrink_needs_faithful():
    tri = make_triangular(2, GF2, False)
    simple = ModuleRep(tri, 1, (Mat.identity(GF2, 1), Mat.zero(GF2, 1, 1), Mat.zero(GF2, 1, 1)))
    with pytest.raises(PreconditionError):
        shrink_submodule(simple)


# -- submodule machinery -------------------------------------------------------------------------

def test_submodule_closure_and_quotient():
    reg = regular_module(KXY)
    cyclic = submodule_closure(reg, [(0, 1, 0)])  # R * x = span{x}
    assert cyclic.dim == 1
    whole = submodule_closure(reg, [(1, 0, 0)])   # R * 1 = R
    assert whole.dim == 3
    qd = quotient_action(reg, cyclic)
    assert qd.rep.dim == 2
    # quotient relations still hold (constructor re-verification)
    ModuleRep(reg.algebra, qd.rep.dim, qd.rep.action)


def test_json_round_trip():
    _ring, module = make_row_diagonal_pair()
    data = module.to_json()
    again = ModuleRep.from_json(data)
    assert again.to_json() == data


# -- fast module paths against their unit-vector references --------------------------------

# every field the unchecked constructor and the column reads are cross-checked on
ORACLE_FIELDS = [field_make(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


def recheck(m: Mat) -> None:
    """An internally built matrix passes the checked constructor again."""
    again = Mat(m.field, m.rows, m.cols, m.entries)
    assert type(m.entries) is tuple
    assert again == m and hash(again) == hash(m)


def unit_vector(n: int, k: int) -> tuple:
    return tuple(1 if t == k else 0 for t in range(n))


def quotient_by_unit_vectors(m: ModuleRep, sub: Subspace) -> tuple:
    """The action matrices of M/sub: lift each quotient unit vector, apply, project."""
    free = [k for k in range(m.dim) if k not in sub.pivots]
    mats = []
    for mat in m.action:
        cols = []
        for k in free:
            residual = sub.reduce(mat.apply(unit_vector(m.dim, k)))
            cols.append([residual[t] for t in free])
        mats.append(Mat.from_rows(m.field, [[col[i] for col in cols] for i in range(len(free))])
                    if free else Mat.zero(m.field, 0, 0))
    return tuple(mats)


# The full annihilators of a subspace and of a quotient.  The package decides
# minimality and shrinks by rank tests on soc(R) instead; these are the oracles.

def annihilator_of_subspace(m: ModuleRep, w: Subspace) -> Subspace:
    """{r : r acts as zero on w}, in algebra coordinates."""
    if w.dim == 0:
        return Subspace.full(m.field, m.algebra.dim)
    # column i stacks the images of w's basis under basis element i
    return kernel(mat_of_columns(m.field, w.dim * m.dim, images_on(m.action, w)))


def annihilator_of_quotient(m: ModuleRep, k_sub: Subspace) -> Subspace:
    """{r : r M is contained in k_sub}, in algebra coordinates."""
    # column i stacks the residuals mod k_sub of basis element i's columns
    return kernel(mat_of_columns(m.field, m.dim * m.dim, residuals_mod(m.action, k_sub)))


def annihilator_of_quotient_by_unit_vectors(m: ModuleRep, sub: Subspace) -> Subspace:
    rows = []
    for v in range(m.dim):
        residuals = [sub.reduce(mat.apply(unit_vector(m.dim, v))) for mat in m.action]
        for coord in range(m.dim):
            rows.append([res[coord] for res in residuals])
    return kernel(Mat.from_rows(m.field, rows))


def annihilator_of_subspace_by_images(m: ModuleRep, w: Subspace) -> Subspace:
    rows = []
    for v in w.basis_rows:
        images = [mat.apply(v) for mat in m.action]
        for coord in range(m.dim):
            rows.append([img[coord] for img in images])
    return kernel(Mat.from_rows(m.field, rows)) if rows else Subspace.full(m.field, m.algebra.dim)


def invariant_subspaces(m: ModuleRep) -> list[Subspace]:
    subs = [Subspace.zero(m.field, m.dim), radical_image(m), socle_subspace(m), Subspace.full(m.field, m.dim)]
    subs.extend(submodule_closure(m, [unit_vector(m.dim, k)]) for k in range(m.dim))
    return subs


def oracle_algebras(field):
    return [make_triangular(2, field), make_triangular(3, field, True),
            make_square_zero_extension(field, 2), make_matrix_algebra(2, field)]


def check_module_against_references(m: ModuleRep) -> None:
    for sub in invariant_subspaces(m):
        assert quotient_action(m, sub).rep.action == quotient_by_unit_vectors(m, sub)
        assert annihilator_of_quotient(m, sub) == annihilator_of_quotient_by_unit_vectors(m, sub)
        assert annihilator_of_subspace(m, sub) == annihilator_of_subspace_by_images(m, sub)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_quotients_match_unit_vector_references(field):
    for alg in oracle_algebras(field):
        check_module_against_references(regular_module(alg))


def test_quotients_match_unit_vector_references_on_small_gallery():
    for name, alg in iter_gallery_algebras(max_ring=3**5):
        m = regular_module(alg)
        check_module_against_references(m)
        check_module_against_references(m.direct_sum(m))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_module_matrices_pass_the_checked_constructor(field, rng):
    for alg in oracle_algebras(field):
        m = regular_module(alg)
        for _ in range(5):
            recheck(m.act_mat(tuple(rng.randrange(field.q) for _ in range(alg.dim))))
        for sub in invariant_subspaces(m):
            for mat in restrict_action(m, sub).action + quotient_action(m, sub).rep.action:
                recheck(mat)
        for mat in m.direct_sum(m).action:
            recheck(mat)


def test_faithful_then_minimal_faithful_computes_the_annihilator_once(monkeypatch):
    calls = []
    original = modrep._annihilator

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(modrep, "_annihilator", counting)
    m = regular_module(KXY)
    assert faithful(m)[0]
    assert minimal_faithful(m).minimal
    local_socle_check(m)
    assert calls == [m]
    assert annihilator(regular_module(KXY)).dim == 0
    assert len(calls) == 2


def test_zero_module_is_not_faithful():
    zero = ModuleRep(KX2, 0, tuple(Mat.zero(GF2, 0, 0) for _ in range(KX2.dim)))
    ok, ann = faithful(zero)
    assert not ok and ann == Subspace.full(GF2, KX2.dim)


def _two_block_modules():
    # regular T_2(F_2) twice: the top has multiplicity 2 in each of the two
    # blocks, and the top itself is a semisimple module with the same socle
    m = regular_module(make_triangular(2, GF2))
    twice = m.direct_sum(m)
    top = quotient_action(twice, radical_image(twice)).rep
    return twice, top


def test_maximal_submodule_scan_charges_the_budget():
    twice, _ = _two_block_modules()
    total = len(list(maximal_submodules(twice)))
    assert total == 3 + 3
    with pytest.raises(BudgetExceeded, match="maximal-submodule hyperplane enumeration") as exc:
        list(maximal_submodules(twice, Budget(max_enumeration=total - 1)))
    assert (exc.value.needed, exc.value.cap) == (total, total - 1)
    assert len(list(maximal_submodules(twice, Budget(max_enumeration=total)))) == total


def test_simple_socle_scan_charges_the_budget():
    _, top = _two_block_modules()
    assert [part.mult.dim for part in block_decomposition(top, socle_subspace(top))] == [2, 2]
    total = len(list(simple_socle_submodules(top)))
    assert total == 3 + 3
    with pytest.raises(BudgetExceeded, match="simple-socle point enumeration") as exc:
        list(simple_socle_submodules(top, Budget(max_enumeration=total - 1)))
    assert (exc.value.needed, exc.value.cap) == (total, total - 1)
    assert len(list(simple_socle_submodules(top, Budget(max_enumeration=total)))) == total


def guard_counts(run) -> dict[str, list[int]]:
    """Per guard site, the counts that run(budget) charged, in order."""
    seen: dict[str, list[int]] = {}

    class Recording(Budget):
        def guard(self, what, needed):
            seen.setdefault(what, []).append(needed)
            super().guard(what, needed)

    run(Recording())
    return seen


def assert_each_shrink_step_charges(shrink, site: str):
    """On the row-diagonal module twice, which is not minimal on either side,
    the shrink takes several steps and charges site on each (minimal_faithful's
    own guard); a cap one below the largest charge stops it there, and a cap
    equal to it gives the unbudgeted output."""
    _ring, module = make_row_diagonal_pair()
    twice = module.direct_sum(module)
    shrunk = shrink(twice)
    assert shrunk.dim < twice.dim
    counts = guard_counts(lambda budget: shrink(twice, budget))
    assert len(counts[site]) > 1
    total = max(counts[site])
    with pytest.raises(BudgetExceeded, match=site) as exc:
        shrink(twice, Budget(max_enumeration=total - 1))
    assert (exc.value.needed, exc.value.cap) == (total, total - 1)
    assert shrink(twice, Budget(max_enumeration=total)).action == shrunk.action


def test_shrink_quotient_point_scan_charges_the_budget():
    assert_each_shrink_step_charges(shrink_quotient, "simple-socle point enumeration")


def test_shrink_submodule_hyperplane_scan_charges_the_budget():
    assert_each_shrink_step_charges(shrink_submodule, "maximal-submodule hyperplane enumeration")


def test_shrink_quotient_runs_no_hyperplane_scan():
    # the quotient descent reads only the quotient witness, so the top's
    # 7 hyperplanes are never enumerated: a cap of 3 does not stop it
    def module():
        return random_generator_module(ModuleAssembler(make_square_zero_extension(GF2, 2)), 4, random.Random(68))

    shrunk = shrink_quotient(module())
    assert (module().dim, shrunk.dim) == (4, 3)
    assert shrink_quotient(module(), Budget(max_enumeration=3)).action == shrunk.action
    counts = guard_counts(lambda budget: shrink_quotient(module(), budget))
    assert "simple-socle point enumeration" in counts
    assert "maximal-submodule hyperplane enumeration" not in counts
    assert len(list(maximal_submodules(module()))) == 7


# -- dimension-only questions by rank, against the annihilator subspaces ----------

CRITERION_8_ALGEBRAS = [alg for _name, alg in criterion8_algebras()]


def minimal_faithful_by_annihilators(m: ModuleRep) -> tuple:
    """Flags and witnesses of `minimal_faithful`, from the annihilator subspaces."""
    sub_wit = next((w for _f, _h, w in maximal_submodules(m) if annihilator_of_subspace(m, w).dim == 0), None)
    quot_wit = next((l for _f, _u, l in simple_socle_submodules(m) if annihilator_of_quotient(m, l).dim == 0), None)
    return sub_wit is None, quot_wit is None, sub_wit, quot_wit


def minimality_oracle_modules():
    """Criterion 8's five local algebras at dims 1-3 and kx2-q2 at dim 4, then
    modules whose blocks do not act as the identity: the regular T_2(F_2)
    (two blocks), the row-diagonal ring and module, the column module of
    M_2(F_2) (one block of size two, J = 0), and each one summed with
    itself."""
    for alg in CRITERION_8_ALGEBRAS:
        for dim in (1, 2, 3):
            yield from iter_generator_modules(alg, dim)
    yield from iter_generator_modules(KX2, 4)
    ring, module = make_row_diagonal_pair()
    columns = column_module(make_matrix_algebra(2, GF2))
    for m in (regular_module(make_triangular(2, GF2)), regular_module(ring), module, columns):
        yield m
        yield m.direct_sum(m)


def test_minimal_faithful_by_rank_matches_the_annihilators():
    faithful_count = not_minimal = not_identity = 0
    for m in minimality_oracle_modules():
        if not faithful(m)[0]:
            continue
        report = minimal_faithful(m)
        got = (report.no_faithful_max_submodule, report.no_faithful_simple_quotient,
               report.submodule_witness, report.quotient_witness)
        assert got == minimal_faithful_by_annihilators(m)
        faithful_count += 1
        not_minimal += not report.minimal
        blocks = m.algebra.blocks()
        not_identity += not (len(blocks) == 1 and blocks[0].n == 1)
    assert faithful_count > 100 and 0 < not_minimal < faithful_count
    assert not_identity == 8


def battery_answers(m: ModuleRep) -> tuple:
    """What the local-bound battery reads off a module: faithfulness and the
    annihilator, both sides of minimality, and the local report."""
    ok, ann = faithful(m)
    if not ok:
        return ok, ann
    report = minimal_faithful(m)
    sides = (report.no_faithful_max_submodule, report.no_faithful_simple_quotient)
    if not all(sides):
        return ok, ann, sides
    return ok, ann, sides, local_socle_check(m).to_json()


def test_battery_answers_are_invariant_under_conjugation(rng):
    # g rho g^-1 is an isomorphic module, so every answer must agree; this is
    # the premise of scanning one representative per conjugacy class
    seen = {2: 0, 3: 0, 4: 0}
    moved = 0
    for alg in CRITERION_8_ALGEBRAS:
        for dim in (2, 3):
            for m in iter_generator_modules(alg, dim):
                g, g_inv = random_invertible(m.field, dim, rng)
                conjugate = ModuleRep(alg, dim, tuple(g.mul(a).mul(g_inv) for a in m.action))
                answers = battery_answers(m)
                assert battery_answers(conjugate) == answers
                seen[len(answers)] += 1
                moved += conjugate.action != m.action
    # non-faithful, faithful but not minimal, and minimal modules all occur,
    # over F_2 and F_3, and most conjugates differ from the module
    assert min(seen.values()) > 10 and moved > sum(seen.values()) // 2


def induced_system_modules() -> list[ModuleRep]:
    """The faithful modules of criterion 8 at dims 1-3, the regular modules of
    the split gallery algebras with at most 3^8 elements and their squares,
    and the row-diagonal module."""
    modules = [m for alg in CRITERION_8_ALGEBRAS for dim in (1, 2, 3) for m in iter_generator_modules(alg, dim)]
    for _name, alg in iter_gallery_algebras(max_ring=3**8):
        if alg.certificate is not None and alg.certificate.split:
            reg = regular_module(alg)
            modules += [reg, reg.direct_sum(reg)]
    modules.append(make_row_diagonal_pair()[1])
    return [m for m in modules if faithful(m)[0]]


def is_local(alg) -> bool:
    blocks = alg.blocks()
    return len(blocks) == 1 and blocks[0].n == 1


def test_minimality_is_the_coverage_of_the_induced_system():
    # no faithful maximal submodule is the first coverage condition of the
    # system soc(R) induces from M/JM to soc(M), and no faithful simple-socle
    # quotient the second; each side is compared on its own
    modules = induced_system_modules()
    sides = []
    for m in modules:
        report, preds = minimal_faithful(m), predicates(system_from_module(m))
        sides.append((report.no_faithful_max_submodule, report.no_faithful_simple_quotient))
        assert sides[-1] == (preds.cond_b, preds.cond_c)
    assert len(modules) == 389 and sum(not is_local(m.algebra) for m in modules) == 17
    assert {side for pair in sides for side in pair} == {True, False}
    assert len(set(sides)) > 2


def test_minimality_and_witnesses_are_invariant_under_conjugation(rng):
    # g rho g^-1 is an isomorphic module: both sides keep their answers, and
    # a witness of the conjugate is a faithful maximal submodule, or a simple
    # L with M/L faithful, of the conjugate
    sz = regular_module(make_square_zero_extension(GF2, 2))
    modules = [m for m in induced_system_modules() if not is_local(m.algebra)] + [sz, sz.direct_sum(sz)]
    witnesses = 0
    for m in modules:
        g, g_inv = random_invertible(m.field, m.dim, rng)
        conjugate = ModuleRep(m.algebra, m.dim, tuple(g.mul(a).mul(g_inv) for a in m.action))
        report, moved = minimal_faithful(m), minimal_faithful(conjugate)
        assert (moved.no_faithful_max_submodule, moved.no_faithful_simple_quotient) \
            == (report.no_faithful_max_submodule, report.no_faithful_simple_quotient)
        if moved.submodule_witness is not None:
            assert moved.submodule_witness.dim < m.dim
            assert faithful(restrict_action(conjugate, moved.submodule_witness))[0]
            witnesses += 1
        if moved.quotient_witness is not None:
            assert moved.quotient_witness.dim > 0
            assert faithful(quotient_action(conjugate, moved.quotient_witness).rep)[0]
            witnesses += 1
    assert len(modules) == 19 and witnesses > 4


def block_parts_by_images(rep: ModuleRep, sub: Subspace | None) -> list:
    """(mult, summands) per block from E_00's action: its image, or its
    values on sub's basis, and the vectors E_i0 u."""
    parts = []
    for block in rep.algebra.blocks():
        e00 = rep.act_mat(block.unit(0, 0))
        if sub is None:
            mult = Subspace.from_vectors(rep.field, rep.dim, e00.transpose().row_list())  # the column space
        else:
            mult = Subspace.from_vectors(rep.field, rep.dim, [e00.apply(v) for v in sub.basis_rows])
        summands = [[rep.act_mat(block.unit(i, 0)).apply(u) for i in range(block.n)] for u in mult.basis_rows]
        parts.append((mult, summands))
    return parts


def test_identity_block_part_matches_the_image_construction():
    # one block of size one: E_00 acts as the identity on the top and on the socle
    checked = 0
    for alg in CRITERION_8_ALGEBRAS:
        for dim in (1, 2, 3):
            for m in iter_generator_modules(alg, dim):
                top = quotient_action(m, radical_image(m)).rep
                for rep, sub in ((top, None), (m, socle_subspace(m))):
                    parts = list(block_decomposition(rep, sub))
                    assert [part.identity for part in parts] == [True]
                    got = [(part.mult, [part.summand(u) for u in part.mult.basis_rows]) for part in parts]
                    assert got == block_parts_by_images(rep, sub)
                checked += 1
    assert checked > 500
    # several blocks of size one: no block acts as the identity
    _, top = _two_block_modules()
    parts = list(block_decomposition(top, socle_subspace(top)))
    assert [part.identity for part in parts] == [False, False]
    assert [(part.mult, [part.summand(u) for u in part.mult.basis_rows]) for part in parts] \
        == block_parts_by_images(top, socle_subspace(top))


def annihilator_by_kernel(m: ModuleRep) -> Subspace:
    """The kernel of the flattened actions, with no rank test first."""
    return kernel(Mat.from_rows(m.field, [[mat.entries[k] for mat in m.action] for k in range(m.dim * m.dim)])
                  if m.dim else Mat.zero(m.field, 0, m.algebra.dim))


def test_faithful_by_rank_matches_the_kernel_form():
    counts = {True: 0, False: 0}
    modules = [m for alg in CRITERION_8_ALGEBRAS for dim in (1, 2, 3) for m in iter_generator_modules(alg, dim)]
    ring, module = make_row_diagonal_pair()
    modules += [module, regular_module(ring), regular_module(make_triangular(2, GF2)),
                ModuleRep(KX2, 0, tuple(Mat.zero(GF2, 0, 0) for _ in range(KX2.dim)))]
    for m in modules:
        ok, ann = faithful(m)
        assert ann == annihilator_by_kernel(m)
        assert ok == (ann.dim == 0)
        counts[ok] += 1
    assert counts[True] > 100 and counts[False] > 100


def shrink_test_modules() -> list[ModuleRep]:
    ring, module = make_row_diagonal_pair()
    modules = [module, regular_module(ring)]
    for alg in CRITERION_8_ALGEBRAS + [make_triangular(2, GF2)]:
        reg = regular_module(alg)
        modules.extend([reg, reg.direct_sum(reg)])
    return modules


def test_shrinks_end_with_no_faithful_step_left():
    # each shrink stops when minimal_faithful finds no witness on its side,
    # and the annihilator subspaces confirm it; the modules include the
    # row-diagonal ring's regular module, whose quotient shrink must drop
    # below its 6 dimensions
    shrunk_sub = shrunk_quot = 0
    for m in shrink_test_modules():
        sub, quot = shrink_submodule(m), shrink_quotient(m)
        assert minimal_faithful_by_annihilators(sub)[0]
        assert minimal_faithful_by_annihilators(quot)[1]
        shrunk_sub += sub.dim < m.dim
        shrunk_quot += quot.dim < m.dim
    assert shrunk_sub and shrunk_quot


@pytest.mark.parametrize("shrink, message", [(shrink_submodule, "top-length"), (shrink_quotient, "socle-length")])
def test_shrinks_reverify_the_bound(monkeypatch, shrink, message):
    # the descent's result is checked against the theorem's bound: a patched
    # bound of 0 cannot be met, and the shrink reports a violation
    _ring, module = make_row_diagonal_pair()
    monkeypatch.setattr(modrep, "shrink_bound", lambda m, budget: 0)
    with pytest.raises(TheoremViolation, match=f"exceeds the {message} bound"):
        shrink(module)


def test_shrinks_reverify_faithfulness_and_the_subfactor_bounds(monkeypatch):
    # with no witness the descent takes no step; a patched faithfulness answer
    # then fails each shrink's own re-check, and a patched bound of 0 fails the
    # subfactor's check past its two (patched) shrinks
    _ring, module = make_row_diagonal_pair()
    no_witness = SimpleNamespace(submodule_witness=None, quotient_witness=None)
    with monkeypatch.context() as patch:
        patch.setattr(modrep, "shrink_bound", lambda m, budget: 3)
        patch.setattr(modrep, "minimal_faithful", lambda m, budget: no_witness)
        patch.setattr(modrep, "faithful", lambda m: (False, None))
        with pytest.raises(TheoremViolation, match="shrunk submodule lost faithfulness"):
            shrink_submodule(module)
        with pytest.raises(TheoremViolation, match="shrunk quotient lost faithfulness"):
            shrink_quotient(module)
    monkeypatch.setattr(modrep, "shrink_submodule", lambda m, budget: m)
    monkeypatch.setattr(modrep, "shrink_quotient", lambda m, budget: m)
    monkeypatch.setattr(modrep, "shrink_bound", lambda m, budget: 0)
    with pytest.raises(TheoremViolation, match="subfactor violates a shrink bound"):
        shrink_subfactor(module)


def test_shrink_annihilator_dims_by_rank_match_the_intersections(rng):
    # dim(soc(R) ∩ ann) = dim soc(R) - rank of soc(R)'s basis acting, for
    # any subspace, invariant (zero and full included) or not; `_kills` on
    # soc(R)'s row-major actions, and on their transposes at W's orthogonal
    # complement, says whether it is nonzero, as does strongness's `_lands_in`
    checked = dropped = 0
    for m in shrink_test_modules():
        soc_r = socles(m.algebra).twosided
        soc_actions = [m.act_mat(r) for r in soc_r.basis_rows]
        maps = [act.entries for act in soc_actions]
        maps_t = [modrep.transposed(x, m.dim) for x in maps]
        subs = invariant_subspaces(m)
        for _ in range(12):
            k = rng.randint(1, m.dim)
            subs.append(Subspace.from_vectors(m.field, m.dim, [[rng.randrange(m.field.q) for _ in range(m.dim)]
                                                               for _ in range(k)]))
        for w in subs:
            on_sub = soc_annihilator_dim(m.field, images_on(soc_actions, w), w.dim * m.dim)
            assert on_sub == intersection_dim(soc_r, annihilator_of_subspace(m, w))
            assert modrep._kills(m.field, maps, m.dim, w.basis_rows) == (on_sub > 0)
            on_quot = soc_annihilator_dim(m.field, residuals_mod(soc_actions, w), m.dim * m.dim)
            assert on_quot == intersection_dim(soc_r, annihilator_of_quotient(m, w))
            assert modrep._kills(m.field, maps_t, m.dim, kernel(w.basis_mat()).basis_rows) == (on_quot > 0)
            assert strongness._lands_in(m.field, maps, m.dim, w.basis_rows) == (on_quot > 0)
            checked += 1
            dropped += 0 < on_sub < soc_r.dim
    assert checked > 100 and dropped


# -- relations and invariance on the generators, against every basis element ---------------

def first_failing_pair(alg, action) -> tuple[int, int] | None:
    """The first basis pair, in row order, whose structure-constant relation
    fails: the full scan over all dim^2 pairs."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            if action[i].mul(action[j]) != mat_vec(action, alg.mult[i][j]):
                return i, j
    return None


def elementary(field, n: int, r: int, c: int, x: int) -> tuple[Mat, Mat]:
    """I + x E_rc (r != c) and its inverse I - x E_rc."""
    unit = Mat.unit(field, n, n, r, c)
    ident = Mat.identity(field, n)
    return ident.add(unit.scale(x)), ident.add(unit.scale(field.neg(x)))


def perturbed_actions(alg, rng) -> tuple:
    """The regular actions conjugated by random elementary matrices, and,
    three times in four, one entry of one basis element's action moved.  A
    basis element that 1 involves is then set so that 1 still acts as the
    identity, so every module reaches the pair check."""
    field, n = alg.field, alg.dim
    action = list(alg.left_mats)
    for _ in range(3):
        if n < 2:
            break
        r, c = rng.sample(range(n), 2)
        p, p_inv = elementary(field, n, r, c, rng.randrange(1, field.q))
        action = [p.mul(mat).mul(p_inv) for mat in action]
    k = next(t for t, x in enumerate(alg.one) if x)
    if n > 1 and rng.random() < 0.75:
        i = rng.choice([t for t in range(n) if t != k])
        entries = list(action[i].entries)
        spot = rng.randrange(n * n)
        entries[spot] = field.add(entries[spot], rng.randrange(1, field.q))
        action[i] = Mat(field, n, n, tuple(entries))
        # rho(b_k) = one_k^-1 (I - sum over t != k of one_t rho(b_t))
        rest = mat_vec(action, tuple(0 if t == k else x for t, x in enumerate(alg.one)))
        action[k] = Mat.identity(field, n).add(rest.scale(field.neg(1))).scale(field.inv(alg.one[k]))
    return tuple(action)


def test_generator_relation_check_agrees_with_the_full_scan(rng):
    valid = invalid = moved = 0
    for name, alg in iter_gallery_algebras(max_ring=3**8):
        for _ in range(24):
            action = perturbed_actions(alg, rng)
            assert mat_vec(action, alg.one) == Mat.identity(alg.field, alg.dim)
            want = first_failing_pair(alg, action)
            if want is None:
                ModuleRep(alg, alg.dim, action)
                valid += 1
                continue
            with pytest.raises(InputError, match=pair_error(*want)):
                ModuleRep(alg, alg.dim, action)
            invalid += 1
            # the generator pass alone would have named another pair
            unchecked = ModuleRep(alg, alg.dim, action, _skip_verify=True)
            gen_first = next((g, j) for g in alg.generators() for j in range(alg.dim)
                             if not unchecked._relation_holds(g, j))
            moved += gen_first != want
    assert valid > 50 and invalid > 300 and moved > 50


def closure_under_every_basis_action(m: ModuleRep, vectors) -> Subspace:
    span = Subspace.from_vectors(m.field, m.dim, vectors)
    while True:
        images = [mat.apply(v) for mat in m.action for v in span.basis_rows]
        grown = Subspace.from_vectors(m.field, m.dim, list(span.basis_rows) + images)
        if grown == span:
            return span
        span = grown


def invariant_under_every_basis_action(m: ModuleRep, sub: Subspace) -> bool:
    return all(sub.contains_vector(mat.apply(v)) for mat in m.action for v in sub.basis_rows)


def test_position_tables_match_their_direct_reading():
    # every pivot pattern of F^dim up to dim 5: the free coordinates are the
    # complement of the pivots, and the entry positions read a dim x dim
    # matrix, row by row, at those columns
    for dim in range(6):
        numbered = Mat._of(GF2, dim, dim, tuple(range(dim * dim)))  # entry (i, k) holds its own position
        for r in range(dim + 1):
            for pivots in itertools.combinations(range(dim), r):
                free = exactla.free_positions(dim, pivots)
                assert free == tuple(sorted(set(range(dim)) - set(pivots)))
                assert modrep._entry_positions(dim, free) == tuple(numbered[i, k] for i in range(dim) for k in free)


def test_action_matrices_must_match_the_algebra_field_and_the_dimension():
    # an equal field that is another object passes; another field or shape fails
    reg = regular_module(KX3)
    twin = Field(GF3.p, GF3.e, GF3.modulus)
    assert twin is not GF3 and twin == GF3
    ModuleRep(KX3, 2, tuple(Mat._of(twin, 2, 2, mat.entries) for mat in reg.action))
    for mats in ([Mat._of(GF2, 2, 2, (1, 0, 0, 1))] * 2, [Mat.zero(GF3, 3, 3)] * 2, [Mat.zero(GF3, 2, 3)] * 2):
        with pytest.raises(InputError, match="shape or field mismatch"):
            ModuleRep(KX3, 2, tuple(mats))


def test_closure_and_invariance_on_generators_match_every_basis_action(rng):
    invariant = not_invariant = 0
    for name, alg in iter_gallery_algebras(max_ring=3**6):
        reg = regular_module(alg)
        for m in (reg, reg.direct_sum(reg)):
            for _ in range(6):
                vectors = [[rng.randrange(m.field.q) for _ in range(m.dim)] for _ in range(rng.randint(1, 2))]
                closure = submodule_closure(m, vectors)
                assert closure == closure_under_every_basis_action(m, vectors), name
                for sub in (closure, Subspace.from_vectors(m.field, m.dim, vectors)):
                    if invariant_under_every_basis_action(m, sub):
                        modrep._check_invariant(m, sub)
                        invariant += 1
                    else:
                        with pytest.raises(PreconditionError, match="not action-invariant"):
                            quotient_action(m, sub)
                        with pytest.raises(PreconditionError, match="not action-invariant"):
                            restrict_action(m, sub)
                        not_invariant += 1
    assert invariant > 100 and not_invariant > 50


def test_minimality_builds_the_top_module_only_for_non_identity_blocks(monkeypatch):
    local = [m for m in iter_generator_modules(KX3, 3) if faithful(m)[0]]
    two_block, _ = _two_block_modules()
    built = []
    real = ModuleRep.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ModuleRep, "__init__", counting)
    # the submodule side is decided on its first read
    for m in local:
        minimal_faithful(m).no_faithful_max_submodule
    assert built == []
    minimal_faithful(two_block).no_faithful_max_submodule
    assert len(built) == 1
    # the quotient built on first read is the unit-vector reference, and is kept
    qd = quotient_action(two_block, radical_image(two_block))
    assert qd.rep.action == quotient_by_unit_vectors(two_block, radical_image(two_block))
    assert qd.rep is qd.rep


# -- the identity check settles the pairs with b_j = 1 -------------------------------

def test_identity_check_rejects_an_idempotent_one_that_keeps_every_relation():
    # rho(1) = E_11 and rho(x) = 0 satisfy every structure-constant pair of
    # F_2[x]/(x^2), so only the identity check rejects them
    action = (Mat.from_rows(GF2, [[1, 0], [0, 0]]), Mat.zero(GF2, 2, 2))
    assert first_failing_pair(KX2, action) is None
    with pytest.raises(InputError, match="identity element does not act as the identity"):
        ModuleRep(KX2, 2, action)


def test_relation_check_skips_the_basis_element_one(monkeypatch):
    checked = []
    real = ModuleRep._relation_holds

    def counting(self, i, j):
        checked.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(ModuleRep, "_relation_holds", counting)
    for alg in CRITERION_8_ALGEBRAS + [make_triangular(2, GF2), make_matrix_algebra(2, GF3)]:
        others = [j for j in range(alg.dim) if alg.basis_coords(j) != alg.one]
        checked.clear()
        ModuleRep(alg, alg.dim, alg.left_mats)
        assert checked == [(g, j) for g in alg.generators() for j in others]


# -- the quotient side of minimality, on first read ------------------------------------

def counted(monkeypatch, name: str) -> list:
    """Replace modrep.<name> by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(modrep, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modrep, name, wrapper)
    return calls


def kxy_twice() -> ModuleRep:
    # one copy of the regular module is faithful and lies in a maximal
    # submodule; the top has 3 hyperplanes, the socle 15 points
    reg = regular_module(KXY)
    return reg.direct_sum(reg)


def test_minimal_runs_no_socle_scan_when_a_maximal_submodule_is_faithful(monkeypatch):
    m = kxy_twice()
    calls = {name: counted(monkeypatch, name)
             for name in ("socle_subspace", "simple_socle_submodules", "transposed", "_preimage")}
    report = minimal_faithful(m)
    assert not report.no_faithful_max_submodule
    assert not report.minimal
    assert all(seen == [] for seen in calls.values())
    # the quotient side is scanned once, on its first read, and kept
    flag = report.no_faithful_simple_quotient
    assert report.no_faithful_simple_quotient == flag
    assert report.quotient_witness is report.quotient_witness
    assert (len(calls["socle_subspace"]), len(calls["simple_socle_submodules"])) == (1, 1)
    assert len(calls["transposed"]) == socles(m.algebra).twosided.dim  # soc(R)'s maps, each transposed once
    assert calls["_preimage"] == []
    # the submodule witness is built once, on its first read
    witness = report.submodule_witness
    assert report.submodule_witness is witness and len(calls["_preimage"]) == 1
    assert faithful(restrict_action(m, witness))[0] and witness.dim < m.dim
    assert (False, flag, witness, report.quotient_witness) == minimal_faithful_by_annihilators(m)


def test_socle_point_budget_stop_surfaces_at_the_read():
    m = kxy_twice()
    # each side's scan runs on its first read, so its stop surfaces there
    with pytest.raises(BudgetExceeded, match="maximal-submodule hyperplane enumeration"):
        minimal_faithful(m, Budget(max_enumeration=2)).no_faithful_max_submodule
    report = minimal_faithful(m, Budget(max_enumeration=3))
    assert not report.minimal
    for _ in range(2):  # a stopped scan keeps no result: each read stops again
        with pytest.raises(BudgetExceeded, match="simple-socle point enumeration") as exc:
            report.no_faithful_simple_quotient
        assert (exc.value.needed, exc.value.cap) == (15, 3)
    assert minimal_faithful(m, Budget(max_enumeration=15)).no_faithful_simple_quotient \
        == minimal_faithful(m).no_faithful_simple_quotient


# -- one shared full space per top dimension ---------------------------------------------

@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_shared_full_space_is_the_full_space(p, e):
    # an identity top's multiplicity space is the shared Subspace.full
    field = field_make(p, e)
    for t in range(1, 5):
        assert Subspace.full(field, t) == Subspace.from_vectors(field, t, Mat.identity(field, t).row_list())
        assert Subspace.full(field, t) is Subspace.full(field, t)


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_shared_hyperplanes_are_those_of_the_full_space(p, e):
    field = field_make(p, e)
    for t in range(1, 4):
        shared = exactla.full_hyperplanes(field, t)
        assert shared == tuple(enum_hyperplanes(Subspace.full(field, t)))
        assert exactla.full_hyperplanes(field, t) is shared


def test_identity_tops_share_hyperplanes_up_to_the_bound(monkeypatch):
    # x acts as zero on F_2^t, so JM = 0 and the top is F^t, one identity
    # block.  F_2^10 has 1,023 hyperplanes, within the bound of 1,024, and
    # they come from exactla's shared tuple; F_2^11 has 2,047 and is
    # enumerated afresh.  Both give enum_hyperplanes' sequence
    field = field_make(2)
    alg = make_twisted_truncated(2, 1, 1)
    shared_for = []
    shared_hyperplanes = exactla._shared_hyperplanes
    monkeypatch.setattr(exactla, "_shared_hyperplanes", lambda f, t: shared_for.append(t) or shared_hyperplanes(f, t))
    for t in (10, 11):
        m = ModuleRep(alg, t, (Mat.identity(field, t), Mat.zero(field, t, t)))
        scanned = [(hyper, w_top) for _f, hyper, w_top in modrep._maximal_tops(top(m), Budget())]
        assert [hyper for hyper, _ in scanned] == list(enum_hyperplanes(Subspace.full(field, t)))
        assert all(w_top is hyper for hyper, w_top in scanned)
    assert shared_for == [10]
