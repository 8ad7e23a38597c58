"""Verification batteries: one function per acceptance battery, shared by
the CLI reproduce command and the test suite.

`BATTERIES` is the ordered table of (target, battery) pairs that
`run_target` runs, and `TARGETS` is read from it.  Every battery takes the
keywords `seed=SEED` and `budget=DEFAULT_BUDGET`: criteria 9 and 10 draw
from `random.Random(seed)` and the rest ignore it; every battery but
criterion 9 charges its enumerations to the budget.

Each battery returns a list of item dicts {name, verdict, ok, details}.
verdict follows the CLI taxonomy: "pass" for a met expectation, a
"counterexample" is a legitimate mathematical negative (the point of the
small-field examples), "violation" means a proved statement failed and the
code is wrong.  ok records whether the outcome matched the documented
expectation, whatever its sign.
"""

from __future__ import annotations

import random

from .algebra import (
    bimodule_length,
    radical_bruteforce,
    socle_graph,
    socle_is_central,
    socles,
)
from .budget import DEFAULT_BUDGET, Budget
from .corpus import faithful_corpus, iter_weighted_generator_modules, random_verified_system
from .errors import SocleLabError, TheoremViolation
from .exactla import Mat, enum_pivot_patterns, num_subspaces
from .gallery import (
    LINE_COVER_EXPECTED,
    ROW_DIAGONAL_EXPECTED,
    criterion8_algebras,
    iter_gallery_algebras,
    make_corner_family,
    make_cross,
    make_line_cover_system,
    make_matrix_algebra,
    make_row_diagonal_pair,
    make_triangular,
    make_twisted_truncated,
)
from .gf import field_make
from .modrep import (
    faithful,
    graph_socle_check,
    local_socle_check,
    minimal_faithful,
    semisimple_length,
    shrink_bound,
    shrink_quotient,
    shrink_submodule,
    shrink_subfactor,
    socle_subspace,
    top_socle,
)
from .strongness import BilinearSystem, BlockSpec, n_strong, no_union_cover, prop41_check, tensor_maps, union_split
from .tensorcover import check_bound, check_minimal, _coverage_scan


SEED = 20260808  # the default seed of the randomized batteries
LOCAL_BOUND_MAX_DIM = 4  # criterion 8 scans every module of dimension 1..this
SYSTEM_COUNT = 500  # criterion 9's verified random systems
SHRINK_MIN_COUNT = 200  # criterion 10's least corpus size


def _item(name: str, ok: bool, verdict: str = "pass", **details) -> dict:
    # verdict is what a met expectation reports: "counterexample" when the
    # expectation IS a mathematical negative
    return {"name": name, "ok": bool(ok), "verdict": verdict if ok else "violation", "details": details}


# -- criterion 1 -------------------------------------------------------------

def battery_coverage_bound(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    cases = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]
    items = []
    for m, n, q in cases:
        budget.guard("coverage-bound subspace enumeration", num_subspaces(m * n, q, m * n))
        field = field_make(q)
        total, dims = 0, []  # dims: of the satisfying subspaces
        for dim in range(m * n + 1):
            for _, _, holds in _coverage_scan(field, m, n, enum_pivot_patterns(field, m * n, dim)):
                total += 1
                if holds:
                    dims.append(dim)
        items.append(_item(
            f"coverage-bound-exhaustive-m{m}-n{n}-q{q}",
            dims and min(dims) >= m + n - 1,
            total=total, satisfying=len(dims), min_dim=min(dims, default=None), bound=m + n - 1,
        ))
    return items


# -- criterion 2 -------------------------------------------------------------

def battery_cross_tightness(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    for q in (2, 3):
        field = field_make(q)
        for m in range(1, 5):
            for n in range(1, 5):
                ts = make_cross(m, n, field)
                report = check_bound(ts, budget=budget)
                ok = ts.dim == m + n - 1 and report.both_hold
                items.append(_item(f"cross-tight-m{m}-n{n}-q{q}", ok, dim=ts.dim))
    return items


# -- criterion 3 -------------------------------------------------------------

def battery_corner_minimality(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    f3 = field_make(3)
    ts = make_corner_family(3, 3, 2, f3)
    is_min, witness = check_minimal(ts, budget)
    items.append(_item("corner-3-3-2-q3-minimal", is_min, dim=ts.dim))

    f2 = field_make(2)
    ts2 = make_corner_family(3, 3, 3, f2)
    is_min2, witness2 = check_minimal(ts2, budget)
    witness_ok = False
    if witness2 is not None:
        wr = check_bound(witness2, budget=budget)
        witness_ok = wr.both_hold and witness2.dim < ts2.dim
    items.append(_item(
        "corner-3-3-3-q2-not-minimal",
        (not is_min2) and witness_ok,
        witness_dim=witness2.dim if witness2 else None,
    ))
    return items


# -- criterion 4 -------------------------------------------------------------

def battery_counterexample_values(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    sys = make_line_cover_system(field_make(2), 2, budget)
    rep = prop41_check(sys, budget)
    expected_failures = {"cardD"}
    failed = {k for k, v in rep.hypotheses_met.items() if not v}
    ok = (
        rep.lhs == 5 and rep.rhs == 4 and not rep.holds
        and failed == expected_failures
        and rep.budget.N_T == 2 and rep.budget.d_T == 3 and rep.budget.l_S == 1
    )
    items.append(_item(
        "line-cover-q2-d2-inequality-fails", ok, "counterexample",
        lhs=rep.lhs, rhs=rep.rhs, failed_hypotheses=sorted(failed),
        N_T=rep.budget.N_T, d_T=rep.budget.d_T, l_S=rep.budget.l_S,
    ))

    for (q, d), (lhs_exp, rhs_exp) in sorted(LINE_COVER_EXPECTED.items()):
        if (q, d) == (2, 2):
            continue
        sys_qd = make_line_cover_system(field_make(q), d, budget)
        rep_qd = prop41_check(sys_qd, budget)
        ok_qd = rep_qd.lhs == lhs_exp and rep_qd.rhs == rhs_exp and not rep_qd.holds
        items.append(_item(
            f"line-cover-q{q}-d{d}-inequality-fails", ok_qd, "counterexample", lhs=rep_qd.lhs, rhs=rep_qd.rhs,
        ))

    ring, module = make_row_diagonal_pair()
    exp = ROW_DIAGONAL_EXPECTED
    ok_r, _ = faithful(module)
    minimality = minimal_faithful(module, budget)
    ts = top_socle(module, budget)
    graph = socle_graph(ring, budget)
    soc_len = graph.socle_bimodule_length
    rep_m = graph_socle_check(module, budget)
    ineq = rep_m.inequality
    ok = (
        ok_r and minimality.minimal
        and ts.top_length == exp["top_length"] and ts.socle_length == exp["socle_length"]
        and soc_len == exp["socle_bimodule_length"] and graph.chi == exp["chi"]
        and len(graph.edges) == exp["edges"]
        and len(graph.left_vertices) == exp["left_vertices"]
        and len(graph.right_vertices) == exp["right_vertices"]
        and ineq["lhs"] == exp["lhs"] and ineq["rhs"] == exp["rhs"] and not ineq["holds"]
    )
    items.append(_item(
        "row-diagonal-module-inequality-fails", ok, "counterexample",
        top=ts.top_length, socle=ts.socle_length, socle_bimodule_length=soc_len,
        chi=graph.chi, lhs=ineq["lhs"], rhs=ineq["rhs"],
    ))
    return items


# -- criterion 5 -------------------------------------------------------------

def battery_socle_forms(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    for q in (2, 3):
        field = field_make(q)
        for n in range(1, 5):
            alg = make_triangular(n, field, scalar_diagonal=False)
            st = socles(alg, budget)
            # top row, last column, corner (all three coincide when n = 1)
            ok = st.left.dim == n and st.right.dim == n and st.twosided.dim == 1
            items.append(_item(
                f"triangular-socles-n{n}-q{q}", ok,
                left=st.left.dim, right=st.right.dim, twosided=st.twosided.dim,
            ))
        for n in (1, 2):
            alg = make_matrix_algebra(n, field)
            soc = socles(alg, budget).twosided
            length = bimodule_length(alg, soc, budget)
            items.append(_item(f"matrix-socle-bimodule-length-n{n}-q{q}", length == 1, length=length))
    return items


# -- criterion 6 -------------------------------------------------------------

def battery_radical_agreement(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    for name, alg in iter_gallery_algebras():  # a ring over the cap stops the run at the oracle's guard
        brute = radical_bruteforce(alg, budget)
        ok = brute == alg.certificate.radical
        items.append(_item(f"radical-agreement-{name}", ok, dim=alg.dim, radical_dim=brute.dim))
    return items


# -- criterion 7 -------------------------------------------------------------

def battery_twisted_centrality(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    for p in (2, 3):
        for d in (1, 2):
            for n in range(1, 5):
                alg = make_twisted_truncated(p, d, n)
                central = socle_is_central(alg, budget)
                ok = central == (n % d == 0)
                items.append(_item(
                    f"twisted-centrality-p{p}-d{d}-n{n}", ok,
                    central=central, divisible=(n % d == 0),
                ))
    return items


# -- criterion 8 -------------------------------------------------------------

def battery_local_bound_exhaustive(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    """Orbit-weighted counts (`iter_weighted_generator_modules`) of the modules
    of dim <= LOCAL_BOUND_MAX_DIM over each algebra; scanned is the candidates
    covered."""
    items = []
    for name, alg in criterion8_algebras():
        soc_dim = socles(alg, budget).twosided.dim
        scanned = 0
        faithful_count = 0
        minimal_count = 0
        violations = 0
        for dim in range(1, LOCAL_BOUND_MAX_DIM + 1):
            for weight, mod in iter_weighted_generator_modules(alg, dim):
                scanned += weight
                ok_f, _ = faithful(mod)
                if not ok_f:
                    continue
                faithful_count += weight
                if not minimal_faithful(mod, budget).minimal:
                    continue
                minimal_count += weight
                try:
                    local_socle_check(mod, budget)
                except TheoremViolation:
                    violations += weight
        items.append(_item(
            f"local-bound-exhaustive-{name}", violations == 0 and minimal_count > 0,
            scanned=scanned, faithful=faithful_count, minimal=minimal_count,
            socle_dim=soc_dim, violations=violations,
        ))
    return items


# -- criterion 9 -------------------------------------------------------------

def battery_system_no_violation(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    # budget is not read yet: each system's swap hypothesis is settled under
    # random_verified_system's own cap of 1 (ROADMAP item 3)
    rng = random.Random(seed)
    fields = [field_make(2, 2), field_make(5), field_make(7), field_make(3, 2)]
    items = []
    produced = 0
    violations = 0
    holds_all = True
    idx = 0
    while produced < SYSTEM_COUNT and idx < 40 * SYSTEM_COUNT:  # generation failure guard
        field = fields[idx % len(fields)]
        idx += 1
        try:
            result = random_verified_system(field, rng)
        except TheoremViolation:
            violations += 1
            produced += 1
            continue
        if result is None:
            continue
        _sys, rep = result
        produced += 1
        if not rep.holds:
            holds_all = False
    items.append(_item(
        "random-split-systems-no-false-violation",
        violations == 0 and holds_all and produced >= SYSTEM_COUNT,
        instances=produced, violations=violations,
    ))
    return items


# -- criterion 10 ------------------------------------------------------------

def battery_shrink_bounds(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    rng = random.Random(seed)
    corpus = faithful_corpus(rng, min_count=SHRINK_MIN_COUNT)
    sub_viol = quot_viol = factor_viol = 0
    for name, mod in corpus:
        n_bound = shrink_bound(mod, budget)
        try:
            m1 = shrink_submodule(mod, budget)
            ok1, _ = faithful(m1)
            if not ok1 or top_socle(m1, budget).top_length > n_bound:
                sub_viol += 1
        except TheoremViolation:
            sub_viol += 1
        try:
            m2 = shrink_quotient(mod, budget)
            ok2, _ = faithful(m2)
            if not ok2 or semisimple_length(m2, socle_subspace(m2, budget)) > n_bound:
                quot_viol += 1
        except TheoremViolation:
            quot_viol += 1
        try:
            m3 = shrink_subfactor(mod, budget)
            ts3 = top_socle(m3, budget)
            ok3, _ = faithful(m3)
            if not ok3 or ts3.top_length > n_bound or ts3.socle_length > n_bound:
                factor_viol += 1
        except TheoremViolation:
            factor_viol += 1
    total_viol = sub_viol + quot_viol + factor_viol
    return [_item(
        "shrink-bounds-corpus", total_viol == 0,
        modules=len(corpus), submodule_violations=sub_viol,
        quotient_violations=quot_viol, subfactor_violations=factor_viol,
    )]


# -- criterion 11 ------------------------------------------------------------

def battery_strength_laws(*, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    items = []
    sys = make_line_cover_system(field_make(2), 2, budget)
    rep2 = n_strong(sys, "left", 2, t_block=0, budget=budget)
    items.append(_item("line-cover-q2-left-2-strong", rep2.strong))
    any_block_1_strong = False
    for e in range(3):
        rep1 = n_strong(sys, "left", 1, t_block=0, s_block=e, budget=budget)
        if rep1.strong:
            any_block_1_strong = True
    items.append(_item("line-cover-q2-no-block-1-strong", not any_block_1_strong))

    idx, _rep = union_split(sys, [sys.block_maps(0, e) for e in range(3)], "left", 2, t_block=0, budget=budget)
    items.append(_item("line-cover-union-law-instance", idx is not None, part=idx))

    # covering laws on small module lattices
    for q in (2, 3):
        field = field_make(q)
        for (n, t) in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
            holds = no_union_cover(field, BlockSpec(n, t), q, budget)
            items.append(_item(f"no-union-cover-q{q}-n{n}-t{t}", holds))

    # union law instances: union_split itself raises TheoremViolation when a
    # strong union has no strong part, so simply running it checks the law.
    # Splitting a full map space's basis in half gives unions that may or may
    # not be strong; both outcomes are lawful.
    for q in (2, 3):
        field = field_make(q)
        for s, t in ((1, 2), (2, 2), (1, 3)):
            full = [Mat.unit(field, t, s, i, j) for i in range(t) for j in range(s)]
            sys_full = BilinearSystem(field, (BlockSpec(1, s),), (BlockSpec(1, t),), tuple(full))
            half = len(full) // 2
            parts = [full[:half], full[half:]]
            idx, rep = union_split(sys_full, parts, "left", q, t_block=0, budget=budget)
            items.append(_item(
                f"union-law-basis-split-q{q}-s{s}-t{t}", True,
                part=idx, union_strong=(idx is not None) or rep.strong,
            ))
            repq = n_strong(sys_full, "left", q, t_block=0, budget=budget)
            items.append(_item(f"full-hom-left-q-strong-q{q}-s{s}-t{t}", repq.strong))

    # disjoint full corners: the union IS q-strong, so the law must locate a
    # q/2-strong part
    for q in (2, 3):
        field = field_make(q)
        for s, t in ((1, 2), (2, 2)):
            twin = _two_block_full_system(field, s, t)
            parts = [twin.block_maps(0, 0), twin.block_maps(0, 1)]
            idx, rep = union_split(twin, parts, "left", q, t_block=0, budget=budget)
            items.append(_item(
                f"union-law-disjoint-corners-q{q}-s{s}-t{t}",
                idx is not None, part=idx,
            ))
    return items


def _two_block_full_system(field, s: int, t: int):
    """Two S-blocks, full hom corner from each into one T-block."""
    layout = BilinearSystem(field, (BlockSpec(1, s), BlockSpec(1, s)), (BlockSpec(1, t),), (), _skip_verify=True)
    units = [Mat.unit(field, t, s, i, j).entries for i in range(t) for j in range(s)]
    gens = [g for e in (0, 1) for g in tensor_maps(layout, 0, e, units)]
    return BilinearSystem(field, layout.s_blocks, layout.t_blocks, tuple(gens))


# -- assembly ----------------------------------------------------------------

BATTERIES = (  # (target, battery), in the order of "all"
    ("paper-2", battery_coverage_bound),
    ("paper-2", battery_cross_tightness),
    ("paper-2", battery_corner_minimality),
    ("paper-2", battery_socle_forms),
    ("paper-2", battery_radical_agreement),
    ("paper-2", battery_twisted_centrality),
    ("paper-2", battery_local_bound_exhaustive),
    ("paper-4", battery_system_no_violation),
    ("paper-4", battery_strength_laws),
    ("paper-5.1", battery_counterexample_values),
    ("paper-6", battery_shrink_bounds),
)

TARGETS = (*dict.fromkeys(target for target, _ in BATTERIES), "all")


def run_target(target: str, seed: int = SEED, budget: Budget = DEFAULT_BUDGET) -> list[dict]:
    if target not in TARGETS:
        raise SocleLabError(f"unknown reproduce target {target!r}; choose from {', '.join(TARGETS)}")
    return [item for key, battery in BATTERIES if target in (key, "all") for item in battery(seed=seed, budget=budget)]
