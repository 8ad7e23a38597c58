"""Acceptance criteria, one test per criterion, exact tolerances.

Every test prints one PASS/FAIL line (visible with -v via the test name and
with -s via the printed summary).  Time limits are the stated ceilings; the
whole battery also backs the CLI reproduce targets.
"""

import inspect
import re
import time
from collections import Counter

import pytest

from soclelab import reproduce
from soclelab.budget import DEFAULT_BUDGET, Budget
from soclelab.cli import build_parser
from soclelab.corpus import iter_generator_modules, iter_weighted_generator_modules
from soclelab.errors import BudgetExceeded, SocleLabError, TheoremViolation
from soclelab.gallery import criterion8_algebras, make_row_diagonal_pair
from soclelab.modrep import faithful, local_socle_check, minimal_faithful
from soclelab.reproduce import (
    battery_corner_minimality,
    battery_counterexample_values,
    battery_coverage_bound,
    battery_cross_tightness,
    battery_local_bound_exhaustive,
    battery_radical_agreement,
    battery_shrink_bounds,
    battery_socle_forms,
    battery_strength_laws,
    battery_system_no_violation,
    battery_twisted_centrality,
)

SEED = 20260808


def report(criterion: str, items, elapsed: float, limit: float | None = None):
    ok = all(item["ok"] for item in items)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {len(items)} checks in {elapsed:.1f}s")
    for item in items:
        if not item["ok"]:
            print(f"    FAILED {item['name']}: {item['details']}")
    assert ok, f"{criterion} has failing checks"
    if limit is not None:
        assert elapsed <= limit, f"{criterion} exceeded its {limit}s ceiling ({elapsed:.1f}s)"


def test_criterion_01_exhaustive_coverage_bound():
    t0 = time.monotonic()
    items = battery_coverage_bound()
    elapsed = time.monotonic() - t0
    # all subspaces scanned for (2,2),(2,3),(3,2) over F_2 and (2,2) over F_3
    totals = {(i["details"]["total"]) for i in items}
    assert totals == {67, 2825, 212}
    for item in items:
        assert item["details"]["min_dim"] == item["details"]["bound"]
    report("criterion 1 (exhaustive dimension bound)", items, elapsed, limit=60.0)


def test_coverage_bound_battery_is_charged_to_the_budget():
    # each case is guarded before its scan: 2x2 over F_2 (67 subspaces) fits a
    # cap of 100, and 2x3 over F_2 (2,825) stops the battery
    with pytest.raises(BudgetExceeded) as info:
        battery_coverage_bound(budget=Budget(max_enumeration=100))
    assert info.value.what == "coverage-bound subspace enumeration"
    assert info.value.needed == 2825


def test_cross_tightness_battery_is_charged_to_the_budget():
    # the largest case, 4x4 over F_3, has 40 + 40 projective points on its
    # two sides: a cap of 80 gives the uncapped items, 79 stops the battery
    assert battery_cross_tightness(budget=Budget(max_enumeration=80)) == battery_cross_tightness()
    with pytest.raises(BudgetExceeded) as info:
        battery_cross_tightness(budget=Budget(max_enumeration=79))
    assert (info.value.what, info.value.needed) == ("coverage point enumeration", 80)


def test_capped_reproduce_stops_at_the_radical_oracle():
    # under a cap of 5000 the radical-agreement battery reaches
    # triangular-4x4-q3, a ring of 3^10 elements, and the run stops at the
    # oracle's guard rather than passing on the rings below the cap
    with pytest.raises(BudgetExceeded) as info:
        reproduce.run_target("paper-2", budget=Budget.of_cap(5000))
    assert info.value.what == "radical oracle"
    assert (info.value.needed, info.value.cap) == (3**10, 5000)


def test_corner_minimality_battery_checks_its_witness_on_the_budget(monkeypatch):
    # the non-minimal corner's witness is re-checked by `check_bound` on the
    # battery's own budget; `check_minimal` reaches tensorcover's, not this one
    budget, seen, real = Budget(max_enumeration=5000), [], reproduce.check_bound

    def recorder(a, *args, **kwargs):
        seen.append(kwargs.get("budget"))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(reproduce, "check_bound", recorder)
    items = battery_corner_minimality(budget=budget)
    assert len(seen) == 1 and seen[0] is budget
    assert all(item["ok"] for item in items)


def test_run_target_runs_the_table_in_order(monkeypatch):
    # with stub batteries in the table: "all" runs every entry in table
    # order, a target only its own, each gets the run's seed and budget, and
    # an unknown target raises before any battery runs
    calls = []

    def stub(name):
        def battery(*, seed, budget):
            calls.append((name, seed, budget))
            return [{"name": name}]
        return battery

    table = (("paper-2", stub("a")), ("paper-4", stub("b")), ("paper-2", stub("c")), ("paper-6", stub("d")))
    monkeypatch.setattr(reproduce, "BATTERIES", table)
    budget = Budget(max_enumeration=7)
    assert [item["name"] for item in reproduce.run_target("all", seed=3, budget=budget)] == ["a", "b", "c", "d"]
    assert [item["name"] for item in reproduce.run_target("paper-2", seed=3, budget=budget)] == ["a", "c"]
    assert reproduce.run_target("paper-5.1", seed=3, budget=budget) == []
    assert [name for name, _, _ in calls] == ["a", "b", "c", "d", "a", "c"]
    assert all(seed == 3 and got is budget for _, seed, got in calls)
    calls.clear()
    message = "unknown reproduce target 'paper-3'; choose from paper-2, paper-4, paper-5.1, paper-6, all"
    with pytest.raises(SocleLabError, match="^" + re.escape(message) + "$"):
        reproduce.run_target("paper-3")
    assert calls == []


def test_every_battery_takes_the_seed_and_the_budget():
    # TARGETS is read from the table, with "all" last; each battery takes
    # the run's seed and budget, as keywords, defaulting to SEED and the
    # default budget
    assert reproduce.TARGETS == ("paper-2", "paper-4", "paper-5.1", "paper-6", "all")
    assert build_parser().parse_args(["reproduce", "all"]).seed == reproduce.SEED == SEED
    keyword = inspect.Parameter.KEYWORD_ONLY
    for _target, battery in reproduce.BATTERIES:
        params = [(p.name, p.kind, p.default) for p in inspect.signature(battery).parameters.values()]
        assert params == [("seed", keyword, SEED), ("budget", keyword, DEFAULT_BUDGET)]


def test_criterion_02_cross_tightness():
    t0 = time.monotonic()
    items = battery_cross_tightness()
    elapsed = time.monotonic() - t0
    assert len(items) == 32  # m, n <= 4 over q in {2, 3}
    report("criterion 2 (cross-space tightness)", items, elapsed)


def test_criterion_03_corner_minimality_split():
    t0 = time.monotonic()
    items = battery_corner_minimality()
    elapsed = time.monotonic() - t0
    by_name = {i["name"]: i for i in items}
    assert by_name["corner-3-3-2-q3-minimal"]["ok"]
    witness = by_name["corner-3-3-3-q2-not-minimal"]
    assert witness["details"]["witness_dim"] is not None
    report("criterion 3 (corner-family minimality split)", items, elapsed, limit=60.0)


def test_criterion_04_counterexample_reproduction():
    t0 = time.monotonic()
    items = battery_counterexample_values()
    elapsed = time.monotonic() - t0
    by_name = {i["name"]: i for i in items}
    line = by_name["line-cover-q2-d2-inequality-fails"]["details"]
    assert (line["lhs"], line["rhs"]) == (5, 4)
    assert line["failed_hypotheses"] == ["cardD"]
    assert (line["N_T"], line["d_T"], line["l_S"]) == (2, 3, 1)
    ring = by_name["row-diagonal-module-inequality-fails"]["details"]
    assert (ring["top"], ring["socle"], ring["socle_bimodule_length"], ring["chi"]) == (3, 2, 3, 1)
    assert (ring["lhs"], ring["rhs"]) == (5, 4)
    report("criterion 4 (small-field counterexample values)", items, elapsed)


def test_criterion_05_socle_closed_forms():
    t0 = time.monotonic()
    items = battery_socle_forms()
    elapsed = time.monotonic() - t0
    report("criterion 5 (socle closed forms)", items, elapsed)


def test_criterion_06_radical_oracle_agreement():
    t0 = time.monotonic()
    items = battery_radical_agreement()
    elapsed = time.monotonic() - t0
    assert len(items) >= 30  # the whole gallery grid under the element cap
    report("criterion 6 (radical oracle agreement)", items, elapsed, limit=120.0)


def test_criterion_07_twisted_socle_centrality():
    t0 = time.monotonic()
    items = battery_twisted_centrality()
    elapsed = time.monotonic() - t0
    assert len(items) == 16  # p in {2,3}, d in {1,2}, n in 1..4
    report("criterion 7 (twisted-ring socle centrality)", items, elapsed)


def test_criterion_08_local_bound_exhaustive():
    t0 = time.monotonic()
    items = battery_local_bound_exhaustive()
    elapsed = time.monotonic() - t0
    assert len(items) == 5
    for item in items:
        assert item["details"]["violations"] == 0
        assert item["details"]["minimal"] > 0
    report("criterion 8 (local bound, exhaustive modules dim <= 4)", items, elapsed, limit=300.0)


def local_bound_answers(pairs) -> Counter:
    """Weighted counts of what criterion 8 reads off each (weight, module):
    faithfulness, minimality, and the top and socle lengths of a minimal one."""
    counts = Counter()
    for weight, m in pairs:
        ok = faithful(m)[0]
        minimal = ok and minimal_faithful(m).minimal
        report = local_socle_check(m) if minimal else None
        counts[ok, minimal, report and (report.top_length, report.socle_length)] += weight
    return counts


def test_weighted_local_bound_counts_match_the_per_candidate_scan(monkeypatch):
    # the per-candidate stream is the oracle for the orbit-weighted one, per
    # algebra and dimension; the battery's totals at dims 1-3 are its sums
    totals = {}
    for name, alg in criterion8_algebras():
        totals[name] = Counter()
        for dim in (1, 2, 3, 4) if name in ("kx2-q2", "scalar-tri2-q2") else (1, 2, 3):
            oracle = local_bound_answers((1, m) for m in iter_generator_modules(alg, dim))
            assert local_bound_answers(iter_weighted_generator_modules(alg, dim)) == oracle
            if dim <= 3:
                totals[name] += oracle
    monkeypatch.setattr(reproduce, "LOCAL_BOUND_MAX_DIM", 3)
    for item in battery_local_bound_exhaustive():
        counts = totals[item["name"].removeprefix("local-bound-exhaustive-")]
        details = item["details"]
        assert details["scanned"] == sum(counts.values())
        assert details["faithful"] == sum(c for (ok, _, _), c in counts.items() if ok)
        assert details["minimal"] == sum(c for (_, minimal, _), c in counts.items() if minimal)
        assert details["violations"] == 0


def test_local_bound_battery_counts_each_violation_by_its_weight(monkeypatch):
    def violated(*_args):
        raise TheoremViolation("forced")

    monkeypatch.setattr(reproduce, "local_socle_check", violated)
    items = battery_local_bound_exhaustive()
    assert [item["details"]["minimal"] for item in items] == [3, 8, 84, 3, 84]
    for item in items:
        assert item["details"]["violations"] == item["details"]["minimal"]
        assert item["verdict"] == "violation" and not item["ok"]


@pytest.mark.parametrize("shrink, counter", [
    ("shrink_submodule", "submodule_violations"),
    ("shrink_quotient", "quotient_violations"),
    ("shrink_subfactor", "subfactor_violations"),
])
def test_shrink_battery_counts_each_violation_once(monkeypatch, shrink, counter):
    def violated(*_args):
        raise TheoremViolation("forced")

    module = make_row_diagonal_pair()[1]
    monkeypatch.setattr(reproduce, "faithful_corpus", lambda rng, min_count: [("row-diagonal", module)])
    monkeypatch.setattr(reproduce, shrink, violated)
    monkeypatch.setattr(reproduce, "SHRINK_MIN_COUNT", 1)
    [item] = battery_shrink_bounds(seed=SEED)
    counters = ("submodule_violations", "quotient_violations", "subfactor_violations")
    assert {k: item["details"][k] for k in counters} == {k: int(k == counter) for k in counters}
    assert item["details"]["modules"] == 1
    assert item["verdict"] == "violation" and not item["ok"]


def test_criterion_09_no_false_violation_on_random_systems():
    t0 = time.monotonic()
    items = battery_system_no_violation(seed=SEED)
    elapsed = time.monotonic() - t0
    details = items[0]["details"]
    assert details["instances"] >= 500
    assert details["violations"] == 0
    report("criterion 9 (500 verified random systems, no violation)", items, elapsed)


def test_criterion_10_shrink_bounds_on_corpus():
    t0 = time.monotonic()
    items = battery_shrink_bounds(seed=SEED)
    elapsed = time.monotonic() - t0
    details = items[0]["details"]
    assert details["modules"] >= 200
    assert details["submodule_violations"] == 0
    assert details["quotient_violations"] == 0
    assert details["subfactor_violations"] == 0
    report("criterion 10 (shrink bounds on the corpus)", items, elapsed, limit=180.0)


def test_criterion_11_strength_predicates_and_laws():
    t0 = time.monotonic()
    items = battery_strength_laws()
    elapsed = time.monotonic() - t0
    by_name = {i["name"]: i for i in items}
    assert by_name["line-cover-q2-left-2-strong"]["ok"]
    assert by_name["line-cover-q2-no-block-1-strong"]["ok"]
    report("criterion 11 (strength predicates and union/cover laws)", items, elapsed)
