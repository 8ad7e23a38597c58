"""The four benchmark workloads: inputs, the measured loop, and the checks.

Each workload has
- `build(sl, seed, rnd, smoke)`: the set-up phase.  It constructs the
  inputs of one round through soclelab and returns an `Inputs`.
- `run(sl, inputs, timer)`: the measured phase.  It calls soclelab on every
  item, between `timer.start()` and `timer.stop()`, and returns the verdicts.
- `check(inputs, verdicts)`: compares every verdict with its known answer
  and returns one message per failing item.

`sl` maps module names ("gf", "algebra", ...) to the imported soclelab
modules.  Every package function is looked up through it at call time, so a
tracer that rebinds module attributes sees every call.

Items that raise `BudgetExceeded`, `InputError` or `TheoremViolation` get a
verdict {"error": <class name>} and count as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field


@dataclass
class Inputs:
    items: list
    digest: str
    sizes: dict
    expected: list = field(default_factory=list)  # per-item known answer, where one is computed


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _field_key(f) -> list:
    return [f.p, f.e, list(f.modulus)]


def _algebra_key(alg) -> list:
    return [_field_key(alg.field), alg.dim, [[list(c) for c in row] for row in alg.mult], list(alg.one)]


def _guarded(sl, call):
    """Run one item's package calls; soclelab's own errors become a verdict."""
    errors = sl["errors"]
    try:
        return call()
    except (errors.BudgetExceeded, errors.InputError, errors.TheoremViolation) as exc:
        return {"error": type(exc).__name__, "message": str(exc)[:200]}


def _timed(items, timer, work):
    verdicts = []
    for item in items:
        timer.start()
        verdicts.append(work(item))
        timer.stop()
    return verdicts


# ---------------------------------------------------------------------------
# small exact linear algebra over a prime field, independent of soclelab,
# used to make and to answer the random radical-oracle inputs
# ---------------------------------------------------------------------------

def _echelon_add(pivots: dict, vec, p: int) -> bool:
    """Add vec to a fully reduced echelon basis {pivot column: row}."""
    v = list(vec)
    for c, row in pivots.items():
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    c = next((i for i, x in enumerate(v) if x), None)
    if c is None:
        return False
    inv = pow(v[c], p - 2, p)
    v = [(x * inv) % p for x in v]
    for k, row in list(pivots.items()):
        f = row[c]
        if f:
            pivots[k] = [(x - f * y) % p for x, y in zip(row, v)]
    pivots[c] = v
    return True


def _rref(vectors, p: int) -> list[list[int]]:
    pivots: dict = {}
    for v in vectors:
        _echelon_add(pivots, v, p)
    return [pivots[c] for c in sorted(pivots)]


def _null_space(rows, ncols: int, p: int) -> list[list[int]]:
    """Basis of {x : rows . x = 0} over F_p."""
    red = _rref(rows, p)
    pivot_cols = [next(i for i, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (j for j in range(ncols) if j not in pivot_cols):
        x = [0] * ncols
        x[free] = 1
        for r, pc in zip(red, pivot_cols):
            x[pc] = (-r[free]) % p
        basis.append(x)
    return basis


def _matmul(a, b, n: int, p: int) -> list[int]:
    return [sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p for i in range(n) for j in range(n)]


def _closure(gens, n: int, p: int, cap: int):
    """Basis (as flat matrices) of the unital algebra the generators span,
    or None once it exceeds cap elements of basis."""
    identity = [1 if i == j else 0 for i in range(n) for j in range(n)]
    pivots: dict = {}
    basis = []
    for g in [identity] + gens:
        if _echelon_add(pivots, g, p):
            basis.append(g)
    i = 0
    while i < len(basis):
        for j in range(len(basis)):
            for prod in (_matmul(basis[i], basis[j], n, p), _matmul(basis[j], basis[i], n, p)):
                if _echelon_add(pivots, prod, p):
                    basis.append(prod)
                    if len(basis) > cap:
                        return None
        i += 1
    return basis


def random_triangular_subalgebra(rng: random.Random, p: int, n: int, dim: int) -> list[list[int]]:
    """A random unital subalgebra of the upper-triangular n x n matrices over
    F_p with exactly `dim` basis matrices, by rejection on the closure of two
    random upper-triangular generators."""
    while True:
        gens = [[rng.randrange(p) if j >= i and rng.random() < 0.5 else 0
                 for i in range(n) for j in range(n)] for _ in range(2)]
        basis = _closure(gens, n, p, dim)
        if basis is not None and len(basis) == dim:
            return basis


def triangular_radical(basis, n: int, p: int) -> list[list[int]]:
    """J(A) = A meet (strictly upper-triangular), in coordinates over the
    given basis, as canonical RREF rows: the coordinate vectors whose
    combination has zero diagonal."""
    diag_rows = [[m[k * n + k] for m in basis] for k in range(n)]
    return _rref(_null_space(diag_rows, len(basis), p), p)


# ---------------------------------------------------------------------------
# radical-oracle
# ---------------------------------------------------------------------------

RADICAL_MAX_RING = 3**10
RADICAL_EXCLUDED = ("twisted-truncated-p3-d2-n4",)  # 22 s alone; same mechanism as p3-d2-n3
# (p, n, dim, how many) per round: sizes are fixed so the round's cost does
# not swing with the seed
RADICAL_RANDOM_SPECS = [(2, 5, 12, 3), (3, 4, 8, 2), (2, 4, 8, 3), (3, 3, 5, 3), (2, 3, 5, 3)]
RADICAL_SMOKE_SPECS = [(2, 3, 4, 2), (3, 3, 4, 1)]


def build_radical(sl, seed: int, rnd: int, smoke: bool) -> Inputs:
    max_ring = 2**6 if smoke else RADICAL_MAX_RING
    items, expected = [], []
    for name, alg in sl["gallery"].iter_gallery_algebras(max_ring=max_ring):
        if alg.certificate is None or name in RADICAL_EXCLUDED:
            continue
        items.append((name, alg))
        expected.append([list(r) for r in alg.certificate.radical.basis_rows])
    gallery_count = len(items)
    rng = random.Random(f"radical-oracle/{seed}/{rnd}")
    specs = RADICAL_SMOKE_SPECS if smoke else RADICAL_RANDOM_SPECS
    for p, n, dim, count in specs:
        field_ = sl["gf"].field_make(p)
        for k in range(count):
            basis = random_triangular_subalgebra(rng, p, n, dim)
            mats = [sl["exactla"].Mat(field_, n, n, tuple(m)) for m in basis]
            alg = sl["algebra"].algebra_make(field_, matrix_basis=mats)
            items.append((f"random-tri-q{p}-n{n}-d{dim}-{k}", alg))
            expected.append(triangular_radical(basis, n, p))
    digest = digest_of([[name, _algebra_key(alg)] for name, alg in items])
    sizes = {"gallery_algebras": gallery_count, "random_algebras": len(items) - gallery_count,
             "elements": sum(alg.field.q ** alg.dim for _, alg in items)}
    return Inputs(items, digest, sizes, expected)


def run_radical(sl, inputs: Inputs, timer):
    def work(item):
        _name, alg = item
        return _guarded(sl, lambda: [list(r) for r in sl["algebra"].radical_bruteforce(alg).basis_rows])
    return _timed(inputs.items, timer, work)


def check_radical(inputs: Inputs, verdicts) -> list[str]:
    return [f"{name}: radical {got} != {want}"
            for (name, _), got, want in zip(inputs.items, verdicts, inputs.expected) if got != want]


# ---------------------------------------------------------------------------
# module-scan
# ---------------------------------------------------------------------------

# (scanned, faithful, minimal) per (algebra, dim) slice, in scan order: the
# criterion-8 counts.  kxy2-q2/4 (8296, 7350, 0) is left out to keep a round
# near 12 s.
MODULE_SLICES = {
    "kx2-q2/1": (1, 0, 0), "kx2-q2/2": (4, 3, 3), "kx2-q2/3": (22, 21, 0),
    "kx2-q3/1": (1, 0, 0), "kx2-q3/2": (9, 8, 8), "kx2-q3/3": (105, 104, 0),
    "kxy2-q2/1": (1, 0, 0), "kxy2-q2/2": (10, 0, 0), "kxy2-q2/3": (148, 84, 84),
    "scalar-tri2-q2/1": (1, 0, 0), "scalar-tri2-q2/2": (4, 3, 3), "scalar-tri2-q2/3": (22, 21, 0),
    "scalar-tri3-q2/1": (1, 0, 0), "scalar-tri3-q2/2": (10, 0, 0), "scalar-tri3-q2/3": (232, 84, 84),
    "kx2-q3/4": (7281, 7280, 0),
}
MODULE_SMOKE = [k for k in MODULE_SLICES if k.endswith(("/1", "/2"))]


def _criterion8_algebras(sl) -> dict:
    g, f2 = sl["gallery"], sl["gf"].field_make(2)
    return {
        "kx2-q2": g.make_twisted_truncated(2, 1, 1),
        "kx2-q3": g.make_twisted_truncated(3, 1, 1),
        "kxy2-q2": g.make_square_zero_extension(f2, 2),
        "scalar-tri2-q2": g.make_triangular(2, f2, True),
        "scalar-tri3-q2": g.make_triangular(3, f2, True),
    }


def build_modules(sl, seed: int, rnd: int, smoke: bool) -> Inputs:
    algebras = _criterion8_algebras(sl)
    slices = MODULE_SMOKE if smoke else list(MODULE_SLICES)
    items = [(key, algebras[key.split("/")[0]], int(key.split("/")[1])) for key in slices]
    digest = digest_of([[key, _algebra_key(alg)] for key, alg, _ in items])
    sizes = {"slices": len(items), "expected_candidates": sum(MODULE_SLICES[k][0] for k in slices)}
    return Inputs(items, digest, sizes)


def run_modules(sl, inputs: Inputs, timer):
    corpus, modrep = sl["corpus"], sl["modrep"]
    verdicts = []

    def one(mod):
        ok = modrep.faithful(mod)[0]
        minimal = ok and modrep.minimal_faithful(mod).minimal
        if not minimal:
            return [ok, minimal]
        report = modrep.local_socle_check(mod)
        return [ok, minimal, report.top_length, report.socle_length]

    for s_idx, (_key, alg, dim) in enumerate(inputs.items):
        stream = corpus.iter_generator_modules(alg, dim)
        while True:
            timer.start()
            mod = next(stream, None)
            if mod is None:
                break
            verdict = _guarded(sl, lambda: one(mod))
            timer.stop()
            verdicts.append([s_idx, verdict])
    return verdicts


def check_modules(inputs: Inputs, verdicts) -> list[str]:
    failures = [f"{inputs.items[s][0]} candidate: {v}" for s, v in verdicts if isinstance(v, dict)]
    for s_idx, (key, _, _) in enumerate(inputs.items):
        mine = [v for s, v in verdicts if s == s_idx and not isinstance(v, dict)]
        got = (len([1 for s, _ in verdicts if s == s_idx]),
               sum(1 for v in mine if v[0]), sum(1 for v in mine if v[1]))
        if got != MODULE_SLICES[key]:
            failures.append(f"{key}: (scanned, faithful, minimal) {got} != {MODULE_SLICES[key]}")
    return failures


# ---------------------------------------------------------------------------
# split-systems
# ---------------------------------------------------------------------------

# systems kept per field, by the dimension of the map space A (index 0 is
# dim 1).  The quotas follow the generator's own mix of dimensions (25 per
# field) restricted to A with at most 400 projective points, so the literal
# swap enumeration fits the default budget.  Fixed quotas keep a round's cost
# from swinging with the seed.
SPLIT_QUOTAS = {
    (2, 1): (2, 5, 4, 5, 2, 3, 1, 3),
    (3, 1): (2, 6, 4, 6, 2, 5),
    (2, 2): (2, 7, 6, 7, 3),
    (5, 1): (3, 8, 6, 8),
    (7, 1): (3, 8, 6, 8),
    (3, 2): (4, 12, 9),
}
SPLIT_SMOKE_QUOTAS = (1, 1)


def build_splits(sl, seed: int, rnd: int, smoke: bool) -> Inputs:
    items = []
    drawn = 0
    for (p, e), quota in SPLIT_QUOTAS.items():
        quota = list(SPLIT_SMOKE_QUOTAS if smoke else quota)
        field_ = sl["gf"].field_make(p, e)
        rng = random.Random(f"split-systems/{seed}/{rnd}/{p}^{e}")
        while any(quota):
            system = sl["corpus"].random_split_system(field_, rng)
            drawn += 1
            dim = system.a_span().dim
            if 0 < dim <= len(quota) and quota[dim - 1]:
                quota[dim - 1] -= 1
                items.append(system)
    digest = digest_of([[_field_key(s.field), [[b.n, b.mult] for b in s.s_blocks],
                         [[b.n, b.mult] for b in s.t_blocks], [list(a.entries) for a in s.a_basis]]
                        for s in items])
    return Inputs(items, digest, {"systems": len(items), "drawn": drawn})


def run_splits(sl, inputs: Inputs, timer):
    st = sl["strongness"]

    def one(system):
        rep = st.prop41_check(system)
        left = [[st.n_strong(system, "left", n, t_block=f).strong for n in (1, 2)]
                for f in range(len(system.t_blocks))]
        right = [[st.n_strong(system, "right", n, s_block=e).strong for n in (1, 2)]
                 for e in range(len(system.s_blocks))]
        return {"q": rep.field_size, "lhs": rep.lhs, "rhs": rep.rhs, "holds": rep.holds,
                "hyp": sorted(rep.hypotheses_met.items()), "left": left, "right": right}

    return _timed(inputs.items, timer, lambda system: _guarded(sl, lambda: one(system)))


def check_splits(inputs: Inputs, verdicts) -> list[str]:
    """Laws every verdict must obey: the left side of the inequality is the
    total block length, `holds` agrees with it, all hypotheses imply it
    (the proved statement), and 2-strong implies 1-strong."""
    failures = []
    for i, (system, v) in enumerate(zip(inputs.items, verdicts)):
        if "error" in v:
            failures.append(f"system {i}: {v}")
            continue
        lhs = sum(b.mult for b in system.s_blocks) + sum(b.mult for b in system.t_blocks)
        ok = (v["q"] == system.field.q and v["lhs"] == lhs and v["holds"] == (v["lhs"] <= v["rhs"])
              and (v["holds"] or not all(h for _, h in v["hyp"]))
              and all(s1 or not s2 for s1, s2 in v["left"] + v["right"]))
        if not ok:
            failures.append(f"system {i}: verdict breaks a law: {v}")
    return failures


# ---------------------------------------------------------------------------
# coverage-search
# ---------------------------------------------------------------------------

# (m, n, q) -> (subspaces examined, minimal count)
COVERAGE_CASES = {(2, 3, 2): (2825, 63), (2, 2, 7): (3652, 400)}
COVERAGE_SMOKE = {(2, 2, 2): (67, 15)}


def build_coverage(sl, seed: int, rnd: int, smoke: bool) -> Inputs:
    cases = COVERAGE_SMOKE if smoke else COVERAGE_CASES
    items = [(m, n, sl["gf"].field_make(q)) for m, n, q in cases]
    return Inputs(items, digest_of(sorted(cases)), {"searches": len(items)},
                  [cases[key] for key in cases])


def run_coverage(sl, inputs: Inputs, timer):
    def one(item):
        m, n, f = item
        res = sl["tensorcover"].search_minimal(m, n, f, threads=1)
        return {"case": [m, n, f.q], "complete": res.complete, "examined": res.examined,
                "minimal": len(res.minimal), "result": digest_of(res.to_json())}
    return _timed(inputs.items, timer, lambda item: _guarded(sl, lambda: one(item)))


def check_coverage(inputs: Inputs, verdicts) -> list[str]:
    return [f"search {v.get('case')}: {v}" for v, (examined, minimal) in zip(verdicts, inputs.expected)
            if "error" in v or not v["complete"] or (v["examined"], v["minimal"]) != (examined, minimal)]


WORKLOADS = {
    "radical-oracle": (build_radical, run_radical, check_radical),
    "module-scan": (build_modules, run_modules, check_modules),
    "split-systems": (build_splits, run_splits, check_splits),
    "coverage-search": (build_coverage, run_coverage, check_coverage),
}
