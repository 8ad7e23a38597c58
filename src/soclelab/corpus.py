"""Module and system corpora for the verification batteries.

Exhaustive side: all square-zero matrices of a given size are enumerated
constructively (image inside kernel, stratified by rank), and modules over
an algebra are assembled from candidate actions of the generators that
`Algebra.generators()` picks; the module constructor itself is the
relation filter, so no valid module is missed and no invalid one survives.
X^2 = 0 leaves Jordan blocks of size at most 2, so each rank class is one
GL_n conjugation orbit.  Conjugating a whole tuple of actions by g gives an
isomorphic module and permutes the pool, so (orbit-stabilizer) the tuples
whose first action lies in a class are class-size many conjugate copies of
those that start at its first member: a count of an isomorphism-invariant
property may scan only those, each weighted by the class size.

Random side: the same constructions sampled with a seeded generator, plus
random split bilinear systems whose hypotheses are verified before use.
"""

from __future__ import annotations

import itertools
import random

from .algebra import Algebra
from .budget import Budget
from .errors import InputError, TheoremViolation
from .exactla import (
    Mat,
    Subspace,
    enum_subspaces,
    mat_of_columns,
    mat_vec,
    unit_residuals,
    vec_combo,
)
from .gallery import criterion8_algebras, make_row_diagonal_pair
from .gf import Field
from .modrep import ModuleRep, faithful, regular_module
from .strongness import BilinearSystem, BlockSpec, SystemReport, prop41_check, tensor_maps

GENERATOR_ATTEMPTS = 400  # random actions tried per `random_generator_module`
SYSTEM_TRIES = 60  # random systems drawn per `random_verified_system`


# ---------------------------------------------------------------------------
# square-zero matrices
# ---------------------------------------------------------------------------

def _embed_through(w_sub: Subspace, g: Mat, proj: Mat) -> Mat:
    """X = (basis of W)^T . G . P, so that im X = W and ker X contains ker P."""
    return w_sub.basis_mat().transpose().mul(g.mul(proj))


def _projection(k_sub: Subspace) -> Mat:
    """The map F^n -> F^r with kernel exactly k_sub (complement coords):
    column j is the residual of the j-th unit vector (`unit_residuals`)."""
    return mat_of_columns(k_sub.field, k_sub.ambient_dim - k_sub.dim, unit_residuals(k_sub))


def _invertible_matrices(field: Field, r: int) -> list[Mat]:
    mats = (Mat._of(field, r, r, entries) for entries in itertools.product(field.elements(), repeat=r * r))
    return [g for g in mats if g.rank() == r]


def _combinations_by_image(field: Field, n: int, r: int, coeffs) -> dict[Subspace, list[dict]]:
    """Each (n - r)-dimensional K's table c -> c P (P its projection), filed
    under each r-dimensional W inside K (K's basis combined by the
    r-dimensional subspaces of F^(n-r)), in the enumeration order of the K."""
    filed: dict[Subspace, list[dict]] = {}
    coord_subs = list(enum_subspaces(field, n - r, r))
    for k_sub in enum_subspaces(field, n, n - r):
        proj_rows = _projection(k_sub).row_list()
        combos = {c: vec_combo(field, proj_rows, c) for c in coeffs}
        k_rows = list(k_sub.basis_rows)
        for coords in coord_subs:
            w_sub = Subspace.from_vectors(field, n, [vec_combo(field, k_rows, c) for c in coords.basis_rows])
            filed.setdefault(w_sub, []).append(combos)
    return filed


def square_zero_classes(field: Field, n: int) -> list[list[Mat]]:
    """Every n x n matrix X with X X = 0, one conjugacy class per rank r.  A
    rank-r X is B^T G P: B a basis of its image W, P the projection of a
    kernel containing W, G invertible.  Row i of X combines P's rows by
    (row i of B^T) G, so each X is n lookups in the tables c -> c P and
    c -> c G, listed once per kernel and per G."""
    classes = [[Mat.zero(field, n, n)]]
    for r in range(1, n // 2 + 1):
        coeffs = list(itertools.product(field.elements(), repeat=r))
        maps = [{c: vec_combo(field, g.row_list(), c) for c in coeffs} for g in _invertible_matrices(field, r)]
        combos_of = _combinations_by_image(field, n, r, coeffs)
        members = []
        for w_sub in enum_subspaces(field, n, r):
            columns = list(zip(*w_sub.basis_rows))  # the rows of B^T
            for combos in combos_of[w_sub]:
                for g_map in maps:
                    members.append(Mat._of(field, n, n, tuple(itertools.chain(*[combos[g_map[c]] for c in columns]))))
        classes.append(members)
    return classes


def square_zero_matrices(field: Field, n: int) -> list[Mat]:
    """The rank classes of `square_zero_classes`, concatenated."""
    return list(itertools.chain.from_iterable(square_zero_classes(field, n)))


def random_square_zero(field: Field, n: int, rng: random.Random) -> Mat:
    """One random square-zero matrix, constructed (not rejection-sampled)."""
    r = rng.randint(0, n // 2)
    if r == 0:
        return Mat.zero(field, n, n)
    w_sub = _random_subspace(field, n, r, rng)
    k_sub = _random_oversubspace(field, w_sub, n - r, rng)
    proj = _projection(k_sub)
    while True:
        g = Mat._of(field, r, r, tuple(rng.randrange(field.q) for _ in range(r * r)))
        if g.rank() == r:
            break
    return _embed_through(w_sub, g, proj)


def _random_subspace(field: Field, n: int, dim: int, rng: random.Random) -> Subspace:
    while True:
        vectors = [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)]
        sub = Subspace.from_vectors(field, n, vectors)
        if sub.dim == dim:
            return sub


def _random_oversubspace(field: Field, inner: Subspace, dim: int, rng: random.Random) -> Subspace:
    n = inner.ambient_dim
    while True:
        extra = [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim - inner.dim)]
        sub = Subspace.from_vectors(field, n, list(inner.basis_rows) + extra)
        if sub.dim == dim:
            return sub


# ---------------------------------------------------------------------------
# modules from generator actions
# ---------------------------------------------------------------------------

class ModuleAssembler:
    """Assemble modules over a fixed algebra from actions of its generators
    (`Algebra.generators()`).

    The word structure (which products of generators to take, and how each
    basis element combines them) and the pairs of distinct generators whose
    product vanishes are computed once; assembling a candidate is then a
    zero test per such pair (`Mat.mul_is_zero`, no product built), a handful
    of matrix products and the constructor's relation check.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        gens = algebra.generators()
        # each word after 1: (parent index into the word list, generator position)
        self.word_recipe, tracker = algebra.words(gens)
        self.basis_combos = [tracker.express(algebra.basis_coords(t)) for t in range(algebra.dim)]
        self.zero_pairs = [(a_pos, b_pos) for a_pos, ga in enumerate(gens) for b_pos, gb in enumerate(gens)
                           if a_pos != b_pos and not any(algebra.mult[ga][gb])]

    def assemble(self, gen_mats) -> ModuleRep | None:
        """The module with these generator actions, or None when they break
        a relation; a pair that vanishes in the algebra but not as matrices
        is rejected before any word is built."""
        for a_pos, b_pos in self.zero_pairs:
            if not gen_mats[a_pos].mul_is_zero(gen_mats[b_pos]):
                return None
        field = self.algebra.field
        dim = gen_mats[0].rows if gen_mats else 0
        word_mats = [Mat.identity(field, dim)]
        for parent, g_pos in self.word_recipe:
            # word 0 is the empty word, so its one-letter children are the generators
            gen = gen_mats[g_pos]
            word_mats.append(gen if parent == 0 else word_mats[parent].mul(gen))
        actions = tuple(mat_vec(word_mats, combo) for combo in self.basis_combos)
        try:
            return ModuleRep(self.algebra, dim, actions)
        except InputError:
            return None


def _generator_modules(algebra: Algebra, dim: int, per_class: bool):
    """(weight, module) from square-zero generator actions, in
    `itertools.product` order over the pool; with per_class the first
    generator takes each rank class's first member, weighted by its size.
    Complete for algebras whose generators square to zero (checked)."""
    gens = algebra.generators()
    if not gens:
        raise InputError("algebra has no generators: its only modules are scalar")
    if any(any(algebra.mult[g][g]) for g in gens):
        raise InputError("generator does not square to zero: candidate pool would be incomplete")
    assembler = ModuleAssembler(algebra)
    classes = square_zero_classes(algebra.field, dim)
    pool = list(itertools.chain.from_iterable(classes))
    heads = [(len(members), members[0]) for members in classes] if per_class else zip(itertools.repeat(1), pool)
    for weight, head in heads:
        for tail in itertools.product(pool, repeat=len(gens) - 1):
            mod = assembler.assemble((head, *tail))
            if mod is not None:
                yield weight, mod


def iter_generator_modules(algebra: Algebra, dim: int):
    """The modules of this dimension assembled from square-zero actions of
    `Algebra.generators()`, one per candidate tuple."""
    for _weight, mod in _generator_modules(algebra, dim, per_class=False):
        yield mod


def iter_weighted_generator_modules(algebra: Algebra, dim: int):
    """(weight, module) pairs whose weighted count of any isomorphism-invariant
    property is its count over `iter_generator_modules` (module docstring)."""
    return _generator_modules(algebra, dim, per_class=True)


def random_generator_module(assembler: ModuleAssembler, dim: int, rng: random.Random) -> ModuleRep | None:
    """The first module assembled from random square-zero generator actions,
    or None after GENERATOR_ATTEMPTS attempts."""
    field = assembler.algebra.field
    for _ in range(GENERATOR_ATTEMPTS):
        mod = assembler.assemble([random_square_zero(field, dim, rng) for _ in assembler.algebra.generators()])
        if mod is not None:
            return mod
    return None


def faithful_corpus(rng: random.Random, min_count: int = 200) -> list[tuple[str, ModuleRep]]:
    """At least min_count faithful modules: gallery fixtures plus seeded
    random modules over the small local algebras."""
    out: list[tuple[str, ModuleRep]] = []
    algebras = criterion8_algebras()
    for name, alg in algebras:
        reg = regular_module(alg)
        out.append((f"{name}-regular", reg))
        out.append((f"{name}-regular-square", reg.direct_sum(reg)))
    ring, module = make_row_diagonal_pair()
    out.append(("row-diagonal-module", module))
    out.append(("row-diagonal-regular", regular_module(ring)))

    assemblers = [(name, ModuleAssembler(alg)) for name, alg in algebras]
    per_round = [(name, assembler, dim) for name, assembler in assemblers for dim in (3, 4, 5)]
    round_no = 0
    while len(out) < min_count:
        round_no += 1
        for name, assembler, dim in per_round:
            mod = random_generator_module(assembler, dim, rng)
            if mod is None:
                continue
            ok, _ = faithful(mod)
            if ok:
                out.append((f"{name}-random-d{dim}-r{round_no}", mod))
            if len(out) >= min_count:
                break
        if round_no > 400:
            raise TheoremViolation("corpus generation failed to reach the requested count")
    return out


# ---------------------------------------------------------------------------
# random verified split systems
# ---------------------------------------------------------------------------

def random_split_system(field: Field, rng: random.Random) -> BilinearSystem:
    """One random split system with full or near-full edge bimodules over a
    random support pattern covering every block."""
    s_blocks = tuple(BlockSpec(rng.choice((1, 1, 2)), rng.choice((1, 1, 2))) for _ in range(rng.choice((1, 2))))
    t_blocks = tuple(BlockSpec(rng.choice((1, 1, 2)), rng.choice((1, 1, 2))) for _ in range(rng.choice((1, 2))))
    skeleton = BilinearSystem(field, s_blocks, t_blocks, (), _skip_verify=True)  # the layout only
    edges = set()
    for e in range(len(s_blocks)):
        edges.add((rng.randrange(len(t_blocks)), e))
    for f in range(len(t_blocks)):
        edges.add((f, rng.randrange(len(s_blocks))))
    if rng.random() < 0.5:
        edges.add((rng.randrange(len(t_blocks)), rng.randrange(len(s_blocks))))
    a_mats = []
    for f, e in sorted(edges):
        s_mult, t_mult = s_blocks[e].mult, t_blocks[f].mult
        hom_dim = s_mult * t_mult
        u_dim = hom_dim if rng.random() < 0.6 else max(1, hom_dim - 1)
        u_rows = _random_subspace(field, t_mult * s_mult, u_dim, rng).basis_rows
        a_mats.extend(tensor_maps(skeleton, f, e, u_rows))
    # closure under the block actions holds by construction (U tensor Matr)
    return BilinearSystem(field, s_blocks, t_blocks, tuple(a_mats), _skip_verify=True)


def random_verified_system(field: Field, rng: random.Random) -> tuple[BilinearSystem, SystemReport] | None:
    """A random split system whose hypotheses all verify: nondegeneracy, both
    coverage conditions, and the cardinality condition; the swap condition
    holds by the proved implication from the split block structure (under
    the cap of 1 its tuple scan runs only when there is one corner tuple)."""
    check_budget = Budget(max_enumeration=1)
    for _ in range(SYSTEM_TRIES):
        sys = random_split_system(field, rng)
        report = prop41_check(sys, check_budget)
        if all(report.hypotheses_met.values()):
            return sys, report
    return None
