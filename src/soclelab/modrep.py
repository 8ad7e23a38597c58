"""Left modules over a verified algebra, as explicit action matrices.

A ModuleRep stores one dim x dim matrix per algebra basis element; the
defining relations (bilinearity against the structure constants, identity
acting as identity) are checked at construction, and a rejection names the
first failing basis pair.  A basis element's action is read, not combined
(`mat_vec` returns a unit vector's matrix as it is), and a relation whose
target is 0 is a zero test of the product that never builds it
(`Mat.mul_is_zero`).  Relations and invariance are
checked on the algebra's generators only (`Algebra.generators`): for a
linear map rho: A -> End(M) with rho(1) = I, the elements a with
rho(a y) = rho(a) rho(y) for all y form a unital subalgebra, and so do the
elements a with rho(a) W inside W for a fixed subspace W.  Each is therefore
all of A once it holds the generators.

The submodule lattice is driven blockwise through a split certificate:
maximal submodules of M are preimages of hyperplanes of the block
multiplicity spaces of M/JM (for a top that is one identity block, that
space is F^t, t = dim M/JM, the shared `Subspace.full`, and its hyperplanes
are the shared `full_hyperplanes`), and simple submodules of soc(M) come
from projective points of the multiplicity spaces of the socle.  The same
decomposition gives every length: `semisimple_length` of a top M/JM or a
socle is the sum of its blocks' multiplicity dimensions, and `top_socle`,
the shrink checks and both bounds read lengths through it.  Faithfulness
is upward monotone, so minimality checks only need maximal submodules and
simple quotient kernels.

A ModuleRep keeps JM, its top M/JM (`top`, the QuotientData of JM), soc(M)
and its annihilator once computed, and a budget stop keeps nothing: every
bound, both minimality tests, the induced system and the shrinks read them.

Both minimality tests read only how the two-sided socle soc2 = soc(R) acts:
every nonzero two-sided ideal, an annihilator among them, meets soc2, and
soc2 kills JM, so it acts through maps M/JM -> soc(M).  `minimal_faithful`
checks faithfulness and returns a `MinimalityReport`, which decides each
side on its first read by `_kills`, the rank-drop test that `strongness`
runs on a system's corners: the quotient side asks it of soc2's transposed
maps.

The shrinks descend along `minimal_faithful`'s witnesses: `shrink_submodule`
steps to a faithful maximal submodule, and `shrink_quotient` to a faithful
M/L with L simple, until there is none.  Faithfulness is upward monotone, so
the result has no faithful proper submodule (or quotient), and the theorem
bounds its top (or socle) length by the bimodule length of soc(R).  Every
output is re-verified against that bound; a failure raises TheoremViolation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

from .algebra import Algebra, Block, bimodule_length, socle_graph, socle_is_central, socles
from .budget import DEFAULT_BUDGET, Budget
from .errors import InputError, NotSplitError, PreconditionError, TheoremViolation, decoding, json_keys
from .exactla import (
    Mat,
    SpanTracker,
    Subspace,
    enum_coeff_points,
    enum_hyperplanes,
    free_positions,
    full_hyperplanes,
    kernel,
    mat_of_columns,
    mat_of_rows,
    mat_vec,
    num_projective_points,
    row_rank,
    transposed,
    vec_combo,
)
from .strongness import BilinearSystem, BlockSpec, _kills, prop41_check


class ModuleRep:
    """A left module given by action matrices, one per algebra basis element."""

    def __init__(self, algebra: Algebra, dim: int, action: tuple[Mat, ...], _skip_verify: bool = False):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._radical_image_cache: Subspace | None = None
        self._annihilator_cache: Subspace | None = None
        self._top_cache: QuotientData | None = None
        self._socle_cache: Subspace | None = None
        if len(self.action) != algebra.dim:
            raise InputError("need one action matrix per algebra basis element")
        for mat in self.action:  # `is` first: dataclass equality builds tuples
            if mat.rows != dim or mat.cols != dim or (mat.field is not algebra.field and mat.field != algebra.field):
                raise InputError("action matrix shape or field mismatch")
        if not _skip_verify:
            self._verify()

    @property
    def field(self):
        return self.algebra.field

    def act_mat(self, coords) -> Mat:
        return mat_vec(self.action, coords)

    def _verify(self):
        """rho(1) = I, and rho(g) rho(b_j) = rho(g b_j) for every generator g
        of the algebra and every basis element b_j.  That is enough: the a
        with rho(a y) = rho(a) rho(y) for all y are a subspace holding 1, and
        if a and b are among them, so is ab, since by associativity
        rho(ab y) = rho(a) rho(b y) = rho(a) rho(b) rho(y) = rho(ab) rho(y).
        A unital subalgebra that holds the generators is all of A.  A basis
        element b_j = 1 is skipped: rho(g) rho(1) = rho(g) once rho(1) = I.
        When a generator pair fails, every basis pair is scanned in order, so
        the error names the first failing pair (i, j)."""
        alg = self.algebra
        if self.act_mat(alg.one) != Mat.identity(self.field, self.dim):
            raise InputError("identity element does not act as the identity")
        if all(self._relation_holds(g, j) for g in alg.generators() for j in alg.non_identity_basis):
            return
        for i in range(alg.dim):
            for j in range(alg.dim):
                if not self._relation_holds(i, j):
                    raise InputError(f"action violates the structure constants at basis pair ({i}, {j})")
        raise TheoremViolation("a generator pair failed but no basis pair does")

    def _relation_holds(self, i: int, j: int) -> bool:
        """rho(b_i) rho(b_j) = rho(b_i b_j).  A zero target is a zero test of
        the product (`Mat.mul_is_zero`), which never builds it."""
        left, right, target = self.action[i], self.action[j], self.algebra.mult[i][j]
        return left.mul(right) == self.act_mat(target) if any(target) else left.mul_is_zero(right)

    def direct_sum(self, other: "ModuleRep") -> "ModuleRep":
        if other.algebra is not self.algebra and other.algebra.to_json() != self.algebra.to_json():
            raise InputError("direct sum needs modules over the same algebra")
        n1, n2 = self.dim, other.dim
        mats = []
        for a, b in zip(self.action, other.action):
            entries = []
            for i in range(n1):
                entries.extend(list(a.row(i)) + [0] * n2)
            for i in range(n2):
                entries.extend([0] * n1 + list(b.row(i)))
            mats.append(Mat._of(self.field, n1 + n2, n1 + n2, tuple(entries)))
        return ModuleRep(self.algebra, n1 + n2, tuple(mats), _skip_verify=True)

    def to_json(self, inline_algebra: bool = True) -> dict:
        out = {"dim": self.dim, "action": [m.to_json() for m in self.action]}
        if inline_algebra:
            out["algebra"] = self.algebra.to_json()
        return out

    @staticmethod
    def from_json(data: dict, algebra: Algebra | None = None) -> "ModuleRep":
        if not isinstance(data, dict):
            raise InputError("module JSON must be an object")
        with decoding("module", data):
            json_keys(data, ("dim", "action", "algebra", "algebra_ref"))
            if "algebra" in data and "algebra_ref" in data:
                raise ValueError("give one of 'algebra' and 'algebra_ref', not both")
        dim, action = data.get("dim"), data.get("action")
        if type(dim) is not int or dim < 0:
            raise InputError(f"module JSON needs a nonnegative integer dim, got {dim!r}")
        if not isinstance(action, list):
            raise InputError("module JSON needs an action list, one matrix per algebra basis element")
        if algebra is None:
            if "algebra" not in data:
                raise InputError("module JSON needs an inline algebra or a resolved algebra_ref")
            algebra = Algebra.from_json(data["algebra"])
        return ModuleRep(algebra, dim, tuple(Mat.from_json(mj, algebra.field) for mj in action))


def regular_module(algebra: Algebra) -> ModuleRep:
    """The algebra acting on itself by left multiplication."""
    return ModuleRep(algebra, algebra.dim, algebra.left_mats, _skip_verify=True)


# ---------------------------------------------------------------------------
# faithfulness
# ---------------------------------------------------------------------------

def annihilator(m: ModuleRep) -> Subspace:
    """Kernel of the algebra's map into endomorphisms, in algebra coordinates;
    computed once per module and then kept."""
    if m._annihilator_cache is None:
        m._annihilator_cache = _annihilator(m)
    return m._annihilator_cache


def _annihilator(m: ModuleRep) -> Subspace:
    flats = [mat.entries for mat in m.action]
    # the basis acts independently exactly when the annihilator is zero
    if row_rank(flats, m.dim * m.dim, m.field) == m.algebra.dim:
        return Subspace.zero(m.field, m.algebra.dim)
    # column i is the flattened action of basis element i
    return kernel(mat_of_columns(m.field, m.dim * m.dim, flats))


def faithful(m: ModuleRep) -> tuple[bool, Subspace]:
    ann = annihilator(m)
    return ann.dim == 0, ann


# ---------------------------------------------------------------------------
# submodules and quotients
# ---------------------------------------------------------------------------

def _check_invariant(m: ModuleRep, sub: Subspace):
    """PreconditionError unless the algebra's generators keep sub, and then
    every element does (see the module docstring).  Each generator's columns
    are sliced once, and g v is their `vec_combo` by v, as `Mat.apply` takes it."""
    for mat in (m.action[g] for g in m.algebra.generators()):
        columns = [mat.col(j) for j in range(m.dim)]
        for v in sub.basis_rows:
            if not sub.contains_vector(vec_combo(m.field, columns, v)):
                raise PreconditionError("subspace is not action-invariant")


def restrict_action(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """The submodule as a module in its own right, in the canonical basis."""
    _check_invariant(m, sub)
    mats = [
        mat_of_columns(m.field, sub.dim, [sub.coordinates_of(mat.apply(v)) for v in sub.basis_rows])
        for mat in m.action
    ]
    return ModuleRep(m.algebra, sub.dim, tuple(mats), _skip_verify=True)


class QuotientData:
    """The quotient module M/sub in complement coordinates: quotient vector
    j lifts to the unit vector at free_positions[j].  Its module `rep` is
    built on first read.  `algebra`, `field`, `dim` and `act_mat` let
    `block_decomposition` read the quotient as a module, so a block that
    acts as the identity never builds it."""

    def __init__(self, m: ModuleRep, sub: Subspace):
        self.module = m
        self.sub = sub
        self.free_positions = free_positions(m.dim, sub.pivots)
        self.algebra = m.algebra
        self.field = m.field
        self.dim = len(self.free_positions)
        self._rep: ModuleRep | None = None

    @property
    def rep(self) -> ModuleRep:
        if self._rep is None:
            free = self.free_positions
            mats = [mat_of_columns(self.field, self.dim, [self.project(mat.col(k)) for k in free])
                    for mat in self.module.action]
            self._rep = ModuleRep(self.algebra, self.dim, tuple(mats), _skip_verify=True)
        return self._rep

    def act_mat(self, coords) -> Mat:
        return self.rep.act_mat(coords)

    def project(self, vec) -> tuple:
        red = self.sub.reduce(vec)
        return tuple(red[k] for k in self.free_positions)

    def lift(self, qvec) -> tuple:
        out = [0] * self.sub.ambient_dim
        for k, v in zip(self.free_positions, qvec):
            out[k] = v
        return tuple(out)


def quotient_action(m: ModuleRep, sub: Subspace) -> QuotientData:
    """The quotient module M/sub in complement coordinates; sub must be
    invariant."""
    _check_invariant(m, sub)
    return QuotientData(m, sub)


def radical_image(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> Subspace:
    """JM: the span of the radical's action images, computed once per module
    and then kept.  The columns are the package's own action columns, so
    they are reduced by one `rref_rows` call with no re-validation
    (`Subspace._span`)."""
    if m._radical_image_cache is None:
        J = m.algebra.radical(budget)
        columns = [jmat.col(k) for jmat in (m.act_mat(j) for j in J.basis_rows) for k in range(m.dim)]
        m._radical_image_cache = Subspace._span(m.field, m.dim, columns)
    return m._radical_image_cache


def top(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> QuotientData:
    """M/JM as the QuotientData of JM, computed once per module and then kept;
    a non-split algebra raises NotSplitError before any radical work.  The
    cache is set only after `blocks()` has passed, so it is read first."""
    if m._top_cache is None:
        m.algebra.blocks()
        m._top_cache = quotient_action(m, radical_image(m, budget))
    return m._top_cache


def socle_subspace(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> Subspace:
    """{v : J v = 0} (all of M when J = 0); equals the sum of the simple
    submodules since J is nilpotent.  Computed once per module and then kept."""
    if m._socle_cache is None:
        rows = [row for j in m.algebra.radical(budget).basis_rows for row in m.act_mat(j).row_list()]
        m._socle_cache = kernel(mat_of_rows(m.field, m.dim, rows))
    return m._socle_cache


# ---------------------------------------------------------------------------
# submodule lattice, blockwise
# ---------------------------------------------------------------------------

class BlockPart:
    """Block f of a module over R/J(R): the multiplicity space E_f,00 W of a
    subspace W, and the module actions of the matrix units E_f,ij, each
    computed on first use and then kept.

    W (the whole module when it is not given) must be killed by J: a top
    M/JM or a socle.  When R/J is F itself (the certificate is local),
    `identity` is set: the certificate checks that E_0,00 is 1 modulo J, so
    it acts on W as the identity.  Then mult is W itself and summand(u) is
    [u], and no image is taken, nor any action read: for a top given as its
    QuotientData, the quotient's action matrices are never built."""

    def __init__(self, rep: ModuleRep | QuotientData, f: int, block: Block, sub: Subspace | None):
        self.f = f
        self.n = block.n
        self.identity = rep.algebra.certificate.local
        self._rep = rep
        self._block = block
        self._units: dict[tuple[int, int], Mat] = {}
        w = Subspace.full(rep.field, rep.dim) if sub is None else sub
        if self.identity:
            self.mult = w
        else:
            e00 = self.unit(0, 0)
            self.mult = Subspace.from_vectors(rep.field, rep.dim, [e00.apply(v) for v in w.basis_rows])

    def unit(self, i: int, j: int) -> Mat:
        mat = self._units.get((i, j))
        if mat is None:
            mat = self._units[(i, j)] = self._rep.act_mat(self._block.unit(i, j))
        return mat

    def summand(self, u) -> list[tuple]:
        """The vectors E_f,i0 u (i < n), spanning the simple summand that a
        vector u of the multiplicity space generates."""
        if self.identity:
            return [tuple(u)]
        return [self.unit(i, 0).apply(u) for i in range(self.n)]


def block_decomposition(rep: ModuleRep | QuotientData, sub: Subspace | None = None):
    """Yield one BlockPart per block of the split quotient, for W = sub, or
    for the whole module when sub is None.  W must be killed by J: every
    caller passes a top or a socle.  Blocks are built lazily, so a caller
    that stops early does no work for the later blocks."""
    for f, block in enumerate(rep.algebra.blocks()):
        yield BlockPart(rep, f, block, sub)


def semisimple_length(rep: ModuleRep | QuotientData, sub: Subspace | None = None) -> int:
    """Length of W = sub (the whole module when sub is None), which must be
    killed by J: the sum over blocks of dim E_f,00 W.  Each block's part
    e_f W is n_f copies of its multiplicity space, so the parts must fill
    W; if they do not, the certificate is corrupt."""
    parts = list(block_decomposition(rep, sub))
    if sum(part.n * part.mult.dim for part in parts) != (rep.dim if sub is None else sub.dim):
        raise TheoremViolation("block projections do not decompose the module")
    return sum(part.mult.dim for part in parts)


@dataclass
class TopSocle:
    top_length: int
    socle_length: int


def top_socle(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> TopSocle:
    """Lengths of M/JM and soc(M) over the split semisimple quotient, read
    from the kept top and socle."""
    return TopSocle(semisimple_length(top(m, budget)), semisimple_length(m, socle_subspace(m, budget)))


def _maximal_tops(qd: QuotientData, budget: Budget):
    """Yield (f, H, W/JM) for every maximal submodule W of M, where qd is
    M/JM and W/JM is a subspace of it.

    Maximal submodules contain JM and correspond to block-multiplicity
    hyperplanes H of the top: W/JM = {y : E_f,0i y in H for every i}, which
    is H itself when the block acts as the identity.  Each block's
    hyperplane count is charged to the budget, as a running total, before
    that block is scanned.  An identity block's multiplicity space is F^t
    itself, so its hyperplanes are `full_hyperplanes`, shared up to a bound."""
    charged = 0
    for part in block_decomposition(qd):
        if part.mult.dim == 0:
            continue
        count = num_projective_points(part.mult.dim, qd.field.q)
        charged += count
        budget.guard("maximal-submodule hyperplane enumeration", charged)
        if part.identity:
            for hyper in full_hyperplanes(qd.field, part.mult.dim):
                yield part.f, hyper, hyper
            continue
        extractors = [part.unit(0, i) for i in range(part.n)]
        for hyper in enum_hyperplanes(part.mult):
            # column j stacks, over the extractors, the residual of its column j mod hyper
            columns = [
                tuple(itertools.chain.from_iterable(hyper.reduce(ext.col(j)) for ext in extractors))
                for j in range(qd.dim)
            ]
            yield part.f, hyper, kernel(mat_of_columns(qd.field, part.n * qd.dim, columns))


def _preimage(qd: QuotientData, w: Subspace) -> Subspace:
    """The subspace W of M with W/sub = w, where qd is M/sub."""
    vectors = list(qd.sub.basis_rows) + [qd.lift(y) for y in w.basis_rows]
    return Subspace.from_vectors(qd.field, qd.sub.ambient_dim, vectors)


def maximal_submodules(m: ModuleRep, budget: Budget = DEFAULT_BUDGET):
    """Yield every maximal submodule of M as (f, H, subspace of M); see
    `_maximal_tops`."""
    qd = top(m, budget)
    for f, hyper, w_top in _maximal_tops(qd, budget):
        yield f, hyper, _preimage(qd, w_top)


def simple_socle_submodules(m: ModuleRep, budget: Budget = DEFAULT_BUDGET):
    """Yield every simple submodule of soc(M), blockwise, as (f, generator,
    subspace of M).  Each block's point count is charged to the budget, as
    a running total, before that block is scanned."""
    m.algebra.blocks()  # NotSplitError before any radical work
    soc = socle_subspace(m, budget)
    charged = 0
    for part in block_decomposition(m, soc):
        if part.mult.dim == 0:
            continue
        charged += num_projective_points(part.mult.dim, m.field.q)
        budget.guard("simple-socle point enumeration", charged)
        for coeffs in enum_coeff_points(m.field, part.mult.dim):
            u = vec_combo(m.field, list(part.mult.basis_rows), coeffs)
            yield part.f, u, Subspace.from_vectors(m.field, m.dim, part.summand(u))


class MinimalityReport:
    """Both minimality properties of a faithful module.  The report takes
    M/JM and soc2's maps on it when made, and decides each side on its first
    read and keeps it; a budget stop keeps nothing, so it surfaces at the
    read that ran the scan, and again at the next.  `minimal` reads the
    submodule side first.  A boolean read builds no submodule: W itself is
    built only for `submodule_witness`.

    Both tests read only the two-sided socle soc2 = soc(R).  ann(W) and
    ann(M/L) are two-sided ideals, and a nonzero two-sided ideal I meets
    soc2: if J^k I != 0 = J^(k+1) I, then J^k I lies in I and is killed by J
    on the left; repeat on the right.  So W (or M/L) is faithful iff no
    nonzero element of soc2 kills it.  An element t of soc2 has tJ = 0, so it
    kills JM, and it acts through its columns at the free positions of JM,
    that is, on M/JM; M is faithful, so these maps are independent.  W is
    faithful iff no nonzero combination of them kills W/JM (`_kills`; for a
    one-dimensional soc2, a zero test of the one map's image), and M/L is
    faithful iff none has all its columns in L, that is, iff no nonzero
    combination of their transposes kills L^perp (`_kills` again).  The
    maps are read once, as flat row-major tuples of each action's entries
    at the top's free positions; no matrix is built.  W/JM comes from the
    top alone (it is the hyperplane itself when R/J is F; see `BlockPart`)."""

    def __init__(self, m: ModuleRep, budget: Budget):
        self.module, self._budget, self._top = m, budget, top(m, budget)
        # soc2's maps M/JM -> M, row-major dim M x dim M/JM: each action's
        # entries at the top's free positions, read as flat tuples
        positions = _entry_positions(m.dim, self._top.free_positions)
        self._soc_maps = [tuple([a.entries[p] for p in positions])
                          for a in map(m.act_mat, socles(m.algebra, budget).twosided.basis_rows)]

    @functools.cached_property
    def _faithful_top(self) -> Subspace | None:
        """W/JM for the first faithful maximal submodule W, or None."""
        qd = self._top
        return next((w_top for _f, _h, w_top in _maximal_tops(qd, self._budget)
                     if not _kills(qd.field, self._soc_maps, qd.dim, w_top.basis_rows)), None)

    @property
    def no_faithful_max_submodule(self) -> bool:
        return self._faithful_top is None

    @functools.cached_property
    def submodule_witness(self) -> Subspace | None:
        return None if self._faithful_top is None else _preimage(self._top, self._faithful_top)

    @functools.cached_property
    def quotient_witness(self) -> Subspace | None:
        """The first simple L in soc(M) with M/L faithful, or None."""
        m, maps = self.module, [transposed(x, self._top.dim) for x in self._soc_maps]
        return next((l_sub for _f, _u, l_sub in simple_socle_submodules(m, self._budget)
                     if not _kills(m.field, maps, m.dim, kernel(l_sub.basis_mat()).basis_rows)), None)

    @property
    def no_faithful_simple_quotient(self) -> bool:
        return self.quotient_witness is None

    @property
    def minimal(self) -> bool:
        return self.no_faithful_max_submodule and self.no_faithful_simple_quotient


# the row-major entries of a dim x dim matrix in the given columns, one table per shape
@functools.lru_cache(maxsize=None)
def _entry_positions(dim: int, columns: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * dim + k for i in range(dim) for k in columns)


def minimal_faithful(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> MinimalityReport:
    """Both minimality properties of a faithful module, each decided on its
    first read (see `MinimalityReport`) under the given budget.

    Faithfulness is upward monotone, so no proper faithful submodule exists
    iff no maximal one is faithful, and dually a faithful proper quotient
    exists iff M/L is faithful for some simple L in the socle."""
    if not faithful(m)[0]:
        raise PreconditionError("minimality is only defined for faithful modules")
    return MinimalityReport(m, budget)


# ---------------------------------------------------------------------------
# the two inequalities
# ---------------------------------------------------------------------------

@dataclass
class ModuleReport:
    faithful: bool
    annihilator_dim: int
    top_length: int | None = None
    socle_length: int | None = None
    no_faithful_max_submodule: bool | None = None
    no_faithful_simple_quotient: bool | None = None
    inequality: dict | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return asdict(self)


def _minimal_lengths(m: ModuleRep, budget: Budget) -> TopSocle:
    """The preconditions both bounds share, faithful and then both
    minimality properties, and the lengths they compare."""
    if not faithful(m)[0]:
        raise PreconditionError("module is not faithful")
    if not minimal_faithful(m, budget).minimal:
        raise PreconditionError("module is not minimal (a proper faithful submodule or quotient exists)")
    return top_socle(m, budget)


def _minimal_report(ts: TopSocle, inequality: dict, notes: tuple[str, ...] = ()) -> ModuleReport:
    return ModuleReport(
        faithful=True,
        annihilator_dim=0,
        top_length=ts.top_length,
        socle_length=ts.socle_length,
        no_faithful_max_submodule=True,
        no_faithful_simple_quotient=True,
        inequality=inequality,
        notes=notes,
    )


def _local_inequality(m: ModuleRep, ts: TopSocle, budget: Budget) -> dict:
    """top_length + socle_length <= dim soc(R) + 1 for a minimal faithful
    module over a split local algebra with central socle; a failure is a
    TheoremViolation."""
    soc_dim = socles(m.algebra, budget).twosided.dim
    lhs = ts.top_length + ts.socle_length
    rhs = soc_dim + 1
    if lhs > rhs:
        raise TheoremViolation(f"local socle bound failed: {ts.top_length}+{ts.socle_length} > {soc_dim}+1")
    return {"kind": "local", "lhs": lhs, "rhs": rhs, "holds": True, "socle_dim": soc_dim}


def local_socle_check(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleReport:
    """The local bound: over a local algebra with central socle, a faithful
    module with both minimality properties satisfies
    top_length + socle_length <= dim soc(R) + 1.

    The statement carries no field-size hypothesis, so a verified instance
    violating it is an implementation bug (TheoremViolation)."""
    m.algebra.blocks()  # NotSplitError when absent
    if not m.algebra.certificate.local:
        raise PreconditionError("operation requires a local algebra (single block of size one)")
    if not socle_is_central(m.algebra, budget):
        raise PreconditionError("socle of the algebra is not central")
    ts = _minimal_lengths(m, budget)
    return _minimal_report(ts, _local_inequality(m, ts, budget))


def system_from_module(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> BilinearSystem:
    """The induced system: soc(R) acting from M/JM into soc(M), written in
    block-standard coordinates via adapted bases on both sides.  The top is
    read through its kept QuotientData, and soc(M) blockwise in M's own
    coordinates, so the socle gets no module of its own."""
    qd = top(m, budget)  # NotSplitError before any radical work
    soc_r = socles(m.algebra, budget).twosided
    soc_m = socle_subspace(m, budget)

    def adapted(rep: ModuleRep | QuotientData, sub: Subspace | None, dim: int):
        """(block specs, adapted basis columns, a SpanTracker over them)."""
        specs, columns = [], []
        for part in block_decomposition(rep, sub):
            specs.append(BlockSpec(part.n, part.mult.dim))
            for u in part.mult.basis_rows:
                columns.extend(part.summand(u))
        basis = SpanTracker(rep.field, rep.dim, len(columns))
        if len(columns) != dim or not all(basis.add(c) for c in columns):
            raise TheoremViolation("adapted block basis failed to decompose the module")
        return tuple(specs), columns, basis

    s_blocks, b_columns, _ = adapted(qd, None, qd.dim)
    # change of basis: module coordinates -> standard layout, by the socle's tracker
    t_blocks, c_columns, c_basis = adapted(m, soc_m, soc_m.dim)
    a_mats = []
    for a in soc_r.basis_rows:
        act = m.act_mat(a)
        cols = [c_basis.express(act.apply(qd.lift(b))) for b in b_columns]
        if None in cols:
            raise TheoremViolation("socle image left the adapted socle basis span")
        a_mats.append(mat_of_columns(m.field, len(c_columns), cols))
    return BilinearSystem(m.field, s_blocks, t_blocks, tuple(a_mats))


def _graph_inequality(m: ModuleRep, ts: TopSocle, budget: Budget) -> tuple[dict, tuple[str, ...]]:
    """top_length + socle_length <= lt(soc R) + chi(G) for a minimal
    faithful module, as the report of its induced system, whose lt_b, lt_c
    and graph must be the module's top and socle lengths and the algebra's
    socle graph (a TheoremViolation otherwise); when the inequality fails,
    a note names the unmet hypotheses."""
    graph = socle_graph(m.algebra, budget)
    report = prop41_check(system_from_module(m, budget), budget)
    if (report.lt_b, report.lt_c, report.graph) != (ts.top_length, ts.socle_length, graph):
        raise TheoremViolation("induced system disagrees with the module's lengths or the algebra's socle graph")
    notes = ()
    if not report.holds:
        failed = [k for k, v in report.hypotheses_met.items() if not v]
        notes = (
            "inequality fails over F_%d; unmet hypotheses: %s (the proved statement assumes an infinite field)"
            % (m.field.q, ", ".join(failed) if failed else "none"),
        )
    return {"kind": "socle_graph", **report.to_json()}, notes


def graph_socle_check(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleReport:
    """The block-graph bound: for a faithful module with both minimality
    properties over a split-certified algebra,
    top_length + socle_length <= bimodule length of soc(R) + chi(G).

    Over a finite field the proved statement's field-size hypothesis fails,
    so holds = False is a legitimate outcome; the inequality, the induced
    system's report, records which hypotheses were actually met."""
    m.algebra.blocks()  # raises NotSplitError when absent
    ts = _minimal_lengths(m, budget)
    return _minimal_report(ts, *_graph_inequality(m, ts, budget))


def module_report(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleReport:
    """Best-effort report for the CLI: fills whatever applies, never raises
    for unmet preconditions (they become notes).  The lengths, faithfulness
    and minimality are each computed once and shared with the bound."""
    ok, ann = faithful(m)
    report = ModuleReport(faithful=ok, annihilator_dim=ann.dim)
    notes = []
    try:
        blocks = m.algebra.blocks()
    except NotSplitError:
        blocks = None
        notes.append("algebra is not split-certified: lengths and minimality unavailable")
    if blocks is not None:
        ts = top_socle(m, budget)
        report.top_length, report.socle_length = ts.top_length, ts.socle_length
        if ok:
            minimality = minimal_faithful(m, budget)
            report.no_faithful_max_submodule = minimality.no_faithful_max_submodule
            report.no_faithful_simple_quotient = minimality.no_faithful_simple_quotient
            if not minimality.minimal:
                notes.append("module is not minimal: no inequality asserted")
            elif m.algebra.certificate.local and socle_is_central(m.algebra, budget):
                report.inequality = _local_inequality(m, ts, budget)
            else:
                report.inequality, graph_notes = _graph_inequality(m, ts, budget)
                notes.extend(graph_notes)
        else:
            notes.append("module is not faithful: minimality and bounds not applicable")
    report.notes = tuple(notes)
    return report


# ---------------------------------------------------------------------------
# shrinking constructions
# ---------------------------------------------------------------------------

def shrink_bound(m: ModuleRep, budget: Budget) -> int:
    """The bimodule length of soc(R), the bound every shrink meets, for a
    module that must be faithful."""
    if not faithful(m)[0]:
        raise PreconditionError("shrinking needs a faithful module")
    return bimodule_length(m.algebra, socles(m.algebra, budget).twosided, budget)


def shrink_submodule(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleRep:
    """Faithful submodule with no faithful proper submodule, so with top length
    at most the bimodule length of soc(R): step to `minimal_faithful`'s
    submodule witness, a faithful maximal submodule, until there is none (at
    most dim M steps, each charged by `minimal_faithful`'s own guards)."""
    n_bound = shrink_bound(m, budget)
    while (w := minimal_faithful(m, budget).submodule_witness) is not None:
        m = restrict_action(m, w)
    if not faithful(m)[0]:
        raise TheoremViolation("shrunk submodule lost faithfulness")
    if semisimple_length(top(m, budget)) > n_bound:
        raise TheoremViolation("shrunk submodule exceeds the top-length bound")
    return m


def shrink_quotient(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleRep:
    """Faithful quotient with no faithful proper quotient, so with socle length
    at most the bimodule length of soc(R): step to M/L for `minimal_faithful`'s
    quotient witness L, a simple submodule, until there is none (at most dim M
    steps, each charged by `minimal_faithful`'s own guards)."""
    n_bound = shrink_bound(m, budget)
    while (l_sub := minimal_faithful(m, budget).quotient_witness) is not None:
        m = quotient_action(m, l_sub).rep
    if not faithful(m)[0]:
        raise TheoremViolation("shrunk quotient lost faithfulness")
    if semisimple_length(m, socle_subspace(m, budget)) > n_bound:
        raise TheoremViolation("shrunk quotient exceeds the socle-length bound")
    return m


def shrink_subfactor(m: ModuleRep, budget: Budget = DEFAULT_BUDGET) -> ModuleRep:
    """Faithful subfactor satisfying both shrink bounds: quotient-shrink the
    submodule-shrink.  Both bounds are re-verified on the result."""
    first = shrink_submodule(m, budget)
    second = shrink_quotient(first, budget)
    n_bound = shrink_bound(m, budget)
    ts = top_socle(second, budget)
    if ts.top_length > n_bound or ts.socle_length > n_bound:
        raise TheoremViolation("subfactor violates a shrink bound")
    return second
