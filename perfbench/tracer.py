"""Span tracer and counters that wrap soclelab's public functions from outside.

Nothing here is imported by the package.  `Tracer.install()` replaces each
traced function or method with a wrapper in every `soclelab.*` module
namespace that binds it (for example `modrep.kernel`, which is the same
object as `exactla.kernel`), and `Tracer.uninstall()` puts the identical
original objects back and checks that it did.

Spans (name, start, end, parent id) are kept in flat arrays in memory and
written out by `write_spans` when the traced round ends.  Self time is a
span's duration minus the union of its children's intervals
(`self_times`).
"""

from __future__ import annotations

import functools
import struct
import sys
import time
from array import array
from collections import Counter

# (module, qualified attribute, metric name) of every function that gets a
# span; the metric name is "<module>.<qualname>" unless given.
SPANNED = [
    ("exactla", "rref_rows", None),
    ("exactla", "kernel", None),
    ("exactla", "Mat.mul", None),
    ("exactla", "Mat.apply", None),
    ("exactla", "Subspace.from_vectors", None),
    ("exactla", "Subspace.reduce", None),
    ("exactla", "RowBasis.add", None),
    ("exactla", "SpanTracker.express", None),
    ("algebra", "radical_bruteforce", None),
    ("algebra", "socles", None),
    ("algebra", "socle_is_central", None),
    ("algebra", "bimodule_length", None),
    ("corpus", "ModuleAssembler.assemble", None),
    ("modrep", "ModuleRep.__init__", "modrep.module_new"),
    ("modrep", "faithful", None),
    ("modrep", "minimal_faithful", None),
    ("modrep", "top_socle", None),
    ("modrep", "local_socle_check", None),
    ("strongness", "prop41_check", None),
    ("strongness", "predicates", None),
    ("strongness", "small_conditions", None),
    ("strongness", "system_graph", None),
    ("strongness", "n_strong", None),
    ("tensorcover", "search_minimal", None),
    ("tensorcover", "check_minimal", None),
]

# (module, qualified attribute, counter name): call counts only, no span.
COUNTED = [
    ("exactla", "Mat.__post_init__", "exactla.mat_new.calls"),
    ("strongness", "BilinearSystem.image_mult_space", "strongness.mult_space.calls"),
    ("strongness", "BilinearSystem.kernel_mult_space", "strongness.mult_space.calls"),
    ("budget", "Budget.guard", "budget.checks"),
    ("budget", "Budget.guard_ring", "budget.checks"),
]

# generator functions: the counter counts the items they yield
YIELDING = [
    ("corpus", "iter_generator_modules", "corpus.candidates"),
    ("modrep", "maximal_submodules", "modrep.maximal_submodules.yielded"),
    ("modrep", "simple_socle_submodules", "modrep.simple_socle_submodules.yielded"),
]

# the scalar layer, counted in a pass of its own (about 10^7 calls a round)
GF_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def self_times(starts, ends, parents) -> array:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to its parent's interval.

    Works for any span tree, including children that overlap each other or
    stick out of their parent.  Children are visited in start order while
    each parent keeps how far its covered union reaches, so the pass is
    linear when the spans come in start order, as recorded spans do."""
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)
    for k in order:
        p = parents[k]
        if p < 0:
            continue
        s, e = starts[k], ends[k]
        if s < reach[p]:
            s = reach[p]
        if e > ends[p]:
            e = ends[p]
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


def _resolve(module, qualname: str):
    """(owner, attribute name) for a dotted attribute inside a module."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counters for one traced round."""

    def __init__(self, gf_only: bool = False):
        self.gf_only = gf_only
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()   # computed sums (cells, elements, ...)
        self._held: dict[int, object] = {}  # keeps keyed objects alive, so ids are not reused
        self._socle_algebras: set[int] = set()
        self._seen_modules: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, parents, name_ids, stack = self.starts, self.ends, self.parents, self.name_ids, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- hooks for the computed metrics ---------------------------------------
    def _rref_before(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        self.extra["exactla.rref_rows.cells"] += len(rows) * ncols

    def _radical_before(self, args, kwargs):
        alg = args[0]
        self.extra["algebra.radical_bruteforce.elements"] += alg.field.q ** alg.dim

    def _socles_before(self, args, kwargs):
        alg = args[0]
        if id(alg) in self._socle_algebras:
            self.extra["algebra.socles.repeats"] += 1
        self._socle_algebras.add(id(alg))
        self._held[id(alg)] = alg

    def _minimal_before(self, args, kwargs):
        mod = args[0]
        key = (id(mod.algebra), mod.dim, tuple(m.entries for m in mod.action))
        if key in self._seen_modules:
            self.extra["modrep.minimal_faithful.repeats"] += 1
        self._seen_modules.add(key)
        self._held[id(mod.algebra)] = mod.algebra

    def _assemble_after(self, result):
        if result is not None:
            self.extra["corpus.assemble.returned"] += 1

    def _search_after(self, result):
        self.extra["tensorcover.subspaces_examined"] += result.examined

    # -- installing -----------------------------------------------------------
    def _replace_function(self, original, wrapper):
        """Rebind `original` to `wrapper` in every soclelab module namespace."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "soclelab" or mod_name.startswith("soclelab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is bound in no soclelab module")

    def _wrap(self, module, qualname: str, make):
        owner, attr = _resolve(module, qualname)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__))
            elif isinstance(raw, property):
                wrapped = property(make(raw.fget))
            else:
                wrapped = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        else:
            self._replace_function(getattr(owner, attr), make(getattr(owner, attr)))

    def install(self, sl) -> None:
        """Wrap the traced functions; `sl` maps module names to modules."""
        if self.gf_only:
            for op in GF_OPS:
                self._wrap(sl["gf"], f"Field.{op}", lambda fn: self._counter("gf.scalar_ops", fn))
            self._wrap(sl["gf"], "Field._tables", lambda fn: self._counter("gf.table_lookups", fn))
            return
        hooks = {
            "exactla.rref_rows": (self._rref_before, None),
            "algebra.radical_bruteforce": (self._radical_before, None),
            "algebra.socles": (self._socles_before, None),
            "modrep.minimal_faithful": (self._minimal_before, None),
            "corpus.ModuleAssembler.assemble": (None, self._assemble_after),
            "tensorcover.search_minimal": (None, self._search_after),
        }
        for mod_name, qualname, metric in SPANNED:
            name = metric or f"{mod_name}.{qualname}"
            before, after = hooks.get(f"{mod_name}.{qualname}", (None, None))
            self._wrap(sl[mod_name], qualname,
                       lambda fn, name=name, b=before, a=after: self._span(name, fn, b, a))
        for mod_name, qualname, counter in COUNTED:
            self._wrap(sl[mod_name], qualname, lambda fn, c=counter: self._counter(c, fn))
        for mod_name, qualname, counter in YIELDING:
            self._wrap(sl[mod_name], qualname, lambda fn, c=counter: self._yield_counter(c, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute, then check each is the original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._patches.clear()

    # -- results ----------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Binary span dump: a header line with the name table, then one
        (name id, parent id, start, end) record per span."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            rec = struct.Struct("<qqdd")
            for i in range(len(self.starts)):
                fh.write(rec.pack(self.name_ids[i], self.parents[i], self.starts[i], self.ends[i]))

    def metrics(self) -> dict[str, float]:
        """Per wrapped name: .calls and .self_s, plus every counter and the
        derived ratios; names never called report 0."""
        out: dict[str, float] = {}
        if not self.gf_only:
            selfs = self_times(self.starts, self.ends, self.parents)
            calls = Counter()
            self_s = Counter()
            total_s = Counter()
            for i, nid in enumerate(self.name_ids):
                calls[nid] += 1
                self_s[nid] += selfs[i]
                total_s[nid] += self.ends[i] - self.starts[i]
            for nid, name in enumerate(self.names):
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = self_s[nid]
            rad_total = total_s[self.names.index("algebra.radical_bruteforce")]
            elements = self.extra["algebra.radical_bruteforce.elements"]
            out["algebra.radical_bruteforce.elements"] = elements
            out["algebra.radical_bruteforce.elements_per_s"] = elements / rad_total if rad_total else 0.0
            out["exactla.rref_rows.cells"] = self.extra["exactla.rref_rows.cells"]
            out["algebra.socles.repeat_ratio"] = _ratio(self.extra["algebra.socles.repeats"],
                                                        out["algebra.socles.calls"])
            out["modrep.minimal_faithful.repeat_ratio"] = _ratio(self.extra["modrep.minimal_faithful.repeats"],
                                                                 out["modrep.minimal_faithful.calls"])
            out["corpus.assemble.yield_ratio"] = _ratio(self.extra["corpus.assemble.returned"],
                                                        out["corpus.ModuleAssembler.assemble.calls"])
            out["tensorcover.subspaces_examined"] = self.extra["tensorcover.subspaces_examined"]
            for _, _, counter in COUNTED + YIELDING:
                out[counter] = self.counts[counter]
        else:
            out["gf.scalar_ops"] = self.counts["gf.scalar_ops"]
            out["gf.table_lookups"] = self.counts["gf.table_lookups"]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
