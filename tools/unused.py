"""The unused-code gate: every function or method in src/ that no CLI call of
the end-to-end table runs, and every import, module-level name or class
that nothing in src/ reads.

Defs are checked by profile.  The package runs in process under
`sys.setprofile` over every entry of `tools/runs.py`'s table, and a
module-level or class-level def, named as module.Qualname, counts as called
when its code object ran inside a `cli.main` call.  Each entry's writer
runs outside the profile, so a def that only a writer calls is reported,
and so is a method whose name another attribute shares (`sub`, `neg`, ...).

The rest is what a profile cannot see, read from the source with `ast`:
- an import counts as read when the name it binds occurs as a name anywhere
  else in its file, annotations included (a quoted annotation is a string
  and does not count); `from __future__` imports are skipped;
- a name bound by a module-level assignment counts as read when it occurs
  as a name read or an attribute anywhere in src/; dunder names are skipped;
- a module-level or class-level class counts as named when its name occurs
  as a name or an attribute anywhere in src/ outside its own body.

Usage: python3 tools/unused.py [SRC_DIR]   (default: src next to tools/)
Exits 1 when it finds an unused import, an unused name, an unnamed class, a
def that no call runs and ALLOWED does not list, or an ALLOWED entry that
is called again or gone; stdlib only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# defs that no CLI call of the end-to-end table runs, with why they stay
ALLOWED = {
    "algebra._coset_representative":
        "runs only when the radical scan rejects a coset before the span grows, which no gallery ring does; "
        "the radical oracle tests and the benchmark's random triangular rings reach it",
    "corpus.iter_generator_modules":
        "the benchmark's module-scan stream, the tests' per-candidate oracle for the weighted battery, "
        "and the runs table's writers of kx34.json and kxy3.json",
    "corpus.square_zero_matrices":
        "the flat pool that the tests compare with the containment scan and the brute-force set",
    "gf.Field.__repr__": "names fields in test ids and in debugging output",
    "gf.Field._tables": "the benchmark tracer wraps it to count table lookups (gf.table_lookups); test_gf reads it",
    "gf.Field.add": "the benchmark tracer wraps it among the scalar ops it counts (gf.scalar_ops)",
    "gf.Field.div": "the benchmark tracer wraps it among the scalar ops it counts (gf.scalar_ops)",
    "gf.Field.neg": "the benchmark tracer wraps it among the scalar ops it counts (gf.scalar_ops)",
    "modrep.maximal_submodules": "the benchmark tracer counts what it yields; the tests use it as an oracle",
    "strongness.BilinearSystem._image_mult_vectors": "the body of image_mult_space, which the tests also rank directly",
    "strongness.BilinearSystem._kernel_mult_rows": "the body of kernel_mult_space, which the tests also rank directly",
    "strongness.BilinearSystem.image_mult_space":
        "the benchmark tracer counts it (strongness.mult_space.calls); the tests use it as the literal definition",
    "strongness.BilinearSystem.kernel_mult_space":
        "the benchmark tracer counts it (strongness.mult_space.calls); the tests use it as the literal definition",
    "strongness.BilinearSystem.transpose":
        "the k-duality tests' system transpose, and the runs table's writers of lc3t.json and rs2t.json",
    "tensorcover.TensorSubspace.full": "the tests' full spaces, and the runs table's writer of full223.json",
}


def parse(src: Path) -> dict[Path, ast.Module]:
    return {path.resolve(): ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.rglob("*.py"))}


def members(tree: ast.Module, module: str):
    """(qualified name, node) for each module-level and class-level def or class."""
    stack = [(module, tree.body)]
    while stack:
        prefix, body = stack.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{node.name}", node
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}.{node.name}", node.body))


def source_problems(trees: dict[Path, ast.Module]) -> list[str]:
    """One line for each unused import, unused module-level name and unnamed class."""
    imports, assigned, classes = [], [], []
    uses = {}  # identifier -> [(path, line)] of each name or attribute
    read = set()  # identifiers read as a name or an attribute
    for path, tree in trees.items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                imports += [f"{path.stem}.{name}" for name in bound if name not in names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(f"{path.stem}.{sub.id}", sub.id) for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                             and not (sub.id.startswith("__") and sub.id.endswith("__"))]
        classes += [(qualname, node.name, path, node.lineno, node.end_lineno)
                    for qualname, node in members(tree, path.stem) if isinstance(node, ast.ClassDef)]
        for sub in ast.walk(tree):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append((path, sub.lineno))
                if not isinstance(sub, ast.Name) or isinstance(sub.ctx, ast.Load):
                    read.add(name)
    unnamed = [qualname for qualname, name, path, first, last in classes
               if all(p == path and first <= line <= last for p, line in uses.get(name, ()))]
    return [f"unused import: {name}" for name in sorted(imports)] + \
        [f"unused name: {qualname}" for qualname, name in sorted(assigned) if name not in read] + \
        [f"unnamed class: {name}" for name in sorted(unnamed)]


def called_code(src: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object under src that a CLI call of the runs table runs."""
    sys.path.insert(0, str(src))
    from soclelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported soclelab from {cli.__file__}, not from {src}")
    import runs  # after soclelab, so its writers use the package imported from src

    seen: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    class Profiled:
        def __enter__(self):
            sys.setprofile(profile)

        def __exit__(self, *_exc):
            sys.setprofile(None)

    runs.execute(runs.RUNS, Profiled)
    return {(code.co_filename, code.co_firstlineno) for code in seen if code.co_filename.startswith(str(src))}


def main(argv: list[str]) -> int:
    src = (Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    trees = parse(src)
    called = called_code(src)
    # a def's code object starts at its first decorator's line
    never = sorted(qualname for path, tree in trees.items() for qualname, node in members(tree, path.stem)
                   if not isinstance(node, ast.ClassDef)
                   and (str(path), min([node.lineno] + [d.lineno for d in node.decorator_list])) not in called)
    problems = source_problems(trees)
    problems += [f"never called: {name}" for name in never if name not in ALLOWED]
    problems += [f"allowed but called or gone: {name}" for name in ALLOWED if name not in never]
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
