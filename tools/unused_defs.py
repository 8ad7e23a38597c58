"""List every def or class in src/ that no other src/ code names, every
module-level import that nothing else in its own file reads, and every
module-level name that nothing in src/ reads.

A definition counts as used when its name occurs as a name or an attribute
anywhere in src/ outside its own body.  Matching is by bare name, so a name
shared with a used definition hides an unused one; dunder methods, which the
interpreter calls, are skipped.  Module-level and class-level definitions
are scanned, each named as module.Qualname.  An import counts as read when
the name it binds occurs as a name anywhere else in its file, annotations
included (a quoted annotation is a string and does not count); `from
__future__` imports are skipped.  A name bound by a module-level assignment
counts as read when it occurs as a name read or an attribute anywhere in
src/; dunder names are skipped.  Each is named as module.name.

Usage: python3 tools/unused_defs.py [SRC_DIR]   (default: src next to tools/)
Exits 1 when it finds an unused import, an unused module-level name, an
unused definition that ALLOWED does not list, or an ALLOWED entry that is
used again or gone; stdlib only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# definitions that only the tests and the benchmark's tracer call, with why they stay
ALLOWED = {
    "corpus.iter_generator_modules":
        "the benchmark's module-scan stream and the tests' per-candidate oracle for the weighted battery",
    "corpus.square_zero_matrices": "the flat pool that the tests compare with the containment scan and the brute-force set",
    "gf.Field._tables": "the benchmark tracer wraps it to count table lookups (gf.table_lookups); test_gf reads it",
    "gf.Field.div": "the benchmark tracer wraps it among the scalar ops it counts (gf.scalar_ops)",
    "modrep.maximal_submodules": "the benchmark tracer counts what it yields; the tests use it as an oracle",
    "strongness.BilinearSystem.image_mult_space":
        "the benchmark tracer counts it (strongness.mult_space.calls); the tests use it as the literal definition",
    "strongness.BilinearSystem.kernel_mult_space":
        "the benchmark tracer counts it (strongness.mult_space.calls); the tests use it as the literal definition",
}


def definitions(tree: ast.Module, module: str):
    """(qualified name, node) for each module-level and class-level def or class."""
    stack = [(module, tree.body)]
    while stack:
        prefix, body = stack.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{node.name}", node
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}.{node.name}", node.body))


def unused(src: Path) -> list[str]:
    defs, uses = [], {}  # uses: identifier -> [(path, line)] of each name or attribute read
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in definitions(tree, path.stem):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defs.append((qualname, node.name, path, node.lineno, node.end_lineno))
        for sub in ast.walk(tree):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append((path, sub.lineno))
    return sorted(
        qualname
        for qualname, name, path, first, last in defs
        if all(p == path and first <= line <= last for p, line in uses.get(name, ()))
    )


def unused_imports(src: Path) -> list[str]:
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.stem}.{name}")
    return sorted(found)


def unused_names(src: Path) -> list[str]:
    assigned, read = [], set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for sub in (sub for target in targets for sub in ast.walk(target)):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    if not (sub.id.startswith("__") and sub.id.endswith("__")):
                        assigned.append((f"{path.stem}.{sub.id}", sub.id))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    return sorted(qualname for qualname, name in assigned if name not in read)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    found = unused(src)
    problems = [f"unused import: {name}" for name in unused_imports(src)]
    problems += [f"unused name: {name}" for name in unused_names(src)]
    problems += [f"unused: {name}" for name in found if name not in ALLOWED]
    problems += [f"allowed but used or gone: {name}" for name in ALLOWED if name not in found]
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
