"""List every function or method in src/ that no end-to-end run calls.

Runs the package in process under `sys.setprofile`, which sees each Python
call, over every entry of the end-to-end table in `tools/runs.py`, writers
included.
A def counts as called when its code object ran at least once.  Unlike
`tools/unused_defs.py`, which matches by name, this sees a method whose name
another attribute shares (`sub`, `neg`, ...).  Module-level and class-level
defs are checked, each named as module.Qualname.

Usage: python3 tools/reachable.py [SRC_DIR]   (default: src next to tools/)
Exits 1 when a def that ALLOWED does not list is never called, or when an
ALLOWED entry is called again or gone; stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path

# defs that no end-to-end run calls, with why they stay
ALLOWED = {
    "algebra._coset_representative":
        "runs only when the radical scan rejects a coset before the span grows, which no gallery ring does; "
        "the radical oracle tests and the benchmark's random triangular rings reach it",
    "corpus.square_zero_matrices": "the flat pool that the tests compare with the containment scan and the brute-force set",
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
}


def definitions(src: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> module.Qualname for each module-level and
    class-level def; the first line is the first decorator's, as in the
    code object's co_firstlineno."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text(), filename=str(path)).body)]
        while stack:
            prefix, body = stack.pop()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path.resolve()), first)] = f"{prefix}.{node.name}"
                elif isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}.{node.name}", node.body))
    return found


def called_code(src: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object under src that the runs call."""
    sys.path.insert(0, str(src))
    from soclelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported soclelab from {cli.__file__}, not from {src}")
    import runs  # after soclelab, so its writers use the package imported from src

    seen: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    @contextlib.contextmanager
    def profiled():
        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    runs.execute(runs.RUNS, profiled)
    prefix = str(src)
    return {(code.co_filename, code.co_firstlineno) for code in seen if code.co_filename.startswith(prefix)}


def main(argv: list[str]) -> int:
    src = (Path(argv[0]) if argv else Path(__file__).parent.parent / "src").resolve()
    defs = definitions(src)
    called = called_code(src)
    never = sorted(name for key, name in defs.items() if key not in called)
    problems = [f"never called: {name}" for name in never if name not in ALLOWED]
    problems += [f"allowed but called or gone: {name}" for name in ALLOWED if name not in never]
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
