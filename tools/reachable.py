"""List every function or method in src/ that no end-to-end run calls.

Runs the package in process under `sys.setprofile`, which sees each Python
call, and walks these runs in a temporary directory:
  - `reproduce all`;
  - one run of each CLI subcommand, on inputs written by `gallery make`;
  - one capped `--budget` run;
  - `algebra analyze --oracle` on an algebra over F_5, whose radical oracle
    takes the generic full-rank sweep (`_echelon` with stop_at_gap).
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
import io
import os
import sys
import tempfile
from pathlib import Path

# defs that no end-to-end run calls, with why they stay
ALLOWED = {
    "algebra._coset_representative":
        "runs only when the radical scan rejects a coset before the span grows, which no gallery ring does; "
        "the radical oracle tests and the benchmark's random triangular rings reach it",
    "corpus.iter_generator_modules":
        "the benchmark's module-scan stream and the tests' per-candidate oracle for the weighted battery",
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
    "strongness.BilinearSystem.transpose": "the CI system-strong step writes the transposed systems with it",
    "tensorcover.TensorSubspace.full": "the CI cover-check step writes the full 2x2 space over F_3 with it",
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


def runs(work: Path) -> list[list[str]]:
    """The CLI argument lists, in order: every gallery item is made, and
    the runs after them read what they wrote."""
    gallery = [
        ("cross.json", ["cross"]),
        ("corner.json", ["corner"]),
        ("tri.json", ["triangular"]),
        ("tri5.json", ["triangular", "n=2", "q=5"]),
        ("mat.json", ["matrix-algebra"]),
        ("sz.json", ["square-zero-extension"]),
        ("tt.json", ["twisted-truncated"]),
        ("lc.json", ["line-cover-system", "q=2", "d=2"]),
        ("rd.json", ["row-diagonal-module"]),
    ]
    out = [["gallery", "list"], ["gallery", "make", "number-field-example"]]
    out += [["gallery", "make", *args, "-o", str(work / name)] for name, args in gallery]
    out += [
        ["--pretty", "cover", "check", str(work / "cross.json"), "--minimal"],
        ["cover", "check", str(work / "corner.json")],
        ["--timing", "cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2"],
        ["algebra", "analyze", str(work / "tri.json")],
        ["algebra", "analyze", str(work / "tri5.json"), "--oracle"],
        ["module", "check", str(work / "rd.json")],
        ["module", "shrink", str(work / "rd.json"), "--mode", "subfactor"],
        ["system", "check", str(work / "lc.json")],
        ["system", "strong", str(work / "lc.json"), "--side", "left", "--N", "1", "--relative"],
        ["strong", str(work / "lc.json"), "--side", "right", "--N", "2", "--block", ",0"],
        ["--budget", "5000", "reproduce", "paper-2", "--out", str(work / "capped.json")],
        ["reproduce", "all", "--out", str(work / "all.json")],
    ]
    return out


def called_code(src: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object under src that the runs call."""
    sys.path.insert(0, str(src))
    from soclelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported soclelab from {cli.__file__}, not from {src}")
    seen: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in runs(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    sys.setprofile(profile)
                    try:
                        cli.main(argv)
                    finally:
                        sys.setprofile(None)
        finally:
            os.chdir(here)
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
