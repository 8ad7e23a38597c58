import ast
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = Path(__file__).resolve().parent.parent / "src" / "soclelab"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def source_problems(root: Path) -> list[str]:
    gate = load_tool("unused")
    return gate.source_problems(gate.parse(root))


def run_gate(tmp_path: Path, kept: str, plant=None) -> tuple[int, list[str]]:
    """The gate's exit code and printed lines on a copy of the tree whose
    runs table keeps only the entry named kept, after plant(src, tools)
    edits the copy."""
    src, tools = tmp_path / "src", tmp_path / "tools"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC.parent, src, ignore=ignore)
    shutil.copytree(TOOLS, tools, ignore=ignore)
    with open(tools / "runs.py", "a") as runs:
        runs.write(f"\nRUNS = [run for run in RUNS if run.name == {kept!r}]\n")
    if plant is not None:
        plant(src, tools)
    result = subprocess.run([sys.executable, str(tools / "unused.py")], capture_output=True, text=True, cwd=tmp_path)
    return result.returncode, result.stdout.splitlines()


def replace_once(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def test_gate_reports_one_unused_import(tmp_path):
    # each kept import is read once: in code, in an annotation, under an
    # alias, or as a dotted module's first name; an uncalled def is the
    # profile's to report, not the source pass's
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "core.py").write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from collections import Counter, OrderedDict as OD\n"
        "from fractions import Fraction\n"
        "from json import dumps\n"
        "\n"
        "def used(x: Fraction):\n"
        "    return OD(Counter(itertools.chain(x, os.path.sep)))\n"
        "\n"
        "def orphan():\n"
        "    return None\n"
    )
    (tmp_path / "pkg" / "user.py").write_text("from .core import used\n\nprint(used(1))\n")
    assert source_problems(tmp_path) == ["unused import: core.dumps"]


def test_gate_reports_a_module_level_name_nothing_reads(tmp_path):
    # a name counts as read as a name or as an attribute, in any file;
    # dunders and names bound inside a def are not module-level names
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "consts.py").write_text(
        '__version__ = "0"\n'
        "LIMIT = 4\n"
        "TABLE: dict = {}\n"
        "LEFT, PAIRED = 1, 2\n"
        "PLANTED = 7\n"
        "print(LEFT)\n"
    )
    (tmp_path / "pkg" / "user.py").write_text(
        "from . import consts\n"
        "from .consts import TABLE\n"
        "\n"
        "def total():\n"
        "    local = consts.LIMIT + len(TABLE)\n"
        "    return local\n"
        "\n"
        "print(total())\n"
    )
    assert source_problems(tmp_path) == ["unused name: consts.PAIRED", "unused name: consts.PLANTED"]


def test_gate_reports_a_class_nothing_else_names(tmp_path):
    # a class counts as named from another file, as an attribute, or from
    # a method of its own outer class, but not from its own body
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(
        "class Used:\n"
        "    pass\n"
        "\n"
        "class Orphan:\n"
        "    def again(self):\n"
        "        return Orphan()\n"
        "\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        pass\n"
        "\n"
        "    class Nested:\n"
        "        pass\n"
        "\n"
        "    def make(self):\n"
        "        return self.Nested()\n"
    )
    (tmp_path / "pkg" / "user.py").write_text(
        "from . import shapes\n"
        "from .shapes import Used\n"
        "\n"
        "print(Used, shapes.Outer)\n"
    )
    assert source_problems(tmp_path) == ["unnamed class: shapes.Orphan", "unnamed class: shapes.Outer.Inner"]
    assert source_problems(SRC.parent) == []


def test_ledger_folds_paired_records(tmp_path):
    # three seeds of one workload in both trees, one seed only in the parent;
    # the change wins wall_s in two pairs and ties item_p50_ms in all three;
    # the parent's record is written first in pair 1, the change's in pair 2,
    # and both at the same time in pair 3
    def write(tree, seed, wall, sha, mtime):
        record = {"git_sha": sha, "source_sha256": sha * 2, "python": "3.11.7", "nproc": 2,
                  "attempted": 104, "failed": 0,
                  "metrics": {"wall_s": wall, "item_p50_ms": 0.5, "setup_s": 0.8, "peak_rss_mb": 25.0}}
        (tree / ".perfbench").mkdir(parents=True, exist_ok=True)
        path = tree / ".perfbench" / f"record-radical-oracle-{seed}-trace0.json"
        path.write_text(json.dumps(record))
        os.utime(path, ns=(mtime, mtime))

    for seed, parent_wall, change_wall, parent_mtime, change_mtime in [
            (1, 0.10, 0.07, 10**18, 2 * 10**18), (2, 0.12, 0.08, 4 * 10**18, 3 * 10**18),
            (3, 0.11, 0.13, 5 * 10**18, 5 * 10**18)]:
        write(tmp_path / "parent", seed, parent_wall, "aaa", parent_mtime)
        write(tmp_path / "change", seed, change_wall, "bbb", change_mtime)
    write(tmp_path / "parent", 4, 0.5, "aaa", 10**18)
    (tmp_path / "parent" / ".perfbench" / "record-radical-oracle-1-trace1.json").write_text("{}")
    # traced records of seed 2 in both trees, one metric only in the change's;
    # and of a workload with no trace-0 pair
    for tree, ops, self_s, extra in [("parent", 220, 0.066, {}), ("change", 220, 0.050, {"trace.overhead_s": 0.1})]:
        traced = {"metrics": {"gf.scalar_ops": ops, "algebra.radical_bruteforce.self_s": self_s, **extra}}
        for name in ("radical-oracle-2", "module-scan-0"):
            (tmp_path / tree / ".perfbench" / f"record-{name}-trace1.json").write_text(json.dumps(traced))
    tool = load_tool("ledger")
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "test", "-o", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert (out["label"], out["parent_sha"], out["change_sha"], out["python"], out["nproc"]) == \
        ("test", "aaa", "bbb", "3.11.7", 2)
    entry = out["workloads"]["radical-oracle"]
    assert [pair["seed"] for pair in entry["pairs"]] == [1, 2, 3]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent", "change", None]
    wall = entry["summary"]["wall_s"]
    assert (wall["change_better_pairs"], wall["pairs"]) == (2, 3)
    assert wall["parent"]["median"] == pytest.approx(0.11)
    assert wall["change"]["median"] == pytest.approx(0.08)
    # exclusive quartiles of 0.10, 0.11, 0.12
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((0.10, 0.12))
    assert wall["parent"]["iqr"] == pytest.approx(0.02)
    assert entry["summary"]["item_p50_ms"]["change_better_pairs"] == 0
    assert entry["traced"] == [{"seed": 2, "layers": {
        "gf.scalar_ops": {"parent": 220, "change": 220},
        "algebra.radical_bruteforce.self_s": {"parent": 0.066, "change": 0.050}}}]
    assert list(out["workloads"]) == ["radical-oracle"]


def budget_policy_breaches(package: Path) -> list[str]:
    """Each place in package's modules that reads the budget env outside the
    CLI (`default_budget` named anywhere but budget.py and cli.py) or falls
    back to another budget (`budget or ...`), as "module:line: what".  Only
    a module whose text could hold either is parsed."""
    found = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if not re.search(r"default_budget|budget\W*\bor\b", text):
            continue
        for node in ast.walk(ast.parse(text, str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else \
                [getattr(node, "id", None) or getattr(node, "attr", None)]
            if "default_budget" in names and path.name not in ("budget.py", "cli.py"):
                found.append((path.stem, node.lineno, "default_budget"))
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                first = node.values[0]
                if (getattr(first, "id", None) or getattr(first, "attr", "")).endswith("budget"):
                    found.append((path.stem, node.lineno, "budget or"))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(found)]


def test_only_the_cli_chooses_the_budget(tmp_path):
    # one budget per run: the CLI builds it from --budget or SOCLELAB_BUDGET,
    # and every library call takes it, defaulting to DEFAULT_BUDGET
    assert budget_policy_breaches(SRC) == []
    (tmp_path / "budget.py").write_text("def default_budget():\n    return None\n")
    (tmp_path / "lib.py").write_text(
        "from .budget import default_budget\n"
        "\n"
        "def scan(self, budget=None):\n"
        "    budget = budget or default_budget()\n"
        "    return self.budget or budget\n"
    )
    assert budget_policy_breaches(tmp_path) == [
        "lib:1: default_budget", "lib:4: budget or", "lib:4: default_budget", "lib:5: budget or"]


def test_each_module_imports_first():
    # each module imported with no soclelab module loaded, as in a fresh
    # interpreter, so an import cycle that the usual import order hides fails
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        with mock.patch.dict(sys.modules):
            for name in [name for name in sys.modules if name.partition(".")[0] == "soclelab"]:
                del sys.modules[name]
            importlib.import_module(f"soclelab.{path.stem}")


def test_runs_names_each_entry_off_its_pin_or_exit_code(capsys):
    # a pin one hex digit off and a wrong exit code: one line each, exit 1
    runs = load_tool("runs")
    names = [run.name for run in runs.RUNS]
    assert len(names) == len(set(names))
    assert all(run.same[0] in names[:i] for i, run in enumerate(runs.RUNS) if run.same)
    pin = runs.RUNS[names.index("gallery list")].sha256
    off = pin[:-1] + ("1" if pin[-1] == "0" else "0")
    table = [runs.Run("gallery list", off), runs.Run("gallery make cross", exit=1)]
    assert runs.main(table) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gallery list: sha256 {pin}, pinned {off}", "gallery make cross: exit 0, expected 1"]


def test_reachable_reports_a_method_whose_name_is_shared(tmp_path):
    # an uncalled Mat.sub hides from a name scan behind every other `sub`
    # (the field tables' and the Field method), but no CLI call runs its code
    def plant(src, _tools):
        anchor = '    def scale(self, c: int) -> "Mat":\n'
        replace_once(src / "soclelab" / "exactla.py", anchor,
                     '    def sub(self, other: "Mat") -> "Mat":\n        return self\n\n' + anchor)
        assert source_problems(src) == []

    code, lines = run_gate(tmp_path, "gallery list", plant)
    assert code == 1 and "never called: exactla.Mat.sub" in lines
    assert not any(line.startswith("allowed but") for line in lines)


def test_gate_exits_1_on_a_planted_import_and_name(tmp_path):
    # the source pass's problems fail the gate as the profile's do (one
    # cheap entry leaves most defs uncalled, so those lines are printed too)
    def plant(src, _tools):
        with open(src / "soclelab" / "gf.py", "a") as gf:
            gf.write("\nimport os\n\nPLANTED = 7\n")

    code, lines = run_gate(tmp_path, "gallery list", plant)
    assert code == 1 and lines[:2] == ["unused import: gf.os", "unused name: gf.PLANTED"]


def test_gate_reports_a_def_that_only_a_writer_calls(tmp_path):
    # full223.json's writer builds TensorSubspace.full outside the profile,
    # so without its table entry the def is reported
    def plant(_src, tools):
        replace_once(tools / "unused.py", '    "tensorcover.TensorSubspace.full":', '    "planted.unlisted":')

    code, lines = run_gate(tmp_path, "cover check full223.json --minimal", plant)
    assert code == 1 and "never called: tensorcover.TensorSubspace.full" in lines
    assert "allowed but called or gone: planted.unlisted" in lines


def test_gate_reports_a_table_entry_that_is_called_again(tmp_path):
    # `gallery list` calls neither Field.neg nor Field.div until a call of
    # the one is planted in the listing
    def plant(src, _tools):
        anchor = "def _cmd_gallery_list(args, inputs, budget: Budget):\n"
        replace_once(src / "soclelab" / "cli.py", anchor, anchor + "    field_of_order(2).neg(0)\n")

    code, lines = run_gate(tmp_path, "gallery list", plant)
    assert code == 1 and "allowed but called or gone: gf.Field.neg" in lines
    assert "allowed but called or gone: gf.Field.div" not in lines
