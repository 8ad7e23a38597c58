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


def load_tool(name: str = "unused_defs"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_unused_defs_reports_one_unused_import_and_one_unused_def(tmp_path):
    # each kept import is read once: in code, in an annotation, under an
    # alias, or as a dotted module's first name
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
    (tmp_path / "pkg" / "user.py").write_text("from .core import used\n\nVALUE = used(1)\n")
    tool = load_tool()
    assert tool.unused_imports(tmp_path) == ["core.dumps"]
    assert tool.unused(tmp_path) == ["core.orphan"]
    assert tool.main([str(tmp_path)]) == 1



def test_unused_defs_reports_a_module_level_name_nothing_reads(tmp_path, capsys):
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
    tool = load_tool()
    assert tool.unused_names(tmp_path) == ["consts.PAIRED", "consts.PLANTED"]
    assert tool.main([str(tmp_path)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("unused name")] == [
        "unused name: consts.PAIRED", "unused name: consts.PLANTED"]


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
    # an uncalled Mat.sub hides from unused_defs behind every other `sub`
    # (the field tables' and the Field method), but no run calls its code
    src = tmp_path / "src"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC.parent, src, ignore=ignore)
    shutil.copytree(TOOLS, tmp_path / "tools", ignore=ignore)
    exactla = src / "soclelab" / "exactla.py"
    anchor = '    def scale(self, c: int) -> "Mat":\n'
    text = exactla.read_text()
    assert text.count(anchor) == 1
    exactla.write_text(text.replace(anchor, '    def sub(self, other: "Mat") -> "Mat":\n        return self\n\n' + anchor))
    names = load_tool()
    assert names.unused(src) == sorted(names.ALLOWED)  # nothing new by name
    result = subprocess.run([sys.executable, str(tmp_path / "tools" / "reachable.py"), str(src)],
                            capture_output=True, text=True, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "never called: exactla.Mat.sub\n")
