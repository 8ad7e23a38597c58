import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unused_defs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("unused_defs", TOOL)
    module = importlib.util.module_from_spec(spec)
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

