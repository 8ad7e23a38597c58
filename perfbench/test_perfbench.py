"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke runs use tiny inputs (a few seconds each) and check that every metric
BENCHMARK.json names is printed, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from round import import_soclelab, run_round  # noqa: E402
from run import WORKLOADS, tail, unit_of  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_union_of_children():
    # 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping: union [1, 6]),
    #    and 3: [9, 12], which sticks out of its parent (clipped to [9, 10]);
    # 1 has a grandchild 4: [2, 3], which 0 must not subtract twice;
    # 5: [20, 21] is a second root.
    starts = [0.0, 1.0, 3.0, 9.0, 2.0, 20.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 21.0]
    parents = [-1, 0, 0, 0, 1, -1]
    assert list(self_times(starts, ends, parents)) == [4.0, 2.0, 3.0, 3.0, 1.0, 1.0]


def test_self_time_ignores_recording_order():
    order = [3, 0, 5, 1, 4, 2]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0, 20.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 21.0]
    parents = [-1, 0, 0, 0, 1, -1]
    new_index = {old: new for new, old in enumerate(order)}
    shuffled = self_times([starts[i] for i in order], [ends[i] for i in order],
                          [new_index[parents[i]] if parents[i] >= 0 else -1 for i in order])
    assert [shuffled[new_index[i]] for i in range(6)] == [4.0, 2.0, 3.0, 3.0, 1.0, 1.0]


def _soclelab_bindings() -> dict:
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("soclelab"):
            for attr, value in vars(mod).items():
                seen[(mod_name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("soclelab"):
                    for cattr, cvalue in vars(value).items():
                        seen[(mod_name, attr, cattr)] = cvalue
    return seen


@pytest.mark.parametrize("gf_only", [False, True])
def test_uninstall_restores_every_binding(gf_only):
    sl = import_soclelab()
    before = _soclelab_bindings()
    tracer = Tracer(gf_only=gf_only)
    tracer.install(sl)
    if not gf_only:
        # modrep binds exactla's kernel under its own name: both are wrapped
        assert sl["modrep"].kernel is sl["exactla"].kernel
        assert sl["modrep"].kernel is not before[("soclelab.exactla", "kernel")]
    tracer.uninstall()
    after = _soclelab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_gives_the_untraced_verdicts(workload):
    plain = run_round(workload, 0, 0, "plain", smoke=True)
    traced = run_round(workload, 0, 0, "trace", smoke=True)
    counted = run_round(workload, 0, 0, "gf", smoke=True)
    assert plain["failures"] == []
    assert plain["verdict_digest"] == traced["verdict_digest"] == counted["verdict_digest"]
    assert counted["layers"]["gf.scalar_ops"] > 0


def test_tail_percentile_leaves_ten_items_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tail(values) == (90, 90.0)
    assert tail(values[:10]) is None
    assert tail(values[:11]) == (9, 1.0)


def _smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert unit_of(name) == unit
        assert f"{name} = " in proc.stdout and proc.stdout.split(f"{name} = ")[1].split("\n")[0].endswith(unit)
    if not trace:
        assert "failed_ratio = 0 ratio" in proc.stdout
        assert "item_tail_ms" in proc.stdout


def test_fails_without_the_package():
    bare = ROOT / ".perfbench" / "bare"  # BENCHMARK.json and perfbench/ only
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _smoke("module-scan", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
