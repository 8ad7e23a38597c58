"""Fold the benchmark's run records of a parent tree and a change tree into
one ledger, BENCH_<label>.json.

Each tree is a checkout on which `perfbench/run.py --trace 0` was run; its
records are `.perfbench/record-<workload>-<seed>-trace0.json`.  A pair is a
(workload, seed) recorded in both trees.  For each workload the ledger keeps
every pair's four end-to-end metrics and which side's record was written
first (by file mtime, null when the two are equal), and, per metric and
side, the median, the quartiles and the IQR (statistics.quantiles, n=4,
exclusive method), and how many pairs the change won (ties count for
neither side).  All four metrics are better lower.  The git sha, Python
version and `nproc` come from the records.  Where both trees also hold a
`--trace 1` record (`record-<workload>-<seed>-trace1.json`) of a workload
with pairs, that workload's `traced` list gives, per such seed, every
per-layer metric both records report: `layers: {metric: {parent, change}}`.

The tool reads run records only, never a ledger.  Only the committed ledgers
it wrote itself, those with a top-level `label`, are in its form.  The older
ones were folded by hand: their top-level keys differ (`what`, `layers`,
`command`, ...), and each side of a pair holds its metrics flat beside
`correct`.  The tool neither reads nor converts them, so a comparison with
them is made by hand.

Usage: python3 tools/ledger.py PARENT_TREE CHANGE_TREE LABEL [-o OUT_DIR]
Writes OUT_DIR/BENCH_<label>.json (default: the current directory) and
prints its path; stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

METRICS = ("wall_s", "item_p50_ms", "setup_s", "peak_rss_mb")
RECORD = re.compile(r"record-(?P<workload>.+)-(?P<seed>\d+)-trace[01]\.json")


def records(tree: Path, trace: int = 0) -> dict[tuple[str, int], tuple[dict, int]]:
    """{(workload, seed): (record, mtime in ns)} for the records of one tree
    run with the given --trace."""
    out = {}
    for path in sorted((tree / ".perfbench").glob(f"record-*-trace{trace}.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            out[match["workload"], int(match["seed"])] = json.loads(path.read_text()), path.stat().st_mtime_ns
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def one_value(recs, key: str):
    """The value of key shared by the records, or the list of its distinct
    values in record order."""
    values = []
    for rec in recs:
        if rec.get(key) not in values:
            values.append(rec.get(key))
    return values[0] if len(values) == 1 else values


def side(rec: dict) -> dict:
    return {"metrics": {m: rec["metrics"][m] for m in METRICS}, "attempted": rec["attempted"], "failed": rec["failed"]}


def ledger(parent_tree: Path, change_tree: Path, label: str) -> dict:
    parent, change = records(parent_tree), records(change_tree)
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no (workload, seed) recorded in both trees")
    workloads: dict = {}
    for key in keys:
        (parent_rec, parent_mtime), (change_rec, change_mtime) = parent[key], change[key]
        first = None if parent_mtime == change_mtime else "parent" if parent_mtime < change_mtime else "change"
        pairs = workloads.setdefault(key[0], {"pairs": []})["pairs"]
        pairs.append({"seed": key[1], "first": first, "parent": side(parent_rec), "change": side(change_rec)})
    traced_parent, traced_change = records(parent_tree, 1), records(change_tree, 1)
    for key in sorted(traced_parent.keys() & traced_change.keys()):
        if key[0] in workloads:
            parent_metrics, change_metrics = traced_parent[key][0]["metrics"], traced_change[key][0]["metrics"]
            layers = {m: {"parent": parent_metrics[m], "change": change_metrics[m]}
                      for m in parent_metrics if m in change_metrics}
            workloads[key[0]].setdefault("traced", []).append({"seed": key[1], "layers": layers})
    for entry in workloads.values():
        pairs = entry["pairs"]
        entry["summary"] = {
            metric: {
                "parent": spread([p["parent"]["metrics"][metric] for p in pairs]),
                "change": spread([p["change"]["metrics"][metric] for p in pairs]),
                "change_better_pairs": sum(p["change"]["metrics"][metric] < p["parent"]["metrics"][metric]
                                           for p in pairs),
                "pairs": len(pairs),
            }
            for metric in METRICS
        }
    parent_recs, change_recs = [parent[k][0] for k in keys], [change[k][0] for k in keys]
    return {
        "label": label,
        "parent_sha": one_value(parent_recs, "git_sha"),
        "change_sha": one_value(change_recs, "git_sha"),
        "source_sha256": {"parent": one_value(parent_recs, "source_sha256"),
                          "change": one_value(change_recs, "source_sha256")},
        "python": one_value(parent_recs + change_recs, "python"),
        "nproc": one_value(parent_recs + change_recs, "nproc"),
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fold a parent's and a change's benchmark records into BENCH_<label>.json.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("label")
    parser.add_argument("-o", "--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(ledger(args.parent, args.change, args.label), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
