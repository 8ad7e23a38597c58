"""Record the digests the correctness gate compares against.

    python3 perfbench/record.py [--seeds 25] [--workload NAME ...]

Runs every round the benchmark would run (with BENCHMARK.json's
run_seconds) and writes, per workload, the input digest and the verdict
digest of each round into perfbench/expected.json: once for the fixed
workloads, and for seeds 0 .. N-1 for the seeded ones.  Run it only at a
commit whose verdicts are known to be right, and only when the benchmark's
own inputs change; a later commit whose package changes a digest is what
the gate exists to catch.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED, NOMINAL_ROUND_S, ROOT, SEEDED, SETUP_SAMPLES, WORKLOADS, Mismatch, Runner


def record_workload(name: str, seeds: int, rounds: int) -> dict:
    out = {}
    smoke = Runner(name, 0, smoke=True, deadline_s=3600.0)
    res = smoke.child("plain", 0)
    if res["failures"]:
        raise Mismatch(f"{name} smoke: {res['failures']}")
    out["smoke"] = {"rounds": {"0/0": [res["input_digest"], res["verdict_digest"]]}} if name in SEEDED \
        else {"fixed": [res["input_digest"], res["verdict_digest"]]}
    if name not in SEEDED:
        res = Runner(name, 0, smoke=False, deadline_s=3600.0).child("plain", 0)
        if res["failures"]:
            raise Mismatch(f"{name}: {res['failures']}")
        out["full"] = {"fixed": [res["input_digest"], res["verdict_digest"]]}
        return out
    table = {}
    for seed in range(seeds):
        runner = Runner(name, seed, smoke=False, deadline_s=3600.0)
        for rnd in range(max(rounds, SETUP_SAMPLES)):
            res = runner.child("plain" if rnd < rounds else "setup", rnd)
            if res.get("failures"):
                raise Mismatch(f"{name} seed {seed} round {rnd}: {res['failures']}")
            table[f"{seed}/{rnd}"] = [res["input_digest"], res.get("verdict_digest")]
        print(f"{name}: seed {seed} recorded", file=sys.stderr, flush=True)
    out["full"] = {"rounds": table}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=25)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in args.workload or WORKLOADS:
        rounds = max(1, round(seconds / NOMINAL_ROUND_S[name]))
        part = record_workload(name, args.seeds, rounds)
        # re-read before writing, so recordings of different workloads can run side by side
        data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {"full": {}, "smoke": {}}
        for kind in ("full", "smoke"):
            data[kind][name] = part[kind]
        EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
