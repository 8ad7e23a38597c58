"""soclelab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the workload runs in rounds, each in a fresh process, and
the end-to-end metrics are printed.  With --trace 1 round 0 runs three
times (untraced, under the span tracer, with the scalar field operations
counted) and the per-layer metrics are printed.  Every verdict is checked;
a wrong one fails the run (exit 1) instead of giving numbers; a run that
cannot start or finish (no package, a crashed round) exits 2 without a
result.  The last line of stdout is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
DEADLINE_S = 170.0

WORKLOADS = ("radical-oracle", "module-scan", "split-systems", "coverage-search")
SEEDED = ("radical-oracle", "split-systems")
# seconds one round takes at reference speed (see speed.py) at the commit
# that defined the benchmark; --seconds / this gives the number of rounds, so
# every commit does the same work for the same --seconds
NOMINAL_ROUND_S = {"radical-oracle": 7.0, "module-scan": 11.8, "split-systems": 5.7, "coverage-search": 6.3}
SETUP_SAMPLES = 3
CANARY_SEED = 0

END_TO_END = {"wall_s": "s", "item_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run: no package, a crashed round, a timeout."""


class Mismatch(Exception):
    """A verdict or an input differs from its known answer."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted, self.failed = attempted, max(failed, 1)


def tail(values: list[float]):
    """Highest whole percentile with at least ten items beyond it, as
    (percentile, value), by nearest rank; None when there is no such one."""
    n = len(values)
    ordered = sorted(values)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool, deadline_s: float = DEADLINE_S):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.monotonic()
        self.deadline_s = deadline_s
        self.env = {k: v for k, v in os.environ.items() if k not in ("SOCLELAB_BUDGET", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.expected = expected.get("smoke" if smoke else "full", {}).get(workload, {})

    def child(self, mode: str, rnd: int, seed: int | None = None, spans: str | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "round.py"), "--workload", self.workload,
               "--seed", str(self.seed if seed is None else seed), "--round", str(rnd), "--mode", mode]
        if self.smoke:
            cmd.append("--smoke")
        if spans:
            cmd += ["--spans", spans]
        left = self.deadline_s - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before the next round")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} round {rnd} did not finish within {self.deadline_s:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} round {rnd} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # -- the correctness gate --------------------------------------------------------
    def recorded(self, rnd: int):
        """(input digest, verdict digest) recorded for this seed and round."""
        if self.workload in SEEDED:
            return self.expected.get("rounds", {}).get(f"{self.seed}/{rnd}")
        return self.expected.get("fixed")

    def gate(self, rnd: int, res: dict) -> None:
        rec = self.recorded(rnd)
        if rec is not None and res["input_digest"] != rec[0]:
            raise Mismatch(f"round {rnd}: the package generated different inputs than at the "
                           f"recording commit ({res['input_digest'][:12]} != {rec[0][:12]}); "
                           "this run is not comparable")
        if "verdict_digest" in res:
            if res["failures"]:
                raise Mismatch(f"round {rnd}: {res['failed']} item(s) failed: " + "; ".join(res["failures"][:5]),
                               res["attempted"], res["failed"])
            if rec is not None and rec[1] is not None and res["verdict_digest"] != rec[1]:
                raise Mismatch(f"round {rnd}: verdict digest {res['verdict_digest'][:12]} != recorded {rec[1][:12]}",
                               res["attempted"])

    def canary(self) -> None:
        """For a seed with no recorded digests, check that the package still
        builds the recorded inputs for the canary seed."""
        if self.workload not in SEEDED or self.recorded(0) is not None or not self.expected:
            return
        res = self.child("setup", 0, seed=CANARY_SEED)
        if res["input_digest"] != self.expected["rounds"][f"{CANARY_SEED}/0"][0]:
            raise Mismatch("the package generates different inputs for the canary seed than at the "
                           "recording commit; this run is not comparable")

    # -- the two kinds of run -----------------------------------------------------------
    def end_to_end(self, rounds: int) -> tuple[dict, dict, dict]:
        self.canary()
        results = []
        for rnd in range(rounds):
            res = self.child("plain", rnd)
            self.gate(rnd, res)
            results.append(res)
        setups = results[:]
        for rnd in range(rounds, 1 if self.smoke else max(rounds, SETUP_SAMPLES)):
            res = self.child("setup", rnd)
            self.gate(rnd, res)
            setups.append(res)
        items = [t for r in results for t in r["item_s"]]
        raw_items = [t for r in results for t in r["item_raw_s"]]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "item_p50_ms": statistics.median(items) * 1e3,
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        extra = {
            "failed_ratio": failed / attempted,
            "items": len(items),
            "wall_raw_s": statistics.median(r["wall_raw_s"] for r in results),
            "item_p50_raw_ms": statistics.median(raw_items) * 1e3,
            "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups),
            "speed_factor": statistics.median(r["speed_factor"] for r in results),
        }
        t = tail(items)
        if t is not None:
            extra["item_tail_percentile"] = t[0]
            extra["item_tail_ms"] = t[1] * 1e3
            extra["item_tail_raw_ms"] = tail(raw_items)[1] * 1e3
        keep = ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "speed_factor", "speed_samples",
                "peak_rss_mb", "attempted", "failed", "input_digest", "verdict_digest", "sizes")
        record = {
            "rounds": [{k: r[k] for k in keep if k in r} for r in setups],
            "attempted": attempted,
            "failed": failed,
        }
        return metrics, extra, record

    def traced(self) -> tuple[dict, dict]:
        self.canary()
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{self.workload}-{self.seed}.bin"
        plain = self.child("plain", 0)
        traced = self.child("trace", 0, spans=str(spans))
        counted = self.child("gf", 0)
        for res in (plain, traced, counted):
            self.gate(0, res)
        if not plain["verdict_digest"] == traced["verdict_digest"] == counted["verdict_digest"]:
            raise Mismatch("the traced round gave other verdicts than the untraced round")
        metrics = dict(traced["layers"])
        metrics.update(counted["layers"])
        metrics["trace.untraced_wall_s"] = plain["wall_raw_s"]
        metrics["trace.traced_wall_s"] = traced["wall_raw_s"]
        metrics["trace.overhead_s"] = traced["wall_raw_s"] - plain["wall_raw_s"]
        record = {"rounds": [{k: r[k] for k in ("wall_raw_s", "attempted", "failed", "input_digest",
                                                "verdict_digest", "sizes")} for r in (plain, traced, counted)],
                  "spans_file": str(spans.relative_to(ROOT)),
                  "attempted": plain["attempted"], "failed": plain["failed"]}
        return metrics, record


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "soclelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round: checks names and plumbing")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "soclelab" / "__init__.py").is_file():
        print(f"error: no soclelab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.smoke)
    rounds = 1 if args.smoke else max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    try:
        if args.trace:
            metrics, record = runner.traced()
            extra = {}
        else:
            metrics, extra, record = runner.end_to_end(rounds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Mismatch as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}))
        return 1

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "metrics": metrics, "reported": extra,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed}{'' if args.workload in SEEDED else ' (ignored: fixed inputs)'} "
          f"trace={args.trace} sha={record['git_sha'][:12]} python={record['python']} nproc={record['nproc']} "
          f"inputs/round={json.dumps(record['rounds'][0]['sizes'], sort_keys=True)}")
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit_of(name)}")
    if not args.trace:
        print(f"failed_ratio = {extra['failed_ratio']:.6g} ratio ({record['failed']} of {record['attempted']} items)")
        if "item_tail_ms" in extra:
            print(f"item_tail_ms = {extra['item_tail_ms']:.6g} ms (p{extra['item_tail_percentile']} "
                  f"of {extra['items']} items; raw {extra['item_tail_raw_ms']:.6g} ms)")
        else:
            print(f"item_tail_ms: not defined ({extra['items']} items; needs 11 or more)")
        print(f"wall_raw_s = {extra['wall_raw_s']:.6g} s, item_p50_raw_ms = {extra['item_p50_raw_ms']:.6g} ms, "
              f"setup_raw_s = {extra['setup_raw_s']:.6g} s (unscaled; speed_factor {extra['speed_factor']:.4g})")
    result = {
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
