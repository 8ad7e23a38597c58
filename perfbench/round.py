"""One round of one workload, in a process of its own.

    python3 perfbench/round.py --workload NAME --seed N --round R --mode MODE [--smoke] [--spans PATH]

MODE is `setup` (build the inputs only), `plain` (build, then the measured
loop), `trace` (the loop under the span tracer) or `gf` (the loop with the
field's scalar operations counted).  The last line of stdout is one JSON
object: set-up time, input digest and sizes, and for the other modes the
round's wall time, per-item times, verdict digest, failures, layer metrics
and peak RSS.  In `setup` and `plain` rounds every time is given raw
(`*_raw_s`) and rescaled to the reference CPU speed (see speed.py).
`run.py` starts these processes one at a time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("errors", "budget", "gf", "exactla", "algebra", "strongness", "modrep",
           "corpus", "tensorcover", "gallery")


def import_soclelab() -> dict:
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sl = {name: importlib.import_module(f"soclelab.{name}") for name in MODULES}
    origin = Path(sl["gf"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"soclelab imported from {origin}, not from {src}")
    return sl


def run_round(workload: str, seed: int, rnd: int, mode: str, smoke: bool = False,
              spans: str | None = None) -> dict:
    sys.path.insert(0, str(HERE))
    from speed import ItemTimer, SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS, digest_of

    build, run, check = WORKLOADS[workload]
    # the speed probe runs only in untraced rounds: traced times are raw
    probe = SpeedProbe() if mode in ("setup", "plain") else None
    if probe is not None:
        probe.start()
        probe.sample(5)
    clock = probe.clock if probe is not None else time.perf_counter
    t0, w0 = clock(), time.perf_counter()
    sl = import_soclelab()
    inputs = build(sl, seed, rnd, smoke)
    t1, w1 = clock(), time.perf_counter()
    out = {"setup_raw_s": t1 - t0, "input_digest": inputs.digest, "sizes": inputs.sizes}
    if probe is not None:
        probe.sample(5)
        out["setup_s"] = out["setup_raw_s"] * probe.factor(w0, w1)
    if mode == "setup":
        probe.stop()
        return out
    tracer = Tracer(gf_only=(mode == "gf")) if mode in ("trace", "gf") else None
    if tracer is not None:
        tracer.install(sl)
    timer = ItemTimer(probe)
    try:
        t1, w1 = clock(), time.perf_counter()
        verdicts = run(sl, inputs, timer)
        wall, w2 = clock() - t1, time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.sample(5)
            probe.stop()
    failures = check(inputs, verdicts)
    out.update(
        wall_raw_s=wall,
        item_raw_s=timer.raw,
        attempted=len(verdicts),
        failed=min(len(failures), len(verdicts)),
        failures=failures[:20],
        verdict_digest=digest_of(verdicts),
    )
    if probe is not None:
        items = timer.rescaled()
        out["item_s"] = items
        out["wall_s"] = sum(items) + (wall - sum(timer.raw)) * probe.factor(w1, w2)
        out["speed_factor"] = probe.factor(w1, w2)
        out["speed_samples"] = len(probe.loops)
    if tracer is not None:
        layers = tracer.metrics()
        if mode == "trace":
            layers["exactla.rref_rows.self_share"] = layers["exactla.rref_rows.self_s"] / wall
            if spans:
                tracer.write_spans(spans)
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace", "gf"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    out = run_round(args.workload, args.seed, args.round, args.mode, args.smoke, args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
