"""Command-line front end: JSON I/O, verdict taxonomy, reproduce driver.

Exit codes separate "the math said no" from "the program broke":
  0  checks passed
  1  legitimate mathematical negative (e.g. the inequality fails over a
     small field, which is the point of those examples)
  2  input error
  3  enumeration budget exhausted
  4  theorem violation: a proved statement failed on an instance (a bug)
  5  internal error: any other exception (a bug), reported as one record
     naming the exception type, with its traceback on stderr

Reports are JSON lines on stdout; --pretty renders a human table after
them.  Output is byte-identical for identical inputs and seeds; wall-clock
timing is attached only when --timing is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from .budget import Budget, default_budget
from .errors import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_PASS,
    EXIT_VIOLATION,
    BudgetExceeded,
    InputError,
    SocleLabError,
    TheoremViolation,
)
from .gf import field_of_order

VERDICT_EXIT = {
    "pass": EXIT_PASS,
    "counterexample": EXIT_NEGATIVE,
    "input-error": EXIT_INPUT,
    "budget": EXIT_BUDGET,
    "violation": EXIT_VIOLATION,
    "internal-error": EXIT_INTERNAL,
}
# precedence when aggregating many items into one exit code
_SEVERITY = ("violation", "input-error", "budget", "counterexample", "pass")


def _sha256_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")


class Reporter:
    def __init__(self, args):
        self.pretty = args.pretty
        self.timing = args.timing
        self.started = time.monotonic()

    def emit(self, command: str, verdict: str, details, inputs=None):
        record = {"command": command, "inputs": inputs or {}, "verdict": verdict, "details": details}
        if self.timing:
            record["timing"] = round(time.monotonic() - self.started, 3)
        print(json.dumps(record, sort_keys=True))

    def table(self, rows, headers):
        if not self.pretty:
            return
        widths = [max(len(str(r[i])) for r in rows + [headers]) for i in range(len(headers))]
        fmt = "  ".join("{:<%d}" % w for w in widths)
        print(fmt.format(*headers), file=sys.stderr)
        print("  ".join("-" * w for w in widths), file=sys.stderr)
        for r in rows:
            print(fmt.format(*[str(x) for x in r]), file=sys.stderr)


def _aggregate_exit(verdicts) -> int:
    for level in _SEVERITY:
        if level in verdicts:
            return VERDICT_EXIT[level]
    return EXIT_PASS


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cover_check(args, reporter: Reporter, budget: Budget) -> int:
    from .tensorcover import TensorSubspace, check_bound

    data = _load_json(args.file)
    ts = TensorSubspace.from_json(data)
    # check_bound raises TheoremViolation when the conditions hold yet the
    # bound fails, so a returned report is always a pass
    report = check_bound(ts, check_minimality=args.minimal, budget=budget)
    verdict = "pass"
    reporter.emit("cover check", verdict, report.to_json(), {args.file: _sha256_file(args.file)})
    reporter.table(
        [["conditions", report.both_hold], ["dim", report.dim_A],
         ["bound", report.m + report.n - 1], ["minimal", report.minimal]],
        ["key", "value"],
    )
    return VERDICT_EXIT[verdict]


def _cmd_cover_search(args, reporter: Reporter, budget: Budget) -> int:
    from .tensorcover import search_minimal

    field = field_of_order(args.q)
    result = search_minimal(args.m, args.n, field, budget)
    verdict = "pass" if result.complete else "budget"
    reporter.emit("cover search-minimal", verdict, result.to_json())
    reporter.table(
        [[t.dim, json.dumps(t.to_json())[:60]] for t in result.minimal],
        ["dim", "subspace"],
    )
    return VERDICT_EXIT[verdict]


def _cmd_algebra_analyze(args, reporter: Reporter, budget: Budget) -> int:
    from .algebra import (
        Algebra,
        improved_bound,
        radical_bruteforce,
        socle_graph,
        socle_is_central,
        socles,
    )
    from .errors import NotSplitError

    data = _load_json(args.file)
    alg = Algebra.from_json(data)
    details: dict = {"dim": alg.dim, "field": alg.field.to_json()}
    radical = alg.radical(budget)
    details["radical_dim"] = radical.dim
    if args.oracle:
        brute = radical_bruteforce(alg, budget)
        details["radical_oracle_agrees"] = brute == radical
        if not details["radical_oracle_agrees"]:
            reporter.emit("algebra analyze", "violation", details, {args.file: _sha256_file(args.file)})
            return EXIT_VIOLATION
    st = socles(alg, budget)
    details["socle_dims"] = {"left": st.left.dim, "right": st.right.dim, "twosided": st.twosided.dim}
    details["socle_central"] = socle_is_central(alg, budget)
    try:
        graph = socle_graph(alg, budget)
        soc_len = graph.socle_bimodule_length
        details["blocks"] = [{"n": b.n} for b in alg.blocks()]
        details["socle_graph"] = graph.to_json()
        details["socle_bimodule_length"] = soc_len
        details["improved_bound_rhs"] = improved_bound(graph, soc_len)
    except NotSplitError:
        details["blocks"] = "not split-certified"
    reporter.emit("algebra analyze", "pass", details, {args.file: _sha256_file(args.file)})
    reporter.table([[k, json.dumps(v)] for k, v in details.items()], ["key", "value"])
    return EXIT_PASS


def _resolve_module(args) -> "object":
    from .algebra import Algebra
    from .modrep import ModuleRep

    data = _load_json(args.file)
    if not isinstance(data, dict):
        raise InputError(f"{args.file} does not hold a JSON object")
    if isinstance(data.get("module"), dict):
        # the shape `gallery make row-diagonal-module` writes: {"algebra", "module"}
        outer, data = data, dict(data["module"])
        if "algebra" in outer:
            data.setdefault("algebra", outer["algebra"])
    algebra = None
    if "algebra_ref" in data:
        if not isinstance(data["algebra_ref"], str):
            raise InputError(f"algebra_ref must be a path string, got {data['algebra_ref']!r}")
        ref = Path(args.file).parent / data["algebra_ref"]
        algebra = Algebra.from_json(_load_json(str(ref)))
    return ModuleRep.from_json(data, algebra)


def _cmd_module_check(args, reporter: Reporter, budget: Budget) -> int:
    from .modrep import module_report

    mod = _resolve_module(args)
    report = module_report(mod, budget)
    ineq = report.inequality
    if ineq is not None and not ineq["holds"]:
        verdict = "counterexample"
    else:
        verdict = "pass"
    reporter.emit("module check", verdict, report.to_json(), {args.file: _sha256_file(args.file)})
    reporter.table([[k, json.dumps(v)] for k, v in report.to_json().items()], ["key", "value"])
    return VERDICT_EXIT[verdict]


def _cmd_module_shrink(args, reporter: Reporter, budget: Budget) -> int:
    from .modrep import shrink_quotient, shrink_subfactor, shrink_submodule, top_socle

    mod = _resolve_module(args)
    op = {"sub": shrink_submodule, "quot": shrink_quotient, "subfactor": shrink_subfactor}[args.mode]
    shrunk = op(mod, budget)
    ts = top_socle(shrunk, budget)
    details = {
        "mode": args.mode,
        "input_dim": mod.dim,
        "output_dim": shrunk.dim,
        "top_length": ts.top_length,
        "socle_length": ts.socle_length,
        "module": shrunk.to_json(),
    }
    reporter.emit("module shrink", "pass", details, {args.file: _sha256_file(args.file)})
    return EXIT_PASS


def _cmd_system_check(args, reporter: Reporter, budget: Budget) -> int:
    from .strongness import BilinearSystem, prop41_check

    sys_obj = BilinearSystem.from_json(_load_json(args.file))
    report = prop41_check(sys_obj, budget)
    verdict = "pass" if report.holds else "counterexample"
    reporter.emit("system check", verdict, report.to_json(), {args.file: _sha256_file(args.file)})
    reporter.table(
        [["lhs", report.lhs], ["rhs", report.rhs], ["holds", report.holds],
         ["hypotheses", json.dumps(report.hypotheses_met)]],
        ["key", "value"],
    )
    return VERDICT_EXIT[verdict]


def _parse_block(spec: str | None, sys_obj) -> tuple[int | None, int | None]:
    """--block "f,e", "f" or ",e": a codomain block f and a domain block e,
    each an index within the system's block counts."""
    if spec is None:
        return None, None
    parts = spec.split(",")
    if len(parts) > 2:
        raise InputError(f"--block takes f,e, f or ,e, got {spec!r}")
    picked = [None, None]
    for k, (text, blocks, kind) in enumerate(zip(parts, (sys_obj.t_blocks, sys_obj.s_blocks), ("codomain", "domain"))):
        if text == "":
            continue
        try:
            index = int(text)
        except ValueError:
            raise InputError(f"--block takes integer block indices, got {spec!r}") from None
        if not 0 <= index < len(blocks):
            raise InputError(f"--block {kind} block {index} out of range: the system has {len(blocks)}")
        picked[k] = index
    return picked[0], picked[1]


def _positive_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise InputError(f"--N must be a positive rational, got {text!r}")
    return value


def _cmd_system_strong(args, reporter: Reporter, budget: Budget) -> int:
    from .exactla import Subspace
    from .strongness import BilinearSystem, _side_block, n_strong, relative_n_strong

    sys_obj = BilinearSystem.from_json(_load_json(args.file))
    n_value = _positive_rational(args.N)
    f, e = _parse_block(args.block, sys_obj)
    if args.relative:
        if args.side != "left":
            raise InputError("--relative is only implemented for --side left")
        mult = sys_obj.t_blocks[_side_block(sys_obj, "left", f, e)].mult
        target = Subspace.full(sys_obj.field, mult)
        strong = relative_n_strong(sys_obj, n_value, target, t_block=f, s_block=e, budget=budget)
        details = {"relative": True, "side": args.side, "N": str(n_value), "strong": strong}
        reporter.emit("system strong", "pass" if strong else "counterexample", details,
                      {args.file: _sha256_file(args.file)})
        return EXIT_PASS if strong else EXIT_NEGATIVE
    report = n_strong(sys_obj, args.side, n_value, t_block=f, s_block=e, budget=budget)
    verdict = "pass" if report.strong else "counterexample"
    reporter.emit("system strong", verdict, report.to_json(), {args.file: _sha256_file(args.file)})
    return VERDICT_EXIT[verdict]


def _cmd_gallery_list(args, reporter: Reporter, budget: Budget) -> int:
    from .gallery import GALLERY, gallery_params

    details = {}
    for name, (description, build) in GALLERY.items():
        names = " ".join(gallery_params(build))
        details[name] = f"{description} (params {names})" if names else description
    reporter.emit("gallery list", "pass", details)
    reporter.table(sorted(details.items()), ["name", "description"])
    return EXIT_PASS


_FLAGS = {"0": False, "1": True, "false": False, "true": True}


def _gallery_params(name: str, allowed: dict, pairs) -> dict:
    """The key=value parameters of a gallery item, each checked against the
    item's parameters and defaults: one with a bool default takes 0, 1,
    false or true, every other one an integer.  A key may be given once."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"gallery parameters look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in allowed:
            takes = ", ".join(allowed) if allowed else "no parameters"
            raise InputError(f"gallery item {name!r} has no parameter {key!r} (it takes {takes})")
        if key in out:
            raise InputError(f"gallery parameter {key} is given more than once")
        if isinstance(allowed[key], bool):
            if value not in _FLAGS:
                raise InputError(f"{key} must be 0, 1, false or true, got {value!r}")
            out[key] = _FLAGS[value]
        elif re.fullmatch(r"-?[0-9]+", value):
            out[key] = int(value)
        else:
            raise InputError(f"gallery parameter {key} must be an integer, got {value!r}")
    return out


def _cmd_gallery_make(args, reporter: Reporter, budget: Budget) -> int:
    from .gallery import GALLERY, gallery_make, gallery_params

    if args.name not in GALLERY:
        raise InputError(f"unknown gallery item {args.name!r}; run `gallery list`")
    _description, build = GALLERY[args.name]
    obj_json = gallery_make(build, _gallery_params(args.name, gallery_params(build), args.params), budget)
    if args.out:
        Path(args.out).write_text(json.dumps(obj_json, indent=2, sort_keys=True))
        reporter.emit("gallery make", "pass", {"name": args.name, "written": args.out})
    else:
        reporter.emit("gallery make", "pass", {"name": args.name, "object": obj_json})
    return EXIT_PASS


def _cmd_reproduce(args, reporter: Reporter, budget: Budget) -> int:
    from .reproduce import run_target

    items = run_target(args.target, seed=args.seed, budget=budget)
    verdicts = {item["verdict"] for item in items}
    ok = all(item["ok"] for item in items)
    bundle = {
        "target": args.target,
        "seed": args.seed,
        "ok": ok,
        "items": items,
    }
    out_path = args.out or f"soclelab-reproduce-{args.target}.json"
    Path(out_path).write_text(json.dumps(bundle, indent=2, sort_keys=True))
    for item in items:
        reporter.emit(f"reproduce {args.target}", item["verdict"],
                      {"name": item["name"], "ok": item["ok"], **item["details"]})
    reporter.table(
        [[item["name"], item["verdict"], "ok" if item["ok"] else "MISMATCH"] for item in items],
        ["battery", "verdict", "expectation"],
    )
    if not ok:
        return EXIT_VIOLATION
    return _aggregate_exit(verdicts)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_strong_arguments(parser: argparse.ArgumentParser):
    """The arguments of `system strong`, shared by its `strong` alias."""
    parser.add_argument("file")
    parser.add_argument("--side", choices=("left", "right"), required=True)
    parser.add_argument("--N", required=True, help="positive rational, e.g. 2 or 2/3")
    parser.add_argument("--block", default=None, help="f,e to pick one corner; f alone for a block row")
    parser.add_argument("--relative", action="store_true",
                        help="experimental, left side only: recursive relative strength against the full codomain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soclelab",
        description="Exact-arithmetic verification toolkit over small finite fields.",
    )
    parser.add_argument("--budget", type=int, default=None, help="enumeration cap override")
    parser.add_argument("--pretty", action="store_true", help="render a human table after the JSON lines")
    parser.add_argument("--timing", action="store_true", help="attach wall-clock timing to reports")
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="tensor-subspace coverage checks")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    cc = cover_sub.add_parser("check", help="coverage conditions and the dimension bound")
    cc.add_argument("file")
    cc.add_argument("--minimal", action="store_true", help="also decide hyperplane-minimality")
    cs = cover_sub.add_parser("search-minimal", help="exhaustive search for minimal satisfying subspaces")
    cs.add_argument("--m", type=int, required=True)
    cs.add_argument("--n", type=int, required=True)
    cs.add_argument("--q", type=int, required=True, help="field size (a prime power up to 9)")

    alg = sub.add_parser("algebra", help="algebra structure analysis")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    aa = alg_sub.add_parser("analyze", help="radical, socles, blocks, graph, bounds")
    aa.add_argument("file")
    aa.add_argument("--oracle", action="store_true", help="cross-check the radical by exhaustive scan")

    mod = sub.add_parser("module", help="module checks and shrinking")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    mc = mod_sub.add_parser("check", help="faithfulness, lengths, minimality, inequality")
    mc.add_argument("file")
    ms = mod_sub.add_parser("shrink", help="faithful submodule/quotient/subfactor with bounded lengths")
    ms.add_argument("file")
    ms.add_argument("--mode", choices=("sub", "quot", "subfactor"), required=True)

    system = sub.add_parser("system", help="bilinear-system checks")
    system_sub = system.add_subparsers(dest="subcommand", required=True)
    sc = system_sub.add_parser("check", help="full length-inequality report")
    sc.add_argument("file")
    _add_strong_arguments(system_sub.add_parser("strong", help="N-strength of a map set"))
    _add_strong_arguments(sub.add_parser("strong", help="alias for `system strong`"))

    gallery = sub.add_parser("gallery", help="certified example constructors")
    gallery_sub = gallery.add_subparsers(dest="subcommand", required=True)
    gallery_sub.add_parser("list", help="list the available constructions")
    gm = gallery_sub.add_parser("make", help="build one construction as JSON")
    gm.add_argument("name")
    gm.add_argument("params", nargs="*", help="key=value parameters")
    gm.add_argument("-o", "--out", default=None)

    rep = sub.add_parser("reproduce", help="run a verification battery")
    rep.add_argument("target", help="paper-2 | paper-4 | paper-5.1 | paper-6 | all")
    rep.add_argument("--seed", type=int, default=20260808, help="seed for the randomized batteries")
    rep.add_argument("--out", default=None, help="bundle path (default soclelab-reproduce-<target>.json)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reporter = Reporter(args)
    dispatch = {
        ("cover", "check"): _cmd_cover_check,
        ("cover", "search-minimal"): _cmd_cover_search,
        ("algebra", "analyze"): _cmd_algebra_analyze,
        ("module", "check"): _cmd_module_check,
        ("module", "shrink"): _cmd_module_shrink,
        ("system", "check"): _cmd_system_check,
        ("system", "strong"): _cmd_system_strong,
        ("strong", None): _cmd_system_strong,
        ("gallery", "list"): _cmd_gallery_list,
        ("gallery", "make"): _cmd_gallery_make,
        ("reproduce", None): _cmd_reproduce,
    }
    key = (args.command, getattr(args, "subcommand", None))
    handler = dispatch.get(key)
    if handler is None:
        parser.error(f"unknown command {key}")
    # an error record names the command as the handler's success record does
    command = "system strong" if key == ("strong", None) else " ".join(part for part in key if part)
    if key == ("reproduce", None):
        command = f"reproduce {args.target}"
    try:
        if args.budget is not None:
            budget = Budget.of_cap(args.budget)
        else:
            budget = default_budget()
        return handler(args, reporter, budget)
    except BudgetExceeded as exc:
        reporter.emit(command, "budget", {"error": str(exc)})
        return EXIT_BUDGET
    except TheoremViolation as exc:
        reporter.emit(command, "violation", {"error": str(exc)})
        return EXIT_VIOLATION
    except SocleLabError as exc:
        reporter.emit(command, "input-error", {"error": str(exc)})
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()  # to stderr, so stdout keeps its one record
        reporter.emit(command, "internal-error", {"error": str(exc), "exception": type(exc).__name__})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
