"""Command-line front end: JSON I/O, verdict taxonomy, reproduce driver.

Exit codes separate "the math said no" from "the program broke":
  0  checks passed
  1  legitimate mathematical negative (e.g. the inequality fails over a
     small field, which is the point of those examples)
  2  input error, an unreadable input file or an empty or unwritable
     -o/--out path among them
  3  enumeration budget exhausted
  4  theorem violation: a proved statement failed on an instance (a bug)
  5  internal error: any other exception (a bug), reported as one record
     naming the exception type, with its traceback on stderr

Reports are JSON lines on stdout; --pretty renders a human table after
them.  Output is byte-identical for identical inputs and seeds; wall-clock
timing is attached only when --timing is passed.

Each command only computes its records; one runner, `main`, builds the
run's one budget, hashes every input file as the command reads it, emits
the records under the command's name and exits by the most severe verdict.
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

from . import algebra, gallery, modrep, reproduce, strongness, tensorcover
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
    NotSplitError,
    SocleLabError,
    TheoremViolation,
    decoding,
    json_keys,
)
from .exactla import Subspace
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


def _read_input(path: str, inputs: dict) -> object:
    """The JSON an input file holds as UTF-8 text, from one read of its
    bytes, whose sha256 goes into inputs under path; a file that cannot be
    read or decoded is an input error."""
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None
    inputs[path] = hashlib.sha256(raw).hexdigest()
    return data


def _write_output(path: str, obj) -> None:
    """Write obj as indented JSON; a path that cannot be written is an input error."""
    try:
        Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


class Reporter:
    def __init__(self, args):
        self.pretty = args.pretty
        self.timing = args.timing
        self.started = time.monotonic()

    def emit(self, command: str, verdict: str, details, inputs: dict):
        record = {"command": command, "inputs": inputs, "verdict": verdict, "details": details}
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
# commands: each takes (args, the run's inputs, budget), reads its input files
# with _read_input(path, inputs) and returns its records
# [(verdict, details), ...] and a --pretty table (rows, headers) or None
# ---------------------------------------------------------------------------

def _cmd_cover_check(args, inputs, budget: Budget):
    ts = tensorcover.TensorSubspace.from_json(_read_input(args.file, inputs))
    # check_bound raises TheoremViolation when the conditions hold yet the
    # bound fails, so a returned report is always a pass
    report = tensorcover.check_bound(ts, check_minimality=args.minimal, budget=budget)
    rows = [["conditions", report.both_hold], ["dim", report.dim_A],
            ["bound", report.m + report.n - 1], ["minimal", report.minimal]]
    return [("pass", report.to_json())], (rows, ["key", "value"])


def _cmd_cover_search(args, inputs, budget: Budget):
    field = field_of_order(args.q)
    result = tensorcover.search_minimal(args.m, args.n, field, budget)
    verdict = "pass" if result.complete else "budget"
    rows = [[t.dim, json.dumps(t.to_json())[:60]] for t in result.minimal]
    return [(verdict, result.to_json())], (rows, ["dim", "subspace"])


def _cmd_algebra_analyze(args, inputs, budget: Budget):
    alg = algebra.Algebra.from_json(_read_input(args.file, inputs))
    details: dict = {"dim": alg.dim, "field": alg.field.to_json()}
    radical = alg.radical(budget)
    details["radical_dim"] = radical.dim
    if args.oracle:
        brute = algebra.radical_bruteforce(alg, budget)
        details["radical_oracle_agrees"] = brute == radical
        if not details["radical_oracle_agrees"]:
            return [("violation", details)], None
    st = algebra.socles(alg, budget)
    details["socle_dims"] = {"left": st.left.dim, "right": st.right.dim, "twosided": st.twosided.dim}
    details["socle_central"] = algebra.socle_is_central(alg, budget)
    try:
        graph = algebra.socle_graph(alg, budget)
        details["blocks"] = [{"n": b.n} for b in alg.blocks()]
        details["socle_graph"] = graph.to_json()
        details["socle_bimodule_length"] = graph.socle_bimodule_length
        details["improved_bound_rhs"] = algebra.improved_bound(graph)
    except NotSplitError:
        details["blocks"] = "not split-certified"
    return [("pass", details)], ([[k, json.dumps(v)] for k, v in details.items()], ["key", "value"])


def _resolve_module(args, inputs) -> modrep.ModuleRep:
    data = _read_input(args.file, inputs)
    if not isinstance(data, dict):
        raise InputError(f"{args.file} does not hold a JSON object")
    if isinstance(data.get("module"), dict):
        # the shape `gallery make row-diagonal-module` writes: {"algebra", "module"}
        with decoding("module file", data):
            json_keys(data, ("algebra", "module"))
            outer, data = data, dict(data["module"])
            if "algebra" in outer and data.setdefault("algebra", outer["algebra"]) != outer["algebra"]:
                raise ValueError("'algebra' differs from the module's own 'algebra'")
    ring = None
    if "algebra_ref" in data:
        if not isinstance(data["algebra_ref"], str):
            raise InputError(f"algebra_ref must be a path string, got {data['algebra_ref']!r}")
        ring = algebra.Algebra.from_json(_read_input(str(Path(args.file).parent / data["algebra_ref"]), inputs))
    return modrep.ModuleRep.from_json(data, ring)


def _cmd_module_check(args, inputs, budget: Budget):
    report = modrep.module_report(_resolve_module(args, inputs), budget)
    ineq = report.inequality
    verdict = "counterexample" if ineq is not None and not ineq["holds"] else "pass"
    details = report.to_json()
    return [(verdict, details)], ([[k, json.dumps(v)] for k, v in details.items()], ["key", "value"])


def _cmd_module_shrink(args, inputs, budget: Budget):
    mod = _resolve_module(args, inputs)
    op = {"sub": modrep.shrink_submodule, "quot": modrep.shrink_quotient, "subfactor": modrep.shrink_subfactor}
    shrunk = op[args.mode](mod, budget)
    ts = modrep.top_socle(shrunk, budget)
    details = {
        "mode": args.mode,
        "input_dim": mod.dim,
        "output_dim": shrunk.dim,
        "top_length": ts.top_length,
        "socle_length": ts.socle_length,
        "module": shrunk.to_json(),
    }
    return [("pass", details)], None


def _cmd_system_check(args, inputs, budget: Budget):
    sys_obj = strongness.BilinearSystem.from_json(_read_input(args.file, inputs))
    report = strongness.prop41_check(sys_obj, budget)
    verdict = "pass" if report.holds else "counterexample"
    rows = [["lhs", report.lhs], ["rhs", report.rhs], ["holds", report.holds],
            ["hypotheses", json.dumps(report.hypotheses_met)]]
    return [(verdict, report.to_json())], (rows, ["key", "value"])


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


def _cmd_system_strong(args, inputs, budget: Budget):
    sys_obj = strongness.BilinearSystem.from_json(_read_input(args.file, inputs))
    n_value = _positive_rational(args.N)
    f, e = _parse_block(args.block, sys_obj)
    if args.relative:
        if args.side != "left":
            raise InputError("--relative is only implemented for --side left")
        mult = sys_obj.t_blocks[strongness._side_block(sys_obj, "left", f, e)].mult
        target = Subspace.full(sys_obj.field, mult)
        strong = strongness.relative_n_strong(sys_obj, n_value, target, t_block=f, s_block=e, budget=budget)
        details = {"relative": True, "side": args.side, "N": str(n_value), "strong": strong}
        return [("pass" if strong else "counterexample", details)], None
    report = strongness.n_strong(sys_obj, args.side, n_value, t_block=f, s_block=e, budget=budget)
    return [("pass" if report.strong else "counterexample", report.to_json())], None


def _cmd_gallery_list(args, inputs, budget: Budget):
    details = {}
    for name, (description, build) in gallery.GALLERY.items():
        names = " ".join(gallery.gallery_params(build))
        details[name] = f"{description} (params {names})" if names else description
    return [("pass", details)], (sorted(details.items()), ["name", "description"])


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


def _cmd_gallery_make(args, inputs, budget: Budget):
    if args.name not in gallery.GALLERY:
        raise InputError(f"unknown gallery item {args.name!r}; run `gallery list`")
    _description, build = gallery.GALLERY[args.name]
    params = _gallery_params(args.name, gallery.gallery_params(build), args.params)
    obj_json = gallery.gallery_make(build, params, budget)
    if args.out:
        _write_output(args.out, obj_json)
        return [("pass", {"name": args.name, "written": args.out})], None
    return [("pass", {"name": args.name, "object": obj_json})], None


def _cmd_reproduce(args, inputs, budget: Budget):
    items = reproduce.run_target(args.target, seed=args.seed, budget=budget)
    bundle = {"target": args.target, "seed": args.seed, "ok": all(item["ok"] for item in items), "items": items}
    _write_output(args.out or f"soclelab-reproduce-{args.target}.json", bundle)
    # an item that missed its expectation has the verdict "violation", so a
    # bundle that is not ok exits 4
    records = [(item["verdict"], {"name": item["name"], "ok": item["ok"], **item["details"]}) for item in items]
    rows = [[item["name"], item["verdict"], "ok" if item["ok"] else "MISMATCH"] for item in items]
    return records, (rows, ["battery", "verdict", "expectation"])


COMMANDS = {
    ("cover", "check"): _cmd_cover_check,
    ("cover", "search-minimal"): _cmd_cover_search,
    ("algebra", "analyze"): _cmd_algebra_analyze,
    ("module", "check"): _cmd_module_check,
    ("module", "shrink"): _cmd_module_shrink,
    ("system", "check"): _cmd_system_check,
    ("system", "strong"): _cmd_system_strong,
    ("gallery", "list"): _cmd_gallery_list,
    ("gallery", "make"): _cmd_gallery_make,
    ("reproduce", None): _cmd_reproduce,
}


# ---------------------------------------------------------------------------
# argument parsing and the runner
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
    alias = sub.add_parser("strong", help="alias for `system strong`")
    alias.set_defaults(command="system", subcommand="strong")
    _add_strong_arguments(alias)

    gal = sub.add_parser("gallery", help="certified example constructors")
    gallery_sub = gal.add_subparsers(dest="subcommand", required=True)
    gallery_sub.add_parser("list", help="list the available constructions")
    gm = gallery_sub.add_parser("make", help="build one construction as JSON")
    gm.add_argument("name")
    gm.add_argument("params", nargs="*", help="key=value parameters")
    gm.add_argument("-o", "--out", default=None)

    rep = sub.add_parser("reproduce", help="run a verification battery")
    rep.add_argument("target", help=" | ".join(reproduce.TARGETS))
    rep.add_argument("--seed", type=int, default=reproduce.SEED, help="seed for the randomized batteries")
    rep.add_argument("--out", default=None, help="bundle path (default soclelab-reproduce-<target>.json)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    reporter = Reporter(args)
    key = (args.command, getattr(args, "subcommand", None))
    # every record of a run, an error record too, carries this one name
    command = " ".join(part for part in (*key, getattr(args, "target", None)) if part)
    # every record of a run, an error record too, names the inputs read so far
    inputs: dict[str, str] = {}
    try:
        # the run's one budget: no library call reads SOCLELAB_BUDGET
        budget = Budget.of_cap(args.budget) if args.budget is not None else default_budget()
        if getattr(args, "out", None) == "":
            raise InputError("--out needs a file path, got an empty string")
        records, table = COMMANDS[key](args, inputs, budget)
        for verdict, details in records:
            reporter.emit(command, verdict, details, inputs)
        if table is not None:
            reporter.table(*table)
        return _aggregate_exit({verdict for verdict, _details in records})
    except BudgetExceeded as exc:
        verdict, details = "budget", {"error": str(exc)}
    except TheoremViolation as exc:
        verdict, details = "violation", {"error": str(exc)}
    except SocleLabError as exc:
        verdict, details = "input-error", {"error": str(exc)}
    except Exception as exc:
        traceback.print_exc()  # to stderr, so stdout keeps its one record
        verdict, details = "internal-error", {"error": str(exc), "exception": type(exc).__name__}
    reporter.emit(command, verdict, details, inputs)
    return VERDICT_EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
