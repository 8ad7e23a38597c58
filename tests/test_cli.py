import hashlib
import json
import re
from pathlib import Path

import pytest

from soclelab import algebra, modrep, reproduce, tensorcover
from soclelab.cli import VERDICT_EXIT, main
from soclelab.errors import InputError, TheoremViolation
from soclelab.exactla import Mat, Subspace
from soclelab.gallery import make_cross, make_row_diagonal_pair, make_square_zero_extension
from soclelab.gf import field_make
from soclelab.strongness import BilinearSystem, BlockSpec, tensor_maps

from helpers import VERDICT_SEVERITY, check_records


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_gallery(tmp_path, capsys, name, *params):
    target = tmp_path / f"{name}.json"
    code, _ = run(capsys, "gallery", "make", name, *params, "-o", str(target))
    assert code == 0
    return target


def test_cover_check_pass(tmp_path, capsys):
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=2", "q=2")
    code, out = run(capsys, "cover", "check", str(path), "--minimal")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "pass"
    assert record["details"]["dim_A"] == 3
    assert record["details"]["minimal"] is True
    assert str(path) in record["inputs"]


def test_cover_search_minimal(capsys):
    code, out = run(capsys, "cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["details"]["complete"] is True
    assert all(len(t["basis"]) == 3 for t in record["details"]["minimal"])


@pytest.mark.parametrize("m, n", [("0", "2"), ("2", "0"), ("-1", "2")])
def test_cover_search_minimal_rejects_empty_factors(capsys, m, n):
    code, out = run(capsys, "cover", "search-minimal", "--m", m, "--n", n, "--q", "2")
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"
    assert "tensor factors must be nonzero" in record["details"]["error"]


def test_cover_search_budget_exit(capsys):
    code, out = run(capsys, "--budget", "5", "cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2")
    assert code == 3
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "budget"


def test_cover_check_minimal_uses_the_cli_budget(tmp_path, capsys):
    # the 2x2 cross space over F_2 has dim 3, so 7 hyperplanes to test
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=2", "q=2")
    code, out = run(capsys, "--budget", "6", "cover", "check", str(path), "--minimal")
    assert code == 3
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "budget"
    assert "minimality hyperplane enumeration" in record["details"]["error"]
    code, _ = run(capsys, "--budget", "7", "cover", "check", str(path), "--minimal")
    assert code == 0


def test_cover_check_charges_the_points_of_both_sides(tmp_path, capsys):
    # the 2x3 cross space over F_3 has 4 + 13 projective points on its two
    # sides: a cap of 17 gives the uncapped output, 16 stops before the scan
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=3", "q=3")
    uncapped = run(capsys, "cover", "check", str(path))
    assert uncapped[0] == 0
    assert run(capsys, "--budget", "17", "cover", "check", str(path)) == uncapped
    code, out = run(capsys, "--budget", "16", "cover", "check", str(path))
    assert code == 3
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "budget"
    assert record["details"]["error"] == "budget exceeded in coverage point enumeration: needs 17, cap 16"


def test_a_capped_run_names_the_input_it_read(tmp_path, capsys):
    # an error record names the inputs read before the error, as a pass does
    path = write_gallery(tmp_path, capsys, "cross")
    code, out = run(capsys, "--budget", "0", "cover", "check", str(path))
    assert code == 3
    record = json.loads(out)
    assert record["verdict"] == "budget"
    assert record["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def _witness_off_the_space(monkeypatch, field):
    # every witness b (x) c is taken as E_11, which the 2x2 cross space lacks
    ts = make_cross(2, 2, field)  # before the patch: the gallery certifies its space
    monkeypatch.setattr(tensorcover, "rank_one", lambda f, b, c: Mat.unit(f, len(b), len(c), 1, 1))
    return ts


def _conditions_forced_below_the_bound(monkeypatch, field):
    # both conditions reported to hold for a one-dimensional space
    monkeypatch.setattr(tensorcover, "_coverage", lambda *args: tensorcover.CoverageSide(True, [], None))
    return tensorcover.TensorSubspace(field, 2, 2, (Mat.unit(field, 2, 2, 0, 0),))


@pytest.mark.parametrize("force, message", [
    (_witness_off_the_space, "coverage witness failed membership re-check"),
    (_conditions_forced_below_the_bound, "coverage conditions hold but dim 1 < 2+2-1 for m=2, n=2, q=2"),
])
def test_cover_check_reports_each_coverage_violation(tmp_path, capsys, monkeypatch, force, message):
    # tensorcover's two theorem checks: the library raises, and the command
    # exits 4 with one "violation" record naming the failed check
    ts = force(monkeypatch, field_make(2))
    with pytest.raises(TheoremViolation, match="^" + re.escape(message) + "$"):
        tensorcover.check_bound(ts)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(ts.to_json()))
    code, out = run(capsys, "cover", "check", str(path))
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["command"], r["verdict"]) for r in records] == [("cover check", "violation")]
    assert records[0]["details"] == {"error": message}


def test_algebra_analyze(tmp_path, capsys):
    ring, _module = make_row_diagonal_pair()
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring.to_json()))
    code, out = run(capsys, "algebra", "analyze", str(path), "--oracle")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    d = record["details"]
    assert d["radical_dim"] == 3
    assert d["radical_oracle_agrees"] is True
    assert d["socle_bimodule_length"] == 3
    assert d["socle_graph"]["chi"] == 1
    assert d["improved_bound_rhs"] == 4


def test_algebra_analyze_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out = run(capsys, "algebra", "analyze", str(bad))
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"


def _unreadable_input(tmp_path, case):
    """(argv, the path the error names, a piece of its message) for each kind
    of input file that cannot be read as JSON text."""
    if case == "directory":
        return ["cover", "check", str(tmp_path)], str(tmp_path), "cannot read"
    if case == "not-utf8":
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # starts \xff\xfe
        return ["cover", "check", str(path)], str(path), "is not UTF-8 text"
    if case == "utf8-bom":
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf{}")
        return ["cover", "check", str(path)], str(path), "Unexpected UTF-8 BOM"
    (tmp_path / "ring.json").mkdir()
    data = make_row_diagonal_pair()[1].to_json(inline_algebra=False)
    data["algebra_ref"] = "ring.json"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    return ["module", "check", str(path)], str(tmp_path / "ring.json"), "cannot read"


@pytest.mark.parametrize("case", ["directory", "not-utf8", "utf8-bom", "algebra-ref-directory"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, case):
    # one read of the file as UTF-8 text: an OS error or a decoding error is
    # exit 2 with one record naming the path, not an internal error
    argv, named, message = _unreadable_input(tmp_path, case)
    code, out = run(capsys, *argv)
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    # the unreadable file has no hash; a module file read before its algebra_ref has one
    read = {} if argv[2] == named else {argv[2]: hashlib.sha256(Path(argv[2]).read_bytes()).hexdigest()}
    assert (records[0]["command"], records[0]["verdict"], records[0]["inputs"]) \
        == (" ".join(argv[:2]), "input-error", read)
    assert named in records[0]["details"]["error"] and message in records[0]["details"]["error"]


@pytest.mark.parametrize("argv, command", [
    (["gallery", "make", "cross", "-o"], "gallery make"),
    (["reproduce", "paper-5.1", "--out"], "reproduce paper-5.1"),
], ids=["gallery-make", "reproduce"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, monkeypatch, argv, command, target):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path) if target == "directory" else str(tmp_path / "missing" / "x.json")
    code, out = run(capsys, *argv, path)
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert (records[0]["command"], records[0]["verdict"]) == (command, "input-error")
    assert f"cannot write {path}" in records[0]["details"]["error"]


@pytest.mark.parametrize("argv, command", [
    (["gallery", "make", "cross", "-o"], "gallery make"),
    (["reproduce", "paper-5.1", "--out"], "reproduce paper-5.1"),
], ids=["gallery-make", "reproduce"])
def test_empty_output_path_is_an_input_error(tmp_path, capsys, monkeypatch, argv, command):
    # an empty path is not taken as no path: no object on stdout, no bundle
    # under the default name, and no battery run
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(reproduce, "run_target", lambda *a, **k: pytest.fail("batteries ran"))
    code, out = run(capsys, *argv, "")
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert (records[0]["command"], records[0]["verdict"]) == (command, "input-error")
    assert "--out" in records[0]["details"]["error"]
    assert list(tmp_path.iterdir()) == []


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out = run(capsys, "cover", "check", str(path))
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["verdict"] == "input-error"
    assert "nested too deeply" in records[0]["details"]["error"]
    assert str(path) in records[0]["details"]["error"]


def test_module_check_counterexample_exit(tmp_path, capsys):
    _ring, module = make_row_diagonal_pair()
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module.to_json()))
    code, out = run(capsys, "module", "check", str(path))
    assert code == 1
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "counterexample"
    ineq = record["details"]["inequality"]
    assert (ineq["lhs"], ineq["rhs"]) == (5, 4)


def test_module_check_with_algebra_ref(tmp_path, capsys):
    ring, module = make_row_diagonal_pair()
    (tmp_path / "ring.json").write_text(json.dumps(ring.to_json()))
    data = module.to_json(inline_algebra=False)
    data["algebra_ref"] = "ring.json"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "module", "check", str(path))
    assert code == 1
    # both files decide the result, so both are hashed; the ring under the
    # path it was read from, next to the module file
    sha = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (path, tmp_path / "ring.json")}
    assert json.loads(out)["inputs"] == {str(p): digest for p, digest in sha.items()}


def test_module_shrink(tmp_path, capsys):
    _ring, module = make_row_diagonal_pair()
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module.to_json()))
    for mode in ("sub", "quot", "subfactor"):
        code, out = run(capsys, "module", "shrink", str(path), "--mode", mode)
        assert code == 0
        record = json.loads(out.strip().splitlines()[-1])
        assert record["details"]["top_length"] <= 3
        assert record["details"]["socle_length"] <= 3


@pytest.mark.parametrize("mode", ["sub", "quot", "subfactor"])
def test_module_shrink_reports_a_missed_bound_as_a_violation(tmp_path, capsys, monkeypatch, mode):
    # a shrunk module over the bound (here a patched bound of 0) exits 4
    _ring, module = make_row_diagonal_pair()
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module.to_json()))
    monkeypatch.setattr(modrep, "shrink_bound", lambda m, budget: 0)
    code, out = run(capsys, "module", "shrink", str(path), "--mode", mode)
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert [record["verdict"] for record in records] == ["violation"]
    shrunk = "shrunk quotient" if mode == "quot" else "shrunk submodule"  # subfactor shrinks the submodule first
    assert records[0]["details"]["error"].startswith(f"{shrunk} exceeds")


def test_a_failed_local_bound_is_a_violation(tmp_path, capsys, monkeypatch):
    # the regular module of square-zero-extension q=2 g=2 is minimal over a
    # local algebra with central socle, and meets the local bound
    # l(M/JM) + l(soc M) <= l(soc R) + 1 with equality; one more top length
    # fails it, and the bound has no field-size hypothesis
    module = modrep.regular_module(make_square_zero_extension(field_make(2), 2))
    lengths = modrep.top_socle

    def inflated(m, budget):
        ts = lengths(m, budget)
        return modrep.TopSocle(ts.top_length + 1, ts.socle_length)

    monkeypatch.setattr(modrep, "top_socle", inflated)
    message = "local socle bound failed: 2+2 > 2+1"
    with pytest.raises(TheoremViolation, match="^" + re.escape(message) + "$"):
        modrep.local_socle_check(module)
    path = tmp_path / "szr.json"
    path.write_text(json.dumps(module.to_json()))
    code, out = run(capsys, "module", "check", str(path))
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["command"], r["verdict"], r["details"]) for r in records] == \
        [("module check", "violation", {"error": message})]
    assert records[0]["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_system_check_and_strong(tmp_path, capsys):
    path = write_gallery(tmp_path, capsys, "line-cover-system", "q=2", "d=2")
    code, out = run(capsys, "system", "check", str(path))
    assert code == 1
    record = json.loads(out.strip().splitlines()[-1])
    assert record["details"]["lhs"] == 5 and record["details"]["rhs"] == 4

    code2, out2 = run(capsys, "system", "strong", str(path), "--side", "left", "--N", "2", "--block", "0")
    assert code2 == 0
    code3, _ = run(capsys, "system", "strong", str(path), "--side", "left", "--N", "1", "--block", "0,0")
    assert code3 == 1
    # top-level alias
    code4, _ = run(capsys, "strong", str(path), "--side", "left", "--N", "2", "--block", "0")
    assert code4 == 0
    # fractional N parses
    code5, _ = run(capsys, "system", "strong", str(path), "--side", "left", "--N", "2/3", "--block", "0,0")
    assert code5 == 0
    # experimental recursive variant
    code6, _ = run(capsys, "system", "strong", str(path), "--side", "left", "--N", "1",
                   "--block", "0", "--relative")
    assert code6 == 0


def test_relative_strength_picks_the_one_nonzero_codomain_block(tmp_path, capsys):
    # codomain blocks of multiplicity 0 and 2: without --block the relative
    # target is block 1, the only nonzero one, as with --block 1
    field = field_make(2)
    skel = BilinearSystem(field, (BlockSpec(1, 1),), (BlockSpec(1, 0), BlockSpec(1, 2)), (), _skip_verify=True)
    sys_obj = BilinearSystem(field, skel.s_blocks, skel.t_blocks, tuple(tensor_maps(skel, 1, 0, [(1, 0), (0, 1)])))
    path = tmp_path / "t02.json"
    path.write_text(json.dumps(sys_obj.to_json()))
    base = ("system", "strong", str(path), "--side", "left", "--N", "1")
    code, out = run(capsys, *base, "--relative")
    code_block, out_block = run(capsys, *base, "--block", "1", "--relative")
    assert (code, code_block) == (0, 0)
    assert out == out_block


def test_system_entry_out_of_field_range_is_an_input_error(tmp_path, capsys):
    # an entry equal to q is rejected, not reduced to 0
    path = write_gallery(tmp_path, capsys, "line-cover-system", "q=2", "d=2")
    data = json.loads(path.read_text())
    data["a_basis"][0]["entries"][0][0] = 2
    path.write_text(json.dumps(data))
    code, out = run(capsys, "system", "check", str(path))
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"
    assert "out of field range" in record["details"]["error"]


def test_relative_strength_rejects_right_side(tmp_path, capsys):
    # relative strength is only implemented on the left; the right side must not
    # run the left predicate and report "side": "right"
    path = write_gallery(tmp_path, capsys, "line-cover-system", "q=2", "d=2")
    for command in ("system", "strong"), ("strong",):
        code, out = run(capsys, *command, str(path), "--side", "right", "--N", "1",
                        "--block", "0", "--relative")
        assert code == 2
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] == "input-error"
        assert "--side left" in record["details"]["error"]


@pytest.mark.parametrize("flags, message", [
    (["--N", "1", "--block", "x"], "integer block indices"),
    (["--N", "abc"], "--N must be a positive rational"),
    (["--N", "1", "--block", "7"], "codomain block 7 out of range"),
    (["--N", "-1"], "--N must be a positive rational"),
    (["--N", "0"], "--N must be a positive rational"),
])
def test_system_strong_bad_argument_is_an_input_error(tmp_path, capsys, flags, message):
    # line-cover-system q=3 d=2 has one codomain block and four domain blocks
    path = write_gallery(tmp_path, capsys, "line-cover-system", "q=3", "d=2")
    code, out = run(capsys, "system", "strong", str(path), "--side", "left", *flags)
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"
    assert message in record["details"]["error"]


def test_gallery_stub_exit(capsys):
    code, out = run(capsys, "gallery", "make", "number-field-example")
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert "out of scope" in record["details"]["error"].lower() or "finite-field" in record["details"]["error"]


def test_gallery_unknown_name(capsys):
    code, _ = run(capsys, "gallery", "make", "nonexistent")
    assert code == 2


def test_error_records_name_the_subcommand(tmp_path, capsys):
    # an error record carries the command name of the handler's success record;
    # the `strong` alias reports as `system strong`
    path = write_gallery(tmp_path, capsys, "line-cover-system", "q=3", "d=2")
    cases = [
        (["gallery", "make", "nonexistent"], "gallery make"),
        (["system", "strong", str(path), "--side", "left", "--N", "abc"], "system strong"),
        (["strong", str(path), "--side", "left", "--N", "abc"], "system strong"),
        (["module", "check", str(tmp_path / "missing.json")], "module check"),
        (["reproduce", "paper-99"], "reproduce paper-99"),
    ]
    for argv, command in cases:
        code, out = run(capsys, *argv)
        assert code == 2
        record = json.loads(out.strip().splitlines()[-1])
        assert (record["command"], record["verdict"]) == (command, "input-error")


def test_gallery_triangular_scalar_flag(tmp_path, capsys):
    dims = {}
    for value in ("0", "false", "1", "true"):
        path = write_gallery(tmp_path, capsys, "triangular", "n=3", "q=2", f"scalar={value}")
        dims[value] = json.loads(path.read_text())["dim"]
    assert dims == {"0": 6, "false": 6, "1": 4, "true": 4}
    code, out = run(capsys, "gallery", "make", "triangular", "scalar=no")
    assert code == 2
    assert "scalar must be" in json.loads(out.strip().splitlines()[-1])["details"]["error"]


@pytest.mark.parametrize("params, message", [
    (["n=x", "q=3"], "must be an integer"),
    (["n=3", "q=2.5"], "must be an integer"),
    (["n=3", "bogus=1"], "no parameter 'bogus'"),
    (["n=1", "q=2", "n=2"], "parameter n is given more than once"),
])
def test_gallery_bad_parameter_is_an_input_error(capsys, params, message):
    code, out = run(capsys, "gallery", "make", "triangular", *params)
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"
    assert message in record["details"]["error"]


def test_gallery_lists_nine_items_that_build_at_their_defaults(capsys):
    code, out = run(capsys, "gallery", "list")
    assert code == 0
    listing = json.loads(out)["details"]
    assert sorted(listing) == sorted([
        "cross", "corner", "triangular", "matrix-algebra", "square-zero-extension", "twisted-truncated",
        "line-cover-system", "row-diagonal-module", "number-field-example",
    ])
    # the parameter names come from the build signature; the keyword-only budget is not one
    assert listing["corner"].endswith("(params m n t q)")
    assert listing["line-cover-system"].endswith("(params q d)")
    assert "params" not in listing["row-diagonal-module"]
    for name in listing:
        code, _ = run(capsys, "gallery", "make", name)
        assert code == (2 if name == "number-field-example" else 0), name
    # and the run's budget reaches the builders that take one
    code, out = run(capsys, "--budget", "3", "gallery", "make", "line-cover-system", "q=3", "d=2")
    assert code == 3
    assert "line-cover components" in json.loads(out)["details"]["error"]


def test_gallery_unknown_parameter_is_not_ignored(capsys):
    code, out = run(capsys, "gallery", "make", "cross", "m=2", "n=2", "q=2", "bogus=1")
    assert code == 2
    assert "no parameter 'bogus'" in json.loads(out.strip().splitlines()[-1])["details"]["error"]
    code, _ = run(capsys, "gallery", "make", "row-diagonal-module", "q=2")
    assert code == 2


def test_module_commands_read_the_gallery_module_file(tmp_path, capsys):
    # `gallery make row-diagonal-module` writes {"algebra", "module"}; the module
    # commands read it as they read the bare module
    path = write_gallery(tmp_path, capsys, "row-diagonal-module")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(path.read_text())["module"]))
    code, out = run(capsys, "module", "check", str(path))
    assert code == 1
    code_bare, out_bare = run(capsys, "module", "check", str(bare))
    assert code_bare == 1
    assert json.loads(out)["details"] == json.loads(out_bare)["details"]
    for mode in ("sub", "quot", "subfactor"):
        code, out = run(capsys, "module", "shrink", str(path), "--mode", mode)
        assert code == 0
        code_bare, out_bare = run(capsys, "module", "shrink", str(bare), "--mode", mode)
        assert json.loads(out)["details"] == json.loads(out_bare)["details"]


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("action"), "action list"),
    (lambda d: d.update(action={"0": 1}), "action list"),
    (lambda d: d.pop("dim"), "integer dim"),
    (lambda d: d.update(dim="5"), "integer dim"),
    (lambda d: d.update(dim=4), "shape"),
    (lambda d: d["action"][0].pop("rows"), "bad matrix JSON"),
])
def test_malformed_module_json_is_an_input_error(tmp_path, capsys, edit, message):
    _ring, module = make_row_diagonal_pair()
    data = module.to_json()
    edit(data)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    for command in (["module", "check", str(path)], ["module", "shrink", str(path), "--mode", "sub"]):
        code, out = run(capsys, *command)
        assert code == 2
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] == "input-error"
        assert message in record["details"]["error"]


def _without(data, key):
    data.pop(key)
    return data


def _with_int_field(data, key, value):
    target = data["s_blocks"][0] if "s_blocks" in data else data
    target[key] = value
    return data


def _bare_system(s_block, t_block):
    """A system with one block on each side and no generators: with a T-block
    of size -1 it passed the inequality, and with an S-block of size 0 it
    failed it, before the block sizes were checked."""
    return {"field": {"p": 2, "e": 1, "modulus": []}, "s_blocks": [s_block], "t_blocks": [t_block], "a_basis": []}


def _with_empty_block(data):
    data["certificate"]["blocks"].append({"n": 0, "matrix_units": []})
    return data


def _with_units_in_one_block(data):
    first, second = data["certificate"]["blocks"]
    first["matrix_units"] += second["matrix_units"]
    second["matrix_units"] = []
    return data


@pytest.mark.parametrize("command, source, edit, message", [
    (["system", "check"], None, lambda d: {}, "bad system JSON: needs the key 'field'"),
    (["system", "strong", "--side", "left", "--N", "1"], None, lambda d: {}, "bad system JSON: needs the key 'field'"),
    (["algebra", "analyze"], None, lambda d: {}, "bad algebra JSON: needs the key 'field'"),
    (["cover", "check"], None, lambda d: {}, "bad tensor subspace JSON: needs the key 'field'"),
    (["module", "check"], "module", lambda d: {**d, "algebra": {}}, "bad algebra JSON: needs the key 'field'"),
    (["module", "check"], "module", lambda d: {**d, "algebra_ref": "empty.json"},
     "bad algebra JSON: needs the key 'field'"),
    (["module", "check"], "module", lambda d: {**d, "algebra_ref": 5}, "algebra_ref must be a path string, got 5"),
    (["system", "check"], None, lambda d: [], "bad system JSON: must be an object, got list"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"), lambda d: _without(d, "dim"), "needs the key 'dim'"),
    (["system", "check"], ("line-cover-system", "q=2", "d=2"), lambda d: _without(d, "s_blocks"),
     "needs the key 's_blocks'"),
    (["cover", "check"], ("cross", "m=2", "n=2", "q=2"), lambda d: _without(d, "basis"), "needs the key 'basis'"),
    (["cover", "check"], ("cross", "m=2", "n=2", "q=2"), lambda d: _with_int_field(d, "n", "x"),
     "n must be an integer, got 'x'"),
    (["system", "check"], ("line-cover-system", "q=2", "d=2"), lambda d: _with_int_field(d, "n", "x"),
     "n must be an integer, got 'x'"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"), lambda d: {**d, "one": [5] + d["one"][1:]},
     "coordinate out of field range: 5"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"),
     lambda d: {**d, "certificate": {**d["certificate"], "split": "no", "local": "false"}},
     "split must be true or false, got 'no'"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"),
     lambda d: {**d, "certificate": {**d["certificate"], "local": True}}, "only one block with n = 1 is local"),
    (["algebra", "analyze"], ("matrix-algebra", "n=1", "q=4"),
     lambda d: {**d, "field": {**d["field"], "modulus": [1.9, "1"]}}, "entry 0 must be an integer, got 1.9"),
    (["system", "check"], None, lambda d: _bare_system({"n": 1, "mult": 1}, {"n": -1, "mult": -1}),
     "block needs n >= 1 and mult >= 0, got n = -1, mult = -1"),
    (["system", "check"], None, lambda d: _bare_system({"n": 0, "mult": 2}, {"n": 1, "mult": 1}),
     "block needs n >= 1 and mult >= 0, got n = 0, mult = 2"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"), _with_empty_block, "block 2 has n = 0 and 0 matrix units"),
    (["algebra", "analyze"], ("triangular", "n=2", "q=2"), _with_units_in_one_block,
     "block 0 has n = 1 and 2 matrix units"),
    (["algebra", "analyze"], ("square-zero-extension", "q=4", "g=2"),
     lambda d: {**d, "field": {**d["field"], "modulus": [3, 3]}}, "modulus coefficients must lie in 0..1"),
], ids=["system-check", "system-strong", "algebra-analyze", "cover-check", "module-inline-algebra",
        "module-algebra-ref", "module-algebra-ref-type", "list", "missing-dim", "missing-s-blocks", "missing-basis", "tensor-n", "block-n",
        "coordinate-range", "certificate-flag", "split-local-claim", "modulus-coefficient", "t-block-size",
        "s-block-size", "certificate-empty-block", "certificate-unit-count", "modulus-range"])
def test_malformed_input_json_is_an_input_error(tmp_path, capsys, command, source, edit, message):
    # a decoding failure exits 2 as input-error, never 1 with a traceback
    (tmp_path / "empty.json").write_text("{}")
    if source == "module":
        data = make_row_diagonal_pair()[1].to_json(inline_algebra=False)
    elif source is None:
        data = {}
    else:
        data = json.loads(write_gallery(tmp_path, capsys, *source).read_text())
    path = tmp_path / "input.json"
    path.write_text(json.dumps(edit(data)))
    code, out = run(capsys, *command[:2], str(path), *command[2:])
    assert code == 2
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "input-error"
    assert message in record["details"]["error"]


def test_gallery_round_trips(tmp_path, capsys):
    # every gallery object must survive serialize -> parse -> serialize
    from soclelab.algebra import Algebra
    from soclelab.strongness import BilinearSystem
    from soclelab.tensorcover import TensorSubspace

    cases = [
        ("cross", ["m=2", "n=3", "q=3"], TensorSubspace),
        ("corner", ["m=3", "n=3", "t=2", "q=3"], TensorSubspace),
        ("triangular", ["n=3", "q=2", "scalar=1"], Algebra),
        ("matrix-algebra", ["n=2", "q=2"], Algebra),
        ("square-zero-extension", ["q=3", "g=2"], Algebra),
        ("twisted-truncated", ["p=2", "d=2", "n=2"], Algebra),
        ("line-cover-system", ["q=3", "d=2"], BilinearSystem),
    ]
    for name, params, cls in cases:
        path = write_gallery(tmp_path, capsys, name, *params)
        data = json.loads(path.read_text())
        again = cls.from_json(data)
        assert again.to_json() == data


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=2", "q=3")
    _, out1 = run(capsys, "cover", "check", str(path))
    _, out2 = run(capsys, "cover", "check", str(path))
    assert out1 == out2
    # and timing is attached only on request
    _, out3 = run(capsys, "--timing", "cover", "check", str(path))
    assert "timing" in json.loads(out3.strip().splitlines()[-1])
    assert "timing" not in json.loads(out1.strip().splitlines()[-1])


def test_reproduce_counterexample_target(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "reproduce", "paper-5.1", "--out", str(tmp_path / "bundle.json"))
    assert code == 1
    bundle = json.loads((tmp_path / "bundle.json").read_text())
    assert bundle["ok"] is True
    names = {item["name"] for item in bundle["items"]}
    assert "row-diagonal-module-inequality-fails" in names
    assert all(item["verdict"] == "counterexample" for item in bundle["items"])


def test_reproduce_unknown_target(capsys):
    code, _ = run(capsys, "reproduce", "paper-99")
    assert code == 2


def test_reproduce_deterministic_bundles(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "reproduce", "paper-5.1", "--seed", "11", "--out", "a.json")
    run(capsys, "reproduce", "paper-5.1", "--seed", "11", "--out", "b.json")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert json.loads((tmp_path / "a.json").read_text())["seed"] == 11


def test_reproduce_all_bundle_is_pinned(tmp_path, capsys, monkeypatch):
    # every battery at its defaults, byte for byte; the counterexample
    # targets make the exit 1
    monkeypatch.delenv("SOCLELAB_BUDGET", raising=False)
    bundle = tmp_path / "all.json"
    code, _ = run(capsys, "reproduce", "all", "--out", str(bundle))
    assert code == 1
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() \
        == "65345839d87e20b82f01695ba63c3d2d0c9967302553998b110566ac552d4e57"


def test_seed_is_a_reproduce_option():
    # the seed is read only by `reproduce`, so no other command takes it
    with pytest.raises(SystemExit) as info:
        main(["--seed", "5", "gallery", "list"])
    assert info.value.code == 2


def test_budget_env_var(monkeypatch):
    from soclelab.budget import default_budget

    monkeypatch.setenv("SOCLELAB_BUDGET", "1234")
    budget = default_budget()
    assert budget.max_enumeration == 1234
    assert budget.max_ring == 1234
    monkeypatch.delenv("SOCLELAB_BUDGET")
    assert default_budget().max_enumeration == 1_000_000
    for bad in ("abc", "-5", "1.5", ""):
        monkeypatch.setenv("SOCLELAB_BUDGET", bad)
        with pytest.raises(InputError):
            default_budget()


def test_default_budget_follows_each_env_value(monkeypatch):
    from soclelab.budget import default_budget

    monkeypatch.setenv("SOCLELAB_BUDGET", "1234")
    first = default_budget()
    monkeypatch.setenv("SOCLELAB_BUDGET", "77")
    second = default_budget()
    assert (first.max_enumeration, second.max_enumeration) == (1234, 77)
    monkeypatch.setenv("SOCLELAB_BUDGET", "1234")
    assert default_budget() is first  # parsed once per distinct value


def test_malformed_budget_env_raises_on_every_call(monkeypatch):
    from soclelab.budget import default_budget

    monkeypatch.setenv("SOCLELAB_BUDGET", "12x")
    for _ in range(2):
        with pytest.raises(InputError, match="SOCLELAB_BUDGET"):
            default_budget()


def test_unset_budget_env_is_the_default_budget(monkeypatch):
    from soclelab.budget import Budget, default_budget

    monkeypatch.setenv("SOCLELAB_BUDGET", "5")
    default_budget()
    monkeypatch.delenv("SOCLELAB_BUDGET")
    assert default_budget() == Budget()


@pytest.mark.parametrize("cap", [5, 100000])
def test_budget_flag_and_env_var_build_the_same_budget(cap, capsys, monkeypatch):
    from soclelab import cli
    from soclelab.budget import Budget, DEFAULT_RING_CAP

    seen = []
    monkeypatch.setitem(cli.COMMANDS, ("gallery", "list"),
                        lambda args, data, budget: seen.append(budget) or ([("pass", {})], None))
    monkeypatch.delenv("SOCLELAB_BUDGET", raising=False)
    assert main(["--budget", str(cap), "gallery", "list"]) == 0
    monkeypatch.setenv("SOCLELAB_BUDGET", str(cap))
    assert main(["gallery", "list"]) == 0
    assert seen[0] == seen[1] == Budget(max_enumeration=cap, max_ring=min(cap, DEFAULT_RING_CAP))


def test_capped_reproduce_charges_the_line_cover_components(tmp_path, capsys, monkeypatch):
    # line-cover-q2-d3 builds 7 components, so a cap of 5 stops the run,
    # as `gallery make line-cover-system q=2 d=3` stops under the same cap
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOCLELAB_BUDGET", raising=False)
    code, out = run(capsys, "--budget", "5", "reproduce", "paper-5.1")
    assert code == 3
    record = json.loads(out.strip().splitlines()[-1])
    assert record["verdict"] == "budget"
    assert "line-cover components" in record["details"]["error"]
    code, out = run(capsys, "--budget", "5", "gallery", "make", "line-cover-system", "q=2", "d=3")
    assert code == 3
    assert "line-cover components" in json.loads(out)["details"]["error"]


def test_budget_flag_overrides_a_malformed_env_in_reproduce(tmp_path, capsys, monkeypatch):
    # the run's one budget comes from the flag; no battery reads the env
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOCLELAB_BUDGET", raising=False)
    unset = run(capsys, "reproduce", "paper-5.1", "--out", "unset.json")
    monkeypatch.setenv("SOCLELAB_BUDGET", "abc")
    flagged = run(capsys, "--budget", "1000000", "reproduce", "paper-5.1", "--out", "flagged.json")
    assert unset[0] == 1
    assert flagged == unset
    assert (tmp_path / "flagged.json").read_bytes() == (tmp_path / "unset.json").read_bytes()


def test_library_calls_do_not_read_the_budget_env(monkeypatch):
    # 7 components under an env cap of 3: only the CLI reads SOCLELAB_BUDGET
    from soclelab.gallery import make_line_cover_system

    monkeypatch.setenv("SOCLELAB_BUDGET", "3")
    assert len(make_line_cover_system(field_make(2), 3).s_blocks) == 7


def test_malformed_budget_is_an_input_error(capsys, monkeypatch):
    argv = ("cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2")
    cases = [({"SOCLELAB_BUDGET": "abc"}, ()), ({"SOCLELAB_BUDGET": "-5"}, ()), ({}, ("--budget", "-5"))]
    for env, flags in cases:
        monkeypatch.delenv("SOCLELAB_BUDGET", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out = run(capsys, *flags, *argv)
        assert code == 2
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] == "input-error"
        assert "budget" in record["details"]["error"].lower()
    # the flag overrides the environment, and a zero cap is a valid (empty) budget
    monkeypatch.setenv("SOCLELAB_BUDGET", "abc")
    code, out = run(capsys, "--budget", "0", *argv)
    assert code == 3
    assert json.loads(out.strip().splitlines()[-1])["details"]["examined"] == 0


def test_search_budget_stops_at_the_cap(capsys):
    code, out = run(capsys, "--budget", "700", "cover", "search-minimal", "--m", "2", "--n", "3", "--q", "2")
    assert code == 3
    assert json.loads(out.strip().splitlines()[-1])["details"]["examined"] == 700


@pytest.mark.parametrize("argv", [("cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2"), ("gallery", "list")])
def test_threads_is_an_unknown_argument(capsys, argv):
    # the search is sequential: the flag is rejected, not accepted and ignored
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", *argv])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_violation_inside_a_command_is_verdict_violation(tmp_path, capsys, monkeypatch):
    # a TheoremViolation raised inside a command becomes main's "violation"
    # record and exit 4, named after the command
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=2", "q=2")

    def violated(*args, **kwargs):
        raise TheoremViolation("forced bound failure")

    monkeypatch.setattr(tensorcover, "check_bound", violated)
    code, out = run(capsys, "cover", "check", str(path))
    assert code == 4
    record = json.loads(out.strip().splitlines()[-1])
    assert (record["command"], record["verdict"]) == ("cover check", "violation")
    assert record["details"] == {"error": "forced bound failure"}


def test_radical_oracle_disagreement_is_verdict_violation(tmp_path, capsys, monkeypatch):
    # an oracle radical other than the certified one is one "violation"
    # record, with the input's sha256, and exit 4
    ring, _module = make_row_diagonal_pair()
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring.to_json()))
    monkeypatch.setattr(algebra, "radical_bruteforce", lambda alg, budget: Subspace.zero(alg.field, alg.dim))
    code, out = run(capsys, "algebra", "analyze", str(path), "--oracle")
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert (records[0]["command"], records[0]["verdict"]) == ("algebra analyze", "violation")
    assert records[0]["details"]["radical_oracle_agrees"] is False
    assert records[0]["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_reproduce_bundle_with_a_missed_expectation_exits_4(tmp_path, capsys, monkeypatch):
    # a battery item that misses its expectation, positive or negative, has the
    # verdict "violation", so the run exits 4 by its verdicts alone
    def missed(target, seed, budget):
        return [reproduce._item("met", True), reproduce._item("missed", False, "counterexample", value=1)]

    monkeypatch.setattr(reproduce, "run_target", missed)
    bundle = tmp_path / "bundle.json"
    code = main(["--pretty", "reproduce", "paper-2", "--out", str(bundle)])
    out, err = capsys.readouterr()
    assert code == 4
    assert json.loads(bundle.read_text())["ok"] is False
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["details"]["name"], r["verdict"]) for r in records] == [("met", "pass"), ("missed", "violation")]
    assert [line.split() for line in err.splitlines()[2:]] \
        == [["met", "pass", "ok"], ["missed", "violation", "MISMATCH"]]


def test_any_other_exception_is_verdict_internal_error(tmp_path, capsys, monkeypatch):
    # an exception outside the package's taxonomy becomes one "internal-error"
    # record naming its type, and exit 5
    path = write_gallery(tmp_path, capsys, "cross", "m=2", "n=2", "q=2")

    def broken(*args, **kwargs):
        raise ZeroDivisionError("forced division by zero")

    monkeypatch.setattr(tensorcover, "check_bound", broken)
    code = main(["cover", "check", str(path)])
    out, err = capsys.readouterr()
    assert code == 5
    assert "Traceback" in err and "ZeroDivisionError: forced division by zero" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert (records[0]["command"], records[0]["verdict"]) == ("cover check", "internal-error")
    assert records[0]["details"] == {"error": "forced division by zero", "exception": "ZeroDivisionError"}


@pytest.mark.parametrize("argv, header, rows_of", [
    (("gallery", "list"), ["name", "description"], lambda details: len(details)),
    (("cover", "search-minimal", "--m", "2", "--n", "2", "--q", "2"), ["dim", "subspace"],
     lambda details: len(details["minimal"])),
])
def test_pretty_table_goes_to_stderr_and_leaves_stdout_alone(capsys, argv, header, rows_of):
    code = main(list(argv))
    plain = capsys.readouterr()
    assert main(["--pretty", *argv]) == code
    pretty = capsys.readouterr()
    assert pretty.out == plain.out and plain.err == ""
    # a header, a rule of dashes per column, then one line per row, each
    # column padded to its widest cell and the columns two spaces apart
    lines = pretty.err.splitlines()
    assert lines[0].split() == header
    rule = lines[1]
    assert set(rule) == {"-", " "}
    first = len(rule.split("  ")[0])
    assert all(line[first:first + 2] == "  " for line in lines)
    assert any(line[first - 1] != " " for line in [lines[0], *lines[2:]])
    assert len(lines) == 2 + rows_of(json.loads(plain.out.strip().splitlines()[-1])["details"]) > 2


RECORD_RUNS = [
    # (argv, command, exit, files read): every subcommand on gallery inputs
    ("cover check cross.json --minimal", "cover check", 0, ["cross.json"]),
    ("cover search-minimal --m 2 --n 2 --q 2", "cover search-minimal", 0, []),
    ("algebra analyze triangular.json --oracle", "algebra analyze", 0, ["triangular.json"]),
    ("module check module.json", "module check", 1, ["module.json", "ring.json"]),
    ("module shrink rd.json --mode sub", "module shrink", 0, ["rd.json"]),
    ("system check lc.json", "system check", 1, ["lc.json"]),
    ("system strong lc.json --side left --N 1", "system strong", 0, ["lc.json"]),
    ("strong lc.json --side left --N 2", "system strong", 0, ["lc.json"]),
    ("gallery list", "gallery list", 0, []),
    ("gallery make corner", "gallery make", 0, []),
    ("reproduce paper-5.1 --out bundle.json", "reproduce paper-5.1", 1, []),
    # capped runs, one after its input was read
    ("--budget 0 cover check cross.json", "cover check", 3, ["cross.json"]),
    ("--budget 10 cover search-minimal --m 2 --n 2 --q 2", "cover search-minimal", 3, []),
    # input errors
    ("reproduce paper-3", "reproduce paper-3", 2, []),
    ("cover check missing.json", "cover check", 2, []),
    ("gallery make cross q=1", "gallery make", 2, []),
]


def test_every_record_has_the_one_shape(tmp_path, capsys, monkeypatch):
    # each run's records pass `check_records`, and its exit is the expected one
    assert sorted(VERDICT_SEVERITY) == sorted(VERDICT_EXIT)
    monkeypatch.chdir(tmp_path)
    for item, path in (("cross", "cross.json"), ("triangular", "triangular.json"),
                       ("line-cover-system", "lc.json"), ("row-diagonal-module", "rd.json")):
        assert main(["gallery", "make", item, "-o", path]) == 0
    ring, module = make_row_diagonal_pair()
    Path("ring.json").write_text(json.dumps(ring.to_json()))
    Path("module.json").write_text(json.dumps({**module.to_json(inline_algebra=False), "algebra_ref": "ring.json"}))
    capsys.readouterr()
    for argv, command, code, read in RECORD_RUNS:
        assert main(argv.split()) == code, argv
        check_records(code, capsys.readouterr().out, command, read)
    assert main(["--timing", "gallery", "list"]) == 0
    check_records(0, capsys.readouterr().out, "gallery list", optional=["timing"])
    # a forced violation, after its input was read
    monkeypatch.setattr(tensorcover, "check_bound", _raise_violation)
    assert main(["cover", "check", "cross.json"]) == 4
    [record] = check_records(4, capsys.readouterr().out, "cover check", ["cross.json"])
    assert record["verdict"] == "violation"


SYSTEM_KEYS = {"budget", "graph", "lt_b", "lt_c", "lt_a", "lhs", "rhs", "holds", "hypotheses_met", "field_size"}
BUDGET_KEYS = {"N_S", "N_T", "d_S", "d_T", "l_S", "l_T", "cardD_ok"}
GRAPH_KEYS = {"left_vertices", "right_vertices", "edges", "edge_lengths", "chi"}
MODULE_KEYS = {"faithful", "annihilator_dim", "top_length", "socle_length", "no_faithful_max_submodule",
               "no_faithful_simple_quotient", "inequality", "notes"}
SIDE_KEYS = {"holds", "witnesses", "failing"}


def test_report_records_have_their_pinned_keys(tmp_path, capsys, monkeypatch):
    # a report's details are its dataclass's fields, so a stray field would
    # reach stdout: pin the key set of each nested record
    monkeypatch.chdir(tmp_path)
    for item, path in (("line-cover-system", "lc.json"), ("row-diagonal-module", "rd.json"),
                       ("triangular", "tri.json"), ("cross", "cross.json")):
        assert main(["gallery", "make", item, "-o", path]) == 0
    # the regular module of a local algebra with central socle meets the local bound
    local = modrep.regular_module(make_square_zero_extension(field_make(2), 2))
    Path("szr.json").write_text(json.dumps(local.to_json()))
    capsys.readouterr()

    def details(argv: str, code: int) -> dict:
        assert main(argv.split()) == code, argv
        return json.loads(capsys.readouterr().out)["details"]

    system = details("system check lc.json", 1)
    assert (set(system), set(system["budget"]), set(system["graph"])) == (SYSTEM_KEYS, BUDGET_KEYS, GRAPH_KEYS)
    graph_bound = details("module check rd.json", 1)
    ineq = graph_bound["inequality"]
    assert (set(graph_bound), ineq["kind"], set(ineq["system"])) == (MODULE_KEYS, "socle_graph", SYSTEM_KEYS)
    assert set(ineq) == {"kind", "lhs", "rhs", "holds", "socle_bimodule_length", "chi", "hypotheses_met", "system"}
    local_bound = details("module check szr.json", 0)
    assert (set(local_bound), set(local_bound["inequality"])) == (
        MODULE_KEYS, {"kind", "lhs", "rhs", "holds", "socle_dim"})
    assert set(details("algebra analyze tri.json", 0)["socle_graph"]) == GRAPH_KEYS
    cover = details("cover check cross.json", 0)
    assert (set(cover["cond_b"]), set(cover["cond_c"])) == (SIDE_KEYS, SIDE_KEYS)


def _raise_violation(*_args, **_kwargs):
    raise TheoremViolation("forced")
