import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import charvar
import charvar.complexes
from charvar.cli import build_parser, main
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix

SCHEMA = json.loads(
    resources.files("charvar.schemas").joinpath("cli-report.schema.json")
    .read_text(encoding="utf-8"))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_betti_surface(capsys):
    code, payload = run_json(capsys, ["betti", "--preset", "surface",
                                      "--genus", "2", "--char", "2,3,5,7"])
    assert code == 0
    assert payload["result"]["betti"] == [0, 2, 0]


def test_betti_generic(capsys):
    code, payload = run_json(capsys, ["betti", "--preset", "torus"])
    assert code == 0
    assert payload["result"]["betti"] == [0, 0, 0]
    assert payload["result"]["character"] == "generic"


def test_alexander_dump(capsys):
    code, payload = run_json(capsys, ["alexander", "--preset", "torus"])
    assert code == 0
    assert payload["result"]["entries"] == [["-t2 + 1", "t1 - 1"]]


def test_jumploci_torus(capsys):
    code, payload = run_json(capsys, ["jumploci", "--preset", "torus", "--t", "1"])
    assert code == 0
    gens = payload["result"]["ideal"]["generators"]
    assert sorted(gens) == ["t1 - 1", "t2 - 1"]
    assert payload["result"]["fullness_v1"]["status"] == "not_full"


def test_jumploci_product_fullness(capsys):
    code, payload = run_json(capsys, ["jumploci", "--preset", "product-surface",
                                      "--genus", "2,2,2", "--r", "3"])
    assert code == 0
    assert payload["result"]["fullness_vr"]["is_full"] is True


def test_jumploci_r_decides_a_non_product_as_certify_does(capsys):
    surface = ["--preset", "surface", "--genus", "2", "--r", "2"]
    code, payload = run_json(capsys, ["jumploci", *surface])
    assert code == 0
    verdict = payload["result"]["fullness_vr"]
    assert verdict["status"] == "not_full"
    assert verdict["witness"]["generic_b2"] == 0
    code, payload = run_json(capsys, ["certify", *surface])
    assert code == 2
    assert payload["result"]["evidence"]["fullness"] == verdict


def test_jumploci_r_on_a_user_presentation_needs_degree_one(capsys, tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text("gens a,b; rel [a,b];", encoding="utf-8")
    code, payload = run_json(capsys, ["jumploci", "--input", str(path), "--r", "1"])
    assert code == 0
    assert payload["result"]["fullness_vr"]["status"] == "not_full"
    code, payload = run_json(capsys, ["jumploci", "--input", str(path), "--r", "2"])
    assert code == 1
    assert payload["result"]["error"]["code"] == "unsupported-degree"


def test_certify_product_surface(capsys):
    code, payload = run_json(capsys, [
        "certify", "--preset", "product-surface", "--genus", "2,2,2",
        "--nu", "pencil", "--r", "3"])
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"]["conclusions"] == [
        "H_leq_r_infinite", "not_FP_r", "not_commensurable_FP_r"]


def test_certify_product_surface_by_generic_rank(capsys):
    # the generic b_3 is convolved from the three factors' generic
    # profiles, each pinned by its own modular sandwich
    code, payload = run_json(capsys, [
        "certify", "--preset", "product-surface", "--genus", "2,2,2",
        "--r", "3", "--strategy", "generic-rank"])
    assert code == 0
    assert payload["result"]["status"] == "certified"
    fullness = payload["result"]["evidence"]["fullness"]
    assert fullness["method"] == "generic-rank"
    assert fullness["witness"]["generic_b3"] == 8
    route = fullness["witness"]["route"]
    assert route["name"] == "kunneth" and len(route["factors"]) == 3
    for factor in route["factors"]:
        assert factor["name"] == "modular-sandwich"
        assert factor["fallback_degrees"] == []
    assert "modular-rank-sandwich" in [c["id"] for c in payload["result"]["citations"]]


def test_certify_torus_exit_code_two(capsys):
    code, payload = run_json(capsys, ["certify", "--preset", "torus",
                                      "--nu", "first", "--r", "1"])
    assert code == 2
    assert payload["status"] == "hypothesis-failed"
    assert payload["result"]["conclusions"] == []


def test_probe_cli(capsys):
    code, payload = run_json(capsys, ["probe", "--preset", "torus",
                                      "--nu", "first", "--r", "1",
                                      "--trials", "20"])
    assert code == 0
    assert payload["result"]["vanishing_count"] == 20


def test_kernel_cli(capsys):
    code, payload = run_json(capsys, ["kernel", "--preset", "stallings",
                                      "--top-degree", "3"])
    assert code == 0
    degrees = payload["result"]["degrees"]
    assert degrees[3]["verdict"] == "infinite-dimensional"


def test_window_cli(capsys):
    code, payload = run_json(capsys, ["window", "--preset", "bb-c4",
                                      "--radius", "5"])
    assert code == 0
    assert payload["result"]["dimensions"]["2"] == [0, 1, 2, 3, 4]


def test_oracle_cli(capsys):
    code, payload = run_json(capsys, ["oracle", "--preset", "surface",
                                      "--genus", "2", "--nu", "first"])
    assert code == 0
    assert payload["result"]["consistent"] is True
    assert payload["result"]["b1_cover"] == 6


@pytest.mark.parametrize("command", ["kernel", "oracle"])
def test_a_map_onto_z2_is_not_univariate(capsys, command):
    # both commands need a map onto Z, and say so with the one error
    code, payload = run_json(capsys, [command, "--preset", "surface", "--genus", "2",
                                      "--nu", "1,0;0,1;0,0;0,0"])
    assert code == 1
    assert payload["result"]["error"]["code"] == "not-univariate"


def test_probe_refuses_the_degrees_certify_refuses(capsys, tmp_path):
    # a parsed group's chain model is its presentation 2-complex, whose
    # b_2 is not group homology, so degree 2 is refused by every command
    path = tmp_path / "trefoil.txt"
    path.write_text("gens x,y; rel x y x y^-1 x^-1 y^-1;\n", encoding="utf-8")
    for argv in (["probe", "--trials", "3"], ["certify"], ["jumploci"]):
        code, payload = run_json(capsys, [*argv, "--input", str(path), "--r", "2"])
        assert code == 1, argv
        assert payload["result"]["error"]["code"] == "unsupported-degree", argv
    code, payload = run_json(capsys, ["probe", "--input", str(path), "--r", "1",
                                      "--trials", "3"])
    assert code == 0 and payload["result"]["r"] == 1


def test_probe_checks_the_map_then_the_degree_then_the_trials(capsys):
    probe = ["probe", "--preset", "torus", "--r", "0", "--trials", "0"]
    code, payload = run_json(capsys, [*probe, "--nu", "0;0"])
    assert code == 1 and payload["result"]["error"]["code"] == "zero-map"
    code, payload = run_json(capsys, probe)
    assert code == 1
    assert payload["result"]["error"] == {"code": "usage",
                                          "message": "degree r must be >= 1"}
    code, payload = run_json(capsys, [*probe[:-3], "1", "--trials", "0"])
    assert payload["result"]["error"] == {"code": "usage",
                                          "message": "need at least one trial"}


@pytest.mark.parametrize("command, own_nu", [("kernel", "ones"), ("oracle", "first")])
def test_a_pencil_preset_falls_back_to_the_command_default_onto_z(capsys, command, own_nu):
    # the product-surface default 'pencil' maps onto Z^2, and these two
    # commands need a map onto Z
    argv = [command, "--preset", "product-surface", "--genus", "2,2"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert (code, payload) == run_json(capsys, argv + ["--nu", own_nu])


def test_a_cycle_of_two_vertices_is_usage_error(capsys):
    code, payload = run_json(capsys, ["raag", "--graph-name", "cycle:2"])
    assert code == 1
    assert payload["result"]["error"] == {
        "code": "usage", "message": "a cycle needs at least 3 vertices"}


def test_raag_bb_flag_cli(capsys):
    code, payload = run_json(capsys, ["raag", "--graph-name", "cycle:4"])
    assert code == 0
    assert payload["result"]["cube_complex_ranks"] == [1, 4, 4]

    code, payload = run_json(capsys, ["bb", "--graph-name", "octahedron"])
    assert code == 0
    assert payload["result"]["connected"] is True
    assert payload["result"]["complex_ranks"] == [1, 6, 12, 8]

    code, payload = run_json(capsys, ["flag", "--graph-name", "cycle:4"])
    assert code == 0
    assert payload["result"]["reduced_betti"] == [0, 1]

    code, payload = run_json(capsys, ["flag", "--graph-name", "complete:3"])
    assert code == 0
    assert payload["result"]["reduced_betti"] == [0, 0, 0]


def test_pencil_cli(capsys):
    code, payload = run_json(capsys, ["pencil", "--genus", "2,2,2"])
    assert code == 0
    assert payload["result"]["critical_points"] == 8
    assert payload["result"]["euler_x"] == -8


def test_input_file(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("gens a,b; rel [a,b];\n", encoding="utf-8")
    code, payload = run_json(capsys, ["betti", "--input", str(path),
                                      "--char", "2,3"])
    assert code == 0
    assert payload["result"]["betti"] == [0, 0, 0]
    assert "presentation 2-complex" in payload["result"]["scope"]


def test_error_has_machine_readable_code(capsys):
    code, payload = run_json(capsys, ["betti", "--preset", "surface",
                                      "--genus", "0"])
    assert code == 1
    assert payload["status"] == "error"
    assert payload["result"]["error"]["code"] == "genus-too-small"


def test_soundness_checks_survive_python_O():
    # python -O strips assert statements; a soundness check that fails must
    # still stop the run with a coded error
    script = textwrap.dedent("""
        import sys
        import charvar.complexes
        from charvar.cli import build_parser, main
        if __debug__:
            sys.exit("not running under python -O")
        # overstate every rank at a rational character, so the special
        # points of a full locus seem to lose their jump
        charvar.complexes.rank_at = lambda matrix, character: matrix.cols
        sys.exit(main(["jumploci", "--preset", "free", "--rank", "2", "--json"]))
    """)
    src = str(Path(charvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["result"]["error"]["code"] == "internal-inconsistency"


def test_usage_error(capsys):
    code, payload = run_json(capsys, ["betti"])
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"


@pytest.mark.parametrize("argv,message", [
    (["certify", "--preset", "surface", "--genus", "2"], "required: --r"),
    (["kernel", "--preset", "surface", "--genus", "2", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["betti", "--preset", "sphere"], "argument --preset: invalid choice"),
], ids=["missing-r", "unknown-flag", "bad-preset"])
def test_parser_error_is_usage_error(capsys, argv, message):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["command"] == argv[0]
    assert payload["result"]["error"]["code"] == "usage"
    assert message in payload["result"]["error"]["message"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_unknown_subcommand_exits_one_without_envelope(capsys):
    assert main(["frobnicate", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'frobnicate'" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["--version"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out


def test_zero_denominator_in_character_is_usage_error(capsys):
    code, payload = run_json(capsys, ["betti", "--preset", "torus",
                                      "--char", "1/0,1"])
    assert code == 1
    assert payload["status"] == "error"
    assert payload["result"]["error"]["code"] == "usage"


@pytest.mark.parametrize("argv", [
    ["probe", "--preset", "surface", "--genus", "2", "--r", "-1"],
    ["probe", "--preset", "surface", "--genus", "2", "--r", "0"],
    ["kernel", "--preset", "surface", "--genus", "2", "--top-degree", "-1"],
], ids=["probe-r-negative", "probe-r-zero", "kernel-top-degree-negative"])
def test_degree_below_range_is_usage_error(capsys, argv):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["status"] == "error"
    assert payload["result"]["error"]["code"] == "usage"


@pytest.mark.parametrize("argv", [
    ["certify", "--preset", "surface", "--genus", "2", "--r", "0", "--nu", "0;0;0;0"],
    ["probe", "--preset", "surface", "--genus", "2", "--r", "0", "--nu", "0;0;0;0"],
    ["kernel", "--preset", "surface", "--genus", "2", "--top-degree", "-1",
     "--nu", "0;0;0;0"],
], ids=["certify", "probe", "kernel"])
def test_a_bad_map_is_reported_before_a_bad_degree(capsys, argv):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["result"]["error"]["code"] == "zero-map"


@pytest.mark.parametrize("command, flags", [
    ("certify", ["--r", "1"]),
    ("probe", ["--r", "1", "--trials", "2"]),
    ("kernel", []),
    ("window", ["--radius", "1"]),
    ("oracle", []),
], ids=["certify", "probe", "kernel", "window", "oracle"])
def test_an_explicit_empty_nu_is_usage_error(capsys, command, flags):
    # an empty --nu is given, so it is read, not replaced by a default
    argv = [command, "--preset", "surface", "--genus", "2", *flags, "--nu", ""]
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"


@pytest.mark.parametrize("argv,code,message", [
    (["certify", "--preset", "free", "--rank", "0", "--r", "1"],
     "zero-map", "no generators"),
    (["probe", "--preset", "free", "--rank", "0", "--r", "1"],
     "zero-map", "no generators"),
    (["kernel", "--preset", "free", "--rank", "0"], "zero-map", "no generators"),
    (["certify", "--preset", "free", "--rank", "-1", "--r", "1"],
     "usage", "free rank must be >= 0"),
    (["betti", "--preset", "free", "--rank", "-1"], "usage", "free rank must be >= 0"),
], ids=["certify-rank-0", "probe-rank-0", "kernel-rank-0", "certify-rank-negative",
        "betti-rank-negative"])
def test_degenerate_free_rank_errors(capsys, argv, code, message):
    exit_code, payload = run_json(capsys, argv)
    assert exit_code == 1
    assert payload["result"]["error"]["code"] == code
    assert message in payload["result"]["error"]["message"]


@pytest.mark.parametrize("variable", ["CHARVAR_MINOR_CEILING", "CHARVAR_WINDOW_CEILING"])
def test_malformed_ceiling_variable_is_ignored_by_other_commands(capsys, monkeypatch,
                                                                 variable):
    monkeypatch.setenv(variable, "abc")
    code, payload = run_json(capsys, ["pencil", "--genus", "2,2,2"])
    assert code == 0 and payload["status"] == "ok"


@pytest.mark.parametrize("variable,argv", [
    ("CHARVAR_MINOR_CEILING", ["jumploci", "--preset", "torus"]),
    ("CHARVAR_WINDOW_CEILING", ["window", "--preset", "surface", "--genus", "2",
                                "--radius", "1"]),
], ids=["jumploci", "window"])
def test_malformed_ceiling_variable_is_usage_error(capsys, monkeypatch, variable, argv):
    monkeypatch.setenv(variable, "abc")
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"
    assert variable in payload["result"]["error"]["message"]


@pytest.mark.parametrize("variable,argv,source", [
    ("CHARVAR_MINOR_CEILING", ["jumploci", "--preset", "torus"], None),
    ("CHARVAR_WINDOW_CEILING", ["window", "--preset", "surface", "--genus", "2",
                                "--radius", "1"], None),
    (None, ["jumploci", "--preset", "torus", "--minor-ceiling", "-5"],
     "--minor-ceiling"),
    (None, ["window", "--preset", "surface", "--genus", "2", "--radius", "1",
            "--window-ceiling", "-5"], "--window-ceiling"),
], ids=["minor-variable", "window-variable", "minor-flag", "window-flag"])
def test_negative_ceiling_is_usage_error(capsys, monkeypatch, variable, argv, source):
    if variable is not None:
        monkeypatch.setenv(variable, "-5")
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"
    assert payload["result"]["error"]["message"] == f"{source or variable} must be >= 0, got -5"


def test_ceiling_variable_applies_unless_the_flag_is_given(capsys, monkeypatch):
    # the genus-1 surface has 2 minors of size 1
    monkeypatch.setenv("CHARVAR_MINOR_CEILING", "1")
    _, payload = run_json(capsys, ["jumploci", "--preset", "torus"])
    assert payload["result"]["ideal"] is None
    assert "ceiling 1" in payload["result"]["ideal_fallback"]["reason"]
    _, payload = run_json(capsys, ["jumploci", "--preset", "torus",
                                   "--minor-ceiling", "2"])
    assert payload["result"]["ideal"]["generators"] == ["t1 - 1", "t2 - 1"]
    monkeypatch.setenv("CHARVAR_WINDOW_CEILING", "10")
    code, payload = run_json(capsys, ["window", "--preset", "surface", "--genus", "2",
                                      "--radius", "2"])
    assert code == 1
    assert payload["result"]["error"]["code"] == "window-too-large"


@pytest.mark.parametrize("source", ["cycle:-1", "edgeless:-2"])
def test_negative_vertex_count_is_usage_error(capsys, source):
    code, payload = run_json(capsys, ["raag", "--graph-name", source])
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"
    assert "vertex count must be >= 0" in payload["result"]["error"]["message"]


@pytest.mark.parametrize("text, line", [
    ("v x\n", 1),
    ("v 3\ne 0 y\n", 2),
    ("v 3\ne 0 5\n", 2),
    ("# a comment\nv -2\n", 2),
], ids=["non-integer-count", "non-integer-endpoint", "endpoint-out-of-range",
        "negative-count"])
def test_a_malformed_graph_value_is_a_syntax_error_at_its_line(capsys, tmp_path,
                                                               text, line):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    code, payload = run_json(capsys, ["raag", "--graph", str(path)])
    assert code == 1
    error = payload["result"]["error"]
    assert error["code"] == "syntax-error"
    assert error["message"].startswith(f"line {line}, "), error["message"]


S2 = ["--preset", "surface", "--genus", "2"]


def test_a_degree_above_the_top_reads_zero_betti_numbers(capsys):
    # the surface's chain model stops in degree 2, so b_3 = 0 at every
    # character: the verdict is not_full, certify exits 2, probe vanishes
    code, payload = run_json(capsys, ["certify", *S2, "--r", "3"])
    assert code == 2 and payload["status"] == "hypothesis-failed"
    fullness = payload["result"]["evidence"]["fullness"]
    assert (fullness["status"], fullness["witness"]["generic_b3"]) == ("not_full", 0)
    assert "generic b_3 = 0" in payload["result"]["failed_hypothesis"]
    code, payload = run_json(capsys, ["probe", *S2, "--r", "3", "--trials", "4"])
    assert code == 0
    samples = payload["result"]["samples"]
    assert [s["betti"][3] for s in samples] == [0] * 4
    assert payload["result"]["vanishing_count"] == sum(s["vanishing"] for s in samples)


@pytest.mark.parametrize("argv,text,code", [
    (["betti", *S2, "--char", "2,3"], None, "usage"),
    (["window", *S2, "--radius", "0"], None, "usage"),
    (["window", *S2, "--nu", "1,0,0;0,1,0;0,0,1;0,0,0"], None, "usage"),
    (["certify", *S2, "--r", "1", "--nu", "pencil"], None, "usage"),
    (["certify", *S2, "--r", "1", "--nu", "1;1"], None, "usage"),
    (["betti", "--preset", "free"], None, "usage"),
    (["betti", "--preset", "product-surface", "--genus", "2"], None, "usage"),
    (["betti", "--preset", "product-free", "--ranks", "2"], None, "usage"),
    (["raag", "--graph-name", "wheel:5"], None, "usage"),
    (["raag", "--graph-name", "cycle"], None, "usage"),
    (["raag"], None, "usage"),
    (["jumploci", "--preset", "torus", "--t", "0"], None, "usage"),
    (["betti", "--input"], "gens a,b; rel a^x;\n", "syntax-error"),
    (["betti", "--input"], "gens a,b; foo a;\n", "syntax-error"),
    (["betti", "--input"], "gens a,a; rel a;\n", "syntax-error"),
    (["raag", "--graph"], "e 0 1\nv 3\n", "syntax-error"),
    (["raag", "--graph"], "v 3\nx 1 2\n", "syntax-error"),
    (["raag", "--graph"], "# no vertex count\n", "syntax-error"),
], ids=["char-length", "window-radius-0", "window-onto-z3",
        "pencil-nu-non-product", "nu-row-count", "free-without-rank",
        "product-surface-one-genus", "product-free-one-rank", "unknown-graph-kind",
        "graph-without-count", "raag-without-graph", "jumploci-depth-0",
        "symbolic-exponent", "unknown-statement", "duplicate-generator",
        "edge-before-v", "bad-graph-line", "no-v-line"])
def test_each_refusal_exits_one_with_its_code(capsys, tmp_path, argv, text, code):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = [*argv, str(path)]
    exit_code, payload = run_json(capsys, argv)
    assert exit_code == 1
    assert payload["status"] == "error"
    assert payload["result"]["error"]["code"] == code


SEEDLESS = {
    "betti": S2,
    "alexander": S2,
    "kernel": S2,
    "window": [*S2, "--radius", "1"],
    "oracle": S2,
    "raag": ["--graph-name", "cycle:4"],
    "bb": ["--graph-name", "cycle:4"],
    "flag": ["--graph-name", "cycle:4"],
    "pencil": ["--genus", "2,2"],
}


@pytest.mark.parametrize("command", SEEDLESS)
def test_a_command_that_draws_no_character_refuses_a_seed(capsys, command):
    code, payload = run_json(capsys, [command, *SEEDLESS[command]])
    assert code == 0 and payload["seed"] is None
    code, payload = run_json(capsys, [command, *SEEDLESS[command], "--seed", "1"])
    assert code == 1 and payload["seed"] is None
    assert payload["result"]["error"]["code"] == "usage"
    assert "unrecognized arguments: --seed 1" in payload["result"]["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["certify", "--preset", "product-free", "--ranks", "2,2", "--r", "2"],
    ["probe", "--preset", "torus", "--r", "1", "--trials", "2"],
    ["jumploci", "--preset", "torus", "--r", "1"],
], ids=["certify", "probe", "jumploci"])
def test_a_command_that_draws_characters_prints_its_seed(capsys, argv):
    code, payload = run_json(capsys, [*argv, "--seed", "5"])
    assert code == 0 and payload["seed"] == 5


def test_broken_alexander_row_is_internal_inconsistency(capsys, monkeypatch):
    # a wrong Fox term breaks d_1 o d_2 = 0; that is the program's fault,
    # not the user's, so it must not be reported as a usage error
    real = charvar.complexes.alexander_matrix

    def broken(presentation, q):
        alex = real(presentation, q)
        rows = [list(row) for row in alex.entries]
        rows[0][0] = rows[0][0] + LaurentPolynomial.one(alex.nvars)
        return LaurentMatrix(alex.nvars, alex.rows, alex.cols, rows)

    monkeypatch.setattr(charvar.complexes, "alexander_matrix", broken)
    code, payload = run_json(capsys, ["betti", "--preset", "surface", "--genus", "2",
                                      "--char", "2,3,5,7"])
    assert code == 1
    assert payload["result"]["error"]["code"] == "internal-inconsistency"


def test_reruns_are_byte_identical(capsys):
    argv = ["probe", "--preset", "torus", "--nu", "first", "--r", "1",
            "--trials", "10", "--seed", "4", "--json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_text_output_mode(capsys):
    code, out = run(capsys, ["pencil", "--genus", "2,2,2"])
    assert code == 0
    assert "critical_points: 8" in out


@pytest.mark.parametrize("preset,nu", [("stallings", "ones"),
                                       ("bb-octahedron", "ones")])
def test_certify_presets(capsys, preset, nu):
    code, payload = run_json(capsys, ["certify", "--preset", preset,
                                      "--nu", nu, "--r", "3"])
    assert code == 0
    assert len(payload["result"]["conclusions"]) == 3


def test_one_parser_serves_every_query(capsys):
    # the second probe leaves --nu and --seed at their defaults, so a value
    # carried over from an earlier query would change its output
    product = ["--preset", "product-surface", "--genus", "2,2"]
    queries = [["probe", *product, "--r", "2", "--trials", "4", "--nu", "first",
                "--seed", "3"],
               ["certify", *product, "--r", "2"],
               ["probe", *product, "--r", "2", "--trials", "4"]]
    reused = [run_json(capsys, argv) for argv in queries]
    assert build_parser() is build_parser()
    fresh = []
    for argv in queries:
        build_parser.cache_clear()
        fresh.append(run_json(capsys, argv))
    assert reused == fresh
    assert reused[0][1]["result"] != reused[2][1]["result"]
