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
from charvar.cli import main
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
        from charvar.cli import main
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


@pytest.mark.parametrize("source", ["cycle:-1", "edgeless:-2", "file"])
def test_negative_vertex_count_is_usage_error(capsys, tmp_path, source):
    if source == "file":
        path = tmp_path / "g.txt"
        path.write_text("v -3\n", encoding="utf-8")
        argv = ["raag", "--graph", str(path)]
    else:
        argv = ["raag", "--graph-name", source]
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["result"]["error"]["code"] == "usage"
    assert "vertex count must be >= 0" in payload["result"]["error"]["message"]


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
