"""Byte-exact ``--json`` output of a fixed set of CLI commands.

``golden_json.json`` lists each command's argv, the presentation text it
reads through ``--input`` (or null) and the exact stdout it printed when the
file was written; every stored stdout must also validate against the
shipped CLI report schema.  A change that alters any printed byte fails
here; if the change is deliberate, rewrite the file from the new code with

    PYTHONPATH=src python tests/test_golden_json.py

and say in the change log which outputs moved and why.
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from charvar.cli import main

GOLDEN = Path(__file__).with_name("golden_json.json")
SCHEMA = json.loads(
    resources.files("charvar.schemas").joinpath("cli-report.schema.json")
    .read_text(encoding="utf-8"))


def cli_stdout(argv, presentation, directory):
    argv = list(argv)
    if presentation is not None:
        path = Path(directory) / "group.txt"
        path.write_text(presentation, encoding="utf-8")
        argv += ["--input", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--json"])
    return out.getvalue()


CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_json_output_is_byte_identical(case, tmp_path):
    assert cli_stdout(case["argv"], case["input"], tmp_path) == case["stdout"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_output_matches_the_schema(case):
    jsonschema.validate(json.loads(case["stdout"]), SCHEMA)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            case["stdout"] = cli_stdout(case["argv"], case["input"], directory)
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
