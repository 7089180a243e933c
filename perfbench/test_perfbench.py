"""Smoke tests of the benchmark at tiny sizes.

Run with ``python -m pytest -q perfbench``.  Each workload runs once in
smoke mode, untraced and traced, through the same entry point the full
benchmark uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import charvar.certify  # noqa: E402
import charvar.cli  # noqa: E402
import charvar.complexes  # noqa: E402
import charvar.jumploci  # noqa: E402
import charvar.lmatrix  # noqa: E402
from perfbench import layers, workloads  # noqa: E402

# Layers that a workload must never reach: the traced run confirms that
# each workload exercises the layers it was chosen for and no others.
NEVER_CALLED = {
    "pencil": ("lmatrix.generic_rank", "lmatrix.smith_univariate"),
    "generic": ("lmatrix.smith_univariate", "complexes.window_homology"),
    "kernel": ("lmatrix.generic_rank", "lmatrix.rank_at.point"),
}


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    detail, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = detail["named"]
    assert set(named) == {f"{k}_s_p50" for k in workloads.KINDS[workload]} | {"fail_frac"}
    assert named["fail_frac"]["value"] == 0
    assert all(q["calibration_s"] > 0 and q["wall_s"] > 0 for q in detail["queries"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    detail, result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert detail["wrappers_restored"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["cli.main.calls"]["value"] == len(workloads.ROUNDS[workload])
    assert metrics["cli.main.errors"]["value"] == 0
    for span in NEVER_CALLED[workload]:
        assert metrics[f"{span}.calls"]["value"] == 0, span


def test_tracer_restores_every_wrapped_attribute():
    originals = {
        "lmatrix.rank_at": charvar.lmatrix.rank_at,
        "complexes.rank_at": charvar.complexes.rank_at,
        "jumploci.twisted_betti": charvar.jumploci.twisted_betti,
        "certify.twisted_betti": charvar.certify.twisted_betti,
        "cli.certify_non_fp": charvar.cli.certify_non_fp,
        "post_init": charvar.complexes.TwistedComplex.__dict__["__post_init__"],
    }
    before = layers.snapshot()
    tracer = layers.Tracer()
    with tracer:
        assert charvar.lmatrix.rank_at is not originals["lmatrix.rank_at"]
        assert charvar.complexes.rank_at is charvar.lmatrix.rank_at
        with contextlib.redirect_stdout(io.StringIO()):
            code = charvar.cli.main(["certify", "--preset", "product-surface",
                                     "--genus", "2,2", "--r", "2", "--json"])
    assert code == 0
    assert charvar.lmatrix.rank_at is originals["lmatrix.rank_at"]
    assert charvar.complexes.rank_at is originals["complexes.rank_at"]
    assert charvar.jumploci.twisted_betti is originals["jumploci.twisted_betti"]
    assert charvar.certify.twisted_betti is originals["certify.twisted_betti"]
    assert charvar.cli.certify_non_fp is originals["cli.certify_non_fp"]
    assert (charvar.complexes.TwistedComplex.__dict__["__post_init__"]
            is originals["post_init"])
    assert layers.snapshot() == before

    spans = tracer.take()
    names = {s.name for s in spans}
    assert {"cli.main", "certify.certify_non_fp", "lmatrix.rank_at.point",
            "intlinalg.rational_rank", "complexes.tensor_complex"} <= names
    root = spans[0]
    assert root.name == "cli.main" and root.parent == -1
    # self times partition the root span's duration
    assert sum(s.self_s for s in spans) == pytest.approx(root.duration, rel=1e-6)
    assert all(s.self_s > -1e-6 for s in spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_only_argv(workload):
    changed = set()
    for seed in range(2, 8):
        one, other = workloads.make_plan(workload, 1), workloads.make_plan(workload, seed)
        again = workloads.make_plan(workload, 1)
        assert (one.kinds, one.sizes) == (other.kinds, other.sizes)
        for _ in range(2):
            round_one, round_other = one.next_round(), other.next_round()
            assert round_one == again.next_round()
            for (kind_a, argv_a), (kind_b, argv_b) in zip(round_one, round_other):
                assert kind_a == kind_b and len(argv_a) == len(argv_b)
                for i, (a, b) in enumerate(zip(argv_a, argv_b)):
                    if a != b:
                        changed.add(a.split("=")[0] if a.startswith("--")
                                    else argv_a[i - 1])
    assert changed and changed <= {"--seed", "--nu"}


def test_metric_lists_match_the_benchmark_file():
    per_layer = declared("per_layer")
    assert dict(layers.metric_names()) == {
        k: v for k, v in per_layer.items() if not k.startswith("trace.")}
    assert set(declared("end_to_end")) == {
        "setup_s", "peak_rss_mib", "queries_per_min", "query1_s_p50",
        "query2_s_p50"}
