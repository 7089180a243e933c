"""Benchmark of the charvar CLI: one workload, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pencil --seed 1 --seconds 30 --trace 0

The program is driven in-process through ``charvar.cli.main(argv)``, exactly
as a user's ``charvar ... --json`` call, with argv generated from the seed;
the next query is sent when the previous one returns.  Every answer is
checked (see workloads.py).  Timings are in reference seconds (calib.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (layers.py).  The line before it holds the details: raw wall seconds,
calibration times, sample counts, tail percentiles and the named per-query
medians.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calib import Scaler, load_reference  # noqa: E402
from perfbench.layers import Tracer, metric_names, snapshot  # noqa: E402
from perfbench.workloads import CheckFailed, make_plan  # noqa: E402

SETUP_REPEATS = 11
SETUP_CHILD = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import charvar.cli
from perfbench import workloads
workloads.make_plan(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1").next_round()
print("ready", flush=True)
"""
# The set-up yardstick: a fresh interpreter importing a fixed set of stdlib
# modules, which is the same kind of work as importing charvar.
SPAWN_CHILD = """\
import argparse, dataclasses, decimal, email.message, fractions, http.client
import json, statistics, typing
print("ready", flush=True)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program():
    """Import charvar from this checkout's sources, never from elsewhere."""
    if not (SRC / "charvar" / "__init__.py").is_file():
        raise SystemExit(f"error: no charvar sources under {SRC}")
    sys.path[:0] = [str(SRC)]
    import charvar.cli
    if Path(charvar.__file__).resolve().parent != SRC / "charvar":
        raise SystemExit(f"error: imported charvar from {charvar.__file__}")
    return charvar.cli


# -- measurement ------------------------------------------------------------------


def spawn_seconds(code: str, *args: str) -> float:
    """Wall seconds from spawning a fresh interpreter running ``code`` to
    its "ready" line; waits for it to exit."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        wall = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return wall


def measure_setup(workload: str, seed: int, smoke: bool, spawn_ref_s: float,
                  repeats: int):
    """Fresh interpreter to first query ready: ``import charvar`` plus argv
    generation, each in its own process.

    Start-up is mostly operating-system work, which the arithmetic loop
    does not track, so each set-up is scaled instead by the mean of the
    yardstick spawns (SPAWN_CHILD) run just before and just after it."""
    args = (str(SRC), str(ROOT), workload, str(seed), "1" if smoke else "0")
    before = spawn_seconds(SPAWN_CHILD)
    samples = []
    for _ in range(repeats):
        wall = spawn_seconds(SETUP_CHILD, *args)
        after = spawn_seconds(SPAWN_CHILD)
        adjacent = (before + after) / 2
        samples.append({"wall_s": wall, "spawn_s": adjacent,
                        "ref_s": wall * spawn_ref_s / adjacent})
        before = after
    return samples


class Client:
    """Sends one query at a time and records its wall time and verdict."""

    def __init__(self, cli, plan, scaler):
        self.cli = cli
        self.plan = plan
        self.scaler = scaler
        self.records: list[dict] = []

    def query(self, kind: str, argv: list[str], traced: bool) -> dict:
        buf = io.StringIO()
        error = None
        code = None
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as failed; the loop goes on
            error = f"{kind}: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        ref, adjacent = self.scaler.scale(wall)
        if error is None:
            error = self._check(kind, code, buf.getvalue())
        record = {"kind": kind, "traced": traced, "wall_s": wall,
                  "calibration_s": adjacent, "ref_s": ref, "ok": error is None,
                  "error": error}
        self.records.append(record)
        return record

    def _check(self, kind, code, text):
        try:
            self.plan.check(kind, code, json.loads(text))
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{kind}: {type(exc).__name__}: {exc}"
        return None

    def round(self, tracer=None, layer_totals=None) -> None:
        for kind, argv in self.plan.next_round():
            if tracer is None:
                self.query(kind, argv, traced=False)
                continue
            with tracer:
                record = self.query(kind, argv, traced=True)
            add_spans(layer_totals, tracer.take(), record["ref_s"] / record["wall_s"])


def closed_loop(client, seconds: float, tracer=None, layer_totals=None) -> int:
    """Rounds of queries until the next one would overrun ``seconds``; at
    least one.  With a tracer each step is an untraced round followed by a
    traced round, so the two are measured side by side.  Returns the number
    of steps."""
    begin = time.perf_counter()
    steps = 0
    while True:
        step = time.perf_counter()
        client.round()
        if tracer is not None:
            client.round(tracer, layer_totals)
        steps += 1
        now = time.perf_counter()
        if (now - begin) + (now - step) > seconds:
            return steps


# -- aggregation --------------------------------------------------------------------


def add_spans(totals: dict, spans, factor: float) -> None:
    """Fold one query's spans into per-name totals, in reference seconds;
    ``factor`` is the query's reference seconds per wall second."""
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0, "errors": 0,
                                          "counters": {}})
        t["calls"] += 1
        t["self_s"] += span.self_s * factor
        t["total_s"] += span.duration * factor
        t["errors"] += span.error
        for key, value in span.counters.items():
            t["counters"].setdefault(key, []).append(value)


def percentile_tail(values):
    """The highest of p99.9, p99, p90, p75, p50 with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": f"p{p:g}",
                    "value": ordered[min(n - 1, int(n * p / 100))]}
    return None


def end_to_end(plan, records, setup) -> tuple[dict, dict]:
    good = [r for r in records if r["ok"]]
    metrics = {
        "setup_s": (statistics.median(s["ref_s"] for s in setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
        "queries_per_min": (60 * len(good) / sum(r["ref_s"] for r in records),
                            "1/min"),
    }
    named = {}
    for slot, kind in enumerate(plan.kinds, start=1):
        times = [r["ref_s"] for r in good if r["kind"] == kind] or \
                [r["ref_s"] for r in records if r["kind"] == kind]
        metrics[f"query{slot}_s_p50"] = (statistics.median(times), "s")
        named[f"{kind}_s_p50"] = {"value": statistics.median(times), "unit": "s",
                                  "samples": len(times),
                                  "tail": percentile_tail(times)}
    named["fail_frac"] = {"value": (len(records) - len(good)) / len(records),
                          "unit": "frac"}
    return metrics, named


def per_layer(records, totals, rounds: int) -> dict:
    """Per traced round: calls, times and summed counters averaged over the
    rounds; max_* counters are maxima."""
    untraced = sum(r["ref_s"] for r in records if not r["traced"])
    traced = sum(r["ref_s"] for r in records if r["traced"])
    metrics = {"trace.overhead_frac": (traced / untraced - 1, "frac"),
               "trace.untraced_round_s": (untraced / rounds, "s")}
    for name, unit in metric_names():
        span, _, field = name.rpartition(".")
        t = totals.get(span)
        if t is None:
            value = 0
        elif field in ("calls", "self_s", "total_s", "errors"):
            value = t[field] / rounds
        elif field.startswith("max_"):
            value = max(t["counters"][field])
        else:
            value = sum(t["counters"][field]) / rounds
        metrics[name] = (value, unit)
    return metrics


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    plan = make_plan(args.workload, args.seed, args.smoke)
    reference = load_reference()
    setup = measure_setup(args.workload, args.seed, args.smoke,
                          reference["spawn_s"], 2 if args.smoke else SETUP_REPEATS)
    scaler = Scaler(reference["calibration_s"])
    client = Client(cli, plan, scaler)
    restored = True
    if args.trace:
        totals: dict = {}
        originals = snapshot()
        rounds = closed_loop(client, args.seconds, Tracer(), totals)
        restored = snapshot() == originals
        metrics, named = per_layer(client.records, totals, rounds), {}
    else:
        closed_loop(client, args.seconds)
        metrics, named = end_to_end(plan, client.records, setup)

    failed = sum(not r["ok"] for r in client.records)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "kinds": list(plan.kinds),
        "named": named, "wrappers_restored": restored,
        "reference": reference,
        "box": {"cores": os.cpu_count(), "python": platform.python_version()},
        "setup": setup, "queries": client.records,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and restored,
        "attempted": len(client.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
