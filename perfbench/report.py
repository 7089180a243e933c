"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/report.py [--seconds 35] [--seed 1]

Runs ``run.py`` untraced and traced for each workload, each run in its own
process, and prints one line per metric: the end-to-end metrics, the named
per-query medians with their sample counts and tails, ``fail_frac``, and
the per-layer metrics.  Exits non-zero if any answer failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          check=True, timeout=600)
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            detail, result = run(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            print(f"# {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            rows = dict(result["metrics"])
            rows.update(detail["named"])
            for name in sorted(rows):
                m = rows[name]
                extra = ""
                if "samples" in m:
                    tail = m["tail"]
                    extra = (f"  samples={m['samples']} tail="
                             + (f"{tail['percentile']}:{tail['value']:.6g}"
                                if tail else "none"))
                print(f"{workload:8s} {name:44s} {m['value']:>14.6g} "
                      f"{m['unit']}{extra}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
