"""Run every workload untraced and traced and print all metrics in one table.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 7] [--seconds 20] [--workloads a,b]

Each workload runs in its own process (``run.py``), once with ``--trace 0``
for the end-to-end metrics and once with ``--trace 1`` for the per-layer
ones.  The table lists every metric by name with its unit and sample
count; the header records the git sha, ``cpu_count`` and the Python and
NumPy versions.  The exit code is 1 when any run reported an incorrect
output or failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    """One ``run.py`` process; returns (detail, result) or ``None`` on failure."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    details = [line for line in lines if line.startswith("# detail ")]
    if not lines or not details:
        return None
    return json.loads(details[-1][len("# detail "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    ok = True
    header_done = False
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            outcome = run(workload, args.seed, args.seconds, trace)
            if outcome is None:
                print(f"| {workload} | (trace {trace}: no result) | | | |")
                ok = False
                continue
            detail, result = outcome
            if not header_done:
                host = detail["host"]
                print(
                    f"git {host['git_sha']}, cpu_count {host['cpu_count']}, "
                    f"Python {host['python']}, NumPy {host['numpy']}, "
                    f"seed {args.seed}, {args.seconds:g} s per run"
                )
                print()
                print("| workload | metric | value | unit | samples |")
                print("|---|---|---:|---|---:|")
                header_done = True
            ok = ok and result["correct"]
            print(
                f"| {workload} | error_rate (trace {trace}) | "
                f"{result['failed'] / result['attempted']:.4g} | ratio | "
                f"{result['attempted']} |"
            )
            for name, metric in result["metrics"].items():
                print(
                    f"| {workload} | {name} | {metric['value']:.6g} | "
                    f"{metric['unit']} | {detail['samples'][name]} |"
                )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
