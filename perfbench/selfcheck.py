"""Quick self-check of the benchmark: every workload, untraced and traced.

    python3 perfbench/selfcheck.py [--seconds 2]

Runs ``run.py`` on each workload for a few ops in both modes and asserts that
the last line names every metric of ``BENCHMARK.json`` with its unit, that
the outputs checked correct and that no op failed. With ``--seconds 30`` it
doubles as the one command that prints every metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, seconds: float, specs: list[dict]) -> list[str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1234", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    print(done.stdout, end="")
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: outputs did not check correct")
    if not result.get("attempted", 0) >= 1 or result.get("failed") != 0:
        problems.append(f"{where}: failed_share is not 0 "
                        f"({result.get('failed')} of {result.get('attempted')})")
    metrics = result.get("metrics", {})
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {metric!r}, expected a value in {unit}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check_run(workload, 0, args.seconds, bench["end_to_end"])
        problems += check_run(workload, 1, args.seconds, bench["per_layer"])
    for problem in problems:
        print(f"SELFCHECK FAIL {problem}")
    print(f"selfcheck: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
