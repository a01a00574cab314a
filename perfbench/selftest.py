"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload it runs ``perfbench/run.py`` at ``--size tiny`` for one
second, untraced and traced, and checks that:

* the result line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with no failed request;
* every metric that ``BENCHMARK.json`` names is reported with its unit,
  and printed by name with its unit;
* the traced spans cover the ``Session.grid`` / job wall time, and every
  request made exactly one call into its root layer.

It then checks that a directory holding only ``BENCHMARK.json`` and this
directory (no program source) makes the benchmark fail without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Largest share of request wall time that no layer span may cover.  The
#: tiny graphs make the queue hand-off a visible share on service-warm.
MAX_UNATTRIBUTED = 0.3
ROOT_LAYER = {
    "grid-structural": "analytics.grid.calls",
    "grid-sampling": "analytics.grid.calls",
    "service-warm": "service.execute_job.calls",
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-3000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} failed")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(expected))} differ")
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in expected.items():
        if (name, unit) not in printed:
            problems.append(f"{where}: {name} [{unit}] not printed")
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if metrics["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
            problems.append(f"{where}: spans leave {metrics['trace.unattributed_frac']:.1%} uncovered")
        if metrics[ROOT_LAYER[workload]] != 1.0:
            problems.append(f"{where}: {ROOT_LAYER[workload]} = {metrics[ROOT_LAYER[workload]]}")
    return problems


def check_without_source() -> list[str]:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, "grid-structural", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without program source: exit {done.returncode}, output {lines[-1:]}"]
    return []


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = check_without_source()
    print(f"without program source: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
