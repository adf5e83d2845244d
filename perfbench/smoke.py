"""Quick self-check of the benchmark; run from the repository root.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and fails unless
each run exits 0 and prints every metric of ``BENCHMARK.json`` with its unit,
no operation failed and ``fail_ratio`` is 0.  It also copies the benchmark
alone (``BENCHMARK.json`` and this directory, without the program) into a
scratch directory under ``.bench_build/`` and checks that a run there fails
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCALE = "0.05"


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
            ratio = result["metrics"].get("fail_ratio", {}).get("value", 0)
            if ratio:
                problems.append(f"{where}: fail_ratio {ratio}")
            print(f"{where}: {result['attempted']} operations, {len(got)} metrics", file=sys.stderr)
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
