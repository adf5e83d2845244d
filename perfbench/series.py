"""Run the benchmark over several seeds and summarise the spread.

One checkout::

    python3 perfbench/series.py --seeds 0-9 --out runs.jsonl

prints, per workload and metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the bound in
``BENCHMARK.json``.

Two checkouts, for a before/after comparison::

    python3 perfbench/series.py --seeds 0-9 --base ../parent --change . --out pair

alternates which side runs first for each seed, writes ``pair/base.jsonl``
and ``pair/change.jsonl`` and prints the comparison of ``compare.py``.
Each record is ``{"workload", "seed", "trace", "result"}`` with ``result``
the benchmark's last output line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in ``checkout``, using that checkout's own benchmark code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed in {checkout}: {workload} seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def spread_table(records: list[dict], bounds: dict) -> None:
    by = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    print(f"{'workload':9s} {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for (workload, name), values in by.items():
        q1, med, q3 = compare.quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  wide" if spread <= bound else "  OVER"))
        print(f"{workload:9s} {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    failed = sum(r["result"]["failed"] for r in records)
    print(f"{len(records)} runs, {failed} failed operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--base", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    if bool(args.base) != bool(args.change):
        parser.error("--base and --change go together")
    if not args.base:
        with open(args.out, "w") as out:
            records = []
            for workload in workloads:
                for seed in seeds(args.seeds):
                    records.append(run_once(os.getcwd(), workload, seed, seconds, args.trace))
                    out.write(json.dumps(records[-1]) + "\n")
                    out.flush()
        spread_table(records, bounds)
        return 0
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, f"{side}.jsonl") for side in ("base", "change")}
    files = {side: open(path, "w") for side, path in paths.items()}
    try:
        for workload in workloads:
            for i, seed in enumerate(seeds(args.seeds)):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    checkout = args.base if side == "base" else args.change
                    files[side].write(json.dumps(run_once(checkout, workload, seed, seconds, args.trace)) + "\n")
                    files[side].flush()
    finally:
        for f in files.values():
            f.close()
    return compare.main([paths["base"], paths["change"]])


if __name__ == "__main__":
    sys.exit(main())
