"""Compare two result files, metric by metric and workload by workload.

Usage::

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds one record per line as ``series.py`` writes them.  Runs are
paired in file order within a workload (the i-th base run with the i-th
change run, same seed).  For every workload and metric the report gives both
sides' median and quartiles, the change's wins over the pairs, and a verdict:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  base's own interquartile distance;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``within bound``: neither, with the base's spread inside the bound;
* ``unresolved``: neither, and the base's spread is wider than the bound,
  unless every change run beats every base run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path: str) -> dict:
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(base: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, med_b, q3 = quartiles(base)
    med_c = quartiles(change)[1]
    gap = sign * (med_c - med_b)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > q3 - q1:
        return "improved", wins, len(pairs)
    if bound is not None and med_b and -gap > bound * abs(med_b):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if bound is not None and med_b and (q3 - q1) / abs(med_b) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    direction = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':9s} {'metric':32s} {'base median [q1, q3]':>36s} {'change median [q1, q3]':>36s}"
          f" {'wins':>6s}  verdict")
    for workload in base:
        b_runs, c_runs = base[workload], change.get(workload, [])
        if [r["seed"] for r in b_runs] != [r["seed"] for r in c_runs]:
            print(f"{workload}: the two files ran different seeds; not compared", file=sys.stderr)
            continue
        for name in b_runs[0]["result"]["metrics"]:
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            better, bound = direction.get(name, ("lower", None))
            word, wins, pairs = verdict(b, c, better, bound)
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:9s} {name:32s} {bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.4g}, {cq[2]:9.4g}] {wins:>3d}/{pairs:<3d} {word}")
        failed = [sum(r["result"]["failed"] for r in runs) for runs in (b_runs, c_runs)]
        print(f"{workload:9s} failed operations: base {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
