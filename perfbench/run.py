"""Seeded benchmark for ``subid``: one workload per call, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload identify --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; a
readable summary goes to standard error.  This process imports neither
``subid`` nor numpy: every workload runs in fresh worker processes
(``worker.py``), so set-up and import times are those a user sees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import bruteforce
import corpus
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPANS_DIR = os.path.join(ROOT, ".bench_build")
WORKER_TIMEOUT = 150
SETUP_PROBES = 6  # set-up-only processes; the measuring worker adds one more sample
IMPORT_PROBES = 5
WORKLOADS = ("identify", "verify")
TAIL_SAMPLES = 10  # the tail is the highest percentile with this many samples beyond it
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "estimand_chars": "count",
}
JOINTS = ("joint", "latent_joint", "observational_s", "interventional_joint",
          "interventional_s", "interventional_population")
CONSTRUCTORS = ("prob", "sum_over", "product", "quotient")


def build(workload: str, seed: int, scale: float) -> dict:
    """The worker's input: graph texts plus the operations on them."""
    if workload == "identify":
        c = corpus.identify_corpus(seed, scale)
        queries = [[q.graph, q.mode, q.treatment, q.outcome] for q in c.queries]
    else:
        c = corpus.verify_corpus(seed, scale)
        queries = [[q.graph, q.treatment, q.outcome, q.domain, q.trials, q.model_seed] for q in c.queries]
    return {"texts": list(c.texts), "queries": queries}


def cli_calls(seed: int) -> list:
    """The example command lines the traced run times in-process."""
    graph_dir = os.path.relpath(os.path.join(HERE, "graphs"), ROOT)
    return [[c.argv, c.status, c.text] for c in corpus.cli_corpus(seed, graph_dir)]


def worker(workload: str, mode: str, payload: str, seconds: float, *extra: str) -> tuple[float, dict]:
    """Run one worker process; returns (spawn time, its JSON output)."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, mode, str(seconds), *extra],
        input=payload, capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited with status {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_SAMPLES`` of ``n`` samples beyond it."""
    return max([50] + [p for p in range(50, 100) if n * (100 - p) >= TAIL_SAMPLES * 100])


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def expected_codes(workload: str, seed: int, payload: dict, full_size: bool) -> dict[int, str]:
    """Verdict codes the program must give, by query index.

    From the reference file recorded for this seed, when there is one and the
    corpus is full size, and by definition for every graph small enough.
    """
    if workload != "identify":
        return {}
    want: dict[int, str] = {}
    with open(REFERENCE) as f:
        recorded = json.load(f)["identify"].get(str(seed))
    if recorded is not None and full_size:
        if recorded["digest"] != digest(payload):
            raise SystemExit(f"reference for seed {seed} was recorded on another corpus; re-record it")
        want.update(enumerate(recorded["codes"]))
    for index, code in definitional_codes(payload).items():
        if want.setdefault(index, code) != code:
            raise SystemExit(f"reference disagrees with the definition on query {index} of seed {seed}")
    return want


def definitional_codes(payload: dict) -> dict[int, str]:
    """:mod:`bruteforce` verdicts for the queries on graphs small enough to enumerate."""
    out = {}
    for index, (graph, mode, x, y) in enumerate(payload["queries"]):
        text = payload["texts"][graph]
        if len(bruteforce.parse(text).vertices) <= bruteforce.LIMIT:
            out[index] = bruteforce.verdict(text, mode, x, y)
    return out


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def failures(out: dict, want: dict[int, str], passes: int) -> tuple[int, list[str]]:
    """Failed operations: problems the worker saw plus wrong verdicts, per pass."""
    failed = {(p, i) for p, i, _ in out["problems"]}
    notes = [f"pass {p} op {i}: {why}" for p, i, why in out["problems"][:5]]
    for index, code in want.items():
        if out["codes"][index] != code:
            failed |= {(p, index) for p in range(passes)}
            notes.append(f"op {index}: verdict {out['codes'][index]}, expected {code}")
    return len(failed), notes


def end_to_end(workload: str, seconds: float, payload: dict, want: dict[int, str]) -> dict:
    text = json.dumps(payload)
    def setup_probe() -> float:
        spawned, probe = worker(workload, "setup", text, seconds)
        return probe["first_op"] - spawned

    # probes on both sides of the measuring run, so a slow minute skews fewer
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    spawned, out = worker(workload, "run", text, seconds)
    setups.append(out["first_op"] - spawned)
    setups += [setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    passes = out["latencies_ns"]
    # outside load only ever adds time, so each operation is taken at its
    # fastest pass, which is far steadier than any one pass on a shared machine
    lat_ms = [min(times) / 1e6 for times in zip(*passes)]
    failed, notes = failures(out, want, len(passes))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) * 1e3 / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, tail_percentile(len(lat_ms))),
        "peak_rss_mb": out["rss_mb"],
        "estimand_chars": out["chars"],
    }
    result = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    notes.append(f"{len(passes)} passes of {len(lat_ms)} operations; tail = p{tail_percentile(len(lat_ms))}")
    return {"attempted": len(lat_ms) * len(passes), "failed": failed, "notes": notes, "metrics": result}


def import_probes() -> dict:
    """Interpreter start-up and import costs of the CLI, one process at a time."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    bare, subid_ms, numpy_ms = [], [], []
    for _ in range(IMPORT_PROBES):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((time.perf_counter() - began) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import subid"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        subid_ms.append(cumulative["subid"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_subid_ms": statistics.median(subid_ms),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
    }


def per_layer(workload: str, seed: int, payload: dict, want: dict[int, str]) -> dict:
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")
    _, out = worker(workload, "trace", json.dumps({**payload, "cli": cli_calls(seed)}), 0, spans)
    failed, notes = failures(out, want, 2)
    calls, self_ms, errors = out["calls"], out["self_ms"], out["errors"]

    def layer_total(counter, layer):
        return sum(v for k, v in counter.items() if k.startswith(layer + "."))

    checks = sum(trials * domain ** (len(x) + len(y)) for _, x, y, domain, trials, _ in payload["queries"]) \
        if workload == "verify" else 0
    hedges = out["codes"].count("h")
    metrics = {
        "estimand.simplify.calls": (calls.get("estimand.simplify", 0), "count"),
        "estimand.simplify.self_ms": (self_ms.get("estimand.simplify", 0.0), "ms"),
        "estimand.render.calls": (calls.get("estimand.render", 0), "count"),
        "estimand.product.calls": (calls.get("estimand.product", 0), "count"),
        "estimand.constructors.self_ms": (sum(self_ms.get(f"estimand.{c}", 0.0) for c in CONSTRUCTORS), "ms"),
        "estimand.nodes": (out["nodes"], "count"),
        "estimand.evaluate.calls": (calls.get("estimand.evaluate", 0), "count"),
        "estimand.evaluate.self_ms": (self_ms.get("estimand.evaluate", 0.0), "ms"),
        "estimand.self_ms": (layer_total(self_ms, "estimand"), "ms"),
        "oracle.joint.calls": (sum(calls.get(f"oracle.DiscreteScm.{j}", 0) for j in JOINTS), "count"),
        "oracle.joint.self_ms": (sum(self_ms.get(f"oracle.DiscreteScm.{j}", 0.0) for j in JOINTS), "ms"),
        "oracle.random_scm.self_ms": (self_ms.get("oracle.random_scm", 0.0), "ms"),
        "oracle.table_prob.calls": (calls.get("oracle.ProbabilityTable.prob", 0), "count"),
        "oracle.table_prob.per_check": (
            calls.get("oracle.ProbabilityTable.prob", 0) / checks if checks else 0.0, "lookups/check"),
        "oracle.peak_alloc_mb": (out["peak_alloc_mb"], "MB"),
        "oracle.self_ms": (layer_total(self_ms, "oracle"), "ms"),
        "graph.builds": (calls.get("graph.AugmentedAdmg.__init__", 0), "count"),
        "graph.induced_subgraph.calls": (calls.get("graph.AugmentedAdmg.induced_subgraph", 0), "count"),
        "graph.ancestors.calls": (calls.get("graph.AugmentedAdmg.ancestors", 0), "count"),
        "graph.self_ms": (layer_total(self_ms, "graph"), "ms"),
        "components.s_components.calls": (calls.get("components.s_components", 0), "count"),
        "components.c_components.calls": (calls.get("components.c_components", 0), "count"),
        "components.self_ms": (layer_total(self_ms, "components"), "ms"),
        "components.find_s_hedge.per_hedge_fail": (
            calls.get("components.find_s_hedge", 0) / hedges if hedges else 0.0, "searches/hedge"),
        "separation.m_separated.calls": (calls.get("separation.m_separated", 0), "count"),
        "separation.self_ms": (layer_total(self_ms, "separation"), "ms"),
        "identify.s_id_single.calls": (calls.get("identify.s_id_single", 0), "count"),
        "identify.self_ms": (layer_total(self_ms, "identify"), "ms"),
        "parser.parse_graph.self_ms": (self_ms.get("parser.parse_graph", 0.0), "ms"),
        "cli.main_ms": (out["cli_main_ms"], "ms"),
        "trace.overhead_ratio": (out["traced_s"] / out["plain_s"], "ratio"),
        "fail_ratio": (failed / out["attempted"], "ratio"),
    }
    metrics.update({k: (v, "ms") for k, v in import_probes().items()})
    metrics.update({f"{layer}.errors": (layer_total(errors, layer), "count") for layer in tracing.LAYERS})
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    notes = notes + [f"spans: {out['spans_kept']} kept, {out['spans_dropped']} beyond the cap, in {spans}"]
    return {"attempted": out["attempted"], "failed": failed, "notes": notes, "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "subid", "__init__.py")):
        print("run from the repository root: src/subid is missing", file=sys.stderr)
        return 2
    payload = build(args.workload, args.seed, args.scale)
    want = expected_codes(args.workload, args.seed, payload, full_size=args.scale == 1.0)
    if args.trace:
        out = per_layer(args.workload, args.seed, payload, want)
    else:
        out = end_to_end(args.workload, args.seconds, payload, want)
    for note in out["notes"]:
        print(note, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {out['attempted']} operations, {out['failed']} failed",
          file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
