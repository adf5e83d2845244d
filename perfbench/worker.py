"""One workload in a fresh process: set up, run timed passes, check every output.

Started by ``run.py`` with the corpus as JSON on standard input; prints one
JSON object on standard output.  The set-up clock ends just before the first
timed operation, so ``import subid`` and ``parse_graph`` over the corpus are
inside it.  Operations run one at a time (a closed loop with one client).

Usage: worker.py WORKLOAD {setup|run|trace} SECONDS [SPANS_PATH] < corpus.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
VERIFY_THRESHOLD = 1e-7  # acceptance criterion 3
MEMORY_STRIDE = 4
CLI_REPEATS = 3


def main() -> int:
    workload, mode, seconds = sys.argv[1], sys.argv[2], float(sys.argv[3])
    corpus = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    import subid

    if not os.path.abspath(subid.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported subid from {subid.__file__}, not from {SRC}")
    graphs = [subid.parse_graph(text).graph for text in corpus["texts"]]
    ops = OPS[workload](subid, graphs, corpus)
    first_op = time.perf_counter()
    if mode == "setup":
        out = {"first_op": first_op}
    elif mode == "run":
        out = measure(ops, seconds)
        out["first_op"] = first_op
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        out = traced(subid, ops, corpus, sys.argv[4])
    left = tracing.wrapped_functions(subid)
    if left:
        raise SystemExit(f"functions left wrapped after the run: {left}")
    print(json.dumps(out))
    return 0


# -- operations ------------------------------------------------------------------
#
# An operation is a pair (run, check): ``run()`` is timed and returns the raw
# output; ``check(output)`` is not timed and returns (verdict code, text chars,
# problem or None).


def identify_ops(api, graphs, corpus):
    def make(g, mode, x, y):
        def run():
            if mode == "idcheck":
                return api.is_id(g, x, y)
            result = (api.s_id if mode == "sid" else api.s_recover)(g, x, y)
            if result.identifiable:
                return result, api.render(result.estimand, "text", unicode_sum=False)
            return result, None

        def check(out):
            if mode == "idcheck":
                return ("y" if out else "n"), 0, None
            result, text = out
            w = result.witness
            if result.identifiable:
                return "i", len(text), None if text else "empty estimand text"
            if isinstance(w, api.SeparationWitness):
                cut = g.edge_surgery(w.bar_in, w.bar_out)
                bad = api.m_separated(cut, w.left, w.right, w.given)
                return "s", 0, "separation witness is separated" if bad else None
            if isinstance(w, api.HedgeWitness):
                ok = api.is_s_hedge(g, w.component, w.hedge)
                return "h", 0, None if ok else "hedge witness is not an s-hedge"
            return "?", 0, f"failure without a witness: {w!r}"

        return run, check

    return [make(graphs[q[0]], q[1], q[2], q[3]) for q in corpus["queries"]]


def verify_ops(api, graphs, corpus):
    def make(g, x, y, domain, trials, seed):
        def run():
            return api.verify(g, x, y, trials=trials, domain_size=domain, seed=seed)

        def check(report):
            if report["status"] != "identifiable":
                return "h", 0, f"status {report['status']}, expected identifiable"
            err = report["max_abs_error"]
            if report["trials"] != trials or not err < VERIFY_THRESHOLD:
                return "i", 0, f"max_abs_error {err} over {report['trials']} trials"
            return "i", len(report["estimand_text"]), None

        return run, check

    return [make(graphs[q[0]], *q[1:]) for q in corpus["queries"]]


OPS = {"identify": identify_ops, "verify": verify_ops}


def cli_ops(calls):
    """The example command lines as in-process ``subid.cli.main`` calls."""
    import subid.cli

    def make(argv, status, text):
        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = subid.cli.main(list(argv))
            return code, buffer.getvalue()

        return run, lambda out: check_cli(argv, status, text, *out)

    return [make(*call) for call in calls]


def check_cli(argv, status, text, code, stdout):
    if code != status:
        return "?", 0, f"{' '.join(argv)}: exit {code}, expected {status}"
    if argv == ["verify", "--demo"]:
        report = json.loads(stdout)
        gap = abs(report["estimand_value"] - report["true_effect"])
        return "i", 0, None if gap < 1e-9 else f"demo estimand is off by {gap}"
    if argv[0] == "verify":
        report = json.loads(stdout)
        err = report["max_abs_error"]
        ok = report["status"] == "identifiable" and err is not None and err < VERIFY_THRESHOLD
        return "i", 0, None if ok else f"verify: status {report['status']}, max_abs_error {err}"
    if "json" in argv:
        got = json.loads(stdout)["status"]
        want = "identifiable" if status == 0 else "fail"
        return got[0], 0, None if got == want else f"json status {got}, expected {want}"
    if text is not None and stdout.strip() != text:
        return "?", 0, f"output {stdout.strip()!r}, expected {text!r}"
    return "i" if status == 0 else "f", 0, None


# -- timed passes -------------------------------------------------------------------


def run_pass(ops, latencies, codes, problems, pass_index, wrap=None) -> int:
    """Time every operation once, then check it; returns the text characters produced."""
    chars = 0
    for index, (run, check) in enumerate(ops):
        start = time.perf_counter_ns()
        try:
            if wrap is None:
                out = run()
            else:
                with wrap():
                    out = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter_ns() - start)
            problems.append((pass_index, index, f"raised {exc!r}"))
            codes.append("!")
            continue
        latencies.append(time.perf_counter_ns() - start)
        try:
            code, n, problem = check(out)
        except Exception as exc:
            code, n, problem = "?", 0, f"check raised {exc!r}"
        codes.append(code)
        chars += n
        if problem:
            problems.append((pass_index, index, problem))
    return chars


def measure(ops, seconds: float) -> dict:
    """Whole passes over the corpus while another fits in ``seconds``; at least one."""
    passes: list[list[int]] = []
    problems: list = []
    first_codes: list[str] = []
    chars = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        latencies: list[int] = []
        codes: list[str] = []
        pass_chars = run_pass(ops, latencies, codes, problems, len(passes))
        if not passes:
            first_codes, chars = codes, pass_chars
        else:
            problems += [
                (len(passes), i, f"verdict {b} differs from the first pass's {a}")
                for i, (a, b) in enumerate(zip(first_codes, codes)) if a != b
            ]
        passes.append(latencies)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    return {"latencies_ns": passes, "codes": "".join(first_codes), "chars": chars, "problems": problems}


# -- traced run ---------------------------------------------------------------------


def traced(api, ops, corpus, spans_path) -> dict:
    """An untraced pass, the same pass under the tracer, then memory and CLI probes."""
    plain = measure(ops, 0.0)
    problems = plain["problems"]
    tracer = tracing.Tracer()
    tracer.install(api)
    nodes: list[int] = []
    latencies: list[int] = []
    codes: list[str] = []
    try:
        for text in corpus["texts"]:
            api.parse_graph(text)
        # checks and node counts run with the wrappers passing straight through
        traced_ops = [(run, lambda out, c=check: tracer.paused(count_nodes, api, c, nodes, out))
                      for run, check in ops]
        run_pass(traced_ops, latencies, codes, problems, 1, wrap=lambda: tracer.span("op"))
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    problems += [
        (1, i, f"traced verdict {b} differs from the untraced {a}")
        for i, (a, b) in enumerate(zip(plain["codes"], codes)) if a != b
    ]
    attempted = 2 * len(ops)

    peak_alloc = 0
    if any(name.startswith("oracle.") for name in tracer.calls):
        # tracemalloc slows every allocation tenfold, so it gets a pass of its
        # own, over every MEMORY_STRIDE-th operation
        memory = tracing.Tracer(keep=0, alloc_layer="oracle")
        memory.install(api, only="oracle")
        try:
            run_pass(ops[::MEMORY_STRIDE], [], [], problems, 2)
        finally:
            memory.uninstall()
        peak_alloc = memory.peak_alloc
        attempted += len(ops[::MEMORY_STRIDE])

    # the example command lines, in-process: each call's fastest of a few runs
    calls = cli_ops(corpus["cli"])
    cli = tracing.Tracer(keep=0)
    cli.install(api, only="cli")
    runs: list[list[int]] = []
    try:
        for repeat in range(CLI_REPEATS):
            runs.append([])
            run_pass(calls, runs[-1], [], problems, 3 + repeat)
    finally:
        cli.uninstall()
    attempted += CLI_REPEATS * len(calls)

    return {
        "codes": plain["codes"],
        "problems": problems,
        "attempted": attempted,
        "plain_s": sum(plain["latencies_ns"][0]) / 1e9,
        "traced_s": sum(latencies) / 1e9,
        "calls": dict(tracer.calls),
        "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
        "errors": dict(tracer.errors + cli.errors),
        "nodes": sum(nodes),
        "peak_alloc_mb": peak_alloc / 2**20,
        "cli_main_ms": statistics.median(min(t) for t in zip(*runs)) / 1e6,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }


def count_nodes(api, check, sink, out):
    """Check an output, first adding its estimand's node count to ``sink``."""
    if isinstance(out, tuple) and isinstance(out[0], api.IdentifyResult):
        if out[0].estimand is not None:
            sink.append(tree_size(api, out[0].estimand))
    elif isinstance(out, dict) and out.get("estimand"):
        sink.append(dict_size(out["estimand"]))
    return check(out)


def tree_size(api, root) -> int:
    """Nodes of the estimand as a tree (shared subtrees counted each time)."""
    sizes: dict[int, int] = {}

    def size(node) -> int:
        key = id(node)
        if key not in sizes:
            if isinstance(node, api.SumOver):
                kids = [node.body]
            elif isinstance(node, api.Product):
                kids = list(node.factors)
            elif isinstance(node, api.Quotient):
                kids = [node.num, node.den]
            else:
                kids = []
            sizes[key] = 1 + sum(size(k) for k in kids)
        return sizes[key]

    return size(root)


def dict_size(d) -> int:
    kids = [d["body"]] if "body" in d else d.get("factors", []) + [d[k] for k in ("num", "den") if k in d]
    return 1 + sum(dict_size(k) for k in kids)


if __name__ == "__main__":
    sys.exit(main())
