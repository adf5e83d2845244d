"""Golden pin: the exact outputs of ``s_id``, ``s_recover`` and ``is_id``.

Verdicts, witnesses, text (both sum symbols) and LaTeX over a seeded set of
random graphs, some of more than thirty vertices, are hashed into one digest;
the JSON of the same estimands, which pins the tree shape that the text form
cannot tell apart, into a second.  A third covers ``s_id`` alone on sparse
graphs of 64-160 vertices and on two chains, where the component factors'
run boundaries are few in the first and every position in the second.
The topological tie-break decides the prefix marginals of every estimand, so
a graph-kernel change that moves it fails here, not only in the benchmark.
The digest was recorded with the name-set graph kernel that preceded the
bitmask one, and must not depend on the interpreter's hash seed.
"""

import hashlib
import json

import numpy as np

from subid import AugmentedAdmg, is_id, render, s_id, s_recover, to_json

from helpers import ancestors_reference, random_admg, random_query, scrambled_names

GOLDEN = "7f4fc842d292b7838e1d04d6267ea65d50e88d4b5df48980d81fe773c92b5b79"
GOLDEN_JSON = "4417c4c0666a816a0bb736cd689905d17d1011e6d20fad0730c78c01837132a5"
GOLDEN_LARGE = "6e07bfa57b299235ca0a64ff5588cb5143532261e1d88b12c2c2976ef8852edc"


def _queries(rng, g, large):
    """Three queries: random pairs on small graphs; on large ones an outcome
    outside the selection ancestry and a treatment among its ancestors."""
    if not large:
        return [random_query(rng, g) for _ in range(3)]
    outside = list(g.split_by_selection()[1])
    out = []
    for _ in range(3):
        y = outside[int(rng.integers(len(outside)))]
        up = [v for v in ancestors_reference(g, [y]) if v not in (y, "S")] or [
            v for v in g.observed if v != y
        ]
        out.append(((up[int(rng.integers(len(up)))],), (y,)))
    return out


def golden_queries():
    """The seeded graphs and their queries, as ``(g, x, y)``."""
    rng = np.random.default_rng(2024)
    for k in range(48):
        large = k % 4 == 3
        if large:
            n = int(rng.integers(31, 49))
            g = random_admg(
                rng, names=scrambled_names(rng, n), p_dir=2.5 / n, p_bi=1.0 / n,
                p_sel_dir=4 / n, p_sel_bi=2 / n,
            )
        else:
            g = random_admg(rng)
        for x, y in _queries(rng, g, large):
            yield g, x, y


def golden_lines():
    for g, x, y in golden_queries():
        yield repr(("is_id", x, y, is_id(g, x, y)))
        for fn in (s_id, s_recover):
            r = fn(g, x, y)
            out = [fn.__name__, x, y, r.status]
            out.append(json.dumps(r.witness.to_dict() if r.witness else None))
            if r.identifiable:
                out += [render(r.estimand, "text"), render(r.estimand, "text", unicode_sum=False)]
                out.append(render(r.estimand, "latex"))
            yield repr(out)


def golden_json_lines():
    for g, x, y in golden_queries():
        for fn in (s_id, s_recover):
            r = fn(g, x, y)
            yield repr([fn.__name__, x, y, to_json(r.estimand) if r.identifiable else None])


def chain(n):
    """``V0 -> ... -> Vn`` with ``Vi <-> Vi+2`` and ``V0 -> S``: two interleaved districts."""
    names = [f"V{i}" for i in range(n + 1)]
    directed = [*zip(names, names[1:]), ("V0", "S")]
    return AugmentedAdmg([*names, "S"], directed, zip(names, names[2:]), selection="S")


def large_queries():
    """Sparse random graphs of 64-160 vertices, each with the queries of
    :func:`_queries` plus two random pairs, and a few queries on each chain."""
    rng = np.random.default_rng(2026)
    for k in range(18):
        n = int(rng.integers(64, 161))
        g = random_admg(
            rng, names=scrambled_names(rng, n), p_dir=2.5 / n, p_bi=(1, 4, 12)[k % 3] / n,
            p_sel_dir=4 / n, p_sel_bi=2 / n,
        )
        queries = [*_queries(rng, g, True), *(random_query(rng, g) for _ in range(2))]
        yield from ((g, x, y) for x, y in queries)
    for n in (64, 128):
        g = chain(n)
        for a, b in ((1, n), (n // 3, n), (2, n // 2), (n // 2, n - 1)):
            yield g, (f"V{a}",), (f"V{b}",)


def large_lines():
    for g, x, y in large_queries():
        r = s_id(g, x, y)
        out = [x, y, r.status, json.dumps(r.witness.to_dict() if r.witness else None)]
        if r.identifiable:
            out += [render(r.estimand, "text"), to_json(r.estimand)]
        yield repr(out)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_outputs_match_the_golden_digest():
    assert _digest(golden_lines()) == GOLDEN


def test_estimand_trees_match_the_golden_json_digest():
    assert _digest(golden_json_lines()) == GOLDEN_JSON


def test_large_graphs_and_chains_match_the_golden_digest():
    assert _digest(large_lines()) == GOLDEN_LARGE
