"""Seeded inputs for the benchmark, built with the standard library only.

Graphs are generated as ``.g`` text, the program's own input language, so the
program sees nothing but graph files and queries.  The same seed always gives
the same texts and the same queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import bruteforce

# random ADMGs: (observed vertices, density, graphs, queries per graph).  The
# largest share of the random draws' time goes to the 128-vertex classes, which
# have many graphs, so the workload's total rests on fifty draws, not a few.
# The dense 256-vertex class is the costliest and most variable per query, so
# it is kept small; with the chain family it forms the tail.  A pass stays near
# six seconds, so that a run holds enough passes for each operation's fastest
# one to miss the shared machine's slow spells.
RANDOM_CLASSES = (
    (8, "sparse", 40, 6), (8, "dense", 40, 6),
    (16, "sparse", 30, 5), (16, "dense", 30, 5),
    (32, "sparse", 20, 4), (32, "dense", 20, 4),
    (64, "sparse", 15, 3), (64, "dense", 15, 3),
    (128, "sparse", 20, 2), (128, "dense", 30, 2),
    (256, "sparse", 10, 2), (256, "dense", 2, 1),
)
# chain length -> queries; the chain is fixed, so these are seed-independent.
# The 256 chain has the costliest queries bar a few dense 256 draws, and enough
# of them that p99 falls in the middle of its group, not at its cheap edge
CHAINS = ((64, 6), (128, 6), (256, 20))
# modes are dealt in this fixed rotation, so every seed has the same mix
SMALL_MODES = ("sid", "srecover", "sid", "idcheck", "sid", "srecover",
               "sid", "sid", "srecover", "sid", "idcheck")
LARGE_MODES = ("sid", "sid", "sid", "sid", "idcheck")
# (expected parents per vertex, bidirected edges per vertex, parents of S, siblings of S)
DENSITY = {"sparse": (1.2, 0.3, 2, 1), "dense": (2.5, 0.8, 4, 2)}
# verify: (observed vertices, bidirected edges besides the one at S, domain
# size, queries).  Domain 3 stays on five vertices: on six, one check in ten
# costs ten times the median, and the tail would follow those few draws.  The
# cheap five- and six-vertex classes at domain 2 hold the median inside their
# common range, where a hundred and sixty draws make it steady from seed to
# seed; the seven-vertex class alone spreads fivefold.
VERIFY_CLASSES = ((5, 2, 3, 40), (5, 2, 2, 120), (6, 2, 2, 40), (7, 3, 2, 40))
VERIFY_TRIALS = 2
# verify's chain family: (chain length, domain size, queries), each query the
# effect of V1 on the chain's end, with a seeded model.  Its cost is fixed by
# the chain and exceeds all but a few random draws, so it holds the tail
# percentile inside it whatever the seed, as the chains do for ``identify``.
VERIFY_CHAINS = ((4, 3, 16),)


@dataclass(frozen=True)
class Query:
    """One identification query; ``mode`` is ``sid``, ``srecover`` or ``idcheck``."""

    graph: int
    mode: str
    treatment: tuple[str, ...]
    outcome: tuple[str, ...]


@dataclass(frozen=True)
class VerifyQuery:
    graph: int
    treatment: tuple[str, ...]
    outcome: tuple[str, ...]
    domain: int
    trials: int
    model_seed: int


@dataclass(frozen=True)
class Corpus:
    texts: tuple[str, ...]
    queries: tuple


# (arguments after the graph path, expected exit status, exact README output or None)
CLI_QUERIES = {
    "demo.g": [(["--treatment", "X", "--outcome", "Y"], 0, None)],
    "hedges.g": [
        (["--treatment", "X2", "--outcome", "Y2"], 0, None),
        (["--treatment", "Z2", "--outcome", "Y2"], 2, None),
        (["--treatment", "X1", "--outcome", "Y2"], 2, None),
        (["--treatment", "X1,X2", "--outcome", "Y2"], 0, None),
    ],
    "id_classic.g": [
        (["--mode", "id-check", "--treatment", "X1", "--outcome", "Y1"], 0, None),
        (["--mode", "id-check", "--treatment", "X1,X2", "--outcome", "Y1,Y2"], 2, None),
    ],
    "latent_selection.g": [
        (["--treatment", "X", "--outcome", "Y"], 2,
         "not identified by this algorithm: {X, Y} is an s-hedge for {Y}"),
    ],
    "medication.g": [
        (["--treatment", "X", "--outcome", "Y"], 0,
         "Sum_{Z} (P(X,Y|Z,S=1) / (Sum_{Y} P(X,Y|Z,S=1))) P(Z|S=1)"),
    ],
    "recoverability.g": [
        (["--mode", "srecover", "--treatment", "X1", "--outcome", "Y"], 2, None),
        (["--mode", "srecover", "--treatment", "X2", "--outcome", "Y"], 0, None),
    ],
}
# ``subid verify`` on a graph file: (graph, treatment, outcome)
CLI_VERIFY = (("demo.g", "X", "Y"), ("hedges.g", "X2", "Y2"), ("medication.g", "X", "Y"))
CLI_FORMATS = ("json", "latex")  # besides the default text
CLI_DEMOS = 4  # ``verify --demo`` runs


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    status: int
    text: str | None  # exact stdout for text format, else None


@dataclass(frozen=True)
class RandomAdmg:
    """A generated graph: its ``.g`` text and, per vertex index, its parents."""

    text: str
    parents: tuple[tuple[int, ...], ...]
    selection_parents: tuple[int, ...]


def random_admg(rng: random.Random, n: int, density: str) -> RandomAdmg:
    """A random acyclic mixed graph over ``V0..V{n-1}`` plus selection ``S``.

    Selection parents come from the first quarter of the topological order,
    so the selection ancestry stays a minority of the graph and queries land
    on both sides of it.
    """
    per_parent, per_bi, s_parents, s_siblings = DENSITY[density]
    order = list(range(n))
    rng.shuffle(order)
    parents: list[tuple[int, ...]] = [()] * n
    lines = []
    for j in range(1, n):
        k = min(j, int(per_parent) + (rng.random() < per_parent % 1))
        parents[order[j]] = tuple(order[i] for i in rng.sample(range(j), k))
        lines += [f"V{p} -> V{order[j]}" for p in parents[order[j]]]
    for _ in range(round(per_bi * n)):
        u, v = rng.sample(range(n), 2)
        lines.append(f"V{u} <-> V{v}")
    early = order[: max(1, n // 4)]
    sel_parents = tuple(rng.sample(early, min(len(early), s_parents)))
    lines += [f"V{v} -> S" for v in sel_parents]
    lines += [f"V{v} <-> S" for v in rng.sample(range(n), s_siblings)]
    lines.append("select S")
    return RandomAdmg("\n".join(lines) + "\n", tuple(parents), sel_parents)


def chain_text(n: int) -> str:
    """``V0 -> ... -> Vn`` with ``Vi <-> Vi+2`` and ``V0 -> S``."""
    lines = [f"V{i} -> V{i + 1}" for i in range(n)]
    lines += [f"V{i} <-> V{i + 2}" for i in range(n - 1)]
    lines += ["V0 -> S", "select S"]
    return "\n".join(lines) + "\n"


def _ancestors(parents, seeds) -> set[int]:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _names(vertices) -> tuple[str, ...]:
    return tuple(sorted(f"V{v}" for v in vertices))


def _small_query(rng: random.Random, graph: int, g: RandomAdmg, k: int) -> Query:
    """Any mode; treatment of one or two vertices, outcome mostly downstream."""
    n = len(g.parents)
    mode = SMALL_MODES[k % len(SMALL_MODES)]
    x = rng.sample(range(n), 1 + k % 2)
    below = [v for v in range(n) if v not in x and _ancestors(g.parents, [v]) & set(x)]
    pool = below if below and rng.random() < 0.8 else [v for v in range(n) if v not in x]
    y = rng.sample(pool, min(len(pool), 1 + k // 2 % 2))
    return Query(graph, mode, _names(x), _names(y))


def _large_query(rng: random.Random, graph: int, g: RandomAdmg, k: int) -> Query:
    """One treatment outside the selection ancestry, one outcome downstream of it.

    The outcome's ancestry is held between n/16 and n/8 vertices: the estimand
    grows with that ancestry, and an unbounded draw would let a handful of
    queries decide the whole workload's time.
    """
    n = len(g.parents)
    mode = LARGE_MODES[k % len(LARGE_MODES)]
    outside = sorted(set(range(n)) - _ancestors(g.parents, g.selection_parents))
    anc = {v: _ancestors(g.parents, [v]) for v in outside}
    band = [v for v in outside if n // 16 <= len(anc[v]) <= n // 8]
    y = rng.choice(band or outside)
    x = rng.choice(sorted((anc[y] - {y}) & set(outside)) or [v for v in outside if v != y])
    return Query(graph, mode, _names([x]), _names([y]))


def identify_corpus(seed: int, scale: float = 1.0) -> Corpus:
    """Random ADMGs of every size and density plus the chain family.

    ``scale`` shrinks the number of graphs per class (at least one each) for
    quick smoke runs; the full benchmark always uses 1.0.
    """
    rng = random.Random(f"identify:{seed}")
    texts: list[str] = []
    queries: list[Query] = []
    for n, density, graphs, per_graph in RANDOM_CLASSES:
        for _ in range(max(1, round(graphs * scale))):
            g = random_admg(rng, n, density)
            texts.append(g.text)
            pick = _small_query if n <= 32 else _large_query
            queries += [pick(rng, len(texts) - 1, g, len(queries) + i) for i in range(per_graph)]
    for n, count in CHAINS:
        texts.append(chain_text(n))
        picks = (1 + i * (n - 2) // count for i in range(count))
        queries += [Query(len(texts) - 1, "sid", (f"V{a}",), (f"V{n}",)) for a in picks]
    rng.shuffle(queries)
    return Corpus(tuple(texts), tuple(queries))


def verify_corpus(seed: int, scale: float = 1.0) -> Corpus:
    """Small random graphs whose query is identifiable by definition, plus a chain.

    Identifiable queries only, so that every operation runs the numeric
    check; failing verdicts are cheap and the ``identify`` workload covers
    them.  Acceptance is decided by :mod:`bruteforce`, never by the program.
    """
    rng = random.Random(f"verify:{seed}")
    texts: list[str] = []
    queries: list[VerifyQuery] = []
    for n, bidirected, domain, count in VERIFY_CLASSES:
        for _ in range(max(1, round(count * scale))):
            while True:
                text, x, y = _verify_candidate(rng, n, bidirected)
                if bruteforce.verdict(text, "sid", x, y) == "i":
                    break
            texts.append(text)
            queries.append(
                VerifyQuery(len(texts) - 1, x, y, domain, VERIFY_TRIALS, rng.randrange(2**31))
            )
    for n, domain, count in VERIFY_CHAINS:
        texts.append(chain_text(n))
        if bruteforce.verdict(texts[-1], "sid", ("V1",), (f"V{n}",)) != "i":
            raise ValueError(f"chain query on {n} vertices is not identifiable by definition")
        queries += [
            VerifyQuery(len(texts) - 1, ("V1",), (f"V{n}",), domain, VERIFY_TRIALS, rng.randrange(2**31))
            for _ in range(max(1, round(count * scale)))
        ]
    rng.shuffle(queries)
    return Corpus(tuple(texts), tuple(queries))


def _verify_candidate(rng: random.Random, n: int, bidirected: int):
    order = list(range(n))
    rng.shuffle(order)
    lines = []
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(1, 2))):
            lines.append(f"V{order[i]} -> V{order[j]}")
    for _ in range(bidirected):
        u, v = rng.sample(range(n), 2)
        lines.append(f"V{u} <-> V{v}")
    lines += [f"V{order[0]} -> S", f"V{rng.randrange(n)} <-> S", "select S"]
    a, b = sorted(rng.sample(range(1, n), 2))
    return "\n".join(lines) + "\n", (f"V{order[a]}",), (f"V{order[b]}",)


def cli_corpus(seed: int, graph_dir: str) -> tuple[CliCall, ...]:
    """Command lines: every example query in every format, ``verify`` and ``verify --demo``."""
    calls = []
    for name, queries in sorted(CLI_QUERIES.items()):
        for args, status, text in queries:
            base = ("identify", "--graph", f"{graph_dir}/{name}", *args)
            calls.append(CliCall(base, status, text))
            calls += [CliCall((*base, "--format", fmt), status, None) for fmt in CLI_FORMATS]
    for name, x, y in CLI_VERIFY:
        argv = ("verify", "--graph", f"{graph_dir}/{name}", "--treatment", x, "--outcome", y, "--trials", "2")
        calls.append(CliCall(argv, 0, None))
    calls += [CliCall(("verify", "--demo"), 0, None)] * CLI_DEMOS
    random.Random(f"cli:{seed}").shuffle(calls)
    return tuple(calls)
