"""Verdicts by definition, for graphs small enough to enumerate.

Nothing here calls the program.  m-separation is decided by walking every
simple path, and hedges and s-hedges by trying every vertex subset, so the
verdicts cross-check the program's search-based ones.  Used on graphs with at
most ``LIMIT`` vertices (selection vertex included).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

LIMIT = 12


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[str]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[frozenset[str]]
    selection: str | None

    def parents(self, v: str) -> set[str]:
        return {t for t, h in self.directed if h == v}

    def ancestors(self, seeds, within=None) -> set[str]:
        """Seeds plus every vertex with a directed path into them inside ``within``."""
        pool = self.vertices if within is None else set(within)
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for p in self.parents(stack.pop()):
                if p in pool and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def surgery(self, bar_in=(), bar_out=()) -> "Graph":
        """Drop edge heads into ``bar_in`` and directed tails out of ``bar_out``."""
        into, outof = set(bar_in), set(bar_out)
        return Graph(
            self.vertices,
            frozenset((t, h) for t, h in self.directed if h not in into and t not in outof),
            frozenset(e for e in self.bidirected if not e & into),
            self.selection,
        )


def parse(text: str) -> Graph:
    """Read the subset of the ``.g`` language that the corpus generator writes."""
    vertices, directed, bidirected, selection = set(), set(), set(), None
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["select"]:
            selection = parts[1]
            vertices.add(selection)
        elif parts[:1] == ["node"]:
            vertices.add(parts[1])
        elif len(parts) == 3 and parts[1] in ("->", "<->"):
            vertices.update((parts[0], parts[2]))
            if parts[1] == "->":
                directed.add((parts[0], parts[2]))
            else:
                bidirected.add(frozenset((parts[0], parts[2])))
    if selection is None and "S" in vertices:
        selection = "S"
    return Graph(frozenset(vertices), frozenset(directed), frozenset(bidirected), selection)


def m_separated(g: Graph, a, b, given) -> bool:
    """No simple path between ``a`` and ``b`` is open given ``given``."""
    given = set(given)
    anc_given = g.ancestors(given)
    # edges as (neighbour, arrowhead at this end, arrowhead at the other end)
    incident = {v: [] for v in g.vertices}
    for t, h in g.directed:
        incident[t].append((h, False, True))
        incident[h].append((t, True, False))
    for e in g.bidirected:
        u, v = sorted(e)
        incident[u].append((v, True, True))
        incident[v].append((u, True, True))
    targets = set(b)

    def open_from(v, head_in, visited) -> bool:
        for nxt, head_here, head_there in incident[v]:
            if nxt in visited:
                continue
            if head_in and head_here:
                if v not in anc_given:
                    continue
            elif v in given:
                continue
            if nxt in targets or open_from(nxt, head_there, visited | {nxt}):
                return True
        return False

    for s in a:
        for nxt, _, head_there in incident[s]:
            if nxt in targets or open_from(nxt, head_there, {s, nxt}):
                return False
    return True


def components(g: Graph, members) -> list[frozenset[str]]:
    """Classes of ``members`` joined by bidirected edges inside ``members``."""
    left = set(members)
    out = []
    while left:
        comp = {left.pop()}
        grew = True
        while grew:
            more = {v for e in g.bidirected if e & comp and e <= set(members) for v in e} - comp
            grew = bool(more)
            comp |= more
        left -= comp
        out.append(frozenset(comp))
    return out


def s_components(g: Graph, members) -> list[frozenset[str]]:
    """Traces on ``members`` of the components of ``members`` plus the selection ancestry."""
    members = set(members)
    anc_s = g.ancestors([g.selection])
    return [c & members for c in components(g, members | anc_s) if c & members]


def _has_hedge(g: Graph, outcome: frozenset[str], pool, comps) -> bool:
    rest = sorted(set(pool) - outcome)
    for r in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            h = outcome | set(extra)
            if len(comps(h)) == 1 and g.ancestors(outcome, within=h) == h:
                return True
    return False


def verdict(text: str, mode: str, treatment, outcome) -> str:
    """The verdict the program should give for one query, as a one-letter code.

    ``sid`` and ``srecover``: ``i`` identifiable, ``s`` a separation failure,
    ``h`` an s-hedge.  ``idcheck``: ``y`` or ``n``.
    """
    g = parse(text)
    x, y = set(treatment), set(outcome)
    if mode == "idcheck":
        d = g.ancestors(y, within=g.vertices - x)
        comps = functools.partial(components, g)
        hedge = any(_has_hedge(g, c, g.vertices, comps) for c in comps(d))
        return "n" if hedge else "y"
    sel = g.selection
    if mode == "srecover" and not m_separated(g.surgery(bar_in=x), y, {sel}, x):
        return "s"
    anc_s = g.ancestors([sel]) - {sel}
    non_anc = g.vertices - anc_s - {sel}
    xa, xn = x & anc_s, x - anc_s
    if xa and not m_separated(g.surgery(bar_in=xn, bar_out=xa), xa, y, xn | {sel}):
        return "s"
    d = g.ancestors(y & non_anc, within=non_anc - xn)
    comps = functools.partial(s_components, g)
    if any(_has_hedge(g, c, non_anc, comps) for c in comps(d)):
        return "h"
    return "i"
