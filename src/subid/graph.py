"""Acyclic directed mixed graphs with an optional selection vertex.

An :class:`AugmentedAdmg` carries directed edges (``A -> B``), bidirected
edges (``A <-> B``, representing an unobserved common cause), and at most one
distinguished *selection* vertex which must be a sink of the directed part.
The observed vertices are everything except the selection vertex; the
selection vertex models membership in the sampled sub-population.

Instances are immutable.  Every operation either returns a new graph or a
lexicographically sorted tuple of vertex names, so results are deterministic
and safe to hash or compare in tests.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

__all__ = ["AugmentedAdmg", "GraphError", "CycleError"]


class GraphError(ValueError):
    """Raised for structurally invalid graphs or bad vertex-set arguments."""


class CycleError(GraphError):
    """Raised when the directed part of a graph contains a cycle."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        closed = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"directed cycle: {closed}")


def _as_names(vertices: Iterable[str]) -> tuple[str, ...]:
    if isinstance(vertices, str):
        raise GraphError(f"expected a collection of vertex names, got the string {vertices!r}")
    names = list(vertices)
    if not all(map(isinstance, names, itertools.repeat(str))) or "" in names:
        bad = next(v for v in names if not isinstance(v, str) or not v)
        raise GraphError(f"vertex names must be non-empty strings, got {bad!r}")
    return tuple(sorted(set(names)))


class AugmentedAdmg:
    """An acyclic directed mixed graph, optionally with a selection vertex.

    Parameters
    ----------
    vertices:
        Iterable of vertex names, not a bare string.  Names are arbitrary
        non-empty strings.
    directed:
        Iterable of ``(tail, head)`` pairs.  Duplicates collapse.
    bidirected:
        Iterable of unordered pairs.  ``(A, B)`` and ``(B, A)`` are the same
        edge; a pair may carry both a directed and a bidirected edge.
    selection:
        Name of the selection vertex, or None.  When present it must be a
        declared vertex with no directed children.
    """

    __slots__ = (
        "_vertices",
        "_selection",
        "_directed",
        "_bidirected",
        "_parents",
        "_children",
        "_siblings",
    )

    def __init__(
        self,
        vertices: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
        selection: str | None = None,
    ):
        self._vertices = _as_names(vertices)
        known = set(self._vertices)

        dir_edges: set[tuple[str, str]] = set()
        for tail, head in directed:
            if tail == head:
                raise GraphError(f"self-loop on {tail!r}")
            for end in (tail, head):
                if end not in known:
                    raise GraphError(f"edge endpoint {end!r} is not a declared vertex")
            dir_edges.add((tail, head))

        bi_edges: set[tuple[str, str]] = set()
        for pair in bidirected:
            u, v = pair
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            for end in (u, v):
                if end not in known:
                    raise GraphError(f"edge endpoint {end!r} is not a declared vertex")
            bi_edges.add((min(u, v), max(u, v)))

        if selection is not None:
            if selection not in known:
                raise GraphError(f"selection vertex {selection!r} is not a declared vertex")
            kids = sorted(head for tail, head in dir_edges if tail == selection)
            if kids:
                raise GraphError(
                    f"selection vertex {selection!r} must be a sink but has "
                    f"children {', '.join(kids)}"
                )
        self._selection = selection
        self._directed = frozenset(dir_edges)
        self._bidirected = frozenset(bi_edges)

        parents: dict[str, set[str]] = {v: set() for v in self._vertices}
        children: dict[str, set[str]] = {v: set() for v in self._vertices}
        siblings: dict[str, set[str]] = {v: set() for v in self._vertices}
        for tail, head in dir_edges:
            parents[head].add(tail)
            children[tail].add(head)
        for u, v in bi_edges:
            siblings[u].add(v)
            siblings[v].add(u)
        self._parents = {v: tuple(sorted(ps)) for v, ps in parents.items()}
        self._children = {v: tuple(sorted(cs)) for v, cs in children.items()}
        self._siblings = {v: tuple(sorted(ss)) for v, ss in siblings.items()}

        self._check_acyclic()

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        """All vertex names, sorted, including the selection vertex."""
        return self._vertices

    @property
    def observed(self) -> tuple[str, ...]:
        """Vertex names excluding the selection vertex."""
        if self._selection is None:
            return self._vertices
        return tuple(v for v in self._vertices if v != self._selection)

    @property
    def selection(self) -> str | None:
        return self._selection

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._directed))

    @property
    def bidirected_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._bidirected))

    def parents(self, vertex: str) -> tuple[str, ...]:
        self._require(vertex)
        return self._parents[vertex]

    def children(self, vertex: str) -> tuple[str, ...]:
        self._require(vertex)
        return self._children[vertex]

    def siblings(self, vertex: str) -> tuple[str, ...]:
        """Vertices joined to ``vertex`` by a bidirected edge."""
        self._require(vertex)
        return self._siblings[vertex]

    # -- vertex-set operations ---------------------------------------------

    def ancestors(
        self, seeds: Iterable[str], within: Iterable[str] | None = None
    ) -> tuple[str, ...]:
        """Reflexive-transitive closure of the parent relation over seeds.

        With ``within``, only parents inside that vertex set are followed: the
        result is the ancestry of ``seeds`` in the subgraph induced on
        ``within``, which must contain the seeds.
        """
        frontier = list(self.vertex_set(seeds))
        scope = self._parents.keys() if within is None else set(self.vertex_set(within))
        seen = set(frontier)
        if not scope >= seen:
            raise GraphError("seeds must lie inside the scope")
        while frontier:
            v = frontier.pop()
            for p in self._parents[v]:
                if p not in seen and p in scope:
                    seen.add(p)
                    frontier.append(p)
        return tuple(sorted(seen))

    def induced_subgraph(self, keep: Iterable[str]) -> "AugmentedAdmg":
        """The subgraph on ``keep``, retaining both edge kinds and selection."""
        kept = set(self.vertex_set(keep))
        sel = self._selection if self._selection in kept else None
        return AugmentedAdmg(
            kept,
            (e for e in self._directed if e[0] in kept and e[1] in kept),
            (e for e in self._bidirected if e[0] in kept and e[1] in kept),
            selection=sel,
        )

    def edge_surgery(
        self, bar_in: Iterable[str] = (), bar_out: Iterable[str] = ()
    ) -> "AugmentedAdmg":
        """Remove edge heads into ``bar_in`` and edge tails out of ``bar_out``.

        Drops every directed edge whose head lies in ``bar_in`` or whose tail
        lies in ``bar_out``, and every bidirected edge touching ``bar_in``
        (bidirected edges carry heads at both ends).  The vertex set and
        selection vertex are unchanged.
        """
        into = set(self.vertex_set(bar_in))
        outof = set(self.vertex_set(bar_out))
        return AugmentedAdmg(
            self._vertices,
            (e for e in self._directed if e[1] not in into and e[0] not in outof),
            (e for e in self._bidirected if e[0] not in into and e[1] not in into),
            selection=self._selection,
        )

    def topological_order(self, scope: Iterable[str] | None = None) -> tuple[str, ...]:
        """A topological order of the directed part restricted to ``scope``.

        Deterministic: among simultaneously available vertices the
        lexicographically smallest is emitted first.
        """
        pool = set(self._vertices if scope is None else self.vertex_set(scope))
        indeg = {v: sum(1 for p in self._parents[v] if p in pool) for v in pool}
        ready = [v for v in pool if indeg[v] == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for c in self._children[v]:
                if c in pool:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        heapq.heappush(ready, c)
        # construction guarantees acyclicity, so every vertex is emitted
        return tuple(out)

    def split_by_selection(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Partition the observed vertices by selection ancestry.

        Returns ``(anc, non_anc)`` where ``anc`` holds the observed ancestors
        of the selection vertex (the selection vertex itself excluded) and
        ``non_anc`` the remaining observed vertices.
        """
        sel = self._require_selection()
        anc = set(self.ancestors([sel]))
        first = tuple(v for v in self.observed if v in anc)
        second = tuple(v for v in self.observed if v not in anc)
        return first, second

    # -- helpers -----------------------------------------------------------

    def vertex_set(self, names: Iterable[str]) -> tuple[str, ...]:
        """Sorted, validated tuple of vertex names; a bare string is refused."""
        out = _as_names(names)
        for v in out:
            self._require(v)
        return out

    def _require(self, vertex: str) -> None:
        if vertex not in self._parents:
            raise GraphError(f"unknown vertex {vertex!r}")

    def _require_selection(self) -> str:
        if self._selection is None:
            raise GraphError("graph has no selection vertex")
        return self._selection

    def _check_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) == len(self._vertices):
            return
        remaining = set(self._vertices) - set(order)
        # walk parent links inside the leftover set until a vertex repeats
        v = min(remaining)
        trail: list[str] = []
        seen_at: dict[str, int] = {}
        while v not in seen_at:
            seen_at[v] = len(trail)
            trail.append(v)
            v = min(p for p in self._parents[v] if p in remaining)
        cycle = trail[seen_at[v] :]
        raise CycleError(reversed(cycle))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugmentedAdmg):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._selection == other._selection
            and self._directed == other._directed
            and self._bidirected == other._bidirected
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._selection, self._directed, self._bidirected))

    def __repr__(self) -> str:
        return (
            f"AugmentedAdmg({len(self._vertices)} vertices, "
            f"{len(self._directed)} directed, {len(self._bidirected)} bidirected, "
            f"selection={self._selection!r})"
        )
