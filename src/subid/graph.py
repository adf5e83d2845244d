"""Acyclic directed mixed graphs with an optional selection vertex.

An :class:`AugmentedAdmg` carries directed edges (``A -> B``), bidirected
edges (``A <-> B``, representing an unobserved common cause), and at most one
distinguished *selection* vertex which must be a sink of the directed part.
The observed vertices are everything except the selection vertex; the
selection vertex models membership in the sampled sub-population.

Instances are immutable.  Every operation either returns a new graph or a
lexicographically sorted tuple of vertex names, so results are deterministic
and safe to hash or compare in tests.  Inside, the vertices are numbered once
in sorted-name order and a vertex set is an int bitmask (bit ``i`` for the
``i``-th name), with parents, children and siblings one mask per vertex: the
set bits, read low to high, are a sorted name tuple, and the lowest is the
least name.  Names are converted only at the public boundary (``_mask``,
``_names_of``), and a mask is decoded to names in one pass at C level (its
binary digits select the names).  Only this module reads the masks.  The
other modules call private methods here that take and return names and
trust their arguments: the component floods, the hedge scope loop, the
m-connection walk, a model's adjacency lists, and ``s_id``'s whole graph
side (:meth:`AugmentedAdmg._s_id_plan`), which reads a query's names once,
runs its ancestry, component, scope-loop and ordering steps on masks and
decodes each answer once.  :func:`_require_graph` is the type door of every
public function that takes a graph.
"""

from __future__ import annotations

import itertools
from typing import Iterable

__all__ = ["AugmentedAdmg", "GraphError", "CycleError"]


def _require_graph(g: object) -> None:
    """Refuse anything but an :class:`AugmentedAdmg` with ``TypeError`` naming
    its type; what ``parse_graph`` returns gets a hint to pass its ``.graph``."""
    if not isinstance(g, AugmentedAdmg):
        hint = "; pass its .graph" if isinstance(getattr(g, "graph", None), AugmentedAdmg) else ""
        raise TypeError(f"graph must be an AugmentedAdmg, got {type(g).__name__}{hint}")


class GraphError(ValueError):
    """Raised for structurally invalid graphs or bad vertex-set arguments."""


class CycleError(GraphError):
    """Raised when the directed part of a graph contains a cycle."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        closed = " -> ".join(self.cycle + self.cycle[:1])
        super().__init__(f"directed cycle: {closed}")


def _name_error(bad: object) -> GraphError:
    return GraphError(f"vertex names must be non-empty strings, got {bad!r}")


def _as_names(vertices: Iterable[str]) -> tuple[str, ...]:
    if isinstance(vertices, str):
        raise GraphError(f"expected a collection of vertex names, got the string {vertices!r}")
    try:
        names = iter(vertices)
    except TypeError:
        raise GraphError(f"expected a collection of vertex names, got {vertices!r}") from None
    names = list(names)
    if not all(map(isinstance, names, itertools.repeat(str))) or "" in names:
        raise _name_error(next(v for v in names if not isinstance(v, str) or not v))
    return tuple(sorted(set(names)))


def _ends(pairs: Iterable[tuple[str, str]], index: dict[str, int]):
    """Each edge's pair of endpoint indices; ``pairs`` that is not a collection, an
    edge that is not a pair (a string is not), a self-loop or an undeclared end raises."""
    try:
        edges = iter(pairs)
    except TypeError:
        raise GraphError(f"expected a collection of edges, got {pairs!r}") from None
    for edge in edges:
        try:
            u, v = () if isinstance(edge, str) else edge
        except (TypeError, ValueError):
            raise GraphError(f"an edge must be a pair of vertex names, got {edge!r}") from None
        if u == v:
            raise GraphError(f"self-loop on {u!r}")
        try:
            ends = index[u], index[v]
        except (KeyError, TypeError):
            bad = next(e for e in (u, v) if not isinstance(e, str) or e not in index)
            if not isinstance(bad, str):
                raise _name_error(bad) from None
            raise GraphError(f"edge endpoint {bad!r} is not a declared vertex") from None
        yield ends


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

    __slots__ = ("_vertices", "_index", "_all", "_selection", "_pa", "_ch", "_sib", "_sel_anc")

    def __init__(
        self,
        vertices: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
        selection: str | None = None,
    ):
        names = _as_names(vertices)
        index = {v: i for i, v in enumerate(names)}
        pa, ch, sib = ([0] * len(names) for _ in range(3))
        for t, h in _ends(directed, index):
            pa[h] |= 1 << t
            ch[t] |= 1 << h
        for i, j in _ends(bidirected, index):
            sib[i] |= 1 << j
            sib[j] |= 1 << i

        if selection is not None:
            if not isinstance(selection, str):
                raise _name_error(selection)
            if selection not in index:
                raise GraphError(f"selection vertex {selection!r} is not a declared vertex")
            if ch[index[selection]]:
                raise GraphError(
                    f"selection vertex {selection!r} must be a sink but has "
                    f"children {', '.join(names[j] for j in _bits(ch[index[selection]]))}"
                )
        self._adopt(names, index, selection, pa, ch, sib)
        if len(self._order(self._all)) < len(names):
            raise CycleError(self._cycle())

    def _adopt(self, names, index, selection, pa, ch, sib) -> None:
        """Set every slot from already-checked parts; the only path that does."""
        self._vertices, self._index, self._selection = names, index, selection
        self._all = (1 << len(names)) - 1
        self._pa, self._ch, self._sib = pa, ch, sib
        sel = 0 if selection is None else 1 << index[selection]
        self._sel_anc = self._flood(sel, self._all, pa)

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
        names = self._vertices
        return tuple((names[i], h) for i, c in enumerate(self._ch) for h in self._names_of(c))

    @property
    def bidirected_edges(self) -> tuple[tuple[str, str], ...]:
        names = self._vertices
        later = (s >> i + 1 << i + 1 for i, s in enumerate(self._sib))  # each pair once
        return tuple((names[i], v) for i, s in enumerate(later) for v in self._names_of(s))

    def parents(self, vertex: str) -> tuple[str, ...]:
        return self._names_of(self._pa[self._mask([vertex]).bit_length() - 1])

    def children(self, vertex: str) -> tuple[str, ...]:
        return self._names_of(self._ch[self._mask([vertex]).bit_length() - 1])

    def siblings(self, vertex: str) -> tuple[str, ...]:
        """Vertices joined to ``vertex`` by a bidirected edge."""
        return self._names_of(self._sib[self._mask([vertex]).bit_length() - 1])

    def _adjacency(self) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
        """Each vertex, in name order, with its directed parents and its
        bidirected partners, both sorted: a model's layout in one read."""
        names_of = self._names_of
        return [(v, names_of(p) if p else (), names_of(s) if s else ())
                for v, p, s in zip(self._vertices, self._pa, self._sib)]

    # -- vertex-set operations ---------------------------------------------

    def ancestors(
        self, seeds: Iterable[str], within: Iterable[str] | None = None
    ) -> tuple[str, ...]:
        """Reflexive-transitive closure of the parent relation over seeds.

        With ``within``, only parents inside that vertex set are followed: the
        result is the ancestry of ``seeds`` in the subgraph induced on
        ``within``, which must contain the seeds.
        """
        seen = self._mask(seeds)
        scope = self._all if within is None else self._mask(within)
        if seen & ~scope:
            raise GraphError("seeds must lie inside the scope")
        return self._names_of(self._flood(seen, scope, self._pa))

    def induced_subgraph(self, keep: Iterable[str]) -> "AugmentedAdmg":
        """The subgraph on ``keep``, retaining both edge kinds and selection."""
        kept = set(self.vertex_set(keep))
        sel = self._selection if self._selection in kept else None
        return AugmentedAdmg(
            kept,
            (e for e in self.directed_edges if e[0] in kept and e[1] in kept),
            (e for e in self.bidirected_edges if e[0] in kept and e[1] in kept),
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
        into, outof = self._mask(bar_in), self._mask(bar_out)
        # removing edges adds no vertex and no cycle, so nothing is re-checked
        cut = object.__new__(AugmentedAdmg)
        cut._adopt(
            self._vertices,
            self._index,
            self._selection,
            [0 if into >> i & 1 else m & ~outof for i, m in enumerate(self._pa)],
            [0 if outof >> i & 1 else m & ~into for i, m in enumerate(self._ch)],
            [0 if into >> i & 1 else m & ~into for i, m in enumerate(self._sib)],
        )
        return cut

    def topological_order(self, scope: Iterable[str] | None = None) -> tuple[str, ...]:
        """A topological order of the directed part restricted to ``scope``.

        Deterministic: among simultaneously available vertices the
        lexicographically smallest is emitted first.
        """
        pool = self._all if scope is None else self._mask(scope)
        names = self._vertices
        return tuple(names[i] for i in self._order(pool))

    def split_by_selection(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Partition the observed vertices by selection ancestry.

        Returns ``(anc, non_anc)`` where ``anc`` holds the observed ancestors
        of the selection vertex (the selection vertex itself excluded) and
        ``non_anc`` the remaining observed vertices.
        """
        sel = 1 << self._index[self._require_selection()]
        return self._names_of(self._sel_anc & ~sel), self._names_of(self._all & ~self._sel_anc)

    # -- helpers -----------------------------------------------------------

    def vertex_set(self, names: Iterable[str]) -> tuple[str, ...]:
        """Sorted, validated tuple of vertex names; a bare string is refused."""
        out = _as_names(names)
        for v in out:
            if v not in self._index:
                raise GraphError(f"unknown vertex {v!r}")
        return out

    def _require_selection(self) -> str:
        if self._selection is None:
            raise GraphError("graph has no selection vertex")
        return self._selection

    def _mask(self, names: Iterable[str]) -> int:
        """The mask of a collection of names, validated as :meth:`vertex_set` does."""
        if type(names) not in (tuple, list, set, frozenset):
            names = self.vertex_set(names)  # a bare string or a one-shot iterable
        index = self._index
        mask = 0
        try:
            for v in names:
                mask |= 1 << index[v]
        except (KeyError, TypeError):
            self.vertex_set(names)  # raises the documented GraphError
            raise
        return mask

    def _names_of(self, mask: int) -> tuple[str, ...]:
        """The sorted names of a mask's set bits, decoded in one pass: the binary
        digits, lowest first, as bytes 0 and 1 select the names."""
        digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
        return tuple(itertools.compress(self._vertices, digits))

    def _flood(self, seeds: int, scope: int, adjacent: list[int]) -> int:
        """``seeds`` plus every vertex reachable from them along ``adjacent``
        (parents for ancestry, siblings for components) without leaving ``scope``."""
        seen = frontier = seeds
        while frontier:
            reach = 0
            while frontier:  # inlined ``_bits``, here and in ``_order``: the hottest loops
                low = frontier & -frontier
                reach |= adjacent[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & scope & ~seen
            seen |= frontier
        return seen

    def _order(self, pool: int) -> list[int]:
        """Kahn's algorithm on the indices in ``pool``, always emitting the
        lowest ready bit, i.e. the least name; a cycle leaves vertices out."""
        pa, ch = self._pa, self._ch
        out, left, ready = [], pool, 0
        fresh = pool  # vertices that may have become ready: all, then children
        while True:
            while fresh:
                low = fresh & -fresh
                if not pa[low.bit_length() - 1] & left:
                    ready |= low
                fresh ^= low
            if not ready:
                return out
            low = ready & -ready
            ready ^= low
            left ^= low
            out.append(low.bit_length() - 1)
            fresh = ch[out[-1]] & left

    def _cycle(self) -> list[str]:
        """A directed cycle among the vertices that :meth:`_order` leaves out:
        least-parent links followed inside them until a vertex repeats."""
        left = self._all
        for i in self._order(self._all):
            left ^= 1 << i
        trail = [left & -left]
        while trail[-1] not in trail[:-1]:
            up = self._pa[trail[-1].bit_length() - 1] & left
            trail.append(up & -up)
        return [self._names_of(v)[0] for v in reversed(trail[trail.index(trail[-1]) : -1])]

    # -- components, the hedge scope loop, m-connection -------------------

    def _components(self, vertices=None, selected=False) -> list[tuple[str, ...]]:
        """The components of ``vertices`` (default all), each seeded at the
        least name left, so listed by least member: c-components, or with
        ``selected`` s-components (see :mod:`.components`)."""
        pool = self._all if vertices is None else self._mask(vertices)
        if selected and self._require_selection() and pool & self._sel_anc:
            bad = ", ".join(self._names_of(pool & self._sel_anc))
            raise GraphError(
                "s-components are only defined for sets outside the selection "
                f"vertex's ancestry; offending vertices: {bad}"
            )
        out = []
        while pool:
            out.append(self._component(pool & -pool, pool, selected))
            pool &= ~out[-1]
        return [self._names_of(p) for p in out]

    def _component(self, seed: int, pool: int, selected: bool) -> int:
        """The component of ``pool`` holding the bit ``seed``; an s-component
        is the flood through the selection ancestry, traced on ``pool``."""
        return self._flood(seed, pool | self._sel_anc if selected else pool, self._sib) & pool

    def _narrow(self, c, pool=None, selected=False):
        """Shrink the scope ``pool`` (default all), which holds the component ``c``,
        to the component holding ``c`` of the ancestry of ``c`` within it, until
        that changes nothing.  Returns the last scope, ``c`` or else a hedge (with
        ``selected`` an s-hedge), and each change as (ancestry, component) names;
        each ancestry is ancestral within the scope before it."""
        c = self._mask(c)
        last, steps = self._shrink(c, self._all if pool is None else self._mask(pool), selected)
        return self._names_of(last), steps

    def _shrink(self, c: int, t: int, selected: bool):
        """:meth:`_narrow` on the masks ``c`` and ``t``: the last scope's mask and
        the steps, decoded."""
        names_of, steps = self._names_of, []
        while True:
            anc = self._flood(c, t, self._pa)
            part = c if anc == c else self._component(c & -c, anc, selected)
            if part == t:
                return t, steps
            steps.append((names_of(anc), names_of(t := part)))

    def _s_id_plan(self, x, y):
        """The graph side of ``s_id`` on a checked query ``x``, ``y`` (names),
        on masks from end to end and decoded once.

        D is the ancestry of the outcome's non-ancestral part (outside the
        selection ancestry) within that part less ``x``.  Each s-component of D,
        least member first, gets its enclosing s-component (of the whole
        non-ancestral part) and :meth:`_narrow`'s steps from there.  Returns
        ``(d, plans, stuck, order)``: ``plans`` lists ``(component, enclosing,
        steps)``; ``stuck`` is None, or ``(component, scope)`` for the first
        component whose scope loop got stuck (an s-hedge), where the plans end
        and ``order`` is None; else ``order`` is the topological order of the
        non-ancestral part."""
        names_of = self._names_of
        outside = self._all & ~self._sel_anc
        d = self._flood(self._mask(y) & outside, outside & ~self._mask(x), self._pa)
        plans, pool = [], d
        while pool:
            comp = self._component(pool & -pool, pool, True)
            pool ^= comp
            t = self._component(comp & -comp, outside, True)
            last, steps = self._shrink(comp, t, True)
            if last != comp:
                return names_of(d), plans, (names_of(comp), names_of(last)), None
            plans.append((names_of(comp), names_of(t), steps))
        names = self._vertices
        return names_of(d), plans, None, tuple([names[i] for i in self._order(outside)])

    def _m_connected(self, first, second, conditioning) -> bool:
        """Whether a path that ``conditioning`` leaves open joins the first two
        sets (the blocking rule is in :mod:`.separation`)."""
        a, b, w = self._mask(first), self._mask(second), self._mask(conditioning)
        anc_w = self._flood(w, self._all, self._pa)
        pa, ch, sib = self._pa, self._ch, self._sib
        # states are (node, arrived through a head), kept as one mask of nodes per
        # arrival kind.  From a head-arrival the walk may leave towards a parent or
        # sibling only as an open collider; every other continuation requires the
        # node to be outside the conditioning set.  The sources count as
        # tail-arrivals: they are outside the conditioning set.
        tails, heads = a, 0
        new_tails, new_heads = a, 0
        while new_tails | new_heads:
            if (new_tails | new_heads) & b:
                return True
            to_tails = to_heads = 0
            for v in _bits(new_tails & ~w):
                to_heads |= ch[v] | sib[v]
                to_tails |= pa[v]
            for v in _bits(new_heads & ~w):
                to_heads |= ch[v]
            for v in _bits(new_heads & anc_w):
                to_tails |= pa[v]
                to_heads |= sib[v]
            new_tails, new_heads = to_tails & ~tails, to_heads & ~heads
            tails |= new_tails
            heads |= new_heads
        return False

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugmentedAdmg):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._selection == other._selection
            and self._pa == other._pa
            and self._sib == other._sib
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._selection, tuple(self._pa), tuple(self._sib)))

    def __repr__(self) -> str:
        return (
            f"AugmentedAdmg({len(self._vertices)} vertices, "
            f"{len(self.directed_edges)} directed, {len(self.bidirected_edges)} bidirected, "
            f"selection={self._selection!r})"
        )


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int):
    """The indices of a mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
