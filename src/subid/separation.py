"""m-separation on mixed graphs.

Two implementations are provided on purpose.  :func:`m_separated` is the
production algorithm: a reachability ("ball-passing") walk over the mixed
graph itself (``AugmentedAdmg._m_connected``, on the graph's vertex masks), in
which a bidirected edge is left like an edge towards a parent and entered
through a head, as an edge from a parent is.
:func:`m_separated_bruteforce` enumerates simple paths and applies the
blocking definition literally; it exists as an oracle for the fast
implementation and is capped at small graphs.

Blocking rule: on a path, a collider (both adjacent edge marks point at the
vertex) blocks unless the vertex is an ancestor of the conditioning set; a
non-collider blocks exactly when the vertex is in the conditioning set.
"""

from __future__ import annotations

from typing import Iterable

from .graph import AugmentedAdmg, GraphError, _require_graph

__all__ = ["m_separated", "m_separated_bruteforce"]

_BRUTE_FORCE_LIMIT = 12


def _checked_triple(
    g: AugmentedAdmg,
    first: Iterable[str],
    second: Iterable[str],
    conditioning: Iterable[str],
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The three sets as vertex sets of the graph ``g``, pairwise disjoint."""
    _require_graph(g)
    a = g.vertex_set(first)
    b = g.vertex_set(second)
    w = g.vertex_set(conditioning)
    for left, right, what in ((a, b, "the two separated sets"),
                              (a, w, "the first set and the conditioning set"),
                              (b, w, "the second set and the conditioning set")):
        overlap = sorted(set(left) & set(right))
        if overlap:
            raise GraphError(f"{what} overlap on {', '.join(overlap)}")
    return a, b, w


def m_separated(
    g: AugmentedAdmg,
    first: Iterable[str],
    second: Iterable[str],
    conditioning: Iterable[str] = (),
) -> bool:
    """True when every path between the two sets is blocked by ``conditioning``.

    The sets must be pairwise disjoint.  Either side being empty yields True.
    """
    a, b, w = _checked_triple(g, first, second, conditioning)  # checks ``g`` before use
    return not g._m_connected(a, b, w)


def m_separated_bruteforce(
    g: AugmentedAdmg,
    first: Iterable[str],
    second: Iterable[str],
    conditioning: Iterable[str] = (),
) -> bool:
    """Literal m-separation by simple-path enumeration.

    Exponential; refuses graphs with more than 12 vertices.  Used to validate
    :func:`m_separated`.
    """
    a, b, w = _checked_triple(g, first, second, conditioning)
    if len(g.vertices) > _BRUTE_FORCE_LIMIT:
        raise GraphError(
            f"brute-force m-separation is limited to {_BRUTE_FORCE_LIMIT} "
            f"vertices, got {len(g.vertices)}"
        )
    if not a or not b:
        return True

    # incidence list: vertex -> (neighbor, head_here, head_there)
    incident: dict[str, list[tuple[str, bool, bool]]] = {v: [] for v in g.vertices}
    for tail, head in g.directed_edges:
        incident[tail].append((head, False, True))
        incident[head].append((tail, True, False))
    for u, v in g.bidirected_edges:
        incident[u].append((v, True, True))
        incident[v].append((u, True, True))

    w_set = set(w)
    anc_w = set(g.ancestors(w))
    targets = set(b)

    def open_path_from(v: str, head_in: bool, visited: set[str]) -> bool:
        for nxt, head_here, head_there in incident[v]:
            if nxt in visited:
                continue
            collider = head_in and head_here
            if collider:
                if v not in anc_w:
                    continue
            elif v in w_set:
                continue
            if nxt in targets:
                return True
            if open_path_from(nxt, head_there, visited | {nxt}):
                return True
        return False

    for s in a:
        for nxt, _, head_there in incident[s]:
            if nxt in targets:
                return False
            if nxt not in a and open_path_from(nxt, head_there, {s, nxt}):
                return False
    return True
