"""Confounded components and hedge detection.

A c-component of a vertex set is a maximal class connected by bidirected
edges within the induced subgraph.  An s-component of a set H (H disjoint
from the selection vertex's ancestry) is the nonempty intersection with H of
a c-component of the induced subgraph on H plus the full ancestry of the
selection vertex: confounding that is only mediated through the selected
sub-population still ties vertices of H together.

A hedge for a bidirected-connected set Y is a strictly larger set H that is
itself a single c-component and equals the ancestry of Y inside it; an
s-hedge is the same shape with s-components.  Hedges are the obstruction to
identification, s-hedges the obstruction in the sub-population setting.  One
scope loop, ``AugmentedAdmg._narrow``, searches for both from any scope that
holds the outcome: :func:`find_hedge` and ``identify.is_id`` from the whole
graph, and ``identify.s_id`` from the enclosing s-component.  The functions
here are public and validate their arguments; the identification routines
call the scope loop directly on components they have just computed.
"""

from __future__ import annotations

from typing import Iterable

from .graph import AugmentedAdmg, GraphError, _require_graph

__all__ = [
    "c_components",
    "s_components",
    "is_ancestral",
    "find_hedge",
    "is_hedge",
    "is_s_hedge",
]


def c_components(
    g: AugmentedAdmg, scope: Iterable[str] | None = None
) -> list[tuple[str, ...]]:
    """Bidirected-connected components of the induced subgraph on ``scope``.

    Components are sorted internally and listed by their least member.
    """
    _require_graph(g)
    return g._components(scope)


def s_components(g: AugmentedAdmg, members: Iterable[str]) -> list[tuple[str, ...]]:
    """s-components of ``members``, which must avoid the selection's ancestry.

    Computed as the nonempty traces on ``members`` of the c-components of the
    induced subgraph on ``members`` plus every ancestor of the selection
    vertex (selection vertex included).
    """
    _require_graph(g)
    return g._components(members, selected=True)


def is_ancestral(g: AugmentedAdmg, subset: Iterable[str], scope: Iterable[str]) -> bool:
    """True when ``subset`` is closed under taking parents inside ``scope``."""
    _require_graph(g)
    sub = g.vertex_set(subset)
    return g.ancestors(sub, within=scope) == sub


def find_hedge(g: AugmentedAdmg, outcome: Iterable[str]) -> tuple[str, ...] | None:
    """A hedge for ``outcome`` if one exists, else None.

    ``outcome`` must be a single c-component.  The search shrinks the whole
    graph to the outcome's component of its ancestry until that stabilizes;
    the fixpoint is the outcome itself exactly when no hedge exists.  The
    returned witness is deterministic but makes no minimality claim.
    """
    _require_graph(g)
    y = g.vertex_set(outcome)
    if not y:
        raise GraphError("outcome must be nonempty")
    if c_components(g, y) != [y]:
        raise GraphError(f"outcome {{{', '.join(y)}}} is not a single c-component")
    last, _ = g._narrow(y)
    return None if last == y else last


def _is_hedge_shape(g, outcome, candidate, component_fn) -> bool:
    """Both sets are single components, the outcome strictly inside the
    candidate, and the candidate is the ancestry of the outcome within it."""
    _require_graph(g)
    y = g.vertex_set(outcome)
    h = g.vertex_set(candidate)
    return (
        component_fn(g, y) == [y]
        and set(y) < set(h)
        and component_fn(g, h) == [h]
        and g.ancestors(y, within=h) == h
    )


def is_hedge(g: AugmentedAdmg, outcome: Iterable[str], candidate: Iterable[str]) -> bool:
    """Definitional re-check: ``candidate`` is a hedge for ``outcome``."""
    return _is_hedge_shape(g, outcome, candidate, c_components)


def is_s_hedge(g: AugmentedAdmg, outcome: Iterable[str], candidate: Iterable[str]) -> bool:
    """Definitional re-check: ``candidate`` is an s-hedge for ``outcome``."""
    return _is_hedge_shape(g, outcome, candidate, s_components)
