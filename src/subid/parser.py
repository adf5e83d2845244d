"""Plain-text graph description language.

One statement per line; ``#`` starts a comment; blank lines are skipped::

    statement := "node" NAME          declare a vertex
               | NAME "->" NAME       directed edge
               | NAME "<->" NAME      bidirected edge
               | "select" NAME        mark the selection vertex
    NAME      := [A-Za-z_][A-Za-z0-9_]*

Vertices are implied by the edges (and by ``select``); explicit ``node``
lines are only needed for isolated vertices.  Without a ``select`` line, a
vertex literally named ``S`` becomes the selection vertex if it exists;
otherwise the graph has none.  Duplicate statements collapse silently except
for a second ``select``, which is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .graph import AugmentedAdmg, _require_graph

__all__ = ["ParseError", "GraphDocument", "parse_graph", "serialize_graph"]

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_STATEMENT = re.compile(
    rf"^\s*(?:(?P<kw>node|select)\s+(?P<arg>{_NAME})"
    rf"|(?P<left>{_NAME})\s*(?P<op><->|->)\s*(?P<right>{_NAME}))\s*$"
)


class ParseError(ValueError):
    """A syntactically invalid graph description."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus where each edge statement came from.

    ``edge_lines`` maps ``("->", tail, head)`` or ``("<->", u, v)`` (endpoints
    sorted for bidirected edges) to the 1-based (line, column) of the first
    statement that introduced the edge.
    """

    source: str
    graph: AugmentedAdmg
    edge_lines: Mapping[tuple[str, str, str], tuple[int, int]]


def parse_graph(text: str) -> GraphDocument:
    """Parse a graph description.

    Raises :class:`ParseError` for syntax problems (with line and column) and
    :class:`~subid.graph.GraphError` / :class:`~subid.graph.CycleError` for
    structural ones (cycles, a selection vertex with children), and
    ``TypeError`` when ``text`` is not a ``str``.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    nodes: set[str] = set()
    directed: list[tuple[str, str]] = []
    bidirected: list[tuple[str, str]] = []
    selects: list[tuple[str, int]] = []
    edge_lines: dict[tuple[str, str, str], tuple[int, int]] = {}

    # only \n, \r\n and \r end a line: str.splitlines would also break at \x0b,
    # \x0c, \x1c-\x1e, \x85, \u2028 and \u2029, which statements read as whitespace
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _STATEMENT.match(line)
        col = len(line) - len(line.lstrip()) + 1
        if m is None:
            raise ParseError(f"cannot parse statement {line.strip()!r}", lineno, col)
        if m.group("kw") == "node":
            nodes.add(m.group("arg"))
        elif m.group("kw") == "select":
            if selects:
                raise ParseError(
                    f"duplicate select (first on line {selects[0][1]})", lineno, col
                )
            selects.append((m.group("arg"), lineno))
            nodes.add(m.group("arg"))
        else:
            left, right = m.group("left"), m.group("right")
            nodes.update((left, right))
            if m.group("op") == "->":
                directed.append((left, right))
                key = ("->", left, right)
            else:
                u, v = sorted((left, right))
                bidirected.append((u, v))
                key = ("<->", u, v)
            edge_lines.setdefault(key, (lineno, m.start("left") + 1))

    if selects:
        selection: str | None = selects[0][0]
    elif "S" in nodes:
        selection = "S"
    else:
        selection = None
    graph = AugmentedAdmg(nodes, directed, bidirected, selection=selection)
    return GraphDocument(source=text, graph=graph, edge_lines=edge_lines)


def serialize_graph(g: AugmentedAdmg) -> str:
    """Canonical text for a graph; ``parse_graph`` returns an equal graph.

    Raises ``TypeError`` when ``g`` is not an :class:`AugmentedAdmg`.
    """
    _require_graph(g)
    if g.selection is None and "S" in g.vertices:
        # the language has no way to switch the S-by-default rule off
        raise ValueError(
            "cannot serialize a graph with a vertex named 'S' but no selection"
        )
    unnamed = [v for v in g.vertices if not re.fullmatch(_NAME, v)]
    if unnamed:
        raise ValueError(
            f"cannot serialize vertex {unnamed[0]!r}: names must match {_NAME}"
        )
    in_edges = {v for e in g.directed_edges for v in e}
    in_edges |= {v for e in g.bidirected_edges for v in e}
    lines = [f"node {v}" for v in g.vertices if v not in in_edges and v != g.selection]
    lines += [f"{t} -> {h}" for t, h in g.directed_edges]
    lines += [f"{u} <-> {v}" for u, v in g.bidirected_edges]
    if g.selection is not None:
        lines.append(f"select {g.selection}")
    return "\n".join(lines) + "\n"
