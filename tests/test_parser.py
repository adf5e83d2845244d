"""The graph description language: parsing, defaults, errors, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subid import (
    AugmentedAdmg,
    CycleError,
    GraphError,
    ParseError,
    parse_graph,
    serialize_graph,
)

from conftest import GRAPH_DIR


def test_parse_edges_and_default_selection(medication):
    doc = parse_graph("X -> Y\nX <-> Z\nZ -> S\nY <-> S")
    assert doc.graph == medication
    assert doc.graph.selection == "S"  # by the S-by-default rule


def test_explicit_select():
    doc = parse_graph("A -> B\nB -> Sink\nselect Sink")
    assert doc.graph.selection == "Sink"
    assert doc.graph.observed == ("A", "B")


def test_select_implies_node():
    doc = parse_graph("select W")
    assert doc.graph.vertices == ("W",)
    assert doc.graph.selection == "W"


def test_no_selection_without_s():
    doc = parse_graph("A -> B")
    assert doc.graph.selection is None


def test_node_statements_and_comments():
    doc = parse_graph(
        """
        # isolated vertex plus one edge
        node C
        A -> B  # trailing comment
        """
    )
    assert doc.graph.vertices == ("A", "B", "C")
    assert doc.graph.directed_edges == (("A", "B"),)


def test_duplicate_statements_collapse():
    doc = parse_graph("A -> B\nA -> B\nA <-> B\nB <-> A")
    assert doc.graph.directed_edges == (("A", "B"),)
    assert doc.graph.bidirected_edges == (("A", "B"),)


def test_edge_lines_point_at_first_occurrence():
    doc = parse_graph("A -> B\n\nB <-> C\nA -> B")
    assert doc.edge_lines[("->", "A", "B")] == (1, 1)
    assert doc.edge_lines[("<->", "B", "C")] == (3, 1)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_graph("A -> B\n  A -- B")
    assert info.value.line == 2
    assert info.value.column == 3
    assert "line 2, column 3" in str(info.value)
    assert "cannot parse statement 'A -- B'" in str(info.value)


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_lines(sep):
    with pytest.raises(ParseError) as info:
        parse_graph(f"A -> B{sep}foo\n")
    assert (info.value.line, info.value.column) == (1, 1)
    doc = parse_graph(f"# note{sep}A -> C\r\nA -> B{sep}\rB <-> C\n")
    assert doc.graph.directed_edges == (("A", "B"),)
    assert doc.edge_lines == {("->", "A", "B"): (2, 1), ("<->", "B", "C"): (3, 1)}


def test_parse_error_on_bad_name():
    with pytest.raises(ParseError):
        parse_graph("1A -> B")
    with pytest.raises(ParseError):
        parse_graph("node ")


def test_duplicate_select_rejected():
    with pytest.raises(ParseError, match=r"duplicate select \(first on line 1\)"):
        parse_graph("select A\nselect B")


def test_structural_errors_propagate():
    with pytest.raises(CycleError):
        parse_graph("A -> B\nB -> A")
    with pytest.raises(GraphError, match="must be a sink"):
        parse_graph("S -> A")


def test_round_trip_all_fixtures():
    for path in sorted(GRAPH_DIR.glob("*.g")):
        g = parse_graph(path.read_text()).graph
        text = serialize_graph(g)
        assert parse_graph(text).graph == g
        # canonical text is a fixpoint
        assert serialize_graph(parse_graph(text).graph) == text


def test_serialize_isolated_vertices():
    g = AugmentedAdmg(["A", "B", "C"], [("A", "B")])
    assert serialize_graph(g) == "node C\nA -> B\n"


def test_serialize_guards_unexpressible_graph():
    g = AugmentedAdmg(["S", "A"], [("A", "S")])  # vertex S, no selection
    with pytest.raises(ValueError, match="vertex named 'S' but no selection"):
        serialize_graph(g)
    for name in ("1x", "a b", "é"):
        g = AugmentedAdmg(["A", name], [("A", name)])
        with pytest.raises(ValueError, match=f"cannot serialize vertex '{name}'"):
            serialize_graph(g)


def test_serialize_selection_last_line():
    g = AugmentedAdmg(["A", "T"], [("A", "T")], selection="T")
    assert serialize_graph(g) == "A -> T\nselect T\n"


_FUZZ_LINES = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["A", "B", "C", "S", "_x1", "1A", ""]),
        st.sampled_from(["->", "<->", "--", "<-", ""]),
        st.sampled_from(["A", "B", "C", "S", "B2", "#"]),
    ),
    st.builds(
        "{} {}".format,
        st.sampled_from(["node", "select", "nod"]),
        st.sampled_from(["A", "S", "9", ""]),
    ),
    st.text(max_size=12),
)


@given(st.lists(_FUZZ_LINES, max_size=8).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_parse_graph_fuzz_answers_or_raises_documented_errors(text):
    try:
        doc = parse_graph(text)
    except (ParseError, GraphError):
        return
    assert parse_graph(serialize_graph(doc.graph)).graph == doc.graph
