"""Graph construction, validation, and the vertex-set operations."""

import copy
import pickle

import numpy as np
import pytest

from subid import (AugmentedAdmg, CycleError, GraphError, c_components, is_id, parse_graph,
                   render, s_components, s_id)

from helpers import (
    ancestors_reference,
    c_components_reference,
    random_admg,
    random_query,
    s_components_reference,
    scrambled_names,
    split_by_selection_reference,
    topological_order_reference,
)


def test_vertices_sorted_and_deduplicated():
    g = AugmentedAdmg(["B", "A", "B"], [("A", "B")])
    assert g.vertices == ("A", "B")
    assert g.observed == ("A", "B")
    assert g.selection is None


def test_duplicate_edges_collapse():
    g = AugmentedAdmg(
        ["A", "B"],
        [("A", "B"), ("A", "B")],
        [("A", "B"), ("B", "A")],
    )
    assert g.directed_edges == (("A", "B"),)
    assert g.bidirected_edges == (("A", "B"),)


def test_bidirected_stored_unordered():
    g = AugmentedAdmg(["A", "B"], bidirected=[("B", "A")])
    assert g.bidirected_edges == (("A", "B"),)
    assert g.siblings("A") == ("B",)
    assert g.siblings("B") == ("A",)


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError, match="'C' is not a declared vertex"):
        AugmentedAdmg(["A", "B"], [("A", "C")])
    with pytest.raises(GraphError, match="'C' is not a declared vertex"):
        AugmentedAdmg(["A", "B"], bidirected=[("C", "A")])


def test_self_loops_rejected():
    with pytest.raises(GraphError, match="self-loop on 'A'"):
        AugmentedAdmg(["A"], [("A", "A")])
    with pytest.raises(GraphError, match="self-loop on 'A'"):
        AugmentedAdmg(["A"], bidirected=[("A", "A")])


def test_selection_must_be_declared():
    with pytest.raises(GraphError, match="selection vertex 'S'"):
        AugmentedAdmg(["A"], selection="S")


def test_selection_must_be_a_sink():
    with pytest.raises(GraphError, match="must be a sink but has children A, B"):
        AugmentedAdmg(["A", "B", "S"], [("S", "A"), ("S", "B")], selection="S")


def test_selection_may_have_bidirected_edges():
    g = AugmentedAdmg(["A", "S"], bidirected=[("A", "S")], selection="S")
    assert g.selection == "S"
    assert g.observed == ("A",)


def test_cycle_reported_with_its_vertices():
    with pytest.raises(CycleError) as info:
        AugmentedAdmg(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
    assert set(info.value.cycle) == {"A", "B", "C"}
    assert "directed cycle:" in str(info.value)


def test_two_vertex_cycle():
    with pytest.raises(CycleError) as info:
        AugmentedAdmg(["A", "B"], [("A", "B"), ("B", "A")])
    assert set(info.value.cycle) == {"A", "B"}


def test_cycle_detected_alongside_acyclic_part():
    with pytest.raises(CycleError) as info:
        AugmentedAdmg(
            ["A", "B", "C", "D"],
            [("A", "B"), ("C", "D"), ("D", "C")],
        )
    assert set(info.value.cycle) == {"C", "D"}


# the constructor checks the selection ancestry and the rest in one pass each:
# a cycle's vertices are ancestors of each other, so it lies wholly on one side
SPLIT_CYCLES = {
    "inside": ([("A", "B"), ("B", "A"), ("B", "S"), ("C", "D")], ["A", "B"]),
    "outside": ([("A", "S"), ("C", "D"), ("D", "E"), ("E", "C")], ["C", "D", "E"]),
    # the reported cycle is the one reached from the least name left unordered
    "both": ([("A", "B"), ("B", "A"), ("B", "S"), ("C", "D"), ("D", "C")], ["A", "B"]),
}


def _admg_of(edges):
    return AugmentedAdmg({v for e in edges for v in e}, edges, selection="S")


def _parsed(edges):
    return parse_graph("\n".join(f"{u} -> {v}" for u, v in edges)).graph


@pytest.mark.parametrize("build", [_admg_of, _parsed], ids=["constructor", "parser"])
@pytest.mark.parametrize("case", SPLIT_CYCLES)
def test_cycles_on_either_side_of_the_selection_ancestry(case, build):
    edges, members = SPLIT_CYCLES[case]
    with pytest.raises(CycleError) as info:
        build(edges)
    cycle = info.value.cycle
    assert sorted(cycle) == members
    assert all((u, v) in edges for u, v in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda g: AugmentedAdmg(["a", 1]), "1"),
        (lambda g: g.vertex_set(["a", 2]), "2"),
        (lambda g: s_id(g, ["X", 1], ["Y"]), "1"),
        (lambda g: is_id(g, ["X"], ["Y", 2]), "2"),
        (lambda g: g.vertex_set(["X", ""]), "''"),
        (lambda g: AugmentedAdmg(["A", "B"], [(["A"], "B")]), r"\['A'\]"),
        (lambda g: AugmentedAdmg(["A", "B"], bidirected=[("A", ["B"])]), r"\['B'\]"),
        (lambda g: AugmentedAdmg(["A", "B"], selection=["A"]), r"\['A'\]"),
        (lambda g: g.parents(["X"]), r"\['X'\]"),
        (lambda g: g.children(["X"]), r"\['X'\]"),
        (lambda g: g.siblings(["X"]), r"\['X'\]"),
        (lambda g: g.ancestors([["X"]]), r"\['X'\]"),
    ],
    ids=["constructor", "vertex_set", "s_id", "is_id", "empty-name", "directed-endpoint",
         "bidirected-endpoint", "selection", "parents", "children", "siblings", "ancestors"],
)
def test_vertex_names_of_other_types_are_graph_errors(medication, call, bad):
    # checked before sorting, which would raise TypeError on mixed types
    with pytest.raises(GraphError, match=f"vertex names must be non-empty strings, got {bad}$"):
        call(medication)


def test_parents_children_siblings(hedges):
    assert hedges.parents("Y2") == ("X2", "Y1", "Z2")
    assert hedges.children("X1") == ("X2", "Y1")
    assert hedges.siblings("Z2") == ("X1", "X2")
    assert hedges.siblings("Y2") == ("S",)


def test_unknown_vertex_in_accessors(medication):
    with pytest.raises(GraphError, match="unknown vertex 'Q'"):
        medication.parents("Q")
    with pytest.raises(GraphError, match="unknown vertex 'Q'"):
        medication.vertex_set(["X", "Q"])


def test_ancestors_reflexive_and_transitive(hedges):
    assert hedges.ancestors(["Y2"]) == ("X1", "X2", "Y1", "Y2", "Z1", "Z2")
    assert hedges.ancestors(["Z1"]) == ("Z1",)
    assert hedges.ancestors([]) == ()


def test_ancestors_of_selection(hedges):
    assert hedges.ancestors(["S"]) == ("S", "Z1", "Z2")


def test_induced_subgraph_keeps_both_edge_kinds(hedges):
    sub = hedges.induced_subgraph(["X1", "X2", "Y2", "Z2"])
    assert sub.directed_edges == (("X1", "X2"), ("X2", "Y2"), ("Z2", "Y2"))
    assert sub.bidirected_edges == (("X1", "Z2"), ("X2", "Z2"))
    assert sub.selection is None


def test_induced_subgraph_retains_selection_when_kept(medication):
    sub = medication.induced_subgraph(["Z", "S"])
    assert sub.selection == "S"
    assert sub.directed_edges == (("Z", "S"),)


def test_edge_surgery(hedges):
    cut = hedges.edge_surgery(bar_in=["X1", "X2"], bar_out=["Z1"])
    assert ("X1", "X2") not in cut.directed_edges  # head in bar_in
    assert ("Z1", "Z2") not in cut.directed_edges  # tail in bar_out
    assert ("X2", "Y2") in cut.directed_edges
    # every bidirected edge touching bar_in disappears
    assert cut.bidirected_edges == (("S", "Y1"), ("S", "Y2"))
    assert cut.vertices == hedges.vertices
    assert cut.selection == "S"


def test_edge_surgery_empty_is_identity(hedges):
    assert hedges.edge_surgery() == hedges


def test_topological_order_lexicographic_tiebreak():
    g = AugmentedAdmg(["A", "B", "C", "D"], [("C", "A"), ("C", "B")])
    # C and D start available; C is emitted first, unlocking A and B ahead of D
    assert g.topological_order() == ("C", "A", "B", "D")


def test_topological_order_scope(hedges):
    assert hedges.topological_order(["X1", "X2", "Y1", "Y2"]) == (
        "X1",
        "X2",
        "Y1",
        "Y2",
    )


def test_split_by_selection(hedges, medication, recoverability):
    assert hedges.split_by_selection() == (("Z1", "Z2"), ("X1", "X2", "Y1", "Y2"))
    assert medication.split_by_selection() == (("Z",), ("X", "Y"))
    assert recoverability.split_by_selection() == (("Z1", "Z2"), ("X1", "X2", "Y"))


def test_split_requires_selection():
    g = AugmentedAdmg(["A", "B"], [("A", "B")])
    with pytest.raises(GraphError, match="no selection vertex"):
        g.split_by_selection()


def test_equality_and_hash(medication):
    clone = AugmentedAdmg(
        medication.vertices,
        medication.directed_edges,
        medication.bidirected_edges,
        selection="S",
    )
    assert clone == medication
    assert hash(clone) == hash(medication)
    assert clone != medication.edge_surgery(bar_in=["Y"])


def test_repr_is_compact(medication):
    assert repr(medication) == (
        "AugmentedAdmg(4 vertices, 2 directed, 2 bidirected, selection='S')"
    )


# -- randomized invariants -----------------------------------------------------


def test_ancestors_idempotent_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_admg(rng)
        seeds = [v for v in g.observed if rng.random() < 0.4]
        anc = g.ancestors(seeds)
        assert g.ancestors(anc) == anc
        assert set(seeds) <= set(anc)
        bigger = g.ancestors(list(seeds) + list(g.observed[:1]))
        assert set(anc) <= set(bigger)


def test_edge_surgery_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = random_admg(rng)
        bar_in = [v for v in g.observed if rng.random() < 0.3]
        bar_out = [v for v in g.observed if rng.random() < 0.3]
        once = g.edge_surgery(bar_in, bar_out)
        assert once.edge_surgery(bar_in, bar_out) == once


def test_selection_ancestry_members_reach_selection():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_admg(rng)
        anc, non_anc = g.split_by_selection()
        for v in anc:
            assert "S" in set(g.ancestors([])) or v in set(g.ancestors(["S"]))
        for v in non_anc:
            assert v not in set(g.ancestors(["S"]))


def test_topological_order_respects_edges():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_admg(rng)
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert len(order) == len(g.vertices)
        for tail, head in g.directed_edges:
            assert pos[tail] < pos[head]


def test_ancestors_within_matches_induced_subgraph():
    rng = np.random.default_rng(4)
    for _ in range(200):
        g = random_admg(rng, p_dir=0.5)
        scope = [v for v in g.vertices if rng.random() < 0.7]
        seeds = [v for v in scope if rng.random() < 0.4]
        assert g.ancestors(seeds, within=scope) == g.induced_subgraph(scope).ancestors(seeds)
        outside = sorted(set(g.vertices) - set(scope))
        if outside:
            with pytest.raises(GraphError, match="seeds must lie inside the scope"):
                g.ancestors(seeds + outside[:1], within=scope)


def test_bare_string_vertex_sets_rejected(recoverability):
    with pytest.raises(GraphError, match="got the string 'X1'"):
        recoverability.vertex_set("X1")
    with pytest.raises(GraphError, match="got the string 'Y'"):
        recoverability.ancestors(["X1"], within="Y")
    assert recoverability.vertex_set(["X1"]) == ("X1",)
    with pytest.raises(GraphError, match="got the string 'XYS'"):
        AugmentedAdmg("XYS", [("X", "Y")], selection="S")
    assert AugmentedAdmg(["XY", "S"], [("XY", "S")], selection="S").vertices == ("S", "XY")
    # not a collection at all: refused the same way, not a stray TypeError
    for call, bad in [
        (lambda: AugmentedAdmg(5), "5"),
        (lambda: recoverability.vertex_set(5), "5"),
        (lambda: recoverability.ancestors(None), "None"),
        (lambda: recoverability.ancestors(["X1"], within=3), "3"),
        (lambda: s_id(recoverability, 5, ["Y"]), "5"),
    ]:
        with pytest.raises(GraphError, match=f"expected a collection of vertex names, got {bad}$"):
            call()


@pytest.mark.parametrize("kind", ["directed", "bidirected"])
@pytest.mark.parametrize(
    "edge, shown",
    [("AB", "'AB'"), (5, "5"), (None, "None"), (("A",), r"\('A',\)"),
     (("A", "B", "C"), r"\('A', 'B', 'C'\)"), (["A", "B", "C"], r"\['A', 'B', 'C'\]")],
    ids=["string", "int", "none", "one-end", "three-ends", "three-end-list"],
)
def test_edges_that_are_not_pairs_rejected(kind, edge, shown):
    with pytest.raises(GraphError, match=f"an edge must be a pair of vertex names, got {shown}$"):
        AugmentedAdmg(["A", "B", "C"], **{kind: [("A", "C"), edge]})


@pytest.mark.parametrize(
    "directed, bidirected, shown",
    [(None, (), "None"), (5, (), "5"), ((), None, "None"), ((), 5, "5")],
    ids=["directed-none", "directed-int", "bidirected-none", "bidirected-int"],
)
def test_edge_collections_that_are_not_iterable_rejected(directed, bidirected, shown):
    with pytest.raises(GraphError, match=f"^expected a collection of edges, got {shown}$"):
        AugmentedAdmg(["A", "B"], directed, bidirected)


def test_edge_pairs_of_any_sequence_type_accepted():
    g = AugmentedAdmg(["A", "B", "C"], [["A", "B"], ("B", "C")], [["A", "C"]])
    assert g.directed_edges == (("A", "B"), ("B", "C"))
    assert g.bidirected_edges == (("A", "C"),)


# -- the mask kernel against the set-based references ---------------------------


@pytest.mark.parametrize("n_obs", [9, 23, 70, 130])
def test_mask_kernel_matches_set_references(n_obs):
    # scrambled names: "V10" sorts before "V2", and insertion order is random;
    # 70 and 130 vertices put masks past one and two machine words
    rng = np.random.default_rng(n_obs)
    for _ in range(12 if n_obs < 100 else 4):
        g = random_admg(
            rng, names=scrambled_names(rng, n_obs), p_dir=2.5 / n_obs, p_bi=1.5 / n_obs,
            p_sel_dir=4 / n_obs, p_sel_bi=2 / n_obs,
        )
        bar_in = [v for v in g.observed if rng.random() < 0.2]
        bar_out = [v for v in g.observed if rng.random() < 0.2]
        for h in (g, g.edge_surgery(bar_in, bar_out)):
            assert h.split_by_selection() == split_by_selection_reference(h)
            assert h.topological_order() == topological_order_reference(h)
            assert c_components(h) == c_components_reference(h)
            assert h.ancestors(["S"]) == ancestors_reference(h, ["S"])
            for _ in range(5):
                scope = [v for v in h.vertices if rng.random() < 0.6]
                seeds = [v for v in scope if rng.random() < 0.2]
                assert h.ancestors(seeds, within=scope) == ancestors_reference(h, seeds, scope)
                assert h.topological_order(scope) == topological_order_reference(h, scope)
                assert c_components(h, scope) == c_components_reference(h, scope)
                members = [v for v in h.split_by_selection()[1] if rng.random() < 0.6]
                assert s_components(h, members) == s_components_reference(h, members)


def _answers(g, queries):
    """Each query's ``s_id`` verdict, witness and estimand, and its text."""
    results = [s_id(g, x, y) for x, y in queries]
    return results, [r.estimand and render(r.estimand) for r in results]


def test_edge_surgery_equals_the_checked_construction():
    # a cut graph skips the constructor, and with it the kept order of the
    # non-ancestral part, which ``s_id`` then computes per query
    rng, pick = np.random.default_rng(6), np.random.default_rng(7)
    identified = 0
    for _ in range(60):
        g = random_admg(rng, names=scrambled_names(rng, int(rng.integers(3, 40))))
        cut = g.edge_surgery(
            [v for v in g.observed if rng.random() < 0.3],
            [v for v in g.observed if rng.random() < 0.3],
        )
        rebuilt = AugmentedAdmg(
            cut.vertices, cut.directed_edges, cut.bidirected_edges, selection=cut.selection
        )
        assert cut == rebuilt and hash(cut) == hash(rebuilt) and repr(cut) == repr(rebuilt)
        for v in g.vertices:
            assert cut.parents(v) == rebuilt.parents(v)
            assert cut.children(v) == rebuilt.children(v)
            assert cut.siblings(v) == rebuilt.siblings(v)
        assert cut.split_by_selection() == rebuilt.split_by_selection()
        queries = [random_query(pick, g) for _ in range(4)]
        answers = _answers(cut, queries)
        assert answers == _answers(rebuilt, queries)
        identified += sum(r.identifiable for r in answers[0])
    assert identified >= 100


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_answer_like_the_original(medication, how):
    duplicate = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                 "pickle": lambda g: pickle.loads(pickle.dumps(g))}[how]
    queries = [(("X",), ("Y",)), (("Z",), ("Y",)), ((), ("X", "Y"))]
    for g in (medication, medication.edge_surgery(bar_in=["X"])):
        twin = duplicate(g)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert _answers(twin, queries) == _answers(g, queries)
