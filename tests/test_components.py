"""c-components, s-components, and the hedge searches."""

import numpy as np
import pytest

from subid import (
    AugmentedAdmg,
    GraphError,
    c_components,
    find_hedge,
    is_ancestral,
    is_hedge,
    is_id,
    is_s_hedge,
    s_components,
    s_id,
)

from helpers import brute_force_hedge, brute_force_s_hedge, random_admg, s_hedge_reference


def test_c_components_whole_graph(hedges):
    assert c_components(hedges) == [
        ("S", "Y1", "Y2"),
        ("X1", "X2", "Z1", "Z2"),
    ]


def test_c_components_scoped(hedges):
    # inside the non-ancestral part no bidirected edges survive at all;
    # the c-components are singletons (the s-components below are coarser)
    assert c_components(hedges, ["X1", "X2", "Y1", "Y2"]) == [
        ("X1",),
        ("X2",),
        ("Y1",),
        ("Y2",),
    ]
    assert c_components(hedges, ["X1", "X2", "Z2"]) == [("X1", "X2", "Z2")]
    assert c_components(hedges, []) == []


def test_c_components_singletons_without_bidirected_edges():
    g = AugmentedAdmg(["A", "B", "C"], [("A", "B")])
    assert c_components(g) == [("A",), ("B",), ("C",)]


def test_s_components_join_through_selection_ancestry(hedges):
    # X1-X2 are tied through Z2 (selection ancestry), Y1-Y2 through S itself
    assert s_components(hedges, ["X1", "X2", "Y1", "Y2"]) == [
        ("X1", "X2"),
        ("Y1", "Y2"),
    ]


def test_s_components_trace(hedges):
    assert s_components(hedges, ["X1", "Y1", "Y2"]) == [("X1",), ("Y1", "Y2")]
    assert s_components(hedges, ["Y2"]) == [("Y2",)]


def test_s_components_reject_selection_ancestry(hedges):
    with pytest.raises(GraphError, match="offending vertices: Z1, Z2"):
        s_components(hedges, ["X1", "Z1", "Z2"])


def test_s_components_require_selection():
    g = AugmentedAdmg(["A", "B"], bidirected=[("A", "B")])
    with pytest.raises(GraphError, match="no selection vertex"):
        s_components(g, ["A"])


def test_s_components_finer_than_never_coarser(latent_selection):
    # X and Y share no bidirected edge, yet both touch S: one s-component
    assert c_components(latent_selection, ["X", "Y"]) == [("X",), ("Y",)]
    assert s_components(latent_selection, ["X", "Y"]) == [("X", "Y")]


def test_is_ancestral(hedges):
    assert is_ancestral(hedges, ["X1", "X2"], ["X1", "X2", "Y2"])
    assert not is_ancestral(hedges, ["Y2"], ["X1", "X2", "Y2"])
    assert is_ancestral(hedges, [], ["X1"])
    with pytest.raises(GraphError, match="inside the scope"):
        is_ancestral(hedges, ["Y1"], ["X1"])


def test_s_hedge_reference_witnesses(hedges):
    assert s_hedge_reference(hedges, ["X2"]) == ("X1", "X2")
    assert s_hedge_reference(hedges, ["Y2"]) == ("Y1", "Y2")
    assert s_hedge_reference(hedges, ["Y1", "Y2"]) is None
    assert s_hedge_reference(hedges, ["X1", "X2"]) is None


def test_s_hedge_reference_latent_selection(latent_selection):
    assert s_hedge_reference(latent_selection, ["Y"]) == ("X", "Y")


def test_find_hedge_classic(id_classic):
    # no hedge for either singleton outcome, but the joint outcome has one
    assert find_hedge(id_classic, ["Y1"]) is None
    assert find_hedge(id_classic, ["Y2"]) is None
    assert find_hedge(id_classic, ["Y1", "Y2"]) == ("X1", "X2", "Y1", "Y2")


def test_find_hedge_when_the_whole_graph_is_the_outcome_ancestry():
    # every vertex is an ancestor of Y, yet A <-> B is a c-component apart from
    # Y: the search must still narrow to Y's component before it stops
    g = AugmentedAdmg(["A", "B", "Y"], [("A", "Y"), ("B", "Y")], [("A", "B")])
    assert find_hedge(g, ["Y"]) is None
    assert is_id(g, ["A"], ["Y"])
    assert find_hedge(g, ["A"]) is None


def test_hedge_witnesses_recheck(hedges, latent_selection, id_classic):
    assert is_s_hedge(hedges, ["X2"], ("X1", "X2"))
    assert is_s_hedge(hedges, ["Y2"], ("Y1", "Y2"))
    assert is_s_hedge(latent_selection, ["Y"], ("X", "Y"))
    # two distinct valid witnesses for the same obstruction
    assert is_hedge(id_classic, ["Y1", "Y2"], ("X1", "Y1", "Y2"))
    assert is_hedge(id_classic, ["Y1", "Y2"], ("X1", "X2", "Y1", "Y2"))


def test_is_hedge_rejects_non_hedges(hedges, id_classic):
    assert not is_s_hedge(hedges, ["X2"], ("X2",))  # not strictly larger
    assert not is_s_hedge(hedges, ["X2"], ("X2", "Y1"))  # not one s-component
    # X2 and Y2 share no bidirected edge, so the pair is two c-components
    assert not is_hedge(id_classic, ["Y2"], ("X2", "Y2"))
    # {X1, Y2} is one c-component but X1 is no ancestor of Y2 inside the pair
    assert not is_hedge(id_classic, ["Y2"], ("X1", "Y2"))


def test_shrink_search_matches_brute_force_existence():
    rng = np.random.default_rng(10)
    s_checked = 0
    c_checked = 0
    for _ in range(150):
        g = random_admg(rng, n_obs=int(rng.integers(2, 6)))
        _, non_anc = g.split_by_selection()
        for y in [(v,) for v in non_anc]:
            if s_components(g, y) != [y]:
                continue
            fast = s_hedge_reference(g, y)
            slow = brute_force_s_hedge(g, y)
            assert (fast is None) == (slow is None), (g, y)
            if fast is not None:
                assert is_s_hedge(g, y, fast)
            s_checked += 1
        for y in [(v,) for v in g.observed]:
            fast = find_hedge(g, y)
            slow = brute_force_hedge(g, y)
            assert (fast is None) == (slow is None), (g, y)
            if fast is not None:
                assert is_hedge(g, y, fast)
            c_checked += 1
    assert s_checked >= 100 and c_checked >= 300


def test_find_hedge_refuses_an_outcome_that_is_not_one_c_component(id_classic):
    with pytest.raises(GraphError, match="^outcome must be nonempty$"):
        find_hedge(id_classic, [])
    # Y1 and X1 are joined only through Y2, so alone they are two c-components
    with pytest.raises(GraphError, match=r"^outcome \{X1, Y1\} is not a single c-component$"):
        find_hedge(id_classic, ["Y1", "X1"])


def test_hedge_search_deterministic(hedges):
    assert s_id(hedges, ["X1"], ["Y1", "Y2"]) == s_id(hedges, ["X1"], ["Y1", "Y2"])
