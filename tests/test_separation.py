"""m-separation: worked examples plus agreement between the two algorithms."""

import itertools

import numpy as np
import pytest

from subid import AugmentedAdmg, GraphError, m_separated, m_separated_bruteforce

from helpers import random_admg, scrambled_names


CHAIN = AugmentedAdmg(["A", "B", "C"], [("A", "B"), ("B", "C")])
FORK = AugmentedAdmg(["A", "B", "C"], [("B", "A"), ("B", "C")])
COLLIDER = AugmentedAdmg(["A", "B", "C"], [("A", "B"), ("C", "B")])


def test_chain():
    assert not m_separated(CHAIN, ["A"], ["C"])
    assert m_separated(CHAIN, ["A"], ["C"], ["B"])


def test_fork():
    assert not m_separated(FORK, ["A"], ["C"])
    assert m_separated(FORK, ["A"], ["C"], ["B"])


def test_collider():
    assert m_separated(COLLIDER, ["A"], ["C"])
    assert not m_separated(COLLIDER, ["A"], ["C"], ["B"])


def test_collider_opened_by_descendant():
    g = AugmentedAdmg(
        ["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("B", "D")]
    )
    assert not m_separated(g, ["A"], ["C"], ["D"])


def test_bidirected_edge_connects():
    g = AugmentedAdmg(["A", "B"], bidirected=[("A", "B")])
    assert not m_separated(g, ["A"], ["B"])


def test_bidirected_edge_is_a_collider_free_path():
    # A <-> B <-> C: B is a collider on the path, so conditioning on B opens it
    g = AugmentedAdmg(["A", "B", "C"], bidirected=[("A", "B"), ("B", "C")])
    assert m_separated(g, ["A"], ["C"])
    assert not m_separated(g, ["A"], ["C"], ["B"])


def test_mixed_collider_via_directed_and_bidirected():
    # A -> B <-> C: arrowheads meet at B
    g = AugmentedAdmg(["A", "B", "C"], [("A", "B")], [("B", "C")])
    assert m_separated(g, ["A"], ["C"])
    assert not m_separated(g, ["A"], ["C"], ["B"])


def test_medication_examples(medication):
    assert not m_separated(medication, ["X"], ["Y"])
    assert not m_separated(medication, ["X"], ["S"])  # open path X <-> Z -> S
    # conditioning on Z blocks that path, and the collider Y stays closed
    assert m_separated(medication, ["X"], ["S"], ["Z"])
    # adding Y opens the collider path X -> Y <-> S
    assert not m_separated(medication, ["X"], ["S"], ["Z", "Y"])


def test_empty_sides_are_separated(medication):
    assert m_separated(medication, [], ["Y"])
    assert m_separated(medication, ["X"], [])
    assert m_separated_bruteforce(medication, [], ["Y"])
    assert m_separated_bruteforce(medication, ["X"], [], ["Z"])


def test_overlap_rejected(medication):
    with pytest.raises(GraphError, match="the two separated sets overlap on X"):
        m_separated(medication, ["X"], ["X", "Y"])
    with pytest.raises(GraphError, match="conditioning set overlap on Y"):
        m_separated(medication, ["X"], ["Y"], ["Y"])


def test_unknown_vertex_rejected(medication):
    with pytest.raises(GraphError, match="unknown vertex 'Q'"):
        m_separated(medication, ["Q"], ["Y"])


def test_bruteforce_cap():
    names = [f"V{i}" for i in range(13)]
    g = AugmentedAdmg(names)
    with pytest.raises(GraphError, match="limited to 12 vertices, got 13"):
        m_separated_bruteforce(g, ["V0"], ["V1"])


def test_symmetry_on_fixture(hedges):
    rng = np.random.default_rng(5)
    verts = list(hedges.vertices)
    for _ in range(60):
        picked = [verts[i] for i in rng.choice(len(verts), size=4, replace=False)]
        a, b, w = [picked[0]], [picked[1]], picked[2:]
        assert m_separated(hedges, a, b, w) == m_separated(hedges, b, a, w)


def test_agreement_on_fixture_triples(hedges):
    verts = list(hedges.vertices)
    count = 0
    for a, b in itertools.combinations(verts, 2):
        rest = [v for v in verts if v not in (a, b)]
        for r in range(len(rest) + 1):
            for w in itertools.combinations(rest, r):
                fast = m_separated(hedges, [a], [b], w)
                slow = m_separated_bruteforce(hedges, [a], [b], w)
                assert fast == slow, (a, b, w)
                count += 1
    assert count >= 100


def test_agreement_on_random_graphs():
    rng = np.random.default_rng(0)
    disagreements = 0
    for _ in range(120):
        g = random_admg(rng, n_obs=int(rng.integers(2, 7)))
        verts = list(g.vertices)
        for _ in range(5):
            k = int(rng.integers(2, min(len(verts), 5) + 1))
            picked = [verts[i] for i in rng.choice(len(verts), size=k, replace=False)]
            a, b, w = [picked[0]], [picked[1]], picked[2:]
            if m_separated(g, a, b, w) != m_separated_bruteforce(g, a, b, w):
                disagreements += 1
    assert disagreements == 0


def test_agreement_on_bidirected_dense_graphs():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(150):
        g = random_admg(rng, n_obs=int(rng.integers(3, 8)), p_bi=0.5, p_sel_bi=0.5)
        verts = list(g.vertices)
        for _ in range(6):
            picked = [verts[i] for i in rng.permutation(len(verts))]
            cut_a, cut_b = sorted(rng.choice(range(1, len(verts)), size=2, replace=False))
            a, b = picked[:cut_a][:2], picked[cut_a:cut_b][:2]
            w = [v for v in picked[cut_b:] if rng.random() < 0.5]
            assert m_separated(g, a, b, w) == m_separated_bruteforce(g, a, b, w), (g, a, b, w)
            checked += 1
    assert checked == 900


def test_agreement_after_edge_surgery():
    # the cut graphs skip the constructor's checks; up to 11 observed + S = 12
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(120):
        g = random_admg(rng, names=scrambled_names(rng, int(rng.integers(3, 12))))
        cut = g.edge_surgery(
            [v for v in g.observed if rng.random() < 0.3],
            [v for v in g.observed if rng.random() < 0.3],
        )
        verts = list(cut.vertices)
        for _ in range(4):
            picked = [verts[i] for i in rng.permutation(len(verts))]
            a, b = picked[:1], picked[1:3]
            w = [v for v in picked[3:] if rng.random() < 0.4]
            assert m_separated(cut, a, b, w) == m_separated_bruteforce(cut, a, b, w), (cut, a, b, w)
            checked += 1
    assert checked == 480


def test_set_valued_sides(hedges):
    # separating a set is the conjunction over its members
    a, b, w = ["X1", "X2"], ["Z1"], ["Z2"]
    joint = m_separated(hedges, a, b, w)
    single = all(m_separated(hedges, [v], b, w) for v in a)
    assert joint == single == m_separated_bruteforce(hedges, a, b, w)


def test_dag_special_case_matches_d_separation():
    # pure DAG: m-separation must reduce to d-separation; spot check a classic
    g = AugmentedAdmg(
        ["A", "B", "C", "D", "E"],
        [("A", "C"), ("B", "C"), ("C", "D"), ("B", "E")],
    )
    assert m_separated(g, ["A"], ["B"])
    assert not m_separated(g, ["A"], ["B"], ["C"])
    assert not m_separated(g, ["A"], ["B"], ["D"])  # descendant of collider
    assert m_separated(g, ["A"], ["E"])
    assert not m_separated(g, ["A"], ["E"], ["C"])
