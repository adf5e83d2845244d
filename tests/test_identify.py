"""The identification procedures: separation precondition, single-component
recursion, full assembly, population recovery, and the classical criterion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subid.estimand
import subid.identify
from subid import (
    AugmentedAdmg,
    GraphError,
    HedgeWitness,
    IdentifyResult,
    SeparationWitness,
    estimand_to_dict,
    evaluate,
    free_vars,
    is_id,
    is_s_hedge,
    m_separated,
    prob,
    product,
    qs_base,
    qs_decompose,
    quotient,
    random_scm,
    render,
    s_components,
    s_id,
    s_id_single,
    s_recover,
    sid_separation,
    sum_over,
)

from conftest import GOLDEN_DIR, read_golden
from helpers import (
    ancestors_reference,
    brute_force_hedge,
    c_components_reference,
    iter_assignments,
    qs_ground_truth,
    random_admg,
    random_dag_admg,
    random_query,
    random_table,
    s_hedge_reference,
    s_id_reference,
)


# -- query validation -----------------------------------------------------------


def test_query_validation(medication):
    with pytest.raises(GraphError, match="outcome set must be nonempty"):
        s_id(medication, ["X"], [])
    with pytest.raises(GraphError, match="overlap on X"):
        s_id(medication, ["X"], ["X", "Y"])
    with pytest.raises(GraphError, match="selection vertex 'S' cannot appear"):
        s_id(medication, ["S"], ["Y"])
    with pytest.raises(GraphError, match="unknown vertex 'Q'"):
        s_id(medication, ["Q"], ["Y"])


def test_s_id_requires_selection(id_classic):
    with pytest.raises(GraphError, match="no selection vertex"):
        s_id(id_classic, ["X1"], ["Y1"])
    with pytest.raises(GraphError, match="no selection vertex"):
        s_recover(id_classic, ["X1"], ["Y1"])


# -- separation precondition -----------------------------------------------------


def test_sid_separation_trivial_when_treatment_outside_ancestry(hedges):
    # the whole treatment lies outside the selection ancestry: nothing to check
    assert sid_separation(hedges, ["X1", "X2"], ["Y1", "Y2"])


def test_sid_separation_fails_for_ancestral_treatment(hedges):
    # Z2 is an ancestor of S and stays connected to Y2 after the surgery
    assert not sid_separation(hedges, ["Z2"], ["Y2"])


def test_sid_separation_passing_ancestral_treatment():
    g = AugmentedAdmg(
        ["A", "B", "Y", "S"],
        [("A", "S"), ("A", "B"), ("B", "Y")],
        selection="S",
    )
    # cutting A's outgoing edges isolates it from Y entirely
    assert sid_separation(g, ["A"], ["Y"])
    r = s_id(g, ["A"], ["Y"])
    assert r.identifiable


def test_sid_separation_failure_surfaces_as_witness(hedges):
    r = s_id(hedges, ["Z2"], ["Y2"])
    assert r.status == "fail"
    w = r.witness
    assert w == SeparationWitness(
        left=("Z2",), right=("Y2",), given=("S",), bar_in=(), bar_out=("Z2",)
    )
    # the witness re-checks: the separation really fails after the surgery
    cut = hedges.edge_surgery(bar_in=w.bar_in, bar_out=w.bar_out)
    assert not m_separated(cut, w.left, w.right, w.given)
    # a treatment outside the selection ancestry joins the sorted conditioning set
    assert s_id(hedges, ["X2", "Z2"], ["Y2"]).witness == SeparationWitness(
        left=("Z2",), right=("Y2",), given=("S", "X2"), bar_in=("X2",), bar_out=("Z2",)
    )


# -- single-component recursion ---------------------------------------------------


def test_s_id_single_returns_input_at_fixpoint(recoverability):
    parts = qs_decompose(recoverability, qs_base(recoverability))
    part = next(p for p in parts if p.scope == ("X2",))
    assert s_id_single(recoverability, ["X2"], part) == part


def test_s_id_single_marginalizes_ancestral_component(recoverability):
    parts = qs_decompose(recoverability, qs_base(recoverability))
    part = next(p for p in parts if p.scope == ("X1", "Y"))
    got = s_id_single(recoverability, ["Y"], part)
    assert got.scope == ("Y",)
    assert got.expr == sum_over(["X1"], part.expr)


def test_s_id_single_detects_stuck_scope(hedges):
    parts = qs_decompose(hedges, qs_base(hedges))
    part = next(p for p in parts if p.scope == ("Y1", "Y2"))
    assert s_id_single(hedges, ["Y2"], part) is None
    assert is_s_hedge(hedges, ["Y2"], part.scope)


def test_s_id_single_two_level_recursion():
    # Y's ancestry inside the enclosing scope is {M, Y}; after narrowing, the
    # scope decomposes and the recursion bottoms out at {Y} alone
    g = AugmentedAdmg(
        ["M", "X", "Y", "S"],
        [("M", "Y")],
        [("X", "S"), ("M", "X"), ("Y", "S")],
        selection="S",
    )
    factor = qs_decompose(g, qs_base(g))[0]
    assert factor.scope == ("M", "X", "Y")
    got = s_id_single(g, ["Y"], factor)
    assert got.scope == ("Y",)
    assert render(got.expr, "text", unicode_sum=False) == (
        "(Sum_{X} P(M,X,Y|S=1)) / (Sum_{X,Y} P(M,X,Y|S=1))"
    )
    # the expression computes the exact post-intervention factor
    scm = random_scm(g, seed=9)
    truth = qs_ground_truth(scm, ("Y",))
    obs = scm.observational_s()
    names = sorted(g.observed)
    for a in iter_assignments(names, scm.domain_size):
        assert evaluate(got.expr, obs, a) == pytest.approx(
            truth[tuple(a[n] for n in names)], abs=1e-9
        )


def test_s_id_single_validates_arguments(hedges):
    base = qs_base(hedges)
    parts = qs_decompose(hedges, base)
    x_part = next(p for p in parts if p.scope == ("X1", "X2"))
    with pytest.raises(GraphError, match="not contained in the factor"):
        s_id_single(hedges, ["Y2"], x_part)
    # {X1, Y1} sits inside the base scope but splits into two s-components
    with pytest.raises(GraphError, match="not a single s-component"):
        s_id_single(hedges, ["X1", "Y1"], base)
    # the scope itself must be a single s-component as well
    with pytest.raises(GraphError, match="not a single s-component"):
        s_id_single(hedges, ["X1"], base)


# -- full identification -----------------------------------------------------------


def test_s_id_medication(medication):
    r = s_id(medication, ["X"], ["Y"])
    assert r.identifiable
    assert r.witness is None
    _, _, out = read_golden(GOLDEN_DIR / "medication-X-Y.txt")
    assert render(r.estimand, "text", unicode_sum=False) + "\n" == out
    assert free_vars(r.estimand) == ("X", "Y")


def test_s_id_hedges_identifiable_query(hedges):
    r = s_id(hedges, ["X2"], ["Y2"])
    assert r.identifiable
    joint = prob(["X1", "X2", "Y1", "Y2"], ["Z1", "Z2"])
    manual = sum_over(
        ["Z1", "Z2"],
        product(
            [
                prob(["Z1", "Z2"]),
                sum_over(
                    ["X1", "Y1"],
                    product(
                        [
                            quotient(joint, sum_over(["Y1", "Y2"], joint)),
                            sum_over(["X2", "Y1", "Y2"], joint),
                        ]
                    ),
                ),
            ]
        ),
    )
    assert r.estimand == manual
    assert free_vars(r.estimand) == ("X2", "Y2")


def test_s_id_hedge_failure_carries_checkable_witness(hedges):
    r = s_id(hedges, ["X1"], ["Y1", "Y2"])
    assert r.status == "fail"
    assert r.estimand is None
    assert r.witness == HedgeWitness(component=("X2",), hedge=("X1", "X2"))
    assert is_s_hedge(hedges, r.witness.component, r.witness.hedge)


def test_verdicts_give_one_json_form(hedges, medication):
    ok = s_id(medication, ["X"], ["Y"])
    assert ok.to_dict() == {"status": "identifiable", "estimand": estimand_to_dict(ok.estimand),
                            "witness": None}
    for r in (s_id(hedges, ["X1"], ["Y1", "Y2"]), s_id(hedges, ["Z2"], ["Y2"])):
        assert r.to_dict() == {"status": "fail", "estimand": None, "witness": r.witness.to_dict()}
    assert IdentifyResult("fail").to_dict() == {"status": "fail", "estimand": None, "witness": None}
    assert list(ok.to_dict()) == ["status", "estimand", "witness"]


def test_s_id_hedge_witness_is_the_s_hedge_search_result():
    # the scope the recursion gets stuck at is the fixpoint of the plain search
    rng = np.random.default_rng(31)
    witnessed = 0
    for _ in range(100):
        g = random_admg(rng, p_bi=0.35)
        for x, y in itertools.permutations(g.observed, 2):
            w = s_id(g, [x], [y]).witness
            if isinstance(w, HedgeWitness):
                assert w.hedge == s_hedge_reference(g, w.component), (g, x, y)
                witnessed += 1
    assert witnessed >= 40


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_s_id_matches_assembly_from_whole_decompositions(seed):
    # building only the factors used gives the same verdicts, witnesses and trees
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n_obs=int(rng.integers(3, 8)), p_bi=0.3, p_sel_dir=0.15)
    for _ in range(4):
        x, y = random_query(rng, g)
        for run in (s_id, s_recover):
            got = run(g, x, y)
            if isinstance(got.witness, SeparationWitness):
                continue
            want = s_id_reference(g, x, y)
            if not got.identifiable:
                assert (got.witness.component, got.witness.hedge) == want
                continue
            assert got.estimand == want
            for fmt in ("text", "json"):
                assert render(got.estimand, fmt) == render(want, fmt)


def test_s_id_builds_only_the_factors_it_uses(monkeypatch):
    # seven s-components outside the selection ancestry {Z}; the query needs
    # the factor of {Y} alone, and that needs no shrinking
    g = AugmentedAdmg(
        ["A", "B", "C", "D", "E", "X", "Y", "Z", "S"], [("X", "Y"), ("Z", "S")], selection="S"
    )
    assert len(s_components(g, g.split_by_selection()[1])) == 7
    calls = []
    real = subid.estimand.product

    def counting(factors):
        calls.append(1)
        return real(factors)

    monkeypatch.setattr(subid.estimand, "product", counting)
    monkeypatch.setattr(subid.identify, "product", counting)
    result = s_id(g, ["X"], ["Y"])
    assert render(result.estimand, "text", unicode_sum=False) == (
        "Sum_{Z} (P(A,B,C,D,E,X,Y|Z,S=1) / (Sum_{Y} P(A,B,C,D,E,X,Y|Z,S=1))) P(Z|S=1)"
    )
    # one for the factor of {Y}, two for the assembly around it
    assert len(calls) <= 3


def test_stuck_queries_build_no_factor(hedges, monkeypatch):
    # every scope is decided before any factor is built, so a query that gets
    # stuck at an s-hedge builds nothing
    part = next(p for p in qs_decompose(hedges, qs_base(hedges)) if p.scope == ("Y1", "Y2"))
    calls = []
    for name in ("product", "_component_builder", "sum_over"):
        real = getattr(subid.estimand, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(subid.estimand, name, counting)
        monkeypatch.setattr(subid.identify, name, counting)
    assert not s_id(hedges, ["X1"], ["Y1", "Y2"]).identifiable
    assert s_id_single(hedges, ["Y2"], part) is None
    assert calls == []


def test_s_id_rejects_bare_string_vertex_sets(recoverability):
    with pytest.raises(GraphError, match="got the string 'X1'"):
        s_id(recoverability, "X1", ["Y"])


def test_s_id_latent_selection_fails(latent_selection):
    r = s_id(latent_selection, ["X"], ["Y"])
    assert r.status == "fail"
    assert r.witness == HedgeWitness(component=("Y",), hedge=("X", "Y"))


def test_s_id_recoverability_queries(recoverability):
    assert s_id(recoverability, ["X1"], ["Y"]).identifiable
    assert s_id(recoverability, ["X2"], ["Y"]).identifiable


def test_s_id_empty_treatment_is_observation(medication):
    r = s_id(medication, [], ["Y"])
    assert r.identifiable
    # with nothing intervened the answer reduces to plain observation
    table = random_table(np.random.default_rng(0), ["X", "Y", "Z"])
    for y_val in (0, 1):
        want = table.prob({"Y": y_val})
        got = evaluate(r.estimand, table, {"Y": y_val})
        assert got == pytest.approx(want, abs=1e-12)


def test_s_id_extra_free_variables_do_not_matter():
    # in an edgeless graph the estimand for P_A(C | S=1) retains B as a free
    # intervention coordinate; its value cannot influence the result
    g = AugmentedAdmg(["A", "B", "C", "S"], selection="S")
    r = s_id(g, ["A"], ["C"])
    assert r.identifiable
    extras = set(free_vars(r.estimand)) - {"A", "C"}
    assert extras == {"B"}
    scm = random_scm(g, seed=21)
    obs = scm.observational_s()
    for a_val in (0, 1):
        for c_val in (0, 1):
            vals = {
                evaluate(r.estimand, obs, {"A": a_val, "C": c_val, "B": b_val})
                for b_val in (0, 1)
            }
            assert max(vals) - min(vals) < 1e-12


# -- population recovery -----------------------------------------------------------


def test_s_recover_fails_when_selection_not_ignorable(medication):
    r = s_recover(medication, ["X"], ["Y"])
    assert r.status == "fail"
    w = r.witness
    assert w == SeparationWitness(
        left=("Y",), right=("S",), given=("X",), bar_in=("X",), bar_out=()
    )
    cut = medication.edge_surgery(bar_in=w.bar_in, bar_out=w.bar_out)
    assert not m_separated(cut, w.left, w.right, w.given)


def test_s_recover_recoverability_fixture(recoverability):
    r1 = s_recover(recoverability, ["X1"], ["Y"])
    assert r1.status == "fail"
    assert isinstance(r1.witness, SeparationWitness)

    r2 = s_recover(recoverability, ["X2"], ["Y"])
    assert r2.identifiable
    # once selection is ignorable the estimand is the sub-population one
    assert r2.estimand == s_id(recoverability, ["X2"], ["Y"]).estimand


def test_s_recover_numeric_on_population(recoverability):
    # the recovered estimand, read off sub-population data, matches the
    # population-level interventional distribution
    r = s_recover(recoverability, ["X2"], ["Y"])
    scm = random_scm(recoverability, seed=4)
    obs = scm.observational_s()
    for x_val in (0, 1):
        pop = scm.interventional_population({"X2": x_val})
        for y_val in (0, 1):
            want = pop.prob({"Y": y_val})
            got = evaluate(r.estimand, obs, {"X2": x_val, "Y": y_val})
            assert got == pytest.approx(want, abs=1e-9)


# -- degeneration and the classical criterion ---------------------------------------


def test_dag_graphs_reduce_to_the_separation_test():
    rng = np.random.default_rng(8)
    seen_fail = seen_ok = 0
    for _ in range(25):
        g = random_dag_admg(rng)
        for _ in range(3):
            x, y = random_query(rng, g)
            r = s_id(g, x, y)
            assert r.identifiable == sid_separation(g, x, y)
            if r.identifiable:
                seen_ok += 1
            else:
                seen_fail += 1
                assert isinstance(r.witness, SeparationWitness)
    assert seen_ok and seen_fail


def test_is_id_classic_verdicts(id_classic):
    assert is_id(id_classic, ["X1"], ["Y1"])
    assert is_id(id_classic, ["X2"], ["Y2"])
    assert is_id(id_classic, ["X1", "X2"], ["Y1"])
    assert is_id(id_classic, ["X1", "X2"], ["Y2"])
    assert not is_id(id_classic, ["X1"], ["Y1", "Y2"])
    assert not is_id(id_classic, ["X1", "X2"], ["Y1", "Y2"])


def test_is_id_matches_brute_force_hedges():
    # the classical criterion by definition: no c-component of the outcome's
    # ancestry D (without the treatment) has a hedge, found by subset enumeration
    rng = np.random.default_rng(15)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g = random_admg(rng, n_obs=int(rng.integers(2, 7)), p_bi=0.45)
        x, y = random_query(rng, g)
        d = ancestors_reference(g, y, within=set(g.vertices) - set(x))
        want = all(brute_force_hedge(g, c) is None for c in c_components_reference(g, d))
        assert is_id(g, x, y) == want, (g, x, y)
        seen[want] += 1
    assert min(seen.values()) >= 20, seen


def test_is_id_treats_selection_as_plain_vertex(medication):
    assert is_id(medication, ["X"], ["Y"])
    assert is_id(medication, ["Z"], ["Y"])


def test_is_id_validation(id_classic):
    with pytest.raises(GraphError, match="outcome set must be nonempty"):
        is_id(id_classic, ["X1"], [])
    with pytest.raises(GraphError, match="overlap on Y1"):
        is_id(id_classic, ["Y1"], ["Y1"])
