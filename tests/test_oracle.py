"""The exact-SCM oracle: probability tables, model construction, the demo
model's closed-form numbers, and the estimand verification loop."""

import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import subid.oracle
from subid import (
    AugmentedAdmg,
    DiscreteScm,
    GraphError,
    PositivityError,
    ProbabilityTable,
    demo_graph_text,
    demo_model,
    latent_name,
    parse_graph,
    evaluate,
    random_scm,
    s_id,
    verify,
)

from conftest import GRAPH_DIR
from helpers import (iter_assignments, random_admg, random_query, random_scm_reference,
                     scrambled_names)


def _selected_effect(scm, x, y):
    """The model's effect and P(V | S=1) arrays, its tables as a batch of one trial."""
    effect, obs = scm._selected_effect({n: t[None] for n, t in scm._cpts.items()}, x, y)
    return effect[0], obs[0]


# -- probability tables ----------------------------------------------------------


def test_table_requires_sorted_unique_variables():
    with pytest.raises(ValueError, match="must be sorted"):
        ProbabilityTable(("B", "A"), (2, 2), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="duplicate variable"):
        ProbabilityTable(("A", "A"), (2, 2), np.full((2, 2), 0.25))


@pytest.mark.parametrize(
    "variables, bad",
    [([1, 2], "1"), ([""], "''"), (["A", None], "None")],
    ids=["ints", "empty-name", "none"],
)
def test_table_refuses_names_that_marginal_would_refuse(variables, bad):
    shape = (2,) * len(variables)
    with pytest.raises(ValueError, match=f"^variables must be non-empty strings, got {bad}$"):
        ProbabilityTable(variables, shape, np.full(shape, 0.5 ** len(variables)))


@pytest.mark.parametrize(
    "variables, domains, message",
    [(None, (2,), "^variables must be a collection of names, got None$"),
     (5, (2,), "^variables must be a collection of names, got 5$"),
     (("A",), None, "^domain sizes must be a collection, got None$"),
     (("A",), 2, "^domain sizes must be a collection, got 2$")],
    ids=["none", "int", "domains-none", "domains-int"],
)
def test_table_refuses_inputs_that_are_not_collections(variables, domains, message):
    with pytest.raises(ValueError, match=message):
        ProbabilityTable(variables, domains, [0.5, 0.5])


def test_table_takes_names_from_a_one_shot_iterator():
    t = ProbabilityTable(iter(["A", "B"]), iter([2, 2]), np.full((2, 2), 0.25))
    assert t.variables == ("A", "B") and t.domain_size("B") == 2


def test_table_needs_one_domain_size_per_variable():
    with pytest.raises(ValueError, match="2 variables but 1 domain sizes"):
        ProbabilityTable(("A", "B"), (2,), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="1 variables but 2 domain sizes"):
        ProbabilityTable(("A",), (2, 2), np.full((2,), 0.5))


def test_table_validates_values():
    with pytest.raises(ValueError, match="shape"):
        ProbabilityTable(("A",), (2,), np.full((3,), 1 / 3))
    with pytest.raises(ValueError, match="nonnegative"):
        ProbabilityTable(("A",), (2,), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to"):
        ProbabilityTable(("A",), (2,), np.array([0.3, 0.3]))


@pytest.mark.parametrize(
    "values",
    [[float("nan"), 1.0], [float("nan"), float("nan")], [float("inf"), 0.0],
     [-float("inf"), 1.0]],
    ids=["nan-beside-one", "all-nan", "inf", "minus-inf"],
)
@pytest.mark.parametrize("normalized", [True, False])
def test_table_refuses_non_finite_values(values, normalized):
    # NaN compares False both ways, so a sign or a sum check alone lets it through
    with pytest.raises(ValueError, match="probabilities must be finite"):
        ProbabilityTable(["A"], [2], values, normalized=normalized)


@pytest.mark.parametrize(
    "size, message",
    [(2.0, "must be an integer, got 2.0"), (True, "must be an integer, got True"),
     ("2", "must be an integer, got '2'"), (0, "must be at least 1, got 0"),
     (-1, "must be at least 1, got -1")],
    ids=["float", "bool", "string", "zero", "negative"],
)
def test_table_refuses_domain_sizes_that_are_not_positive_integers(size, message):
    with pytest.raises(ValueError, match=f"^domain size of 'A' {message}$"):
        ProbabilityTable(("A",), (size,), [0.5, 0.5])


def test_table_stores_integer_domain_sizes_as_int():
    t = ProbabilityTable(("A", "B"), (np.int64(2), 1), np.full((2, 1), 0.5))
    assert [type(t.domain_size(v)) for v in t.variables] == [int, int]
    assert t.marginal(["A"]).prob({"A": 1}) == 0.5


def test_table_refuses_a_bare_string_of_names():
    with pytest.raises(ValueError, match="got the string 'AB'"):
        ProbabilityTable("AB", (2, 2), np.full((2, 2), 0.25))
    t = ProbabilityTable(("A", "B"), (2, 2), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="got the string 'AB'"):
        t.marginal("AB")
    with pytest.raises(ValueError, match="got the string 'B'"):
        t.marginal("B")
    assert t.marginal(["B"]).variables == ("B",)
    assert t.marginal(("B", "A", "B")).variables == ("A", "B")


def test_table_marginals():
    t = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert t.prob({"A": 0, "B": 1}) == pytest.approx(0.2)
    assert t.prob({"A": 1}) == pytest.approx(0.7)
    assert t.prob({}) == pytest.approx(1.0)
    m = t.marginal(["B"])
    assert m.variables == ("B",)
    assert m.prob({"B": 0}) == pytest.approx(0.4)
    with pytest.raises(KeyError, match="no variable 'C'"):
        t.prob({"C": 0})
    with pytest.raises(KeyError, match="no variable 'C'"):
        t.marginal(["B", "C"])


def test_table_marginal_array_refuses_unknown_names():
    t = ProbabilityTable(("A", "B"), (2, 2), np.full((2, 2), 0.25))
    with pytest.raises(KeyError, match="table has no variable 'Q'"):
        t.marginal_array(("Q",))
    with pytest.raises(KeyError, match="table has no variable 'Q'"):
        t.marginal_array(("A", "Q"))
    assert t.marginal_array(("A",)).tolist() == [[0.5], [0.5]]


def test_table_marginal_array_reads_names_as_marginal_does():
    t = ProbabilityTable(("X", "XY", "Y"), (2, 3, 2), np.arange(12).reshape(2, 3, 2) / 66)
    with pytest.raises(ValueError, match="must be a collection of names, got the string 'XY'$"):
        t.marginal_array("XY")
    for keep in (["X"], ["Y", "X"], ("XY", "X", "XY"), ["Y", "Y"]):
        arr = t.marginal_array(keep)
        assert arr.shape == tuple(t.domain_size(v) if v in keep else 1 for v in t.variables)
        assert np.array_equal(arr.reshape(-1), t.marginal(keep).values.reshape(-1))
        assert not arr.flags.writeable


def test_table_prob_rejects_invalid_values():
    t = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
    for bad in (-1, 2, 5, 0.5, True):
        with pytest.raises(ValueError, match=r"'A' must be an integer in range\(2\)"):
            t.prob({"A": bad})
    assert t.prob({"A": np.int64(1)}) == pytest.approx(0.7)


def test_table_values_returns_a_copy():
    t = ProbabilityTable(("A",), (2,), np.array([0.4, 0.6]))
    v = t.values
    v[0] = 99.0
    assert t.prob({"A": 0}) == pytest.approx(0.4)


def test_table_copies_the_array_it_is_given():
    a = np.array([[0.1, 0.2], [0.3, 0.4]])
    t = ProbabilityTable(("A", "B"), (2, 2), a)
    a[0, 0] = 5.0
    assert t.prob({"A": 0, "B": 0}) == pytest.approx(0.1)


def test_table_marginal_arrays_are_read_only():
    t = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
    for keep in (("A", "B"), ("A",), ()):
        with pytest.raises(ValueError, match="read-only"):
            t.marginal_array(keep)[0, 0] = 5.0
    assert t.prob({"A": 0, "B": 0}) == pytest.approx(0.1)
    assert t.prob({"A": 0}) == pytest.approx(0.3)
    assert t.values.flags.writeable


def test_latent_name_is_order_insensitive():
    assert latent_name("B", "A") == latent_name("A", "B") == "A~B"


def test_iter_assignments():
    got = list(iter_assignments(("A", "B"), lambda n: 2))
    assert got == [
        {"A": 0, "B": 0},
        {"A": 0, "B": 1},
        {"A": 1, "B": 0},
        {"A": 1, "B": 1},
    ]
    assert list(iter_assignments((), lambda n: 2)) == [{}]


# -- model construction ------------------------------------------------------------


def test_scm_requires_selection(id_classic):
    with pytest.raises(GraphError, match="requires a graph with a selection"):
        DiscreteScm(id_classic, {}, {})
    with pytest.raises(GraphError, match="requires a graph with a selection"):
        random_scm(id_classic)


def test_scm_parent_lists():
    scm = demo_model()
    assert scm.latents == ("S~Y", "X~Z")
    assert scm.parent_list("Y") == ("S~Y", "X")
    assert scm.parent_list("S") == ("S~Y", "Z")
    assert scm.parent_list("X") == ("X~Z",)
    assert scm.parent_list("S~Y") == ()


def _layout_reference(g, domains):
    """The latents, parent lists and domain sizes of a model of ``g``, built
    from its edge lists; latents missing from ``domains`` are binary."""
    parents = {v: set() for v in g.vertices}
    for tail, head in g.directed_edges:
        parents[head].add(tail)
    sizes = {v: domains[v] for v in g.observed}
    sizes[g.selection] = 2
    for u, v in g.bidirected_edges:
        latent = latent_name(u, v)
        parents[latent] = set()
        parents[u].add(latent)
        parents[v].add(latent)
        sizes[latent] = domains.get(latent, 2)
    latents = tuple(sorted(set(parents) - set(g.vertices)))
    return latents, {name: tuple(sorted(p)) for name, p in parents.items()}, sizes


def test_model_layout_matches_the_edge_lists():
    rng = np.random.default_rng(26)
    for k in range(40):
        n = int(rng.integers(2, 6))
        names = scrambled_names(rng, n) if k % 2 else None
        g = random_admg(rng, n_obs=n, names=names, p_bi=0.3, p_sel_bi=0.3)
        latents = [latent_name(u, v) for u, v in g.bidirected_edges]
        domains = {v: int(rng.integers(2, 4)) for v in g.observed}
        domains.update((l, 3) for l in latents[::2])  # the others default to binary
        want_latents, want_parents, want_sizes = _layout_reference(g, domains)
        cpts = {
            name: np.full((*(want_sizes[p] for p in pa), want_sizes[name]), 1 / want_sizes[name])
            for name, pa in want_parents.items()
        }
        size = 2 + k % 2
        models = [
            (DiscreteScm(g, domains, cpts), want_parents, want_sizes),
            (random_scm(g, domain_size=size, seed=k),
             *_layout_reference(g, dict.fromkeys([*g.observed, *latents], size))[1:]),
        ]
        for scm, parents, sizes in models:
            assert scm.latents == want_latents
            assert {name: scm.parent_list(name) for name in parents} == parents
            assert {name: scm.domain_size(name) for name in sizes} == sizes


def test_scm_accessors_name_an_unknown_variable():
    scm = demo_model()
    for accessor in (scm.domain_size, scm.parent_list):
        with pytest.raises(KeyError, match="model has no variable 'Q'"):
            accessor("Q")


def test_scm_rejects_latent_name_collision():
    g = AugmentedAdmg(
        ["A", "B", "A~B", "S"], [("A~B", "S")], [("A", "B")], selection="S"
    )
    with pytest.raises(GraphError, match="collide with latent names: A~B"):
        DiscreteScm(g, {v: 2 for v in g.vertices}, {})


def test_scm_validates_tables(medication):
    domains = {v: 2 for v in medication.vertices}
    with pytest.raises(ValueError, match="missing conditional table"):
        DiscreteScm(medication, domains, {})
    good = random_scm(medication, seed=0)
    cpts = {n: good._cpts[n] for n in good._cpts}
    with pytest.raises(ValueError, match="missing domain size for 'X'"):
        DiscreteScm(medication, {v: 2 for v in medication.vertices if v != "X"}, cpts)
    # the selection vertex needs no domain: it is always binary
    DiscreteScm(medication, {v: 2 for v in medication.vertices if v != "S"}, cpts)
    cpts["X"] = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError, match="expected"):
        DiscreteScm(medication, domains, cpts)
    cpts["X"] = np.array([[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError, match="do not sum to 1"):
        DiscreteScm(medication, domains, cpts)
    cpts["X"] = np.array([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValueError, match="table for 'X' has negative entries"):
        DiscreteScm(medication, domains, cpts)


def test_selected_distributions_refuse_a_selection_that_never_happens(medication):
    cpts = dict(random_scm(medication, seed=0)._cpts)
    cpts["S"] = np.zeros_like(cpts["S"])
    cpts["S"][..., 0] = 1.0  # S=0 always
    scm = DiscreteScm(medication, {v: 2 for v in medication.vertices}, cpts)
    for distribution in (scm.observational_s, lambda: scm.interventional_s({"X": 0})):
        with pytest.raises(PositivityError, match="selected sub-population has probability zero"):
            distribution()


@pytest.mark.parametrize(
    "extra, message",
    [({"domains": {"Z~X": 3}}, "domain size given for 'Z~X'"),
     ({"cpts": {"Q": np.array([0.5, 0.5])}}, "conditional table given for 'Q'")],
    ids=["misnamed-latent", "unknown-table"],
)
def test_scm_refuses_keys_that_name_no_model_variable(medication, extra, message):
    # the X-Z latent is X~Z: a misspelt key would leave it silently binary
    good = random_scm(medication, seed=0)
    domains = {**{v: 2 for v in medication.vertices}, **extra.get("domains", {})}
    cpts = {**good._cpts, **extra.get("cpts", {})}
    with pytest.raises(ValueError, match=f"{message}, which is not a model variable; "
                                         "the latents are S~Y, X~Z"):
        DiscreteScm(medication, domains, cpts)


@pytest.mark.parametrize("size", [3, 1, "x", None, True, 2.0], ids=repr)
def test_scm_refuses_a_selection_domain_other_than_two(medication, size):
    good = random_scm(medication, seed=0)
    with pytest.raises(ValueError, match=re.escape(
            f"domain of 'S' must be 2, the selection vertex is binary; got {size!r}")):
        DiscreteScm(medication, {**_binary(medication), "S": size}, good._cpts)
    for two in (2, np.int64(2)):
        scm = DiscreteScm(medication, {**_binary(medication), "S": two}, good._cpts)
        assert scm.domain_size("S") == 2 and type(scm.domain_size("S")) is int


def test_scm_selection_forced_binary(medication):
    scm = random_scm(medication, domain_size=3, seed=0)
    assert scm.domain_size("S") == 2
    assert scm.domain_size("X") == 3
    assert scm.domain_size(latent_name("X", "Z")) == 3


def test_state_space_cap():
    names = [f"V{i:02d}" for i in range(24)] + ["S"]
    g = AugmentedAdmg(names, [("V00", "S")], selection="S")
    with pytest.raises(ValueError, match="state space exceeds"):
        random_scm(g, seed=0)


def test_oversized_state_space_refused_before_any_draw():
    # 25 binary variables; Y's table alone would hold 2**21 entries (16 MB)
    parents = [f"P{i:02d}" for i in range(20)]
    g = AugmentedAdmg(
        parents + ["I0", "I1", "I2", "Y", "S"], [(p, "Y") for p in parents], selection="S"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="state space exceeds"):
            random_scm(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _binary(g, **sizes):
    return {**{v: 2 for v in g.vertices}, **sizes}


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda g: DiscreteScm(g, _binary(g, X=2.7), {}),
            "domain of 'X' must be an integer, got 2.7",
            id="domain-float",
        ),
        pytest.param(
            lambda g: DiscreteScm(g, _binary(g, X="2"), {}),
            "domain of 'X' must be an integer, got '2'",
            id="domain-str",
        ),
        pytest.param(
            lambda g: DiscreteScm(g, _binary(g, X=True), {}),
            "domain of 'X' must be an integer, got True",
            id="domain-bool",
        ),
        pytest.param(
            lambda g: DiscreteScm(g, _binary(g, **{"X~Z": 2.0}), {}),
            "domain of 'X~Z' must be an integer, got 2.0",
            id="latent-domain-float",
        ),
        pytest.param(
            lambda g: DiscreteScm(g, _binary(g, X=1), {}),
            "domain of 'X' must be at least 2, got 1",
            id="domain-too-small",
        ),
        pytest.param(
            lambda g: random_scm(g, domain_size=2.5),
            "domain_size must be an integer, got 2.5",
            id="random_scm-domain_size-float",
        ),
        pytest.param(
            lambda g: random_scm(g, domain_size=True),
            "domain_size must be an integer, got True",
            id="random_scm-domain_size-bool",
        ),
        pytest.param(
            lambda g: random_scm(g, seed=1.5),
            "seed must be an integer, got 1.5",
            id="random_scm-seed-float",
        ),
        pytest.param(
            lambda g: random_scm(g, seed=-1),
            "seed must be at least 0, got -1",
            id="random_scm-seed-negative",
        ),
        pytest.param(
            lambda g: verify(g, ["X"], ["Y"], trials=1.5),
            "trials must be an integer, got 1.5",
            id="verify-trials-float",
        ),
        pytest.param(
            lambda g: verify(g, ["X"], ["Y"], trials=True),
            "trials must be an integer, got True",
            id="verify-trials-bool",
        ),
        pytest.param(
            lambda g: verify(g, ["X"], ["Y"], domain_size=2.5),
            "domain_size must be an integer, got 2.5",
            id="verify-domain_size-float",
        ),
        pytest.param(
            lambda g: verify(g, ["X"], ["Y"], seed=1.5),
            "seed must be an integer, got 1.5",
            id="verify-seed-float",
        ),
        pytest.param(
            lambda g: verify(g, ["X"], ["Y"], seed=-1),
            "seed must be at least 0, got -1",
            id="verify-seed-negative",
        ),
    ],
)
def test_sizes_trials_and_seeds_must_be_integers(medication, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(medication)


def test_numpy_integer_sizes_trials_and_seeds_are_accepted(medication):
    a = random_scm(medication, domain_size=np.int64(3), seed=np.int64(2))
    b = random_scm(medication, domain_size=3, seed=2)
    assert a.domain_size("X") == 3 and type(a.domain_size("X")) is int
    for name in b._cpts:
        assert np.array_equal(a._cpts[name], b._cpts[name]), name
    report = verify(
        medication, ["X"], ["Y"], trials=np.int64(2), domain_size=np.int64(3), seed=np.int64(1)
    )
    assert report == verify(medication, ["X"], ["Y"], trials=2, domain_size=3, seed=1)
    assert json.loads(json.dumps(report)) == report


def test_intervention_validation():
    scm = demo_model()
    with pytest.raises(GraphError, match="cannot intervene on 'S'"):
        scm.interventional_s({"S": 1})
    with pytest.raises(ValueError, match="out of range"):
        scm.interventional_s({"X": 5})
    for bad in (0.5, True, -1):
        with pytest.raises(ValueError, match=r"'X' must be an integer in range\(2\)"):
            scm.interventional_s({"X": bad})
        with pytest.raises(ValueError, match=r"'X' must be an integer in range\(2\)"):
            scm.interventional_joint({"X": bad})
    assert scm.interventional_s({"X": np.int64(1)}) is not None


# -- the demo model's closed-form numbers ------------------------------------------


def test_demo_graph_text_round_trip(demo_graph):
    assert parse_graph(demo_graph_text).graph == demo_graph


def test_demo_selection_rates_by_latent():
    scm = demo_model()
    full = scm.latent_joint()
    u = latent_name("Y", "S")
    for u_val, want in ((0, 0.34), (1, 0.628)):
        got = full.prob({"S": 1, u: u_val}) / full.prob({u: u_val})
        assert got == pytest.approx(want, abs=1e-12)


def test_demo_effect_values():
    scm = demo_model()
    effect = scm.interventional_s({"X": 0}).prob({"Y": 1})
    assert effect == pytest.approx(0.628 / 0.968, abs=1e-12)
    assert effect == pytest.approx(0.6487603305785125, abs=1e-12)

    population = scm.interventional_population({"X": 0}).prob({"Y": 1})
    assert population == pytest.approx(0.5, abs=1e-12)

    obs = scm.observational_s()
    naive = obs.prob({"X": 0, "Y": 1}) / obs.prob({"X": 0})
    assert naive == pytest.approx(0.7332547963648604, abs=1e-12)
    assert abs(naive - effect) > 0.05


def test_demo_joint_is_exact():
    # every CPT row is a distribution and the joint sums to one exactly
    scm = demo_model()
    assert scm.joint().prob({}) == pytest.approx(1.0, abs=1e-14)
    assert scm.observational_s().prob({}) == pytest.approx(1.0, abs=1e-14)


def _conditioned_on_selection(table):
    """``table``, a distribution over S among others, conditioned on S=1 by hand."""
    values = np.take(table.values, 1, axis=table.variables.index("S"))
    return tuple(v for v in table.variables if v != "S"), values / values.sum()


def _sliced_cases():
    """Seeded random models, then the verify benchmark's chain at domain 3."""
    rng = np.random.default_rng(18)
    for seed in range(12):
        g = random_admg(rng, n_obs=int(rng.integers(2, 5)))
        k = int(rng.integers(1, len(g.observed)))  # leave at least one outcome
        x = tuple(sorted(map(str, rng.choice(g.observed, k, replace=False))))
        y = tuple(v for v in g.observed if v not in x)
        yield random_scm(g, 2, 0.05, seed), x, y
    chain = "".join(f"V{i} -> V{i + 1}\n" for i in range(4))
    chain += "".join(f"V{i} <-> V{i + 2}\n" for i in range(3)) + "V0 -> S\nselect S\n"
    yield random_scm(parse_graph(chain).graph, 3, 0.05, 18), ("V1",), ("V4",)


def test_selected_slice_equals_the_full_joint_conditioned_by_hand():
    for scm, x, y in _sliced_cases():
        obs = scm.observational_s()
        names, want = _conditioned_on_selection(scm.joint())
        assert obs.variables == names
        np.testing.assert_allclose(obs.values, want, rtol=0, atol=1e-12)

        effect, effect_obs = _selected_effect(scm, x, y)
        np.testing.assert_allclose(effect_obs, want, rtol=0, atol=1e-12)
        keep = sorted(set(x) | set(y))
        for values in np.ndindex(*map(scm.domain_size, x)):
            do = dict(zip(x, values))
            sub = scm.interventional_s(do)
            names, want = _conditioned_on_selection(scm.interventional_joint(do))
            assert sub.variables == names
            np.testing.assert_allclose(sub.values, want, rtol=0, atol=1e-12)
            cell = tuple(
                (do[n] if effect.shape[i] > 1 else 0) if n in do else slice(None)
                for i, n in enumerate(keep)
            )
            np.testing.assert_allclose(
                effect[cell], sub.marginal(y).values, rtol=0, atol=1e-12
            )


# -- random models -------------------------------------------------------------------


def test_random_scm_deterministic(hedges):
    a = random_scm(hedges, seed=7)
    b = random_scm(hedges, seed=7)
    assert np.array_equal(a.latent_joint().values, b.latent_joint().values)
    c = random_scm(hedges, seed=8)
    assert not np.array_equal(a.latent_joint().values, c.latent_joint().values)


def test_random_scm_uniform_at_maximal_floor(medication):
    scm = random_scm(medication, domain_size=2, min_prob=0.5, seed=3)
    values = scm.latent_joint().values
    assert np.allclose(values, 1.0 / values.size, atol=1e-15)


def test_random_scm_positive_everywhere(hedges):
    scm = random_scm(hedges, seed=1)
    assert scm.observational_s().values.min() > 0.0
    for do in iter_assignments(("X2",), scm.domain_size):
        assert scm.interventional_s(do).values.min() > 0.0


@pytest.mark.parametrize(
    "graph, domain_size, min_prob",
    [("medication", d, p) for d in range(2, 10) for p in (1e-4, 0.05, 1.0 / d)]
    + [("hedges", d, p) for d in (2, 3) for p in (0.01, 1.0 / d)],
)
def test_random_scm_draws_table_by_table_dirichlet(request, graph, domain_size, min_prob):
    g = request.getfixturevalue(graph)
    for seed in (0, 5):
        want = random_scm_reference(g, domain_size, min_prob, seed)
        got = random_scm(g, domain_size, min_prob, seed)._cpts
        assert list(got) == sorted(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_random_scm_draws_table_by_table_dirichlet_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(12):
        g = random_admg(rng)
        domain_size = int(rng.integers(2, 4))
        seed = int(rng.integers(1000))
        want = random_scm_reference(g, domain_size, 0.03, seed)
        got = random_scm(g, domain_size, 0.03, seed)._cpts
        assert list(got) == sorted(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def test_random_scm_matches_the_model_rebuilt_from_its_tables(hedges, medication):
    for g, x, y in ((hedges, ("X2",), ("Y2",)), (medication, ("X",), ("Y",))):
        for domain_size in (2, 3):
            scm = random_scm(g, domain_size, seed=4)
            names = (*g.vertices, *scm.latents)
            tables = {n: t.copy() for n, t in scm._cpts.items()}
            rebuilt = DiscreteScm(g, {n: scm.domain_size(n) for n in names}, tables)
            effect, obs = _selected_effect(scm, x, y)
            want_effect, want_obs = _selected_effect(rebuilt, x, y)
            assert np.array_equal(effect, want_effect)
            assert obs.shape == want_obs.shape
            assert np.array_equal(obs, want_obs)


def test_random_scm_rejects_bad_parameters(medication):
    with pytest.raises(ValueError, match="domain_size must be at least 2"):
        random_scm(medication, domain_size=1)
    with pytest.raises(ValueError, match="min_prob must lie in"):
        random_scm(medication, min_prob=0.0)
    with pytest.raises(ValueError, match="min_prob must lie in"):
        random_scm(medication, min_prob=0.6)
    with pytest.raises(ValueError, match="min_prob must lie in"):
        random_scm(medication, domain_size=3, min_prob=0.4)


def test_random_scm_respects_min_prob_rows(medication):
    scm = random_scm(medication, min_prob=0.2, seed=5)
    for name, table in scm._cpts.items():
        assert table.min() >= 0.2 - 1e-12, name


# -- why the s-hedge is fatal: two models, same data, different effects ---------------


def _latent_selection_pair():
    g = parse_graph("X -> Y\nX <-> S\nY <-> S\n").graph
    u_x = latent_name("S", "X")
    u_y = latent_name("S", "Y")
    fair = np.array([0.5, 0.5])
    identity = np.array([[1.0, 0.0], [0.0, 1.0]])
    # S = 1 exactly when the two latents agree; axes (u_x, u_y, s)
    s_cpt = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    # first model: Y = X xor U_y xor noise(0.3); axes (u_y, x, y)
    y_xor = np.array(
        [[[0.7, 0.3], [0.3, 0.7]], [[0.3, 0.7], [0.7, 0.3]]]
    )
    # second model: Y ignores everything, Y ~ Bernoulli(0.3)
    y_flat = np.full((2, 2, 2), (0.7, 0.3))
    domains = {v: 2 for v in g.vertices}
    base = {u_x: fair, u_y: fair, "X": identity, "S": s_cpt}
    m1 = DiscreteScm(g, domains, {**base, "Y": y_xor})
    m2 = DiscreteScm(g, domains, {**base, "Y": y_flat})
    return m1, m2


def test_indistinguishable_models_with_different_effects():
    m1, m2 = _latent_selection_pair()
    obs1, obs2 = m1.observational_s(), m2.observational_s()
    assert np.allclose(obs1.values, obs2.values, atol=1e-14)
    e1 = m1.interventional_s({"X": 0}).prob({"Y": 1})
    e2 = m2.interventional_s({"X": 0}).prob({"Y": 1})
    assert e1 == pytest.approx(0.5, abs=1e-12)
    assert e2 == pytest.approx(0.3, abs=1e-12)


# -- the verification loop ------------------------------------------------------------


def test_verify_identifiable_query(hedges):
    report = verify(hedges, ["X2"], ["Y2"], trials=5, seed=3)
    assert report["status"] == "identifiable"
    assert report["trials"] == 5
    assert [t["seed"] for t in report["per_trial"]] == [3, 4, 5, 6, 7]
    assert report["max_abs_error"] < 1e-10
    assert report["witness"] is None
    assert "Σ" not in report["estimand_text"]
    assert report["estimand"]["kind"] == "sum"


def test_verify_deterministic(medication):
    assert verify(medication, ["X"], ["Y"], trials=3, seed=1) == verify(
        medication, ["X"], ["Y"], trials=3, seed=1
    )


def test_verify_hedge_failure(latent_selection):
    report = verify(latent_selection, ["X"], ["Y"], trials=5)
    assert report["status"] == "fail"
    assert report["trials"] == 0
    assert report["max_abs_error"] is None
    assert report["witness"] == {
        "kind": "s-hedge",
        "component": ["Y"],
        "hedge": ["X", "Y"],
    }


def test_verify_separation_failure(hedges):
    report = verify(hedges, ["Z2"], ["Y2"], trials=2)
    assert report["status"] == "fail"
    assert report["witness"]["kind"] == "separation"
    assert report["witness"]["left"] == ["Z2"]
    assert report["witness"]["bar_out"] == ["Z2"]


def test_verify_larger_domain(medication):
    report = verify(medication, ["X"], ["Y"], trials=2, domain_size=3, seed=11)
    assert report["status"] == "identifiable"
    assert report["max_abs_error"] < 1e-10


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_refuses_no_trials(medication, latent_selection, trials):
    for g in (medication, latent_selection):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify(g, ["X"], ["Y"], trials=trials)


@pytest.mark.parametrize(
    "min_prob",
    ["0.1", None, True, float("nan"), float("inf"), 0.0, -0.1, 0.6, 5.0],
    ids=["str", "none", "bool", "nan", "inf", "zero", "negative", "above-1/size", "five"],
)
def test_min_prob_must_be_a_real_number_in_range(medication, latent_selection, min_prob):
    # verify checks it before identifying, so a failing query refuses it too
    calls = [
        lambda: random_scm(medication, min_prob=min_prob),
        lambda: verify(medication, ["X"], ["Y"], min_prob=min_prob),
        lambda: verify(latent_selection, ["X"], ["Y"], min_prob=min_prob),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("min_prob must lie in (0, 1/domain_size]")):
            call()


@pytest.mark.parametrize(
    "min_prob", [np.float64(0.05), Fraction(1, 20)], ids=["numpy", "fraction"]
)
def test_min_prob_accepts_any_real_number(medication, min_prob):
    assert verify(medication, ["X"], ["Y"], trials=2, min_prob=min_prob) == verify(
        medication, ["X"], ["Y"], trials=2, min_prob=0.05
    )


def _verify_cases():
    """The example graphs' identifiable one-vertex queries, then random ADMGs' queries."""
    for path in sorted(GRAPH_DIR.glob("*.g")):
        g = parse_graph(path.read_text()).graph
        if g.selection is not None:
            for x, y in itertools.permutations(g.observed, 2):
                if s_id(g, [x], [y]).identifiable:
                    yield g, (x,), (y,)
    rng = np.random.default_rng(23)
    for _ in range(8):
        g = random_admg(rng, n_obs=int(rng.integers(2, 5)))
        x, y = random_query(rng, g)
        if s_id(g, x, y).identifiable:
            yield g, x, y


def _error_of_one_model(g, x, y, domain_size, min_prob, seed):
    """verify's error for the model ``random_scm`` draws from ``seed``, by public ``evaluate``
    at every treatment/outcome cell (other vertices pinned to 0)."""
    scm = random_scm(g, domain_size, min_prob, seed)
    effect, obs = _selected_effect(scm, x, y)
    table = ProbabilityTable(g.observed, obs.shape, obs)
    est = s_id(g, x, y).estimand
    keep = sorted(set(x) | set(y))
    pinned = dict.fromkeys(g.observed, 0)
    errors = []
    for cell in np.ndindex(*(domain_size for _ in keep)):
        # a treatment axis that nothing reads has size 1: the effect does not depend on it
        at = tuple(v if k > 1 else 0 for v, k in zip(cell, effect.shape))
        errors.append(abs(evaluate(est, table, {**pinned, **dict(zip(keep, cell))}) - effect[at]))
    return max(errors)


def test_verify_trials_match_models_drawn_one_by_one():
    # all trials are drawn, multiplied and tabulated at once; each must give
    # the same bits as its own model built by random_scm and read by evaluate
    cases = list(_verify_cases())
    assert len(cases) >= 20
    for g, x, y in cases:
        for domain_size in (2, 3):
            one_by_one = {}
            for trials in (1, 2, 20):
                report = verify(g, x, y, trials=trials, domain_size=domain_size,
                                min_prob=0.1, seed=7)
                assert [t["seed"] for t in report["per_trial"]] == list(range(7, 7 + trials))
                for trial in report["per_trial"]:
                    seed = trial["seed"]
                    if seed not in one_by_one:
                        one_by_one[seed] = _error_of_one_model(g, x, y, domain_size, 0.1, seed)
                    assert trial["error"] == one_by_one[seed], (g, x, y, domain_size, seed)
                assert report["max_abs_error"] == max(t["error"] for t in report["per_trial"])


@pytest.mark.parametrize("chunk, sizes", [(1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1])])
def test_verify_chunks_trials_under_the_state_cap(hedges, medication, monkeypatch, chunk, sizes):
    for g, x, y in ((hedges, ["X2"], ["Y2"]), (medication, ["X"], ["Y"])):
        whole = verify(g, x, y, trials=7, domain_size=3, seed=5)
        scm = random_scm(g, 3)
        cells = math.prod(map(scm.domain_size, (*g.vertices, *scm.latents)))
        drawn = []

        def draw(scm, min_prob, seeds, real=subid.oracle._draw):
            drawn.append(list(seeds))
            return real(scm, min_prob, drawn[-1])

        with monkeypatch.context() as m:
            m.setattr(subid.oracle, "MAX_STATES", chunk * cells)
            m.setattr(subid.oracle, "_draw", draw)
            assert verify(g, x, y, trials=7, domain_size=3, seed=5) == whole
            assert [len(seeds) for seeds in drawn] == sizes
            assert [s for seeds in drawn for s in seeds] == list(range(5, 12))
            # one cell fewer than the model: refused before any table is drawn
            m.setattr(subid.oracle, "MAX_STATES", cells - 1)
            drawn.clear()
            with pytest.raises(ValueError, match="state space exceeds"):
                verify(g, x, y, trials=7, domain_size=3, seed=5)
            assert drawn == []
