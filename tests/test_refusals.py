"""One sweep of malformed calls to the public entry points: each raises the
exact type its docstring names, never a stray error from deeper inside."""

from types import SimpleNamespace

import numpy as np
import pytest

from subid import (
    DiscreteScm,
    ProbabilityTable,
    c_components,
    demo_model,
    evaluate,
    find_hedge,
    from_json,
    is_ancestral,
    is_hedge,
    is_id,
    is_s_hedge,
    m_separated,
    m_separated_bruteforce,
    parse_graph,
    prob,
    qs_base,
    qs_decompose,
    qs_marginalize,
    random_scm,
    s_components,
    s_id,
    s_id_single,
    s_recover,
    serialize_graph,
    sid_separation,
    verify,
)

# arguments that are no mapping of names to values, or a bare string of them
NOT_MAPPINGS = [None, ["X"], "X", 5]

# each call with the parameter whose refusal names it
MAPPING_CALLS = {
    "interventional_joint": (lambda m, a: m.scm.interventional_joint(a), "do"),
    "interventional_s": (lambda m, a: m.scm.interventional_s(a), "do"),
    "interventional_population": (lambda m, a: m.scm.interventional_population(a), "do"),
    "evaluate": (lambda m, a: evaluate(prob(["X"]), m.table, a), "fixed"),
    "prob": (lambda m, a: m.table.prob(a), "assignment"),
}


def _message(name, parameter, arg):
    if name == "evaluate" and arg is None:  # the default: no values, so the free X is missing
        return "^no value given for free variables: X$"
    return f"^{parameter} must be a mapping of "


OTHER_CALLS = {
    "DiscreteScm-domains": (lambda m: DiscreteScm(m.scm.graph, None, {}), ValueError),
    "DiscreteScm-cpts": (lambda m: DiscreteScm(m.scm.graph, dict.fromkeys("XYZ", 2), None), ValueError),
    "marginal_array": (lambda m: m.xy_table.marginal_array("XY"), ValueError),
    "qs_marginalize": (lambda m: qs_marginalize(m.scm.graph, "f", ["Y"]), TypeError),
    "qs_decompose": (lambda m: qs_decompose(m.scm.graph, None), TypeError),
    "s_id_single": (lambda m: s_id_single(m.scm.graph, ["Y"], None), TypeError),
    "parse_graph": (lambda m: parse_graph(5), TypeError),
    "serialize_graph": (lambda m: serialize_graph(5), TypeError),
    "from_json": (lambda m: from_json(5), ValueError),
}

# what is no graph, and what ``parse_graph`` returns, which holds one
NOT_GRAPHS = {
    "None": None,
    "5": 5,
    "object": object(),
    "GraphDocument": parse_graph("X -> Y\nY -> S\n"),
}

# every public function that takes a graph, the other arguments valid for the demo model
GRAPH_CALLS = {
    "s_id": lambda g, m: s_id(g, ["X"], ["Y"]),
    "s_recover": lambda g, m: s_recover(g, ["X"], ["Y"]),
    "is_id": lambda g, m: is_id(g, ["X"], ["Y"]),
    "sid_separation": lambda g, m: sid_separation(g, ["X"], ["Y"]),
    "qs_base": lambda g, m: qs_base(g),
    "qs_marginalize": lambda g, m: qs_marginalize(g, m.base, ["Y"]),
    "qs_decompose": lambda g, m: qs_decompose(g, m.base),
    "s_id_single": lambda g, m: s_id_single(g, ["Y"], m.base),
    "verify": lambda g, m: verify(g, ["X"], ["Y"], trials=1),
    "random_scm": lambda g, m: random_scm(g),
    "DiscreteScm": lambda g, m: DiscreteScm(g, {}, {}),
    "m_separated": lambda g, m: m_separated(g, ["X"], ["Y"]),
    "m_separated_bruteforce": lambda g, m: m_separated_bruteforce(g, ["X"], ["Y"]),
    "c_components": lambda g, m: c_components(g),
    "s_components": lambda g, m: s_components(g, ["Y"]),
    "is_ancestral": lambda g, m: is_ancestral(g, ["X"], ["X", "Y"]),
    "find_hedge": lambda g, m: find_hedge(g, ["Y"]),
    "is_hedge": lambda g, m: is_hedge(g, ["Y"], ["X", "Y"]),
    "is_s_hedge": lambda g, m: is_s_hedge(g, ["Y"], ["X", "Y"]),
    "serialize_graph": lambda g, m: serialize_graph(g),
}

SWEEP = [
    pytest.param(
        lambda m, call=call, arg=arg: call(m, arg), ValueError, _message(name, parameter, arg),
        id=f"{name}-{arg!r}",
    )
    for name, (call, parameter) in MAPPING_CALLS.items()
    for arg in NOT_MAPPINGS
] + [pytest.param(call, error, None, id=name) for name, (call, error) in OTHER_CALLS.items()]


@pytest.fixture(scope="module")
def model():
    scm = demo_model()
    xy_table = ProbabilityTable(("X", "XY", "Y"), (2, 2, 2), np.full((2, 2, 2), 0.125))
    return SimpleNamespace(scm=scm, table=scm.observational_s(), xy_table=xy_table,
                           base=qs_base(scm.graph))


@pytest.mark.parametrize("call, error, message", SWEEP)
def test_malformed_public_call_raises_its_documented_type(model, call, error, message):
    with pytest.raises(error, match=message) as caught:
        call(model)
    assert caught.type is error


@pytest.mark.parametrize("arg", NOT_GRAPHS.values(), ids=NOT_GRAPHS.keys())
@pytest.mark.parametrize("call", GRAPH_CALLS.values(), ids=GRAPH_CALLS.keys())
def test_anything_but_a_graph_raises_type_error(model, call, arg):
    hint = "; pass its .graph" if hasattr(arg, "graph") else ""
    message = f"^graph must be an AugmentedAdmg, got {type(arg).__name__}{hint}$"
    with pytest.raises(TypeError, match=message.replace(".", r"\.")) as caught:
        call(arg, model)
    assert caught.type is TypeError
