"""One sweep of malformed calls to the public entry points: each raises the
exact type its docstring names, never a stray error from deeper inside."""

from types import SimpleNamespace

import numpy as np
import pytest

from subid import (
    DiscreteScm,
    ProbabilityTable,
    demo_model,
    evaluate,
    parse_graph,
    prob,
    qs_decompose,
    qs_marginalize,
    s_id_single,
    serialize_graph,
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
    return SimpleNamespace(scm=scm, table=scm.observational_s(), xy_table=xy_table)


@pytest.mark.parametrize("call, error, message", SWEEP)
def test_malformed_public_call_raises_its_documented_type(model, call, error, message):
    with pytest.raises(error, match=message) as caught:
        call(model)
    assert caught.type is error
