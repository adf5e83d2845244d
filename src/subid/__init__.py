"""Identification of causal effects from sub-population observational data.

The package answers: given a causal mixed graph with latent confounding and a
selection vertex describing how the observed sub-population was sampled, is
the effect of an intervention expressible from the sub-population's
observational distribution alone, and if so, by what formula?  Estimands are
symbolic trees that can be rendered (text/LaTeX/JSON) and evaluated exactly
against probability tables; a built-in discrete-SCM oracle verifies them.
"""

from .components import (
    c_components,
    find_hedge,
    is_ancestral,
    is_hedge,
    is_s_hedge,
    s_components,
)
from .estimand import (
    ONE,
    Estimand,
    PositivityError,
    Prob,
    Product,
    QsFactor,
    Quotient,
    SumOver,
    One,
    estimand_from_dict,
    estimand_to_dict,
    evaluate,
    free_vars,
    from_json,
    prob,
    product,
    qs_base,
    qs_decompose,
    qs_marginalize,
    quotient,
    render,
    sum_over,
    to_json,
)
from .graph import AugmentedAdmg, CycleError, GraphError
from .identify import (
    HedgeWitness,
    IdentifyResult,
    SeparationWitness,
    is_id,
    s_id,
    s_id_single,
    s_recover,
    sid_separation,
)
from .parser import GraphDocument, ParseError, parse_graph, serialize_graph
from .separation import m_separated, m_separated_bruteforce

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracle's names, imported on first use: the oracle builds numpy
    tables, and identification alone never loads numpy."""
    if name in ("DiscreteScm", "ProbabilityTable", "demo_graph_text", "demo_model",
                "latent_name", "random_scm", "verify"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AugmentedAdmg",
    "CycleError",
    "DiscreteScm",
    "Estimand",
    "GraphDocument",
    "GraphError",
    "HedgeWitness",
    "IdentifyResult",
    "ONE",
    "One",
    "ParseError",
    "PositivityError",
    "Prob",
    "ProbabilityTable",
    "Product",
    "QsFactor",
    "Quotient",
    "SeparationWitness",
    "SumOver",
    "c_components",
    "demo_graph_text",
    "demo_model",
    "estimand_from_dict",
    "estimand_to_dict",
    "evaluate",
    "find_hedge",
    "free_vars",
    "from_json",
    "is_ancestral",
    "is_hedge",
    "is_id",
    "is_s_hedge",
    "latent_name",
    "m_separated",
    "m_separated_bruteforce",
    "parse_graph",
    "prob",
    "product",
    "qs_base",
    "qs_decompose",
    "qs_marginalize",
    "quotient",
    "random_scm",
    "render",
    "s_components",
    "s_id",
    "s_id_single",
    "s_recover",
    "serialize_graph",
    "sid_separation",
    "sum_over",
    "to_json",
    "verify",
]
