"""Identification of causal effects from sub-population observational data.

The package answers: given a causal mixed graph with latent confounding and a
selection vertex describing how the observed sub-population was sampled, is
the effect of an intervention expressible from the sub-population's
observational distribution alone, and if so, by what formula?  Estimands are
symbolic trees that can be rendered (text/LaTeX/JSON) and evaluated exactly
against probability tables; a built-in discrete-SCM oracle verifies them.

Every name in a layer module's ``__all__`` is served from here.
"""

from . import components, estimand, graph, identify, parser, separation
from .components import *
from .estimand import *
from .graph import *
from .identify import *
from .parser import *
from .separation import *

__version__ = "0.1.0"

# the oracle's names (its ``__all__``), imported on first use: the oracle
# builds and evaluates numpy tables, and identification alone never loads numpy
_ORACLE = ("DiscreteScm", "PositivityError", "ProbabilityTable", "demo_graph_text",
           "demo_model", "evaluate", "latent_name", "random_scm", "verify")


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({*components.__all__, *estimand.__all__, *graph.__all__, *identify.__all__,
                  *parser.__all__, *separation.__all__, *_ORACLE})
