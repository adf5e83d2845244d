"""Identification of interventional effects within a selected sub-population.

Given an augmented graph and disjoint treatment/outcome sets, :func:`s_id`
decides whether the post-intervention outcome distribution *of the
sub-population* is expressible from the sub-population's observational
distribution alone, and builds the expression when it is.  :func:`s_recover`
answers the population-level version by first checking that selection is
ignorable for the query.  :func:`is_id` is the classical identification
criterion on a plain mixed graph, used for cross-checking.

Failures carry machine-checkable witnesses: either an m-separation test that
the query fails after edge surgery, or an s-hedge.  A separation failure is
definitive; a hedge failure means "not identified by this algorithm".

Public functions validate their arguments once; the steps inside them do
not re-validate the sets they build.  They call the graph's private
name-in, name-out methods (the enclosing s-component, the scope loop, the
m-connection walk) and sum each factor to an ancestry that the scope loop
returned, so it is ancestral by construction.

The module owns the graph side of the factor steps (``qs_*``), whose
expressions :mod:`subid.estimand` builds, and a verdict's JSON form, which the
CLI and ``verify`` both print.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Union

from .components import c_components, is_ancestral, s_components
from .estimand import (Estimand, QsFactor, _component_builder, estimand_to_dict, prob,
                       product, sum_over)
from .graph import AugmentedAdmg, GraphError

__all__ = [
    "IdentifyResult",
    "SeparationWitness",
    "HedgeWitness",
    "sid_separation",
    "s_id",
    "s_id_single",
    "s_recover",
    "is_id",
    "qs_base",
    "qs_marginalize",
    "qs_decompose",
]


class _Witness:
    kind: ClassVar[str]

    def to_dict(self) -> dict:
        """JSON-ready form: ``kind``, then each field as a list of names."""
        names = {f.name: list(getattr(self, f.name)) for f in fields(self)}
        return {"kind": self.kind, **names}


@dataclass(frozen=True)
class SeparationWitness(_Witness):
    """An m-separation requirement that the query violates.

    Re-check: ``m_separated(g.edge_surgery(bar_in, bar_out), left, right,
    given)`` must be False.
    """

    kind = "separation"

    left: tuple[str, ...]
    right: tuple[str, ...]
    given: tuple[str, ...]
    bar_in: tuple[str, ...]
    bar_out: tuple[str, ...]


@dataclass(frozen=True)
class HedgeWitness(_Witness):
    """An s-hedge ``hedge`` for the s-component ``component``.

    ``hedge`` is the scope where the shrinking recursion got stuck; re-check
    it with ``is_s_hedge(g, component, hedge)``.
    """

    kind = "s-hedge"

    component: tuple[str, ...]
    hedge: tuple[str, ...]


Witness = Union[SeparationWitness, HedgeWitness]


@dataclass(frozen=True)
class IdentifyResult:
    status: str  # "identifiable" or "fail"
    estimand: Estimand | None = None
    witness: Witness | None = None

    @property
    def identifiable(self) -> bool:
        return self.status == "identifiable"

    def to_dict(self) -> dict:
        """JSON-ready form: ``status``, then the estimand's and the witness's objects or None."""
        est, w = self.estimand, self.witness
        return {"status": self.status, "estimand": None if est is None else estimand_to_dict(est),
                "witness": None if w is None else w.to_dict()}


def _disjoint_sets(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Treatment and outcome as vertex sets: the outcome nonempty, the two disjoint."""
    x = g.vertex_set(treatment)
    y = g.vertex_set(outcome)
    if not y:
        raise GraphError("outcome set must be nonempty")
    overlap = sorted(set(x) & set(y))
    if overlap:
        raise GraphError(f"treatment and outcome overlap on {', '.join(overlap)}")
    return x, y


def _query_sets(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """:func:`_disjoint_sets`, with the selection vertex in neither set."""
    x, y = _disjoint_sets(g, treatment, outcome)
    sel = g.selection
    if sel is not None and sel in set(x) | set(y):
        raise GraphError(f"the selection vertex {sel!r} cannot appear in a query")
    return x, y


def _separation_witness(
    g: AugmentedAdmg, x: tuple[str, ...], y: tuple[str, ...], anc: set[str]
) -> SeparationWitness | None:
    """The requirement of :func:`sid_separation` that the query violates, or
    None when it holds; ``anc`` is the selection ancestry."""
    sel = g._require_selection()
    xa = tuple(v for v in x if v in anc)
    if not xa:
        return None
    xn = tuple(v for v in x if v not in anc)
    w = SeparationWitness(xa, y, tuple(sorted(xn + (sel,))), bar_in=xn, bar_out=xa)
    return w if _violated(g, w) else None


def _violated(g: AugmentedAdmg, w: SeparationWitness) -> bool:
    """The re-check of :class:`SeparationWitness`: True when ``g`` fails it.  The
    witnesses built here hold pairwise disjoint sets, so the walk runs unchecked."""
    return g.edge_surgery(w.bar_in, w.bar_out)._m_connected(w.left, w.right, w.given)


def sid_separation(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> bool:
    """Separation precondition for sub-population identification.

    Split the treatment by selection ancestry into Xa (ancestors of the
    selection vertex) and Xn (the rest).  The condition holds when Xa is
    m-separated from the outcome by Xn plus the selection vertex, in the graph
    with incoming edges of Xn and outgoing edges of Xa removed.  Failing it
    means the effect is not identifiable from sub-population data at all.
    """
    x, y = _query_sets(g, treatment, outcome)
    return _separation_witness(g, x, y, set(g.split_by_selection()[0])) is None


def _require_factor(factor: object) -> None:
    """Refuse anything but a :class:`QsFactor` with ``TypeError``."""
    if not isinstance(factor, QsFactor):
        raise TypeError(f"factor must be a QsFactor, got {type(factor).__name__}")


def qs_base(g: AugmentedAdmg) -> QsFactor:
    """The factor of the full non-ancestral part: plain observation.

    Its expression is P(non-ancestral part | selection ancestry, S=1); with an
    empty non-ancestral part the expression is the constant 1.
    """
    anc, non_anc = g.split_by_selection()
    return QsFactor(non_anc, prob(non_anc, anc))


def qs_marginalize(g: AugmentedAdmg, factor: QsFactor, to: Iterable[str]) -> QsFactor:
    """Shrink a factor to an ancestral strict subset of its scope by summing.

    Marginalizing a post-intervention factor is only valid when the target is
    closed under taking parents within the factor's scope; a non-ancestral
    target raises :class:`GraphError`, and a ``factor`` that is not a
    :class:`QsFactor` ``TypeError``.
    """
    _require_factor(factor)
    target = g.vertex_set(to)
    if not set(target) < set(factor.scope):
        raise GraphError(
            f"target {{{', '.join(target)}}} must be a strict subset of the "
            f"factor scope {{{', '.join(factor.scope)}}}"
        )
    if not is_ancestral(g, target, factor.scope):
        raise GraphError(
            f"target {{{', '.join(target)}}} is not ancestral within "
            f"{{{', '.join(factor.scope)}}}; summing a post-intervention "
            "factor requires an ancestral target"
        )
    return _summed(factor, target)


def _summed(factor: QsFactor, to: tuple[str, ...]) -> QsFactor:
    """``factor`` summed down to the scope ``to``, a subset of its own."""
    kept = set(to)
    return QsFactor(to, sum_over([v for v in factor.scope if v not in kept], factor.expr))


def qs_decompose(g: AugmentedAdmg, factor: QsFactor) -> list[QsFactor]:
    """Split a factor into one factor per s-component of its scope.

    The Tian & Pearl telescoping over the topological order of the scope:
    with P_i the marginal of the factor on the first i vertices of the order
    (P_0 = 1), a component's factor is the product of P_i / P_{i-1} over its
    members, which telescopes to one P_b / P_{a-1} per maximal run a..b of
    consecutive member positions.  Only those marginals are built, once for all
    components, so a single-component scope returns the input expression unchanged.
    A ``factor`` that is not a :class:`QsFactor` raises ``TypeError``.
    """
    _require_factor(factor)
    build = _component_builder(g.topological_order(factor.scope), factor)
    return [build(comp) for comp in s_components(g, factor.scope)]


def _replay(g: AugmentedAdmg, factor: QsFactor, steps) -> QsFactor:
    """The factor that the ``steps`` of ``AugmentedAdmg._narrow`` reach from
    ``factor``: marginalize to each ancestry, then take one s-component when
    it splits.  Each ancestry is ancestral within the scope before it, so the
    sum is taken as ``qs_marginalize`` would, without its checks."""
    for anc, part in steps:
        factor = _summed(factor, anc)
        if part != anc:
            factor = _component_builder(g.topological_order(anc), factor)(part)
    return factor


def s_id_single(
    g: AugmentedAdmg, component: Iterable[str], factor: QsFactor
) -> QsFactor | None:
    """Express the factor of one s-component from an enclosing factor.

    ``component`` must be a single s-component contained in ``factor.scope``,
    itself a single s-component.  Returns the component's factor, or None,
    building nothing, when the shrinking recursion gets stuck (the stuck scope
    is then an s-hedge for the component).  A ``factor`` that is not a
    :class:`QsFactor` raises ``TypeError``.
    """
    _require_factor(factor)
    c = g.vertex_set(component)
    t = factor.scope
    if not set(c) <= set(t):
        raise GraphError(
            f"component {{{', '.join(c)}}} is not contained in the factor "
            f"scope {{{', '.join(t)}}}"
        )
    if s_components(g, c) != [c]:
        raise GraphError(f"{{{', '.join(c)}}} is not a single s-component")
    if s_components(g, t) != [t]:
        raise GraphError(f"{{{', '.join(t)}}} is not a single s-component")
    last, steps = g._narrow(c, t, selected=True)
    return _replay(g, factor, steps) if last == c else None


def s_id(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> IdentifyResult:
    """Decide sub-population identifiability and build the estimand.

    The returned estimand, evaluated on the exact observational table
    P(V | S=1) of any positive model compatible with ``g``, equals the
    post-intervention sub-population distribution of the outcome at every
    assignment.  Free variables of the estimand beyond treatment and outcome
    (intervention coordinates with no influence on the value) may be pinned
    to any value.
    """
    x, y = _query_sets(g, treatment, outcome)
    return _s_id(g, x, y)


def _s_id(g: AugmentedAdmg, x: tuple[str, ...], y: tuple[str, ...]) -> IdentifyResult:
    """:func:`s_id` on a query already validated by :func:`_query_sets`."""
    anc_t, non_anc_t = g.split_by_selection()
    anc, non_anc = set(anc_t), set(non_anc_t)
    witness = _separation_witness(g, x, y, anc)
    if witness is not None:
        return IdentifyResult("fail", witness=witness)

    yn = tuple(v for v in y if v in non_anc)
    d = g.ancestors(yn, within=non_anc - set(x))
    plans = []  # every component is decided before any factor is built
    for comp in s_components(g, d):
        t = g._enclosing(comp)
        last, steps = g._narrow(comp, t, selected=True)
        if last != comp:
            return IdentifyResult("fail", witness=HedgeWitness(comp, last))
        plans.append((t, steps))
    base = QsFactor(non_anc_t, prob(non_anc_t, anc_t))  # qs_base(g), from the split above
    order = g.topological_order(non_anc_t)
    build = functools.cache(_component_builder(order, base))  # each enclosing factor at most once
    parts = [_replay(g, build(t), steps) for t, steps in plans]

    outer_prob = prob(anc - set(x), anc & set(x))
    inner = sum_over(set(d) - set(yn), product(p.expr for p in parts))
    est = sum_over(anc - set(x) - set(y), product([outer_prob, inner]))
    return IdentifyResult("identifiable", estimand=est)


def s_recover(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> IdentifyResult:
    """Decide whether the population-level effect is recoverable.

    Requires the outcome to be m-separated from the selection vertex by the
    treatment once incoming treatment edges are removed (selection is then
    ignorable for the query, and the population effect coincides with the
    sub-population one); the remaining work is delegated to :func:`s_id`.
    A separation failure here is definitive: the population effect is not
    recoverable from sub-population data.
    """
    x, y = _query_sets(g, treatment, outcome)
    w = SeparationWitness(y, (g._require_selection(),), x, bar_in=x, bar_out=())
    return IdentifyResult("fail", witness=w) if _violated(g, w) else _s_id(g, x, y)


def is_id(
    g: AugmentedAdmg, treatment: Iterable[str], outcome: Iterable[str]
) -> bool:
    """Classical identifiability of the population effect on a mixed graph.

    The effect is identifiable exactly when no c-component of the ancestry D
    of the outcome (taken in the graph without the treatment) has a hedge:
    ``find_hedge``'s search, run on each component as computed, stops at
    the component itself.  Selection plays no role here; a selection vertex,
    if present, participates as an ordinary vertex.
    """
    x, y = _disjoint_sets(g, treatment, outcome)
    d = g.ancestors(y, within=set(g.vertices) - set(x))
    return all(g._narrow(comp)[0] == comp for comp in c_components(g, d))
