"""Everything numeric: probability tables, estimand evaluation, exact models.

The only module of the package that imports numpy, loaded on the first use of
one of its names.  A :class:`ProbabilityTable` holds a joint distribution with
one sorted axis per variable, copied and read-only; :func:`evaluate` tabulates
an estimand over all of a table's cells at once (size-1 axes broadcast) and
raises :class:`PositivityError` where the requested cell needs a zero
denominator.  The tabulation reads one array with a leading trial axis and
sums each marginal it needs from it, so it serves one table (a batch of one)
or a stack of them alike.

A :class:`DiscreteScm` realizes an augmented graph: every bidirected edge
becomes one explicit latent variable with two children, every vertex gets a
conditional probability table over its directed parents plus incident
latents, and the selection vertex is a binary variable whose value 1 means
"sampled".  All distributions are computed exactly by summing products of the
tables (numpy broadcasting), never by simulation, so oracle answers are correct
to floating-point rounding.  Sub-population distributions are computed inside
the S=1 slice: the selection table is cut to S=1 before any product.

:func:`verify` closes the loop: it runs the identification algorithm on a
graph, tabulates the estimand on the exact observational table of random
models and compares it with the truncated-factorisation ground truth.  All
trials go through one array pass: their tables are drawn and stacked on the
trial axis, multiplied in one truncated product and the estimand tabulated
once, in chunks of at most ``MAX_STATES`` cells.  Each trial's numbers are
the bits its own model, drawn alone, would give.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Collection, Iterable, Mapping

import numpy as np

from . import _ORACLE as __all__  # the names the package serves lazily, written once
from .estimand import (Estimand, Prob, Product, Quotient, SumOver, _names, _postorder,
                       free_vars, render)
from .graph import AugmentedAdmg, GraphError
from .identify import _query_sets, _s_id
from .parser import parse_graph

# exact joints only: refuse state spaces past this many cells
MAX_STATES = 2**24


class PositivityError(ValueError):
    """A conditional or quotient was evaluated against a zero denominator."""


class ProbabilityTable:
    """An exact joint distribution over named finite variables.

    Values are a dense numpy array with one axis per variable, variables in
    sorted order, copied from the caller's and read-only; ``values`` returns a
    writable copy.  Nothing is cached: ``marginal_array`` sums a fresh
    read-only array on every call.  ``prob`` returns the marginal probability
    of a partial assignment, a mapping of variable name -> integer value.
    """

    __slots__ = ("_variables", "_domains", "_values")

    def __init__(self, variables, domains, values, *, normalized: bool = True):
        self._variables = _names(variables, "variables", canonical=False)
        if list(self._variables) != sorted(self._variables):
            raise ValueError("variables must be sorted")
        if len(set(self._variables)) != len(self._variables):
            raise ValueError("duplicate variable names")
        if not isinstance(domains, Iterable):
            raise ValueError(f"domain sizes must be a collection, got {domains!r}")
        domains = tuple(domains)
        if len(domains) != len(self._variables):
            raise ValueError(
                f"{len(self._variables)} variables but {len(domains)} domain sizes"
            )
        self._domains = {v: _integer(f"domain size of {v!r}", k, 1)
                         for v, k in zip(self._variables, domains)}
        arr = np.array(values, dtype=float)  # a copy the caller cannot change
        if arr.shape != tuple(self._domains[v] for v in self._variables):
            raise ValueError("value array shape does not match the domains")
        total = float(arr.sum())
        if not math.isfinite(total):  # NaN or an infinity in some cell
            raise ValueError("probabilities must be finite")
        if (arr < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if normalized and not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        arr.flags.writeable = False
        self._values = arr

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def domain_size(self, name: str) -> int:
        try:
            return self._domains[name]
        except KeyError:
            raise KeyError(f"table has no variable {name!r}") from None

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    def marginal_array(self, keep: Iterable[str]) -> np.ndarray:
        """Marginal of the names ``keep``, read as :meth:`marginal` reads them,
        size 1 on the other axes; a fresh read-only array."""
        keep = _names(keep, "kept variables")
        unknown = [v for v in keep if v not in self._domains]
        if unknown:
            raise KeyError(f"table has no variable {unknown[0]!r}")
        drop = tuple(i for i, v in enumerate(self._variables) if v not in keep)
        arr = self._values.sum(axis=drop, keepdims=True)
        arr.flags.writeable = False
        return arr

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Marginal probability that the named variables take these values."""
        if not isinstance(assignment, Mapping):
            raise ValueError(
                f"assignment must be a mapping of names to values, got {assignment!r}"
            )
        for v, val in assignment.items():
            _check_value(v, val, self.domain_size(v))
        arr = self.marginal_array(assignment)
        return float(arr[tuple(assignment.get(v, 0) for v in self._variables)])

    def marginal(self, keep: Iterable[str]) -> "ProbabilityTable":
        names = _names(keep, "kept variables")
        arr = self.marginal_array(names)
        shape = tuple(self._domains[v] for v in names)
        return ProbabilityTable(names, shape, arr.reshape(shape), normalized=False)


# -- evaluation ---------------------------------------------------------------


def _check_value(name: str, value: object, size: int) -> None:
    """Refuse a value of ``name`` that is not an integer (bools excluded) in range(size)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < size:
        raise ValueError(
            f"value of {name!r} must be an integer in range({size}); {value!r} is out of range"
        )


def _tabulate(e: Estimand, variables: tuple[str, ...], joint: np.ndarray) -> dict[int, tuple]:
    """Every subtree of ``e`` at every cell of a batch of tables: ``{id(node): (values, zero)}``.

    ``joint`` holds P(V | S=1) of each trial: a leading trial axis, then one
    axis per name of ``variables``.  Each name set's marginal is summed from
    it once, size 1 on the dropped axes.  ``values`` has the same axes, of
    size 1 where the subtree does not depend on a variable, so broadcasting
    does the joins and no array outgrows the batch.  ``zero`` is False or
    marks the cells that need a zero conditioning event or denominator; those
    cells hold no meaningful value.
    """
    axis = {v: i for i, v in enumerate(variables, 1)}
    memo: dict[int, tuple] = {}
    marginals: dict[tuple[str, ...], np.ndarray] = {}

    def axes(names: Iterable[str]) -> tuple[int, ...]:
        unknown = [v for v in names if v not in axis]
        if unknown:
            raise ValueError(f"table has no variable {unknown[0]!r}")
        return tuple(axis[v] for v in names)

    def marginal(keep: tuple[str, ...]) -> np.ndarray:
        if keep not in marginals:
            drop = tuple(i for v, i in axis.items() if v not in keep)
            marginals[keep] = joint.sum(axis=drop, keepdims=True)
        return marginals[keep]

    def divide(num, den):
        return num / den, False if den.all() else den == 0.0

    with np.errstate(divide="ignore", invalid="ignore"):  # masked cells only
        for node in _postorder(e):
            if isinstance(node, Prob):
                axes(node.of + node.given)
                val, zero = marginal(tuple(sorted(node.of + node.given))), False
                if node.given:
                    val, zero = divide(val, marginal(node.given))
            elif isinstance(node, SumOver):
                body, zero = memo[id(node.body)]
                over = dict(zip(node.over, axes(node.over)))
                summed = tuple(i for i in over.values() if body.shape[i] > 1)
                val = body.sum(axis=summed, keepdims=True) if summed else body
                if zero is not False and summed:
                    zero = zero.any(axis=summed, keepdims=True)
                for i in over.values():  # bound but unused: counts its domain size
                    if body.shape[i] == 1:
                        val = val * joint.shape[i]
            elif isinstance(node, Product):
                parts = [memo[id(f)] for f in node.factors]
                val = functools.reduce(np.multiply, [p[0] for p in parts])
                zero = functools.reduce(operator.or_, [p[1] for p in parts])
            elif isinstance(node, Quotient):
                (num, num_zero), (den, den_zero) = memo[id(node.num)], memo[id(node.den)]
                val, hit = divide(num, den)
                zero = num_zero | den_zero | hit
            else:
                val, zero = np.ones((1,) * (len(axis) + 1)), False
            memo[id(node)] = (val, zero)
    return memo


def evaluate(
    e: Estimand, table: ProbabilityTable, fixed: Mapping[str, int] | None = None
) -> float:
    """Evaluate ``e`` on a table of P(V | S=1) at the assignment ``fixed``.

    ``fixed`` gives every free variable of ``e`` an integer in its domain
    (other entries are ignored).  The whole estimand is tabulated over the
    table's cells at once, as a batch of one, and the requested cell is read
    off.

    Raises :class:`PositivityError` when that cell depends on a conditioning
    event or denominator of probability zero, ``ValueError`` for a ``fixed``
    that is not a mapping, a missing or invalid value or a variable the table
    does not have, and ``TypeError`` when ``table`` is not a
    :class:`ProbabilityTable`.
    """
    if not isinstance(table, ProbabilityTable):
        raise TypeError(f"table must be a ProbabilityTable, got {type(table).__name__}")
    env = {} if fixed is None else fixed
    if not isinstance(env, Mapping):
        raise ValueError(f"fixed must be a mapping of names to values, got {fixed!r}")
    free = free_vars(e)
    missing = [v for v in free if v not in env]
    if missing:
        raise ValueError(f"no value given for free variables: {', '.join(missing)}")
    memo = _tabulate(e, table.variables, table._values[None])
    for v in free:
        _check_value(v, env[v], table.domain_size(v))

    def at(arr, env: dict[str, int]):  # the one trial; size-1 axes read index 0
        return arr[(0, *(env[v] if k > 1 else 0 for v, k in zip(table.variables, arr.shape[1:])))]

    def masked(node: Estimand, env: dict[str, int]) -> bool:
        zero = memo[id(node)][1]
        return zero is not False and bool(at(zero, env))

    if not masked(e, env):
        return float(at(memo[id(e)][0], env))
    node = e  # descend to the first zero denominator met when the tree is read in order
    while True:
        if isinstance(node, Prob):
            cond = {v: env[v] for v in node.given}
            raise PositivityError(f"conditioning event has probability zero: {cond}")
        if isinstance(node, SumOver):
            combos = itertools.product(*(range(table.domain_size(v)) for v in node.over))
            inners = ({**env, **dict(zip(node.over, c))} for c in combos)
            node, env = node.body, next(i for i in inners if masked(node.body, i))
        elif isinstance(node, Product):
            node = next(f for f in node.factors if masked(f, env))
        elif not masked(node.den, env) and at(memo[id(node.den)][0], env) == 0.0:
            den_env = {v: env[v] for v in free_vars(node.den)}
            raise PositivityError(f"denominator evaluates to zero at {den_env}")
        else:
            node = node.den if masked(node.den, env) else node.num


# -- models -------------------------------------------------------------------


def latent_name(u: str, v: str) -> str:
    """Canonical latent variable name for the bidirected edge between u and v."""
    a, b = sorted((u, v))
    return f"{a}~{b}"


def _integer(what: str, value: object, least: int) -> int:
    """``value`` as an int; refuse bools, non-integers and values below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(value)


def _parent_map(
    g: AugmentedAdmg, edges: tuple[tuple[str, str], ...]
) -> dict[str, tuple[str, ...]]:
    """Sorted parents of every model variable: directed parents plus the
    latents of the bidirected ``edges``; latents have none."""
    out: dict[str, tuple[str, ...]] = {}
    latents: dict[str, list[str]] = {v: [] for v in g.vertices}
    for edge in edges:
        name = latent_name(*edge)
        out[name] = ()
        for end in edge:
            latents[end].append(name)
    for v in g.vertices:
        out[v] = tuple(sorted(set(g.parents(v)) | set(latents[v])))
    return out


class DiscreteScm:
    """A structural causal model over an augmented graph with finite domains.

    Parameters
    ----------
    graph:
        Augmented graph with a selection vertex.
    domains:
        Domain size per vertex, an integer of at least 2 (bools refused).
        The selection vertex is always binary: it may be left out, and a size
        given for it other than the integer 2 raises ``ValueError``.  Latents
        default to binary unless listed here under their :func:`latent_name`.
    cpts:
        One table per vertex and per latent.  A variable's table has one axis
        per parent, parents sorted by name (directed parents plus the latents
        of incident bidirected edges; latents have no parents), and a final
        axis for the variable itself.  Rows must sum to 1.

    A ``domains`` or ``cpts`` that is not a mapping, or a key of either that
    names no vertex or latent of the model, raises ``ValueError``.
    """

    def __init__(
        self,
        graph: AugmentedAdmg,
        domains: Mapping[str, int],
        cpts: Mapping[str, np.ndarray],
    ):
        for what, given in (("domains", domains), ("cpts", cpts)):
            if not isinstance(given, Mapping):
                raise ValueError(f"{what} must be a mapping of names, got {given!r}")
        self._layout(graph, domains)
        for what, given in (("domain size", domains), ("conditional table", cpts)):
            unknown = [k for k in given if k not in self._sizes]
            if unknown:
                raise ValueError(
                    f"{what} given for {unknown[0]!r}, which is not a model variable; "
                    f"the latents are {', '.join(self._latents) or 'none'}"
                )
        self._cpts: dict[str, np.ndarray] = {}
        for name in self._names:
            try:
                raw = cpts[name]
            except KeyError:
                raise ValueError(f"missing conditional table for {name!r}") from None
            want = self._plan[name][0]
            arr = np.asarray(raw, dtype=float)
            if arr.shape != want:
                raise ValueError(
                    f"table for {name!r} has shape {arr.shape}, expected {want} "
                    f"(parents {self._parents[name]})"
                )
            if (arr < 0).any():
                raise ValueError(f"table for {name!r} has negative entries")
            if not np.abs(arr.sum(axis=-1) - 1.0).max() <= 1e-12:  # NaN fails too
                raise ValueError(f"rows of the table for {name!r} do not sum to 1")
            self._cpts[name] = arr

    def _layout(self, graph: AugmentedAdmg, domains: Mapping[str, int]) -> None:
        """Every structural check, then sizes, sorted names, parents and each
        table's layout; no table is read, so :func:`random_scm` runs this
        before drawing.  Latents missing from ``domains`` are binary."""
        if graph.selection is None:
            raise GraphError("an SCM requires a graph with a selection vertex")
        self.graph = graph
        edges = graph.bidirected_edges
        self._latents = tuple(sorted(latent_name(u, v) for u, v in edges))
        clash = sorted(set(self._latents) & set(graph.vertices))
        if clash:
            raise GraphError(
                f"vertex names collide with latent names: {', '.join(clash)}"
            )

        s = graph.selection
        size = domains.get(s, 2)  # a numpy 2 is 2; a bool or a float is not
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size != 2:
            raise ValueError(
                f"domain of {s!r} must be 2, the selection vertex is binary; got {size!r}"
            )
        sizes: dict[str, int] = {}
        for v in graph.vertices:
            if v != s and v not in domains:
                raise ValueError(f"missing domain size for {v!r}")
            sizes[v] = 2 if v == s else _integer(f"domain of {v!r}", domains[v], 2)
        for l in self._latents:
            sizes[l] = _integer(f"domain of {l!r}", domains.get(l, 2), 2)
        self._sizes = sizes
        self._names = tuple(sorted(sizes))
        if math.prod(sizes.values()) > MAX_STATES:
            raise ValueError(
                f"state space exceeds {MAX_STATES} cells; exact computation refused"
            )
        self._parents = _parent_map(graph, edges)
        axis = {n: i for i, n in enumerate(self._names)}
        # per variable: its table shape, then the transpose and the shape that
        # lay a stack of its tables (a leading trial axis) over the trial axis
        # and the full variable order; that order is sorted by name, so the
        # table's axes sorted by name fit it
        self._plan: dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {}
        for name in self._names:
            axes = self._parents[name] + (name,)
            full = [-1] + [1] * len(self._names)
            for a in axes:
                full[axis[a] + 1] = sizes[a]
            order = (0, *sorted(range(1, len(axes) + 1), key=lambda i: axes[i - 1]))
            self._plan[name] = (tuple(sizes[a] for a in axes), order, tuple(full))
        # the selection vertex is a sink, so only its own table has its axis
        self._selected = (slice(None),) * (axis[s] + 1) + (slice(1, 2),)

    # -- structure accessors -------------------------------------------------

    @property
    def latents(self) -> tuple[str, ...]:
        return self._latents

    def parent_list(self, name: str) -> tuple[str, ...]:
        try:
            return self._parents[name]
        except KeyError:
            raise KeyError(f"model has no variable {name!r}") from None

    def domain_size(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise KeyError(f"model has no variable {name!r}") from None

    # -- exact distributions ---------------------------------------------------

    def _factors(self, cpts: Mapping[str, np.ndarray], selected: bool) -> dict[str, np.ndarray]:
        """Every stack of CPTs in ``cpts`` laid out over the trial axis and the
        full variable order, in name order.  With ``selected`` the selection
        tables keep only their S=1 half, so every product of these factors
        stays inside the selected slice."""
        out = {
            name: cpts[name].transpose(order).reshape(full)
            for name, (_, order, full) in self._plan.items()
        }
        if selected:
            s = self.graph.selection
            out[s] = out[s][self._selected]
        return out

    def _table(
        self, base: Iterable[str], do: Mapping[str, int], selected: bool = False
    ) -> ProbabilityTable:
        """The marginal on the variables of ``base`` outside ``do`` of the joint
        after ``do``, over both values of S or, with ``selected``, of the joint
        inside S=1 divided by its total.  The one reader of ``do``: one that is
        not a mapping or holds a value out of its domain raises ``ValueError``,
        and a key that is no observed vertex :class:`GraphError`."""
        if not isinstance(do, Mapping):
            raise ValueError(f"do must be a mapping of vertices to values, got {do!r}")
        observed = set(self.graph.observed)
        for v, val in do.items():
            if v not in observed:
                raise GraphError(f"cannot intervene on {v!r}")
            _check_value(v, val, self._sizes[v])
        keep = set(base) - set(do)
        stack = {name: table[None] for name, table in self._cpts.items()}
        full = _product(self._factors(stack, selected), do)
        # a treatment axis that no remaining CPT reads has size 1 already
        at = tuple(
            slice(do[n], do[n] + 1) if n in do and k > 1 else slice(None)
            for n, k in zip(self._names, full.shape[1:])
        )
        kept = tuple(n for n in self._names if n in keep)
        values = self._marginal(full[(slice(None), *at)], keep, selected)[0]
        return ProbabilityTable(kept, tuple(self._sizes[n] for n in kept), values)

    def _marginal(self, arr: np.ndarray, keep: set[str], selected: bool) -> np.ndarray:
        """The marginal on ``keep`` of each trial of ``arr``; with ``selected``,
        ``arr`` lies inside the S=1 slice and each trial is divided by its total."""
        drop = tuple(i for i, n in enumerate(self._names, 1) if n not in keep)
        values = arr.sum(axis=drop) if drop else arr
        if selected:
            totals = values.sum(axis=tuple(range(1, values.ndim)), keepdims=True)
            if (totals <= 0.0).any():
                raise PositivityError("the selected sub-population has probability zero")
            values = values / totals
        return values

    def latent_joint(self) -> ProbabilityTable:
        """Exact joint over every variable, latents and selection included."""
        return self._table(self._names, {})

    def joint(self) -> ProbabilityTable:
        """Exact joint over the observed vertices and the selection vertex."""
        return self._table(self.graph.vertices, {})

    def observational_s(self) -> ProbabilityTable:
        """P(V | S=1): the observational distribution of the sub-population."""
        return self._table(self.graph.observed, {}, selected=True)

    def interventional_joint(self, do: Mapping[str, int]) -> ProbabilityTable:
        """Post-intervention joint over the untouched vertices plus selection."""
        return self._table(self.graph.vertices, do)

    def interventional_s(self, do: Mapping[str, int]) -> ProbabilityTable:
        """Post-intervention distribution inside the selected sub-population."""
        return self._table(self.graph.observed, do, selected=True)

    def interventional_population(self, do: Mapping[str, int]) -> ProbabilityTable:
        """Post-intervention distribution of the whole population."""
        return self._table(self.graph.observed, do)

    def _selected_effect(
        self, cpts: Mapping[str, np.ndarray], treatment: tuple[str, ...], outcome: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each trial of the stacked tables ``cpts``: P(outcome | do(treatment), S=1)
        at every value pair, and P(V | S=1), both from one truncated product
        computed inside the S=1 slice.  After the trial axis, the effect has
        one axis per treatment and outcome variable, sorted (size 1 for a
        treatment nothing reads), and P(V | S=1) one per observed vertex, sorted."""
        keep = sorted(set(treatment) | set(outcome))
        factors = self._factors(cpts, selected=True)
        truncated = _product(factors, treatment)
        joint = truncated.sum(axis=tuple(i for i, n in enumerate(self._names, 1) if n not in keep))
        in_outcome = tuple(i for i, n in enumerate(keep, 1) if n in outcome)
        effect = joint / joint.sum(axis=in_outcome, keepdims=True)
        full = functools.reduce(np.multiply, [factors[t] for t in treatment], truncated)
        return effect, self._marginal(full, set(self.graph.observed), selected=True)


def _product(factors: Mapping[str, np.ndarray], skip: Collection[str]) -> np.ndarray:
    """Product of the laid-out CPTs outside ``skip``: skipping the treatments
    gives the truncated factorisation, whose treatment axes index the
    intervention value (size 1 where no remaining CPT reads it)."""
    return functools.reduce(np.multiply, [f for n, f in factors.items() if n not in skip])


def random_scm(
    g: AugmentedAdmg,
    domain_size: int = 2,
    min_prob: float = 0.05,
    seed: int = 0,
) -> DiscreteScm:
    """A random positive SCM over ``g``, deterministic in ``seed``.

    Every row of every table is drawn uniformly from the probability simplex
    and then shrunk affinely toward the uniform distribution so that each
    entry is at least ``min_prob``; selection rows therefore stay inside
    [min_prob, 1 - min_prob] and the sub-population distribution is strictly
    positive.  ``min_prob = 1/domain_size`` degenerates to exactly uniform
    tables.  A state space of more than ``MAX_STATES`` cells is refused before
    any table is drawn.
    """
    domain_size = _integer("domain_size", domain_size, 2)
    seed = _integer("seed", seed, 0)
    min_prob = _min_prob(min_prob, domain_size)
    scm = _laid_out(g, domain_size)
    scm._cpts = {name: tables[0] for name, tables in _draw(scm, min_prob, [seed]).items()}
    return scm


def _laid_out(g: AugmentedAdmg, domain_size: int) -> DiscreteScm:
    """A model of ``g`` with every observed vertex and latent of ``domain_size``
    values, laid out with no tables yet: those drawn by :func:`_draw` need no
    re-check."""
    latents = [latent_name(u, v) for u, v in g.bidirected_edges]
    scm = DiscreteScm.__new__(DiscreteScm)
    scm._layout(g, dict.fromkeys([*g.observed, *latents], domain_size))
    return scm


def _min_prob(min_prob: object, domain_size: int) -> float:
    """``min_prob`` as a float if it is a real number (not a bool) in (0, 1/domain_size]."""
    real = isinstance(min_prob, numbers.Real) and not isinstance(min_prob, bool)
    if not (real and 0.0 < min_prob <= 1.0 / domain_size):
        raise ValueError(
            f"min_prob must lie in (0, 1/domain_size]; got {min_prob} "
            f"with domain_size {domain_size}"
        )
    return float(min_prob)


def _draw(scm: DiscreteScm, min_prob: float, seeds: Iterable[int]) -> dict[str, np.ndarray]:
    """The tables of the laid-out ``scm`` drawn from each of ``seeds``, each
    variable's stacked on a leading trial axis in the order of ``seeds``."""
    shapes = [shape for shape, _, _ in scm._plan.values()]
    counts = [math.prod(shape) for shape in shapes]
    # rng.dirichlet(np.ones(k)) is k standard exponentials times the reciprocal
    # of their sequential sum: one exponential per entry, in table order, and a
    # last cumsum column (np.sum adds pairwise) give the same bits
    flat = np.stack([np.random.default_rng(s).standard_exponential(sum(counts)) for s in seeds])
    cpts = {}
    start = 0
    for k, run in itertools.groupby(zip(scm._names, shapes, counts), lambda t: t[1][-1]):
        run = list(run)
        rows = flat[:, start:start + sum(count for _, _, count in run)].reshape(len(flat), -1, k)
        rows = rows * (1.0 / np.cumsum(rows, axis=2)[..., -1:])
        rows *= 1.0 - k * min_prob
        rows += min_prob
        if (rows < 0).any() or not np.abs(rows.sum(axis=2) - 1.0).max() <= 1e-12:
            names = ", ".join(repr(name) for name, _, _ in run)
            raise ValueError(f"rows drawn for {names} are not distributions")
        rows = rows.reshape(len(flat), -1)
        offset = 0
        for name, shape, count in run:
            cpts[name] = rows[:, offset:offset + count].reshape((-1, *shape))
            offset += count
        start += offset
    return cpts


demo_graph_text = "X -> Y\nZ -> S\nX <-> Z\nY <-> S\n"


def demo_model() -> DiscreteScm:
    """A small binary model with a known closed-form sub-population effect.

    Structure: X -> Y, Z -> S, X <-> Z, Y <-> S.  X and Z share a fair latent
    coin flipped with noise 0.2; Y is X xor the latent shared with S; S mixes
    Z and that latent through noisy xors.  Exact values:
    P(S=1 | U=0) = 0.34, P(S=1 | U=1) = 0.628 for the Y-side latent U, and
    the sub-population effect of do(X=0) on Y=1 is 0.628/0.968.
    """
    g = parse_graph(demo_graph_text).graph
    u_xz = latent_name("X", "Z")
    u_ys = latent_name("Y", "S")

    def noisy(flip: float) -> np.ndarray:
        # P(child = parent xor noise), noise ~ Bernoulli(flip)
        return np.array([[1 - flip, flip], [flip, 1 - flip]])

    def xor_mix(pz: float, pu: float, pn: float) -> np.ndarray:
        # P(S=1 | u, z) with S = (z and e1) xor (u and e2) xor e3
        out = np.empty((2, 2, 2))
        for u, z in itertools.product((0, 1), repeat=2):
            p1 = 0.0
            for e1, e2, e3 in itertools.product((0, 1), repeat=3):
                w = (pz if e1 else 1 - pz) * (pu if e2 else 1 - pu) * (
                    pn if e3 else 1 - pn
                )
                if (z & e1) ^ (u & e2) ^ e3:
                    p1 += w
            out[u, z] = (1 - p1, p1)
        return out

    xor_cpt = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    cpts = {
        u_xz: np.array([0.5, 0.5]),
        u_ys: np.array([0.5, 0.5]),
        "X": noisy(0.2),          # parent: the X~Z latent
        "Z": noisy(0.2),          # parent: the X~Z latent
        "Y": xor_cpt,             # parents sorted: (S~Y latent, X)
        "S": xor_mix(0.6, 0.9, 0.1),  # parents sorted: (S~Y latent, Z)
    }
    domains = {v: 2 for v in g.vertices}
    return DiscreteScm(g, domains, cpts)


def verify(
    g: AugmentedAdmg,
    treatment: Iterable[str],
    outcome: Iterable[str],
    trials: int = 20,
    domain_size: int = 2,
    min_prob: float = 0.05,
    seed: int = 0,
) -> dict:
    """Identify, then check the estimand against exact random models.

    The query is checked once, as :func:`~subid.identify.s_id` checks it.
    Trial ``t`` is the random positive SCM ``random_scm(g, domain_size,
    min_prob, seed + t)``.  All trials are done in one array pass: their
    tables are drawn and stacked on a leading trial axis, one truncated
    product gives every trial's true P(Y | do(X), S=1) at every treatment
    value and its observational sub-population table, and the estimand is
    tabulated once over the stack and compared at every treatment/outcome
    assignment.  Trials are taken in chunks whose joints hold at most
    ``MAX_STATES`` (2^24) cells together; a model larger than that alone is
    refused before any table is drawn.  Returns a JSON-ready report, the same
    as one model at a time would give; identical arguments give bit-identical
    reports.
    """
    trials = _integer("trials", trials, 1)
    domain_size = _integer("domain_size", domain_size, 2)
    seed = _integer("seed", seed, 0)
    min_prob = _min_prob(min_prob, domain_size)
    x, y = _query_sets(g, treatment, outcome)
    result = _s_id(g, x, y)
    report: dict = {"query": {"treatment": list(x), "outcome": list(y)}, **result.to_dict(),
                    "trials": 0, "max_abs_error": None, "per_trial": []}
    if not result.identifiable:
        return report

    est = result.estimand
    report["estimand_text"] = render(est, "text", unicode_sum=False)
    scm = _laid_out(g, domain_size)
    names = g.observed
    # intervention coordinates the value provably does not depend on sit at 0
    cell = (slice(None), *(slice(None) if v in x or v in y else 0 for v in names))
    chunk = MAX_STATES // math.prod(scm._sizes.values())  # trials whose joints fit the cap
    errors: list[float] = []
    for start in range(seed, seed + trials, chunk):
        cpts = _draw(scm, min_prob, range(start, min(start + chunk, seed + trials)))
        effect, obs = scm._selected_effect(cpts, x, y)
        values, zero = _tabulate(est, names, obs)[id(est)]
        if zero is not False and zero[cell].any():
            raise PositivityError("the estimand meets a zero denominator")
        errors += np.abs(values[cell] - effect).reshape(len(effect), -1).max(axis=1).tolist()
    report["trials"] = trials
    report["max_abs_error"] = max(errors)
    report["per_trial"] = [{"seed": seed + t, "error": err} for t, err in enumerate(errors)]
    return report
