"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive: subset enumeration for hedges,
per-assignment mutilated joints for ground-truth factors, a scalar
estimand evaluator, recursive text, LaTeX and JSON-object renderers, a plain-loop
telescoping fixpoint, member-by-member c-factor telescoping, prefix
marginals built afresh for every ratio, s_id assembled from whole
decompositions, the s-hedge search as a fixpoint over parent sets,
set-based graph closures, components and a heap topological order, and
random models drawn table by table.  The point is
that none of it shares code paths with the implementations under test.
"""

import heapq
import itertools

import numpy as np

from subid import (
    ONE,
    AugmentedAdmg,
    One,
    PositivityError,
    Prob,
    ProbabilityTable,
    Product,
    QsFactor,
    Quotient,
    SumOver,
    free_vars,
    is_hedge,
    is_s_hedge,
    latent_name,
    prob,
    product,
    qs_base,
    qs_marginalize,
    quotient,
    render,
    s_components,
    sum_over,
)

LETTERS = "ABCDEFG"


def iter_assignments(names, size_of):
    """All assignments of the named variables; ``size_of(name)`` gives domains."""
    names = tuple(names)
    for combo in itertools.product(*(range(size_of(n)) for n in names)):
        yield dict(zip(names, combo))


# -- random structures --------------------------------------------------------


def random_admg(
    rng, n_obs=None, p_dir=0.3, p_bi=0.2, p_sel_dir=0.35, p_sel_bi=0.25, names=None
):
    """A random augmented graph over single-letter vertices plus selection S.

    ``names`` replaces the letters (and ``n_obs``) with the given observed names.
    """
    if names is not None:
        n_obs = len(names)
    elif n_obs is None:
        n_obs = int(rng.integers(2, 7))
    names = list(LETTERS[:n_obs] if names is None else names)
    order = [names[i] for i in rng.permutation(n_obs)]
    directed = [
        (order[i], order[j])
        for i in range(n_obs)
        for j in range(i + 1, n_obs)
        if rng.random() < p_dir
    ]
    bidirected = [
        pair for pair in itertools.combinations(names, 2) if rng.random() < p_bi
    ]
    directed += [(v, "S") for v in names if rng.random() < p_sel_dir]
    bidirected += [(v, "S") for v in names if rng.random() < p_sel_bi]
    return AugmentedAdmg(names + ["S"], directed, bidirected, selection="S")


def scrambled_names(rng, n):
    """``n`` distinct vertex names in a random order, of mixed lengths, whose
    sorted order is neither their numeric nor their insertion order."""
    names = [f"V{i}" if i % 4 else f"w{i}x" for i in range(n)]
    return [names[i] for i in rng.permutation(n)]


def random_dag_admg(rng, n_obs=None, p_dir=0.4, p_sel_dir=0.4):
    """Like random_admg but without any bidirected edges."""
    return random_admg(rng, n_obs, p_dir=p_dir, p_bi=0.0, p_sel_dir=p_sel_dir, p_sel_bi=0.0)


def random_query(rng, g, max_side=2):
    """Disjoint nonempty treatment/outcome sets over the observed vertices."""
    pool = list(g.observed)
    nx = int(rng.integers(1, max_side + 1))
    ny = int(rng.integers(1, max_side + 1))
    if nx + ny > len(pool):
        nx, ny = 1, 1
    picked = [pool[i] for i in rng.choice(len(pool), size=nx + ny, replace=False)]
    return tuple(sorted(picked[:nx])), tuple(sorted(picked[nx:]))


def random_table(rng, names, size=2, floor=0.02):
    """A strictly positive joint distribution over the given variables."""
    names = tuple(sorted(names))
    shape = tuple(size for _ in names)
    values = rng.random(shape) + floor
    values /= values.sum()
    return ProbabilityTable(names, shape, values)


def random_estimand(rng, names, depth=3):
    """A random estimand tree over the given variable names."""
    names = list(names)

    def pick(k):
        k = min(k, len(names))
        idx = rng.choice(len(names), size=k, replace=False)
        return [names[i] for i in idx]

    def build(d):
        kinds = ["prob"] if d == 0 else ["prob", "sum", "product", "quotient"]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "prob":
            chosen = pick(int(rng.integers(1, 4)))
            cut = int(rng.integers(1, len(chosen) + 1))
            return prob(chosen[:cut], chosen[cut:])
        if kind == "sum":
            return sum_over(pick(int(rng.integers(1, 3))), build(d - 1))
        if kind == "product":
            return product(build(d - 1) for _ in range(int(rng.integers(2, 4))))
        return quotient(build(d - 1), build(d - 1))

    return build(depth)


# -- scalar estimand evaluation -------------------------------------------------


def evaluate_scalar(e, table, fixed=None):
    """Evaluate ``e`` at one assignment, one table lookup per node and cell.

    The cross-check for the tensor evaluator ``subid.evaluate``: same
    semantics (innermost-wins binding, the same two PositivityError
    messages), computed by recursion over assignments with subtree values
    memoized per assignment of the subtree's free variables.  ``table``
    needs only ``domain_size(name)`` and ``prob(assignment)``.
    """
    env0 = dict(fixed or {})
    frees = {}

    def fv(node):
        if id(node) not in frees:
            frees[id(node)] = free_vars(node)
        return frees[id(node)]

    missing = [v for v in fv(e) if v not in env0]
    if missing:
        raise ValueError(f"no value given for free variables: {', '.join(missing)}")
    memo = {}

    def ev(node, env):
        key = (id(node), tuple(env[v] for v in fv(node)))
        if key in memo:
            return memo[key]
        if isinstance(node, Prob):
            val = table.prob({v: env[v] for v in node.of + node.given})
            if node.given:
                cond = {v: env[v] for v in node.given}
                den = table.prob(cond)
                if den == 0.0:
                    raise PositivityError(f"conditioning event has probability zero: {cond}")
                val /= den
        elif isinstance(node, SumOver):
            val = 0.0
            domains = [range(table.domain_size(v)) for v in node.over]
            for combo in itertools.product(*domains):
                val += ev(node.body, {**env, **dict(zip(node.over, combo))})
        elif isinstance(node, Product):
            val = 1.0
            for f in node.factors:
                val *= ev(f, env)
        elif isinstance(node, Quotient):
            den = ev(node.den, env)
            if den == 0.0:
                at = {v: env[v] for v in fv(node.den)}
                raise PositivityError(f"denominator evaluates to zero at {at}")
            val = ev(node.num, env) / den
        else:
            val = 1.0
        memo[key] = val
        return val

    return ev(e, env0)


# -- recursive renderers ----------------------------------------------------------


def text_reference(e, sum_symbol="Σ"):
    """``render(e, "text")`` by plain recursion, each label formatted anew
    from the node's names."""
    def side(f):  # a bare probability or unit needs no parentheses
        s = text_reference(f, sum_symbol)
        return s if isinstance(f, (Prob, One)) else f"({s})"

    if isinstance(e, One):
        return "1"
    if isinstance(e, Prob):
        return f"P({','.join(e.of)}|{','.join(e.given + ('S=1',))})"
    if isinstance(e, SumOver):
        return f"{sum_symbol}_{{{','.join(e.over)}}} {text_reference(e.body, sum_symbol)}"
    if isinstance(e, Product):
        return " ".join(
            side(f) if isinstance(f, Quotient) else text_reference(f, sum_symbol)
            for f in e.factors
        )
    return f"{side(e.num)} / {side(e.den)}"


def latex_reference(e):
    """``render(e, "latex")`` by plain recursion, every occurrence rendered anew."""
    if isinstance(e, One):
        return "1"
    if isinstance(e, Prob):
        given = ", ".join(e.given + ("S=1",))
        return f"P({', '.join(e.of)} \\mid {given})"
    if isinstance(e, SumOver):
        return f"\\sum_{{{', '.join(e.over)}}} {latex_reference(e.body)}"
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = latex_reference(f)
            parts.append(f"\\left({s}\\right)" if isinstance(f, SumOver) else s)
        return " ".join(parts)
    return f"\\frac{{{latex_reference(e.num)}}}{{{latex_reference(e.den)}}}"


def to_dict_reference(e):
    """``estimand_to_dict(e)`` by plain recursion, a fresh dict per occurrence."""
    if isinstance(e, One):
        return {"kind": "one"}
    if isinstance(e, Prob):
        return {"kind": "prob", "of": list(e.of), "given": list(e.given)}
    if isinstance(e, SumOver):
        return {"kind": "sum", "over": list(e.over), "body": to_dict_reference(e.body)}
    if isinstance(e, Product):
        return {"kind": "product", "factors": [to_dict_reference(f) for f in e.factors]}
    return {"kind": "quotient", "num": to_dict_reference(e.num), "den": to_dict_reference(e.den)}


# -- telescoping -----------------------------------------------------------------


def telescope_reference(factors):
    """``product(factors)`` by the rule set applied to a fixpoint with plain loops.

    Flatten, drop units and order by rendered form; then, scanning pairs in
    that order, replace the first pair (x/y)(y/z) by x/z or f(g/f) by g until
    no pair cancels; repeat from the top while anything merged.  The result
    is assembled from the dataclasses, not through ``product``.
    """
    flat = list(factors)
    changed = True
    while changed:
        flat = [g for f in flat for g in (f.factors if isinstance(f, Product) else (f,))]
        flat = sorted((f for f in flat if f != ONE), key=lambda f: render(f, "text"))
        changed = False
        merging = True
        while merging:
            merging = False
            for i, fi in enumerate(flat):
                for j, fj in enumerate(flat):
                    if i == j or not isinstance(fj, Quotient):
                        continue
                    if isinstance(fi, Quotient):
                        merged = quotient(fi.num, fj.den) if fi.den == fj.num else None
                    else:
                        merged = fj.num if fj.den == fi else None
                    if merged is not None:
                        flat[i] = merged
                        del flat[j]
                        changed = merging = True
                        break
                if merging:
                    break
    if not flat:
        return ONE
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


def qs_decompose_by_members(g, factor):
    """``qs_decompose`` built member by member: the product over a component
    of the ratios of consecutive order-prefix marginals, which ``product``
    telescopes."""
    order = g.topological_order(factor.scope)
    prefix = [ONE] + [sum_over(order[i:], factor.expr) for i in range(1, len(order) + 1)]
    pos = {v: i for i, v in enumerate(order, start=1)}
    out = []
    for comp in s_components(g, factor.scope):
        ratios = [quotient(prefix[pos[v]], prefix[pos[v] - 1]) for v in comp]
        out.append(QsFactor(comp, product(ratios)))
    return out


def qs_decompose_reference(g, factor):
    """``qs_decompose`` with one ratio per run of consecutive order positions,
    each prefix marginal built afresh from the unsorted suffix of the order."""
    order = g.topological_order(factor.scope)
    pos = {v: i for i, v in enumerate(order, start=1)}

    def prefix(i):
        return sum_over(order[i:], factor.expr) if i else ONE

    out = []
    for comp in s_components(g, factor.scope):
        ranks = enumerate(sorted(pos[v] for v in comp))
        runs = [list(r) for _, r in itertools.groupby(ranks, lambda p: p[1] - p[0])]
        ratios = [quotient(prefix(run[-1][1]), prefix(run[0][1] - 1)) for run in runs]
        out.append(QsFactor(comp, product(ratios)))
    return out


def s_id_reference(g, treatment, outcome):
    """``s_id`` past its separation check, assembled from whole decompositions
    (by :func:`qs_decompose_reference`): the enclosing factors are every part
    of the base factor, and each shrink step decomposes the whole narrowed
    factor and keeps the part holding the component.  Returns the estimand,
    or the pair (component, stuck scope) of the first component that gets
    stuck."""
    x, y = g.vertex_set(treatment), g.vertex_set(outcome)
    anc, non_anc = map(set, g.split_by_selection())
    yn = tuple(v for v in y if v in non_anc)
    d = g.ancestors(yn, within=non_anc - set(x))
    enclosing = qs_decompose_reference(g, qs_base(g))
    parts = []
    for comp in s_components(g, d):
        factor = next(t for t in enclosing if comp[0] in t.scope)
        while True:
            scope = g.ancestors(comp, within=factor.scope)
            if scope == factor.scope:
                break
            factor = qs_marginalize(g, factor, scope)
            if scope == comp:
                break
            factor = next(p for p in qs_decompose_reference(g, factor) if comp[0] in p.scope)
        if factor.scope != comp:
            return comp, factor.scope
        parts.append(factor.expr)
    outer = prob(anc - set(x), anc & set(x))
    inner = sum_over(set(d) - set(yn), product(parts))
    return sum_over(anc - set(x) - set(y), product([outer, inner]))


# -- hedge searches -------------------------------------------------------------


def s_hedge_reference(g, outcome):
    """The s-hedge search spelled out as a fixpoint: start at the s-component
    of the non-ancestral part that holds ``outcome``, then replace the scope by
    the s-component holding ``outcome`` of the outcome's ancestry inside it,
    found by following parents one at a time, until the scope stops changing.
    Returns that fixpoint, or None when it is the outcome itself."""
    y = tuple(sorted(outcome))
    _, non_anc = g.split_by_selection()
    scope = next(c for c in s_components(g, non_anc) if y[0] in c)
    while True:
        anc = set(y)
        frontier = list(y)
        while frontier:
            for p in g.parents(frontier.pop()):
                if p in scope and p not in anc:
                    anc.add(p)
                    frontier.append(p)
        nxt = next(c for c in s_components(g, anc) if y[0] in c)
        if nxt == scope:
            return None if scope == y else scope
        scope = nxt



def brute_force_hedge(g, outcome):
    """Smallest-first subset enumeration of hedge candidates."""
    y = set(outcome)
    rest = [v for v in g.vertices if v not in y]
    for r in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            h = tuple(sorted(y | set(extra)))
            if is_hedge(g, outcome, h):
                return h
    return None


def brute_force_s_hedge(g, outcome):
    """Subset enumeration over the non-ancestral part only."""
    _, non_anc = g.split_by_selection()
    y = set(outcome)
    rest = [v for v in non_anc if v not in y]
    for r in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            h = tuple(sorted(y | set(extra)))
            if is_s_hedge(g, outcome, h):
                return h
    return None


# -- random models ----------------------------------------------------------------


def random_scm_reference(g, domain_size=2, min_prob=0.05, seed=0):
    """The CPTs of ``random_scm(g, domain_size, min_prob, seed)``, drawn one
    table at a time with ``rng.dirichlet``, tables in name order."""
    rng = np.random.default_rng(seed)
    sizes = {v: domain_size for v in g.observed}
    sizes[g.selection] = 2
    parents = {v: set(g.parents(v)) for v in g.vertices}
    for u, v in g.bidirected_edges:
        latent = latent_name(u, v)
        sizes[latent] = domain_size
        parents[latent] = set()
        parents[u].add(latent)
        parents[v].add(latent)
    cpts = {}
    for name in sorted(sizes):
        k = sizes[name]
        shape = tuple(sizes[p] for p in sorted(parents[name]))
        rows = rng.dirichlet(np.ones(k), size=int(np.prod(shape)))
        cpts[name] = (min_prob + (1.0 - k * min_prob) * rows).reshape(shape + (k,))
    return cpts


# -- exact ground-truth factors -------------------------------------------------


def q_ground_truth(scm, targets, s_value=1):
    """Post-intervention probability of ``targets`` for every assignment.

    Intervenes on every observed vertex outside ``targets``; the selection
    vertex, when listed in ``targets``, is evaluated at ``s_value``.  Returns
    an array with one axis per observed vertex (sorted); the value at a full
    observed assignment is the target probability with interventions read off
    that same assignment.
    """
    g = scm.graph
    sel = g.selection
    obs = sorted(g.observed)
    t_obs = sorted(set(targets) - {sel})
    with_s = sel in set(targets)
    do_vars = sorted(set(obs) - set(t_obs))
    out = np.empty([scm.domain_size(v) for v in obs])
    for do in iter_assignments(do_vars, scm.domain_size):
        tbl = scm.interventional_joint(do)
        for rest in iter_assignments(t_obs, scm.domain_size):
            query = dict(rest)
            if with_s:
                query[sel] = s_value
            p = tbl.prob(query)
            full = {**do, **rest}
            out[tuple(full[v] for v in obs)] = p
    return out


def qs_ground_truth(scm, members):
    """Sub-population post-intervention factor of ``members``, exactly.

    For every full observed assignment: intervene on the non-ancestral part
    outside ``members`` (values from the assignment), then read the
    probability of the ``members`` values conditioned on the selection
    ancestry values and on selection.
    """
    g = scm.graph
    sel = g.selection
    anc, non_anc = g.split_by_selection()
    h = sorted(members)
    do_vars = sorted(set(non_anc) - set(h))
    obs = sorted(g.observed)
    free = sorted(set(obs) - set(do_vars))
    out = np.empty([scm.domain_size(v) for v in obs])
    for do in iter_assignments(do_vars, scm.domain_size):
        tbl = scm.interventional_joint(do)
        for rest in iter_assignments(free, scm.domain_size):
            cond = {v: rest[v] for v in anc}
            cond[sel] = 1
            num = tbl.prob({**{v: rest[v] for v in h}, **cond})
            den = tbl.prob(cond)
            full = {**do, **rest}
            out[tuple(full[v] for v in obs)] = num / den
    return out


def evaluate_on_grid(expr, table, fixed_names, scm=None):
    """Evaluate ``expr`` at every assignment of ``fixed_names``; returns dict."""
    from subid import evaluate

    size = table.domain_size
    out = {}
    for fixed in iter_assignments(fixed_names, size):
        out[tuple(sorted(fixed.items()))] = evaluate(expr, table, fixed)
    return out


# -- set-based graph references -------------------------------------------------


def ancestors_reference(g, seeds, within=None):
    """Ancestry of ``seeds`` inside ``within`` by following parents one at a time."""
    scope = set(g.vertices if within is None else within)
    seen, frontier = set(seeds), list(seeds)
    while frontier:
        for p in g.parents(frontier.pop()):
            if p in scope and p not in seen:
                seen.add(p)
                frontier.append(p)
    return tuple(sorted(seen))


def c_components_reference(g, scope=None):
    """Bidirected-connected classes of ``scope``, each seeded at ``min(unvisited)``."""
    pool = set(g.vertices if scope is None else scope)
    out, unvisited = [], set(pool)
    while unvisited:
        comp, frontier = {min(unvisited)}, [min(unvisited)]
        while frontier:
            for sib in g.siblings(frontier.pop()):
                if sib in pool and sib not in comp:
                    comp.add(sib)
                    frontier.append(sib)
        unvisited -= comp
        out.append(tuple(sorted(comp)))
    return sorted(out)


def s_components_reference(g, members):
    """Nonempty traces on ``members`` of the c-components of ``members`` plus
    the selection vertex's whole ancestry."""
    h = set(members)
    anc = set(ancestors_reference(g, [g.selection]))
    traces = (tuple(v for v in c if v in h) for c in c_components_reference(g, h | anc))
    return sorted(t for t in traces if t)


def topological_order_reference(g, scope=None):
    """Kahn's algorithm with a heap: the least available name goes first."""
    pool = set(g.vertices if scope is None else scope)
    indeg = {v: sum(1 for p in g.parents(v) if p in pool) for v in pool}
    ready = [v for v in pool if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in g.children(v):
            if c in pool:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
    return tuple(out)


def split_by_selection_reference(g):
    """Observed vertices split into selection ancestors and the rest."""
    anc = set(ancestors_reference(g, [g.selection]))
    return (
        tuple(v for v in g.observed if v in anc),
        tuple(v for v in g.observed if v not in anc),
    )
