"""The unchecked paths inside ``s_id``, ``s_recover`` and ``is_id`` against the
public checks they skip, on constructed and on cut graphs, the nodes that
``s_id`` builds from trusted names against the checked constructors, the
component factors built without ``product()`` and the sort heads read off
labels against the whole texts, and the module boundaries that keep masks in
``graph.py`` and graph questions out of ``estimand.py``."""

import ast
import re
from pathlib import Path

import numpy as np

from subid import (
    ONE,
    One,
    Prob,
    Product,
    QsFactor,
    Quotient,
    SeparationWitness,
    SumOver,
    c_components,
    find_hedge,
    is_ancestral,
    is_id,
    is_s_hedge,
    m_separated,
    prob,
    product,
    qs_base,
    qs_decompose,
    qs_marginalize,
    quotient,
    render,
    s_components,
    s_id,
    sum_over,
)
from subid.estimand import _component_builder, _head, _prob, _sum, _text, _TextKey
from subid.identify import _replay, _violated

from helpers import random_admg, random_estimand, random_query, scrambled_names

SRC = Path(__file__).resolve().parents[1] / "src" / "subid"
MASK_INTERNALS = re.compile(
    r"\._(pa|ch|sib|sel_anc|all|index)\b|\._(mask|names_of|flood|order|component)\(|\b_bits\b"
)


def _part_holding(factors, scope):
    return next(f for f in factors if f.scope == scope)


def _check_s_id_plan(g, x, y):
    """``s_id``'s graph side, as ``AugmentedAdmg._s_id_plan`` returns it, against
    the public functions: the ancestry D and its components, each component's
    enclosing scope, narrowing steps and replayed factor, the stuck scope and
    the order; returns the number of factors replayed."""
    anc, non_anc = map(set, g.split_by_selection())
    d, plans, stuck, order = g._s_id_plan(x, y)
    assert d == g.ancestors([v for v in y if v in non_anc], within=non_anc - set(x))
    comps = s_components(g, d)
    assert [comp for comp, _, _ in plans] == comps[:len(plans)]
    if stuck is None:
        assert len(plans) == len(comps) and order == g.topological_order(non_anc)
    else:
        comp, last = stuck
        assert comp == comps[len(plans)] and order is None
        assert is_s_hedge(g, comp, last)
    enclosing = s_components(g, non_anc)
    replayed = 0
    for comp, t, steps in plans:
        assert t == next(e for e in enclosing if comp[0] in e)
        scope = t
        for ancestry, part in steps:
            assert set(comp) <= set(ancestry) < set(scope)
            assert is_ancestral(g, ancestry, scope)
            assert part == next(p for p in s_components(g, ancestry) if comp[0] in p)
            scope = part
        assert scope == comp
        factor = _part_holding(qs_decompose(g, qs_base(g)), t)
        for ancestry, part in steps:
            factor = qs_marginalize(g, factor, ancestry)
            if part != ancestry:
                factor = _part_holding(qs_decompose(g, factor), part)
        assert _replay(g, _part_holding(qs_decompose(g, qs_base(g)), t), steps) == factor
        replayed += 1
    return replayed


def _assembled(g, x, y):
    """``s_id``'s estimand of an identifiable query, assembled from the public
    constructors and factor steps on the plan of ``AugmentedAdmg._s_id_plan``."""
    anc, non_anc = map(set, g.split_by_selection())
    d, plans, _, _ = g._s_id_plan(x, y)
    parts = []
    for _, t, steps in plans:
        factor = _part_holding(qs_decompose(g, qs_base(g)), t)
        for ancestry, part in steps:
            factor = qs_marginalize(g, factor, ancestry)
            if part != ancestry:
                factor = _part_holding(qs_decompose(g, factor), part)
        parts.append(factor.expr)
    outer = prob(anc - set(x), anc & set(x))
    inner = sum_over(set(d) - set(y), product(parts))
    return sum_over(anc - set(x) - set(y), product([outer, inner]))


def _witnesses(g, x, y):
    """The separation requirements of ``s_recover`` and ``s_id`` for the query."""
    sel = g.selection
    anc = set(g.split_by_selection()[0])
    yield SeparationWitness(y, (sel,), x, bar_in=x, bar_out=())
    xa = tuple(v for v in x if v in anc)
    xn = tuple(v for v in x if v not in anc)
    yield SeparationWitness(xa, y, tuple(sorted(xn + (sel,))), bar_in=xn, bar_out=xa)


def test_trusted_paths_agree_with_the_public_checks():
    rng = np.random.default_rng(16)
    replayed = violated = cut_replayed = assembled = 0
    for _ in range(120):
        g = random_admg(rng, n_obs=int(rng.integers(3, 8)), p_bi=0.3, p_sel_dir=0.15)
        # a cut graph keeps no order of its non-ancestral part: _s_id_plan computes it
        cut = g.edge_surgery([v for v in g.observed if rng.random() < 0.3],
                             [v for v in g.observed if rng.random() < 0.3])
        assert cut._non_anc_order is None
        for _ in range(4):
            x, y = random_query(rng, g)
            d = g.ancestors(y, within=set(g.vertices) - set(x))
            hedge_free = all(find_hedge(g, c) is None for c in c_components(g, d))
            assert is_id(g, x, y) == hedge_free
            for w in _witnesses(g, x, y):
                want = not m_separated(g.edge_surgery(w.bar_in, w.bar_out), w.left, w.right, w.given)
                assert _violated(g, w) == want
                violated += want
            replayed += _check_s_id_plan(g, x, y)
            cut_replayed += _check_s_id_plan(cut, x, y)
            for h in (g, cut):
                result = s_id(h, x, y)
                if result.identifiable:
                    want = _assembled(h, x, y)
                    assert result.estimand == want and render(result.estimand) == render(want)
                    assert repr(result.estimand) == repr(want)
                    assembled += 1
    # enough of both outcomes that the comparisons above mean something
    assert replayed >= 300 and violated >= 200
    assert cut_replayed >= 300 and assembled >= 200


def test_trusted_constructions_agree_with_the_checked_ones():
    # ``s_id`` builds its sums and probabilities from names filtered out of
    # sorted tuples, through ``_sum`` and ``_prob``, which skip the name checks
    rng = np.random.default_rng(18)
    names = ["A", "B", "C", "D", "E"]

    def subset():
        return tuple(v for v in names if rng.random() < 0.4)

    merged = nested = 0
    for _ in range(400):
        body = random_estimand(rng, names, depth=int(rng.integers(0, 4)))
        if rng.random() < 0.5:
            body = sum_over(subset(), body)
        bound = subset()
        got, want = _sum(bound, body), sum_over(bound, body)
        assert got == want and repr(got) == repr(want)
        if isinstance(body, SumOver) and bound:
            nested += 1
            merged += got.body is body.body
        of = subset()
        given = tuple(v for v in names if v not in of and rng.random() < 0.5)
        got, want = _prob(of, given), prob(of, given)
        assert got == want and repr(got) == repr(want)
        assert (got is ONE) == (not of)
    # enough sums over sums, merged and kept nested, that the merge rule is exercised
    assert merged >= 40 and nested - merged >= 40


def _product_of_runs(g, factor, comp):
    """``product()`` of one ratio P_b / P_{a-1} per maximal run a..b of the
    component's positions in the topological order, from public constructors."""
    order = g.topological_order(factor.scope)
    pos = {v: i for i, v in enumerate(order, start=1)}

    def prefix(i):
        return sum_over(order[i:], factor.expr) if i else ONE

    ratios, run = [], []
    for p in sorted(pos[v] for v in comp):
        if run and p != run[-1] + 1:
            ratios.append(quotient(prefix(run[-1]), prefix(run[0] - 1)))
            run = []
        run.append(p)
    ratios.append(quotient(prefix(run[-1]), prefix(run[0] - 1)))
    return product(ratios)


def _check_builders(g, factor):
    """Every component factor of ``factor`` against ``product()`` of its ratios;
    returns how many components had one run and how many had several."""
    comps = s_components(g, factor.scope)
    build = _component_builder(g.topological_order(factor.scope), factor, comps)
    counts = [0, 0]
    for comp in comps:
        got, want = build(comp).expr, _product_of_runs(g, factor, comp)
        assert got == want and repr(got) == repr(want)
        counts[isinstance(got, Product)] += 1
    return counts


def test_component_factors_equal_the_product_of_their_ratios():
    # the base factor, and every marginalized factor that ``_replay`` splits
    rng = np.random.default_rng(17)
    counts = np.zeros(2, int)
    replayed = 0
    for _ in range(80):
        n = int(rng.integers(4, 16))
        g = random_admg(rng, names=scrambled_names(rng, n), p_dir=3 / n, p_bi=1.5 / n,
                        p_sel_dir=2 / n, p_sel_bi=1 / n)
        base = qs_base(g)
        counts += _check_builders(g, base)
        non_anc = set(g.split_by_selection()[1])
        enclosing = s_components(g, non_anc)
        for _ in range(4):
            x, y = random_query(rng, g)
            d = g.ancestors([v for v in y if v in non_anc], within=non_anc - set(x))
            for comp in s_components(g, d):
                t = next(e for e in enclosing if comp[0] in e)
                factor = _component_builder(g.topological_order(base.scope), base, [t])(t)
                for ancestry, part in g._narrow(comp, t, selected=True)[1]:
                    dropped = [v for v in factor.scope if v not in ancestry]
                    factor = QsFactor(ancestry, sum_over(dropped, factor.expr))
                    if part != ancestry:
                        counts += _check_builders(g, factor)
                        order = g.topological_order(factor.scope)
                        factor = _component_builder(order, factor, [part])(part)
                        replayed += 1
    # enough factors of several runs, and replayed ones, that the checks mean something
    assert counts[0] >= 150 and counts[1] >= 40 and replayed >= 30


def _factors(e):
    return list(e.factors) if isinstance(e, Product) else [] if e == ONE else [e]


def test_sorting_by_heads_gives_the_order_of_the_whole_texts():
    rng = np.random.default_rng(17)
    names = ["A", "B", "C", "D"]
    for _ in range(300):
        factors = [
            f for _ in range(int(rng.integers(2, 9)))
            for f in _factors(random_estimand(rng, names, depth=int(rng.integers(0, 4))))
        ]
        got = [_text(f) for f in sorted(factors, key=_TextKey)]
        assert got == sorted(_text(f) for f in factors)


def test_heads_are_prefixes_of_the_whole_texts():
    a, b, c = prob(["A"], ["C"]), prob(["B"]), prob(["C"])
    bodies = [  # every kind a sum's body or a quotient's numerator can be
        a,
        sum_over(["A"], a),  # overlaps the outer sum, so the two stay nested
        product([a, b]),
        product([quotient(a, b), c]),
        product([sum_over(["A"], a), b]),
        quotient(a, b),
        quotient(sum_over(["A"], a), b),
        ONE,
    ]
    sums = [sum_over(["A", "D"], e) for e in bodies]
    quotients = [quotient(e, c) for e in bodies]
    kinds = {Prob, SumOver, Product, Quotient, One}
    assert {type(s.body) for s in sums} == {type(q.num) for q in quotients} == kinds
    factors = [a, *sums, *quotients]
    rng = np.random.default_rng(17)
    for _ in range(300):
        factors += _factors(random_estimand(rng, ["A", "B", "C"], depth=int(rng.integers(0, 4))))
    for f in factors:
        assert _text(f).startswith(_head(f)) and _head(f)


def test_the_estimand_module_imports_no_other_module_at_run_time():
    # symbolic only: no relative import anywhere (under TYPE_CHECKING neither), no numpy
    tree = ast.parse((SRC / "estimand.py").read_text())
    offenders = [
        f"estimand.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "numpy")
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
    ]
    assert offenders == []


def test_only_the_graph_module_reads_masks():
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graph.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if MASK_INTERNALS.search(line)
    ]
    assert offenders == []
