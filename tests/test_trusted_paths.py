"""The unchecked paths inside ``s_id``, ``s_recover`` and ``is_id`` against the
public checks they skip, on constructed and on cut graphs, the nodes that
``s_id`` builds from trusted names against the checked constructors, the
component factors built without ``product()`` and the sort heads read off
labels against the whole texts, the module boundaries that keep masks in
``graph.py`` and graph questions out of ``estimand.py``, and a check, on the
syntax tree alone, that no module imports a name it does not use."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from subid import (
    AugmentedAdmg,
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
    from_json,
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
    to_json,
)
from subid.estimand import _component_factors, _head, _prob, _sum, _text, _TextKey
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
    built = _component_factors(g.topological_order(factor.scope), factor, comps)
    assert [f.scope for f in built] == comps
    counts = [0, 0]
    for comp, f in zip(comps, built):
        got, want = f.expr, _product_of_runs(g, factor, comp)
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
                factor = _component_factors(g.topological_order(base.scope), base, [t])[0]
                for ancestry, part in g._narrow(comp, t, selected=True)[1]:
                    dropped = [v for v in factor.scope if v not in ancestry]
                    factor = QsFactor(ancestry, sum_over(dropped, factor.expr))
                    if part != ancestry:
                        counts += _check_builders(g, factor)
                        order = g.topological_order(factor.scope)
                        factor = _component_factors(order, factor, [part])[0]
                        replayed += 1
    # enough factors of several runs, and replayed ones, that the checks mean something
    assert counts[0] >= 150 and counts[1] >= 40 and replayed >= 30


def test_prefix_marginals_merge_with_a_sum_that_binds_a_scope_name():
    # a factor built by hand whose own sum binds a name of its scope: each
    # prefix marginal is the canonical sum_over, not a sum nested in a sum
    g = AugmentedAdmg(["A", "B", "C", "S"], [("A", "B"), ("C", "S")], selection="S")
    factor = QsFactor(("A", "B"), sum_over(["A"], prob(["A", "B", "C"])))
    order = g.topological_order(factor.scope)
    marginals = [sum_over(order[i:], factor.expr) for i in range(len(order) + 1)]
    assert order == ("A", "B")
    assert render(marginals[1], "text", unicode_sum=False) == "Sum_{A,B} P(A,B,C|S=1)"
    parts = qs_decompose(g, factor)
    for p in parts:
        assert from_json(to_json(p.expr)) == p.expr
    assert [p.scope for p in parts] == [("A",), ("B",)]
    assert parts[0].expr == marginals[1]
    assert parts[1].expr == Quotient(marginals[2], marginals[1])


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


def _unused_imports(path, exported):
    """Names that ``path`` imports and neither reads nor lists in ``exported``."""
    tree = ast.parse(path.read_text())
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and not (name.startswith("__") and name.endswith("__")):
                    imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in read and name not in exported]


def test_no_module_imports_a_name_it_does_not_use():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        name = "subid" if path.stem == "__init__" else f"subid.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", ())
        offenders += _unused_imports(path, set(exported))
    assert offenders == []


def test_the_unused_import_check_sees_an_orphaned_import(tmp_path):
    path = tmp_path / "orphan.py"
    path.write_text("from collections.abc import Callable, Iterable\nimport json, os.path\n"
                    "from . import *\n\n"
                    "def f(xs: Iterable[str]) -> str:\n    return json.dumps(xs)\n")
    assert _unused_imports(path, set()) == ["orphan.py:1: Callable", "orphan.py:2: os"]
    assert _unused_imports(path, {"Callable", "os"}) == []


def test_only_the_graph_module_reads_masks():
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graph.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if MASK_INTERNALS.search(line)
    ]
    assert offenders == []
