"""The unchecked paths inside ``s_id``, ``s_recover`` and ``is_id`` against the
public checks they skip, and the module boundary that keeps masks in ``graph.py``."""

import re
from pathlib import Path

import numpy as np

from subid import (
    SeparationWitness,
    c_components,
    find_hedge,
    is_ancestral,
    is_id,
    m_separated,
    qs_base,
    qs_decompose,
    qs_marginalize,
    s_components,
)
from subid.identify import _replay, _violated

from helpers import random_admg, random_query

SRC = Path(__file__).resolve().parents[1] / "src" / "subid"
MASK_INTERNALS = re.compile(
    r"\._(pa|ch|sib|sel_anc|all|index)\b|\._(mask|names_of|flood|order|component)\(|\b_bits\b"
)


def _part_holding(factors, scope):
    return next(f for f in factors if f.scope == scope)


def _check_s_id_plan(g, x, y):
    """Each component's enclosing scope, narrowing steps and replayed factor,
    as ``s_id`` takes them, against the public functions; returns the number
    of factors replayed."""
    anc, non_anc = map(set, g.split_by_selection())
    d = g.ancestors([v for v in y if v in non_anc], within=non_anc - set(x))
    enclosing = s_components(g, non_anc)
    replayed = 0
    for comp in s_components(g, d):
        t = g._enclosing(comp)
        assert t == next(e for e in enclosing if comp[0] in e)
        last, steps = g._narrow(comp, t, selected=True)
        scope = t
        for ancestry, part in steps:
            assert set(comp) <= set(ancestry) < set(scope)
            assert is_ancestral(g, ancestry, scope)
            assert part == next(p for p in s_components(g, ancestry) if comp[0] in p)
            scope = part
        assert scope == last
        if last != comp:
            continue
        factor = _part_holding(qs_decompose(g, qs_base(g)), t)
        for ancestry, part in steps:
            factor = qs_marginalize(g, factor, ancestry)
            if part != ancestry:
                factor = _part_holding(qs_decompose(g, factor), part)
        assert _replay(g, _part_holding(qs_decompose(g, qs_base(g)), t), steps) == factor
        replayed += 1
    return replayed


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
    replayed = violated = 0
    for _ in range(120):
        g = random_admg(rng, n_obs=int(rng.integers(3, 8)), p_bi=0.3, p_sel_dir=0.15)
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
    # enough of both outcomes that the comparisons above mean something
    assert replayed >= 300 and violated >= 200


def test_only_the_graph_module_reads_masks():
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graph.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if MASK_INTERNALS.search(line)
    ]
    assert offenders == []
