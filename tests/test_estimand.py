"""Estimand trees: construction (telescoping included), rendering, evaluation,
serialization, and the symbolic post-intervention factors built on top of them."""

import copy
import hashlib
import itertools
import json
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subid import (
    ONE,
    AugmentedAdmg,
    GraphError,
    One,
    PositivityError,
    Prob,
    ProbabilityTable,
    Product,
    Quotient,
    SumOver,
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
    random_scm,
    render,
    s_id,
    sum_over,
    to_json,
)

from helpers import (
    evaluate_scalar,
    iter_assignments,
    latex_reference,
    qs_decompose_by_members,
    qs_decompose_reference,
    qs_ground_truth,
    random_admg,
    random_estimand,
    random_query,
    random_table,
    telescope_reference,
    text_reference,
    to_dict_reference,
)


# -- constructors --------------------------------------------------------------


def test_bare_strings_rejected_as_name_lists():
    with pytest.raises(ValueError, match="got the string 'V10'"):
        prob("V10")
    with pytest.raises(ValueError, match="got the string 'BC'"):
        prob(["A"], "BC")
    with pytest.raises(ValueError, match="got the string 'AB'"):
        sum_over("AB", prob(["A", "B"]))
    with pytest.raises(ValueError, match="got the string 'AB'"):
        from_json('{"kind":"prob","of":"AB"}')


def test_name_validation_reports_the_first_bad_element():
    with pytest.raises(ValueError, match=re.escape("outcome variables must be non-empty strings, got ''")):
        prob(["A", "", 3])
    with pytest.raises(ValueError, match=re.escape("outcome variables must be non-empty strings, got ['A']")):
        prob([["A"]])
    with pytest.raises(ValueError, match=re.escape("bound variables must be non-empty strings, got 3")):
        sum_over(["A", 3, ""], prob(["A"]))


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: sum_over(["C", "A", "B"], prob(["A", "B", "C"])).over, ("A", "B", "C")),
        (lambda: prob(("A", "A"), ("B", "B")), Prob(("A",), ("B",))),
        (lambda: prob(("A", "C"), (v for v in ["D", "B", "D"])), Prob(("A", "C"), ("B", "D"))),
        (lambda: prob(("A", 3)), "outcome variables must be non-empty strings, got 3"),
        (lambda: prob(("A", "B"), ("", "C")), "conditioning variables must be non-empty strings, got ''"),
        (lambda: sum_over(("", "A"), prob(["A"])), "bound variables must be non-empty strings, got ''"),
    ],
)
def test_names_of_any_order_give_sorted_distinct_tuples(build, want):
    # a strictly increasing tuple is kept as it is; every other input is sorted
    # and deduplicated, and a sorted-looking one is still checked element-wise
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(want)):
            build()
    else:
        assert build() == want


def test_prob_sorts_and_validates():
    p = prob(["B", "A"], ["Z"])
    assert p == Prob(("A", "B"), ("Z",))
    assert prob([]) is ONE
    with pytest.raises(ValueError, match="both outcome and conditioning"):
        prob(["A"], ["A", "B"])


def test_sum_over_merges_disjoint_nests():
    body = prob(["C"])
    assert sum_over([], body) is body
    merged = sum_over(["A"], sum_over(["B"], body))
    assert merged == SumOver(("A", "B"), body)
    # overlapping bound sets must NOT merge: the inner binding shadows
    shadowed = sum_over(["A"], sum_over(["A", "B"], body))
    assert shadowed == SumOver(("A",), SumOver(("A", "B"), body))


def test_product_flattens_nested_products_and_units_at_any_depth():
    a, b, c = prob(["A"]), prob(["B"]), prob(["C"])
    assert product([Product((Product((a, b)), c))]) == product([a, b, c])
    assert product([Product((ONE, a))]) == a
    deep = a
    for _ in range(1500):
        deep = Product((Product((deep, ONE)), ONE))
    assert product([deep, b]) == product([a, b])


def test_product_flattens_and_sorts():
    a, b = prob(["A"]), prob(["B"])
    assert product([]) is ONE
    assert product([a]) is a
    assert product([ONE, a, ONE]) is a
    assert product([b, product([a, b])]) == Product((a, b, b))
    assert product([b, a]) == product([a, b])
    # a text that is a strict prefix of another sorts first
    assert product([quotient(a, b), a]) == Product((a, quotient(a, b)))
    # texts whose pieces end at different places: " " against " / "
    over = sum_over(["X"], quotient(a, b))
    for second in (b, quotient(b, prob(["C"]))):
        times = sum_over(["X"], product([a, second]))
        want = tuple(sorted([times, over], key=render))
        assert product([times, over]).factors == product([over, times]).factors == want
    # a head that is a strict prefix of another head, while its text goes on:
    # "P(X|S=1) / " + "P(Z|S=1)" sorts after "P(X|S=1) / A|S=1)"
    odd, ratio = prob(["X|S=1) / A"]), quotient(prob(["X"]), prob(["Z"]))
    assert product([ratio, odd]).factors == product([odd, ratio]).factors == (odd, ratio)
    with pytest.raises(TypeError, match="not an estimand node"):
        product([object()])


def test_product_order_does_not_depend_on_input_order_when_texts_tie():
    # a sum that is a product's non-last factor is not parenthesised, so two
    # distinct factors can render the same text; the order still tells them apart
    p1, p2, p3 = prob(["X"]), prob(["Y"]), prob(["W"], ["B"])
    f = sum_over(["A"], product([p1, sum_over(["B"], p2), sum_over(["C"], p3)]))
    f2 = sum_over(["A"], product([p1, sum_over(["B"], product([p2, sum_over(["C"], p3)]))]))
    assert f != f2 and render(f) == render(f2) == "Σ_{A} P(X|S=1) Σ_{B} P(Y|S=1) Σ_{C} P(W|B,S=1)"
    assert "B" in free_vars(f) and "B" not in free_vars(f2)
    a, b = prob(["a,b"]), prob(["a", "b"])
    assert a != b and render(a) == render(b)
    want = product([f, f2, a, b, p1])
    for factors in itertools.permutations([f, f2, a, b, p1]):
        assert product(factors) == want
    # the tie is broken at any depth
    deep, deep2 = f, f2
    for _ in range(1500):
        deep, deep2 = quotient(deep, p3), quotient(deep2, p3)
    assert render(deep) == render(deep2)
    assert product([deep, deep2]).factors == product([deep2, deep]).factors


def test_labels_are_invisible_to_equality_hash_and_repr():
    p, s = prob(["B", "A"], ["C"]), sum_over(["B", "A"], prob(["A"]))
    assert (p.text, s.names) == ("P(A,B|C,S=1)", "A,B")
    # a node with a wrong label is still equal to, and hashes like, the right one
    p_bad, s_bad = Prob(p.of, p.given), SumOver(s.over, s.body)
    object.__setattr__(p_bad, "text", "P(Q|S=1)")
    object.__setattr__(s_bad, "names", "Q")
    assert (p_bad, hash(p_bad)) == (p, hash(p))
    assert (s_bad, hash(s_bad)) == (s, hash(s))
    assert repr(p) == "Prob(of=('A', 'B'), given=('C',))"
    assert repr(s) == "SumOver(over=('A', 'B'), body=Prob(of=('A',), given=()))"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_copies_keep_the_labels(clone):
    e = product([prob(["B"], ["A"]), sum_over(["A", "C"], prob(["A", "C"], ["B"]))])
    c = clone(e)
    assert c == e
    assert [f.text if isinstance(f, Prob) else f.names for f in c.factors] == ["P(B|A,S=1)", "A,C"]
    assert c.factors[1].body.text == "P(A,C|B,S=1)"
    assert render(c, "text") == render(e, "text")


def test_quotient_identities():
    a, b = prob(["A"]), prob(["B"])
    assert quotient(a, ONE) is a
    assert quotient(a, a) is ONE
    assert quotient(a, b) == Quotient(a, b)


def test_free_vars():
    e = sum_over(["Z"], product([prob(["Y"], ["X", "Z"]), prob(["Z"])]))
    assert free_vars(e) == ("X", "Y")
    assert free_vars(ONE) == ()
    assert free_vars(quotient(prob(["A"]), prob(["B"]))) == ("A", "B")


def test_sum_over_refuses_a_body_that_is_not_a_node():
    for bound in (["A"], []):
        with pytest.raises(TypeError, match="^not an estimand node: 'P\\(A\\)'$"):
            sum_over(bound, "P(A)")


@pytest.mark.parametrize("bad", [3, None], ids=["int", "none"])
def test_quotient_refuses_sides_that_are_not_nodes(bad):
    for num, den in [(prob(["A"]), bad), (bad, prob(["A"])), (bad, ONE)]:
        with pytest.raises(TypeError, match=f"^not an estimand node: {bad}$"):
            quotient(num, den)


@pytest.mark.parametrize(
    "tree, bad",
    [(SumOver(("A",), 5), "5"), (SumOver(("A",), "P(A)"), "'P\\(A\\)'"),
     (Product((prob(["A"]), Quotient(prob(["B"]), 3))), "3"),
     (Quotient(prob(["A"]), None), "None"), ("P(A)", "'P\\(A\\)'")],
    ids=["sum-int", "sum-string", "quotient-int", "quotient-none", "root"],
)
@pytest.mark.parametrize(
    "walk",
    [lambda e: evaluate(e, TABLE, {"A": 0, "B": 1}), free_vars, estimand_to_dict],
    ids=["evaluate", "free_vars", "estimand_to_dict"],
)
def test_walks_refuse_children_that_are_not_nodes(tree, bad, walk):
    with pytest.raises(TypeError, match=f"^not an estimand node: {bad}$"):
        walk(tree)


@pytest.mark.parametrize(
    "tree, bad",
    [(SumOver(("A",), "P(A)"), "'P\\(A\\)'"), (Quotient("x", prob(["A"])), "'x'"),
     ("abc", "'abc'"), (Product((prob(["A"]), "zz")), "'zz'")],
    ids=["sum-body", "numerator", "root", "factor"],
)
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_renderers_refuse_string_children(tree, bad, fmt):
    # a string is no literal piece of the output: it is refused like an int
    with pytest.raises(TypeError, match=f"^not an estimand node: {bad}$"):
        render(tree, fmt)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: Prob("AB"), "Prob needs tuples of names, got 'AB' and \\(\\)"),
     (lambda: Prob(("A",), ["B"]), "Prob needs tuples of names"),
     (lambda: SumOver("AB", prob(["A"])), "SumOver needs a tuple of names, got 'AB'"),
     (lambda: Product(5), "Product needs a tuple of factors, got 5"),
     (lambda: Product([prob(["A"])]), "Product needs a tuple of factors")],
    ids=["prob-of", "prob-given", "sum-over", "product-int", "product-list"],
)
def test_nodes_refuse_containers_that_are_not_tuples(build, message):
    with pytest.raises(TypeError, match=f"^{message}"):
        build()


# -- trees nested deeper than the interpreter stack ------------------------------


def _deep_quotient(depth):
    e = prob(["A"])
    for _ in range(depth):
        e = quotient(e, prob(["B"]))
    return e


def test_deep_trees_render_as_text_and_multiply():
    e = _deep_quotient(1500)
    inner = "P(A|S=1) / P(B|S=1)"
    assert render(e) == "(" * 1499 + inner + ") / P(B|S=1)" * 1499
    assert render(e, "text", unicode_sum=False) == render(e)
    c = prob(["C"])
    got = product([c, e])
    assert isinstance(got, Product) and got.factors[0] is e and got.factors[1] == c


def _innermost_numerator(d):
    for _ in range(1500):  # plain loop: == on nested dicts recurses
        assert d["kind"] == "quotient"
        assert d["den"] == {"kind": "prob", "of": ["B"], "given": []}
        d = d["num"]
    return d


@pytest.mark.parametrize(
    "call, want",
    [
        (
            lambda e: render(e, "latex"),
            "\\frac{" * 1500 + "P(A \\mid S=1)" + "}{P(B \\mid S=1)}" * 1500,
        ),
        (
            lambda e: _innermost_numerator(estimand_to_dict(e)),
            {"kind": "prob", "of": ["A"], "given": []},
        ),
        (free_vars, ("A", "B")),
    ],
    ids=["latex", "estimand_to_dict", "free_vars"],
)
def test_deep_trees_answer(call, want):
    assert call(_deep_quotient(1500)) == want


@pytest.mark.parametrize(
    "call", [lambda e: render(e, "json"), to_json], ids=["render-json", "to_json"]
)
def test_deep_trees_answer_or_raise_value_error(call):
    e = _deep_quotient(1500)
    try:
        out = call(e)
    except ValueError as exc:
        assert str(exc) == "estimand nesting is too deep"
    else:
        assert out


def _deep_reciprocal(depth):
    e = prob(["A"])
    for _ in range(depth):
        e = quotient(prob(["B"]), e)
    return e  # P(A) again at every even depth


def test_deep_trees_evaluate():
    positive = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.125, 0.125], [0.25, 0.5]]))
    e = _deep_reciprocal(1500)
    for fixed in iter_assignments(("A", "B"), positive.domain_size):
        want = positive.prob({"A": fixed["A"]})
        assert evaluate(e, positive, fixed) == pytest.approx(want, rel=1e-12)
    no_a0 = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.0, 0.0], [0.5, 0.5]]))
    messages = []
    for tree in (_deep_reciprocal(2), e):
        with pytest.raises(PositivityError) as caught:
            evaluate(tree, no_a0, {"A": 0, "B": 1})
        messages.append(str(caught.value))
    assert messages == ["denominator evaluates to zero at {'A': 0}"] * 2


# -- rendering -----------------------------------------------------------------


def test_render_text():
    e = sum_over(["Z"], product([prob(["Y"], ["X", "Z"]), prob(["Z"])]))
    assert render(e, "text") == "Σ_{Z} P(Y|X,Z,S=1) P(Z|S=1)"
    assert render(e, "text", unicode_sum=False) == "Sum_{Z} P(Y|X,Z,S=1) P(Z|S=1)"


def test_render_quotients_parenthesized():
    q = quotient(prob(["X"]), prob(["Y"]))
    assert render(q, "text") == "P(X|S=1) / P(Y|S=1)"
    assert render(product([q, prob(["Z"])]), "text") == (
        "(P(X|S=1) / P(Y|S=1)) P(Z|S=1)"
    )
    nested = quotient(sum_over(["A"], prob(["A", "B"])), prob(["B"]))
    assert render(nested, "text", unicode_sum=False) == (
        "(Sum_{A} P(A,B|S=1)) / P(B|S=1)"
    )


def test_render_one():
    assert render(ONE, "text") == "1"
    assert render(ONE, "latex") == "1"


def test_render_latex():
    e = sum_over(["Z"], product([prob(["Y"], ["X", "Z"]), prob(["Z"])]))
    assert render(e, "latex") == (
        "\\sum_{Z} P(Y \\mid X, Z, S=1) P(Z \\mid S=1)"
    )
    q = quotient(prob(["X"]), prob(["Y"]))
    assert render(q, "latex") == "\\frac{P(X \\mid S=1)}{P(Y \\mid S=1)}"
    # a sum inside a product needs fences
    e2 = product([prob(["Z"]), sum_over(["A"], prob(["A"], ["Z"]))])
    assert render(e2, "latex") == (
        "P(Z \\mid S=1) \\left(\\sum_{A} P(A \\mid Z, S=1)\\right)"
    )
    # one Prob object under three parents, a sum in a quotient's denominator
    # and one in a product, and a second Prob with the same outcome
    p = prob(["A"], ["Z"])
    e3 = product([quotient(p, sum_over(["A"], p)), sum_over(["Z"], p), prob(["B"]), prob(["A"])])
    assert e3.factors[1].num is e3.factors[1].den.body is e3.factors[3].body is p
    expected = (
        "P(A \\mid S=1) \\frac{P(A \\mid Z, S=1)}{\\sum_{A} P(A \\mid Z, S=1)} "
        "P(B \\mid S=1) \\left(\\sum_{Z} P(A \\mid Z, S=1)\\right)"
    )
    assert render(e3, "latex") == latex_reference(e3) == expected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_latex_and_dict_match_recursive_references(seed):
    # s_id estimands and qs_decompose factors hold shared subtrees (the prefix
    # marginals of one factor share its expression); random trees do not
    rng = np.random.default_rng(seed)
    _, exprs = _identification_estimands(rng)
    exprs.append(random_estimand(rng, "ABCDE", depth=int(rng.integers(0, 5))))
    for e in exprs:
        assert render(e, "latex") == latex_reference(e)
        assert estimand_to_dict(e) == to_dict_reference(e)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_text_matches_recursive_reference(seed):
    rng = np.random.default_rng(seed)
    _, exprs = _identification_estimands(rng)
    exprs.append(random_estimand(rng, "ABCDE", depth=int(rng.integers(0, 5))))
    for e in exprs:
        assert render(e, "text") == text_reference(e, "Σ")
        assert render(e, "text", unicode_sum=False) == text_reference(e, "Sum")


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown render format"):
        render(ONE, "html")


def test_json_round_trip_exact():
    e = sum_over(
        ["Z"],
        product(
            [
                quotient(prob(["X", "Y"], ["Z"]), sum_over(["Y"], prob(["X", "Y"], ["Z"]))),
                prob(["Z"]),
            ]
        ),
    )
    text = to_json(e)
    assert from_json(text) == e
    assert to_json(from_json(text)) == text
    assert render(e, "json") == text
    assert estimand_from_dict(estimand_to_dict(e)) == e


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown estimand node kind"):
        estimand_from_dict({"kind": "power"})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind":"prob"}', "outcome variables must be a collection of names, got None"),
        ("[1]", "must be an object, got list"),
        ('{"kind":"product","factors":3}', "product node needs a list of factors"),
        ('{"kind":"sum","over":["A"]}', "must be an object, got NoneType"),
        ('{"kind":"quotient","num":{"kind":"one"},"den":[]}', "must be an object, got list"),
        ('{"kind":"prob","of":[1,"A"]}', "must be non-empty strings, got 1"),
        ('{"kind":"prob","of":["A"],"given":5}', "got 5"),
        ('{"kind":[]}', "unknown estimand node kind"),
        ("{", "Expecting property name"),
        ('{"kind":"sum","over":["A"],"body":' * 3000 + '{"kind":"one"}' + "}" * 3000, "too deep"),
        ("[" * 3000 + "]" * 3000, "too deep"),
    ],
)
def test_from_json_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(text)


def test_from_dict_rejects_deep_nesting():
    d = {"kind": "one"}
    for _ in range(3000):
        d = {"kind": "quotient", "num": d, "den": {"kind": "prob", "of": ["A"]}}
    with pytest.raises(ValueError, match="too deep"):
        estimand_from_dict(d)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(
        ["one", "prob", "sum", "product", "quotient", "A", "B", ""]
    ),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(
        st.sampled_from(["kind", "of", "given", "over", "body", "factors", "num", "den"]),
        kids,
        max_size=4,
    ),
    max_leaves=12,
)


@given(st.one_of(_JSON.map(json.dumps), st.text(max_size=30)))
@settings(max_examples=400, deadline=None)
def test_from_json_fuzz_answers_or_raises_value_error(text):
    try:
        e = from_json(text)
    except ValueError:
        return
    assert from_json(to_json(e)) == e


# -- evaluation ----------------------------------------------------------------


TABLE = ProbabilityTable(
    ("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]])
)


def test_evaluate_marginals_and_conditionals():
    assert evaluate(prob(["A"]), TABLE, {"A": 0}) == pytest.approx(0.3)
    assert evaluate(prob(["A"], ["B"]), TABLE, {"A": 0, "B": 0}) == pytest.approx(
        0.1 / 0.4
    )
    assert evaluate(sum_over(["A", "B"], prob(["A", "B"])), TABLE) == pytest.approx(1.0)
    assert evaluate(ONE, TABLE) == 1.0
    assert evaluate(prob(["A"]), TABLE, {"A": np.int64(1)}) == pytest.approx(0.7)


def test_evaluate_quotient_and_product():
    q = quotient(prob(["A"]), prob(["B"]))
    assert evaluate(q, TABLE, {"A": 0, "B": 0}) == pytest.approx(0.3 / 0.4)
    e = product([prob(["A"]), prob(["B"])])
    assert evaluate(e, TABLE, {"A": 1, "B": 1}) == pytest.approx(0.7 * 0.6)


def test_evaluate_requires_free_assignments():
    with pytest.raises(ValueError, match="free variables: A, B"):
        evaluate(prob(["A"], ["B"]), TABLE)


def test_evaluate_shadowing_innermost_wins():
    # outer A is irrelevant inside the inner sum; inner sum totals to 1
    inner = sum_over(["A"], prob(["A"]))
    e = sum_over(["A"], product([prob(["A"]), inner]))
    assert evaluate(e, TABLE) == pytest.approx(1.0)


def test_positivity_error_on_conditioning():
    zero = ProbabilityTable(("A", "B"), (2, 2), np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(PositivityError, match="probability zero"):
        evaluate(prob(["B"], ["A"]), zero, {"A": 1, "B": 0})
    with pytest.raises(PositivityError, match="denominator evaluates to zero"):
        evaluate(quotient(prob(["B"]), prob(["A"])), zero, {"A": 1, "B": 0})
    # only cells that need the zero denominator raise, also from inside a sum
    assert evaluate(prob(["B"], ["A"]), zero, {"A": 0, "B": 1}) == pytest.approx(0.5)
    with pytest.raises(PositivityError, match=r"probability zero: \{'A': 1\}"):
        evaluate(sum_over(["A"], prob(["B"], ["A"])), zero, {"B": 0})


@pytest.mark.parametrize(
    "value", [-1, 2, 1.0, True], ids=["negative", "out-of-range", "float", "bool"]
)
def test_evaluate_rejects_invalid_values(value):
    # -1 used to read P(A=1) through negative indexing
    with pytest.raises(ValueError, match=r"'A' must be an integer in range\(2\)"):
        evaluate(prob(["A"]), TABLE, {"A": value})


def test_evaluate_rejects_variables_missing_from_the_table():
    with pytest.raises(ValueError, match="table has no variable 'C'"):
        evaluate(prob(["C"]), TABLE, {"C": 0})
    with pytest.raises(ValueError, match="table has no variable 'C'"):
        evaluate(sum_over(["C"], prob(["A"])), TABLE, {"A": 0})
    # the tree is read in order: the numerator before the denominator
    with pytest.raises(ValueError, match="table has no variable 'D'"):
        evaluate(quotient(prob(["D"]), prob(["C"])), TABLE, {"C": 0, "D": 0})


class CountingTable:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def domain_size(self, name):
        return self.inner.domain_size(name)

    def prob(self, assignment):
        self.calls += 1
        return self.inner.prob(assignment)


def test_evaluate_memoizes_subtrees():
    counting = CountingTable(TABLE)
    inner = sum_over(["B"], prob(["B"]))  # no free variables
    e = sum_over(["A"], product([prob(["A"]), inner]))
    assert evaluate_scalar(e, counting) == pytest.approx(1.0)
    # P(B=0), P(B=1) once each, P(A=0), P(A=1) once each: four lookups total
    assert counting.calls == 4


def test_evaluate_tabulates_a_shared_subtree_once():
    log = []

    class SumLog(np.ndarray):
        """Logs the axes of each sum taken of it or of an array computed from it."""

        def sum(self, axis=None, **kwargs):
            log.append(axis)
            return super().sum(axis=axis, **kwargs)

    table = ProbabilityTable(TABLE.variables, (2, 2), TABLE.values)
    table._values = table._values.view(SumLog)
    p = prob(["A"], ["B"])
    s = sum_over(["A"], p)
    e = quotient(product([s, prob(["B"])]), s)  # the same sum object twice
    assert evaluate(e, table, {"B": 0}) == pytest.approx(0.4)  # P(B=0) * 1 / 1
    # the product puts P(B) first: the marginal of {B} (A's axis dropped),
    # then of {A, B} (none dropped), each summed once although P(A|B) asks
    # for {B} again; then one sum over A, although its subtree appears twice
    assert log == [(1,), (), (1,)]


@pytest.mark.parametrize(
    "table",
    [None, {"A": 0.5}, np.array([[0.1, 0.2], [0.3, 0.4]])],
    ids=["none", "dict", "ndarray"],
)
def test_evaluate_refuses_a_table_that_is_not_a_probability_table(table):
    with pytest.raises(TypeError, match="^table must be a ProbabilityTable, got "):
        evaluate(prob(["A"]), table, {"A": 0})


# -- tensor evaluation against the scalar cross-check ---------------------------


def _identification_estimands(rng):
    g = random_admg(rng)
    exprs = [part.expr for part in qs_decompose(g, qs_base(g))]
    result = s_id(g, *random_query(rng, g))
    if result.identifiable:
        exprs.append(result.estimand)
    return g, exprs


def _outcome(evaluator, e, table, fixed):
    try:
        return "value", evaluator(e, table, fixed)
    except PositivityError as exc:
        return "positivity", str(exc)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_tensor_evaluate_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    g, exprs = _identification_estimands(rng)
    size = int(rng.integers(2, 4)) if len(g.observed) <= 4 else 2  # bounds the scalar side
    table = random_table(rng, g.observed, size=size)
    for e in exprs:
        for a in iter_assignments(free_vars(e), table.domain_size):
            want = evaluate_scalar(e, table, a)
            assert abs(evaluate(e, table, a) - want) <= 1e-12 * max(1.0, abs(want))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tensor_and_scalar_raise_on_the_same_assignments(seed):
    rng = np.random.default_rng(seed)
    g, exprs = _identification_estimands(rng)
    names = tuple(sorted(g.observed))
    exprs.append(random_estimand(rng, names))
    values = rng.random((2,) * len(names))
    values[rng.random(values.shape) < 0.4] = 0.0
    values.flat[0] += 0.1  # never all zero
    table = ProbabilityTable(names, values.shape, values / values.sum())
    for e in exprs:
        for a in iter_assignments(free_vars(e), table.domain_size):
            want = _outcome(evaluate_scalar, e, table, a)
            got = _outcome(evaluate, e, table, a)
            assert got[0] == want[0]
            if want[0] == "value":
                assert abs(got[1] - want[1]) <= 1e-12 * max(1.0, abs(want[1]))
            else:
                assert got[1] == want[1]


# -- simplification ------------------------------------------------------------


def test_product_telescoping_chain():
    a, b, c = prob(["A"]), prob(["B"]), prob(["C"])
    chain = product([quotient(a, b), quotient(b, c)])
    assert chain == quotient(a, c)


def test_product_cancels_factor_against_denominator():
    a, b = prob(["A"]), prob(["B"])
    assert product([b, quotient(a, b)]) == a


def test_product_full_telescope_collapses_to_one():
    a, b = prob(["A"]), prob(["B"])
    assert product([quotient(a, b), quotient(b, a)]) is ONE


def test_product_telescopes_inside_sums():
    a, b = prob(["A"]), prob(["B"])
    e = sum_over(["C"], product([b, quotient(a, b)]))
    assert e == SumOver(("C",), a)


def test_product_leaves_irreducible_factors_alone():
    e = sum_over(["Z"], product([prob(["Y"], ["X", "Z"]), prob(["Z"])]))
    assert e == SumOver(("Z",), Product((Prob(("Y",), ("X", "Z")), Prob(("Z",)))))


def test_telescoping_preserves_evaluation_on_positive_tables():
    """An un-telescoped product built from the dataclasses evaluates like its
    canonical form, which ``product`` and a JSON round trip both produce."""
    rng = np.random.default_rng(3)
    names = ["A", "B", "C"]
    for _ in range(120):
        table = random_table(rng, names)
        links = [random_estimand(rng, names, depth=2) for _ in range(int(rng.integers(2, 5)))]
        chain = [Quotient(x, y) for x, y in zip(links, links[1:]) if x != y]
        extra = [links[-1]] if rng.random() < 0.5 else []
        raw = Product(tuple(chain + extra + [random_estimand(rng, names, depth=1)]))
        canon = product(raw.factors)
        assert from_json(to_json(raw)) == canon
        fixed = {v: int(rng.integers(0, 2)) for v in free_vars(raw)}
        assert set(free_vars(canon)) <= set(free_vars(raw))
        want = evaluate(raw, table, fixed)
        assert evaluate(canon, table, fixed) == pytest.approx(want, abs=1e-12)


def _chain_graph(n):
    """``V0 -> ... -> Vn`` with ``Vi <-> Vi+2`` and ``V0 -> S``, selection S."""
    return AugmentedAdmg(
        [f"V{i}" for i in range(n + 1)] + ["S"],
        [(f"V{i}", f"V{i + 1}") for i in range(n)] + [("V0", "S")],
        [(f"V{i}", f"V{i + 2}") for i in range(n - 1)],
        selection="S",
    )


def test_chain_estimand_canonical_form_is_pinned():
    """The text and JSON of a long telescoped estimand, by digest: any change
    of factor order or of cancellation in ``product`` shows here."""
    e = s_id(_chain_graph(64), ["V1"], ["V64"]).estimand
    digests = {fmt: hashlib.sha256(render(e, fmt).encode()).hexdigest() for fmt in ("text", "json")}
    assert digests == {
        "text": "80c2c43cd4c265ba5b2f37ac8c8de987c3dbfc5fd118d28ac6165ab7b8d666a1",
        "json": "3138644196cbd558be1f395afff4dd67c02e58f68f3957f70395535b40554eee",
    }


def _link(rng, i):
    """A distinct tree whose shallow key (node type, names at the node) it often
    shares with other links: sums over one name, quotients, products."""
    own = prob([f"A{i}"], ["X"])
    kind = rng.randrange(5)
    if kind == 0:
        return prob([f"A{i}"])
    if kind == 1:
        return sum_over(["X"], own)
    if kind == 2:
        return quotient(own, prob(["X"]))
    if kind == 3:
        return product([own, prob(["X"])])
    return quotient(prob(["X"]), sum_over(["X"], own))


@pytest.mark.parametrize("seed", range(3))
def test_product_matches_reference_telescoping_on_long_lists(seed):
    rng = random.Random(seed)
    links = [_link(rng, i) for i in range(121)]
    chain = [quotient(x, y) for x, y in zip(links, links[1:])]
    cases = [
        chain + [links[-1]],  # full chain
        [q for k, q in enumerate(chain) if k % 13] + links[::7],  # broken chain
        chain[:90] + rng.sample(chain[:90], 30),  # duplicate quotients
        chain[::2] + links[1::2],  # f (g/f) pairs
        [quotient(q, links[0]) for q in chain[:60]] + chain[60:] + links[:20],  # nested quotients
    ]
    for factors in cases:
        assert len(factors) >= 100
        rng.shuffle(factors)
        assert product(factors) == telescope_reference(factors)


# -- hypothesis: structural properties over random trees ------------------------


def estimands(names=("A", "B", "C")):
    probs = st.builds(
        lambda of, gv: prob(of, [v for v in gv if v not in of]),
        st.sets(st.sampled_from(names), min_size=1),
        st.sets(st.sampled_from(names)),
    )
    return st.recursive(
        probs,
        lambda kids: st.one_of(
            st.builds(
                sum_over, st.sets(st.sampled_from(names), min_size=1), kids
            ),
            st.builds(lambda fs: product(fs), st.lists(kids, min_size=2, max_size=3)),
            st.builds(quotient, kids, kids),
        ),
        max_leaves=8,
    )


@given(estimands())
@settings(max_examples=80, deadline=None)
def test_json_round_trip_property(e):
    assert from_json(to_json(e)) == e


@given(estimands())
@settings(max_examples=80, deadline=None)
def test_render_is_deterministic(e):
    assert render(e, "text") == render(e, "text")
    assert render(e, "latex") == render(e, "latex")


@given(estimands())
@settings(max_examples=80, deadline=None)
def test_product_is_idempotent(e):
    assert product([e]) == e
    if isinstance(e, Product):
        assert product(e.factors) == e


def chained_factor_lists(names=("A", "B", "C", "D")):
    """Factor lists holding quotient chains over a few shared links, shuffled
    in with the links themselves and unrelated trees."""
    links = st.lists(estimands(names), min_size=2, max_size=5, unique=True)

    def assemble(links, picks, others):
        chain = [quotient(x, y) for x, y in zip(links, links[1:])]
        return [chain[i % len(chain)] for i in picks] + [links[picks[0] % len(links)]] + others

    return st.builds(
        assemble,
        links,
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
        st.lists(estimands(names), max_size=2),
    ).flatmap(st.permutations)


@given(chained_factor_lists())
@settings(max_examples=150, deadline=None)
def test_product_matches_reference_telescoping(factors):
    assert product(factors) == telescope_reference(factors)


_TAIL = [f"T{i:02d}" for i in range(40)]
_BODY = product([prob(["A"], _TAIL), prob(["B"], _TAIL)])


def text_ordered_factor_lists():
    """Factor lists whose texts share long prefixes or suffixes, or are strict
    prefixes of one another (f and f / P(Z|S=1)).  Many share their first two
    pieces, so the sort reads past them: sums of one body and of that body
    times more, and quotients of one numerator over different denominators.
    Nothing cancels: every denominator is a P(Z...) that is neither a factor
    nor a numerator."""
    names = st.sets(st.sampled_from(["A", "B", "C"]), min_size=1)
    base = st.one_of(
        estimands().filter(lambda e: isinstance(e, (Prob, SumOver))),
        st.builds(lambda of: prob(of, _TAIL), names),
        st.builds(lambda over: sum_over(over, _BODY), names),
        st.builds(lambda over: sum_over(over, _BODY.factors[0]), names),
    )
    den = st.sets(st.sampled_from(["Z1", "Z2", "Z3"]), min_size=1).map(prob)
    shape = st.sampled_from(["plain", "quotient", "pair", "dens"])

    def item(f, d, how):
        return {
            "plain": [f],
            "quotient": [quotient(f, d)],
            "pair": [f, quotient(f, d)],
            "dens": [quotient(f, d), quotient(f, prob(d.of + ("Z4",)))],
        }[how]

    items = st.lists(st.builds(item, base, den, shape), min_size=2, max_size=8)
    return items.map(lambda groups: [f for g in groups for f in g]).flatmap(st.permutations)


@given(text_ordered_factor_lists())
@settings(max_examples=150, deadline=None)
def test_product_orders_factors_by_text(factors):
    assert product(factors).factors == tuple(sorted(factors, key=lambda f: render(f, "text")))


# -- symbolic post-intervention factors -----------------------------------------


def test_qs_base(medication, hedges):
    f = qs_base(medication)
    assert f.scope == ("X", "Y")
    assert render(f.expr, "text") == "P(X,Y|Z,S=1)"
    f2 = qs_base(hedges)
    assert f2.scope == ("X1", "X2", "Y1", "Y2")
    assert render(f2.expr, "text") == "P(X1,X2,Y1,Y2|Z1,Z2,S=1)"


def test_qs_base_empty_nonancestral_part():
    from subid import AugmentedAdmg

    g = AugmentedAdmg(["A", "S"], [("A", "S")], selection="S")
    f = qs_base(g)
    assert f.scope == ()
    assert f.expr is ONE


def test_qs_marginalize(medication):
    base = qs_base(medication)
    shrunk = qs_marginalize(medication, base, ["X"])
    assert shrunk.scope == ("X",)
    assert render(shrunk.expr, "text", unicode_sum=False) == (
        "Sum_{Y} P(X,Y|Z,S=1)"
    )


def test_qs_marginalize_rejects_non_ancestral_target(medication):
    base = qs_base(medication)
    with pytest.raises(GraphError, match="not ancestral"):
        qs_marginalize(medication, base, ["Y"])  # Y's parent X stays outside
    with pytest.raises(GraphError, match="strict subset"):
        qs_marginalize(medication, base, ["X", "Y"])


def test_qs_decompose_single_component_unchanged(latent_selection):
    base = qs_base(latent_selection)
    parts = qs_decompose(latent_selection, base)
    assert parts == [base]  # telescoping cancels back to the input expression


def test_qs_decompose_medication(medication):
    # X is tied to the ancestry through Z, Y through S: two s-components
    parts = qs_decompose(medication, qs_base(medication))
    assert [p.scope for p in parts] == [("X",), ("Y",)]
    assert render(parts[0].expr, "text", unicode_sum=False) == (
        "Sum_{Y} P(X,Y|Z,S=1)"
    )
    assert render(parts[1].expr, "text", unicode_sum=False) == (
        "P(X,Y|Z,S=1) / (Sum_{Y} P(X,Y|Z,S=1))"
    )


def test_qs_decompose_two_components(hedges):
    base = qs_base(hedges)
    parts = qs_decompose(hedges, base)
    assert [p.scope for p in parts] == [("X1", "X2"), ("Y1", "Y2")]
    joint = "P(X1,X2,Y1,Y2|Z1,Z2,S=1)"
    assert render(parts[0].expr, "text", unicode_sum=False) == (
        f"Sum_{{Y1,Y2}} {joint}"
    )
    assert render(parts[1].expr, "text", unicode_sum=False) == (
        f"{joint} / (Sum_{{Y1,Y2}} {joint})"
    )


def test_qs_decompose_matches_member_by_member_telescoping():
    # every factor the recursion can reach: decompose, then marginalize each
    # part to the ancestry of each of its vertices, and decompose again
    rng = np.random.default_rng(21)
    checked = gapped = 0
    for _ in range(300):
        g = random_admg(rng, n_obs=int(rng.integers(4, 8)), p_bi=0.25, p_sel_dir=0.1)
        factors = [qs_base(g)]
        while factors:
            factor = factors.pop()
            parts = qs_decompose(g, factor)
            assert parts == qs_decompose_by_members(g, factor), (g, factor)
            checked += 1
            order = g.topological_order(factor.scope)
            for part in parts:
                ranks = sorted(order.index(v) for v in part.scope)
                gapped += ranks[-1] - ranks[0] >= len(ranks)  # more than one run
                for v in part.scope:
                    anc = g.ancestors([v], within=part.scope)
                    if anc != part.scope:
                        factors.append(qs_marginalize(g, part, anc))
    assert checked >= 1000 and gapped >= 100


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_qs_decompose_matches_unshared_prefix_marginals(seed):
    # the base factor, every ancestral sub-scope of it, and every ancestral
    # sub-scope of a decomposed part, as the recursion reaches them
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n_obs=int(rng.integers(3, 8)), p_bi=0.3, p_sel_dir=0.15)
    base = qs_base(g)
    factors = [base]
    for v in base.scope:
        anc = g.ancestors([v], within=base.scope)
        if anc != base.scope:
            factors.append(qs_marginalize(g, base, anc))
    for factor in factors[:]:
        for part in qs_decompose(g, factor):
            anc = g.ancestors(part.scope[:1], within=part.scope)
            if anc != part.scope:
                factors.append(qs_marginalize(g, part, anc))
    for factor in factors:
        got, want = qs_decompose(g, factor), qs_decompose_reference(g, factor)
        assert [p.scope for p in got] == [p.scope for p in want]
        assert [p.expr for p in got] == [p.expr for p in want]
        assert [render(p.expr) for p in got] == [render(p.expr) for p in want]


def test_qs_decompose_of_a_marginalized_factor(hedges):
    # the expression is a sum over Y2; each prefix marginal sums into it, as
    # sum_over merges nested sums over disjoint names
    factor = qs_marginalize(hedges, qs_base(hedges), ["X1", "X2", "Y1"])
    assert isinstance(factor.expr, SumOver)
    parts = qs_decompose(hedges, factor)
    want = qs_decompose_reference(hedges, factor)
    assert parts == want
    assert [render(p.expr) for p in parts] == [render(p.expr) for p in want]
    joint = "P(X1,X2,Y1,Y2|Z1,Z2,S=1)"
    assert [p.scope for p in parts] == [("X1", "X2"), ("Y1",)]
    assert render(parts[0].expr, "text", unicode_sum=False) == f"Sum_{{Y1,Y2}} {joint}"
    assert render(parts[1].expr, "text", unicode_sum=False) == (
        f"(Sum_{{Y2}} {joint}) / (Sum_{{Y1,Y2}} {joint})"
    )


def test_qs_decompose_builds_each_prefix_marginal_once():
    # order A, B, C; components {A, C} and {B} interleave, so P_1 and P_2 each
    # bound a run of both components
    g = AugmentedAdmg(["A", "B", "C", "S"], [("A", "B"), ("B", "C")], [("A", "C")], selection="S")
    parts = qs_decompose(g, qs_base(g))
    assert [p.scope for p in parts] == [("A", "C"), ("B",)]
    sums: dict[SumOver, set[int]] = {}
    for part in parts:
        for node in _subtrees(part.expr):
            if isinstance(node, SumOver):
                sums.setdefault(node, set()).add(id(node))
    assert len(sums) == 2
    assert all(len(ids) == 1 for ids in sums.values())


def _subtrees(e):
    yield e
    if isinstance(e, SumOver):
        yield from _subtrees(e.body)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from _subtrees(f)
    elif isinstance(e, Quotient):
        yield from _subtrees(e.num)
        yield from _subtrees(e.den)


def test_qs_factors_match_ground_truth(medication, hedges):
    """Numeric spot check of the three factor operations against the oracle."""
    for g, seed in ((medication, 2), (hedges, 5)):
        scm = random_scm(g, seed=seed)
        obs = scm.observational_s()
        obs_names = sorted(g.observed)
        _, non_anc = g.split_by_selection()

        base = qs_base(g)
        truth = qs_ground_truth(scm, non_anc)
        _assert_factor_matches(base, truth, obs, obs_names, scm)

        for part in qs_decompose(g, base):
            truth = qs_ground_truth(scm, part.scope)
            _assert_factor_matches(part, truth, obs, obs_names, scm)


def _assert_factor_matches(factor, truth, obs, obs_names, scm):
    for a in iter_assignments(obs_names, scm.domain_size):
        got = evaluate(factor.expr, obs, a)
        want = truth[tuple(a[n] for n in obs_names)]
        assert got == pytest.approx(want, abs=1e-9)
