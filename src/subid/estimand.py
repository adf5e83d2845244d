"""Symbolic estimands over the sub-population observational distribution.

An estimand is a finite tree built from five node kinds:

* ``Prob(of, given)``   -- the conditional P(of | given, S=1).  Conditioning
  on the selected sub-population is implicit in every probability node.
* ``SumOver(over, body)`` -- sum of ``body`` over all joint values of ``over``.
* ``Product(factors)``  -- product of factors.
* ``Quotient(num, den)`` -- ratio.
* ``One()``             -- multiplicative unit.

Variables name graph vertices and range over finite integer domains supplied
by the probability table that :func:`subid.oracle.evaluate` reads.  Binding
follows standard innermost-wins scoping: an inner ``SumOver`` may reuse a name
bound further out, and the inner binding shadows the outer one.  The
identification algorithms produce such shadowing naturally (a component factor
marginalizes internally over variables that the surrounding assembly sums
again).

Construction goes through the lowercase helpers (:func:`prob`,
:func:`sum_over`, :func:`product`, :func:`quotient`), which canonicalize:
variable lists are sorted, products are flattened with unit factors dropped,
factors ordered by their text rendering and telescoping quotient chains
cancelled, empty sums disappear, and trivial quotients collapse.  Every tree
built this way, or read back with :func:`from_json`, is in canonical form, and
canonicalizing preserves evaluation exactly on strictly positive tables.
:func:`prob` and :func:`sum_over` are their name checks plus the private
``_prob`` and ``_sum``, which take tuples of names that are already canonical
(sorted, distinct, and for ``_prob`` disjoint) and hold the one body of each
rule, the unit of an empty outcome and the merge of nested sums; callers
that build their names from sorted tuples call them directly (``s_id``, and
``_component_factors`` for every prefix marginal).

Canonicalizing costs about the size of its output.  Each ``Prob`` and
``SumOver`` formats its own text label once, at construction, into a field
that equality, hashing and repr ignore, so text and sorting never rebuild it.
Factors sort by their first two text pieces, read straight off those labels;
only where one head is a prefix of the other are the two whole texts built,
by the same list-building renderer as :func:`render`, and only where those
tie (the text form is not injective) is a structural key walked.  Telescoping
partners are looked up in indexes keyed by the stored labels (or only the
node type), never by rendering or hashing subtrees.  A component factor of
``qs_decompose`` has one ratio per maximal run of positions; maximal runs
never cancel, so its ratios are only sorted, without the telescope search.
``_component_factors`` returns the factors of the components it is given, in
order, and builds prefix marginals only at their run boundaries: it walks the
order from its end down to the first boundary, keeping the sorted suffix (a
marginal's bound names); a query on a sparse graph has few boundaries, so
its marginals do not hold the n^2/2 names of one suffix per position.
Every walk over a tree uses an explicit stack, so free variables, text, latex
and the JSON object work at any depth; latex streams left to right like text
and holds no subtree strings.  Only JSON text, which the ``json`` module
writes and reads recursively, and :func:`estimand_from_dict` raise
``ValueError`` for trees nested deeper than the interpreter stack allows.

The module is symbolic only and imports neither numpy nor any other module
of the package: the graph questions of the factor steps are asked in
:mod:`subid.identify`, which hands ``_component_factors`` each topological
order, and estimands are evaluated on probability tables in :mod:`subid.oracle`.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping
from typing import Union

__all__ = [
    "Prob",
    "SumOver",
    "Product",
    "Quotient",
    "One",
    "ONE",
    "Estimand",
    "prob",
    "sum_over",
    "product",
    "quotient",
    "free_vars",
    "render",
    "to_json",
    "from_json",
    "estimand_to_dict",
    "estimand_from_dict",
    "QsFactor",
]


@dataclass(frozen=True)
class Prob:
    of: tuple[str, ...]
    given: tuple[str, ...] = ()
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.of, tuple) and isinstance(self.given, tuple)):
            raise TypeError(f"Prob needs tuples of names, got {self.of!r} and {self.given!r}")
        given = ",".join(self.given + ("S=1",))
        object.__setattr__(self, "text", f"P({','.join(self.of)}|{given})")


@dataclass(frozen=True)
class SumOver:
    over: tuple[str, ...]
    body: "Estimand"
    names: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.over, tuple):
            raise TypeError(f"SumOver needs a tuple of names, got {self.over!r}")
        object.__setattr__(self, "names", ",".join(self.over))


@dataclass(frozen=True)
class Product:
    factors: tuple["Estimand", ...]

    def __post_init__(self) -> None:
        if not isinstance(self.factors, tuple):
            raise TypeError(f"Product needs a tuple of factors, got {self.factors!r}")


@dataclass(frozen=True)
class Quotient:
    num: "Estimand"
    den: "Estimand"


@dataclass(frozen=True)
class One:
    pass


Estimand = Union[Prob, SumOver, Product, Quotient, One]

ONE = One()

def _node(e: object) -> Estimand:
    if not isinstance(e, (Prob, SumOver, Product, Quotient, One)):
        raise TypeError(f"not an estimand node: {e!r}")
    return e


def _names(values: Iterable[str], what: str, *, canonical: bool = True) -> tuple[str, ...]:
    """Non-empty names, sorted and distinct if ``canonical``, else as given."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a collection of names, got the string {values!r}")
    if not isinstance(values, Iterable):
        raise ValueError(f"{what} must be a collection of names, got {values!r}")
    values = tuple(values)
    if not all(map(isinstance, values, itertools.repeat(str))) or "" in values:
        bad = next(v for v in values if not isinstance(v, str) or not v)
        raise ValueError(f"{what} must be non-empty strings, got {bad!r}")
    if not canonical or all(map(operator.lt, values, values[1:])):  # already sorted and distinct
        return values
    return tuple(sorted(set(values)))


# -- constructors ------------------------------------------------------------


def prob(of: Iterable[str], given: Iterable[str] = ()) -> Estimand:
    """P(of | given, S=1).  An empty outcome set is the constant 1."""
    of_t = _names(of, "outcome variables")
    given_t = _names(given, "conditioning variables")
    overlap = set(of_t) & set(given_t)
    if overlap:
        raise ValueError(
            f"variables cannot be both outcome and conditioning: {sorted(overlap)}"
        )
    return _prob(of_t, given_t)


def _prob(of_t: tuple[str, ...], given_t: tuple[str, ...]) -> Estimand:
    """:func:`prob` on disjoint tuples of names, each already sorted and distinct."""
    return Prob(of_t, given_t) if of_t else ONE


def sum_over(bound: Iterable[str], body: Estimand) -> Estimand:
    """Sum ``body`` over ``bound``; empty sums vanish, nested sums merge."""
    return _sum(_names(bound, "bound variables"), body)


def _sum(bound_t: tuple[str, ...], body: Estimand) -> Estimand:
    """:func:`sum_over` on a tuple of names already sorted and distinct."""
    if not bound_t:
        return _node(body)
    if isinstance(_node(body), SumOver) and not set(bound_t) & set(body.over):
        return SumOver(tuple(sorted(bound_t + body.over)), body.body)  # disjoint
    return SumOver(bound_t, body)


def product(factors: Iterable[Estimand]) -> Estimand:
    """Product of factors, flattened, unit-free, ordered by rendered text, with
    telescoping quotient chains cancelled: (x/y)(y/z) -> x/z, f(g/f) -> g.

    The order is that of ``render(f, "text")``; whole texts are built only
    for two factors whose first two text pieces agree as far as both go."""
    flat = _flatten(factors)
    while _telescope(flat):
        flat = _flatten(flat)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def _flatten(factors: Iterable[Estimand]) -> list[Estimand]:
    """The factors in order, products opened and units dropped at any depth."""
    flat: list[Estimand] = []
    todo = [iter(factors)]  # the factor lists being read, innermost last
    while todo:
        for f in todo[-1]:
            if isinstance(f, (Prob, SumOver, Quotient)):
                flat.append(f)
            elif isinstance(f, Product):
                todo.append(iter(f.factors))
                break
            elif not isinstance(f, One):
                raise TypeError(f"not an estimand node: {f!r}")
        else:
            todo.pop()
    if len(flat) > 1:
        flat.sort(key=_TextKey)
    return flat


class _TextKey:
    """Sort key of a factor: its text, then its structure where two texts tie.

    The text is read as its head, the first two pieces off the stored labels;
    only where one head is a prefix of the other are the two whole texts built.
    Two distinct factors can render the same text (see :func:`render`); their
    structural keys, built only then, still tell them apart."""

    __slots__ = ("factor", "head")

    def __init__(self, factor: Estimand) -> None:
        self.factor = factor
        self.head = _head(factor)

    def __lt__(self, other: _TextKey) -> bool:
        a, b = self.head, other.head
        if not (a.startswith(b) or b.startswith(a)):
            return a < b
        # the heads agree as far as both go
        x, y = self.factor, other.factor
        tx, ty = _text(x), _text(y)
        if tx != ty or x is y:
            return tx < ty
        return _structure(x) < _structure(y)


def _head(e: Estimand) -> str:
    """The first two pieces of ``_text(e)``, a prefix of it read off the labels
    that ``Prob`` and ``SumOver`` store; ``e`` is a product's factor."""
    if isinstance(e, Prob):
        return e.text
    if isinstance(e, SumOver):
        return f"Σ_{{{e.names}}} {_lead(e.body)}"
    if isinstance(e.num, (Prob, One)):  # a quotient
        return _lead(e.num) + " / "
    return "(" + _lead(e.num)


def _lead(e: Estimand) -> str:
    """The first piece of ``_text(e)``, or "" where an empty product leads."""
    while isinstance(e, Product):
        if not e.factors:
            return ""
        e = e.factors[0]
        if isinstance(e, Quotient):  # parenthesised as a factor
            return "("
    if isinstance(e, Prob):
        return e.text
    if isinstance(e, SumOver):
        return f"Σ_{{{e.names}}} "
    if isinstance(e, One):
        return "1"
    if isinstance(e, Quotient):
        return _lead(e.num) if isinstance(e.num, (Prob, One)) else "("
    raise TypeError(f"not an estimand node: {e!r}")


def _structure(e: Estimand) -> list[tuple]:
    """One token per node of ``e`` in prefix order, each naming the node's kind,
    its own names and its number of children: a key that tells any two distinct
    trees apart and orders them without hashing, walked from an explicit stack."""
    tokens: list[tuple] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Prob):
            tokens.append(("P", node.of, node.given))
        elif isinstance(node, SumOver):
            tokens.append(("S", node.over))
            stack.append(node.body)
        elif isinstance(node, Product):
            tokens.append(("*", len(node.factors)))
            stack += reversed(node.factors)
        elif isinstance(node, Quotient):
            tokens.append(("/",))
            stack += (node.den, node.num)
        else:
            tokens.append(("1",))
    return tokens


def _shallow(e: Estimand) -> object:
    """A key that equal estimands share, read off the node's own label, not its subtrees."""
    if isinstance(e, Prob):
        return e.text
    if isinstance(e, SumOver):
        return SumOver, e.names
    return type(e)


def _telescope(flat: list[Estimand]) -> bool:
    """Merge the first cancelling pair in scan order, in place, until none is left.

    The partner of ``flat[i]`` is the first quotient ``flat[j]``, j != i, whose
    numerator equals ``flat[i].den`` (a quotient) or whose denominator equals
    ``flat[i]`` (anything else).  Candidates come from indexes by shallow key,
    built again after each merge, when the scan restarts at i = 0.
    """
    merged = False
    while True:
        by_num: dict[object, list[int]] = {}
        by_den: dict[object, list[int]] = {}
        for j, q in enumerate(flat):
            if isinstance(q, Quotient):
                by_num.setdefault(_shallow(q.num), []).append(j)
                by_den.setdefault(_shallow(q.den), []).append(j)
        if not by_num:  # no quotient, no partner
            return merged
        for i, fi in enumerate(flat):
            if isinstance(fi, Quotient):
                hits = (j for j in by_num.get(_shallow(fi.den), ())
                        if j != i and flat[j].num == fi.den)
            else:
                hits = (j for j in by_den.get(_shallow(fi), ()) if j != i and flat[j].den == fi)
            j = next(hits, None)
            if j is not None:
                break
        else:
            return merged
        flat[i] = quotient(fi.num, flat[j].den) if isinstance(fi, Quotient) else flat[j].num
        del flat[j]
        merged = True


def quotient(num: Estimand, den: Estimand) -> Estimand:
    """num / den; unit denominators vanish, identical sides cancel."""
    if isinstance(_node(den), One):
        return _node(num)
    if _node(num) == den:
        return ONE
    return Quotient(num, den)


# -- structural queries ------------------------------------------------------


_UP = object()  # _postorder's marker, which no child can be


def _postorder(root: Estimand) -> list[Estimand]:
    """Each distinct node of ``root`` once (by identity), children before their
    parent and left to right, from an explicit stack, so any depth walks."""
    order: list[Estimand] = []
    seen: set[int] = set()
    # _UP sits above a node whose children are still being walked; the tree
    # is acyclic, so a node met again has been appended to ``order`` already
    stack: list[object] = [root]
    while stack:
        node = stack.pop()
        if node is _UP:
            order.append(stack.pop())
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Prob):  # the commonest leaf, done at once
            order.append(node)
            continue
        stack += (node, _UP)
        if isinstance(node, SumOver):
            stack.append(node.body)
        elif isinstance(node, Product):
            stack += reversed(node.factors)
        elif isinstance(node, Quotient):
            stack += (node.den, node.num)
        elif not isinstance(node, One):
            raise TypeError(f"not an estimand node: {node!r}")
    return order


def _children(node: Estimand) -> tuple[Estimand, ...]:
    if isinstance(node, SumOver):
        return (node.body,)
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Quotient):
        return node.num, node.den
    return ()


def free_vars(e: Estimand) -> tuple[str, ...]:
    """Sorted names that must be assigned before ``e`` can be evaluated."""
    fmap: dict[int, set[str]] = {}
    for node in _postorder(e):
        if isinstance(node, Prob):
            fv = set(node.of) | set(node.given)
        else:  # the children's, less what a sum binds
            fv = set().union(*(fmap[id(c)] for c in _children(node)))
            if isinstance(node, SumOver):
                fv -= set(node.over)
        fmap[id(node)] = fv
    return tuple(sorted(fmap[id(e)]))


# -- rendering ----------------------------------------------------------------


class _Piece(str):
    """A literal piece of a renderer's output, pushed onto its stack among the
    nodes; a plain string there is a child that is not a node, and is refused."""


_SPACE, _SLASH, _OPEN, _CLOSE = map(_Piece, (" ", " / ", "(", ")"))
_FRAC, _MID, _END, _LEFT, _RIGHT = map(_Piece, ("\\frac{", "}{", "}", "\\left(", "\\right)"))


def _text(e: Estimand, sum_symbol: str = "Σ") -> str:
    """The text form of ``e``, its pieces gathered left to right.

    Literal pieces and nodes share one explicit stack, so any nesting depth renders.
    """
    out: list[str] = []
    stack: list[Estimand | _Piece] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, _Piece):
            out.append(node)
        elif isinstance(node, Prob):
            out.append(node.text)
        elif isinstance(node, Quotient):  # pushed last to first
            for side in (node.den, _SLASH, node.num):
                stack += (side,) if isinstance(side, (_Piece, Prob, One)) else (_CLOSE, side, _OPEN)
        elif isinstance(node, SumOver):
            out.append(f"{sum_symbol}_{{{node.names}}} ")
            stack.append(node.body)
        elif isinstance(node, Product):
            for k, f in enumerate(reversed(node.factors)):
                if k:
                    stack.append(_SPACE)
                stack += (_CLOSE, f, _OPEN) if isinstance(f, Quotient) else (f,)
        elif isinstance(node, One):
            out.append("1")
        else:
            raise TypeError(f"not an estimand node: {node!r}")
    return "".join(out)


@contextlib.contextmanager
def _nesting_limit():
    """Report a tree too deep for the interpreter stack as ``ValueError``."""
    try:
        yield
    except RecursionError:
        raise ValueError("estimand nesting is too deep") from None


def _latex(e: Estimand) -> Iterator[str]:
    """The LaTeX form of ``e``, yielded left to right from one explicit stack
    like :func:`_text`; each ``Prob`` label is formatted once per call."""
    labels: dict[int, str] = {}
    stack: list[Estimand | _Piece] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, _Piece):
            yield node
        elif isinstance(node, Prob):
            label = labels.get(id(node))
            if label is None:
                given = ", ".join(node.given + ("S=1",))
                label = labels[id(node)] = f"P({', '.join(node.of)} \\mid {given})"
            yield label
        elif isinstance(node, Quotient):  # pushed last to first
            stack += (_END, node.den, _MID, node.num, _FRAC)
        elif isinstance(node, SumOver):
            yield f"\\sum_{{{', '.join(node.over)}}} "
            stack.append(node.body)
        elif isinstance(node, Product):
            for k, f in enumerate(reversed(node.factors)):
                if k:
                    stack.append(_SPACE)
                stack += (_RIGHT, f, _LEFT) if isinstance(f, SumOver) else (f,)
        elif isinstance(node, One):
            yield "1"
        else:
            raise TypeError(f"not an estimand node: {node!r}")


def estimand_to_dict(e: Estimand) -> dict:
    """The JSON object of ``e``, at any depth.  A subtree that ``e`` holds more
    than once (the same object) maps to one shared dict."""
    out: dict[int, dict] = {}
    for node in _postorder(e):
        if isinstance(node, One):
            d = {"kind": "one"}
        elif isinstance(node, Prob):
            d = {"kind": "prob", "of": list(node.of), "given": list(node.given)}
        elif isinstance(node, SumOver):
            d = {"kind": "sum", "over": list(node.over), "body": out[id(node.body)]}
        elif isinstance(node, Product):
            d = {"kind": "product", "factors": [out[id(f)] for f in node.factors]}
        else:  # a Quotient: _postorder refuses anything that is not a node
            d = {"kind": "quotient", "num": out[id(node.num)], "den": out[id(node.den)]}
        out[id(node)] = d
    return out[id(e)]


def estimand_from_dict(d: Mapping) -> Estimand:
    """Rebuild an estimand through the constructors; malformed input raises ``ValueError``."""
    with _nesting_limit():
        return _from_dict(d)


def _from_dict(d: object) -> Estimand:
    if not isinstance(d, Mapping):
        raise ValueError(f"estimand node must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "one":
        return ONE
    if kind == "prob":
        return prob(d.get("of"), d.get("given", ()))
    if kind == "sum":
        return sum_over(d.get("over"), _from_dict(d.get("body")))
    if kind == "product":
        factors = d.get("factors")
        if not isinstance(factors, list):
            raise ValueError("product node needs a list of factors")
        return product(_from_dict(f) for f in factors)
    if kind == "quotient":
        return quotient(_from_dict(d.get("num")), _from_dict(d.get("den")))
    raise ValueError(f"unknown estimand node kind: {kind!r}")


def to_json(e: Estimand) -> str:
    """Compact JSON text of ``e``; a tree too deep for the ``json`` module raises
    ``ValueError``."""
    with _nesting_limit():
        return json.dumps(estimand_to_dict(e), sort_keys=True, separators=(",", ":"))


def from_json(text: str | bytes | bytearray) -> Estimand:
    """Parse :func:`to_json` output.  Malformed or too deeply nested text, and a
    ``text`` that is not a ``str``, ``bytes`` or ``bytearray``, raise ``ValueError``."""
    with _nesting_limit():
        try:
            d = json.loads(text)
        except TypeError:
            raise ValueError(
                f"text must be a str, bytes or bytearray of JSON, got {type(text).__name__}"
            ) from None
    return estimand_from_dict(d)


def render(e: Estimand, fmt: str = "text", *, unicode_sum: bool = True) -> str:
    """Render as ``text`` (``Σ``/``Sum`` prefix form), ``latex``, or ``json``.

    Text and latex render at any depth; json raises ``ValueError`` for a tree
    too deep for the ``json`` module.

    The text form is for reading, not parsing back: two distinct trees can
    render the same text, because a sum that is a non-last factor of a
    product is not parenthesised.  With ``f = Σ_A (P(X) · Σ_B P(Y) · Σ_C P(W|B))``
    and ``f2 = Σ_A (P(X) · Σ_B (P(Y) · Σ_C P(W|B)))`` (B is free in ``f`` only),
    both read ``Σ_{A} P(X|S=1) Σ_{B} P(Y|S=1) Σ_{C} P(W|B,S=1)``; names holding
    a comma (``prob(["a,b"])`` against ``prob(["a", "b"])``) collide likewise.
    LaTeX (which wraps such sums in ``\\left(…\\right)``) and JSON tell them apart.
    """
    if fmt == "text":
        return _text(e, "Σ" if unicode_sum else "Sum")
    if fmt == "latex":
        return "".join(_latex(e))
    if fmt == "json":
        return to_json(e)
    raise ValueError(f"unknown render format {fmt!r} (expected text, latex, or json)")


# -- post-intervention factors over the sub-population -------------------------


@dataclass(frozen=True)
class QsFactor:
    """A symbolic post-intervention factor of the selected sub-population.

    ``scope`` is a subset of the observed vertices outside the selection
    vertex's ancestry; ``expr`` evaluates, on the observational table of any
    positive model compatible with the graph, to the probability of ``scope``
    under intervention on the rest of that non-ancestral part, conditioned on
    the selection ancestry and on being selected.
    """

    scope: tuple[str, ...]
    expr: Estimand


def _component_factors(
    order: tuple[str, ...], factor: QsFactor, comps: Iterable[tuple[str, ...]]
) -> list[QsFactor]:
    """``qs_decompose``'s factor of each s-component in ``comps``, in order;
    ``order`` orders the scope.  A component's factor is one ratio
    P_b / P_{a-1} per maximal run a..b of its positions, so only the prefix
    marginals at the run boundaries of ``comps`` are built, each once, by ``_sum``."""
    pos = {v: i for i, v in enumerate(order, start=1)}
    runs: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    needed = set()  # a - 1 and b of every run a..b
    for comp in comps:
        positions = sorted(map(pos.__getitem__, comp))
        runs[comp] = spans = []
        start = positions[0]
        for prev, p in zip(positions, positions[1:]):
            if p != prev + 1:  # the run that started at ``start`` ends at ``prev``
                spans.append((start, prev))
                needed.update((start - 1, prev))
                start = p
        spans.append((start, positions[-1]))
        needed.update((start - 1, positions[-1]))
    needed -= {0, len(order)}
    marginals: dict[int, Estimand] = {len(order): factor.expr, 0: ONE}
    tail: list[str] = []  # order[i:], sorted: the names that P_i sums out
    for i in range(len(order) - 1, min(needed, default=len(order)) - 1, -1):
        bisect.insort(tail, order[i])
        if i in needed:  # runs that meet share their boundary
            marginals[i] = _sum(tuple(tail), factor.expr)
    factors = []
    for comp, spans in runs.items():
        ratios = [marginals[b] if a == 1 else Quotient(marginals[b], marginals[a - 1])
                  for a, b in spans]  # P_b / P_{a-1}, the factor of the run a..b
        # two ratios could only cancel across adjacent runs, and maximal runs
        # are never adjacent, so of product() only the sort is left to do
        expr = ratios[0] if len(ratios) == 1 else Product(tuple(sorted(ratios, key=_TextKey)))
        factors.append(QsFactor(comp, expr))
    return factors
