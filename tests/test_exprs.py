import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_normal_form,
    random_bundle_graph,
    random_element,
    random_expr_tree,
    random_path_into,
)
from leavitt import examples
from leavitt.algebra import AlgebraElement
from leavitt.errors import ParseError, UnknownSymbolError
from leavitt.exprs import (
    Diff,
    EdgeSym,
    GhostSym,
    Lit,
    Neg,
    Prod,
    Sum,
    VertexSym,
    evaluate,
    normalize,
    parse_expr,
)
from leavitt.graph import Graph, graph_from_json, graph_to_json
from leavitt.scalars import ExtensionField, LaurentPoly


def test_parse_shapes(toeplitz):
    tree = parse_expr(toeplitz, "1 + 2*f^*")
    assert tree == Sum(Lit(Fraction(1)), Prod(Lit(Fraction(2)), GhostSym("f")))
    tree = parse_expr(toeplitz, "u - e")
    assert tree == Diff(VertexSym("u"), EdgeSym("e"))


def test_parse_breaking_vertex_expression(double_emitter):
    tree = parse_expr(double_emitter, "(w - f*f^*)*f^*")
    assert evaluate(double_emitter, tree) is not None


def test_precedence_and_parens(toeplitz):
    assert normalize(toeplitz, "1 + 2*f - f") == normalize(toeplitz, "1 + f")
    assert normalize(toeplitz, "(1 + 2*f) - f - f") == normalize(toeplitz, "1")
    assert normalize(toeplitz, "-f + f").is_zero()
    assert normalize(toeplitz, "2*-f") == normalize(toeplitz, "-2*f")
    assert normalize(toeplitz, "1/2*f + 1/2*f") == normalize(toeplitz, "f")


def test_parse_errors(toeplitz):
    for bad in ["e^* *", "e f", "2f", "(f", "f)", "", "*f", "f^", "1.5*f"]:
        with pytest.raises(ParseError):
            parse_expr(toeplitz, bad)
    # the position is the bad character's own, not the whitespace before it
    with pytest.raises(ParseError, match=r"unexpected character '\$' at position 3$"):
        parse_expr(toeplitz, "e  $")
    with pytest.raises(ParseError, match=r"unexpected character '\^' at position 1$"):
        parse_expr(toeplitz, "e^ *")
    for text, message in [
        ("e f", "trailing input at position 2: 'f'"),
        ("(f", "expected ')' at position 2, found 'end of input'"),
        ("(f e)", "expected ')' at position 3, found 'e'"),
        ("*f", "expected a factor at position 0, found '*'"),
        ("f +  ", "expected a factor at position 5, found 'end of input'"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_expr(toeplitz, text)


def test_zero_denominator_is_a_parse_error(toeplitz):
    for text, at in [("2/0*e", 0), ("1 + 2 / 0*f^*", 4), ("e*(3/00)", 3), ("2\t/0*e", 0)]:
        with pytest.raises(ParseError, match=f"zero denominator in .* at position {at}$"):
            parse_expr(toeplitz, text)
    assert normalize(toeplitz, "0/3*e + 2/4*f") == normalize(toeplitz, "1/2*f")
    assert normalize(toeplitz, "2\t/3*e") == normalize(toeplitz, "2/3*e")


def test_unknown_and_misused_symbols(toeplitz, double_emitter):
    with pytest.raises(UnknownSymbolError):
        parse_expr(toeplitz, "zz")
    with pytest.raises(UnknownSymbolError):
        parse_expr(toeplitz, "u^*")
    with pytest.raises(UnknownSymbolError):
        parse_expr(double_emitter, "bv")  # bundles are not generators


def test_minted_and_primed_identifiers():
    from leavitt import examples
    from leavitt.graph import quotient_graph

    g, _ = examples.double_emitter().with_minted("bv")
    assert normalize(g, "bv#0 * bv#0^*") is not None
    q = quotient_graph(examples.double_emitter(), {"u"}, {"v"})
    assert normalize(q, "f' * f'^*") is not None


def test_print_parse_roundtrip(any_graph):
    rng = random.Random(31)
    for _ in range(120):
        elem = random_element(rng, any_graph)
        assert normalize(any_graph, str(elem)) == elem


def test_reading_back_a_normal_form_adds_in_one_dict(any_graph, monkeypatch):
    rng = random.Random(5)
    elems = [random_element(rng, any_graph, depth=4) for _ in range(10)]
    adds = []
    real_add = AlgebraElement.__add__

    def counted(self, other):
        adds.append(1)
        return real_add(self, other)

    monkeypatch.setattr(AlgebraElement, "__add__", counted)
    for elem in elems:
        assert normalize(any_graph, str(elem)) == elem
    assert adds == []


def test_long_sums_and_products_read_back():
    # 1500 summands and a 1500-edge path: deeper than the recursion limit
    g = Graph(["v"], [(f"e{i}", "v", "v") for i in range(1500)])
    wide = normalize(g, " + ".join(f"{i + 1}*e{i}" for i in range(1500)))
    assert len(wide.terms) == 1500 and normalize(g, str(wide)) == wide
    deep = normalize(g, "*".join(["e7"] * 1500))
    assert [len(m.gamma.edges) for m in deep.terms] == [1500]
    assert normalize(g, str(deep)) == deep


def test_sum_of_every_vertex_parses_in_linear_time():
    # each identifier is looked up in the graph's vertex table, not in a
    # fresh set of all vertices
    n = 20000
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])
    start = time.perf_counter()
    got = normalize(g, " + ".join(vs))
    assert time.perf_counter() - start < 2
    assert got == AlgebraElement.one(g)


# names the identifier pattern allows, biased towards "_", "#" and "'"
_NAMES = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from("aZ_"),
    st.text(alphabet="b1_#'", max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_NAMES, min_size=2, max_size=9, unique=True), st.integers(0, 2**32 - 1))
def test_print_parse_roundtrip_on_random_json_names(names, seed):
    rng = random.Random(seed)
    n = rng.randint(1, min(4, len(names) - 1))
    verts, arrows = names[:n], names[n:]
    bundles = []
    if n >= 2 and rng.random() < 0.5:
        bundles.append((arrows.pop(), *rng.sample(verts, 2)))
    edges = [(name, rng.choice(verts), rng.choice(verts)) for name in arrows]
    g = graph_from_json(graph_to_json(Graph(verts, edges, bundles)))
    graphs = [g] + [g.with_minted(b[0])[0].with_minted(b[0])[0] for b in bundles]
    for h in graphs:
        for _ in range(4):
            elem = random_element(rng, h)
            assert normalize(h, str(elem)) == elem


@pytest.mark.parametrize("text, k", [("-2*e1", -2), ("(-2)*e1", -2), ("--2*e1", 2)])
def test_negated_literal_factors_fold_into_the_scalar(cycle_with_side_loop, monkeypatch, text, k):
    # a run of minus signs around a literal factor is part of the scalar, so
    # no product has the |V|-term element -2 * 1 as a factor
    g = cycle_with_side_loop
    identity = set(AlgebraElement.one(g).terms)
    factors = []
    mul = AlgebraElement.mul

    def recorded(self, other):
        factors.extend((self, other))
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "mul", recorded)
    got = normalize(g, text)
    assert not [f for f in factors if identity <= set(f.terms)]
    assert got == normalize(g, "e1").scale(k)


def _base_change_tree(rng, g, depth):
    """A random_expr_tree, a fraction or the sum of every vertex, under a
    run of zero to two minus signs, combined with a sibling by +, - or *."""
    kind = rng.randrange(3)
    if kind == 0:
        node = random_expr_tree(rng, g, rng.randint(0, 2))
    elif kind == 1:
        node = Lit(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    else:
        node = VertexSym(g.vertices[0])
        for v in g.vertices[1:]:
            node = Sum(node, VertexSym(v))
    for _ in range(rng.randrange(3)):
        node = Neg(node)
    if depth <= 0:
        return node
    other = _base_change_tree(rng, g, depth - 1)
    return rng.choice([Sum, Diff, Prod, Prod])(node, other)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extension_normal_form_is_the_rational_one_embedded(seed):
    # L_K'(E) = K' (x) L_Q(E) on the same monomial basis, and expressions
    # name only rationals, so the normal form over K' is the one over Q
    # with its scalars embedded; both agree with the brute-force expansion
    rng = random.Random(seed)
    g = random_bundle_graph(rng)
    field = ExtensionField(LaurentPoly.parse("1+x+x^2"))
    tree = _base_change_tree(rng, g, rng.randint(1, 3))
    over_q = evaluate(g, tree)
    over_k = evaluate(g, tree, field)
    assert over_k == over_q.with_field(field)
    assert over_k.field is field
    want = brute_normal_form(g, tree, seed)
    assert over_q.terms == want
    assert over_k.terms == {m: field.coerce(c) for m, c in want.items()}


# graphs where (CK2) fires (regular vertices) and where it does not
# (infinite emitters and sinks)
_CHAIN_GRAPHS = [Graph(["v"], [(f"r{i}", "v", "v") for i in range(1, n + 1)]) for n in (2, 3)]
_CHAIN_GRAPHS += [make() for _, make in sorted(examples.ALL.items())]


def _generator_chain(rng, g) -> str:
    """A product chain of generators with literal and minus factors.  Half
    the chains spell a composable g l*, whose paths often end in the same
    edge, as in f*f^*; the others are random and mostly do not compose."""
    if rng.random() < 0.5:
        w = rng.choice(g.vertices)
        gamma, lam = random_path_into(rng, g, w), random_path_into(rng, g, w)
        if gamma.edges and rng.random() < 0.5:
            lam = random_path_into(rng, g, g.edges[gamma.edges[-1]].src)
            lam = lam._replace(edges=lam.edges + gamma.edges[-1:])
        factors = list(gamma.edges) + [f"{e}^*" for e in reversed(lam.edges)]
        if not factors or rng.random() < 0.3:
            factors.insert(rng.randint(0, len(factors)), rng.choice([gamma.source, w]))
    else:
        names = sorted(g.edges)
        factors = [
            rng.choice([rng.choice(g.vertices), rng.choice(names), f"{rng.choice(names)}^*"])
            for _ in range(rng.randint(1, 4))
        ]
    for _ in range(rng.randint(0, 2)):
        factors.insert(rng.randint(0, len(factors)), rng.choice(["2", "1/2", "(3)", "2/2", "0"]))
    return "*".join("-" * rng.choice([0, 0, 0, 1, 2]) + f for f in factors)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generator_chains_inside_sums_match_the_oracle(seed):
    # generator chains fold into one monomial each, reduced once and added
    # into the sum's dict; check against expanding every product on raw
    # monomials and reducing the whole expansion once, over Q and over K'
    rng = random.Random(seed)
    g = rng.choice(_CHAIN_GRAPHS) if rng.random() < 0.7 else random_bundle_graph(rng)
    chains = [_generator_chain(rng, g) for _ in range(rng.randint(1, 4))]
    text = chains[0] + "".join(rng.choice([" + ", " - "]) + chain for chain in chains[1:])
    got = normalize(g, text)
    want = brute_normal_form(g, parse_expr(g, text), seed)
    assert got.terms == want, text
    # a chain's scalar is an int when integral, and so is every coefficient
    # its reduction emits (sums of fractions may still give integral Fractions)
    for chain in chains:
        assert all(type(c) is int for c in normalize(g, chain).terms.values() if c == int(c)), chain
    field = ExtensionField(LaurentPoly.parse("1+x+x^2"))
    over_k = normalize(g, text, field)
    assert over_k.field is field
    assert over_k.terms == {m: field.coerce(c) for m, c in want.items()}, text


def test_a_chain_stops_at_its_first_zero_partial_product(monkeypatch):
    # x * (relation) * y: the partial product x * (relation) is zero, so no
    # product with the factors of y runs after it
    g = _CHAIN_GRAPHS[0]  # the rose R2, where r2 is the special edge
    x = "(1 + 2*r1 + 3*r2^*)*(1 + r1*r2^*)"
    y = "(1 + 2*r2)*(1 + r1^*)"
    results = []
    mul = AlgebraElement.mul

    def recorded(self, other):
        results.append(mul(self, other))
        return results[-1]

    monkeypatch.setattr(AlgebraElement, "mul", recorded)
    # a parenthesized product joins the chain, so r1^* and r2 are two factors
    for relation, products in [("v - r1*r1^* - r2*r2^*", 2), ("r1^**r1 - v", 2), ("r1^**r2", 3)]:
        results.clear()
        assert normalize(g, f"{x}*({relation})*{y}").is_zero()
        assert [r.is_zero() for r in results] == [False] * (products - 1) + [True], relation
