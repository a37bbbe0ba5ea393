import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    _raw_product,
    brute_normal_form,
    random_bundle_graph,
    random_element,
    random_expr_tree,
    random_path_into,
    raw_monomials,
    raw_terms,
    relation_elements,
    shuffled_reduction,
    special_edge_of,
)
from leavitt import algebra, examples
from leavitt.algebra import (
    AlgebraElement,
    PathMonomial,
    _mono_mul,
    eval_group_word,
    invert_unipotent,
)
from leavitt.errors import (
    MixedGraphsError,
    NotReducedError,
    NotSquareZeroError,
)
from leavitt.exprs import evaluate, normalize
from leavitt.freeness import find_free_generators, verify_free_words
from leavitt.graph import Graph, Path
from leavitt.modules import RationalPathModule
from leavitt.scalars import ExtensionField, LaurentPoly


def test_ck1_annihilation(toeplitz):
    assert normalize(toeplitz, "e^* * f").is_zero()
    assert normalize(toeplitz, "f^* * f") == AlgebraElement.vertex(toeplitz, "v")


def test_ck2_at_regular_vertex(toeplitz):
    assert normalize(toeplitz, "u - e*e^* - f*f^*").is_zero()


def test_identity_is_vertex_sum(toeplitz):
    one = normalize(toeplitz, "1")
    assert one == AlgebraElement.vertex(toeplitz, "u") + AlgebraElement.vertex(toeplitz, "v")
    assert str(one) == "u + v"


def test_all_relations_normalize_to_zero(any_graph):
    for label, elem in relation_elements(any_graph):
        assert elem.is_zero(), label


def test_mul_expansion_against_term_oracle(toeplitz):
    # (1+2f)(1+2f^*) expanded term by term: 1 + 2f + 2f^* + 4 f f^*
    lhs = normalize(toeplitz, "(1 + 2*f) * (1 + 2*f^*)")
    expanded = normalize(toeplitz, "1 + 2*f + 2*f^* + 4*f*f^*")
    assert lhs == expanded


def test_orthogonal_paths_vanish(toeplitz):
    assert normalize(toeplitz, "f * f").is_zero()


def test_add_scale(toeplitz):
    a = normalize(toeplitz, "f + f")
    assert a == normalize(toeplitz, "2*f")
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    x = random_element(random.Random(1), toeplitz)
    assert (x + (-1) * x).is_zero()
    assert (0 * x).is_zero()


def test_star_examples(toeplitz):
    ef = normalize(toeplitz, "e * f")
    assert ef.star() == normalize(toeplitz, "f^* * e^*")
    one = normalize(toeplitz, "1")
    assert one.star() == one
    assert normalize(toeplitz, "2*f + u").star() == normalize(toeplitz, "2*f^* + u")


def test_canonicity_under_shuffled_reduction(any_graph):
    # one-pass reduction after every product agrees with reducing the whole
    # unreduced expansion once, in two random worklist orders
    rng = random.Random(99)
    for i in range(150):
        tree = random_expr_tree(rng, any_graph, depth=3)
        got = evaluate(any_graph, tree).terms
        assert got == brute_normal_form(any_graph, tree, 1000 + i)
        assert got == brute_normal_form(any_graph, tree, 77777 - i)


ROSES_AND_FIXTURES = [
    Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")]),
    Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")]),
    Graph(["v", "w"], [("e1", "v", "v"), ("e2", "v", "v"), ("f", "v", "w"), ("g", "w", "v")]),
] + [examples.ALL[name]() for name in sorted(examples.ALL)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ROSES_AND_FIXTURES), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_from_terms_matches_shuffled_worklist_on_special_tails(g, seed, count):
    # raw monomials p t (q t)* with t a run of up to 6 special edges, such
    # as powers of the special loop on a rose, reduce edge by edge
    rng = random.Random(seed)
    raw = []
    for _ in range(count):
        r = rng.choice(g.vertices)
        tail, end = (), r
        for _ in range(rng.randint(0, 6)):
            d = special_edge_of(g, end)
            if d is None:
                break
            tail, end = tail + (d,), g.edges[d].dst
        p, q = random_path_into(rng, g, r, 3), random_path_into(rng, g, r, 3)
        mono = PathMonomial(Path(p.source, p.edges + tail), Path(q.source, q.edges + tail))
        raw.append((mono, Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))))
    got = AlgebraElement.from_terms(g, raw).terms
    assert got == shuffled_reduction(g, raw, seed)
    assert got == shuffled_reduction(g, raw, seed + 1)


CUBIC_UNITS = ExtensionField(LaurentPoly.parse("1 + x + x^2"))


def _random_cubic_unit(rng):
    x = CUBIC_UNITS.generator()
    return x * rng.choice([-2, -1, 1, 3]) + rng.choice([-1, 1, 2])


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, len(ROSES_AND_FIXTURES) + 9),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["rational", "left", "both"]),
)
def test_product_matches_raw_expansion(index, seed, extension):
    # every term pair is multiplied by the graph-data oracle, nothing is
    # skipped, and the whole raw product is reduced once in a shuffled order
    rng = random.Random(seed)
    if index < len(ROSES_AND_FIXTURES):
        g = ROSES_AND_FIXTURES[index]
    else:
        g = random_bundle_graph(rng)
    x, y = random_element(rng, g), random_element(rng, g)
    if extension != "rational":
        x = x.scale(_random_cubic_unit(rng))
    if extension == "both":
        y = y.scale(_random_cubic_unit(rng))
    raw = raw_monomials(_raw_product(raw_terms(x), raw_terms(y)))
    assert (x * y).terms == shuffled_reduction(g, raw, seed)


def test_products_try_only_composable_pairs(monkeypatch):
    # (g l*)(r n*) = 0 unless s(l) = s(r): over every reduced word of length
    # <= 3 of the example certificates, _mono_mul only sees pairs with
    # matching sources and at most 3 of them per nonzero product
    certs = [c for name in sorted(examples.ALL) for c in find_free_generators(examples.ALL[name]())]
    assert len(certs) == 17
    seen = {"tried": 0, "nonzero": 0, "mismatched": 0}
    mono_mul = algebra._mono_mul

    def counting(m1, m2):
        seen["tried"] += 1
        seen["mismatched"] += m1.lam.source != m2.gamma.source
        prod = mono_mul(m1, m2)
        seen["nonzero"] += prod is not None
        return prod

    monkeypatch.setattr(algebra, "_mono_mul", counting)
    for cert in certs:
        assert verify_free_words(cert, 3, "both")["all_nontrivial"]
    assert seen["mismatched"] == 0, seen
    assert seen["nonzero"] > 0 and seen["tried"] <= 3 * seen["nonzero"], seen


def test_star_is_written_down_directly(any_graph, monkeypatch):
    elems = [random_element(random.Random(i), any_graph) for i in range(20)]
    swapped = [[(m.star(), c) for m, c in e.terms.items()] for e in elems]
    expected = [AlgebraElement.from_terms(any_graph, raw) for raw in swapped]

    def refuse(*args, **kwargs):
        raise AssertionError("star renormalized")

    monkeypatch.setattr(AlgebraElement, "from_terms", classmethod(refuse))
    monkeypatch.setattr(AlgebraElement, "mul", refuse)
    for e, want in zip(elems, expected):
        assert e.star() == want


def test_ring_axioms_random(any_graph):
    rng = random.Random(17)
    for _ in range(60):
        a = random_element(rng, any_graph)
        b = random_element(rng, any_graph)
        c = random_element(rng, any_graph)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        one = AlgebraElement.one(any_graph)
        assert one * a == a and a * one == a


def test_involution_random(any_graph):
    rng = random.Random(23)
    for _ in range(60):
        a = random_element(rng, any_graph)
        b = random_element(rng, any_graph)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_invert_unipotent(toeplitz):
    t = normalize(toeplitz, "2*f")
    u, u_inv = invert_unipotent(t)
    one = AlgebraElement.one(toeplitz)
    assert u * u_inv == one and u_inv * u == one
    assert u == normalize(toeplitz, "1 + 2*f")
    assert u_inv == normalize(toeplitz, "1 - 2*f")


def test_invert_unipotent_breaking_element(double_emitter):
    from leavitt.ideals import breaking_vertex_element

    wh = breaking_vertex_element(double_emitter, {"u"}, "w")
    t = (AlgebraElement.edge(double_emitter, "f") * wh).scale(2)
    u, u_inv = invert_unipotent(t)
    one = AlgebraElement.one(double_emitter)
    assert u * u_inv == one and u_inv * u == one


def test_invert_unipotent_rejects_idempotent(toeplitz):
    with pytest.raises(NotSquareZeroError):
        invert_unipotent(AlgebraElement.vertex(toeplitz, "u"))


def test_eval_group_word(toeplitz):
    a, a_inv = invert_unipotent(normalize(toeplitz, "2*f^*"))
    b, b_inv = invert_unipotent(normalize(toeplitz, "2*f"))
    gens = ((a, a_inv), (b, b_inv))
    assert eval_group_word(gens, "") == AlgebraElement.one(toeplitz)
    assert eval_group_word(gens, "aB") == a * b_inv
    with pytest.raises(NotReducedError):
        eval_group_word(gens, "aA")
    with pytest.raises(NotReducedError):
        eval_group_word(gens, "bBa")
    with pytest.raises(NotReducedError):
        eval_group_word(gens, "xyz")


def test_eval_group_word_homomorphism(toeplitz):
    a, a_inv = invert_unipotent(normalize(toeplitz, "2*f^*"))
    b, b_inv = invert_unipotent(normalize(toeplitz, "2*f"))
    gens = ((a, a_inv), (b, b_inv))
    rng = random.Random(4)
    letters = "aAbB"
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for _ in range(40):
        w1 = ""
        for _ in range(rng.randint(0, 4)):
            choices = [c for c in letters if not w1 or inverse[w1[-1]] != c]
            w1 += rng.choice(choices)
        w2 = ""
        for _ in range(rng.randint(0, 4)):
            choices = [c for c in letters if not w2 or inverse[w2[-1]] != c]
            w2 += rng.choice(choices)
        if w1 and w2 and inverse[w1[-1]] == w2[0]:
            continue  # concatenation not freely reduced
        assert eval_group_word(gens, w1 + w2) == eval_group_word(gens, w1) * eval_group_word(gens, w2)


def test_mixed_graphs_rejected(toeplitz, chained_loops):
    with pytest.raises(MixedGraphsError):
        AlgebraElement.vertex(toeplitz, "u") * AlgebraElement.vertex(chained_loops, "u")


def test_equal_graph_objects_interoperate():
    g1 = Graph(["u"], [("e", "u", "u")])
    g2 = Graph(["u"], [("e", "u", "u")])
    x = AlgebraElement.edge(g1, "e") * AlgebraElement.edge(g2, "e")
    assert x == AlgebraElement.from_terms(
        g1, [(x.sorted_terms()[0][0], Fraction(1))]
    )


def test_term_order_is_canonical(double_emitter):
    # vertices sort before ghosts at the same base: (len g, g, len l, l)
    elem = normalize(double_emitter, "w - f*f^* + 2*a^* + u")
    assert str(elem) == "u + w + 2*a^* - f*f^*"
    again = normalize(double_emitter, str(elem))
    assert str(again) == str(elem)


def test_ghost_paths_stay_reduced(chained_loops):
    # f is the special edge at u (max of {e, f}); ff* rewrites, ee* stays
    assert normalize(chained_loops, "f*f^*") == normalize(chained_loops, "u - e*e^*")
    lhs = normalize(chained_loops, "e*e^*")
    assert str(lhs) == "e*e^*"


def test_non_integer_coefficients_stay_exact(toeplitz):
    g = toeplitz
    half = normalize(g, "1/2*e")
    assert [type(c) for c in half.terms.values()] == [Fraction]
    assert str(half) == "1/2*e"
    assert half * normalize(g, "2*e^*") == normalize(g, "e*e^*")
    two_halves = normalize(g, "2/2*e")
    assert two_halves == normalize(g, "e")
    assert hash(two_halves) == hash(normalize(g, "e"))
    assert [type(c) for c in two_halves.terms.values()] == [int]


def test_paths_and_monomials_agree_across_routes(toeplitz):
    g = toeplitz  # loop e at u, f from u to the sink v
    routes = [
        g.path("u", ["e", "f"]),
        Path("u", ("e", "f")),
        Path._make(["u", ("e", "f")]),
    ]
    assert all(p == routes[0] and hash(p) == hash(routes[0]) for p in routes)
    assert Path._fields == ("source", "edges")
    assert (routes[0].source, routes[0].edges) == ("u", ("e", "f"))
    assert g.range_of(routes[0]) == "v" and g.range_of(g.trivial_path("u")) == "u"

    direct = PathMonomial(routes[0], g.trivial_path("v"))
    product = _mono_mul(
        PathMonomial(g.edge_path("e"), g.trivial_path("u")),
        PathMonomial(g.edge_path("f"), g.trivial_path("v")),
    )
    assert product == direct and hash(product) == hash(direct)
    assert direct.star().star() == direct
    assert {direct: 1}[product] == 1
    assert (AlgebraElement.edge(g, "e") * AlgebraElement.edge(g, "f")).terms == {direct: 1}

    module = RationalPathModule(g, g.path("u", ["e"]))
    absorbed = module.vector_from(g.edge_path("e"), 0)  # e . e^inf is e^inf
    built = g.trivial_path("u")
    assert absorbed == built == module.base and hash(absorbed) == hash(built)
    image = module.act(AlgebraElement.edge(g, "e"), module.basis_vector(built))
    assert image.terms == {built: 1}
