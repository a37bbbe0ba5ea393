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
import leavitt
from leavitt import algebra, examples, freeness
from leavitt.algebra import (
    AlgebraElement,
    PathMonomial,
    _mono_mul,
    invert_unipotent,
)
from leavitt.errors import (
    FieldMismatchError,
    MixedGraphsError,
    NotReducedError,
    NotSquareZeroError,
)
from leavitt.exprs import evaluate, normalize, parse_expr
from leavitt.freeness import eval_group_word, find_free_generators, verify_free_words
from leavitt.graph import Graph, Path
from leavitt.modules import RationalPathModule
from leavitt.scalars import QQ, ExtensionField, ExtensionScalar, LaurentPoly


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


def test_reduction_sees_only_exact_match_products(monkeypatch):
    # of the composable pairs (g l*)(r n*), only l = r can leave basis form:
    # over every reduced word of length <= 3 of the example certificates,
    # _normalize_terms receives, while mul runs, exactly one monomial per
    # term pair with l = r, counted here by an independent loop
    certs = [c for name in sorted(examples.ALL) for c in find_free_generators(examples.ALL[name]())]
    assert len(certs) == 17
    seen = {"in_mul": 0, "received": 0, "exact": 0}
    normalize_terms, mul = algebra._normalize_terms, AlgebraElement.mul

    def counting_normalize(g, items, *rest):
        items = list(items)
        if seen["in_mul"]:
            seen["received"] += len(items)
        return normalize_terms(g, items, *rest)

    def counting_mul(self, other):
        seen["exact"] += sum(m1.lam == m2.gamma for m1 in self.terms for m2 in other.terms)
        seen["in_mul"] += 1
        try:
            return mul(self, other)
        finally:
            seen["in_mul"] -= 1

    monkeypatch.setattr(algebra, "_normalize_terms", counting_normalize)
    monkeypatch.setattr(AlgebraElement, "mul", counting_mul)
    for cert in certs:
        assert verify_free_words(cert, 3, "both")["all_nontrivial"]
    assert seen["exact"] > 0 and seen["received"] == seen["exact"], seen


def _rose(n):
    return Graph(["v"], [(f"r{i}", "v", "v") for i in range(1, n + 1)])


PRODUCT_GRAPHS = {f"R{n}": _rose(n) for n in range(2, 6)}
PRODUCT_GRAPHS.update((name, make()) for name, make in examples.ALL.items())


def _unit_factor(rng, g):
    # 1 + c e + c f^* (+ c e h^* when r(e) = r(h)), the shape of a unit
    # offset 1 + T, with seeded letters and coefficients c in {1, 2, 3}
    e, f, h = (rng.choice(sorted(g.edges)) for _ in range(3))
    parts = ["1", f"{rng.choice([1, 2, 3])}*{e}", f"{rng.choice([1, 2, 3])}*{f}^*"]
    if g.edges[h].dst == g.edges[e].dst:
        parts.append(f"{rng.choice([1, 2, 3])}*{e}*{h}^*")
    return "(" + " + ".join(parts) + ")"


def _six_factor_products(name, count=3):
    g = PRODUCT_GRAPHS[name]
    rng = random.Random(f"six factors/{name}")
    return g, ["*".join(_unit_factor(rng, g) for _ in range(6)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(PRODUCT_GRAPHS))
def test_six_factor_products_match_the_oracle(name):
    # a product chain of unit-shaped factors, as the normalize benchmark
    # writes them, against expanding every product on raw monomials and
    # reducing once; over K' it is the same element with its scalars embedded
    g, texts = _six_factor_products(name)
    field = ExtensionField(LaurentPoly.parse("1+x+x^2"))
    for i, text in enumerate(texts):
        got = normalize(g, text)
        assert got.terms == brute_normal_form(g, parse_expr(g, text), i)
        assert normalize(g, text, field) == got.with_field(field)


def test_rose_products_over_an_extension_multiply_no_extension_scalars(monkeypatch):
    # evaluation runs over Q and embeds the scalars once at the end, so the
    # products of the normalize benchmark's shape make no K' products
    field = ExtensionField(LaurentPoly.parse("1+x+x^2"))
    rational = {}
    for name in ("R2", "R3", "R4", "R5"):
        g, texts = _six_factor_products(name)
        rational[name] = [normalize(g, text) for text in texts]
    calls = []
    mul = ExtensionScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ExtensionScalar, "__mul__", counted)
    monkeypatch.setattr(ExtensionScalar, "__rmul__", counted)
    for name in ("R2", "R3", "R4", "R5"):
        g, texts = _six_factor_products(name)
        for text, want in zip(texts, rational[name]):
            got = normalize(g, text, field)
            assert got.field is field and got == want.with_field(field)
    assert calls == []


@pytest.mark.parametrize("right", ["2*u + 3*e*e^*", "u - 5*v + f", "3*v - f^*", "u + v + e"])
@pytest.mark.parametrize("extension", [False, True])
def test_products_with_a_partial_or_uneven_vertex_part_match_the_oracle(toeplitz, right, extension):
    # a right factor whose vertex terms cover only some sources, or carry
    # different coefficients, passes each g l* through with its own scalar
    rng = random.Random(f"{right}/{extension}")
    y = normalize(toeplitz, right)
    for seed in range(12):
        x = random_element(rng, toeplitz)
        if extension:
            x = x.scale(_random_cubic_unit(rng))
        for left, other in ((x, y), (y, x)):
            raw = raw_monomials(_raw_product(raw_terms(left), raw_terms(other)))
            assert left.mul(other).terms == shuffled_reduction(toeplitz, raw, seed)


def _without_vertex_terms(x):
    return AlgebraElement(x.graph, x.field, {m: c for m, c in x.terms.items() if m.gamma.edges or m.lam.edges})


def _closed_form_factors(rng, g, field):
    """(left, right) factors that reach mul's two closed forms.  Right
    factors: the identity plus x, twice the identity plus x, one vertex plus
    x (x without vertex terms), and sums of ghosts of special edges; left
    factors: random elements, and edges d + x with d special, whose trivial
    l meets the ghost d^* in d d^*, a monomial that (CK2) rewrites."""
    one = AlgebraElement.one(g, field)

    def offset():
        x = _without_vertex_terms(random_element(rng, g)).with_field(field)
        return x.scale(_random_cubic_unit(rng)) if field is CUBIC_UNITS else x

    specials = sorted(d for d in (special_edge_of(g, v) for v in g.vertices) if d)
    rights, lefts = [], []
    for _ in range(2):
        rights += [one + offset(), one.scale(2) + offset(), AlgebraElement.vertex(g, rng.choice(g.vertices), field) + offset()]
        lefts.append(offset())
    for d in specials:
        ghost = AlgebraElement.ghost(g, d, field)
        rights += [ghost, ghost + AlgebraElement.ghost(g, rng.choice(sorted(g.edges)), field)]
        lefts += [AlgebraElement.edge(g, d, field), AlgebraElement.edge(g, d, field) + offset()]
    return lefts, rights


@pytest.mark.parametrize("name", sorted(examples.ALL) + ["R2", "R3"])
@pytest.mark.parametrize("extension", [False, True])
def test_closed_form_products_match_the_oracle(name, extension, monkeypatch):
    # a pure ghost n* on the right is multiplied without _mono_mul: g (n l)*
    # for nonempty l, and g n* (which may reduce) for trivial l; a right
    # factor whose vertex part is the identity passes the left factor through
    # as a copy.  Every product is checked against the raw expansion.
    g = PRODUCT_GRAPHS[name]
    field = CUBIC_UNITS if extension else QQ
    rng = random.Random(f"closed forms/{name}/{extension}")
    lefts, rights = _closed_form_factors(rng, g, field)
    mono_mul = algebra._mono_mul

    def real_pairs_only(m1, m2):
        assert m2.gamma.edges, f"the pure ghost {m2} reached _mono_mul"
        return mono_mul(m1, m2)

    monkeypatch.setattr(algebra, "_mono_mul", real_pairs_only)
    reduced = 0
    for seed, (left, right) in enumerate((x, y) for x in lefts for y in rights):
        raw = raw_monomials(_raw_product(raw_terms(left), raw_terms(right)))
        want = shuffled_reduction(g, raw, seed)
        assert left.mul(right).terms == want, (str(left), str(right))
        reduced += want != {m: c for m, c in raw if c}
    if any(special_edge_of(g, v) for v in g.vertices):
        assert reduced  # (CK2) fired in some product


def test_rose_products_multiply_only_nonzero_non_vertex_pairs(monkeypatch):
    # mul settles a vertex right-hand term, a pure ghost right-hand term
    # (in closed form) and a CK1 clash of first edges itself, so over the
    # rose products every pair _mono_mul sees is nonzero, and every pair
    # that mul sends it has nonempty r (a chain of generators still folds
    # its ghost factors through _mono_mul in add_monomial_product)
    seen, in_mul = [], []
    mono_mul, mul = algebra._mono_mul, AlgebraElement.mul

    def recorded(m1, m2):
        prod = mono_mul(m1, m2)
        seen.append((m2, prod, bool(in_mul)))
        return prod

    def marked(self, other):
        in_mul.append(1)
        try:
            return mul(self, other)
        finally:
            in_mul.pop()

    monkeypatch.setattr(algebra, "_mono_mul", recorded)
    monkeypatch.setattr(AlgebraElement, "mul", marked)
    for name in ("R2", "R3", "R4", "R5"):
        g, texts = _six_factor_products(name)
        for text in texts:
            normalize(g, text)
    assert any(from_mul for _, _, from_mul in seen)
    assert all(prod is not None for _, prod, _ in seen)
    assert all(m2.gamma.edges or m2.lam.edges for m2, _, _ in seen)
    assert all(m2.gamma.edges for m2, _, from_mul in seen if from_mul)


def test_literal_factors_scale_once(toeplitz, monkeypatch):
    calls = []
    mul = AlgebraElement.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "mul", counted)
    # a chain of generators folds into one monomial, so no element product runs
    got = normalize(toeplitz, "2*f*3*f^*")
    assert len(calls) == 0
    assert normalize(toeplitz, "2*3") == normalize(toeplitz, "u + v").scale(6)
    assert normalize(toeplitz, "1/2*e*0").is_zero()
    assert len(calls) == 0
    assert got == normalize(toeplitz, "f*f^*").scale(6) == normalize(toeplitz, "6*u - 6*e*e^*")


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


def test_one_builds_its_monomials_once_per_graph(monkeypatch):
    g = Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")])
    first = AlgebraElement.one(g)
    calls = []
    real = Graph.trivial_path
    monkeypatch.setattr(Graph, "trivial_path", lambda self, v: calls.append(v) or real(self, v))
    again = AlgebraElement.one(g)
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    over_k = AlgebraElement.one(g, field)
    assert calls == []
    assert again == first and again.terms is not first.terms
    assert first == normalize(g, "u + v")
    assert set(over_k.terms.values()) == {field.one} and over_k.terms.keys() == first.terms.keys()


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
    assert leavitt.eval_group_word is freeness.eval_group_word
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
    # a folded generator chain and a negated literal factor keep int too
    for text, want in [("2/2*e*e^*", "e*e^*"), ("-(4/2)*f", "-2*f")]:
        got = normalize(g, text)
        assert got == normalize(g, want) and str(got) == want
        assert {type(c) for c in got.terms.values()} == {int}


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


def test_rational_elements_join_an_extension(toeplitz):
    k1 = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    x = k1.generator()
    f = AlgebraElement.edge(toeplitz, "f")
    scaled = f.scale(x)
    assert scaled.field is k1 and scaled.terms == {m: x for m in f.terms}
    total = f + AlgebraElement.vertex(toeplitz, "u", k1)
    assert total.field is k1 and set(total.terms.values()) == {k1.one}


def test_two_extensions_never_mix(toeplitz):
    k1 = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    k2 = ExtensionField(LaurentPoly.parse("2 + x + x^2"))
    a, b = AlgebraElement.edge(toeplitz, "f", k1), AlgebraElement.vertex(toeplitz, "u", k2)
    for combine in (lambda: a + b, lambda: a * b, lambda: b * a, lambda: a.scale(k2.generator())):
        with pytest.raises(FieldMismatchError):
            combine()
