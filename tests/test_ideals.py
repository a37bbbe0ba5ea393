import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_admissible,
    brute_maximal_tails,
    brute_phi,
    random_bundle_graph,
    random_element,
    random_monomial_element,
)
from leavitt.algebra import AlgebraElement
from leavitt.errors import (
    NotACycleError,
    NotAdmissibleError,
    NotBreakingVertexError,
    TooLargeError,
    TypeIIIMembershipUnsupportedError,
    ZeroConstantTermError,
)
from leavitt.exprs import normalize
from leavitt import examples, ideals
from leavitt.graph import Graph
from leavitt.ideals import (
    DEFAULT_CYCLE_POLY,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    AdmissiblePair,
    IdealDescriptor,
    breaking_vertex_element,
    classify,
    enumerate_admissible,
    poly_at_cycle,
)
from leavitt.scalars import ExtensionField, LaurentPoly


def test_pair_validation(toeplitz, double_emitter):
    with pytest.raises(NotAdmissibleError):
        AdmissiblePair(toeplitz, {"u"})
    with pytest.raises(NotAdmissibleError):
        AdmissiblePair(double_emitter, {"u"}, {"u"})
    pair = AdmissiblePair(double_emitter, {"u"}, {"v", "w"})
    assert pair.breaking == {"v", "w"}
    improper = AdmissiblePair(toeplitz, {"u", "v"})
    with pytest.raises(NotAdmissibleError, match="whole vertex set"):
        improper.phi(AlgebraElement.one(toeplitz))
    assert improper.contains(AlgebraElement.one(toeplitz))


def test_with_s_reuses_breaking_vertices(double_emitter, monkeypatch):
    base = AdmissiblePair(double_emitter, {"u"})
    monkeypatch.setattr(Graph, "breaking_vertices", lambda self, H: pytest.fail("recomputed B_H"))
    pair = base.with_S({"v"})
    assert (pair.H, pair.S, pair.breaking) == (frozenset({"u"}), frozenset({"v"}), base.breaking)
    assert base.S == frozenset()
    with pytest.raises(NotAdmissibleError, match="not a subset of the breaking vertices"):
        base.with_S({"u"})
    monkeypatch.undo()
    assert pair == AdmissiblePair(double_emitter, {"u"}, {"v"})
    assert pair.quotient_graph() == AdmissiblePair(double_emitter, {"u"}, {"v"}).quotient_graph()


def test_pair_names_its_clones_once(double_emitter, monkeypatch):
    # the pair and its quotient builder both live in ideals, so one patch counts every lookup
    calls = []
    real = ideals.clone_names

    def counted(g, cloned):
        calls.append(frozenset(cloned))
        return real(g, cloned)

    monkeypatch.setattr(ideals, "clone_names", counted)
    pair = AdmissiblePair(double_emitter, {"u"}, {"v"})
    q = pair.quotient_graph()
    image = pair.phi(AlgebraElement.edge(double_emitter, "a"))
    assert image == normalize(q, "a + a'")
    assert pair.clones == {"w": "w'", "a": "a'", "f": "f'"}
    assert calls == [frozenset({"w"})]


def test_phi_kills_h_and_edges_into_h(double_emitter):
    pair = AdmissiblePair(double_emitter, {"u"}, {"v"})
    assert pair.phi(AlgebraElement.vertex(double_emitter, "u")).is_zero()
    # every explicit edge of this graph survives (none has range in H),
    # so check the rows on a graph where some edge does die
    g = Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")])
    p2 = AdmissiblePair(g, {"v"})
    assert p2.phi(AlgebraElement.edge(g, "f")).is_zero()
    assert p2.phi(AlgebraElement.ghost(g, "f")).is_zero()
    assert p2.phi(AlgebraElement.vertex(g, "u")) == AlgebraElement.vertex(p2.quotient_graph(), "u")


def test_phi_breaking_vertex_identities(double_emitter):
    pair = AdmissiblePair(double_emitter, {"u"}, {"v"})
    q = pair.quotient_graph()
    wh = breaking_vertex_element(double_emitter, {"u"}, "w")
    f = AlgebraElement.edge(double_emitter, "f")
    assert pair.phi(wh) == AlgebraElement.vertex(q, "w'")
    assert pair.phi(f * wh) == AlgebraElement.edge(q, "f'")
    assert pair.phi(wh * f.star()) == AlgebraElement.ghost(q, "f'")
    sf = AlgebraElement.vertex(double_emitter, "w")  # s(f) = w for the loop f
    assert pair.phi(sf) == normalize(q, "w + w'")


def test_phi_is_homomorphism(double_emitter, loop_with_two_exits):
    fixture_pairs = [
        AdmissiblePair(double_emitter, {"u"}, {"v"}),
        AdmissiblePair(double_emitter, {"u"}, {"v", "w"}),
        AdmissiblePair(loop_with_two_exits, {"w"}),
    ]
    rng = random.Random(8)
    for pair in fixture_pairs:
        g = pair.graph
        assert pair.phi(AlgebraElement.one(g)) == AlgebraElement.one(pair.quotient_graph())
        for _ in range(500):
            a = random_element(rng, g)
            b = random_element(rng, g)
            assert pair.phi(a * b) == pair.phi(a) * pair.phi(b)
            assert pair.phi(a + b) == pair.phi(a) + pair.phi(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_phi_matches_generator_image_products(seed):
    # every vertex is the range of some term, so each pair sees terms ending
    # in H, in B_H minus S and elsewhere
    rng = random.Random(seed)
    g = random_bundle_graph(rng)
    for pair in enumerate_admissible(g):
        if not pair.complement:
            continue
        for _ in range(2):
            a = random_monomial_element(rng, g)
            assert pair.phi(a) == brute_phi(pair, a)


def test_random_bundle_graphs_have_unresolved_breaking_vertices():
    graphs = [random_bundle_graph(random.Random(seed)) for seed in range(20)]
    hits = [any(p.unresolved for p in enumerate_admissible(g) if p.complement) for g in graphs]
    assert sum(hits) >= 10


def test_phi_matches_oracle_on_fixtures(double_emitter, bundle_inflow, loop_with_two_exits):
    rng = random.Random(21)
    for g in (double_emitter, bundle_inflow, loop_with_two_exits):
        for pair in enumerate_admissible(g):
            if not pair.complement:
                continue
            for _ in range(20):
                a = random_element(rng, g)
                assert pair.phi(a) == brute_phi(pair, a)


def test_phi_is_one_pass_without_products(double_emitter, monkeypatch):
    pair = AdmissiblePair(double_emitter, {"u"}, {"v"})
    pair.quotient_graph()
    a = random_element(random.Random(4), double_emitter, depth=4)
    expected = brute_phi(pair, a)
    passes = []
    real = AlgebraElement.from_terms.__func__

    def counted(cls, g, items, field=None):
        items = list(items)
        passes.append(len(items))
        return real(cls, g, items, field)

    def no_products(self, other):
        raise AssertionError("phi formed an algebra product")

    monkeypatch.setattr(AlgebraElement, "from_terms", classmethod(counted))
    monkeypatch.setattr(AlgebraElement, "mul", no_products)
    assert pair.phi(a) == expected
    assert len(passes) == 1 and passes[0] <= 2 * len(a.terms)


def test_breaking_vertex_element(double_emitter, toeplitz):
    wh = breaking_vertex_element(double_emitter, {"u"}, "w")
    assert wh == normalize(double_emitter, "w - f*f^*")
    vh = breaking_vertex_element(double_emitter, {"u"}, "v")
    assert vh == normalize(double_emitter, "v - h*h^* - a*a^*")
    with pytest.raises(NotBreakingVertexError):
        breaking_vertex_element(toeplitz, {"v"}, "u")


def test_closed_forms_make_no_products(double_emitter, cycle_with_side_loop, monkeypatch):
    g, c = cycle_with_side_loop, cycle_with_side_loop.path("v1", ["e1", "e2", "e3", "e4"])
    poly = LaurentPoly.parse("2 - 3*x^-2 + x + 1/2*x^3")
    cyc, ghost = "e1*e2*e3*e4", "e4^* * e3^* * e2^* * e1^*"
    want_poly = normalize(g, f"2*v1 - 3*{ghost}*{ghost} + {cyc} + 1/2*{cyc}*{cyc}*{cyc}")
    want_wh = normalize(double_emitter, "v - h*h^* - a*a^*")
    quadratic = ExtensionField(LaurentPoly.parse("x^2 - 2"))
    want_ext = normalize(g, "2*v1 + e1*e2*e3*e4").with_field(quadratic)

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form was renormalized")

    monkeypatch.setattr(AlgebraElement, "from_terms", classmethod(refuse))
    monkeypatch.setattr(AlgebraElement, "mul", refuse)
    assert poly_at_cycle(g, c, poly) == want_poly
    assert poly_at_cycle(g, c, LaurentPoly.parse("2 + x"), quadratic) == want_ext
    assert breaking_vertex_element(double_emitter, {"u"}, "v") == want_wh


def test_membership_law(double_emitter, loop_with_two_exits):
    for g in (double_emitter, loop_with_two_exits):
        one = AlgebraElement.one(g)
        for pair in enumerate_admissible(g):
            for w in pair.breaking:
                wh = breaking_vertex_element(g, pair.H, w)
                assert pair.contains(wh) == (w in pair.S)
            for h in pair.H:
                assert pair.contains(AlgebraElement.vertex(g, h))
            if pair.complement:
                assert not pair.contains(one)


def test_type_iii_membership_unsupported(chained_loops):
    pair = AdmissiblePair(chained_loops, {"v"})
    desc = IdealDescriptor(pair, cycle=chained_loops.path("u", ["e"]), poly=DEFAULT_CYCLE_POLY)
    with pytest.raises(TypeIIIMembershipUnsupportedError):
        desc.contains(AlgebraElement.one(chained_loops))


def test_poly_at_cycle(chained_loops):
    g = chained_loops
    c = g.path("u", ["e"])
    assert poly_at_cycle(g, c, LaurentPoly.parse("1 + x^2")) == normalize(g, "u + e*e")
    assert poly_at_cycle(g, c, LaurentPoly.parse("1 + x^-1")) == normalize(g, "u + e^*")
    assert poly_at_cycle(g, c, LaurentPoly.parse("1")) == normalize(g, "u")
    with pytest.raises(NotACycleError):
        poly_at_cycle(g, g.path("u'", ["g"]), LaurentPoly.parse("1 + x"))
    with pytest.raises(ZeroConstantTermError):
        poly_at_cycle(g, c, LaurentPoly.parse("x"))


def test_poly_at_cycle_longer_cycle(cycle_with_side_loop):
    g = cycle_with_side_loop
    c = g.path("v1", ["e1", "e2", "e3", "e4"])
    elem = poly_at_cycle(g, c, LaurentPoly.parse("2 + x"))
    assert elem == normalize(g, "2*v1 + e1*e2*e3*e4")


def test_classification_verdicts(
    toeplitz, double_emitter, loop_with_two_exits, cycle_with_side_loop, chained_loops
):
    assert classify(IdealDescriptor(AdmissiblePair(toeplitz, []))).verdict == "typeII"
    res = classify(IdealDescriptor(AdmissiblePair(double_emitter, {"u"}, {"v"})))
    assert res.verdict == "typeI"
    assert res.witness_vertex == "w"
    assert classify(IdealDescriptor(AdmissiblePair(loop_with_two_exits, {"w"}))).verdict == "typeII"
    assert classify(IdealDescriptor(AdmissiblePair(cycle_with_side_loop, {"u"}))).verdict == "typeII"
    g4 = chained_loops
    desc = IdealDescriptor(
        AdmissiblePair(g4, {"v"}), cycle=g4.path("u", ["e"]), poly=DEFAULT_CYCLE_POLY
    )
    assert classify(desc).verdict == "typeIII"


def test_classification_negative_cases(toeplitz, double_emitter):
    # single loop quotient: condition (L) fails
    assert classify(IdealDescriptor(AdmissiblePair(toeplitz, {"v"}))).verdict == "not_primitive"
    # improper ideal
    assert classify(IdealDescriptor(AdmissiblePair(toeplitz, {"u", "v"}))).verdict == "not_primitive"
    # S = B_H \ {v} but M(v) misses w
    assert classify(IdealDescriptor(AdmissiblePair(double_emitter, {"u"}, {"w"}))).verdict == "not_primitive"
    # |B_H \ S| = 2: neither shape
    assert classify(IdealDescriptor(AdmissiblePair(double_emitter, {"u"}))).verdict == "not_primitive"
    # type III with a reducible polynomial
    g4_pair = AdmissiblePair(double_emitter, {"u"}, {"v", "w"})
    desc = IdealDescriptor(
        g4_pair, cycle=double_emitter.path("w", ["f"]), poly=LaurentPoly.parse("1 + 2*x + x^2")
    )
    assert classify(desc).verdict == "not_primitive"


@pytest.mark.parametrize(
    "poly, verdict, note",
    [
        (None, "not_primitive", "no polynomial supplied"),
        ("x + x^2", "not_primitive", "zero constant term"),
        ("x^-1", "not_primitive", "constant modulus"),
        ("1 + x^4", "typeIII", "degree > 3: trusted without verification"),
    ],
)
def test_polynomial_notes(chained_loops, poly, verdict, note):
    g4 = chained_loops
    desc = IdealDescriptor(
        AdmissiblePair(g4, {"v"}),
        cycle=g4.path("u", ["e"]),
        poly=None if poly is None else LaurentPoly.parse(poly),
    )
    res = classify(desc)
    assert res.verdict == verdict
    (entry,) = [e for e in res.transcript if e["condition"] == "polynomial accepted as irreducible"]
    assert entry == {
        "condition": "polynomial accepted as irreducible",
        "outcome": verdict == "typeIII",
        "note": note,
    }


def test_transcripts_are_complete(chained_loops, toeplitz):
    res = classify(IdealDescriptor(AdmissiblePair(toeplitz, [])))
    conditions = {e["condition"] for e in res.transcript if e["outcome"]}
    assert "complement of H satisfies MT-3" in conditions
    assert "complement of H has the countable separation property" in conditions
    assert "quotient graph satisfies condition (L)" in conditions
    assert all(e["outcome"] for e in res.transcript)

    g4 = chained_loops
    res3 = classify(
        IdealDescriptor(AdmissiblePair(g4, {"v"}), cycle=g4.path("u", ["e"]), poly=DEFAULT_CYCLE_POLY)
    )
    assert all(e["outcome"] for e in res3.transcript)
    assert {e["condition"] for e in res3.transcript} == {
        "complement of H nonempty (proper ideal)",
        "S equals the full breaking-vertex set",
        "cycle base lies outside H",
        "cycle is exclusive",
        "M(base of cycle) is the whole complement of H",
        "polynomial accepted as irreducible",
    }


def test_enumerate_admissible(toeplitz, double_emitter):
    pairs = [(sorted(p.H), sorted(p.S)) for p in enumerate_admissible(toeplitz)]
    assert pairs == [([], []), (["v"], []), (["u", "v"], [])]
    g1_pairs = {(tuple(sorted(p.H)), tuple(sorted(p.S))) for p in enumerate_admissible(double_emitter)}
    for S in [(), ("v",), ("w",), ("v", "w")]:
        assert (("u",), S) in g1_pairs
    single = Graph(["v"])
    assert [(sorted(p.H), sorted(p.S)) for p in enumerate_admissible(single)] == [([], []), (["v"], [])]


def test_enumerate_admissible_caps_pairs(double_emitter, monkeypatch):
    monkeypatch.setattr(ideals, "MAX_PAIRS", 2)
    with pytest.raises(TooLargeError):
        enumerate_admissible(double_emitter)


def test_enumerate_admissible_caps_pairs_not_sets():
    # a sink t and a cycle v0 -> ... -> v16 -> v0 whose vertices all bundle
    # into t: three hereditary saturated sets, but B_{t} holds all 17 v_i,
    # so 2^17 + 2 pairs (any k behaves alike; 17 is just past the cap, so a
    # cap on sets fails here in seconds instead of building 2^k pairs)
    k = 17
    vs = [f"v{i}" for i in range(k)]
    edges = [(f"c{i}", vs[i], vs[(i + 1) % k]) for i in range(k)]
    bundles = [(f"b{i}", v, "t") for i, v in enumerate(vs)]
    with pytest.raises(TooLargeError):
        enumerate_admissible(Graph(["t", *vs], edges, bundles))


def test_enumerate_admissible_cap_is_inclusive(monkeypatch):
    # n isolated sinks: every vertex subset is hereditary saturated and none
    # has breaking vertices, so 2^n pairs; 16 sinks meet MAX_PAIRS exactly
    monkeypatch.setattr(ideals, "MAX_PAIRS", 2**4)
    assert len(enumerate_admissible(Graph([f"s{i}" for i in range(4)]))) == 2**4
    with pytest.raises(TooLargeError):
        enumerate_admissible(Graph([f"s{i}" for i in range(5)]))


def test_enumerate_admissible_has_no_vertex_bound():
    # a chain of n loop vertices v_i -> v_{i+1} has the n + 1 tails as its
    # hereditary saturated sets and no breaking vertices
    n = 20
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"l{i}", v, v) for i, v in enumerate(verts)]
    edges += [(f"c{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    pairs = enumerate_admissible(Graph(verts, edges))
    assert [sorted(p.H) for p in pairs] == [sorted(verts[n - k:]) for k in range(n + 1)]
    assert not any(p.S for p in pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumerate_admissible_matches_subset_scan(seed):
    # up to 9 vertices, with bundles, and the last few isolated sinks
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    verts = [f"v{i}" for i in range(n)]
    live = verts[: n - rng.randint(0, min(3, n - 1))]
    edges = [(f"e{i}", rng.choice(live), rng.choice(live)) for i in range(rng.randint(0, 2 * len(live)))]
    bundles = [] if len(live) < 2 else [
        (f"b{i}", *rng.sample(live, 2)) for i in range(rng.randint(0, 3))
    ]
    g = Graph(verts, edges, bundles)
    assert [(p.H, p.S) for p in enumerate_admissible(g)] == brute_admissible(g)


def test_enumerate_admissible_finds_breaking_vertices_once_per_set(monkeypatch):
    # a sink t and k looped infinite emitters bundled into it: 2^k + 1
    # hereditary saturated sets (the empty set, and t with any emitters),
    # but 3^k + 1 pairs, since the emitters outside H are breaking
    k = 3
    ws = [f"w{i}" for i in range(k)]
    g = Graph(
        ["t", *ws],
        [(f"l{i}", w, w) for i, w in enumerate(ws)],
        [(f"b{i}", w, "t") for i, w in enumerate(ws)],
    )
    calls = []
    original = Graph.breaking_vertices

    def counted(self, H):
        calls.append(frozenset(H))
        return original(self, H)

    monkeypatch.setattr(Graph, "breaking_vertices", counted)
    pairs = enumerate_admissible(g)
    monkeypatch.undo()
    assert len(pairs) == 3**k + 1
    assert len(calls) == len(set(calls)) == 2**k + 1
    assert [(p.H, p.S) for p in pairs] == brute_admissible(g)


def test_maximal_tails_cover_the_primitive_pairs():
    # every pair that classify calls type I, II or III (type III: S = B_H and
    # some exclusive cycle with DEFAULT_CYCLE_POLY) is a candidate, and the
    # candidates are the raw-edge oracle's, in enumerate_admissible order
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(200)]
    verdicts = set()
    for g in graphs:
        candidates = [(p.H, p.S) for p in ideals._maximal_tails(g)]
        assert candidates == brute_maximal_tails(g), g
        order = [(p.H, p.S) for p in enumerate_admissible(g)]
        assert candidates == [key for key in order if key in candidates], g
        exclusive = [c.rep for c in g.cycle_report().cycles if c.exclusive]
        for H, S in brute_admissible(g):
            if len(H) == len(g.vertices):
                continue
            pair = AdmissiblePair(g, H, S)
            descs = [IdealDescriptor(pair)]
            if S == pair.breaking:
                descs += [IdealDescriptor(pair, cycle=c, poly=DEFAULT_CYCLE_POLY) for c in exclusive]
            for desc in descs:
                verdict = classify(desc).verdict
                if verdict in (TYPE_I, TYPE_II, TYPE_III):
                    assert (H, S) in candidates, (g, H, S, verdict)
                    verdicts.add(verdict)
    assert verdicts == {TYPE_I, TYPE_II, TYPE_III}


def test_pair_json_roundtrip(double_emitter):
    pair = AdmissiblePair(double_emitter, {"u"}, {"v"})
    assert pair.to_json() == {"H": ["u"], "S": ["v"]}
