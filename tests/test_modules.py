import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _path_end,
    brute_finite_action,
    brute_rational_action,
    random_bundle_graph,
    random_element,
    random_monomial_element,
    random_path_into,
    relation_elements,
)
from leavitt import examples
from leavitt.algebra import AlgebraElement, PathMonomial
from leavitt.errors import (
    FieldMismatchError,
    GraphError,
    MixedGraphsError,
    NotAWitnessEdgeError,
    NotInvariantError,
)
from leavitt.exprs import normalize
from leavitt.graph import INFINITE_EMITTER, SINK, Graph, Path
from leavitt.modules import (
    InfiniteEmitterModule,
    RationalPathModule,
    SinkModule,
    TwistedRationalPathModule,
    invariant_pair,
    mat_identity,
    matrix_of,
)
from leavitt.scalars import ExtensionField, LaurentPoly


@pytest.fixture
def ext_field():
    return ExtensionField(LaurentPoly.parse("1 + x + x^2"))


def _random_terminal_path(rng, g, terminal, max_len=5):
    """Backward random walk ending at the terminal vertex."""
    edges = []
    cur = terminal
    for _ in range(rng.randint(0, max_len)):
        incoming = g.in_edges(cur)
        if not incoming:
            break
        name = rng.choice(incoming)
        edges.append(name)
        cur = g.edges[name].src
    edges.reverse()
    return g.path(cur, edges)


def _random_rational_vector(rng, module, max_len=4):
    rot = rng.randrange(len(module.cycle.edges))
    cur = module.rotation_source(rot)
    edges = []
    for _ in range(rng.randint(0, max_len)):
        incoming = module.graph.in_edges(cur)
        if not incoming:
            break
        name = rng.choice(incoming)
        edges.append(name)
        cur = module.graph.edges[name].src
    edges.reverse()
    return module.vector_from(module.graph.path(cur, edges), rot)


def test_sink_module_requires_sink(toeplitz):
    with pytest.raises(GraphError):
        SinkModule(toeplitz, "u")
    with pytest.raises(GraphError):
        InfiniteEmitterModule(toeplitz, "v")


def test_sink_action_prepends(toeplitz):
    m = SinkModule(toeplitz, "v")
    path_f = m.basis_path("u", ["f"])
    out = m.act(AlgebraElement.edge(toeplitz, "e"), m.basis_vector(path_f))
    assert out == m.basis_vector(m.basis_path("u", ["e", "f"]))


def test_sink_action_ghost_kills_sink_vertex(toeplitz):
    m = SinkModule(toeplitz, "v")
    w = m.basis_vector(m.basis_path("v"))
    assert m.act(AlgebraElement.ghost(toeplitz, "f"), w).is_zero()
    path_f = m.basis_vector(m.basis_path("u", ["f"]))
    assert m.act(AlgebraElement.ghost(toeplitz, "f"), path_f) == w


def test_emitter_module_delta_rule(double_emitter):
    m = InfiniteEmitterModule(double_emitter, "w")
    mu = m.basis_path("v", ["a"])
    eta = m.basis_path("w", ["f"])
    x_mu = m.basis_vector(mu)
    ghost_mu = normalize(double_emitter, "a^*")
    # mu^* . mu = the trivial path at the emitter; mu^* . eta = 0
    triv = m.basis_vector(m.basis_path("w"))
    assert m.act(ghost_mu, x_mu) == triv
    assert m.act(ghost_mu, m.basis_vector(eta)).is_zero()


def test_rational_action_tail_shift(chained_loops):
    m = RationalPathModule(chained_loops, chained_loops.path("u", ["e"]))
    einf = m.basis_vector(m.base)
    # e^* . e^inf = e^inf, e . e^inf = e^inf (absorbed into the tail)
    assert m.act(AlgebraElement.ghost(chained_loops, "e"), einf) == einf
    assert m.act(AlgebraElement.edge(chained_loops, "e"), einf) == einf
    # g . e^inf is a new basis path; g^* strips it back
    g_einf = m.act(AlgebraElement.edge(chained_loops, "g"), einf)
    assert not g_einf.is_zero()
    assert m.act(AlgebraElement.ghost(chained_loops, "g"), g_einf) == einf


def test_rational_canonical_form(cycle_with_side_loop):
    g = cycle_with_side_loop
    c = g.path("v1", ["e1", "e2", "e3", "e4"])
    m = RationalPathModule(g, c)
    # e4 . c^inf is spelled by the prefix e4 or by rotation 3; both give e4
    v = m.vector_from(g.path("v4", ["e4"]), 0)
    assert v == g.path("v4", ["e4"]) == m.vector_from(g.trivial_path("v4"), 3)
    # a path is checked against the graph before its range is read
    for bad in (Path("v4", ("zz",)), Path("v4", ("e1",)), Path("v4", ("e4", "e2"))):
        with pytest.raises(GraphError):
            m.vector_from(bad, 0)
    # acting by c* then c fixes every basis vector that starts with the
    # period c (c* annihilates the others)
    ce = AlgebraElement.one(g)
    for name in c.edges:
        ce = ce * AlgebraElement.edge(g, name)
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        y = m.basis_vector(_random_rational_vector(rng, m))
        x = m.act(ce, y)
        if x.is_zero():
            continue  # y does not start at r(c)
        assert m.act(ce.star(), x) == y
        assert m.act(ce, m.act(ce.star(), x)) == x
        checked += 1
    assert checked > 5


def test_relation_annihilation_all_kinds(toeplitz, double_emitter, chained_loops, ext_field):
    rng = random.Random(77)
    modules = [
        SinkModule(toeplitz, "v"),
        InfiniteEmitterModule(double_emitter, "w"),
        RationalPathModule(chained_loops, chained_loops.path("u", ["e"])),
        TwistedRationalPathModule(chained_loops, chained_loops.path("u", ["e"]), ext_field),
    ]
    for m in modules:
        relations = relation_elements(m.graph)
        for _ in range(60):
            label, rel = relations[rng.randrange(len(relations))]
            if isinstance(m, (SinkModule, InfiniteEmitterModule)):
                basis = _random_terminal_path(rng, m.graph, m.terminal)
            else:
                basis = _random_rational_vector(rng, m)
            out = m.act(rel, m.basis_vector(basis))
            assert out.is_zero(), f"{label} acted nontrivially on {m.describe(basis)}"


def test_action_is_homomorphism(toeplitz, chained_loops):
    rng = random.Random(15)
    modules = [
        SinkModule(toeplitz, "v"),
        RationalPathModule(chained_loops, chained_loops.path("u", ["e"])),
    ]
    for m in modules:
        for _ in range(250):
            a = random_element(rng, m.graph)
            b = random_element(rng, m.graph)
            if isinstance(m, SinkModule):
                x = m.basis_vector(_random_terminal_path(rng, m.graph, m.terminal))
            else:
                x = m.basis_vector(_random_rational_vector(rng, m))
            assert m.act(a * b, x) == m.act(a, m.act(b, x))


def test_invariant_pair_examples(toeplitz, chained_loops):
    m = SinkModule(toeplitz, "v")
    q, p = invariant_pair(m, "f")
    assert q == toeplitz.path("u", ["f"]) and p == toeplitz.trivial_path("v")
    with pytest.raises(NotAWitnessEdgeError):
        invariant_pair(m, "e")

    mu = RationalPathModule(chained_loops, chained_loops.path("u", ["e"]))
    q2, p2 = invariant_pair(mu, "g")
    assert p2 == mu.base
    assert q2.edges == ("g",)
    with pytest.raises(NotAWitnessEdgeError):
        invariant_pair(mu, "e")  # s(e) = r(e)
    with pytest.raises(NotAWitnessEdgeError):
        invariant_pair(mu, "f")  # r(f) = v, not the tail source


def test_sanov_matrices_sink(toeplitz):
    m = SinkModule(toeplitz, "v")
    basis = invariant_pair(m, "f")
    A = matrix_of(m, basis, normalize(toeplitz, "1 + 2*f^*"))
    B = matrix_of(m, basis, normalize(toeplitz, "1 + 2*f"))
    assert A == ((1, 0), (2, 1))
    assert B == ((1, 2), (0, 1))
    assert matrix_of(m, basis, normalize(toeplitz, "1")) == mat_identity()


def test_sanov_matrices_rational(chained_loops):
    m = RationalPathModule(chained_loops, chained_loops.path("u", ["e"]))
    basis = invariant_pair(m, "g")
    assert matrix_of(m, basis, normalize(chained_loops, "1 + 2*g^*")) == ((1, 0), (2, 1))
    assert matrix_of(m, basis, normalize(chained_loops, "1 + 2*g")) == ((1, 2), (0, 1))


def test_matrix_respects_multiplication(toeplitz):
    m = SinkModule(toeplitz, "v")
    basis = invariant_pair(m, "f")
    rng = random.Random(6)
    gens = [
        normalize(toeplitz, "1 + 2*f"),
        normalize(toeplitz, "1 - 2*f"),
        normalize(toeplitz, "1 + 2*f^*"),
        normalize(toeplitz, "1 - 2*f^*"),
    ]
    from leavitt.modules import mat_mul

    for _ in range(40):
        a, b = rng.choice(gens), rng.choice(gens)
        assert matrix_of(m, basis, a * b) == mat_mul(
            matrix_of(m, basis, a), matrix_of(m, basis, b)
        )


def test_not_invariant(toeplitz):
    m = SinkModule(toeplitz, "v")
    basis = invariant_pair(m, "f")
    with pytest.raises(NotInvariantError):
        matrix_of(m, basis, AlgebraElement.edge(toeplitz, "e"))


def test_twisted_action(chained_loops, ext_field):
    g = chained_loops
    m = TwistedRationalPathModule(g, g.path("u", ["e"]), ext_field)
    xbar = ext_field.generator()
    einf = m.basis_vector(m.base)
    assert m.act(AlgebraElement.edge(g, "e"), einf) == einf.scale(xbar)
    assert m.act(AlgebraElement.ghost(g, "e"), einf) == einf.scale(xbar.inverse())
    # untwisted edges are unaffected
    assert m.act(AlgebraElement.edge(g, "g"), einf) == m.act(
        AlgebraElement.edge(g, "g"), einf
    )


def test_twisted_rejects_foreign_extension(chained_loops, ext_field):
    g = chained_loops
    m = TwistedRationalPathModule(g, g.path("u", ["e"]), ext_field)
    other = ExtensionField(LaurentPoly.parse("2 + x + x^2"))
    elem = AlgebraElement.edge(g, "e", other)
    with pytest.raises(FieldMismatchError):
        m.act(elem, m.basis_vector(m.base))
    with pytest.raises(MixedGraphsError):
        from leavitt.examples import toeplitz as mk

        m.act(AlgebraElement.edge(mk(), "e"), m.basis_vector(m.base))


def test_twisted_degree_one_matches_sign_twist(chained_loops):
    # with modulus 1 + x the generator is -1, so the twist is a sign flip on e
    g = chained_loops
    field = ExtensionField(LaurentPoly.parse("1 + x"))
    twisted = TwistedRationalPathModule(g, g.path("u", ["e"]), field)
    plain = RationalPathModule(g, g.path("u", ["e"]))
    rng = random.Random(21)
    for _ in range(100):
        a = random_element(rng, g)
        basis = _random_rational_vector(rng, plain)
        out_twisted = twisted.act(a, twisted.basis_vector(basis))
        signed = AlgebraElement.from_terms(
            g,
            [
                (
                    mono,
                    coeff
                    * Fraction(-1)
                    ** (mono.gamma.edges.count("e") + mono.lam.edges.count("e")),
                )
                for mono, coeff in a.terms.items()
            ],
        )
        out_signed = plain.act(signed, plain.basis_vector(basis))
        # compare through the canonical identification of K[x]/(1+x) with Q
        lifted = {b: field.coerce(c) for b, c in out_signed.terms.items()}
        assert out_twisted.terms == lifted


def test_sink_module_faithful_cross_check(toeplitz):
    # N_v is faithful here (every vertex reaches v), so a nonzero normal
    # form must move some basis path; this checks the equality oracle
    # against an independent representation
    m = SinkModule(toeplitz, "v")

    def sink_paths(max_len):
        yield m.basis_path("v")
        for k in range(max_len):
            yield m.basis_path("u", ["e"] * k + ["f"])

    rng = random.Random(5)
    from conftest import random_element

    for _ in range(200):
        z = random_element(rng, toeplitz)
        if z.is_zero():
            continue
        depth = max(len(mono.gamma.edges) + len(mono.lam.edges) for mono in z.terms) + 2
        assert any(
            not m.act(z, m.basis_vector(p)).is_zero() for p in sink_paths(depth)
        ), f"nonzero normal form {z} acted as zero"


def test_module_relations_annihilate_twisted_with_rational_elements(chained_loops, ext_field):
    m = TwistedRationalPathModule(chained_loops, chained_loops.path("u", ["e"]), ext_field)
    rng = random.Random(31)
    for label, rel in relation_elements(chained_loops):
        x = m.basis_vector(_random_rational_vector(rng, m))
        assert m.act(rel, x).is_zero(), label


# (graph, cycle edges, module prefix as (source, edges) or None)
RATIONAL_CASES = [
    ("cycle_with_side_loop", ("e1", "e2", "e3", "e4"), None),
    ("cycle_with_side_loop", ("e1", "e2", "e3", "e4"), ("v3", ("g", "e3", "e4"))),
    ("chained_loops", ("e",), None),
    ("chained_loops", ("e",), ("u'", ("g",))),
    ("chained_loops", ("e'",), None),
    ("double_emitter", ("h",), None),
    ("double_emitter", ("f",), None),
    ("rose", ("e2",), None),
    ("rose", ("e1",), ("v", ("e2",))),
]
ROSE = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
CUBIC_UNITS = ExtensionField(LaurentPoly.parse("1 + x + x^2"))


def _rational_case(index, twisted):
    name, cycle, prefix = RATIONAL_CASES[index]
    g = ROSE if name == "rose" else examples.ALL[name]()
    c = g.path(g.edges[cycle[0]].src, cycle)
    p = None if prefix is None else g.path(*prefix)
    if twisted:
        return g, cycle, TwistedRationalPathModule(g, c, CUBIC_UNITS, p)
    return g, cycle, RationalPathModule(g, c, p)


def _word(cycle, source, edges, rotation, n):
    """Source and first n edges of edges . (cycle from edge ``rotation``)^inf."""
    tail = cycle[rotation:] + cycle * (n // len(cycle) + 1)
    return source, (edges + tail)[:n]


def _random_spelling(rng, g, cycle, max_len=4):
    rotation = rng.randrange(len(cycle))
    p = random_path_into(rng, g, g.edges[cycle[rotation]].src, max_len)
    return p.source, p.edges, rotation


def _stripping_element(rng, g, cycle, vec):
    """Monomials g l* whose l is a prefix of vec, up to two periods past its prefix."""
    source, prefix, rotation = vec
    word = _word(cycle, source, prefix, rotation, len(prefix) + 2 * len(cycle))[1]
    raw = []
    for _ in range(3):
        lam = g.path(source, word[: rng.randint(0, len(word))])
        gamma = random_path_into(rng, g, _path_end(g, lam.source, lam.edges), len(cycle) + 2)
        raw.append((PathMonomial(gamma, lam), rng.choice([-2, -1, 1, 3])))
    return AlgebraElement.from_terms(g, raw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(RATIONAL_CASES) - 1), st.integers(0, 2**32 - 1), st.booleans())
def test_rational_action_matches_edge_walk(case, seed, twisted):
    g, cycle, m = _rational_case(case, twisted)
    rng = random.Random(seed)
    for _ in range(4):
        vec = _random_spelling(rng, g, cycle)
        a = random_element(rng, g) + _stripping_element(rng, g, cycle, vec)
        # compare as infinite words, read past the longest path plus two periods
        longest = len(vec[1]) + len(cycle) + max(
            (len(mono.gamma.edges) + len(mono.lam.edges) for mono in a.terms), default=0
        )
        n = longest + 2 * len(cycle)
        image = m.act(a, m.basis_vector(m.vector_from(g.path(vec[0], vec[1]), vec[2])))
        got = {_word(cycle, b.source, b.edges, 0, n): c for b, c in image.terms.items()}
        assert len(got) == len(image.terms), "two basis paths name one infinite path"
        expected = {}
        for mono, coeff in a.terms.items():
            hit = brute_rational_action(g, cycle, vec, mono.gamma, mono.lam, m.twisted_edge)
            if hit is None:
                continue
            twist, (source, prefix, rotation) = hit
            factor = m.field.coerce(coeff)
            for _ in range(abs(twist)):
                step = m.field.generator()
                factor = factor * (step if twist > 0 else step.inverse())
            key = _word(cycle, source, prefix, rotation, n)
            expected[key] = expected.get(key, m.field.zero) + factor
        assert got == {k: c for k, c in expected.items() if c}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(RATIONAL_CASES) - 1), st.integers(0, 2**32 - 1))
def test_every_spelling_gives_one_vector(case, seed):
    g, cycle, m = _rational_case(case, False)
    source, prefix, rotation = _random_spelling(random.Random(seed), g, cycle)
    n = len(prefix) + 3 * len(cycle)
    word = _word(cycle, source, prefix, rotation, n)[1]
    spellings = [
        (word[:j], r)
        for j in range(len(prefix) + 2 * len(cycle) + 1)
        for r in range(len(cycle))
        if _word(cycle, source, word[:j], r, n)[1] == word
    ]
    assert len(spellings) >= 3
    vectors = {m.vector_from(g.path(source, p), r) for p, r in spellings}
    assert len(vectors) == 1
    (v,) = vectors
    assert _word(cycle, v.source, v.edges, 0, n) == (source, word)
    assert _path_end(g, v.source, v.edges) == m.cycle.source and v.edges[-len(cycle):] != cycle


FINITE_GRAPHS = [examples.ALL[name]() for name in sorted(examples.ALL)] + [
    random_bundle_graph(random.Random(seed)) for seed in range(12)
]
FINITE_CASES = [
    (g, v, SinkModule if g.vertex_kind(v) == SINK else InfiniteEmitterModule)
    for g in FINITE_GRAPHS
    for v in g.vertices
    if g.vertex_kind(v) in (SINK, INFINITE_EMITTER)
]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(FINITE_CASES) - 1), st.integers(0, 2**32 - 1))
def test_finite_action_matches_prefix_walk(case, seed):
    # vectors with basis paths from several sources, acted on by elements
    # whose ghosts start at every vertex, and by monomials that strip a
    # prefix of one of the paths
    g, terminal, kind = FINITE_CASES[case]
    m = kind(g, terminal)
    rng = random.Random(seed)
    for _ in range(4):
        paths = [random_path_into(rng, g, terminal, 4) for _ in range(rng.randint(1, 3))]
        x = m.vector({p: rng.choice([-2, -1, 1, 3]) for p in paths})
        raw = []
        for _ in range(3):
            b = rng.choice(paths)
            lam = g.path(b.source, b.edges[: rng.randint(0, len(b.edges))])
            r = _path_end(g, lam.source, lam.edges)
            raw.append((PathMonomial(random_path_into(rng, g, r, 3), lam), rng.choice([-1, 1, 2])))
        a = random_element(rng, g) + random_monomial_element(rng, g) + AlgebraElement.from_terms(g, raw)
        image = m.act(a, x)
        expected = {}
        for mono, coeff in a.terms.items():
            for b, c in x.terms.items():
                hit = brute_finite_action(g, (b.source, b.edges), mono.gamma, mono.lam)
                if hit is not None:
                    expected[hit] = expected.get(hit, 0) + coeff * c
        assert {(b.source, b.edges): c for b, c in image.terms.items()} == {
            k: c for k, c in expected.items() if c
        }
