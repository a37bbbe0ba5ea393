import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _path_end,
    _raw_product,
    brute_admissible,
    brute_cycles,
    brute_hs_closure,
    brute_reaching,
    random_bundle_graph,
    random_element,
    random_monomial_element,
    random_path_into,
    raw_monomials,
    raw_terms,
)
from leavitt import examples
from leavitt.algebra import AlgebraElement
from leavitt.errors import (
    BundleLoopError,
    DanglingEndpointError,
    DuplicateNameError,
    GraphError,
    NotAdmissibleError,
    NotHereditarySaturatedError,
    SchemaError,
    UnknownVertexError,
)
from leavitt.freeness import find_free_generators
from leavitt.ideals import enumerate_admissible
from leavitt.modules import InfiniteEmitterModule, RationalPathModule, SinkModule
from leavitt.graph import (
    INFINITE_EMITTER,
    SINK,
    Graph,
    Path,
    clone_names,
    graph_from_json,
    graph_to_json,
    parse_graph,
    quotient_graph,
)


def test_vertex_kinds(toeplitz, double_emitter):
    assert toeplitz.kinds() == {"u": "regular", "v": "sink"}
    assert double_emitter.kinds() == {
        "v": "infinite_emitter",
        "w": "infinite_emitter",
        "u": "sink",
    }


def test_unknown_vertex(toeplitz):
    with pytest.raises(UnknownVertexError):
        toeplitz.vertex_kind("zz")


def test_construction_rejections():
    with pytest.raises(DuplicateNameError):
        Graph(["u", "u"])
    with pytest.raises(DuplicateNameError):
        Graph(["u", "e"], [("e", "u", "u")])
    with pytest.raises(DanglingEndpointError):
        Graph(["u"], [("e", "u", "zz")])
    with pytest.raises(BundleLoopError):
        Graph(["u"], [], [("b", "u", "u")])
    with pytest.raises(GraphError):
        Graph([])


def test_reaching_examples(toeplitz, double_emitter, loop_with_two_exits):
    assert toeplitz.reaching("v") == {"u", "v"}
    assert double_emitter.reaching("w") == {"v", "w"}
    assert loop_with_two_exits.reaching("w") == {"u", "w"}


def test_reaching_matches_oracle(any_graph):
    for v in any_graph.vertices:
        assert any_graph.reaching(v) == brute_reaching(any_graph, v)


def test_reaching_path_target(toeplitz):
    p = toeplitz.path("u", ["f"])
    assert toeplitz.reaching(p) == {"u", "v"}


def test_reaching_properties(any_graph):
    g = any_graph
    for v in g.vertices:
        acc = g.reaching(v)
        assert v in acc
        for u in acc:
            assert g.reaching(u) <= acc


def test_hs_closure_examples(toeplitz):
    assert toeplitz.hereditary_saturated_closure(["v"]) == {"v"}
    assert toeplitz.hereditary_saturated_closure(["u"]) == {"u", "v"}
    assert toeplitz.hereditary_saturated_closure([]) == frozenset()


def test_hs_closure_matches_minimal_superset(any_graph):
    rng = random.Random(5)
    verts = list(any_graph.vertices)
    for _ in range(20):
        seed = rng.sample(verts, rng.randint(0, len(verts)))
        closure = any_graph.hereditary_saturated_closure(seed)
        assert closure == brute_hs_closure(any_graph, seed)


def test_extend_hs_matches_closure_from_scratch(any_graph):
    rng = random.Random(7)
    verts = list(any_graph.vertices)
    for H, _ in brute_admissible(any_graph):
        for _ in range(4):
            seed = rng.sample(verts, rng.randint(0, 2))
            assert any_graph.extend_hereditary_saturated(H, seed) == brute_hs_closure(any_graph, H | set(seed))


def test_hs_closure_idempotent_and_monotone(any_graph):
    rng = random.Random(11)
    verts = list(any_graph.vertices)
    for _ in range(25):
        small = set(rng.sample(verts, rng.randint(0, len(verts))))
        big = small | set(rng.sample(verts, rng.randint(0, len(verts))))
        c_small = any_graph.hereditary_saturated_closure(small)
        c_big = any_graph.hereditary_saturated_closure(big)
        assert any_graph.hereditary_saturated_closure(c_small) == c_small
        assert c_small <= c_big


def test_breaking_vertices(double_emitter, loop_with_two_exits, toeplitz):
    assert double_emitter.breaking_vertices({"u"}) == {"v", "w"}
    assert loop_with_two_exits.breaking_vertices({"w"}) == frozenset()
    assert toeplitz.breaking_vertices({"v"}) == frozenset()
    with pytest.raises(NotHereditarySaturatedError):
        double_emitter.breaking_vertices({"v"})


def test_breaking_vertices_property(any_graph):
    g = any_graph
    rng = random.Random(3)
    for _ in range(15):
        H = g.hereditary_saturated_closure(rng.sample(list(g.vertices), rng.randint(0, len(g.vertices))))
        for w in g.breaking_vertices(H):
            assert w not in H
            assert g.vertex_kind(w) == "infinite_emitter"


def test_cycle_report_toeplitz(toeplitz):
    report = toeplitz.cycle_report()
    assert len(report.cycles) == 1
    (c,) = report.cycles
    assert c.rep.edges == ("e",)
    assert c.exits == ("f",)
    assert report.condition_l


def test_cycle_report_chained_loops(chained_loops):
    report = chained_loops.cycle_report()
    by_edges = {c.rep.edges: c for c in report.cycles}
    assert set(by_edges) == {("e",), ("e'",)}
    assert by_edges[("e",)].exclusive and by_edges[("e'",)].exclusive
    assert "f" in by_edges[("e",)].exits
    assert "g" in by_edges[("e'",)].exits
    assert report.condition_l


def test_cycle_report_single_loop():
    g = Graph(["v"], [("e", "v", "v")])
    report = g.cycle_report()
    assert not report.condition_l
    assert not report.cycles[0].has_exit


def test_cycles_match_bruteforce(any_graph):
    report = any_graph.cycle_report()
    assert {frozenset(c.rep.edges) for c in report.cycles} == brute_cycles(any_graph)
    # distinct sources, one representative per rotation class
    reps = [c.rep.edges for c in report.cycles]
    assert len(set(map(frozenset, reps))) == len(reps)
    for c in report.cycles:
        sources = [any_graph.edges[e].src for e in c.rep.edges]
        assert len(set(sources)) == len(sources)


def test_parallel_edges_make_two_cycles():
    g = Graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "u")])
    report = g.cycle_report()
    assert {frozenset(c.rep.edges) for c in report.cycles} == {
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
    }
    assert all(not c.exclusive for c in report.cycles)


def test_mt3(toeplitz, loop_with_two_exits):
    assert toeplitz.satisfies_mt3({"u", "v"})
    assert loop_with_two_exits.satisfies_mt3({"u", "v"})
    two = Graph(["a", "b"])
    assert not two.satisfies_mt3({"a", "b"})
    assert two.satisfies_mt3(set())


def test_quotient_loop_with_two_exits(loop_with_two_exits):
    q = quotient_graph(loop_with_two_exits, {"w"}, set())
    assert set(q.vertices) == {"u", "v"}
    assert {(e.name, e.src, e.dst) for e in q.edges.values()} == {
        ("e", "u", "u"),
        ("f", "u", "v"),
    }


def test_quotient_double_emitter(double_emitter):
    q = quotient_graph(double_emitter, {"u"}, {"v"})
    assert set(q.vertices) == {"v", "w", "w'"}
    assert {(e.name, e.src, e.dst) for e in q.edges.values()} == {
        ("h", "v", "v"),
        ("a", "v", "w"),
        ("f", "w", "w"),
        ("a'", "v", "w'"),
        ("f'", "w", "w'"),
    }
    assert not q.bundles


def test_quotient_identity(any_graph):
    q = quotient_graph(any_graph, set(), set())
    assert q == any_graph


def test_quotient_not_admissible(toeplitz, double_emitter):
    with pytest.raises(NotAdmissibleError):
        quotient_graph(toeplitz, {"u"}, set())  # not hereditary
    with pytest.raises(NotAdmissibleError):
        quotient_graph(double_emitter, {"u"}, {"u"})  # S not inside B_H


def test_quotient_clones_bundles_into_breaking_vertices():
    g = Graph(
        ["x", "w", "u", "z"],
        [("k", "w", "z")],
        [("bw", "w", "u"), ("bx", "x", "w")],
    )
    # H = {u}: w is breaking (bundle into H, explicit escape k); bundle bx
    # lands on the breaking vertex w, so it is retained and cloned.
    q = quotient_graph(g, {"u"}, set())
    assert set(q.vertices) == {"x", "w", "z", "w'"}
    assert {(b.name, b.src, b.dst) for b in q.bundles.values()} == {
        ("bx", "x", "w"),
        ("bx'", "x", "w'"),
    }


def test_clone_names_skip_taken_names():
    # a and a' both break for H = {h}; the names a', x' are already taken
    g = Graph(
        ["a", "a'", "h"],
        [("x", "a", "a'"), ("y", "a'", "a"), ("x'", "a'", "a'")],
        [("ba", "a", "h"), ("bb", "a'", "h")],
    )
    names = clone_names(g, {"a", "a'"})
    assert names == {"a": "a''", "a'": "a'''", "x": "x''", "x'": "x'''", "y": "y'"}
    q = quotient_graph(g, {"h"}, set())
    assert set(q.vertices) == {"a", "a'", "a''", "a'''"}
    assert {(e.name, e.src, e.dst) for e in q.edges.values()} == {
        ("x", "a", "a'"),
        ("x''", "a", "a'''"),
        ("y", "a'", "a"),
        ("y'", "a'", "a''"),
        ("x'", "a'", "a'"),
        ("x'''", "a'", "a'''"),
    }
    # without collisions every clone is the name with one prime
    assert clone_names(examples.double_emitter(), {"w"}) == {"w": "w'", "a": "a'", "f": "f'"}


def test_minting():
    g = examples.double_emitter()
    g2, minted = g.with_minted("bv", 2)
    assert [e.name for e in minted] == ["bv#0", "bv#1"]
    assert all(e.src == "v" and e.dst == "u" for e in minted)
    assert g2.vertex_kind("v") == "infinite_emitter"
    g3, minted2 = g2.with_minted("bv", 1)
    assert minted2[0].name == "bv#2"


def test_minting_skips_vertex_and_bundle_names():
    as_vertex = Graph(["u", "v", "b#0"], [("e", "u", "u")], [("b", "u", "v")])
    as_bundle = Graph(["u", "v", "w"], [("e", "u", "u")], [("b", "u", "v"), ("b#0", "w", "v")])
    for g in (as_vertex, as_bundle):
        _, minted = g.with_minted("b", 2)
        assert [e.name for e in minted] == ["b#1", "b#2"]
        assert find_free_generators(g)


# JSON schema

def test_json_roundtrip(any_graph):
    assert graph_from_json(graph_to_json(any_graph)) == any_graph
    assert parse_graph(json.dumps(graph_to_json(any_graph))) == any_graph


def test_json_schema_rejections():
    with pytest.raises(SchemaError):
        parse_graph(b"not json {")
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": []})
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": ["u"], "stray": 1})
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": ["u"], "edges": [{"name": "e", "src": "u"}]})
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": ["u"], "edges": [{"name": "e", "src": "u", "dst": "u", "x": 1}]})
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": ["u"], "edges": "nope"})
    with pytest.raises(DanglingEndpointError):
        graph_from_json({"vertices": ["u"], "edges": [{"name": "e", "src": "u", "dst": "zz"}]})


def test_json_rejects_names_expressions_cannot_parse():
    # each of these would print into a normal form that fails to parse back,
    # e.g. "1x + a b"
    for bad in ("a b", "1x", "e-1", "", "x*y", "f^*"):
        with pytest.raises(SchemaError, match="not an identifier"):
            graph_from_json({"vertices": [bad]})
        with pytest.raises(SchemaError, match="not an identifier"):
            graph_from_json({"vertices": ["u"], "edges": [{"name": bad, "src": "u", "dst": "u"}]})
        with pytest.raises(SchemaError, match="not an identifier"):
            graph_from_json(
                {"vertices": ["u", "v"], "bundles": [{"name": bad, "src": "u", "dst": "v"}]}
            )
    ok = graph_from_json(
        {"vertices": ["_u", "v'", "w#1"], "edges": [{"name": "e_1'", "src": "_u", "dst": "w#1"}]}
    )
    assert set(ok.vertices) == {"_u", "v'", "w#1"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_hs_closure_random_graphs(n_extra, data):
    verts = [f"v{i}" for i in range(2 + n_extra)]
    n_edges = data.draw(st.integers(0, 6))
    edges = []
    for i in range(n_edges):
        src = data.draw(st.sampled_from(verts))
        dst = data.draw(st.sampled_from(verts))
        edges.append((f"e{i}", src, dst))
    g = Graph(verts, edges)
    seed = data.draw(st.lists(st.sampled_from(verts), max_size=3))
    closure = g.hereditary_saturated_closure(seed)
    assert g.is_hereditary_saturated(closure)
    assert closure == brute_hs_closure(g, set(seed))


def _checked_range(g: Graph, p: Path) -> str:
    """The range of p by the graph data, after Graph.path has accepted it."""
    assert g.path(p.source, p.edges) == p
    return _path_end(g, p.source, p.edges)


def _assert_path_pairs(g: Graph, element: AlgebraElement):
    assert element.graph is g
    for gamma, lam in element.terms:
        assert _checked_range(g, gamma) == _checked_range(g, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_produced_terms_are_path_pairs_of_their_graph(seed):
    # a path is (source, edges); whatever builds one must build a path of
    # the graph it lives on, and a monomial's two paths must share a range
    assert Path._fields == ("source", "edges")
    rng = random.Random(seed)
    g = random_bundle_graph(rng)
    x = random_element(rng, g) + random_monomial_element(rng, g)
    y = random_monomial_element(rng, g) * random_element(rng, g)
    for element in (x.mul(y), y.mul(x), x.star().mul(x)):
        _assert_path_pairs(g, element)
    _assert_path_pairs(g, AlgebraElement.from_terms(g, raw_monomials(_raw_product(raw_terms(x), raw_terms(y)))))
    proper = [pair for pair in enumerate_admissible(g) if pair.complement]
    for pair in rng.sample(proper, min(3, len(proper))):
        _assert_path_pairs(pair.quotient_graph(), pair.phi(x.mul(y)))
    modules = [(RationalPathModule(g, c.rep), c.rep.source) for c in g.cycle_report().cycles]
    for v in g.vertices:
        kind = g.vertex_kind(v)
        if kind in (SINK, INFINITE_EMITTER):
            modules.append(((SinkModule if kind == SINK else InfiniteEmitterModule)(g, v), v))
    for m, terminal in modules:
        paths = [random_path_into(rng, g, terminal, 4) for _ in range(3)]
        vec = m.vector({m.basis_path(p.source, p.edges): 1 for p in paths})
        for b in m.act(x, vec).terms:
            assert _checked_range(g, b) == terminal
