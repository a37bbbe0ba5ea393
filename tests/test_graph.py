import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _breaking,
    _is_hs,
    _path_end,
    _raw_product,
    brute_admissible,
    brute_cycles,
    brute_hs_closure,
    brute_mt3,
    brute_reaching,
    random_bundle_graph,
    random_element,
    random_monomial_element,
    random_path_into,
    raw_monomials,
    raw_terms,
)
from leavitt import examples, ideals
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
from leavitt.ideals import AdmissiblePair, clone_names, enumerate_admissible
from leavitt.modules import InfiniteEmitterModule, RationalPathModule, SinkModule
from leavitt.graph import (
    INFINITE_EMITTER,
    SINK,
    Graph,
    Path,
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


def test_require_vertices_raises_as_the_name_loops_did(double_emitter):
    """Every vertex-name set goes through ``Graph.require_vertices``, which
    raises for the first unknown name in the caller's order, as the
    per-name loop ``frozenset(g.require_vertex(v) for v in names)`` did."""
    g = double_emitter
    pair = AdmissiblePair(g, ["u"])
    entries = {
        "require_vertices": g.require_vertices,
        "AdmissiblePair H": lambda names: AdmissiblePair(g, names),
        "AdmissiblePair S": lambda names: AdmissiblePair(g, ["u"], names),
        "with_S": pair.with_S,
        "quotient_graph H": lambda names: quotient_graph(g, names, ()),
        "quotient_graph S": lambda names: quotient_graph(g, ["u"], names),
        "breaking_vertices": g.breaking_vertices,
        "satisfies_mt3": g.satisfies_mt3,
        "breaking_vertex_element": lambda names: ideals.breaking_vertex_element(g, names, "v"),
        "hereditary_saturated_closure": g.hereditary_saturated_closure,
    }
    for names in (["w", "x"], ["y", "w", "x"], ["x", "y"]):
        fixed = set(names)  # one object, so both readings see one iteration order
        for label, make in (("list", lambda: list(names)), ("set", lambda: fixed),
                            ("generator", lambda: (v for v in names))):
            with pytest.raises(UnknownVertexError) as old:
                frozenset(g.require_vertex(v) for v in make())
            for entry, call in entries.items():
                with pytest.raises(UnknownVertexError) as new:
                    call(make())
                assert str(new.value) == str(old.value), (names, label, entry)
    with pytest.raises(UnknownVertexError, match="^unknown vertex 'y'$"):
        g.require_vertices(v for v in ["w", "y", "x"])
    for names in (["w", "u", "w"], {"u", "w"}, (v for v in "uw"), "uw"):
        assert g.require_vertices(names) == frozenset({"u", "w"})
    assert g.require_vertices(()) == frozenset()


def test_graph_names_are_its_vertices_edges_and_bundles(any_graph):
    g = any_graph
    assert g.names == set(g.vertices) | set(g.edges) | set(g.bundles)
    assert len(g.names) == len(g.vertices) + len(g.edges) + len(g.bundles)


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


def test_exclusive_matches_pairwise_definition():
    # a cycle is exclusive iff it shares no vertex with any other cycle,
    # checked pairwise over the brute-force cycles of every example graph
    # (each any_graph fixture among them) and of seeded random graphs
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(60)]
    seen = set()
    for g in graphs:
        vertex_sets = {c: frozenset(g.edges[name].src for name in c) for c in brute_cycles(g)}
        expected = {
            c: all(not (vs & other) for d, other in vertex_sets.items() if d != c)
            for c, vs in vertex_sets.items()
        }
        got = {frozenset(c.rep.edges): c.exclusive for c in g.cycle_report().cycles}
        assert got == expected, g
        seen.update(expected.values())
    assert seen == {True, False}


def test_cycle_report_on_many_disjoint_loops():
    # 3,000 loops, each with an exit to one sink: deciding exclusivity must
    # stay linear, not compare the 4.5 million pairs of cycles
    n = 3000
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"l{i}", v, v) for i, v in enumerate(vs)] + [(f"x{i}", v, "s") for i, v in enumerate(vs)]
    g = Graph(vs + ["s"], edges)
    start = time.perf_counter()
    report = g.cycle_report()
    assert time.perf_counter() - start < 1
    assert len(report.cycles) == n and report.condition_l
    assert all(c.exclusive and c.exits == (f"x{c.rep.edges[0][1:]}",) for c in report.cycles)


def test_parallel_edges_make_two_cycles():
    g = Graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "u")])
    report = g.cycle_report()
    assert {frozenset(c.rep.edges) for c in report.cycles} == {
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
    }
    assert all(not c.exclusive for c in report.cycles)


def _recorded(monkeypatch, name):
    """Patch the Graph method ``name`` to log (graph, args, result) per call."""
    calls, original = [], getattr(Graph, name)

    def recording(self, *args):
        calls.append((self, args, original(self, *args)))
        return calls[-1][2]

    monkeypatch.setattr(Graph, name, recording)
    return calls


def test_graph_queries_match_oracles_on_every_vertex_subset(monkeypatch):
    # hereditary saturation, breaking vertices and MT-3 on every subset, and
    # vertex kinds on every vertex, against definitions read off the raw
    # edges and bundles; both answers of each predicate must occur, and MT-3
    # walks back at most once
    walks = _recorded(monkeypatch, "reaching")
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(40)]
    outcomes = {"hs": set(), "mt3": set(), "breaking": set()}
    for g in graphs:
        for v in g.vertices:
            if any(b.src == v for b in g.bundles.values()):
                kind = "infinite_emitter"
            elif any(e.src == v for e in g.edges.values()):
                kind = "regular"
            else:
                kind = "sink"
            assert g.vertex_kind(v) == kind, (g, v)
        for r in range(len(g.vertices) + 1):
            for combo in combinations(g.vertices, r):
                H = frozenset(combo)
                hs = _is_hs(g, H)
                assert g.is_hereditary_saturated(H) == hs, (g, H)
                if hs:
                    B = g.breaking_vertices(H)
                    assert B == _breaking(g, H), (g, H)
                    outcomes["breaking"].add(bool(B))
                else:
                    with pytest.raises(NotHereditarySaturatedError):
                        g.breaking_vertices(H)
                mt3 = brute_mt3(g, H)
                walks.clear()
                assert g.satisfies_mt3(H) == mt3, (g, H)
                assert len(walks) <= 1, (g, H)
                outcomes["hs"].add(hs)
                outcomes["mt3"].add(mt3)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_mt3(toeplitz, loop_with_two_exits):
    assert toeplitz.satisfies_mt3({"u", "v"})
    assert loop_with_two_exits.satisfies_mt3({"u", "v"})
    two = Graph(["a", "b"])
    assert not two.satisfies_mt3({"a", "b"})
    assert two.satisfies_mt3(set())


def test_components_are_computed_once_per_graph(monkeypatch):
    runs = _recorded(monkeypatch, "_components")
    for name in sorted(examples.ALL):
        g = examples.ALL[name]()
        g.cycle_report()
        ideals._maximal_tails(g)
        for _ in range(3):
            g.satisfies_mt3(g.vertices)
        mine = [result for graph, _, result in runs if graph is g]
        assert len(mine) == 5 and all(result is mine[0] for result in mine), name


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


def primed_names_graph() -> Graph:
    # a and a' both break for H = {h}; the names a', x' are already taken
    return Graph(
        ["a", "a'", "h"],
        [("x", "a", "a'"), ("y", "a'", "a"), ("x'", "a'", "a'")],
        [("ba", "a", "h"), ("bb", "a'", "h")],
    )


def test_clone_names_skip_taken_names():
    g = primed_names_graph()
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


def test_pair_quotient_is_the_checked_quotient():
    # the pair builds its quotient from its own H and clone table, with no
    # check; the public function checks (H, S) first and must agree, in order
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(40)]
    graphs.append(primed_names_graph())
    cloned = 0
    for g in graphs:
        names = set(g.vertices) | set(g.edges) | set(g.bundles)
        for pair in enumerate_admissible(g):
            if not pair.complement:
                for build in (pair.quotient_graph, lambda: quotient_graph(g, pair.H, pair.S)):
                    with pytest.raises(NotAdmissibleError, match="whole vertex set"):
                        build()
                continue
            q = pair.quotient_graph()
            assert graph_to_json(q) == graph_to_json(quotient_graph(g, pair.H, pair.S)), (g, pair)
            added = (set(q.vertices) | set(q.edges) | set(q.bundles)) - names
            assert added == set(pair.clones.values()), (g, pair)
            cloned += bool(added)
    assert cloned


def test_pair_quotient_runs_no_closure(monkeypatch):
    # construction checked the pair; building its quotient checks nothing
    # again, and the public function checks with one closure
    calls = []
    real = Graph.extend_hereditary_saturated

    def counted(self, H, seed):
        calls.append(H)
        return real(self, H, seed)

    monkeypatch.setattr(Graph, "extend_hereditary_saturated", counted)
    g = primed_names_graph()
    for pair in (AdmissiblePair(g, {"h"}), AdmissiblePair(g, {"h"}).with_S({"a"})):
        calls.clear()
        pair.quotient_graph()
        assert calls == []
        quotient_graph(g, pair.H, pair.S)
        assert len(calls) == 1


def test_quotient_reports_the_improper_ideal_before_s(double_emitter):
    with pytest.raises(NotAdmissibleError, match="^H is the whole vertex set"):
        quotient_graph(double_emitter, {"u", "v", "w"}, {"v"})
    with pytest.raises(NotAdmissibleError) as info:
        quotient_graph(double_emitter, {"u"}, {"u"})
    assert str(info.value) == "S=['u'] is not a subset of the breaking vertices ['v', 'w']"


def _long_cycle(n: int, extra=()) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs + list(extra), [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def test_mt3_on_a_long_cycle(monkeypatch):
    walks = _recorded(monkeypatch, "reaching")
    for g, expected in ((_long_cycle(1200), True), (_long_cycle(1200, ["x"]), False)):
        walks.clear()
        start = time.perf_counter()
        assert g.satisfies_mt3(g.vertices) is expected
        assert time.perf_counter() - start < 5
        assert len(walks) == 1


def test_cycle_report_on_long_paths():
    n = 1200
    report = _long_cycle(n).cycle_report()
    assert len(report.cycles) == 1 and not report.condition_l
    (cycle,) = report.cycles
    assert not cycle.has_exit and cycle.exclusive
    assert cycle.rep == Path("v0", tuple(f"e{i}" for i in range(n)))
    # on a path, each walk stops at the edge of its strongly connected component
    n = 20_000
    vs = [f"v{i}" for i in range(n)]
    path = Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
    assert path.vertex_kind(vs[-1]) == SINK
    start = time.perf_counter()
    assert path.cycle_report().cycles == () and path.cycle_report().condition_l
    assert time.perf_counter() - start < 5


def test_minting():
    g = examples.double_emitter()
    g1, first = g.with_minted("bv")
    g2, second = g1.with_minted("bv")
    minted = first + second
    assert [e.name for e in minted] == ["bv#0", "bv#1"]
    assert all(e.src == "v" and e.dst == "u" for e in minted)
    assert g2.vertex_kind("v") == "infinite_emitter"
    g3, minted2 = g2.with_minted("bv")
    assert minted2[0].name == "bv#2"


def test_minting_skips_vertex_and_bundle_names():
    as_vertex = Graph(["u", "v", "b#0"], [("e", "u", "u")], [("b", "u", "v")])
    as_bundle = Graph(["u", "v", "w"], [("e", "u", "u")], [("b", "u", "v"), ("b#0", "w", "v")])
    for g in (as_vertex, as_bundle):
        g1, first = g.with_minted("b")
        _, second = g1.with_minted("b")
        assert [e.name for e in first + second] == ["b#1", "b#2"]
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
