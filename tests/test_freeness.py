import random
import time

import pytest

from conftest import (
    _path_end,
    brute_certificate_for,
    brute_edge_witnesses,
    random_bundle_graph,
    random_element,
)
from leavitt import algebra, examples, freeness, ideals
from leavitt.algebra import AlgebraElement
from leavitt.errors import NoWitnessFoundError, NotInvariantError, NotSquareZeroError
from leavitt.exprs import normalize
from leavitt.freeness import (
    BreakingVertexWitness,
    FreePairCertificate,
    InfinitePathEdgeWitness,
    SinkEdgeWitness,
    _edge_witness,
    _matrix_context,
    _tails,
    certificate_for,
    count_reduced_words,
    eval_group_word,
    find_free_generators,
    is_commutative,
    reduced_words,
    verify_free_words,
)
from leavitt.graph import Graph
from leavitt.ideals import AdmissiblePair, ClassificationResult
from leavitt.modules import mat_identity, mat_mul, matrix_of, span_matrix


def _pairs(certs):
    return {(str(c.a), str(c.b)) for c in certs}


def test_is_commutative_witnesses(toeplitz):
    report = is_commutative(toeplitz)
    assert not report.commutative
    x, y = report.witness
    assert x == AlgebraElement.edge(toeplitz, "f")
    assert y == AlgebraElement.vertex(toeplitz, "u")
    assert (x * y).is_zero()
    assert y * x == x
    assert not (x * y - y * x).is_zero()


def test_is_commutative_positive_cases():
    assert is_commutative(Graph(["v"], [("e", "v", "v")])).commutative
    assert is_commutative(Graph(["a", "b"])).commutative
    assert is_commutative(
        Graph(["a", "b"], [("e", "a", "a"), ("f", "b", "b")])
    ).commutative


def test_single_loop_commutes_by_exhaustion():
    # oracle for the single-loop verdict: every pair of monomials e^a (e^b)*
    # with a + b <= 3 commutes
    g = Graph(["v"], [("e", "v", "v")])
    monomials = []
    for a in range(4):
        for b in range(4 - a):
            monomials.append(
                normalize(g, "*".join(["e"] * a + ["e^*"] * b) if a + b else "v")
            )
    for x in monomials:
        for y in monomials:
            assert x * y == y * x


def test_is_commutative_two_loops():
    g = Graph(["v"], [("d", "v", "v"), ("e", "v", "v")])
    report = is_commutative(g)
    assert not report.commutative
    x, y = report.witness
    assert not (x * y - y * x).is_zero()


def test_is_commutative_bundle_only():
    g = Graph(["a", "b"], [], [("c", "a", "b")])
    report = is_commutative(g)
    assert not report.commutative
    assert report.minted and report.minted[0].name == "c#0"
    x, y = report.witness
    assert not (x * y - y * x).is_zero()


def test_find_free_generators_toeplitz(toeplitz):
    certs = find_free_generators(toeplitz)
    assert len(certs) == 1
    cert = certs[0]
    assert cert.a == normalize(toeplitz, "1 + 2*f^*")
    assert cert.b == normalize(toeplitz, "1 + 2*f")
    assert isinstance(cert.witness, SinkEdgeWitness)
    one = AlgebraElement.one(toeplitz)
    assert cert.a * cert.a_inv == one and cert.b_inv * cert.b == one


def test_find_free_generators_double_emitter(double_emitter):
    certs = find_free_generators(double_emitter)
    expected_a = normalize(double_emitter, "1 + 2*(w - f*f^*)*f^*")
    expected_b = normalize(double_emitter, "1 + 2*f*(w - f*f^*)")
    assert (str(expected_a), str(expected_b)) in _pairs(certs)
    breaking = [c for c in certs if isinstance(c.witness, BreakingVertexWitness)]
    assert breaking, "expected at least one breaking-vertex certificate"
    for cert in breaking:
        t1 = cert.a - AlgebraElement.one(cert.graph)
        t2 = cert.b - AlgebraElement.one(cert.graph)
        assert (t1 * t1).is_zero() and (t2 * t2).is_zero()


def test_find_free_generators_other_graphs(loop_with_two_exits, chained_loops):
    certs2 = find_free_generators(loop_with_two_exits)
    assert (
        str(normalize(loop_with_two_exits, "1 + 2*f^*")),
        str(normalize(loop_with_two_exits, "1 + 2*f")),
    ) in _pairs(certs2)
    certs4 = find_free_generators(chained_loops)
    assert (
        str(normalize(chained_loops, "1 + 2*g^*")),
        str(normalize(chained_loops, "1 + 2*g")),
    ) in _pairs(certs4)


def test_find_free_generators_minted(bundle_inflow):
    certs = find_free_generators(bundle_inflow)
    assert any(c.minted for c in certs)
    minted_cert = next(c for c in certs if isinstance(c.witness, BreakingVertexWitness))
    assert minted_cert.witness.edge == "bv#0"
    tr = verify_free_words(minted_cert, max_len=4, mode="both")
    assert tr["all_nontrivial"] and tr["word_count"] == count_reduced_words(4)


def test_find_free_generators_deterministic(chained_loops, double_emitter):
    for g in (chained_loops, double_emitter):
        first = [c.to_json() for c in find_free_generators(g)]
        second = [c.to_json() for c in find_free_generators(g)]
        assert first == second


def test_commutative_graph_raises():
    g = Graph(["v"], [("e", "v", "v")])
    with pytest.raises(NoWitnessFoundError) as info:
        find_free_generators(g)
    assert info.value.transcript


def test_phi_compat_for_breaking_certificates():
    # every certificate lifts 2 f-bar: phi(b) = 1 + 2 f-bar and phi(a) = 1 + 2 f-bar*,
    # where f-bar is the witness edge, or its clone for a breaking-vertex witness
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(40)]
    checked = 0
    for g in graphs:
        try:
            certs = find_free_generators(g)
        except NoWitnessFoundError:
            continue
        for cert in certs:
            q = cert.pair.quotient_graph()
            fbar = cert.witness.edge
            if isinstance(cert.witness, BreakingVertexWitness):
                fbar = cert.pair.clones[fbar]
            one, f = AlgebraElement.one(q), AlgebraElement.edge(q, fbar).scale(2)
            assert cert.pair.phi(cert.a) == one + f.star(), (g, cert.witness)
            assert cert.pair.phi(cert.b) == one + f, (g, cert.witness)
            checked += 1
    assert checked == 177


def _example_and_random_certificates():
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(40)]
    certs = []
    for g in graphs:
        try:
            certs += find_free_generators(g)
        except NoWitnessFoundError:
            pass
    return certs


def _matrix_or_error(read):
    try:
        return read()
    except NotInvariantError:
        return NotInvariantError


def test_span_matrix_of_raw_images_matches_matrix_of_phi():
    # the fused read (raw quotient images straight into the 2x2 matrix)
    # agrees with the matrix of the normalized image, and both leave the
    # span on the same inputs: words of length <= 3 and random elements
    certs = _example_and_random_certificates()
    kinds = {"breaking_vertex": 0, "minted": 0, "invariant": 0, "not_invariant": 0}
    rng = random.Random(12)
    for cert in certs:
        kinds["breaking_vertex"] += isinstance(cert.witness, BreakingVertexWitness)
        kinds["minted"] += bool(cert.minted)
        module, basis = _matrix_context(cert)
        phi = cert.pair.phi
        gens = {"a": cert.a, "A": cert.a_inv, "b": cert.b, "B": cert.b_inv}
        words = {"": AlgebraElement.one(cert.graph, cert.a.field)}
        for word in reduced_words(3):  # depth-first: a word's prefix comes first
            words[word] = words[word[:-1]] * gens[word[-1]]
        xs = list(words.values()) + [random_element(rng, cert.graph) for _ in range(4)]
        for x in xs:
            fused = _matrix_or_error(lambda: span_matrix(module, basis, cert.pair.phi_terms(x)))
            old = _matrix_or_error(lambda: matrix_of(module, basis, phi(x)))
            assert fused == old, (cert.graph, cert.witness, x)
            kinds["not_invariant" if old is NotInvariantError else "invariant"] += 1
    assert len(certs) == 177
    assert all(kinds.values()), kinds


def test_matrix_mode_builds_no_quotient_element(monkeypatch):
    certs = _example_and_random_certificates()

    def refuse(*args, **kwargs):
        raise AssertionError("matrix mode built a quotient element")

    monkeypatch.setattr(AdmissiblePair, "phi", refuse)
    monkeypatch.setattr(AlgebraElement, "from_terms", classmethod(refuse))
    for cert in certs:
        assert verify_free_words(cert, 3, "matrix")["all_nontrivial"], cert.witness


def test_reduced_word_enumeration():
    words1 = list(reduced_words(1))
    assert sorted(words1) == ["A", "B", "a", "b"]
    words3 = list(reduced_words(3))
    assert len(words3) == count_reduced_words(3) == 52
    assert len(set(words3)) == len(words3)
    for w in words3:
        for x, y in zip(w, w[1:]):
            assert {x, y} not in ({"a", "A"}, {"b", "B"})
    assert count_reduced_words(8) == 13120


def test_verify_modes_agree(toeplitz):
    cert = find_free_generators(toeplitz)[0]
    for mode in ("algebra", "matrix", "both"):
        tr = verify_free_words(cert, max_len=4, mode=mode)
        assert tr["all_nontrivial"]
        assert tr["word_count"] == count_reduced_words(4) == 160
        assert tr["mode"] == mode
        assert "length <= 4" in tr["note"]
    assert cert.verification["max_len"] == 4


def test_verify_detects_violation():
    # 1 + 2f and its inverse pretend to be independent generators; the word
    # "ab" evaluates to 1, which the checker must report
    g = Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")])
    from leavitt.ideals import AdmissiblePair
    from leavitt.ideals import ClassificationResult

    b = normalize(g, "1 + 2*f")
    b_inv = normalize(g, "1 - 2*f")
    cert = FreePairCertificate(
        graph=g,
        a=b_inv,
        a_inv=b,
        b=b,
        b_inv=b_inv,
        witness=SinkEdgeWitness(edge="f", sink="v"),
        pair=AdmissiblePair(g, ()),
        classification=ClassificationResult("unclassified"),
    )
    tr = verify_free_words(cert, max_len=2, mode="both")
    assert not tr["all_nontrivial"]
    assert tr["first_violation"]["word"] == "ab"


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("algebra", "evaluates to 1 in the algebra"),
        ("matrix", "matrix image is the identity"),
        ("both", "evaluates to 1 in the algebra"),
    ],
)
def test_each_mode_reports_its_own_reason(toeplitz, mode, reason):
    # a = b = 1 + 2f: the fifth word in DFS order, aB, is 1, and each mode
    # names the check that caught it (both runs the algebra check first)
    a = normalize(toeplitz, "1 + 2*f")
    a_inv = normalize(toeplitz, "1 - 2*f")
    cert = FreePairCertificate(
        graph=toeplitz,
        a=a,
        a_inv=a_inv,
        b=a,
        b_inv=a_inv,
        witness=SinkEdgeWitness(edge="f", sink="v"),
        pair=AdmissiblePair(toeplitz, ()),
        classification=ClassificationResult("unclassified"),
    )
    tr = verify_free_words(cert, max_len=3, mode=mode)
    assert tr["first_violation"] == {"word": "aB", "reason": reason}
    assert tr["word_count"] == 5 and not tr["all_nontrivial"]


def test_cross_check_catches_a_wrong_matrix_product(monkeypatch, toeplitz):
    # an off-by-one matrix product leaves every word's matrix != I, so only
    # the cross-check against the evaluated word can catch it, at once
    def off_by_one(x, y):
        (p, q), (r, s) = mat_mul(x, y)
        return (p, q + 1), (r, s)

    monkeypatch.setattr(freeness, "mat_mul", off_by_one)
    cert = certificate_for(toeplitz, "1 + 2*f^*", "1 + 2*f")
    tr = verify_free_words(cert, max_len=3, mode="both")
    assert tr["first_violation"] == {
        "word": "B",
        "reason": "matrix of the evaluated word disagrees with the matrix product",
    }
    assert tr["word_count"] == 1


def test_one_acts_as_the_identity_on_every_witness_span():
    # the step that lets "both" read the matrix of 1 + X off X alone
    for cert in _example_and_random_certificates():
        module, basis = _matrix_context(cert)
        one = AlgebraElement.one(cert.graph, cert.a.field)
        assert span_matrix(module, basis, cert.pair.phi_terms(one)) == mat_identity(module.field)


def _cycle_with_exit(n):
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph(vs + ["s"], edges + [("x", "v0", "s")])


def _algebra_work(monkeypatch, run):
    counts = {"_mono_mul": 0, "add_term": 0}
    with monkeypatch.context() as patch:
        for name in counts:

            def counted(*args, _real=getattr(algebra, name), _name=name):
                counts[_name] += 1
                return _real(*args)

            patch.setattr(algebra, name, counted)
        run()
    return counts


@pytest.mark.parametrize("mode", ["algebra", "both"])
def test_word_loop_work_does_not_grow_with_the_graph(monkeypatch, mode):
    # words of length 1 are the generator offsets themselves, so L = 1
    # counts only the per-call set-up, and L = 4 minus L = 1 is the loop
    loops = []
    for n in (10, 1000):
        cert = certificate_for(_cycle_with_exit(n), "1+2*x^*", "1+2*x")
        work = {
            L: _algebra_work(monkeypatch, lambda: verify_free_words(cert, L, mode)) for L in (1, 4)
        }
        assert verify_free_words(cert, 4, mode)["all_nontrivial"]
        loops.append({name: work[4][name] - work[1][name] for name in work[4]})
    assert loops[0] == loops[1]
    assert loops[0]["_mono_mul"] > 0 and loops[0]["add_term"] > 0


@pytest.mark.parametrize("mode", ["algebra", "both"])
def test_words_never_multiply_by_the_identity(monkeypatch, mode):
    g = _cycle_with_exit(10)
    cert = certificate_for(g, "1+2*x^*", "1+2*x")
    factors = []
    real = AlgebraElement.mul

    def recorded(self, other):
        factors.extend((self, other))
        return real(self, other)

    monkeypatch.setattr(AlgebraElement, "mul", recorded)
    assert verify_free_words(cert, 4, mode)["all_nontrivial"]
    assert factors
    for x in factors:
        trivial = sum(not m.gamma.edges and not m.lam.edges for m in x.terms)
        assert trivial < len(g.vertices), x


def test_certificate_for_and_witness_recovery(toeplitz, double_emitter):
    cert = certificate_for(toeplitz, "1 + 2*f^*", "1 + 2*f")
    assert isinstance(cert.witness, SinkEdgeWitness)
    tr = verify_free_words(cert, max_len=3, mode="both")
    assert tr["all_nontrivial"]

    cert2 = certificate_for(
        double_emitter, "1 + 2*(w - f*f^*)*f^*", "1 + 2*f*(w - f*f^*)"
    )
    assert isinstance(cert2.witness, BreakingVertexWitness)
    assert verify_free_words(cert2, max_len=3, mode="both")["all_nontrivial"]


def test_certificate_for_matches_scan_oracle():
    # every discovered certificate, as given, swapped and inverted, gets the
    # witness and pair that the scan over all admissible pairs finds first
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(40)]
    kinds = set()
    for g in graphs:
        try:
            certs = find_free_generators(g)
        except NoWitnessFoundError:
            continue
        for cert in certs:
            for x, y in ((cert.a, cert.b), (cert.b, cert.a), (cert.a_inv, cert.b_inv)):
                got = certificate_for(cert.graph, str(x), str(y))
                witness, pair = brute_certificate_for(cert.graph, str(x), str(y))
                assert got.witness.to_json() == witness.to_json(), (g, x, y)
                assert got.pair.to_json() == pair.to_json(), (g, x, y)
                kinds.add(witness.to_json()["kind"])
    assert kinds == {"sink_edge", "infinite_path_edge", "breaking_vertex", "none"}


def test_certificate_for_never_enumerates(monkeypatch, double_emitter):
    def refuse(g):
        raise AssertionError("enumerated admissible pairs")

    monkeypatch.setattr(ideals, "enumerate_admissible", refuse)
    # Toeplitz plus 17 isolated sinks has 2^17 * 3 admissible pairs
    sinks = [f"z{i}" for i in range(17)]
    g = Graph(["u", "v", *sinks], [("e", "u", "u"), ("f", "u", "v")])
    # the swapped pair is read off a - 1 = 2f and acts by the transposes
    cert = certificate_for(g, "1+2*f", "1+2*f^*")
    assert cert.witness == SinkEdgeWitness("f", "v")
    assert verify_free_words(cert, max_len=3, mode="both")["all_nontrivial"]
    assert certificate_for(g, "1+2*f^*", "1+2*f").witness == SinkEdgeWitness("f", "v")
    cert = certificate_for(double_emitter, "1 + 2*(w - f*f^*)*f^*", "1 + 2*f*(w - f*f^*)")
    assert cert.witness == BreakingVertexWitness("f", "w")
    # discovery visits the maximal tails only: two pairs here, not 3 * 2^17
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        certs = find_free_generators(g)
        elapsed.append(time.perf_counter() - start)
    assert [c.witness for c in certs] == [SinkEdgeWitness("f", "v")]
    assert min(elapsed) < 0.05
    # 12 looped infinite emitters bundled into one sink: 3^12 + 1 pairs
    ws = [f"w{i}" for i in range(12)]
    g = Graph(
        ["t", *ws],
        [(f"l{i}", w, w) for i, w in enumerate(ws)],
        [(f"b{i}", w, "t") for i, w in enumerate(ws)],
    )
    certs = find_free_generators(g)
    assert len(certs) == 13
    for cert in certs:
        assert verify_free_words(cert, 3, "both")["all_nontrivial"], cert.witness


def test_swapped_certificates_verify_in_both_modes():
    # (b, a) is read off a - 1 and acts by the transposed Sanov matrices
    count = 0
    for name in sorted(examples.ALL):
        for cert in find_free_generators(examples.ALL[name]()):
            swapped = certificate_for(cert.graph, str(cert.b), str(cert.a))
            assert swapped.witness.to_json()["kind"] != "none", (name, str(cert.b))
            assert verify_free_words(swapped, 4, "both")["all_nontrivial"], (name, str(cert.b))
            count += 1
    assert count == 17


def test_certificate_for_takes_least_H(double_emitter):
    # {u} and {u, z} both make w breaking with the same w^H; the least wins
    g = Graph(
        [*double_emitter.vertices, "z"],
        list(double_emitter.edges.values()),
        list(double_emitter.bundles.values()),
    )
    cert = certificate_for(g, "1 + 2*(w - f*f^*)*a^*", "1 + 2*a*(w - f*f^*)")
    assert cert.witness == BreakingVertexWitness("a", "w")
    assert cert.pair.to_json() == {"H": ["u"], "S": ["v"]}
    assert verify_free_words(cert, 3, "both")["all_nontrivial"]


def test_certificate_for_rejects_non_unipotent(toeplitz):
    with pytest.raises(NotSquareZeroError):
        certificate_for(toeplitz, "1 + u", "1 + 2*f")


def test_certificate_without_witness_is_algebra_only(toeplitz):
    cert = certificate_for(toeplitz, "1 + 2*e*f", "1 + 2*f")
    assert verify_free_words(cert, max_len=3, mode="algebra")["all_nontrivial"]
    with pytest.raises(NotInvariantError):
        verify_free_words(cert, max_len=3, mode="both")


def test_verify_bad_args(toeplitz):
    cert = find_free_generators(toeplitz)[0]
    with pytest.raises(ValueError):
        verify_free_words(cert, max_len=0)
    with pytest.raises(ValueError):
        verify_free_words(cert, max_len=2, mode="telepathy")


def test_clone_names_avoid_existing_primed_names():
    # w is breaking for H = {u}; its clone cannot be called w' because the
    # graph already has a vertex of that name
    g = Graph(["u", "w", "w'"], [("k", "w", "w'"), ("f", "w'", "w")], [("bw", "w", "u")])
    certs = find_free_generators(g)
    breaking = [c for c in certs if isinstance(c.witness, BreakingVertexWitness)]
    assert [c.pair.clones for c in breaking] == [{"w": "w''", "f": "f'"}]
    for cert in breaking:
        # the cached table names exactly what the quotient graph added
        q = cert.pair.quotient_graph()
        added = (set(q.vertices) | set(q.edges) | set(q.bundles)) - (
            set(g.vertices) | set(g.edges) | set(g.bundles)
        )
        assert added == set(cert.pair.clones.values())
    for cert in certs:
        assert verify_free_words(cert, 3, "both")["all_nontrivial"]


def test_infinite_path_witness_tail_is_materialized(chained_loops):
    certs = find_free_generators(chained_loops)
    tails = [c.witness for c in certs if isinstance(c.witness, InfinitePathEdgeWitness)]
    assert tails
    for w in tails:
        g = chained_loops
        # the tail is a real eventually periodic path: prefix then cycle
        prefix = g.path(w.tail_source, w.tail_prefix)
        cycle = g.path(_path_end(g, prefix.source, prefix.edges), w.tail_cycle)
        assert cycle.source == _path_end(g, cycle.source, cycle.edges)


def test_tails_match_forward_search_oracle():
    # every quotient discovery builds, with every tail it asks for there: any
    # sink or cycle, each cycle without exits, and the clone sink of type I
    graphs = [examples.ALL[name]() for name in sorted(examples.ALL)]
    graphs += [random_bundle_graph(random.Random(seed)) for seed in range(200)]
    kinds, prefixes = set(), set()
    for g in graphs:
        for pair in ideals._maximal_tails(g):
            q = pair.quotient_graph()
            targets = [None] + [c.rep.edges for c in q.cycle_report().cycles if not c.has_exit]
            targets += [pair.clones[w] for w in sorted(pair.unresolved)]
            for target in targets:
                tails = _tails(q, target)
                got = {f: w for f in q.edges if (w := _edge_witness(q, f, tails)) is not None}
                assert got == brute_edge_witnesses(q, target), (g, pair.to_json(), target)
                for w in got.values():
                    kinds.add(type(w).__name__)
                    prefixes.add(len(getattr(w, "tail_prefix", ())))
    assert kinds == {"SinkEdgeWitness", "InfinitePathEdgeWitness"}
    assert {0, 1, 2} <= prefixes

    # two shortest routes from x onto the loop at c, the later name inserted
    # first: the tail takes the least-named first edge
    g = Graph(
        ["s", "x", "a", "b", "c"],
        [("f", "s", "x"), ("r2", "x", "a"), ("r1", "x", "b"), ("ta", "a", "c"),
         ("tb", "b", "c"), ("l", "c", "c")],
    )
    expected = InfinitePathEdgeWitness("f", "x", ("r1", "tb"), ("l",))
    assert _edge_witness(g, "f", _tails(g, None)) == expected
    assert brute_edge_witnesses(g)["f"] == expected


def test_discovery_on_a_long_path():
    # one search per quotient: a 3,000-vertex path, built afresh each time
    n, best = 3000, float("inf")
    vs = [f"v{i}" for i in range(n)]
    for _ in range(3):
        start = time.perf_counter()
        g = Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
        certs = find_free_generators(g)
        best = min(best, time.perf_counter() - start)
        assert [c.witness for c in certs] == [SinkEdgeWitness("e2998", "v2999")]
    assert best < 1


def test_rational_coefficients_are_native_ints():
    # the generators are 1 + 2t, so every word's coefficients, in the
    # algebra, under phi and in the witness matrices, are integers: each
    # must be an int, not an integral Fraction
    def ints(values):
        return all(type(c) is int for c in values)

    for name in sorted(examples.ALL):
        for cert in find_free_generators(examples.ALL[name]()):
            module, basis = _matrix_context(cert)
            phi = cert.pair.phi
            gens = ((cert.a, cert.a_inv), (cert.b, cert.b_inv))
            for word in reduced_words(3):
                x = eval_group_word(gens, word)
                image = phi(x)
                matrix = matrix_of(module, basis, image)
                assert ints(x.terms.values()), (name, word, x)
                assert ints(normalize(cert.graph, str(x)).terms.values()), (name, word)
                assert ints(image.terms.values()), (name, word, image)
                assert ints(c for row in matrix for c in row), (name, word, matrix)
