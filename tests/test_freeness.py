import random

import pytest

from conftest import _path_end, brute_certificate_for, random_bundle_graph
from leavitt import examples, freeness
from leavitt.algebra import AlgebraElement, eval_group_word
from leavitt.errors import NoWitnessFoundError, NotInvariantError, NotSquareZeroError
from leavitt.exprs import normalize
from leavitt.freeness import (
    BreakingVertexWitness,
    FreePairCertificate,
    InfinitePathEdgeWitness,
    SinkEdgeWitness,
    _matrix_context,
    certificate_for,
    count_reduced_words,
    find_free_generators,
    is_commutative,
    reduced_words,
    verify_free_words,
)
from leavitt.graph import Graph
from leavitt.modules import matrix_of


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
        raise AssertionError("certificate_for enumerated admissible pairs")

    monkeypatch.setattr(freeness, "enumerate_admissible", refuse)
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


def test_certificate_json_roundtrip(toeplitz, double_emitter, bundle_inflow):
    for g in (toeplitz, double_emitter, bundle_inflow):
        for cert in find_free_generators(g):
            verify_free_words(cert, max_len=2, mode="both")
            data = cert.to_json()
            again = FreePairCertificate.from_json(g, data)
            assert again.a == cert.a and again.b == cert.b
            assert again.a_inv == cert.a_inv and again.b_inv == cert.b_inv
            assert again.witness == cert.witness
            assert again.pair == cert.pair
            assert again.minted == cert.minted
            assert again.to_json() == data


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
        data = cert.to_json()
        again = FreePairCertificate.from_json(g, data)
        assert again.to_json() == data
        assert verify_free_words(again, 3, "both")["all_nontrivial"]


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


def test_rational_coefficients_are_native_ints():
    # the generators are 1 + 2t, so every word's coefficients, in the
    # algebra, under phi and in the witness matrices, are integers: each
    # must be an int, not an integral Fraction
    def ints(values):
        return all(type(c) is int for c in values)

    for name in sorted(examples.ALL):
        for cert in find_free_generators(examples.ALL[name]()):
            module, basis, phi = _matrix_context(cert)
            gens = ((cert.a, cert.a_inv), (cert.b, cert.b_inv))
            for word in reduced_words(3):
                x = eval_group_word(gens, word)
                image = phi(x)
                matrix = matrix_of(module, basis, image)
                assert ints(x.terms.values()), (name, word, x)
                assert ints(normalize(cert.graph, str(x)).terms.values()), (name, word)
                assert ints(image.terms.values()), (name, word, image)
                assert ints(c for row in matrix for c in row), (name, word, matrix)
