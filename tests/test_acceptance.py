"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import random
import time
import zlib
from fractions import Fraction

from conftest import brute_normal_form, random_element, random_expr_tree, relation_elements
from leavitt import examples
from leavitt.algebra import AlgebraElement, eval_group_word, invert_unipotent
from leavitt.exprs import evaluate, normalize
from leavitt.freeness import (
    BreakingVertexWitness,
    count_reduced_words,
    find_free_generators,
    verify_free_words,
)
from leavitt.ideals import (
    DEFAULT_CYCLE_POLY,
    AdmissiblePair,
    IdealDescriptor,
    breaking_vertex_element,
    classify,
    enumerate_admissible,
)
from leavitt.modules import (
    InfiniteEmitterModule,
    RationalPathModule,
    SinkModule,
    TwistedRationalPathModule,
    invariant_pair,
    matrix_of,
)
from leavitt.scalars import ExtensionField, LaurentPoly

FIXTURES = {
    "T": examples.toeplitz,
    "G1": examples.double_emitter,
    "G2": examples.loop_with_two_exits,
    "G3": examples.cycle_with_side_loop,
    "G4": examples.chained_loops,
}


def _verdict(num: int, desc: str, ok: bool):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_c01_relation_suite():
    t0 = time.time()
    ok = True
    for g in (mk() for mk in FIXTURES.values()):
        for label, elem in relation_elements(g):
            if not elem.is_zero():
                ok = False
    elapsed = time.time() - t0
    _verdict(1, f"all defining relations normalize to 0 on 5 fixtures ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_c02_canonicity():
    t0 = time.time()
    ok = True
    for name, mk in FIXTURES.items():
        g = mk()
        rng = random.Random(zlib.crc32(name.encode()))  # str hash() is salted per process
        for i in range(1000):
            tree = random_expr_tree(rng, g, depth=3)
            got = evaluate(g, tree).terms
            if got != brute_normal_form(g, tree, 2 * i) or got != brute_normal_form(g, tree, 10**9 - i):
                ok = False
    elapsed = time.time() - t0
    _verdict(
        2,
        f"1000 random expressions per fixture against two shuffled reductions ({elapsed:.1f}s)",
        ok and elapsed < 30,
    )


def test_c03_ring_and_involution_axioms():
    ok = True
    for name, mk in FIXTURES.items():
        g = mk()
        one = AlgebraElement.one(g)
        rng = random.Random(len(name) * 101)
        for _ in range(500):
            a, b, c = (random_element(rng, g) for _ in range(3))
            ok &= (a * b) * c == a * (b * c)
            ok &= a * (b + c) == a * b + a * c
            ok &= (a * b).star() == b.star() * a.star()
            ok &= a.star().star() == a
            ok &= one * a == a and a * one == a
    _verdict(3, "associativity, distributivity, involution on 500 random triples per fixture", ok)


SANOV_A = ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)))
SANOV_B = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))


def test_c04_sanov_images():
    t = FIXTURES["T"]()
    m = SinkModule(t, "v")
    basis = invariant_pair(m, "f")
    ok = matrix_of(m, basis, normalize(t, "1 + 2*f^*")) == SANOV_A
    ok &= matrix_of(m, basis, normalize(t, "1 + 2*f")) == SANOV_B

    g4 = FIXTURES["G4"]()
    mu = RationalPathModule(g4, g4.path("u", ["e"]))
    basis4 = invariant_pair(mu, "g")
    ok &= matrix_of(mu, basis4, normalize(g4, "1 + 2*g^*")) == SANOV_A
    ok &= matrix_of(mu, basis4, normalize(g4, "1 + 2*g")) == SANOV_B
    _verdict(4, "Sanov matrices [[1,0],[2,1]] and [[1,2],[0,1]] over both witness subspaces", ok)


def _mat_mul_int(A, B):
    # independent 2x2 integer oracle for the commutator value
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def test_c05_commutator():
    A = ((1, 0), (2, 1))
    B = ((1, 2), (0, 1))
    A_inv = ((1, 0), (-2, 1))
    B_inv = ((1, -2), (0, 1))
    oracle = _mat_mul_int(_mat_mul_int(A, B), _mat_mul_int(A_inv, B_inv))
    ok = oracle == ((-3, 8), (-8, 21))

    t = FIXTURES["T"]()
    a, a_inv = invert_unipotent(normalize(t, "2*f^*"))
    b, b_inv = invert_unipotent(normalize(t, "2*f"))
    word_value = eval_group_word(((a, a_inv), (b, b_inv)), "abAB")
    ok &= word_value != AlgebraElement.one(t)

    m = SinkModule(t, "v")
    basis = invariant_pair(m, "f")
    matrix = matrix_of(m, basis, word_value)
    ok &= matrix == tuple(tuple(Fraction(x) for x in row) for row in oracle)
    _verdict(5, 'word "abAB" gives matrix [[-3,8],[-8,21]], a nontrivial element, and the modes agree', ok)


def test_c06_bounded_freeness():
    t0 = time.time()
    cert = find_free_generators(FIXTURES["T"]())[0]
    transcript = verify_free_words(cert, max_len=8, mode="both")
    elapsed = time.time() - t0
    ok = transcript["word_count"] == count_reduced_words(8) == 13120
    ok &= transcript["all_nontrivial"]
    ok &= elapsed <= 60
    _verdict(6, f"all 13120 reduced words of length <= 8 nontrivial in both modes ({elapsed:.1f}s)", ok)


def test_c07_classification_verdicts():
    g1, g2, g3, g4, t = (FIXTURES[k]() for k in ("G1", "G2", "G3", "G4", "T"))
    checks = [
        (classify(IdealDescriptor(AdmissiblePair(g1, {"u"}, {"v"}))).verdict, "typeI"),
        (classify(IdealDescriptor(AdmissiblePair(g2, {"w"}))).verdict, "typeII"),
        (classify(IdealDescriptor(AdmissiblePair(g3, {"u"}))).verdict, "typeII"),
        (
            classify(
                IdealDescriptor(
                    AdmissiblePair(g4, {"v"}), cycle=g4.path("u", ["e"]), poly=DEFAULT_CYCLE_POLY
                )
            ).verdict,
            "typeIII",
        ),
        (classify(IdealDescriptor(AdmissiblePair(t, []))).verdict, "typeII"),
    ]
    ok = all(got == want for got, want in checks)
    _verdict(7, "five example ideals classify as I / II / II / III / II", ok)


def test_c08_quotient_identities():
    g1 = FIXTURES["G1"]()
    pair = AdmissiblePair(g1, {"u"}, {"v"})
    q = pair.quotient_graph()
    wh = breaking_vertex_element(g1, {"u"}, "w")
    f = AlgebraElement.edge(g1, "f")
    ok = pair.phi(wh) == AlgebraElement.vertex(q, "w'")
    ok &= pair.phi(f * wh) == AlgebraElement.edge(q, "f'")
    ok &= pair.phi(wh * f.star()) == AlgebraElement.ghost(q, "f'")
    _verdict(8, "quotient map sends w^H, f*w^H, w^H*f^* to w', f', f'^*", ok)


def test_c09_membership_law():
    ok = True
    for key in ("G1", "G2"):
        g = FIXTURES[key]()
        for pair in enumerate_admissible(g):
            for w in pair.breaking:
                wh = breaking_vertex_element(g, pair.H, w)
                ok &= pair.contains(wh) == (w in pair.S)
            for h in pair.H:
                ok &= pair.contains(AlgebraElement.vertex(g, h))
    _verdict(9, "w^H lies in I(H,S) iff w in S, and H maps to 0, over all admissible pairs", ok)


def test_c10_module_actions_annihilate_relations():
    t = FIXTURES["T"]()
    g1 = FIXTURES["G1"]()
    g4 = FIXTURES["G4"]()
    field = ExtensionField(DEFAULT_CYCLE_POLY)
    modules = [
        SinkModule(t, "v"),
        InfiniteEmitterModule(g1, "w"),
        RationalPathModule(g4, g4.path("u", ["e"])),
        TwistedRationalPathModule(g4, g4.path("u", ["e"]), field),
    ]
    ok = True
    for m in modules:
        relations = relation_elements(m.graph)
        rng = random.Random(m.kind)
        for _ in range(500):
            _, rel = relations[rng.randrange(len(relations))]
            if isinstance(m, (SinkModule, InfiniteEmitterModule)):
                basis = _random_terminal_path(rng, m.graph, m.terminal)
            else:
                basis = _random_rational_vector(rng, m)
            ok &= m.act(rel, m.basis_vector(basis)).is_zero()
    _verdict(10, "500 random (relation, basis vector) pairs per module kind act as zero", ok)


def _random_terminal_path(rng, g, terminal, max_len=5):
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


def test_c11_extension_field():
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    x = field.generator()
    ok = x.inverse() == field.element([-1, -1])
    ok &= x * x.inverse() == field.one
    # oracle: reduce -x - x^2 by the modulus directly
    ok &= x * field.element([-1, -1]) == field.element([1])
    ok &= (x + 1) * x + 1 == field.zero  # f(xbar) by Horner's rule
    _verdict(11, "for 1+x+x^2: xbar * xbar^-1 = 1 with xbar^-1 = -1-xbar, and f(xbar) = 0", ok)


def test_c12_discovery_pipeline():
    expectations = {
        "T": ("1 + 2*f^*", "1 + 2*f"),
        "G1": ("1 + 2*(w - f*f^*)*f^*", "1 + 2*f*(w - f*f^*)"),
        "G2": ("1 + 2*f^*", "1 + 2*f"),
        "G4": ("1 + 2*g^*", "1 + 2*g"),
    }
    ok = True
    for key, (a_text, b_text) in expectations.items():
        g = FIXTURES[key]()
        want = (normalize(g, a_text), normalize(g, b_text))
        pairs = [(c.a, c.b) for c in find_free_generators(g)]
        ok &= want in pairs
    # the double-emitter pair is specifically a breaking-vertex certificate
    g1 = FIXTURES["G1"]()
    want_a = normalize(g1, "1 + 2*(w - f*f^*)*f^*")
    breaking = [
        c
        for c in find_free_generators(g1)
        if isinstance(c.witness, BreakingVertexWitness) and c.a == want_a
    ]
    ok &= len(breaking) == 1
    _verdict(12, "pipeline reproduces the expected generator pairs on T, G1, G2, G4 (factor 2 included)", ok)
