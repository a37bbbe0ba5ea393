"""Seeded inputs, operations and output checks for the workloads.

Inputs come from a fixed pool.  Each workload has a list of *slots*; a slot
fixes the shape of an input (graph family and size, expression length,
scalar field) and holds ``VARIANTS`` seeded variants of that shape.  A run
repeats one *pass* over a seeded list of at least 100 operations that takes
the same number of variants from every slot, so every seed runs the same
shapes.  The workload seed chooses which variants each slot contributes and
the order of the operations.  So that every seed also runs a similar amount
of work, the variants of a slot are ranked by a work count taken once under
the tracer (traced calls plus monomial pairs tried) and the seed draws one
variant from each of equal strata of that ranking.  Because the pool is
finite, the digest of every output and the rankings are recorded once, in
``expected.json``.

Nothing here imports ``leavitt`` at module level: each function takes the
package object ``lv``, and operations look functions up through module
attributes at call time, so a traced run reaches the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

VARIANTS = 16  # pool entries per slot
VERIFY_LEN = 2  # verify-both: words of length <= 2 (16 words per certificate), a pass near 1 s
GRAPHS_PER_SLOT = 5  # verify: seeded random graphs discovered per size slot
CERTS_PER_GRAPH = 5  # verify: certificates taken from each of them
NORM_PER_SLOT = 3  # normalize: seeded expressions per slot
EXT_MODULUS = "1+x+x^2"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stratified(rng: random.Random, ranked: list, k: int) -> list:
    """k items of `ranked` (cheapest first), one from each of k equal
    strata of the ranking, so every seed draws the same spread of costs."""
    if k >= len(ranked):
        return list(ranked)
    n = len(ranked)
    return [rng.choice(ranked[i * n // k:(i + 1) * n // k]) for i in range(k)]


def ranking(work: list) -> list:
    """Indices of `work`, cheapest first (ties by index)."""
    return sorted(range(len(work)), key=lambda i: (work[i], i))


def reduced_word_count(max_len: int) -> int:
    """Freely reduced nonempty words over a, A, b, B of length <= max_len:
    4 words of length 1 and three continuations of each longer one."""
    return sum(4 * 3 ** (k - 1) for k in range(1, max_len + 1))


@dataclass
class Op:
    """One closed-loop operation: ``call()`` runs it through the public API,
    ``check(output)`` returns None when the output is right, else a reason."""

    label: str
    call: object
    check: object


@dataclass
class Inputs:
    ops: list  # one pass
    setup_failures: list = field(default_factory=list)
    products: list = field(default_factory=list)  # set-up outputs (certificates)


# graph families

def chain_of_loops(lv, n: int):
    """c0 -> c1 -> ... -> c(n-1), a loop at every vertex.  Its hereditary
    saturated sets are exactly the n + 1 suffixes, and it has no breaking
    vertices, so it has exactly n + 1 admissible pairs."""
    verts = [f"c{i}" for i in range(n)]
    edges = [(f"l{i}", v, v) for i, v in enumerate(verts)]
    edges += [(f"g{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    return lv.Graph(verts, edges)


def random_graph(lv, rng: random.Random, n: int):
    """n vertices, 2n random edges (loops allowed) and 0-2 bundles; one
    edge between distinct vertices keeps the algebra noncommutative."""
    verts = [f"v{i}" for i in range(n)]
    a, b = rng.sample(verts, 2)
    edges = [("e0", a, b)]
    edges += [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(1, 2 * n)]
    bundles = [(f"b{j}",) + tuple(rng.sample(verts, 2)) for j in range(rng.randint(0, 2))]
    return lv.Graph(verts, edges, bundles)


def rose(lv, n: int):
    return lv.Graph(["v"], [(f"r{i}", "v", "v") for i in range(1, n + 1)])


# verify workloads

VERIFY_SLOTS = [6, 8, 10, 12]  # vertex count of each random-graph slot
CHAIN_CHECKS = [8, 10, 12]  # set-up enumerates these chains of loops and counts their pairs


def verify_pool_graph(lv, slot: int, variant: int):
    rng = random.Random(f"verify/{slot}/{variant}")
    return random_graph(lv, rng, VERIFY_SLOTS[slot])


def example_certs(lv):
    certs = []
    for name in sorted(lv.examples.ALL):
        certs += lv.freeness.find_free_generators(lv.examples.ALL[name]())
    return certs


def planted_non_free(lv):
    """1 - 2f and 1 + 2f posing as independent generators: "ab" is 1."""
    g = lv.Graph(["u", "v"], [("e", "u", "u"), ("f", "u", "v")])
    b = lv.exprs.normalize(g, "1 + 2*f")
    b_inv = lv.exprs.normalize(g, "1 - 2*f")
    return lv.FreePairCertificate(
        graph=g,
        a=b_inv,
        a_inv=b,
        b=b,
        b_inv=b_inv,
        witness=lv.freeness.SinkEdgeWitness(edge="f", sink="v"),
        pair=lv.AdmissiblePair(g, ()),
        classification=lv.ClassificationResult("unclassified"),
    )


def certs_json(certs) -> list:
    out = []
    for c in certs:
        data = c.to_json()
        for key in ("verification", "verified_to_length", "mode"):
            data.pop(key, None)
        out.append(data)
    return out


def build_verify(lv, seed: int, expected: dict) -> Inputs:
    """Set-up discovers the certificates of the example graphs and of
    GRAPHS_PER_SLOT seeded random graphs per size slot, drawn by graph rank,
    and enumerates the admissible pairs of the CHAIN_CHECKS chains of loops.
    A pass verifies all 17 example certificates, CERTS_PER_GRAPH seeded
    certificates of each random graph, drawn by certificate rank, and the
    planted non-free pair: 118 ops."""
    rng = random.Random(f"{seed}/verify")
    failures = []
    examples = example_certs(lv)
    if digest(certs_json(examples)) != expected["examples"]:
        failures.append("discovery output of the example graphs does not match its digest")
    for n in CHAIN_CHECKS:
        pairs = lv.ideals.enumerate_admissible(chain_of_loops(lv, n))
        if len(pairs) != n + 1:
            failures.append(f"chain of {n} loops gave {len(pairs)} admissible pairs, expected {n + 1}")
    picks = [stratified(rng, expected["graph_rank"][str(slot)], GRAPHS_PER_SLOT)
             for slot in range(len(VERIFY_SLOTS))]
    found = {}
    for slot, variants in enumerate(picks):
        for variant in variants:
            certs = lv.freeness.find_free_generators(verify_pool_graph(lv, slot, variant))
            if digest(certs_json(certs)) != expected["graphs"][str(slot)][variant]:
                failures.append(f"discovery output of graph {slot}.{variant} does not match its digest")
            found[slot, variant] = certs
    free = _free_check(expected["transcripts"]["free"])
    planted = _planted_check(expected["transcripts"]["planted"])
    ops = [Op(f"example#{i}", _verify_call(lv, c), free) for i, c in enumerate(examples)]
    for (slot, variant), certs in found.items():
        for i in sorted(stratified(rng, expected["cert_rank"][str(slot)][variant], CERTS_PER_GRAPH)):
            ops.append(Op(f"g{slot}.{variant}#{i}", _verify_call(lv, certs[i]), free))
    ops.append(Op("planted-non-free", _verify_call(lv, planted_non_free(lv)), planted))
    rng.shuffle(ops)
    return Inputs(ops, failures, examples + [c for certs in found.values() for c in certs])


def _verify_call(lv, cert):
    return lambda: lv.freeness.verify_free_words(cert, VERIFY_LEN, "both")


def _free_check(want):
    words = reduced_word_count(VERIFY_LEN)

    def check(tr):
        if tr["all_nontrivial"] is not True or tr["first_violation"] is not None:
            return f"Sanov-shaped certificate reported a violation: {tr['first_violation']}"
        if tr["word_count"] != words:
            return f"checked {tr['word_count']} words, expected {words}"
        if want is not None and digest(tr) != want:
            return "transcript does not match its recorded digest"
        return None

    return check


def _planted_check(want):
    def check(tr):
        v = tr["first_violation"]
        if tr["all_nontrivial"] is not False or v is None or v["word"] != "ab":
            return f"planted non-free pair not caught at 'ab': {v}"
        if want is not None and digest(tr) != want:
            return "transcript does not match its recorded digest"
        return None

    return check


def record_verify(lv, log, work) -> dict:
    """Discovery digests for the whole pool; every pool certificate must
    give the free transcript.  Certificates of a graph are ranked by the
    work of verifying them, graphs of a slot by the mean of that work."""
    examples = example_certs(lv)
    out = {"examples": digest(certs_json(examples)), "graphs": {}, "transcripts": {},
           "graph_rank": {}, "cert_rank": {}}
    seen = set()

    def verify(cert):
        tr, units = work(_verify_call(lv, cert))
        reason = _free_check(None)(tr)
        if reason:
            raise RuntimeError(reason)
        seen.add(digest(tr))
        return units

    for cert in examples:
        verify(cert)
    count = len(examples)
    for slot in range(len(VERIFY_SLOTS)):
        row, graph_work, cert_ranks = [], [], []
        for variant in range(VARIANTS):
            certs = lv.freeness.find_free_generators(verify_pool_graph(lv, slot, variant))
            row.append(digest(certs_json(certs)))
            units = [verify(c) for c in certs]
            graph_work.append(sum(units) / max(1, len(units)))
            cert_ranks.append(ranking(units))
            count += len(certs)
        out["graphs"][str(slot)] = row
        out["graph_rank"][str(slot)] = ranking(graph_work)
        out["cert_rank"][str(slot)] = cert_ranks
    if len(seen) != 1:
        raise RuntimeError("free transcripts differ between certificates")
    out["transcripts"]["free"] = seen.pop()
    tr = _verify_call(lv, planted_non_free(lv))()
    reason = _planted_check(None)(tr)
    if reason:
        raise RuntimeError(reason)
    out["transcripts"]["planted"] = digest(tr)
    log(f"verify: {count} pool certificates free to length {VERIFY_LEN}")
    return out


# normalize workload

# Product slots: (graph, factors, over K'?).  Products of factors
# 1 + c e + c f^* (+ c e h^*) over roses and the example graphs; a fixed
# share is over K' = Q[x, x^-1]/(1 + x + x^2).  The rose products reach
# 120-300 terms yet take about 5 ms over Q, so a pass stays near 0.5 s and
# each op is timed often in a run.
_ROSES = [("R2", 6), ("R3", 6), ("R4", 6), ("R5", 5)]
_EXAMPLE_NAMES = ("toeplitz", "double_emitter", "loop_with_two_exits",
                  "cycle_with_side_loop", "chained_loops", "bundle_inflow")
NORM_PRODUCT_SLOTS = (
    [(g, k, i % 5 == 0) for i, (g, k) in enumerate(_ROSES * 6)]
    + [(name, 6, i in (1, 6)) for i, name in enumerate(_EXAMPLE_NAMES + _EXAMPLE_NAMES[:2])]
)
NORM_RELATION_SLOTS = 6  # x * (relation) * y, which must normalize to 0
NORM_UNIT_SLOTS = 6  # (1 + c t)(1 - c t) with t^2 = 0, which must give 1
NORM_SLOT_COUNT = len(NORM_PRODUCT_SLOTS) + NORM_RELATION_SLOTS + NORM_UNIT_SLOTS


def _norm_graph(lv, name: str):
    if name.startswith("R"):
        return rose(lv, int(name[1:]))
    return lv.examples.ALL[name]()


def _factor(rng, g) -> str:
    edges = sorted(g.edges)
    e, f, h = (rng.choice(edges) for _ in range(3))
    parts = ["1", f"{rng.choice([1, 2, 3])}*{e}", f"{rng.choice([1, 2, 3])}*{f}^*"]
    if g.edges[h].dst == g.edges[e].dst:
        parts.append(f"{rng.choice([1, 2, 3])}*{e}*{h}^*")
    return "(" + " + ".join(parts) + ")"


def normalize_pool_item(lv, slot: int, variant: int):
    """(graph, expression text, over K'?, planted kind) for one pool entry;
    the kind is "zero" or "one" for planted expressions, else None."""
    rng = random.Random(f"normalize/{slot}/{variant}")
    if slot < len(NORM_PRODUCT_SLOTS):
        gname, factors, ext = NORM_PRODUCT_SLOTS[slot]
        g = _norm_graph(lv, gname)
        return g, "*".join(_factor(rng, g) for _ in range(factors)), ext, None
    k = slot - len(NORM_PRODUCT_SLOTS)
    ext = k % 2 == 1
    if k < NORM_RELATION_SLOTS:
        g = _norm_graph(lv, rng.choice(["R2", "R3"] + sorted(_EXAMPLE_NAMES)))
        regular = [v for v in sorted(g.vertices) if g.out_edges(v) and not g.out_bundles(v)]
        if regular and rng.random() < 0.5:
            v = rng.choice(regular)  # (CK2) at a regular vertex
            rel = " - ".join([v] + [f"{e}*{e}^*" for e in g.out_edges(v)])
        else:
            e = rng.choice(sorted(g.edges))  # (CK1)
            rel = f"{e}^**{e} - {g.edges[e].dst}"
        x = "*".join(_factor(rng, g) for _ in range(3))
        y = "*".join(_factor(rng, g) for _ in range(3))
        return g, f"{x}*({rel})*{y}", ext, "zero"
    g = _norm_graph(lv, rng.choice(sorted(_EXAMPLE_NAMES)))
    f = rng.choice(sorted(e for e in g.edges if g.edges[e].src != g.edges[e].dst))
    t = rng.choice([f, f"{f}^*"])
    c = rng.choice([2, 3, 5])
    text = f"(1 + {c}*{t})*(1 - {c}*{t})"
    if rng.random() < 0.5:
        text = f"(1 - {c}*{t})*{text}*(1 + {c}*{t})"
    return g, text, ext, "one"


def ext_field(lv):
    return lv.scalars.ExtensionField(lv.scalars.LaurentPoly.parse(EXT_MODULUS))


def build_normalize(lv, seed: int, expected: dict) -> Inputs:
    """A pass: NORM_PER_SLOT seeded expressions per slot, drawn by rank: 132 ops."""
    rng = random.Random(f"{seed}/normalize")
    field_k = ext_field(lv)
    ops = []
    for slot in range(NORM_SLOT_COUNT):
        for variant in stratified(rng, expected["rank"][str(slot)], NORM_PER_SLOT):
            g, text, ext, kind = normalize_pool_item(lv, slot, variant)
            fld = field_k if ext else lv.scalars.QQ
            ops.append(Op(f"s{slot}.{variant}", _normalize_call(lv, g, text, fld),
                          _normalize_check(g, kind, expected["forms"][str(slot)][variant])))
    rng.shuffle(ops)
    return Inputs(ops)


def _normalize_call(lv, g, text, fld):
    return lambda: lv.exprs.normalize(g, text, fld)


def _is_identity(g, element) -> bool:
    """The unit is the sum of all vertices, each with coefficient 1."""
    starts = set()
    for mono, coeff in element.terms.items():
        if mono.gamma.edges or mono.lam.edges or coeff != 1:
            return False
        starts.add(mono.gamma.source)
    return starts == set(g.vertices) and len(element.terms) == len(g.vertices)


def _normalize_check(g, kind, want):
    def check(element):
        if kind == "zero" and element.terms:
            return "planted relation did not normalize to 0"
        if kind == "one" and not _is_identity(g, element):
            return "planted unit product did not normalize to the identity"
        if want is not None and digest(str(element)) != want:
            return "normal form does not match its recorded digest"
        return None

    return check


def record_normalize(lv, log, work) -> dict:
    field_k = ext_field(lv)
    out = {"forms": {}, "rank": {}}
    for slot in range(NORM_SLOT_COUNT):
        row, units = [], []
        for variant in range(VARIANTS):
            g, text, ext, kind = normalize_pool_item(lv, slot, variant)
            element, u = work(_normalize_call(lv, g, text, field_k if ext else lv.scalars.QQ))
            reason = _normalize_check(g, kind, None)(element)
            if reason:
                raise RuntimeError(f"normalize slot {slot} variant {variant}: {reason}")
            row.append(digest(str(element)))
            units.append(u)
        out["forms"][str(slot)] = row
        out["rank"][str(slot)] = ranking(units)
    log(f"normalize: {NORM_SLOT_COUNT * VARIANTS} pool expressions")
    return out
