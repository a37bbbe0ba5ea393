"""Noncommutativity witnesses, free-pair discovery, and bounded verification.

Every noncommutative unital Leavitt path algebra over a characteristic-0
field contains a non-cyclic free subgroup on two unipotent units 1 + 2t
with t^2 = 0.  The discovery pipeline enumerates admissible pairs,
classifies each ideal, keeps those with a noncommutative quotient, and
emits certificates through one emitter.  A witness is a non-loop edge f-bar
of the quotient graph together with its tail: a sink at its range, or an
eventually periodic path from its range onto a cycle.  The ideal's type
fixes the tail its simple module is built on (type I: the clone sink w' of
the breaking vertex w; type III: the given cycle; type II: any sink or
cycle).  The generators are 1 + t* and 1 + t, where t lifts 2 f-bar:

* t = 2f when f-bar is an edge f of the graph;
* t = 2 f w^H when f-bar is the clone f' of an edge f into w, where
  w^H = w - sum of e e* over the explicit edges of w escaping H.  This is
  the ``breaking_vertex`` witness: the quotient sends the generators to
  1 + 2 f'* and 1 + 2 f'.

Free generation itself is not decidable at this interface; certificates are
checked by exhaustive evaluation of all freely reduced words up to a length
bound, in the algebra, as 2x2 matrices over the witness subspace (where the
generators act as the Sanov pair [[1,0],[2,1]], [[1,2],[0,1]]), or both
with a cross-check.  A transcript records that the bound is all the run
certifies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import _INVERSE_LETTER, AlgebraElement, invert_unipotent
from .errors import NoWitnessFoundError, NotInvariantError
from .exprs import normalize
from .graph import SINK, Cycle, Edge, Graph
from .ideals import (
    DEFAULT_CYCLE_POLY,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    AdmissiblePair,
    ClassificationResult,
    IdealDescriptor,
    breaking_vertex_element,
    classify,
    enumerate_admissible,
)
from .modules import (
    RationalPathModule,
    SinkModule,
    invariant_pair,
    mat_identity,
    mat_mul,
    matrix_of,
)


class CommutativityReport(NamedTuple):
    commutative: bool
    witness: tuple[AlgebraElement, AlgebraElement] | None
    graph: Graph
    minted: tuple[Edge, ...]


def is_commutative(g: Graph) -> CommutativityReport:
    """Decide commutativity, producing a witness pair (x, y) with xy != yx.

    The algebra is commutative exactly when the graph is a disjoint union of
    isolated vertices and single-loop vertices with no bundles.  An edge e
    with s(e) != r(e) gives the witness (e, s(e)) since e s(e) = 0 != e =
    s(e) e; two loops at one vertex give distinct length-2 monomials; a
    bundle forces a minted representative witness (recorded in the report).
    """
    for name in sorted(g.edges):
        e = g.edges[name]
        if e.src != e.dst:
            return CommutativityReport(
                False,
                (AlgebraElement.edge(g, name), AlgebraElement.vertex(g, e.src)),
                g,
                (),
            )
    for v in sorted(g.vertices):
        loops = g.out_edges(v)
        if len(loops) >= 2:
            return CommutativityReport(
                False,
                (AlgebraElement.edge(g, loops[0]), AlgebraElement.edge(g, loops[1])),
                g,
                (),
            )
    for bname in sorted(g.bundles):
        g2, minted = g.with_minted(bname, 1)
        e = minted[0]
        return CommutativityReport(
            False,
            (AlgebraElement.edge(g2, e.name), AlgebraElement.vertex(g2, e.src)),
            g2,
            minted,
        )
    return CommutativityReport(True, None, g, ())


# witnesses

@dataclass(frozen=True)
class SinkEdgeWitness:
    """Edge f into a sink of the quotient graph."""

    edge: str
    sink: str

    def to_json(self):
        return {"kind": "sink_edge", "edge": self.edge, "sink": self.sink}


@dataclass(frozen=True)
class InfinitePathEdgeWitness:
    """Edge f heading an eventually periodic infinite path of the quotient."""

    edge: str
    tail_source: str
    tail_prefix: tuple[str, ...]
    tail_cycle: tuple[str, ...]

    def to_json(self):
        return {
            "kind": "infinite_path_edge",
            "edge": self.edge,
            "tail": {
                "source": self.tail_source,
                "prefix": list(self.tail_prefix),
                "cycle": list(self.tail_cycle),
            },
        }


@dataclass(frozen=True)
class BreakingVertexWitness:
    """Edge f into a breaking vertex w; generators use w^H."""

    edge: str
    vertex: str

    def to_json(self):
        return {"kind": "breaking_vertex", "edge": self.edge, "vertex": self.vertex}


def _witness_from_json(data: dict):
    kind = data.get("kind")
    if kind == "sink_edge":
        return SinkEdgeWitness(data["edge"], data["sink"])
    if kind == "infinite_path_edge":
        tail = data["tail"]
        return InfinitePathEdgeWitness(
            data["edge"], tail["source"], tuple(tail["prefix"]), tuple(tail["cycle"])
        )
    if kind == "breaking_vertex":
        return BreakingVertexWitness(data["edge"], data["vertex"])
    raise NoWitnessFoundError(f"unknown witness kind {kind!r}")


@dataclass
class FreePairCertificate:
    """Two unipotent units with their inverses, witness data, the ideal used,
    and (once run) the bounded-verification transcript."""

    graph: Graph
    a: AlgebraElement
    a_inv: AlgebraElement
    b: AlgebraElement
    b_inv: AlgebraElement
    witness: object
    pair: AdmissiblePair
    classification: ClassificationResult
    minted: tuple[Edge, ...] = ()
    verification: dict | None = None

    def to_json(self) -> dict:
        out = {
            "a": str(self.a),
            "a_inv": str(self.a_inv),
            "b": str(self.b),
            "b_inv": str(self.b_inv),
            "witness": self.witness.to_json(),
            "pair": self.pair.to_json(),
            "classification": self.classification.to_json(),
            "minted": [{"name": e.name, "src": e.src, "dst": e.dst} for e in self.minted],
            "verified_to_length": (self.verification or {}).get("max_len"),
            "mode": (self.verification or {}).get("mode"),
        }
        if self.verification is not None:
            out["verification"] = dict(self.verification)
        return out

    @classmethod
    def from_json(cls, base_graph: Graph, data: dict) -> "FreePairCertificate":
        minted = tuple(Edge(r["name"], r["src"], r["dst"]) for r in data.get("minted", []))
        g = base_graph
        if minted:
            g = Graph(
                base_graph.vertices,
                list(base_graph.edges.values()) + list(minted),
                list(base_graph.bundles.values()),
            )
        pair = AdmissiblePair.from_json(g, data["pair"])
        cls_data = data.get("classification", {})
        classification = ClassificationResult(
            cls_data.get("verdict", ""),
            cls_data.get("witness"),
            cls_data.get("transcript", []),
        )
        return cls(
            graph=g,
            a=normalize(g, data["a"]),
            a_inv=normalize(g, data["a_inv"]),
            b=normalize(g, data["b"]),
            b_inv=normalize(g, data["b_inv"]),
            witness=_witness_from_json(data["witness"]),
            pair=pair,
            classification=classification,
            minted=minted,
            verification=data.get("verification"),
        )


# discovery pipeline

def find_free_generators(g: Graph) -> list[FreePairCertificate]:
    """Certificates for non-cyclic free subgroups of the unit group.

    Enumerates admissible pairs, classifies each, keeps primitive ideals
    with a noncommutative quotient, and emits one certificate per
    qualifying witness edge, deduplicated by generator normal forms.
    Deterministic given the graph.  Raises NoWitnessFound (with the scan
    transcript) if nothing is emitted, including the commutative case.
    """
    report = is_commutative(g)
    if report.commutative:
        raise NoWitnessFoundError(
            "the algebra is commutative: no non-cyclic free subgroup exists",
            transcript=["graph is a disjoint union of isolated vertices and single loops"],
        )
    certs: list[FreePairCertificate] = []
    seen: set = set()
    scanned: list[str] = []
    for pair in enumerate_admissible(g):
        label = f"H={sorted(pair.H)} S={sorted(pair.S)}"
        if not pair.complement:
            scanned.append(f"{label}: improper (H is everything)")
            continue
        res = classify(IdealDescriptor(pair))
        if res.verdict == TYPE_I:
            n = _emit(g, pair, res, pair.clones[res.witness_vertex], certs, seen)
            scanned.append(f"{label}: type I, {n} certificate(s)")
        elif res.verdict == TYPE_II:
            n = _emit(g, pair, res, None, certs, seen)
            scanned.append(f"{label}: type II, {n} certificate(s)")
        elif pair.S == pair.breaking:
            n = 0
            for cyc in pair.quotient_graph().cycle_report().cycles:
                if cyc.has_exit:
                    continue
                base_cycle = g.path(cyc.rep.source, cyc.rep.edges)
                res3 = classify(IdealDescriptor(pair, cycle=base_cycle, poly=DEFAULT_CYCLE_POLY))
                if res3.verdict == TYPE_III:
                    n += _emit(g, pair, res3, tuple(cyc.rep.edges), certs, seen)
            scanned.append(f"{label}: graded not primitive, {n} type III certificate(s)")
        else:
            scanned.append(f"{label}: not primitive")
    if not certs:
        raise NoWitnessFoundError(
            "no free-generator witness found; scan transcript attached", transcript=scanned
        )
    return certs


def _emit(g, pair, res, target, certs, seen) -> int:
    """Certificates 1 + t*, 1 + t, t the lift of 2 f-bar, for the quotient
    edges f-bar with tail ``target`` (see ``_edge_witness``), in the sorted
    order of their lifts, skipping generator pairs already in ``seen``.
    With no explicit witness, one edge is minted from each bundle of g whose
    range lies outside H, in sorted order, until one yields a witness."""
    if is_commutative(pair.quotient_graph()).commutative:
        return 0
    work_g, work_pair, minted = g, pair, ()
    found = _witnesses(pair, target, sorted(g.edges))
    for bname in sorted(name for name, b in g.bundles.items() if b.dst not in pair.H):
        if found:
            break
        work_g, minted = g.with_minted(bname, 1)
        work_pair = AdmissiblePair(work_g, pair.H, pair.S)
        found = _witnesses(work_pair, target, [minted[0].name])
    emitted = 0
    for fname, witness in found:
        t = AlgebraElement.edge(work_g, fname).scale(2)
        if isinstance(witness, BreakingVertexWitness):
            t = t * breaking_vertex_element(work_g, work_pair.H, witness.vertex)
        cert = _certificate(work_g, t, witness, work_pair, res, minted)
        key = (str(cert.a), str(cert.b))
        if key not in seen:
            seen.add(key)
            certs.append(cert)
            emitted += 1
    return emitted


def _witnesses(pair, target, names) -> list:
    """(f, witness) for each edge f of ``names`` whose image in the quotient,
    or whose clone there, is a witness edge for ``target``."""
    q, clones, found = pair.quotient_graph(), pair.clones, []
    for f in names:
        if f in q.edges and (witness := _edge_witness(q, f, target)) is not None:
            found.append((f, witness))
        if f in clones and _edge_witness(q, clones[f], target) is not None:
            found.append((f, BreakingVertexWitness(f, pair.graph.edges[f].dst)))
    return found


def _certificate(g, t, witness, pair, classification, minted=(), s=None) -> FreePairCertificate:
    """The certificate for b = 1 + t and a = 1 + s, with s = t* by default
    (w^H is self-adjoint, so this gives a = 1 + 2 w^H f* for t = 2 f w^H).
    ``invert_unipotent`` checks that s and t square to zero."""
    a, a_inv = invert_unipotent(t.star() if s is None else s)
    b, b_inv = invert_unipotent(t)
    return FreePairCertificate(
        graph=g,
        a=a,
        a_inv=a_inv,
        b=b,
        b_inv=b_inv,
        witness=witness,
        pair=pair,
        classification=classification,
        minted=minted,
    )


def _edge_witness(q: Graph, fname: str, target: str | tuple[str, ...] | None):
    """Witness for a non-loop edge of the quotient: its range is a sink, or
    heads a materialized eventually periodic tail onto a cycle.  ``target``
    is the tail of the ideal's simple module: a sink name (type I), a
    cycle's edges (type III), or None for any sink or cycle."""
    f = q.edges[fname]
    if f.src == f.dst:
        return None
    if isinstance(target, str):
        return SinkEdgeWitness(edge=fname, sink=f.dst) if f.dst == target else None
    if target is None and q.vertex_kind(f.dst) == SINK:
        return SinkEdgeWitness(edge=fname, sink=f.dst)
    hit = _path_to_cycle(q, f.dst, target)
    if hit is None:
        return None
    prefix, rotated = hit
    return InfinitePathEdgeWitness(
        edge=fname, tail_source=f.dst, tail_prefix=prefix, tail_cycle=rotated
    )


def _rotate_cycle(q: Graph, cycle: Cycle, at: str) -> tuple[str, ...]:
    edges = cycle.rep.edges
    for i, name in enumerate(edges):
        if q.edges[name].src == at:
            return edges[i:] + edges[:i]
    raise ValueError(f"{at!r} not on cycle {edges}")


def _path_to_cycle(q: Graph, start: str, target_cycle: tuple[str, ...] | None):
    """Shortest explicit-edge path from start onto a cycle (BFS, sorted edges)."""
    cycles = [
        c
        for c in q.cycle_report().cycles
        if target_cycle is None or frozenset(c.rep.edges) == frozenset(target_cycle)
    ]
    on_cycle = {}
    for c in cycles:
        for name in c.rep.edges:
            on_cycle.setdefault(q.edges[name].src, c)
    if start in on_cycle:
        return (), _rotate_cycle(q, on_cycle[start], start)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        v, trail = queue.popleft()
        for name in q.out_edges(v):
            dst = q.edges[name].dst
            if dst in seen:
                continue
            seen.add(dst)
            if dst in on_cycle:
                return trail + (name,), _rotate_cycle(q, on_cycle[dst], dst)
            queue.append((dst, trail + (name,)))
    return None


# bounded verification

_LETTERS = "aAbB"


def count_reduced_words(max_len: int) -> int:
    """Number of nonempty freely reduced words of length <= max_len."""
    return 4 * (3 ** max_len - 1) // 2


def reduced_words(max_len: int):
    """All nonempty freely reduced words of length <= max_len, DFS order."""
    stack = [""]
    while stack:
        word = stack.pop()
        for ch in reversed(_LETTERS):
            if word and _INVERSE_LETTER[word[-1]] == ch:
                continue
            new = word + ch
            yield new
            if len(new) < max_len:
                stack.append(new)


def _matrix_context(cert: FreePairCertificate):
    """Module, ordered basis, and quotient map backing matrix-mode checks."""
    q = cert.pair.quotient_graph()
    w = cert.witness
    if isinstance(w, BreakingVertexWitness):
        clones = cert.pair.clones
        w = SinkEdgeWitness(edge=clones[w.edge], sink=clones[w.vertex])
    if isinstance(w, SinkEdgeWitness):
        module = SinkModule(q, w.sink, cert.a.field)
    elif isinstance(w, InfinitePathEdgeWitness):
        prefix = q.path(w.tail_source, w.tail_prefix)
        cycle = q.path(q.range_of(prefix), w.tail_cycle)
        module = RationalPathModule(q, cycle, prefix, cert.a.field)
    else:
        raise NotInvariantError("certificate carries no matrix-mode witness")
    return module, invariant_pair(module, w.edge), cert.pair.phi


def verify_free_words(cert: FreePairCertificate, max_len: int = 6, mode: str = "both") -> dict:
    """Exhaustively check all freely reduced words of length <= max_len.

    Modes: "algebra" evaluates words in the algebra and requires != 1;
    "matrix" multiplies the witness-subspace images and requires != I;
    "both" does both and cross-checks that the matrix of each evaluated word
    equals the matrix product.  Stops at the first violation.  The returned
    transcript (also stored on the certificate) states the length bound,
    which is all a run of this kind can certify.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if mode not in ("algebra", "matrix", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    use_alg = mode in ("algebra", "both")
    use_mat = mode in ("matrix", "both")
    g = cert.graph
    elems = {"a": cert.a, "A": cert.a_inv, "b": cert.b, "B": cert.b_inv}
    one = AlgebraElement.one(g, cert.a.field)
    module = basis = to_quotient = None
    gen_mats = ident = None
    if use_mat:
        module, basis, to_quotient = _matrix_context(cert)
        gen_mats = {ch: matrix_of(module, basis, to_quotient(elems[ch])) for ch in _LETTERS}
        ident = mat_identity(module.field)

    word_count = 0
    failure = None
    stack = [("", one if use_alg else None, ident if use_mat else None)]
    while stack and failure is None:
        word, prod, mat = stack.pop()
        for ch in reversed(_LETTERS):
            if word and _INVERSE_LETTER[word[-1]] == ch:
                continue
            new_word = word + ch
            new_prod = (prod * elems[ch] if word else elems[ch]) if use_alg else None
            new_mat = mat_mul(mat, gen_mats[ch]) if use_mat else None
            word_count += 1
            if use_alg and new_prod == one:
                failure = {"word": new_word, "reason": "evaluates to 1 in the algebra"}
                break
            if use_mat and new_mat == ident:
                failure = {"word": new_word, "reason": "matrix image is the identity"}
                break
            if use_alg and use_mat:
                if matrix_of(module, basis, to_quotient(new_prod)) != new_mat:
                    failure = {
                        "word": new_word,
                        "reason": "matrix of the evaluated word disagrees with the matrix product",
                    }
                    break
            if len(new_word) < max_len:
                stack.append((new_word, new_prod, new_mat))

    transcript = {
        "max_len": max_len,
        "mode": mode,
        "word_count": word_count,
        "all_nontrivial": failure is None,
        "first_violation": failure,
        "note": (
            f"bounded verification: certifies only that no nontrivial relation of "
            f"length <= {max_len} holds among the generators"
        ),
    }
    cert.verification = transcript
    return transcript


def certificate_for(g: Graph, a_text: str, b_text: str) -> FreePairCertificate:
    """Build a certificate from user-supplied generator expressions.

    The parts s = a - 1 and t = b - 1 must be square-zero (their inverses
    come from the unipotent shape).  When s = t*, the witness is read off
    the normal form of t (see ``_recognize``), or else off that of s: the
    swapped pair acts on the same span by the transposed Sanov matrices,
    which generate a free group just the same.  Certificates without a
    recognizable witness still verify in algebra mode.
    """
    a = normalize(g, a_text)
    b = normalize(g, b_text)
    one = AlgebraElement.one(g)
    s, t = a - one, b - one
    unclassified = ClassificationResult("unclassified", transcript=[])
    if s != t.star():
        return _certificate(g, t, _NoWitness(), AdmissiblePair(g, ()), unclassified, s=s)
    witness, pair = _recognize(g, t)
    if isinstance(witness, _NoWitness):
        witness, pair = _recognize(g, s)
    return _certificate(g, t, witness, pair, unclassified, s=s)


def _recognize(g: Graph, t: AlgebraElement):
    """Witness and admissible pair for b = 1 + t, read off its normal form.

    The generators have t = 2f (an edge witness over the zero ideal) or
    t = 2 f w^H = 2f - sum of 2 (fe) e* over the explicit edges e of w = r(f)
    escaping H (the breaking vertex w of (H, B_H minus w)).  Any such H holds
    the ranges of w's bundles and of its non-escaping edges, so it contains
    their hereditary saturated closure, the least candidate and the only one
    tried; an exact comparison with 2 f w^H decides.
    """
    zero_ideal = AdmissiblePair(g, ())
    heads = [m.gamma.edges for m in t.terms if not m.lam.edges]
    if len(heads) != 1 or len(heads[0]) != 1:
        return _NoWitness(), zero_ideal
    (fname,) = heads[0]
    f = AlgebraElement.edge(g, fname).scale(2)
    if t == f:
        return _edge_witness(g, fname, None) or _NoWitness(), zero_ideal
    w = g.edges[fname].dst
    escaping = {m.lam.edges[0] for m in t.terms if m.lam.edges}
    seed = [g.bundles[name].dst for name in g.out_bundles(w)]
    seed += [g.edges[e].dst for e in g.out_edges(w) if e not in escaping]
    pair = AdmissiblePair(g, g.hereditary_saturated_closure(seed))
    if w not in pair.breaking or t != f * breaking_vertex_element(g, pair.H, w):
        return _NoWitness(), zero_ideal
    return BreakingVertexWitness(edge=fname, vertex=w), pair.with_S(pair.breaking - {w})


@dataclass(frozen=True)
class _NoWitness:
    """Placeholder for generator pairs with no recognized matrix witness."""

    def to_json(self):
        return {"kind": "none"}
