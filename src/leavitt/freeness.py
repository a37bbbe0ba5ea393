"""Noncommutativity witnesses, free-pair discovery, and bounded verification.

Every noncommutative unital Leavitt path algebra over a characteristic-0
field contains a non-cyclic free subgroup on two unipotent units 1 + 2t
with t^2 = 0.  The discovery pipeline classifies the ideals of the pairs
(V \\ M(w), B_H) and (V \\ M(w), B_H \\ {w}) for each vertex w, the only ones
that can be primitive, keeps those with a noncommutative quotient, and
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
with a cross-check.  Matrices are read straight off the raw quotient images
(``AdmissiblePair.phi_terms`` into ``modules.span_matrix``), with no
quotient element built: the witness module is a module over the quotient,
so any expression of phi(x) acts as phi(x) does.  A transcript records that
the bound is all the run certifies.

A word is evaluated as its offset X from 1, never through the |V|-term
identity: with generator 1 + T, (1 + X)(1 + T) = 1 + (X + T + X T), so each
step costs what the small parts X and T cost, and the word is 1 iff X = 0.
The witness module is unital (phi(1) is the quotient's 1, which fixes every
basis path), so the matrix of 1 + X is I plus the matrix read off X.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .algebra import AlgebraElement, add_term, invert_unipotent
from .errors import NoWitnessFoundError, NotInvariantError, NotReducedError
from .exprs import normalize
from .graph import SINK, Edge, Graph
from .ideals import (
    DEFAULT_CYCLE_POLY,
    TYPE_I,
    TYPE_II,
    TYPE_III,
    AdmissiblePair,
    ClassificationResult,
    IdealDescriptor,
    _maximal_tails,
    breaking_vertex_element,
    classify,
)
from .modules import (
    RationalPathModule,
    SinkModule,
    invariant_pair,
    mat_identity,
    mat_mul,
    span_matrix,
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
        g2, minted = g.with_minted(bname)
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


# discovery pipeline

def find_free_generators(g: Graph) -> list[FreePairCertificate]:
    """Certificates for non-cyclic free subgroups of the unit group.

    Classifies the pairs of ``ideals._maximal_tails``, keeps primitive ideals
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
    for pair in _maximal_tails(g):
        label = f"H={sorted(pair.H)} S={sorted(pair.S)}"
        res = classify(IdealDescriptor(pair))
        if res.verdict == TYPE_I:
            n = _emit(g, pair, res, pair.clones[res.witness_vertex], certs, seen)
            scanned.append(f"{label}: type I, {n} certificate(s)")
        elif res.verdict == TYPE_II:
            n = _emit(g, pair, res, None, certs, seen)
            scanned.append(f"{label}: type II, {n} certificate(s)")
        else:  # S = B_H, as (H, B_H \ {w}) is type I
            n = 0
            for cyc in pair.quotient_graph().cycle_report().cycles:
                if cyc.has_exit:
                    continue
                base_cycle = g.path(cyc.rep.source, cyc.rep.edges)
                res3 = classify(IdealDescriptor(pair, cycle=base_cycle, poly=DEFAULT_CYCLE_POLY))
                if res3.verdict == TYPE_III:
                    n += _emit(g, pair, res3, tuple(cyc.rep.edges), certs, seen)
            scanned.append(f"{label}: graded not primitive, {n} type III certificate(s)")
    if not certs:
        raise NoWitnessFoundError(
            "no free-generator witness found; scan transcript attached", transcript=scanned
        )
    return certs


def _emit(g, pair, res, target, certs, seen) -> int:
    """Certificates 1 + t*, 1 + t, t the lift of 2 f-bar, for the quotient
    edges f-bar with tail ``target`` (see ``_tails``), in the sorted
    order of their lifts, skipping any t already in ``seen``: the pair is
    a function of t, so a repeat is dropped before it is built.
    Breaking-vertex witnesses occur only for type I, whose target is the
    clone sink w' of its one breaking vertex w, so w^H is built once.
    With no explicit witness, one edge is minted from each bundle of g whose
    range lies outside H, in sorted order, until one yields a witness.
    A commutative quotient has only loops and no bundles: it yields none."""
    work_g, work_pair, minted = g, pair, ()
    found = _witnesses(pair, target, sorted(g.edges))
    for bname in sorted(name for name, b in g.bundles.items() if b.dst not in pair.H):
        if found:
            break
        work_g, minted = g.with_minted(bname)
        work_pair = AdmissiblePair(work_g, pair.H, pair.S)
        found = _witnesses(work_pair, target, [minted[0].name])
    emitted, wh = 0, None
    for fname, witness in found:
        t = AlgebraElement.edge(work_g, fname).scale(2)
        if isinstance(witness, BreakingVertexWitness):
            if wh is None:  # one w per call: type I's clone sink target is w'
                wh = breaking_vertex_element(work_g, work_pair.H, witness.vertex)
            t = t * wh
        key = frozenset(t.terms.items())
        if key not in seen:
            seen.add(key)
            certs.append(_certificate(work_g, t, witness, work_pair, res, minted))
            emitted += 1
    return emitted


def _witnesses(pair, target, names) -> list:
    """(f, witness) for each edge f of ``names`` whose image in the quotient
    is a witness edge for ``target``, or which has a clone there: only type I
    pairs have clones, and a clone edge ends at their target, the sink w'."""
    q, clones, found = pair.quotient_graph(), pair.clones, []
    tails = _tails(q, target)
    for f in names:
        if f in q.edges and (witness := _edge_witness(q, f, tails)) is not None:
            found.append((f, witness))
        if f in clones:
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


def _tails(q: Graph, target: str | tuple[str, ...] | None) -> dict:
    """Tails in q onto ``target``, the tail of the ideal's simple module: a
    sink name (type I), a cycle's edges (type III), or None for any sink or
    cycle.  A target sink maps to (), a vertex on a target cycle to the first
    such cycle of ``cycle_report`` and the index of its out-edge there, and a
    vertex with a path onto one to the least-named edge one step closer (one
    backward search from the cycle vertices), so following these edges spells
    the least shortest path, the one a forward search on sorted edges finds."""
    if isinstance(target, str):
        return {target: ()}
    tails: dict = {v: () for v in q.vertices if target is None and q.vertex_kind(v) == SINK}
    for c in q.cycle_report().cycles:
        if target is None or frozenset(c.rep.edges) == frozenset(target):
            for i, name in enumerate(c.rep.edges):
                tails.setdefault(q.edges[name].src, (c.rep.edges, i))
    into: dict[str, list[str]] = {}
    for name, e in q.edges.items():
        into.setdefault(e.dst, []).append(name)
    layer = [v for v, tail in tails.items() if tail]
    while layer:
        step: dict[str, str] = {}
        for v in layer:
            for name in into.get(v, ()):
                u = q.edges[name].src
                if u not in tails and (u not in step or name < step[u]):
                    step[u] = name
        tails.update(step)
        layer = list(step)
    return tails


def _edge_witness(q: Graph, fname: str, tails: dict):
    """Witness for a non-loop edge of the quotient q: its range is a target
    sink, or heads a materialized eventually periodic tail onto a target
    cycle, read off the table ``_tails(q, target)``."""
    f = q.edges[fname]
    if f.src == f.dst or (tail := tails.get(f.dst)) is None:
        return None
    prefix = []
    while isinstance(tail, str):
        prefix.append(tail)
        tail = tails[q.edges[tail].dst]
    if not tail:
        return SinkEdgeWitness(edge=fname, sink=f.dst)
    edges, i = tail
    return InfinitePathEdgeWitness(fname, f.dst, tuple(prefix), edges[i:] + edges[:i])


# bounded verification

_LETTERS = "aAbB"
_INVERSE_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}


def eval_group_word(gens, word: str) -> AlgebraElement:
    """Evaluate a freely reduced word over {a, A, b, B}.

    ``gens`` is a pair ((a, a_inv), (b, b_inv)) of unit/inverse pairs; the
    empty word is the identity.  Rejects words with cancelling adjacencies.
    """
    (ga, ga_inv), (gb, gb_inv) = gens
    table = {"a": ga, "A": ga_inv, "b": gb, "B": gb_inv}
    for ch in word:
        if ch not in table:
            raise NotReducedError(f"letter {ch!r} is not in the alphabet a, A, b, B")
    for x, y in zip(word, word[1:]):
        if _INVERSE_LETTER[x] == y:
            raise NotReducedError(f"word {word!r} is not freely reduced at {x}{y}")
    result = AlgebraElement.one(ga.graph, ga.field)
    for ch in word:
        result = result * table[ch]
    return result


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
    """Module and ordered basis backing matrix-mode checks."""
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
    return module, invariant_pair(module, w.edge)


def _plus_identity(m, unit):
    """The 2x2 matrix m + I: the matrix of 1 + X when m is that of X."""
    (p, q), (r, s) = m
    return (p + unit, q), (r, s + unit)


def verify_free_words(cert: FreePairCertificate, max_len: int = 6, mode: str = "both") -> dict:
    """Exhaustively check all freely reduced words of length <= max_len.

    Modes: "algebra" evaluates words in the algebra and requires != 1;
    "matrix" multiplies the witness-subspace images and requires != I;
    "both" does both and cross-checks that the matrix of each evaluated word
    equals the matrix product.  Stops at the first violation.  The returned
    transcript (also stored on the certificate) states the length bound,
    which is all a run of this kind can certify.

    Each word w is kept as its offset X = w - 1, stepping X <- X + T + X T
    for a letter 1 + T, with the four offsets T taken once per call, each
    in one pass over its unit's terms, so no step touches the |V|-term
    identity; w = 1 iff X has no terms.  A step adds X and T into the
    fresh term dict of the product X T.  Matrices
    are read off offsets too: the generator matrices are I plus the matrix
    of phi(T), and the cross-check compares I plus the matrix of phi(X)
    with the matrix product.  Both are sound because the witness module is
    unital: phi(1) is the quotient's 1, which acts as I on the span.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if mode not in ("algebra", "matrix", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    use_alg = mode in ("algebra", "both")
    use_mat = mode in ("matrix", "both")
    offsets = {ch: u.minus_one() for ch, u in zip(_LETTERS, (cert.a, cert.a_inv, cert.b, cert.b_inv))}
    module = basis = phi_terms = unit = None
    gen_mats = ident = None
    if use_mat:
        module, basis = _matrix_context(cert)
        phi_terms = cert.pair.phi_terms
        unit = module.field.one
        gen_mats = {
            ch: _plus_identity(span_matrix(module, basis, phi_terms(t)), unit)
            for ch, t in offsets.items()
        }
        ident = mat_identity(module.field)

    word_count = 0
    failure = None
    stack = [("", None, ident)]
    while stack and failure is None:
        word, x, mat = stack.pop()
        for ch in reversed(_LETTERS):
            if word and _INVERSE_LETTER[word[-1]] == ch:
                continue
            new_word = word + ch
            t = offsets[ch]
            new_x = None
            if use_alg:
                new_x = t
                if word:  # X + T + X T, added into the fresh dict of X T
                    new_x = x.mul(t)
                    for m, c in chain(x.terms.items(), t.terms.items()):
                        add_term(new_x.terms, m, c)
            new_mat = mat_mul(mat, gen_mats[ch]) if use_mat else None
            word_count += 1
            if use_alg and not new_x.terms:
                failure = {"word": new_word, "reason": "evaluates to 1 in the algebra"}
                break
            if use_mat and new_mat == ident:
                failure = {"word": new_word, "reason": "matrix image is the identity"}
                break
            if use_alg and use_mat:
                if _plus_identity(span_matrix(module, basis, phi_terms(new_x)), unit) != new_mat:
                    failure = {
                        "word": new_word,
                        "reason": "matrix of the evaluated word disagrees with the matrix product",
                    }
                    break
            if len(new_word) < max_len:
                stack.append((new_word, new_x, new_mat))

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
    s, t = a.minus_one(), b.minus_one()
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
        return _edge_witness(g, fname, _tails(g, None)) or _NoWitness(), zero_ideal
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
