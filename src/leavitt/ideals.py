"""Graded ideals, the quotient epimorphism, and primitive-ideal classification.

An admissible pair (H, S) is a hereditary saturated vertex set H together
with a subset S of its breaking vertices; it generates the graded ideal
I(H, S), and the quotient algebra is the Leavitt path algebra of the
quotient graph.  The epimorphism phi onto the quotient sends

    v  ->  v + v'   if v is a breaking vertex outside S,
    v  ->  v        if v survives unprimed,
    v  ->  0        if v lies in H,

and edges (and their ghosts) follow their range vertex the same way.  On a
monomial c g l* with common range r this has the closed form

    phi(c g l*)  =  0                      if r lies in H,
                    c g l* + c g' l'*      if r lies in B_H \\ S,
                    c g l*                 otherwise,

where p' is p with its last edge replaced by its clone (the trivial path
at r' when p is trivial).  Proof: H is hereditary, so an edge of g or l
with range in H forces r into H, and otherwise every edge survives;
each clone v' is a sink of the quotient, so e' f = 0 and a primed edge
can only be the last one, while the cross terms g l'* and g' l* vanish
because r r' = 0.  The images are monomials over the quotient graph but
not always basis monomials there (breaking vertices become regular, and
a clone e' can become the special edge), so one normalization over the
quotient finishes the job.

Membership in I(H, S) is exactly phi(a) = 0, which is decidable because the
quotient algebra has canonical normal forms.

Primitive ideals come in three types:

    I    I(H, B_H \\ {w}) with M(w) the whole complement of H,
    II   I(H, B_H) with the complement MT-3, countably separated (vacuous
         for a finite vertex set), and the quotient satisfying condition (L),
    III  I(H, B_H, f(c)) for an exclusive cycle c whose base vertex sees the
         whole complement, and an irreducible Laurent polynomial f.

``classify`` reproduces this trichotomy with a full condition transcript.
Membership for type III ideals is out of scope (f(c) lies outside the graded
kernel); only construction of f(c) and classification are provided.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .algebra import AlgebraElement, PathMonomial
from .errors import (
    DegreeZeroError,
    NotACycleError,
    NotAdmissibleError,
    NotBreakingVertexError,
    NotHereditarySaturatedError,
    ReduciblePolynomialError,
    TooLargeError,
    TypeIIIMembershipUnsupportedError,
    ZeroConstantTermError,
)
from .graph import Graph, Path, clone_names, quotient_graph
from .scalars import QQ, ExtensionField, LaurentPoly

DEFAULT_CYCLE_POLY = LaurentPoly.parse("1 + x + x^2")

TYPE_I = "typeI"
TYPE_II = "typeII"
TYPE_III = "typeIII"
NOT_PRIMITIVE = "not_primitive"


class AdmissiblePair:
    """(H, S) with H hereditary saturated and S inside the breaking vertices."""

    def __init__(self, graph: Graph, H, S=()):
        self.graph = graph
        self.H = frozenset(graph.require_vertex(v) for v in H)
        S = frozenset(graph.require_vertex(v) for v in S)
        try:
            self.breaking = graph.breaking_vertices(self.H)
        except NotHereditarySaturatedError:
            raise NotAdmissibleError(f"H={sorted(self.H)} is not hereditary and saturated") from None
        self._set_S(S)

    def _set_S(self, S: frozenset[str]):
        if not S <= self.breaking:
            raise NotAdmissibleError(
                f"S={sorted(S)} is not a subset of the breaking vertices {sorted(self.breaking)}"
            )
        self.S = S
        self._clones: dict[str, str] | None = None
        self._quotient: Graph | None = None

    def with_S(self, S) -> "AdmissiblePair":
        """The pair (H, S) for this pair's H, reusing its B_H instead of
        checking H and computing the breaking vertices again."""
        pair = object.__new__(AdmissiblePair)
        pair.graph, pair.H, pair.breaking = self.graph, self.H, self.breaking
        pair._set_S(frozenset(self.graph.require_vertex(v) for v in S))
        return pair

    @property
    def complement(self) -> frozenset[str]:
        return frozenset(self.graph.vertices) - self.H

    @property
    def unresolved(self) -> frozenset[str]:
        """Breaking vertices outside S; these acquire primed clones."""
        return self.breaking - self.S

    @property
    def clones(self) -> dict[str, str]:
        """Clone name of each vertex of B_H \\ S and each edge or bundle into it.

        The cached :func:`clone_names` table; :func:`quotient_graph` computes
        the same table from the same graph and set, so the names agree.
        """
        if self._clones is None:
            self._clones = clone_names(self.graph, self.unresolved)
        return self._clones

    def quotient_graph(self) -> Graph:
        if self._quotient is None:
            self._quotient = quotient_graph(self.graph, self.H, self.S)
        return self._quotient

    def phi(self, a: AlgebraElement) -> AlgebraElement:
        """Apply the quotient epimorphism and normalize over the quotient.

        Each term c g l* with range r maps to nothing when r is in H, to
        c g l* + c g' l'* when r is in B_H \\ S (g', l' end in the clone of
        their last edge, or are the trivial path at r'), and to itself
        otherwise.  Why: H is hereditary, so a path with an edge into H ends
        in H; clones are sinks, so only a last edge can be primed and the
        cross terms g l'*, g' l* vanish; and one normalization over the
        quotient graph restores basis form.
        """
        if a.graph is not self.graph and a.graph != self.graph:
            raise NotAdmissibleError("element does not live over this pair's graph")
        q = self.quotient_graph()  # raises NotAdmissibleError for the improper ideal
        H, clones = self.H, self.clones
        raw = []
        edges = self.graph.edges
        for mono, coeff in a.terms.items():
            gamma = mono.gamma  # r(g l*) = r(g), read inline: this loop runs per term
            end = edges[gamma.edges[-1]].dst if gamma.edges else gamma.source
            if end in H:
                continue
            raw.append((mono, coeff))
            # graph names are unique, so a vertex key here means r is in B_H \ S
            head = clones.get(end)
            if head is not None:
                primed = PathMonomial(
                    _primed(mono.gamma, clones, head), _primed(mono.lam, clones, head)
                )
                raw.append((primed, coeff))
        return AlgebraElement.from_terms(q, raw, a.field)

    def contains(self, a: AlgebraElement) -> bool:
        """Graded-ideal membership: a lies in I(H, S) iff phi(a) = 0."""
        if not self.complement:
            return True  # the improper ideal is everything
        return self.phi(a).is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, AdmissiblePair)
            and self.graph == other.graph
            and self.H == other.H
            and self.S == other.S
        )

    def __repr__(self):
        return f"AdmissiblePair(H={sorted(self.H)}, S={sorted(self.S)})"

    def to_json(self) -> dict:
        return {"H": sorted(self.H), "S": sorted(self.S)}

    @classmethod
    def from_json(cls, graph: Graph, data: dict) -> "AdmissiblePair":
        return cls(graph, data.get("H", []), data.get("S", []))


def _primed(p: Path, clones: dict[str, str], head: str) -> Path:
    """p with its last edge cloned, ending at ``head``; the trivial path at
    ``head`` when p is trivial."""
    if not p.edges:
        return Path(head, ())
    return Path(p.source, p.edges[:-1] + (clones[p.edges[-1]],))


def breaking_vertex_element(g: Graph, H, w: str, field=QQ) -> AlgebraElement:
    """The element w^H = w - sum of e e* over explicit edges escaping H.

    w is an infinite emitter, so CK2 never fires at it and each e e* is a
    basis monomial: the terms are written down directly.
    """
    Hs = frozenset(g.require_vertex(v) for v in H)
    if w not in g.breaking_vertices(Hs):
        raise NotBreakingVertexError(f"{w!r} is not a breaking vertex of {sorted(Hs)}")
    at_w = g.trivial_path(w)
    terms = {PathMonomial(at_w, at_w): field.coerce(1)}
    minus_one = field.coerce(-1)
    for name in g.out_edges(w):
        if g.edges[name].dst not in Hs:
            e = g.edge_path(name)
            terms[PathMonomial(e, e)] = minus_one
    return AlgebraElement(g, field, terms)


def poly_at_cycle(g: Graph, cycle: Path, poly: LaurentPoly, field=QQ) -> AlgebraElement:
    """Substitute a cycle for x in a Laurent polynomial.

    x^n becomes the n-fold cycle power, x^-n its ghost, and the constant
    term multiplies the base vertex.  One of the two paths of each of these
    monomials is trivial, so they are basis monomials and are written down
    directly.
    """
    if not g.is_cycle(cycle):
        raise NotACycleError(f"{cycle} is not a cycle")
    if not poly.constant_term:
        raise ZeroConstantTermError(f"{poly} has zero constant term")
    base = g.trivial_path(cycle.source)
    terms = {}
    for exp, coeff in poly.items():
        power = Path(base.source, cycle.edges * abs(exp))
        mono = PathMonomial(power, base) if exp >= 0 else PathMonomial(base, power)
        terms[mono] = field.coerce(coeff)
    return AlgebraElement(g, field, terms)


@dataclass
class IdealDescriptor:
    """A graded ideal I(H, S), or a type III ideal I(H, B_H, f(c))."""

    pair: AdmissiblePair
    cycle: Path | None = None
    poly: LaurentPoly | None = None

    @property
    def kind(self) -> str:
        return "typeIII" if self.cycle is not None else "graded"

    def contains(self, a: AlgebraElement) -> bool:
        if self.kind != "graded":
            raise TypeIIIMembershipUnsupportedError(
                "membership is only decidable for graded ideals here"
            )
        return self.pair.contains(a)


@dataclass
class ClassificationResult:
    verdict: str
    witness_vertex: str | None = None
    transcript: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "transcript": list(self.transcript)}
        if self.witness_vertex is not None:
            out["witness"] = self.witness_vertex
        return out


def classify(desc: IdealDescriptor) -> ClassificationResult:
    """Decide primitivity and type, with a complete condition transcript."""
    pair = desc.pair
    g = pair.graph
    transcript: list[dict] = []

    def record(condition: str, outcome: bool, note: str | None = None) -> bool:
        entry = {"condition": condition, "outcome": bool(outcome)}
        if note:
            entry["note"] = note
        transcript.append(entry)
        return bool(outcome)

    comp = pair.complement
    if not record("complement of H nonempty (proper ideal)", bool(comp)):
        return ClassificationResult(NOT_PRIMITIVE, transcript=transcript)

    if desc.kind == "typeIII":
        ok = record("S equals the full breaking-vertex set", pair.S == pair.breaking)
        cycle = desc.cycle
        if not g.is_cycle(cycle):
            raise NotACycleError(f"{cycle} is not a cycle of the graph")
        base = cycle.source
        ok &= record("cycle base lies outside H", base in comp)
        report = g.cycle_report()
        cyc_edges = frozenset(cycle.edges)
        match = next((c for c in report.cycles if frozenset(c.rep.edges) == cyc_edges), None)
        ok &= record("cycle is exclusive", match is not None and match.exclusive)
        ok &= record("M(base of cycle) is the whole complement of H", g.reaching(base) == comp)
        accepted, note = _poly_accepted(desc.poly)
        ok &= record("polynomial accepted as irreducible", accepted, note)
        if ok:
            return ClassificationResult(TYPE_III, transcript=transcript)
        return ClassificationResult(NOT_PRIMITIVE, transcript=transcript)

    leftover = pair.unresolved
    if len(leftover) == 1:
        (w,) = leftover
        record("S = B_H minus the single vertex w", True, f"w = {w}")
        if record("M(w) is the whole complement of H", g.reaching(w) == comp):
            return ClassificationResult(TYPE_I, witness_vertex=w, transcript=transcript)
        return ClassificationResult(NOT_PRIMITIVE, transcript=transcript)

    if not record("S equals the full breaking-vertex set", not leftover):
        return ClassificationResult(NOT_PRIMITIVE, transcript=transcript)
    ok = record("complement of H satisfies MT-3", g.satisfies_mt3(comp))
    ok &= record(
        "complement of H has the countable separation property",
        True,
        "finite vertex set: holds automatically",
    )
    ok &= record(
        "quotient graph satisfies condition (L)",
        pair.quotient_graph().cycle_report().condition_l,
    )
    if ok:
        return ClassificationResult(TYPE_II, transcript=transcript)
    return ClassificationResult(NOT_PRIMITIVE, transcript=transcript)


def _poly_accepted(poly: LaurentPoly | None) -> tuple[bool, str]:
    if poly is None:
        return False, "no polynomial supplied"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = ExtensionField(poly)
    except ReduciblePolynomialError:
        return False, "rational root found"
    except ZeroConstantTermError:
        return False, "zero constant term"
    except DegreeZeroError:
        return False, "constant modulus"
    if field.irreducible_verified:
        return True, "verified by rational root test"
    return True, "degree > 3: trusted without verification"


# A graph's admissible pairs can number far more than its vertex subsets (a
# sink with k looped infinite emitters bundled into it has 3^k + 1), so
# enumeration stops once the count passes 2^16.  Every pair counts at least
# one per hereditary saturated set, so this bounds the sets too; a graph of
# at most 16 vertices without breaking vertices has at most 2^16 pairs.
MAX_PAIRS = 2**16


def enumerate_admissible(g: Graph) -> list[AdmissiblePair]:
    """All admissible pairs, ordered by (|H|, H, |S|, S).

    Hereditary saturated sets form a lattice, found by stepping from each
    set H to the closure of H | {v} for every v outside H, starting at the
    closure of the empty set.  This reaches every such set K: adding the
    vertices of K one at a time never leaves K, because K is closed.  Each
    set H found adds 2^|B_H| pairs; TooLargeError is raised as soon as the
    total passes MAX_PAIRS, before the pairs with nonempty S are built.
    Those come from H's S = {} pair by ``with_S``, so B_H is computed once
    per set.
    """
    bottom = AdmissiblePair(g, g.hereditary_saturated_closure(()))
    found = {bottom.H: bottom}
    total = 2 ** len(bottom.breaking)
    todo = [bottom.H]
    while todo:
        H = todo.pop()
        for v in g.vertices:
            if v in H:
                continue
            K = g.extend_hereditary_saturated(H, (v,))
            if K in found:
                continue
            found[K] = pair = AdmissiblePair(g, K)
            total += 2 ** len(pair.breaking)
            if total > MAX_PAIRS:
                raise TooLargeError(f"more than {MAX_PAIRS} admissible pairs: too many to enumerate")
            todo.append(K)
    pairs = []
    for H, pair in found.items():
        pairs.append(pair)
        B = sorted(pair.breaking)
        for k in range(1, len(B) + 1):
            for sub in combinations(B, k):
                pairs.append(pair.with_S(sub))
    pairs.sort(key=lambda p: (len(p.H), sorted(p.H), len(p.S), sorted(p.S)))
    return pairs
