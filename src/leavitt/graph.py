"""Finitely presented directed graphs and their structural analyses.

A graph has a finite vertex set, named explicit edges, and named *bundles*:
a bundle src=>dst stands for countably infinitely many parallel edges, which
is how infinite emitters are presented finitely.  A vertex is an infinite
emitter iff it sources at least one bundle; bundle self-loops are rejected
(they would create infinitely many cycles).

Analyses provided here: vertex kinds, reachability sets M(v), hereditary
saturated closures, breaking vertices, cycle enumeration with exits and
exclusivity (condition (L)), and the MT-3 common-lower-bound check; the
quotient by an admissible pair is built in ``ideals``, beside phi.  Graphs
are immutable, so construction builds every structural table once: sorted
out-edges and out-bundles, the kind of each vertex, its successor and
predecessor vertices over edges and bundles, the (CK2) table that maps each
special edge to its siblings, and the set of all names.  Every query reads
those tables.  One closure decides hereditary saturation as well as computing
it, one backward walk computes M(v), and MT-3 takes one such walk, from a
member that the strongly connected components pick.  All analyses are pure.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BundleLoopError,
    DanglingEndpointError,
    DuplicateNameError,
    GraphError,
    NotHereditarySaturatedError,
    SchemaError,
    UnknownEdgeError,
    UnknownVertexError,
)

SINK = "sink"
REGULAR = "regular"
INFINITE_EMITTER = "infinite_emitter"

# The names the expression syntax reads as one identifier.  Graph JSON rejects
# any other vertex, edge or bundle name, so every printed normal form parses back.
IDENT = r"[A-Za-z_][A-Za-z0-9_#']*"
IDENT_RE = re.compile(IDENT)


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str


class Path(NamedTuple):
    """A finite path: source vertex plus a composable edge-name sequence.

    The empty sequence is the length-0 path at ``source``.  Validity against
    a graph is checked by :meth:`Graph.path`, and the range r(p) is read off
    the graph by :meth:`Graph.range_of`: the range of the last edge, or the
    source of a trivial path.  A named tuple, so hashing and equality (on
    every dict lookup of a monomial) run in C.
    """

    source: str
    edges: tuple[str, ...]

    def __str__(self):
        return "·".join(self.edges) if self.edges else self.source


@dataclass(frozen=True)
class Cycle:
    """One representative rotation per cycle, based at its smallest vertex."""

    rep: Path
    has_exit: bool
    exclusive: bool
    exits: tuple[str, ...]


@dataclass(frozen=True)
class CycleReport:
    cycles: tuple[Cycle, ...]
    condition_l: bool


class Graph:
    """Immutable directed graph with explicit edges and bundles.

    Construction validates: nonempty vertex set, names unique across
    vertices, edges, and bundles, endpoints resolve, no bundle self-loops.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Iterable[Edge | tuple[str, str, str]] = (),
        bundles: Iterable[Edge | tuple[str, str, str]] = (),
    ):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if not self.vertices:
            raise GraphError("vertex set must be nonempty (the algebra is unital)")
        self.edges: dict[str, Edge] = {}
        self.bundles: dict[str, Edge] = {}
        names = set()
        for v in self.vertices:
            if v in names:
                raise DuplicateNameError(f"duplicate name {v!r}")
            names.add(v)
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        out_bundles: dict[str, list[str]] = {v: [] for v in self.vertices}
        succ: dict[str, set[str]] = {v: set() for v in self.vertices}
        pred: dict[str, set[str]] = {v: set() for v in self.vertices}
        for pool, store, outs, kind in (
            (edges, self.edges, out, "edge"),
            (bundles, self.bundles, out_bundles, "bundle"),
        ):
            for item in pool:
                e = item if isinstance(item, Edge) else Edge(*item)
                if e.name in names:
                    raise DuplicateNameError(f"duplicate name {e.name!r}")
                names.add(e.name)
                if e.src not in out or e.dst not in out:
                    raise DanglingEndpointError(f"{kind} {e.name!r} references unknown vertex")
                if kind == "bundle" and e.src == e.dst:
                    raise BundleLoopError(f"bundle {e.name!r} is a self-loop at {e.src!r}")
                store[e.name] = e
                outs[e.src].append(e.name)
                succ[e.src].add(e.dst)
                pred[e.dst].add(e.src)

        self._out = {v: tuple(sorted(out[v])) for v in self.vertices}
        self._out_bundles = {v: tuple(sorted(out_bundles[v])) for v in self.vertices}
        self._succ = {v: tuple(sorted(succ[v])) for v in self.vertices}
        self._pred = {v: tuple(sorted(pred[v])) for v in self.vertices}
        self._kind = {
            v: INFINITE_EMITTER if out_bundles[v] else REGULAR if out[v] else SINK
            for v in self.vertices
        }
        # the (CK2) table: the special edge of each regular vertex (its
        # lexicographically largest out-edge) -> the other out-edges there
        self._ck2 = {
            out_v[-1]: out_v[:-1] for v, out_v in self._out.items() if self._kind[v] == REGULAR
        }
        self.names = frozenset(names)  # every vertex, edge and bundle name
        self._cycle_report: CycleReport | None = None
        self._component_of: dict[str, str] | None = None
        self._identity: tuple | None = None  # the vertex monomials of AlgebraElement.one
        self._generators: dict = {}  # (kind, name) -> the monomial of a generator, filled on first use

    # basic queries

    def require_vertex(self, v: str) -> str:
        if v not in self._kind:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return v

    def require_vertices(self, names: Iterable[str]) -> frozenset[str]:
        """The set of the given vertex names, checked with one subset test;
        the first unknown name, in the caller's order, raises."""
        names = tuple(names) if iter(names) is names else names  # an iterator runs once
        found = frozenset(names)
        if not self._kind.keys() >= found:
            self.require_vertex(next(v for v in names if v not in self._kind))
        return found

    def require_edge(self, name: str) -> Edge:
        if name not in self.edges:
            raise UnknownEdgeError(f"unknown edge {name!r}")
        return self.edges[name]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return self._out[self.require_vertex(v)]

    def out_bundles(self, v: str) -> tuple[str, ...]:
        return self._out_bundles[self.require_vertex(v)]

    def vertex_kind(self, v: str) -> str:
        return self._kind[self.require_vertex(v)]

    def kinds(self) -> dict[str, str]:
        return dict(self._kind)

    # paths

    def trivial_path(self, v: str) -> Path:
        return Path(self.require_vertex(v), ())

    def path(self, source: str, edge_names: Sequence[str]) -> Path:
        cur = self.require_vertex(source)
        for name in edge_names:
            e = self.require_edge(name)
            if e.src != cur:
                raise GraphError(f"edge {name!r} does not start at {cur!r}")
            cur = e.dst
        return Path(source, tuple(edge_names))

    def edge_path(self, name: str) -> Path:
        return Path(self.require_edge(name).src, (name,))

    def range_of(self, p: Path) -> str:
        """r(p): the range of the last edge, or the source of a trivial path."""
        return self.edges[p.edges[-1]].dst if p.edges else p.source

    # reachability

    def reaching(self, target: str) -> frozenset[str]:
        """M(target): the vertices with a path into the target vertex
        (reflexive), by a backward walk over edges and bundles."""
        seen = {self.require_vertex(target)}
        todo = [target]
        while todo:
            for u in self._pred[todo.pop()]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return frozenset(seen)

    # hereditary saturated machinery

    def hereditary_saturated_closure(self, seed: Iterable[str]) -> frozenset[str]:
        """Least hereditary and saturated vertex set containing the seed."""
        return self.extend_hereditary_saturated(frozenset(), seed)

    def extend_hereditary_saturated(self, H: frozenset[str], seed: Iterable[str]) -> frozenset[str]:
        """Least hereditary and saturated vertex set containing H and the seed,
        for H already hereditary and saturated (as the empty set is).

        Only vertices outside H are visited: each added vertex brings in its
        successors, and a predecessor is rechecked for saturation (which only
        fires at regular vertices) each time one of its targets is added, so
        it is checked once all of them are in.
        """
        closure = set(H)
        todo = list(self.require_vertices(seed))
        while todo:
            v = todo.pop()
            if v in closure:
                continue
            closure.add(v)
            todo.extend(self._succ[v])
            for u in self._pred[v]:
                if u not in closure and self._kind[u] == REGULAR and closure.issuperset(self._succ[u]):
                    todo.append(u)
        return frozenset(closure)

    def is_hereditary_saturated(self, H: Iterable[str]) -> bool:
        """H is hereditary and saturated iff it is its own closure."""
        Hs = frozenset(H)
        return self.extend_hereditary_saturated(frozenset(), Hs) == Hs

    def breaking_vertices(self, H: Iterable[str]) -> frozenset[str]:
        """Infinite emitters outside H whose bundles all land in H and which
        keep at least one explicit edge into the complement of H."""
        Hs = self.require_vertices(H)
        if not self.is_hereditary_saturated(Hs):
            raise NotHereditarySaturatedError(f"{sorted(Hs)} is not hereditary and saturated")
        out = set()
        for v in self.vertices:
            if v in Hs or self._kind[v] != INFINITE_EMITTER:
                continue
            if any(self.bundles[b].dst not in Hs for b in self._out_bundles[v]):
                continue  # infinitely many edges escape H
            escaping = [e for e in self._out[v] if self.edges[e].dst not in Hs]
            if escaping:
                out.add(v)
        return frozenset(out)

    def satisfies_mt3(self, subset: Iterable[str]) -> bool:
        """MT-3: every pair in the subset flows to a common member.  For finite
        M, iff M is empty or some w in M is reached from all, by induction: a
        member below u(k+1) and below one below u1..uk is below all of them.
        Such a w shares the component of the member x of M that closes first
        (see ``_components``), so one walk back from x decides."""
        M = self.require_vertices(subset)
        return not M or M <= self.reaching(next(x for x in self._components() if x in M))

    # cycles

    def cycle_report(self) -> CycleReport:
        """All cycles among explicit edges, one representative per rotation
        class (based at the smallest vertex on the cycle), with exits
        (bundles count) and exclusivity flags.  A cycle stays inside one
        strongly connected component, so each base's walk stops at vertices
        outside its own."""
        if self._cycle_report is not None:
            return self._cycle_report
        reps: list[Path] = []
        order = {v: i for i, v in enumerate(sorted(self.vertices))}
        component = self._components()
        for base in sorted(self.vertices):
            here = component[base]
            # depth-first, with one trail and one stack of out-edge iterators
            trail: list[str] = []
            visited = {base}
            stack = [iter(self._out[base])]
            while stack:
                name = next(stack[-1], None)
                if name is None:
                    stack.pop()
                    if trail:
                        visited.remove(self.edges[trail.pop()].dst)
                    continue
                dst = self.edges[name].dst
                if dst == base:
                    reps.append(Path(base, (*trail, name)))
                elif dst not in visited and order[dst] > order[base] and component[dst] == here:
                    visited.add(dst)
                    trail.append(name)
                    stack.append(iter(self._out[dst]))

        # a cycle's sources are distinct, so it is exclusive iff each lies on it alone
        on_cycles = Counter(self.edges[name].src for rep in reps for name in rep.edges)
        cycles = []
        for rep in reps:
            exits: list[str] = []
            for name in rep.edges:
                src = self.edges[name].src
                exits.extend(e for e in self._out[src] if e != name)
                exits.extend(self._out_bundles[src])
            exclusive = all(on_cycles[self.edges[name].src] == 1 for name in rep.edges)
            cycles.append(Cycle(rep, bool(exits), exclusive, tuple(sorted(set(exits)))))
        report = CycleReport(tuple(cycles), all(c.has_exit for c in cycles))
        self._cycle_report = report
        return report

    def _components(self) -> dict[str, str]:
        """Strongly connected components: each vertex maps to the root of its
        component, by Tarjan's algorithm over the successor table, with an
        explicit stack of (vertex, successor iterator) frames.  The dict
        lists the vertices in the order their components close, and a
        component closes only after every other component it reaches.
        Computed once per graph."""
        if self._component_of is not None:
            return self._component_of
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        root_of: dict[str, str] = {}
        pending: list[str] = []
        for start in self.vertices:
            if start in index:
                continue
            index[start] = low[start] = len(index)
            pending.append(start)
            frames = [(start, iter(self._succ[start]))]
            while frames:
                v, successors = frames[-1]
                for w in successors:
                    if w not in index:
                        index[w] = low[w] = len(index)
                        pending.append(w)
                        frames.append((w, iter(self._succ[w])))
                        break
                    if w not in root_of:  # still on the pending stack
                        low[v] = min(low[v], index[w])
                else:
                    frames.pop()
                    if frames:
                        u = frames[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        while True:
                            w = pending.pop()
                            root_of[w] = v
                            if w == v:
                                break
        self._component_of = root_of
        return root_of

    def is_cycle(self, p: Path) -> bool:
        """Closed path of positive length with pairwise-distinct sources."""
        try:
            self.path(p.source, p.edges)
        except (GraphError, UnknownEdgeError):
            return False
        if not p.edges or p.source != self.range_of(p):
            return False
        sources = [self.edges[name].src for name in p.edges]
        return len(set(sources)) == len(sources)

    # bundle materialization

    def with_minted(self, bundle_name: str) -> tuple["Graph", tuple[Edge, ...]]:
        """Materialize one explicit representative edge from a bundle: the
        new graph and a one-tuple of the edge.

        The edge is named "<bundle>#<i>" for the least index i whose name is
        not already a vertex, edge or bundle name, so minting never collides
        and minting again from the result gives the next index.
        """
        if bundle_name not in self.bundles:
            raise UnknownEdgeError(f"unknown bundle {bundle_name!r}")
        b = self.bundles[bundle_name]
        i = 0
        while f"{bundle_name}#{i}" in self.names:
            i += 1
        e = Edge(f"{bundle_name}#{i}", b.src, b.dst)
        g = Graph(self.vertices, [*self.edges.values(), e], self.bundles.values())
        return g, (e,)

    # equality is name-identity on the structure

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Graph)
            and set(self.vertices) == set(other.vertices)
            and self.edges == other.edges
            and self.bundles == other.bundles
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.bundles)} bundles)"
        )


def quotient_graph(g: Graph, H: Iterable[str], S: Iterable[str]) -> Graph:
    """The quotient graph by an admissible pair (H, S).

    Vertices: complement of H plus a primed clone v' for every breaking
    vertex v outside S.  Edges with range in H disappear; edges with range
    in B_H\\S additionally get a primed clone e' with r(e') = r(e)'.
    Bundles behave like their member edges.  H must be a proper subset: the
    quotient by the whole vertex set is the zero ring.  The checked entry
    point: ``ideals.AdmissiblePair`` checks the pair, names the clones
    (``ideals.clone_names`` of B_H\\S) and builds the quotient, beside phi.
    """
    from .ideals import AdmissiblePair  # ideals imports this module
    Hs, Ss = g.require_vertices(H), g.require_vertices(S)
    pair = AdmissiblePair(g, Hs)  # the improper ideal is reported before S is checked
    return (pair.with_S(Ss) if pair.complement else pair).quotient_graph()


# JSON schema: {"vertices": [...], "edges": [{"name","src","dst"}...], "bundles": [...]}

def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"name": e.name, "src": e.src, "dst": e.dst} for e in g.edges.values()],
        "bundles": [{"name": b.name, "src": b.src, "dst": b.dst} for b in g.bundles.values()],
    }


def _edge_records(items, label: str) -> list[Edge]:
    if not isinstance(items, list):
        raise SchemaError(f'"{label}" must be a list')
    out = []
    for rec in items:
        if not isinstance(rec, dict):
            raise SchemaError(f'"{label}" entries must be objects')
        extra = set(rec) - {"name", "src", "dst"}
        if extra:
            raise SchemaError(f'unknown keys {sorted(extra)} in "{label}" entry')
        missing = {"name", "src", "dst"} - set(rec)
        if missing:
            raise SchemaError(f'missing keys {sorted(missing)} in "{label}" entry')
        if not all(isinstance(rec[k], str) for k in ("name", "src", "dst")):
            raise SchemaError(f'"{label}" entry fields must be strings')
        out.append(Edge(rec["name"], rec["src"], rec["dst"]))
    return out


def graph_from_json(data: Mapping) -> Graph:
    if not isinstance(data, Mapping):
        raise SchemaError("graph document must be a JSON object")
    extra = set(data) - {"vertices", "edges", "bundles"}
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)} in graph document")
    if "vertices" not in data:
        raise SchemaError('missing "vertices"')
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError('"vertices" must be a list of strings')
    if not vertices:
        raise SchemaError("empty vertex set rejected (the algebra must be unital and nonzero)")
    edges = _edge_records(data.get("edges", []), "edges")
    bundles = _edge_records(data.get("bundles", []), "bundles")
    for label, names in (("vertices", vertices), ("edges", [e.name for e in edges]),
                         ("bundles", [b.name for b in bundles])):
        for name in names:
            if not IDENT_RE.fullmatch(name):
                raise SchemaError(
                    f'name {name!r} in "{label}" is not an identifier {IDENT}, '
                    "so expressions over the graph could not use it"
                )
    return Graph(vertices, edges, bundles)


def parse_graph(text: str | bytes) -> Graph:
    """Parse UTF-8 JSON into a validated graph.

    Malformed JSON and schema violations raise :class:`SchemaError` with
    position information; semantic violations raise the graph errors.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nest too deeply") from None
    return graph_from_json(data)
