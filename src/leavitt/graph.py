"""Finitely presented directed graphs and their structural analyses.

A graph has a finite vertex set, named explicit edges, and named *bundles*:
a bundle src=>dst stands for countably infinitely many parallel edges, which
is how infinite emitters are presented finitely.  A vertex is an infinite
emitter iff it sources at least one bundle; bundle self-loops are rejected
(they would create infinitely many cycles).

Analyses provided here: vertex kinds, reachability sets M(v), hereditary
saturated closures, breaking vertices, cycle enumeration with exits and
exclusivity (condition (L)), the MT-3 common-lower-bound check, and quotient
graphs by admissible pairs.  Graphs are immutable after construction and all
analyses are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BundleLoopError,
    DanglingEndpointError,
    DuplicateNameError,
    GraphError,
    NotAdmissibleError,
    NotHereditarySaturatedError,
    SchemaError,
    UnknownEdgeError,
    UnknownVertexError,
)

SINK = "sink"
REGULAR = "regular"
INFINITE_EMITTER = "infinite_emitter"


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

    def sort_key(self):
        return (len(self.edges), self.edges, self.source)

    def __str__(self):
        return "·".join(self.edges) if self.edges else self.source


@dataclass(frozen=True)
class Cycle:
    """One representative rotation per cycle, based at its smallest vertex."""

    rep: Path
    has_exit: bool
    exclusive: bool
    exits: tuple[str, ...]
    vertices: frozenset[str]


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
        vset = set(self.vertices)
        for pool, store, kind in ((edges, self.edges, "edge"), (bundles, self.bundles, "bundle")):
            for item in pool:
                e = item if isinstance(item, Edge) else Edge(*item)
                if e.name in names:
                    raise DuplicateNameError(f"duplicate name {e.name!r}")
                names.add(e.name)
                if e.src not in vset or e.dst not in vset:
                    raise DanglingEndpointError(f"{kind} {e.name!r} references unknown vertex")
                if kind == "bundle" and e.src == e.dst:
                    raise BundleLoopError(f"bundle {e.name!r} is a self-loop at {e.src!r}")
                store[e.name] = e

        self._out: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        self._in: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        self._out_bundles: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        self._in_bundles: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        for e in self.edges.values():
            self._out[e.src] += (e.name,)
            self._in[e.dst] += (e.name,)
        for b in self.bundles.values():
            self._out_bundles[b.src] += (b.name,)
            self._in_bundles[b.dst] += (b.name,)
        for table in (self._out, self._in, self._out_bundles, self._in_bundles):
            for v in table:
                table[v] = tuple(sorted(table[v]))
        self._cycle_report: CycleReport | None = None

    # basic queries

    def require_vertex(self, v: str) -> str:
        if v not in self._out:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return v

    def require_edge(self, name: str) -> Edge:
        if name not in self.edges:
            raise UnknownEdgeError(f"unknown edge {name!r}")
        return self.edges[name]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return self._out[self.require_vertex(v)]

    def in_edges(self, v: str) -> tuple[str, ...]:
        return self._in[self.require_vertex(v)]

    def out_bundles(self, v: str) -> tuple[str, ...]:
        return self._out_bundles[self.require_vertex(v)]

    def in_bundles(self, v: str) -> tuple[str, ...]:
        return self._in_bundles[self.require_vertex(v)]

    def vertex_kind(self, v: str) -> str:
        self.require_vertex(v)
        if self._out_bundles[v]:
            return INFINITE_EMITTER
        if self._out[v]:
            return REGULAR
        return SINK

    def is_regular(self, v: str) -> bool:
        return self.vertex_kind(v) == REGULAR

    def kinds(self) -> dict[str, str]:
        return {v: self.vertex_kind(v) for v in self.vertices}

    def special_edge(self, v: str) -> str:
        """The distinguished out-edge of a regular vertex used by the
        normal-form rewriting (the lexicographically largest one)."""
        if not self.is_regular(v):
            raise GraphError(f"{v!r} is not regular; no special edge")
        return self._out[v][-1]

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

    def path_vertices(self, p: Path) -> frozenset[str]:
        verts = {self.require_vertex(p.source)}
        for name in p.edges:
            verts.add(self.require_edge(name).dst)
        return frozenset(verts)

    # reachability

    def successors(self, v: str) -> frozenset[str]:
        out = {self.edges[e].dst for e in self._out[v]}
        out.update(self.bundles[b].dst for b in self._out_bundles[v])
        return frozenset(out)

    def predecessors(self, v: str) -> frozenset[str]:
        pre = {self.edges[e].src for e in self._in[v]}
        pre.update(self.bundles[b].src for b in self._in_bundles[v])
        return frozenset(pre)

    def reachable_from(self, start: Iterable[str] | str) -> frozenset[str]:
        """Reflexive-transitive forward closure along edges and bundles."""
        todo = [start] if isinstance(start, str) else list(start)
        seen = set()
        for v in todo:
            self.require_vertex(v)
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(self.successors(v))
        return frozenset(seen)

    def reaching(self, target: "str | Path") -> frozenset[str]:
        """M(target): vertices with a path into the target vertex, or into
        any vertex of the target path (reflexive)."""
        if isinstance(target, Path):
            goals = set(self.path_vertices(target))
        else:
            goals = {self.require_vertex(target)}
        todo = list(goals)
        seen = set()
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(self.predecessors(v))
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
        todo = [self.require_vertex(v) for v in seed]
        while todo:
            v = todo.pop()
            if v in closure:
                continue
            closure.add(v)
            todo.extend(self.successors(v))
            for u in self.predecessors(v):
                if u not in closure and self.is_regular(u) and all(
                    self.edges[e].dst in closure for e in self._out[u]
                ):
                    todo.append(u)
        return frozenset(closure)

    def is_hereditary(self, H: Iterable[str]) -> bool:
        Hs = {self.require_vertex(v) for v in H}
        return all(self.successors(v) <= Hs for v in Hs)

    def is_saturated(self, H: Iterable[str]) -> bool:
        Hs = {self.require_vertex(v) for v in H}
        for v in self.vertices:
            if v in Hs or not self.is_regular(v):
                continue
            if all(self.edges[e].dst in Hs for e in self._out[v]):
                return False
        return True

    def is_hereditary_saturated(self, H: Iterable[str]) -> bool:
        return self.is_hereditary(H) and self.is_saturated(H)

    def breaking_vertices(self, H: Iterable[str]) -> frozenset[str]:
        """Infinite emitters outside H whose bundles all land in H and which
        keep at least one explicit edge into the complement of H."""
        Hs = frozenset(self.require_vertex(v) for v in H)
        if not self.is_hereditary_saturated(Hs):
            raise NotHereditarySaturatedError(f"{sorted(Hs)} is not hereditary and saturated")
        out = set()
        for v in self.vertices:
            if v in Hs or self.vertex_kind(v) != INFINITE_EMITTER:
                continue
            if any(self.bundles[b].dst not in Hs for b in self._out_bundles[v]):
                continue  # infinitely many edges escape H
            escaping = [e for e in self._out[v] if self.edges[e].dst not in Hs]
            if escaping:
                out.add(v)
        return frozenset(out)

    def satisfies_mt3(self, subset: Iterable[str]) -> bool:
        """MT-3: every pair in the subset flows to a common member."""
        M = [self.require_vertex(v) for v in subset]
        down = {v: self.reachable_from(v) & set(M) for v in M}
        return all(down[u] & down[v] for u in M for v in M)

    # cycles

    def cycle_report(self) -> CycleReport:
        """All cycles among explicit edges, one representative per rotation
        class (based at the smallest vertex on the cycle), with exits
        (bundles count) and exclusivity flags."""
        if self._cycle_report is not None:
            return self._cycle_report
        reps: list[Path] = []
        order = {v: i for i, v in enumerate(sorted(self.vertices))}

        def walk(base: str, cur: str, trail: list[str], visited: set[str]):
            for name in self._out[cur]:
                dst = self.edges[name].dst
                if dst == base:
                    reps.append(Path(base, tuple(trail + [name])))
                elif dst not in visited and order[dst] > order[base]:
                    visited.add(dst)
                    walk(base, dst, trail + [name], visited)
                    visited.remove(dst)

        for base in sorted(self.vertices):
            walk(base, base, [], {base})

        vertex_sets = [self.path_vertices(rep) for rep in reps]
        cycles = []
        for i, rep in enumerate(reps):
            exits: list[str] = []
            for name in rep.edges:
                src = self.edges[name].src
                exits.extend(e for e in self._out[src] if e != name)
                exits.extend(self._out_bundles[src])
            exclusive = all(
                not (vertex_sets[i] & vertex_sets[j]) for j in range(len(reps)) if j != i
            )
            cycles.append(
                Cycle(rep, bool(exits), exclusive, tuple(sorted(set(exits))), vertex_sets[i])
            )
        report = CycleReport(tuple(cycles), all(c.has_exit for c in cycles))
        self._cycle_report = report
        return report

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

    def with_minted(self, bundle_name: str, count: int = 1) -> tuple["Graph", tuple[Edge, ...]]:
        """Materialize ``count`` explicit representative edges from a bundle.

        Minted edges are named "<bundle>#<i>", skipping every index whose
        name is already a vertex, edge or bundle name, so minting never
        collides.
        """
        if bundle_name not in self.bundles:
            raise UnknownEdgeError(f"unknown bundle {bundle_name!r}")
        b = self.bundles[bundle_name]
        taken = set(self.vertices) | set(self.edges) | set(self.bundles)
        minted = []
        i = 0
        while len(minted) < count:
            name = f"{bundle_name}#{i}"
            if name not in taken:
                minted.append(Edge(name, b.src, b.dst))
            i += 1
        g = Graph(
            self.vertices,
            list(self.edges.values()) + minted,
            list(self.bundles.values()),
        )
        return g, tuple(minted)

    # equality is name-identity on the structure

    def __eq__(self, other):
        return (
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


def clone_names(g: Graph, cloned: Iterable[str]) -> dict[str, str]:
    """Names of the primed clones a quotient adds for the vertex set ``cloned``.

    Each vertex of ``cloned``, and each edge or bundle with range in it, maps
    to its clone's name: the name with a prime appended, plus further primes
    while the result is a name of ``g`` or of an earlier clone.  Vertices
    come first, then edges and bundles, each in sorted order, so the table is
    a function of the graph and the set alone.
    """
    heads = frozenset(cloned)
    arrows = [n for pool in (g.edges, g.bundles) for n, e in pool.items() if e.dst in heads]
    taken = set(g.vertices) | set(g.edges) | set(g.bundles)
    names = {}
    for name in sorted(heads) + sorted(arrows):
        clone = f"{name}'"
        while clone in taken:
            clone += "'"
        taken.add(clone)
        names[name] = clone
    return names


def quotient_graph(g: Graph, H: Iterable[str], S: Iterable[str]) -> Graph:
    """The quotient graph by an admissible pair (H, S).

    Vertices: complement of H plus a primed clone v' for every breaking
    vertex v outside S.  Edges with range in H disappear; edges with range
    in B_H\\S additionally get a primed clone e' with r(e') = r(e)'.
    Bundles behave like their member edges.  Clone names come from
    :func:`clone_names` of B_H\\S.  H must be a proper subset: the quotient
    by the whole vertex set is the zero ring.
    """
    Hs = frozenset(g.require_vertex(v) for v in H)
    Ss = frozenset(g.require_vertex(v) for v in S)
    if not g.is_hereditary_saturated(Hs):
        raise NotAdmissibleError(f"H={sorted(Hs)} is not hereditary and saturated")
    if len(Hs) == len(g.vertices):
        raise NotAdmissibleError(
            "H is the whole vertex set: the quotient is the zero ring, "
            "which is not a unital path algebra"
        )
    B = g.breaking_vertices(Hs)
    if not Ss <= B:
        raise NotAdmissibleError(f"S={sorted(Ss)} is not a subset of the breaking vertices {sorted(B)}")
    cloned = B - Ss
    clones = clone_names(g, cloned)

    vertices = [v for v in g.vertices if v not in Hs]
    vertices += [clones[v] for v in sorted(cloned)]
    pools = []
    for pool in (g.edges, g.bundles):
        kept = []
        for e in pool.values():
            if e.dst in Hs:
                continue
            kept.append(e)
            if e.dst in cloned:
                kept.append(Edge(clones[e.name], e.src, clones[e.dst]))
        pools.append(kept)
    return Graph(vertices, *pools)


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
    from .exprs import IDENT, IDENT_RE  # exprs imports this module

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
