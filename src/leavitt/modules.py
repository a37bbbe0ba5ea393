"""Simple-module actions as exact lazy linear operators.

Four module kinds act on finitely supported vectors over explicit basis
families:

* :class:`SinkModule` N_w: basis = finite paths ending at a sink w
  (including the length-0 path at w).
* :class:`InfiniteEmitterModule` S_v: basis = finite paths ending at an
  infinite emitter v (including v itself).
* :class:`RationalPathModule` V_[mu]: basis = infinite paths tail-equivalent
  to c^inf for a cycle c.  Only eventually periodic paths are representable:
  a basis vector is a (finite prefix, cycle rotation) pair, canonically
  reduced so the prefix never ends with the edge the rotation would absorb.
* :class:`TwistedRationalPathModule` V_[mu]^f: the same basis over the
  extension K' = Q[x,x^-1]/(f), where the distinguished first cycle edge e1
  acts through the automorphism e1 -> x*e1, e1* -> x^-1*e1*.

Generators act on a basis path by the usual rules: a vertex projects onto
paths it sources, an edge prepends when composable, a ghost edge strips a
leading edge (and kills length-0 paths).  The action of a general element is
the bilinear extension, evaluated term by term.

``invariant_pair`` returns the ordered basis (q, p) = (f . base, base) of
the two-dimensional invariant subspace attached to a witness edge f, and
``matrix_of`` reads off 2x2 matrices in that basis, columns = images.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraElement
from .errors import (
    FieldMismatchError,
    GraphError,
    MixedGraphsError,
    NotACycleError,
    NotAWitnessEdgeError,
    NotInvariantError,
)
from .graph import INFINITE_EMITTER, SINK, Graph, Path
from .scalars import QQ, ExtensionField, RationalField


class RationalVector(NamedTuple):
    """Eventually periodic infinite path: prefix then rotation^inf.

    ``rotation`` indexes the cycle edge the periodic tail starts at.  The
    canonical form absorbs as much of the prefix into the tail as possible.
    """

    prefix: Path
    rotation: int

    def __str__(self):
        return f"{self.prefix}·(tail)@{self.rotation}"


class ModuleVector:
    """Finitely supported scalar combination of basis vectors."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms: dict):
        self.module = module
        self.terms = {b: c for b, c in terms.items() if c}

    def __add__(self, other):
        if not isinstance(other, ModuleVector) or other.module is not self.module:
            return NotImplemented
        terms = dict(self.terms)
        for b, c in other.terms.items():
            acc = terms.get(b)
            acc = c if acc is None else acc + c
            if acc:
                terms[b] = acc
            elif b in terms:
                del terms[b]
        return ModuleVector(self.module, terms)

    def scale(self, k):
        k = self.module.field.coerce(k)
        return ModuleVector(self.module, {b: k * c for b, c in self.terms.items()})

    def __rmul__(self, k):
        return self.scale(k)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and other.module is self.module
            and other.terms == self.terms
        )

    def __repr__(self):
        if not self.terms:
            return "<0>"
        return "<" + " + ".join(f"({c})*{self.module.describe(b)}" for b, c in self.terms.items()) + ">"


class _BaseModule:
    """Shared machinery: bilinear action of elements on vectors."""

    graph: Graph
    field: object

    def vector(self, terms: dict) -> ModuleVector:
        return ModuleVector(self, {b: self.field.coerce(c) for b, c in terms.items()})

    def basis_vector(self, b) -> ModuleVector:
        return ModuleVector(self, {b: self.field.one})

    def _coerce_element(self, a: AlgebraElement) -> AlgebraElement:
        if a.graph is not self.graph and a.graph != self.graph:
            raise MixedGraphsError("element and module live over different graphs")
        if a.field == self.field:
            return a
        if isinstance(a.field, RationalField):
            return a.with_field(self.field) if not isinstance(self.field, RationalField) else a
        raise FieldMismatchError(
            f"element over {a.field!r} cannot act on a module over {self.field!r}"
        )

    def act(self, a: AlgebraElement, x: ModuleVector) -> ModuleVector:
        """Linear extension of the basis action rules."""
        a = self._coerce_element(a)
        if x.module is not self:
            raise MixedGraphsError("vector belongs to a different module")
        out: dict = {}
        for mono, coeff in a.terms.items():
            for b, c in x.terms.items():
                hit = self._act_monomial(mono.gamma, mono.lam, b)
                if hit is None:
                    continue
                factor, target = hit
                total = coeff * c if factor is None else coeff * c * factor
                acc = out.get(target)
                acc = total if acc is None else acc + total
                if acc:
                    out[target] = acc
                elif target in out:
                    del out[target]
        return ModuleVector(self, out)

    # subclasses: _act_monomial(gamma, lam, basis) -> (twist factor | None, basis) | None

    def describe(self, b) -> str:
        return str(b)


class _FinitePathModule(_BaseModule):
    """Common action on finite-path bases (sink and infinite-emitter kinds)."""

    def __init__(self, graph: Graph, terminal: str, field=QQ):
        self.graph = graph
        self.terminal = graph.require_vertex(terminal)
        self.field = field

    def basis_path(self, source: str, edges=()) -> Path:
        p = self.graph.path(source, tuple(edges))
        if p.end != self.terminal:
            raise GraphError(f"path {p} does not end at {self.terminal!r}")
        return p

    def _act_monomial(self, gamma: Path, lam: Path, b: Path):
        # strip lam as a prefix of b, then prepend gamma
        nl = len(lam.edges)
        if lam.source != b.source or b.edges[:nl] != lam.edges:
            return None
        rest = Path(lam.end, b.edges[nl:], b.end)
        if gamma.end != rest.source:
            return None
        return None, Path(gamma.source, gamma.edges + rest.edges, rest.end)

    def describe(self, b: Path) -> str:
        return str(b)


class SinkModule(_FinitePathModule):
    """N_w for a sink w."""

    kind = "N_sink"

    def __init__(self, graph: Graph, sink: str, field=QQ):
        super().__init__(graph, sink, field)
        if graph.vertex_kind(self.terminal) != SINK:
            raise GraphError(f"{sink!r} is not a sink")


class InfiniteEmitterModule(_FinitePathModule):
    """S_v for an infinite emitter v."""

    kind = "S_infemitter"

    def __init__(self, graph: Graph, emitter: str, field=QQ):
        super().__init__(graph, emitter, field)
        if graph.vertex_kind(self.terminal) != INFINITE_EMITTER:
            raise GraphError(f"{emitter!r} is not an infinite emitter")


class RationalPathModule(_BaseModule):
    """V_[mu] for mu = prefix . cycle^inf, over eventually periodic paths."""

    kind = "V_rational"
    twisted_edge: str | None = None

    def __init__(self, graph: Graph, cycle: Path, prefix: Path | None = None, field=QQ):
        self.graph = graph
        if not graph.is_cycle(cycle):
            raise NotACycleError(f"{cycle} is not a cycle")
        self.cycle = cycle
        self.field = field
        self._sources = [graph.edges[e].src for e in cycle.edges]
        if prefix is None:
            prefix = graph.trivial_path(cycle.source)
        self.prefix = graph.path(prefix.source, prefix.edges)
        if self.prefix.end != cycle.source:
            raise GraphError(f"prefix {prefix} does not flow into the cycle base")
        self.base = self.vector_from(self.prefix, 0)

    def rotation_source(self, k: int) -> str:
        return self._sources[k % len(self._sources)]

    def vector_from(self, prefix: Path, rotation: int) -> RationalVector:
        """Canonicalize: absorb prefix edges that the periodic tail repeats."""
        m = len(self.cycle.edges)
        rotation %= m
        if prefix.end != self.rotation_source(rotation):
            raise GraphError(f"prefix {prefix} does not flow into rotation {rotation}")
        edges = list(prefix.edges)
        while edges and edges[-1] == self.cycle.edges[(rotation - 1) % m]:
            edges.pop()
            rotation = (rotation - 1) % m
        start = self.rotation_source(rotation)
        if edges:
            return RationalVector(Path(prefix.source, tuple(edges), start), rotation)
        return RationalVector(Path(start, (), start), rotation)

    def _source_of(self, b: RationalVector) -> str:
        return b.prefix.source

    def _first_edge(self, b: RationalVector) -> str:
        if b.prefix.edges:
            return b.prefix.edges[0]
        return self.cycle.edges[b.rotation]

    def _strip_first(self, b: RationalVector) -> RationalVector:
        m = len(self.cycle.edges)
        if b.prefix.edges:
            e = self.graph.edges[b.prefix.edges[0]]
            return RationalVector(Path(e.dst, b.prefix.edges[1:], b.prefix.end), b.rotation)
        rot = (b.rotation + 1) % m
        return RationalVector(
            Path(self.rotation_source(rot), (), self.rotation_source(rot)), rot
        )

    def _twist_power(self, edge_name: str) -> int:
        return 1 if edge_name == self.twisted_edge else 0

    def _act_monomial(self, gamma: Path, lam: Path, b: RationalVector):
        twist = 0
        cur = b
        for name in lam.edges:
            if self._source_of(cur) != self.graph.edges[name].src or self._first_edge(cur) != name:
                return None
            twist -= self._twist_power(name)
            cur = self._strip_first(cur)
        if lam.is_vertex and lam.source != self._source_of(cur):
            return None
        if gamma.end != self._source_of(cur):
            return None
        for name in reversed(gamma.edges):
            twist += self._twist_power(name)
        target = self.vector_from(
            Path(gamma.source, gamma.edges + cur.prefix.edges, cur.prefix.end), cur.rotation
        )
        if twist == 0:
            return None, target
        xbar = self.field.generator() if twist > 0 else self.field.generator().inverse()
        factor = self.field.one
        for _ in range(abs(twist)):
            factor = factor * xbar
        return factor, target

    def describe(self, b: RationalVector) -> str:
        tail = "·".join(self.cycle.edges[b.rotation:] + self.cycle.edges[: b.rotation])
        head = f"{b.prefix}·" if b.prefix.edges else ""
        return f"{head}({tail})^inf@{b.rotation}"


class TwistedRationalPathModule(RationalPathModule):
    """V_[mu]^f over K' = Q[x,x^-1]/(f): the rotation's first edge is twisted.

    Rational-coefficient elements embed into K' before acting; elements over
    a different extension are rejected.
    """

    kind = "V_twisted"

    def __init__(self, graph: Graph, cycle: Path, field: ExtensionField, prefix: Path | None = None):
        if not isinstance(field, ExtensionField):
            raise FieldMismatchError("twisted module requires an extension field")
        super().__init__(graph, cycle, prefix, field)

    @property
    def twisted_edge(self) -> str:
        return self.cycle.edges[0]


def invariant_pair(module, edge_name: str) -> tuple:
    """Ordered basis (q, p) of the 2-dimensional invariant subspace of a
    witness edge: p is the module's base vector, q its image under the edge.

    Sink kind: requires r(f) = w and s(f) != w; the pair is (path f, w).
    Rational kind: requires s(f) != r(f) = source of the periodic base path;
    the pair is (f . base, base).
    """
    g = module.graph
    f = g.require_edge(edge_name)
    if isinstance(module, SinkModule):
        if f.dst != module.terminal or f.src == module.terminal:
            raise NotAWitnessEdgeError(
                f"edge {edge_name!r} is not a witness for the sink {module.terminal!r}"
            )
        return g.edge_path(edge_name), g.trivial_path(module.terminal)
    if isinstance(module, RationalPathModule):
        base = module.base
        start = base.prefix.source
        if f.dst != start or f.src == f.dst:
            raise NotAWitnessEdgeError(
                f"edge {edge_name!r} is not a witness for the tail starting at {start!r}"
            )
        q = module.vector_from(
            Path(f.src, (edge_name,) + base.prefix.edges, base.prefix.end), base.rotation
        )
        return q, base
    raise NotAWitnessEdgeError(f"no invariant pair construction for {module.kind}")


def matrix_of(module, basis: tuple, a: AlgebraElement):
    """2x2 matrix of the action on span(q, p), columns = images in (q, p) order."""
    q, p = basis
    cols = []
    for b in (q, p):
        image = module.act(a, module.basis_vector(b))
        extra = set(image.terms) - {q, p}
        if extra:
            raise NotInvariantError(
                f"action leaves the span: extra basis vectors {sorted(map(module.describe, extra))}"
            )
        cols.append((image.terms.get(q, module.field.zero), image.terms.get(p, module.field.zero)))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat_identity(field=QQ):
    return ((field.one, field.zero), (field.zero, field.one))
