"""Simple-module actions as exact lazy linear operators.

Four module kinds act on finitely supported vectors over explicit basis
families:

* :class:`SinkModule` N_w: basis = finite paths ending at a sink w
  (including the length-0 path at w).
* :class:`InfiniteEmitterModule` S_v: basis = finite paths ending at an
  infinite emitter v (including v itself).
* :class:`RationalPathModule` V_[mu]: basis = infinite paths tail-equivalent
  to c^inf for a cycle c.  The basis vector p·c^inf is stored as the finite
  path p, which ends at the base of c and does not end in a whole period c;
  this form is unique because the sources of a cycle's edges are distinct.
* :class:`TwistedRationalPathModule` V_[mu]^f: the same basis over the
  extension K' = Q[x,x^-1]/(f), where the distinguished first cycle edge e1
  acts through the automorphism e1 -> x*e1, e1* -> x^-1*e1*.

Generators act on a basis path by the usual rules: a vertex projects onto
paths it sources, an edge prepends when composable, a ghost edge strips a
leading edge (and kills length-0 paths).  A monomial g l* strips l as a
prefix with one slice and prepends g; V_[mu] first appends whole periods so
that l fits, then folds trailing periods back.  The action of a general
element is the bilinear extension, evaluated term by term; a term g l*
kills every basis path that does not start at s(l), so such pairs are
skipped before the strip.

``invariant_pair`` returns the ordered basis (q, p) = (f . base, base) of
the two-dimensional invariant subspace attached to a witness edge f, and
``matrix_of`` reads off 2x2 matrices in that basis, columns = images.
"""

from __future__ import annotations

from .algebra import AlgebraElement, add_term
from .errors import (
    FieldMismatchError,
    GraphError,
    MixedGraphsError,
    NotACycleError,
    NotAWitnessEdgeError,
    NotInvariantError,
)
from .graph import INFINITE_EMITTER, SINK, Graph, Path
from .scalars import QQ, ExtensionField, RationalField, _power


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
            add_term(terms, b, c)
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
            return a.with_field(self.field)
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
            source = mono.lam.source
            for b, c in x.terms.items():
                if b.source != source:  # g l* kills every path not starting at s(l)
                    continue
                hit = self._act_monomial(mono.gamma, mono.lam, b)
                if hit is None:
                    continue
                factor, target = hit
                add_term(out, target, coeff * c if factor is None else coeff * c * factor)
        return ModuleVector(self, out)

    # subclasses: _act_monomial(gamma, lam, basis) -> (twist factor | None, basis) | None,
    # called only when s(lam) is the source of the basis path

    def describe(self, b) -> str:
        return str(b)


class _FinitePathModule(_BaseModule):
    """Action on bases of finite paths ending at one terminal vertex."""

    def __init__(self, graph: Graph, terminal: str, field=QQ):
        self.graph = graph
        self.terminal = graph.require_vertex(terminal)
        self.field = field

    def basis_path(self, source: str, edges=()) -> Path:
        p = self.graph.path(source, tuple(edges))
        if self.graph.range_of(p) != self.terminal:
            raise GraphError(f"path {p} does not end at {self.terminal!r}")
        return p

    def _act_monomial(self, gamma: Path, lam: Path, b: Path):
        # strip lam as a prefix of b, then prepend gamma; r(gamma) = r(lam)
        nl = len(lam.edges)
        if b.edges[:nl] != lam.edges:
            return None
        return None, Path(gamma.source, gamma.edges + b.edges[nl:])


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


class RationalPathModule(_FinitePathModule):
    """V_[mu] for mu = prefix . cycle^inf; the basis path p stands for p . cycle^inf."""

    kind = "V_rational"
    twisted_edge: str | None = None

    def __init__(self, graph: Graph, cycle: Path, prefix: Path | None = None, field=QQ):
        if not graph.is_cycle(cycle):
            raise NotACycleError(f"{cycle} is not a cycle")
        super().__init__(graph, cycle.source, field)
        self.cycle = cycle
        self._sources = [graph.edges[e].src for e in cycle.edges]
        if prefix is None:
            prefix = graph.trivial_path(cycle.source)
        self.prefix = graph.path(prefix.source, prefix.edges)
        if graph.range_of(self.prefix) != cycle.source:
            raise GraphError(f"prefix {prefix} does not flow into the cycle base")
        self.base = self.vector_from(self.prefix, 0)

    def rotation_source(self, k: int) -> str:
        return self._sources[k % len(self._sources)]

    def _fold(self, p: Path) -> Path:
        """Drop trailing whole periods: p . c and p name the same infinite path."""
        c = self.cycle.edges
        edges = p.edges
        while edges[-len(c):] == c:
            edges = edges[: -len(c)]
        return p if edges is p.edges else Path(p.source, edges)

    def basis_path(self, source: str, edges=()) -> Path:
        return self._fold(super().basis_path(source, edges))

    def vector_from(self, prefix: Path, rotation: int) -> Path:
        """The basis path of prefix . (cycle from edge ``rotation``)^inf."""
        rotation %= len(self.cycle.edges)
        if self.graph.range_of(self.graph.path(*prefix)) != self.rotation_source(rotation):
            raise GraphError(f"prefix {prefix} does not flow into rotation {rotation}")
        tail = self.cycle.edges[rotation:]
        return self._fold(Path(prefix.source, prefix.edges + tail))

    def _act_monomial(self, gamma: Path, lam: Path, b: Path):
        c = self.cycle.edges
        short = len(lam.edges) - len(b.edges)
        if short > 0:  # append whole periods until lam fits
            b = Path(b.source, b.edges + c * -(-short // len(c)))
        hit = super()._act_monomial(gamma, lam, b)
        if hit is None:
            return None
        target = self._fold(hit[1])
        twist = 0
        if self.twisted_edge is not None:
            twist = gamma.edges.count(self.twisted_edge) - lam.edges.count(self.twisted_edge)
        if twist == 0:
            return None, target
        xbar = self.field.generator()
        return _power(xbar if twist > 0 else xbar.inverse(), abs(twist)), target

    def describe(self, b: Path) -> str:
        head = f"{b}·" if b.edges else ""
        return f"{head}({'·'.join(self.cycle.edges)})^inf"


class TwistedRationalPathModule(RationalPathModule):
    """V_[mu]^f over K' = Q[x,x^-1]/(f): the cycle's first edge is twisted.

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
        if f.dst != base.source or f.src == f.dst:
            raise NotAWitnessEdgeError(
                f"edge {edge_name!r} is not a witness for the tail starting at {base.source!r}"
            )
        return module.basis_path(f.src, (edge_name,) + base.edges), base
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
