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
* :class:`TwistedRationalPathModule` V_[mu]^f: V_[mu] over K' =
  Q[x,x^-1]/(f) pulled back along the automorphism sigma: e1 -> x*e1,
  e1* -> x^-1*e1* for the first cycle edge e1, so a acts as sigma(a) does.

Generators act on a basis path by the usual rules: a vertex projects onto
paths it sources, an edge prepends when composable, a ghost edge strips a
leading edge (and kills length-0 paths).  A monomial g l* strips l as a
prefix with one slice and prepends g; V_[mu] first appends whole periods so
that l fits, then folds trailing periods back.  The action of a general
element is the bilinear extension, evaluated term by term in one loop
(``_BaseModule._sweep``); a term g l* kills every basis path that does not
start at s(l), so such pairs are skipped before the strip.  The rules hold
for any monomial g l*, not only basis monomials: the module satisfies the
relations, so any expression of an element acts as its normal form does.

``invariant_pair`` returns the ordered basis (q, p) = (f . base, base) of
the two-dimensional invariant subspace attached to a witness edge f.
``span_matrix`` reads the 2x2 matrix in that basis, columns = images, off
a raw (monomial, coefficient) stream, both columns in one sweep over it;
``matrix_of`` is ``span_matrix`` over the terms of an element.
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
from .scalars import QQ, ExtensionField, join


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
    """Action on bases of finite paths ending at one terminal vertex: the
    bilinear action of elements on vectors."""

    def __init__(self, graph: Graph, terminal: str, field=QQ):
        self.graph = graph
        self.terminal = graph.require_vertex(terminal)
        self.field = field

    def basis_path(self, source: str, edges=()) -> Path:
        p = self.graph.path(source, tuple(edges))
        if self.graph.range_of(p) != self.terminal:
            raise GraphError(f"path {p} does not end at {self.terminal!r}")
        return p

    def vector(self, terms: dict) -> ModuleVector:
        return ModuleVector(self, {b: self.field.coerce(c) for b, c in terms.items()})

    def basis_vector(self, b) -> ModuleVector:
        return ModuleVector(self, {b: self.field.one})

    def _coerce_element(self, a: AlgebraElement) -> AlgebraElement:
        if a.graph != self.graph:
            raise MixedGraphsError("element and module live over different graphs")
        if join(self.field, a.field) != self.field:
            raise FieldMismatchError(
                f"element over {a.field!r} cannot act on a module over {self.field!r}"
            )
        return a.with_field(self.field)

    def act(self, a: AlgebraElement, x: ModuleVector) -> ModuleVector:
        """Linear extension of the basis action rules."""
        a = self._coerce_element(a)
        if x.module is not self:
            raise MixedGraphsError("vector belongs to a different module")
        out: dict = {}
        self._sweep(a.terms.items(), [(b, c, out) for b, c in x.terms.items()])
        return ModuleVector(self, out)

    def _sweep(self, items, columns) -> None:
        """The term loop: for each column (b, c, out), add c times the image
        of the basis path b under the (monomial, coefficient) stream
        ``items`` into the dict ``out``; c = None stands for 1.  The
        monomials need not be basis monomials, and ``items`` is read once.
        The columns are grouped by the source of b first: g l* kills every
        path not starting at s(l), so a term visits only the group at s(l)."""
        act_monomial = self._act_monomial
        by_source: dict[str, list] = {}
        for column in columns:
            by_source.setdefault(column[0].source, []).append(column)
        for (gamma, lam), coeff in items:
            for b, c, out in by_source.get(lam.source, ()):
                target = act_monomial(gamma, lam, b)
                if target is not None:
                    add_term(out, target, coeff if c is None else coeff * c)

    def _act_monomial(self, gamma: Path, lam: Path, b: Path) -> Path | None:
        """g l* on the basis path b, which starts at s(l): strip l as a
        prefix of b, then prepend g (r(g) = r(l)); None when l is no prefix."""
        nl = len(lam.edges)
        if b.edges[:nl] != lam.edges:
            return None
        return Path(gamma.source, gamma.edges + b.edges[nl:])

    def describe(self, b) -> str:
        return str(b)


class SinkModule(_BaseModule):
    """N_w for a sink w."""

    kind = "N_sink"

    def __init__(self, graph: Graph, sink: str, field=QQ):
        super().__init__(graph, sink, field)
        if graph.vertex_kind(self.terminal) != SINK:
            raise GraphError(f"{sink!r} is not a sink")


class InfiniteEmitterModule(_BaseModule):
    """S_v for an infinite emitter v."""

    kind = "S_infemitter"

    def __init__(self, graph: Graph, emitter: str, field=QQ):
        super().__init__(graph, emitter, field)
        if graph.vertex_kind(self.terminal) != INFINITE_EMITTER:
            raise GraphError(f"{emitter!r} is not an infinite emitter")


class RationalPathModule(_BaseModule):
    """V_[mu] for mu = prefix . cycle^inf; the basis path p stands for p . cycle^inf."""

    kind = "V_rational"
    twisted_edge: str | None = None

    def __init__(self, graph: Graph, cycle: Path, prefix: Path | None = None, field=QQ):
        if not graph.is_cycle(cycle):
            raise NotACycleError(f"{cycle} is not a cycle")
        super().__init__(graph, cycle.source, field)
        self.cycle = cycle
        if prefix is None:
            prefix = graph.trivial_path(cycle.source)
        self.base = self.basis_path(*prefix)

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
        c = self.cycle.edges
        return self.basis_path(prefix.source, prefix.edges + c[rotation % len(c):])

    def _act_monomial(self, gamma: Path, lam: Path, b: Path) -> Path | None:
        c = self.cycle.edges
        short = len(lam.edges) - len(b.edges)
        if short > 0:  # append whole periods until lam fits
            b = Path(b.source, b.edges + c * -(-short // len(c)))
        target = super()._act_monomial(gamma, lam, b)
        return None if target is None else self._fold(target)

    def describe(self, b: Path) -> str:
        head = f"{b}·" if b.edges else ""
        return f"{head}({'·'.join(self.cycle.edges)})^inf"


class TwistedRationalPathModule(RationalPathModule):
    """V_[mu]^f over K' = Q[x,x^-1]/(f): V_[mu] pulled back along the
    automorphism sigma that sends the cycle's first edge e1 to x*e1 and e1*
    to x^-1*e1*.

    Rational-coefficient elements embed into K' before acting; elements over
    a different extension are rejected.
    """

    kind = "V_twisted"

    def __init__(self, graph: Graph, cycle: Path, field: ExtensionField, prefix: Path | None = None):
        if not isinstance(field, ExtensionField):
            raise FieldMismatchError("twisted module requires an extension field")
        super().__init__(graph, cycle, prefix, field)
        self._x = field.generator()
        self._x_inverse = self._x.inverse()

    @property
    def twisted_edge(self) -> str:
        return self.cycle.edges[0]

    def _sweep(self, items, columns) -> None:
        """Apply sigma to each term, scaling g l* by x^(#e1 in g - #e1 in l),
        and sweep V_[mu] with the result."""
        e1 = self.twisted_edge

        def twisted():
            for (gamma, lam), coeff in items:
                n = gamma.edges.count(e1) - lam.edges.count(e1)
                for _ in range(abs(n)):
                    coeff = coeff * (self._x if n > 0 else self._x_inverse)
                yield (gamma, lam), coeff

        super()._sweep(twisted(), columns)


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


def span_matrix(module, basis: tuple, items):
    """2x2 matrix on span(q, p) of the element that the raw (monomial,
    coefficient) stream ``items`` over the module's graph and field sums
    to; columns = images in (q, p) order.  One sweep over ``items`` reads
    both images; the sum of the images must stay in the span."""
    q, p = basis
    at_q, at_p = {}, {}
    module._sweep(items, [(q, None, at_q), (p, None, at_p)])
    for image in (at_q, at_p):
        extra = set(image) - {q, p}
        if extra:
            raise NotInvariantError(
                f"action leaves the span: extra basis vectors {sorted(map(module.describe, extra))}"
            )
    zero = module.field.zero
    return (
        (at_q.get(q, zero), at_p.get(q, zero)),
        (at_q.get(p, zero), at_p.get(p, zero)),
    )


def matrix_of(module, basis: tuple, a: AlgebraElement):
    """2x2 matrix of the action of ``a`` on span(q, p), columns = images in
    (q, p) order."""
    return span_matrix(module, basis, module._coerce_element(a).terms.items())


def mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat_identity(field=QQ):
    return ((field.one, field.zero), (field.zero, field.one))
