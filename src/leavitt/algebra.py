"""Canonical arithmetic in the Leavitt path algebra of a finite-vertex graph.

Elements are finite scalar combinations of monomials g l* where g and l are
finite paths with a common range ("l*" is the ghost of l).  The defining
relations are

    (V)    v v' = delta_{v,v'} v
    (E1)   s(e) e = e r(e) = e
    (E2)   r(e) e* = e* s(e) = e*
    (CK1)  e* f = delta_{e,f} r(e)
    (CK2)  v = sum over s(e)=v of e e*      (regular v only)

Normal forms use the standard basis construction: every regular vertex gets
a distinguished "special" out-edge d (here the lexicographically largest),
and a monomial g l* is reducible exactly when both paths end in the same
special edge, rewriting via (CK2)

    (a d)(b d)*  ->  a b*  -  sum over e != d, s(e)=s(d) of (a e)(b e)*.

Each (a e)(b e)* ends in the non-special edge e, so it is a basis monomial;
only a b* can reduce again.  Reduction is therefore one loop per raw
monomial: strip special tail edges from the end, emitting the sibling terms
at each strip, until the tails differ or stop being special.  The loop
reads the (CK2) table that the graph builds at construction: it maps each
special edge d to its siblings, the other out-edges at s(d), so one lookup
tells whether a tail edge is special and what it emits.  Nothing is
re-queued, and the surviving monomials form a basis, which makes the normal
form a decision procedure for equality.  Bundle edges never appear in
elements (CK2 does not fire at infinite emitters), only explicit or minted
representatives do.

Products are closed-form but for one case.  Of two basis monomials g l*
and r n* with s(l) = s(r), the product is zero unless one of l, r extends
the other.  It keeps the tails of r n* when r is the longer, and those of
g l* when l is, so it is a basis monomial; only l = r leaves g n*, which
can reduce.  So ``mul`` writes the other products down and reduces only
the exact-match ones (see ``AlgebraElement.mul``).  A pure ghost n* on the
right needs no comparison at all: (g l*) n* = g (n l)*, a basis monomial
for nonempty l, so ``mul`` writes it down without ``_mono_mul``; and a
right factor that contains the identity passes the left factor through as
a copy of its terms.  A product of raw monomials, such as a chain of
generators, is one monomial or zero by (CK1), so ``add_monomial_product``
folds it without building an element per factor and reduces it once.

Everything here is immutable and pure; products of independent elements can
be evaluated concurrently without shared state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import scalars
from .errors import MixedGraphsError, NotSquareZeroError
from .graph import Graph, Path
from .scalars import QQ


class PathMonomial(NamedTuple):
    """A basis monomial g l*; both paths share their range."""

    gamma: Path
    lam: Path

    def sort_key(self):
        g, lam = self
        return len(g.edges), g.edges, g.source, len(lam.edges), lam.edges, lam.source

    def star(self) -> "PathMonomial":
        return PathMonomial(self.lam, self.gamma)

    def __str__(self):
        parts = list(self.gamma.edges) + [f"{e}^*" for e in reversed(self.lam.edges)]
        return "*".join(parts) if parts else self.gamma.source


_new = tuple.__new__  # builds a named tuple without its argument checks


def add_term(terms: dict, key, coeff) -> None:
    """Add coeff * key into a dict of monomial or basis-path terms, dropping
    a sum that cancels."""
    acc = terms.get(key)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[key] = acc
    elif key in terms:
        del terms[key]


def _identity_monomials(g: Graph) -> tuple:
    """The vertex monomials v v* of the identity, built once per graph and
    kept on it."""
    if g._identity is None:
        g._identity = tuple(PathMonomial(t, t) for t in map(g.trivial_path, g.vertices))
    return g._identity


def _normalize_terms(g: Graph, items, out: dict | None = None) -> dict:
    """Reduce a raw (monomial, coefficient) stream to basis form, one loop
    per monomial stripping its special tail edges (see the module notes).
    The graph's (CK2) table gives the siblings of each special edge.  The
    result is added into ``out`` when given, else into a new dict."""
    if out is None:
        out = {}
    ck2 = g._ck2
    for mono, coeff in items:
        if not coeff:
            continue
        (g_src, g_edges), (l_src, l_edges) = mono
        stripped = False
        while (
            g_edges
            and l_edges
            and g_edges[-1] == l_edges[-1]
            and (siblings := ck2.get(g_edges[-1])) is not None
        ):
            g_edges, l_edges, stripped = g_edges[:-1], l_edges[:-1], True
            for name in siblings:
                sibling = _new(PathMonomial, (
                    _new(Path, (g_src, g_edges + (name,))),
                    _new(Path, (l_src, l_edges + (name,))),
                ))
                add_term(out, sibling, -coeff)
        if stripped:
            mono = _new(PathMonomial, (_new(Path, (g_src, g_edges)), _new(Path, (l_src, l_edges))))
        add_term(out, mono, coeff)
    return out


def generator_monomial(g: Graph, kind: str, name: str) -> PathMonomial:
    """The basis monomial of a generator: a vertex v is v v*, an edge e is
    e r(e)*, and its ghost e* is r(e) e*.  ``kind`` is "vertex", "edge" or
    "ghost"; an unknown name raises the graph's lookup error.  Each monomial
    is built on first use and kept in the graph's table of generators."""
    key = (kind, name)
    mono = g._generators.get(key)
    if mono is None:
        if kind == "vertex":
            t = g.trivial_path(name)
            mono = _new(PathMonomial, (t, t))
        else:
            e = g.require_edge(name)
            p, t = _new(Path, (e.src, (name,))), _new(Path, (e.dst, ()))
            mono = _new(PathMonomial, (p, t) if kind == "edge" else (t, p))
        g._generators[key] = mono
    return mono


def add_monomial_product(g: Graph, terms: dict, monomials: list, k) -> None:
    """Add k times the product of the raw monomials, in basis form, into
    ``terms``; the empty product is the identity.

    By (CK1), (g l*)(r n*) is one monomial or zero for any two monomials:
    zero unless s(l) = s(r), and otherwise ``_mono_mul``.  So the product
    folds left to right into one raw monomial, stops at the first zero, and
    is reduced once.
    """
    if not monomials:
        for m in _identity_monomials(g):
            add_term(terms, m, k)
        return
    mono = monomials[0]
    for m2 in monomials[1:]:
        if mono.lam.source != m2.gamma.source:
            return
        mono = _mono_mul(mono, m2)
        if mono is None:
            return
    _normalize_terms(g, ((mono, k),), terms)


class AlgebraElement:
    """Immutable element in canonical basis form.

    ``terms`` maps basis monomials to nonzero scalars over ``field`` (the
    rationals by default, or an extension field).  Term order for printing
    is lexicographic on (len g, g, len l, l), so the textual form is
    canonical and diffable.
    """

    __slots__ = ("graph", "field", "terms")

    def __init__(self, graph: Graph, field, terms: dict):
        self.graph = graph
        self.field = field
        self.terms = terms

    # constructors

    @classmethod
    def zero(cls, g: Graph, field=QQ) -> "AlgebraElement":
        return cls(g, field, {})

    @classmethod
    def vertex(cls, g: Graph, v: str, field=QQ) -> "AlgebraElement":
        return cls(g, field, {generator_monomial(g, "vertex", v): field.one})

    @classmethod
    def edge(cls, g: Graph, name: str, field=QQ) -> "AlgebraElement":
        return cls(g, field, {generator_monomial(g, "edge", name): field.one})

    @classmethod
    def ghost(cls, g: Graph, name: str, field=QQ) -> "AlgebraElement":
        return cls(g, field, {generator_monomial(g, "ghost", name): field.one})

    @classmethod
    def one(cls, g: Graph, field=QQ) -> "AlgebraElement":
        """The sum of the vertices.  Its |V| monomials are built once per
        graph and kept on it, so each call only fills a dict."""
        return cls(g, field, dict.fromkeys(_identity_monomials(g), field.one))

    @classmethod
    def from_terms(cls, g: Graph, items, field=QQ) -> "AlgebraElement":
        """Build from raw (PathMonomial, scalar) pairs, reducing to basis form."""
        return cls(g, field, _normalize_terms(g, items))

    def with_field(self, field) -> "AlgebraElement":
        if field == self.field:
            return self
        return AlgebraElement(
            self.graph, field, {m: field.coerce(c) for m, c in self.terms.items()}
        )

    # predicates

    def is_zero(self) -> bool:
        return not self.terms

    def _check_graph(self, other: "AlgebraElement"):
        if self.graph != other.graph:
            raise MixedGraphsError("elements live over different graphs")

    # arithmetic

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_graph(other)
        field = scalars.join(self.field, other.field)
        a, b = self.with_field(field), other.with_field(field)
        terms = dict(a.terms)
        for m, c in b.terms.items():
            add_term(terms, m, c)
        return AlgebraElement(self.graph, field, terms)

    def minus_one(self) -> "AlgebraElement":
        """self - 1 in one pass: a copy of the terms, from which the |V|
        vertex monomials of the identity are subtracted."""
        terms = dict(self.terms)
        minus = -self.field.one
        for m in _identity_monomials(self.graph):
            add_term(terms, m, minus)
        return AlgebraElement(self.graph, self.field, terms)

    def __neg__(self):
        return AlgebraElement(self.graph, self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        field = scalars.join(self.field, getattr(k, "field", QQ))
        k = field.coerce(k)
        if not k:
            return AlgebraElement.zero(self.graph, field)
        return AlgebraElement(self.graph, field, {m: k * c for m, c in self.terms.items()})

    def __rmul__(self, k):
        if isinstance(k, (int, Fraction, scalars.ExtensionScalar)):
            return self.scale(k)
        return NotImplemented

    def mul(self, other: "AlgebraElement") -> "AlgebraElement":
        """The product in basis form, reducing only exact-match products.

        Take basis monomials g l* and r n* with s(l) = s(r) (by CK1 the
        product is zero otherwise, so only such pairs are tried):

        * r = l r' with r' nonempty: the product (g r') n* ends like r n*,
          so its two paths end in the same special edge exactly when those
          of r n* do, which they do not;
        * l = r l'' with l'' nonempty: the product g (n l'')* ends like
          g l*, a basis monomial, by the same argument;
        * neither extends the other: the product is zero by CK1.

        The right factor's terms are filed once, in three groups.  A vertex
        term v passes every g l* with s(l) = v through, scaled by its
        coefficient, so when the right factor has vertex terms these
        products fill the result first in one pass; when they are every
        vertex with coefficient 1 (the factor contains the identity), that
        pass is a copy of the left factor's terms.  A pure ghost n* (trivial
        r) is filed as a record (n, coefficient) under s(n*) and multiplied
        in closed form: for nonempty l, g l* n* is g (n l)*, which ends like
        g l* and is added directly; for trivial l it is g n*, which may
        reduce.  A term with nonempty r is filed as a record (r n*, edges
        of r, coefficient) under the first edge of r: by CK1 it meets a
        nonempty l only when l starts with that edge, and it meets a trivial
        l at its source.  So each g l* takes the ghosts at s(l) and tries,
        through ``_mono_mul``, the terms under its first edge, or for
        trivial l every term with nonempty r at s(l).  Only l = r, tested
        on the stored edges of r, and the ghosts met by a trivial l can give
        a reducible g n*.  Those products go through ``_normalize_terms``
        together; every other one is added directly.
        """
        self._check_graph(other)
        g = self.graph
        field = scalars.join(self.field, other.field)
        a, b = self.with_field(field), other.with_field(field)
        # vertex and edge names are distinct, so one dict files the records
        # with nonempty r under both the first edge of r and s(r)
        vertex: dict[str, object] = {}  # s -> coefficient of the vertex term s
        ghosts: dict[str, list] = {}  # s(n*) -> records (n, coefficient) of terms n* with trivial r
        reals: dict[str, list] = {}  # first edge of r, and s(r) -> records of terms r n*
        for m2, c2 in b.terms.items():
            source, r = m2.gamma
            if r:
                record = (m2, r, c2)
                reals.setdefault(r[0], []).append(record)
                reals.setdefault(source, []).append(record)
            elif m2.lam.edges:
                ghosts.setdefault(source, []).append((m2.lam, c2))
            else:
                vertex[source] = c2
        terms = {}
        if vertex:
            if len(vertex) == len(g.vertices) and all(c == field.one for c in vertex.values()):
                terms = dict(a.terms)  # the right factor contains the identity
            else:
                get = vertex.get
                terms = {
                    m1: p for m1, c1 in a.terms.items() if (c := get(m1.lam.source)) is not None and (p := c1 * c)
                }
        exact = []
        for m1, c1 in a.terms.items():
            gamma, lam = m1
            source, edges = lam
            if source in ghosts:
                if edges:  # g (n l)*, which ends like g l*
                    for n, c2 in ghosts[source]:
                        add_term(terms, _new(PathMonomial, (gamma, _new(Path, (n.source, n.edges + edges)))), c1 * c2)
                else:  # g n*, which may reduce
                    exact += [(_new(PathMonomial, (gamma, n)), c1 * c2) for n, c2 in ghosts[source]]
            for m2, r, c2 in reals.get(edges[0] if edges else source, ()):
                if r == edges:  # l = r
                    exact.append((PathMonomial(gamma, m2.lam), c1 * c2))
                    continue
                prod = _mono_mul(m1, m2)
                if prod is not None:
                    add_term(terms, prod, c1 * c2)
        if exact:
            _normalize_terms(g, exact, terms)
        return AlgebraElement(g, field, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, scalars.ExtensionScalar)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.mul(other)

    def star(self) -> "AlgebraElement":
        """The involution g l* -> l g* extended linearly (vertices are fixed).

        g l* is reducible exactly when g and l end in the same special edge,
        a condition symmetric in g and l, so the swapped terms are basis
        monomials already.
        """
        return AlgebraElement(
            self.graph, self.field, {m.star(): c for m, c in self.terms.items()}
        )

    # comparison and printing

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.graph == other.graph
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = str(m)
            if isinstance(c, scalars.ExtensionScalar):
                coeff, sign = f"({c})*", "+"
            else:
                sign = "-" if c < 0 else "+"
                mag = abs(c)
                coeff = "" if mag == 1 else f"{mag}*"
            if not parts:
                lead = "-" if sign == "-" else ""
                parts.append(f"{lead}{coeff}{body}")
            else:
                parts.append(f"{sign} {coeff}{body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<AlgebraElement {self}>"


def _mono_mul(m1: PathMonomial, m2: PathMonomial) -> PathMonomial | None:
    """(g l*)(r n*) for s(l) = s(r): concatenate through the overlap of l
    and r, else zero.

    If r = l r' the product is (g r') n*; if l = r l'' it is g (n l'')*;
    otherwise the ghost/real interface annihilates by (CK1).  The caller
    pairs only terms with s(l) = s(r), so the result paths compose and are
    built directly.
    """
    gamma, lam = m1
    rho, ghost = m2
    lam_edges, rho_edges = lam.edges, rho.edges
    nl, nr = len(lam_edges), len(rho_edges)
    if nl <= nr:
        if rho_edges[:nl] != lam_edges:
            return None
        return _new(PathMonomial, (_new(Path, (gamma.source, gamma.edges + rho_edges[nl:])), ghost))
    if lam_edges[:nr] != rho_edges:
        return None
    return _new(PathMonomial, (gamma, _new(Path, (ghost.source, ghost.edges + lam_edges[nr:]))))


def invert_unipotent(t: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """For square-zero t, return (1+t, 1-t); these are mutually inverse units."""
    if not (t * t).is_zero():
        raise NotSquareZeroError(f"({t})^2 is not zero")
    one = AlgebraElement.one(t.graph, t.field)
    return one + t, one - t

