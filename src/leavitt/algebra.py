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
at each strip, until the tails differ or stop being special.  Nothing is
re-queued, and the surviving monomials form a basis, which makes the normal
form a decision procedure for equality.  Bundle edges never appear in
elements (CK2 does not fire at infinite emitters), only explicit or minted
representatives do.

Everything here is immutable and pure; products of independent elements can
be evaluated concurrently without shared state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import scalars
from .errors import (
    FieldMismatchError,
    MixedGraphsError,
    NotReducedError,
    NotSquareZeroError,
)
from .graph import Graph, Path
from .scalars import QQ, RationalField


class PathMonomial(NamedTuple):
    """A basis monomial g l*; both paths share their range."""

    gamma: Path
    lam: Path

    def sort_key(self):
        return self.gamma.sort_key() + self.lam.sort_key()

    def star(self) -> "PathMonomial":
        return PathMonomial(self.lam, self.gamma)

    def __str__(self):
        parts = list(self.gamma.edges) + [f"{e}^*" for e in reversed(self.lam.edges)]
        return "*".join(parts) if parts else self.gamma.source


def add_term(terms: dict, key, coeff) -> None:
    """Add coeff * key into a dict of monomial or basis-path terms, dropping
    a sum that cancels."""
    acc = terms.get(key)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[key] = acc
    elif key in terms:
        del terms[key]


def _normalize_terms(g: Graph, items) -> dict:
    """Reduce a raw (monomial, coefficient) stream to basis form, one loop
    per monomial stripping its special tail edges (see the module notes)."""
    out: dict[PathMonomial, object] = {}
    for mono, coeff in items:
        if not coeff:
            continue
        gamma, lam = mono
        while gamma.edges and lam.edges:
            d = gamma.edges[-1]
            if d != lam.edges[-1]:
                break
            v = g.edges[d].src
            if not g.is_regular(v) or g.special_edge(v) != d:
                break
            gamma = Path(gamma.source, gamma.edges[:-1])
            lam = Path(lam.source, lam.edges[:-1])
            mono = PathMonomial(gamma, lam)
            for name in g.out_edges(v):
                if name != d:
                    sibling = PathMonomial(
                        Path(gamma.source, gamma.edges + (name,)),
                        Path(lam.source, lam.edges + (name,)),
                    )
                    add_term(out, sibling, -coeff)
        add_term(out, mono, coeff)
    return out


def _join_fields(a: "AlgebraElement", b: "AlgebraElement"):
    if a.field == b.field:
        return a.field
    if isinstance(a.field, RationalField):
        return b.field
    if isinstance(b.field, RationalField):
        return a.field
    raise FieldMismatchError(
        f"cannot combine elements over {a.field!r} and {b.field!r}"
    )


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
        t = g.trivial_path(g.require_vertex(v))
        return cls(g, field, {PathMonomial(t, t): field.one})

    @classmethod
    def edge(cls, g: Graph, name: str, field=QQ) -> "AlgebraElement":
        p = g.edge_path(name)
        return cls(g, field, {PathMonomial(p, g.trivial_path(g.range_of(p))): field.one})

    @classmethod
    def ghost(cls, g: Graph, name: str, field=QQ) -> "AlgebraElement":
        p = g.edge_path(name)
        return cls(g, field, {PathMonomial(g.trivial_path(g.range_of(p)), p): field.one})

    @classmethod
    def one(cls, g: Graph, field=QQ) -> "AlgebraElement":
        terms = {}
        for v in g.vertices:
            t = g.trivial_path(v)
            terms[PathMonomial(t, t)] = field.one
        return cls(g, field, terms)

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
        if self.graph is not other.graph and self.graph != other.graph:
            raise MixedGraphsError("elements live over different graphs")

    # arithmetic

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_graph(other)
        field = _join_fields(self, other)
        a, b = self.with_field(field), other.with_field(field)
        terms = dict(a.terms)
        for m, c in b.terms.items():
            add_term(terms, m, c)
        return AlgebraElement(self.graph, field, terms)

    def __neg__(self):
        return AlgebraElement(self.graph, self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        field = self.field
        if isinstance(k, scalars.ExtensionScalar) and isinstance(field, RationalField):
            field = k.field
            return self.with_field(field).scale(k)
        k = field.coerce(k)
        if not k:
            return AlgebraElement.zero(self.graph, field)
        return AlgebraElement(self.graph, field, {m: k * c for m, c in self.terms.items()})

    def __rmul__(self, k):
        if isinstance(k, (int, Fraction, scalars.ExtensionScalar)):
            return self.scale(k)
        return NotImplemented

    def mul(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_graph(other)
        field = _join_fields(self, other)
        a, b = self.with_field(field), other.with_field(field)
        # (g l*)(r n*) = 0 unless s(l) = s(r) (CK1): pair each left term
        # only with the right terms whose real part starts where its ghost does
        by_source: dict[str, list] = {}
        for m2, c2 in b.terms.items():
            by_source.setdefault(m2.gamma.source, []).append((m2, c2))
        raw = []
        for m1, c1 in a.terms.items():
            for m2, c2 in by_source.get(m1.lam.source, ()):
                prod = _mono_mul(m1, m2)
                if prod is not None:
                    raw.append((prod, c1 * c2))
        return AlgebraElement.from_terms(self.graph, raw, field)

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
            and (self.graph is other.graph or self.graph == other.graph)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items(), key=lambda t: t[0].sort_key()))))

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
    lam, rho = m1.lam, m2.gamma
    nl, nr = len(lam.edges), len(rho.edges)
    if nl <= nr:
        if rho.edges[:nl] != lam.edges:
            return None
        gamma = m1.gamma
        return PathMonomial(Path(gamma.source, gamma.edges + rho.edges[nl:]), m2.lam)
    if lam.edges[:nr] != rho.edges:
        return None
    ghost = m2.lam
    return PathMonomial(m1.gamma, Path(ghost.source, ghost.edges + lam.edges[nr:]))


def invert_unipotent(t: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """For square-zero t, return (1+t, 1-t); these are mutually inverse units."""
    if not (t * t).is_zero():
        raise NotSquareZeroError(f"({t})^2 is not zero")
    one = AlgebraElement.one(t.graph, t.field)
    return one + t, one - t


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
