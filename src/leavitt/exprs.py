"""Expression syntax for algebra elements.

Grammar (multiplication is explicit; juxtaposition is a parse error):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := rational | ident | ident "^*" | "(" expr ")" | "-" factor

Identifiers are [A-Za-z_][A-Za-z0-9_#']* and must resolve in the ambient
graph to a vertex or an explicit edge; the two-character postfix "^*" forms
a ghost edge.  A bare rational k denotes k times the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, PathMonomial, add_monomial_product, add_term, generator_monomial
from .errors import ParseError, UnknownSymbolError
from .graph import IDENT, Graph
from .scalars import QQ, rational_literal


# expression-tree nodes: slotted, mutable dataclasses, since a frozen one
# sets each field through object.__setattr__ when the parser builds it;
# equality compares the class and the fields, and no node is hashed

@dataclass(slots=True)
class Lit:
    value: int | Fraction


@dataclass(slots=True)
class VertexSym:
    name: str


@dataclass(slots=True)
class EdgeSym:
    name: str


@dataclass(slots=True)
class GhostSym:
    name: str


@dataclass(slots=True)
class Sum:
    left: object
    right: object


@dataclass(slots=True)
class Diff:
    left: object
    right: object


@dataclass(slots=True)
class Prod:
    left: object
    right: object


@dataclass(slots=True)
class Neg:
    arg: object


_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<rat>\d+(?:\s*/\s*\d+)?)
      | (?P<ident>{IDENT})
      | (?P<ghost>\^\*)
      | (?P<plus>\+) | (?P<minus>-) | (?P<times>\*) | (?P<open>\() | (?P<close>\))
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    """The token matches of the text and their kinds (the name of the group
    each matched), in one pass, with the kind "end" appended.  Every
    non-blank character starts a match, so the matches tile the text up to
    trailing blanks, and a character no token allows is a ParseError."""
    matches = list(_TOKEN_RE.finditer(text))
    kinds = [m.lastgroup for m in matches]
    if "bad" in kinds:
        m = matches[kinds.index("bad")]
        raise ParseError(f"unexpected character {m['bad']!r} at position {m.start('bad')}")
    kinds.append("end")
    return matches, kinds


class _Parser:
    """Recursive descent over the token kinds, read by index; a token's text
    and position are read off its match only where they are used."""

    def __init__(self, g: Graph, text: str):
        self.g = g
        self.text = text
        self.matches, self.kinds = _tokenize(text)
        self.pos = 0

    def token(self, i: int):
        """(text, position) of token i; the end of input is ("", len(text))."""
        if i == len(self.matches):
            return "", len(self.text)
        kind = self.kinds[i]
        return self.matches[i][kind], self.matches[i].start(kind)

    def parse(self):
        tree = self.expr()
        if self.kinds[self.pos] != "end":
            val, at = self.token(self.pos)
            raise ParseError(f"trailing input at position {at}: {val!r}")
        return tree

    def expr(self):
        kinds = self.kinds
        node = self.term()
        while (op := kinds[self.pos]) == "plus" or op == "minus":
            self.pos += 1
            rhs = self.term()
            node = Sum(node, rhs) if op == "plus" else Diff(node, rhs)
        return node

    def term(self):
        kinds = self.kinds
        node = self.factor()
        while kinds[self.pos] == "times":
            self.pos += 1
            node = Prod(node, self.factor())
        return node

    def factor(self):
        # a run of prefix minus signs is counted in a loop, not recursed into
        kinds, pos = self.kinds, self.pos
        signs = 0
        while kinds[pos] == "minus":
            pos += 1
            signs += 1
        kind = kinds[pos]
        self.pos = pos + 1
        if kind == "rat":
            m = self.matches[pos]
            node = Lit(rational_literal("".join(m["rat"].split()), m.start("rat")))
        elif kind == "open":
            node = self.expr()
            if kinds[self.pos] != "close":
                val, at = self.token(self.pos)
                raise ParseError(f"expected ')' at position {at}, found {val or 'end of input'!r}")
            self.pos += 1
        elif kind == "ident":
            m = self.matches[pos]
            ghost = kinds[self.pos] == "ghost"
            self.pos += ghost
            node = self.resolve(m["ident"], ghost, m.start("ident"))
        else:
            val, at = self.token(pos)
            raise ParseError(f"expected a factor at position {at}, found {val or 'end of input'!r}")
        for _ in range(signs):
            node = Neg(node)
        return node

    def resolve(self, name: str, ghost: bool, at: int):
        if name in self.g.edges:
            return GhostSym(name) if ghost else EdgeSym(name)
        if name in self.g._kind:  # the vertex table
            if ghost:
                raise UnknownSymbolError(f"{name!r} is a vertex; ghosts exist only for edges")
            return VertexSym(name)
        if name in self.g.bundles:
            raise UnknownSymbolError(
                f"{name!r} is a bundle; only explicit or minted edges appear in elements"
            )
        raise UnknownSymbolError(f"unknown symbol {name!r} at position {at}")


def parse_expr(g: Graph, text: str):
    """Parse and resolve an expression over the graph into a tree.

    The parser recurses once per parenthesis (a run of prefix minus signs
    is read in a loop), so input that nests past the interpreter's
    recursion limit is a :class:`ParseError`.
    """
    try:
        return _Parser(g, text).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


_GENERATOR_KINDS = {VertexSym: "vertex", EdgeSym: "edge", GhostSym: "ghost"}


def evaluate(g: Graph, tree, field=QQ) -> AlgebraElement:
    """Fold an expression tree into a canonical element over ``field``.

    The tree is walked over Q and its scalars are embedded into ``field``
    once, at the end (over Q that returns the element itself).  This is
    exact: the basis of path monomials g l* is the same over every field,
    so L_K'(E) = K' (x) L_Q(E), and an expression names only rational
    literals.  So a normal form over K' costs one rational walk and one
    pass over its terms, and no product runs K' arithmetic.

    A chain of sums, differences and negations adds its summands into one
    term dict, so reading back a printed normal form of n terms is linear
    in n rather than copying the partial sum at every node.  Each summand
    is a product chain (a single factor is a chain of one).  Its literal
    factors and the minus signs around any factor fold into one scalar k,
    so neither ``2*e`` nor ``-2*e`` multiplies by the |V|-term identity.

    Generators are monomials, not elements.  By (CK1), (g l*)(r n*) is one
    monomial or zero for any two monomials, so a chain whose other factors
    are all vertices, edges and ghosts folds left to right into one raw
    monomial, which is reduced once and added, times k, into the sum's
    dict; a lone generator adds its one monomial, and a chain of literals
    alone adds k to each of the |V| vertex monomials of the identity.  The
    generator monomials come from the graph's table (see
    ``generator_monomial``).  Any other chain multiplies its factors as
    elements with ``AlgebraElement.mul``.  Either way a chain stops at its
    first zero partial product, and the factors after it are never
    evaluated.

    Chains are walked in loops, so only parentheses nest the recursion; a
    tree nested past the recursion limit is a :class:`ParseError`.
    """

    def walk(node) -> dict:
        """The terms of a chain of sums, differences and negations."""
        terms: dict = {}
        stack = [(node, 1)]
        while stack:
            node, sign = stack.pop()
            if isinstance(node, (Sum, Diff)):
                stack += [(node.left, sign), (node.right, -sign if isinstance(node, Diff) else sign)]
            elif isinstance(node, Neg):
                stack.append((node.arg, -sign))
            else:
                add_chain(node, sign, terms)
        return terms

    def add_chain(node, k, terms: dict) -> None:
        """Add k times a product chain into ``terms``."""
        factors, stack, generators_only = [], [node], True
        while stack:
            node = stack.pop()
            cls = type(node)
            if cls is Prod:
                stack += [node.right, node.left]
            elif cls is Lit:
                k *= node.value
            elif cls is Neg:
                k = -k
                stack.append(node.arg)
            elif cls in _GENERATOR_KINDS:
                factors.append(generator_monomial(g, _GENERATOR_KINDS[cls], node.name))
            elif cls is Sum or cls is Diff:
                factors.append(node)
                generators_only = False
            else:
                raise TypeError(f"not an expression node: {node!r}")
        k = QQ.coerce(k)
        if not k:
            return
        if generators_only:
            add_monomial_product(g, terms, factors, k)
            return
        result = None
        for factor in factors:
            x = AlgebraElement(g, QQ, {factor: 1} if type(factor) is PathMonomial else walk(factor))
            result = x if result is None else result.mul(x)
            if not result.terms:
                return
        if terms:
            for m, c in result.terms.items():
                add_term(terms, m, k * c)
        else:  # the first summand, often the whole sum: a copy, with nothing to cancel against
            terms.update(result.terms if k == 1 else {m: k * c for m, c in result.terms.items()})

    try:
        return AlgebraElement(g, QQ, walk(tree)).with_field(field)
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


def normalize(g: Graph, text: str, field=QQ) -> AlgebraElement:
    """Normalize expression text over a graph; ``evaluate`` takes a parsed tree."""
    return evaluate(g, parse_expr(g, text), field)
