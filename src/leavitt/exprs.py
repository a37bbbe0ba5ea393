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

from .algebra import AlgebraElement, add_term
from .errors import ParseError, UnknownSymbolError
from .graph import Graph
from .scalars import QQ, rational_literal


# expression-tree nodes

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class VertexSym:
    name: str


@dataclass(frozen=True)
class EdgeSym:
    name: str


@dataclass(frozen=True)
class GhostSym:
    name: str


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


# The names this syntax reads as one identifier.  Graph JSON rejects any
# other vertex, edge or bundle name, so every printed normal form parses back.
IDENT = r"[A-Za-z_][A-Za-z0-9_#']*"
IDENT_RE = re.compile(IDENT)

_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<rat>\d+(?:\s*/\s*\d+)?)
      | (?P<ident>{IDENT})
      | (?P<ghost>\^\*)
      | (?P<op>[+\-*()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
            break
        for kind in ("rat", "ident", "ghost", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind if kind != "op" else val, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, g: Graph, text: str):
        self.g = g
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def parse(self):
        tree = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input at position {tok[2]}: {tok[1]!r}")
        return tree

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Sum(node, rhs) if op == "+" else Diff(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.take()
            node = Prod(node, self.factor())
        return node

    def factor(self):
        kind, val, at = self.peek()
        if kind == "rat":
            self.take()
            return Lit(rational_literal(val.replace(" ", ""), at))
        if kind == "-":
            self.take()
            return Neg(self.factor())
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "ident":
            self.take()
            ghost = self.peek()[0] == "ghost"
            if ghost:
                self.take()
            return self.resolve(val, ghost, at)
        raise ParseError(f"expected a factor at position {at}, found {val or 'end of input'!r}")

    def resolve(self, name: str, ghost: bool, at: int):
        if name in self.g.edges:
            return GhostSym(name) if ghost else EdgeSym(name)
        if name in set(self.g.vertices):
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

    The parser recurses once per parenthesis or prefix minus, so input that
    nests past the interpreter's recursion limit is a :class:`ParseError`.
    """
    try:
        return _Parser(g, text).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


def evaluate(g: Graph, tree, field=QQ) -> AlgebraElement:
    """Fold an expression tree into a canonical element.

    A chain of sums, differences and negations adds its summands into one
    term dict, so reading back a printed normal form of n terms is linear
    in n rather than copying the partial sum at every node.  Such chains
    and chains of products are walked in a loop, so only parentheses nest
    the recursion; a tree nested past the recursion limit is a
    :class:`ParseError`.
    """

    def walk(node) -> AlgebraElement:
        if isinstance(node, Lit):
            return AlgebraElement.one(g, field).scale(node.value)
        if isinstance(node, VertexSym):
            return AlgebraElement.vertex(g, node.name, field)
        if isinstance(node, EdgeSym):
            return AlgebraElement.edge(g, node.name, field)
        if isinstance(node, GhostSym):
            return AlgebraElement.ghost(g, node.name, field)
        if isinstance(node, Prod):
            return product(node)
        if isinstance(node, (Sum, Diff, Neg)):
            return signed_sum(node)
        raise TypeError(f"not an expression node: {node!r}")

    def product(node) -> AlgebraElement:
        factors = []
        while isinstance(node, Prod):
            factors.append(node.right)
            node = node.left
        result = walk(node)
        for factor in reversed(factors):
            result = result.mul(walk(factor))
        return result

    def signed_sum(node) -> AlgebraElement:
        terms: dict = {}
        stack = [(node, False)]
        while stack:
            node, negate = stack.pop()
            if isinstance(node, (Sum, Diff)):
                stack += [(node.left, negate), (node.right, negate != isinstance(node, Diff))]
            elif isinstance(node, Neg):
                stack.append((node.arg, not negate))
            else:
                for m, c in walk(node).terms.items():
                    add_term(terms, m, -c if negate else c)
        return AlgebraElement(g, field, terms)

    try:
        return walk(tree)
    except RecursionError:
        raise ParseError("expression nests too deeply") from None


def normalize(g: Graph, source, field=QQ) -> AlgebraElement:
    """Normalize expression text (or an already-parsed tree) over a graph."""
    tree = parse_expr(g, source) if isinstance(source, str) else source
    return evaluate(g, tree, field)
