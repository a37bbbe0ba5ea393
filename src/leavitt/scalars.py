"""Exact scalar arithmetic: rationals and finite extensions of Q.

Two kinds of scalars circulate in the package:

* plain rationals: an ``int`` when the value is integral, else a stdlib
  ``fractions.Fraction`` (reduced, positive denominator), and
* :class:`ExtensionScalar` residues in K' = Q[x, x^-1] / (f(x)) for a
  Laurent polynomial f with nonzero constant term: a tuple of exactly
  d = deg(f) plain rationals, the coefficients of 1, x, ..., x^(d-1).

Because the constant term of f is a unit, x is invertible mod f, so a
Laurent modulus can be normalized to an ordinary polynomial by clearing
negative exponents before quotienting.  One reduction,
:meth:`ExtensionField._reduce`, folds any coefficient list to d
coefficients by the rule x^d = sum of r_i x^i (r_i = -f_i / f_d), from the
top down: a product is the schoolbook product of two residues folded
once, and an inverse solves a d x d linear system whose columns x^j a are
folded the same way.  Irreducibility of f is verified up to degree 3
(degree 2 by its discriminant, degree 3 by the rational root test, run as
a bisection for an integer root of a monic cubic); higher
degrees are trusted with a warning (an actually-reducible modulus degrades
K' to a ring, but every identity computed here remains well defined).

:class:`LaurentPoly` holds a parsed modulus and prints residues.

:func:`join` decides how fields mix, for scalars and for every layer
above: rationals embed into the extension, and combining residues of two
*different* extensions raises :class:`~leavitt.errors.FieldMismatchError`.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Mapping

from .errors import (
    DegreeZeroError,
    FieldMismatchError,
    NotInvertibleError,
    ParseError,
    ReduciblePolynomialError,
    ZeroConstantTermError,
)

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*)?(?P<xc>x(?:\^(?P<expc>-?\d+))?)?
          | (?P<x>x(?:\^(?P<exp>-?\d+))?)
        )\s*""",
    re.VERBOSE,
)


def rational_literal(text: str, at: int) -> int | Fraction:
    """Read a written rational "p" (an ``int``) or "p/q"; a zero q is a
    ParseError at ``at``."""
    if "/" not in text:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r} at position {at}") from None


class LaurentPoly:
    """Finitely supported map from integer exponents to rationals.

    No zero coefficients are stored; negative exponents are allowed.
    Immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Fraction | int]):
        self._c = {int(exp): Fraction(val) for exp, val in coeffs.items() if val}

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse e.g. "1 + x + x^2", "1/2*x^-1 - 3", "2x^3"."""
        text = text.strip()
        if not text:
            raise ParseError("empty polynomial")
        pos = 0
        coeffs: dict[int, Fraction] = {}
        first = True
        while pos < len(text):
            m = _TERM_RE.match(text, pos)
            if not m or m.end() == pos or (m.group("coeff") is None and m.group("x") is None):
                raise ParseError(f"bad polynomial syntax at position {pos}: {text!r}")
            if not first and m.group("sign") is None:
                raise ParseError(f"missing '+'/'-' before position {pos}: {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("coeff") is not None:
                coeff = rational_literal(m.group("coeff"), m.start("coeff"))
                exp = 0
                if m.group("xc") is not None:
                    exp = int(m.group("expc")) if m.group("expc") is not None else 1
            else:
                coeff = Fraction(1)
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
            coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
            pos = m.end()
            first = False
        return cls(coeffs)

    def items(self):
        return sorted(self._c.items())

    def __getitem__(self, exp: int) -> Fraction:
        return self._c.get(exp, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def min_exp(self) -> int:
        if not self._c:
            return 0
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            return 0
        return max(self._c)

    @property
    def constant_term(self) -> Fraction:
        return self[0]

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for exp, coeff in self.items():
            if exp == 0:
                body = str(abs(coeff))
            else:
                xpow = "x" if exp == 1 else f"x^{exp}"
                body = xpow if abs(coeff) == 1 else f"{abs(coeff)}*{xpow}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"


def _rational_root_exists(coeffs: list[Fraction]) -> bool:
    """True iff a0 + a1 x + a2 x^2 (+ a3 x^3), with a0 and the top
    coefficient nonzero, has a root in Q.

    After clearing denominators, a quadratic has one iff its discriminant is
    a square.  A cubic has one iff the monic g(y) = y^3 + a2 y^2 + a1 a3 y +
    a0 a3^2, which is a3^2 f(y / a3), has an integer root.
    """
    denlcm = 1
    for c in coeffs:
        denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in coeffs]
    if len(ints) == 3:
        a0, a1, a2 = ints
        disc = a1 * a1 - 4 * a0 * a2
        return disc >= 0 and isqrt(disc) ** 2 == disc
    a0, a1, a2, a3 = ints
    return _cubic_has_integer_root(a2, a1 * a3, a0 * a3 * a3)


def _cubic_has_integer_root(b: int, c: int, d: int) -> bool:
    """Whether y^3 + b y^2 + c y + d has an integer root.

    Every root lies within 1 + max(|b|, |c|, |d|).  When b^2 > 3c the
    derivative 3y^2 + 2by + c has roots r1 < r2, and the cubic is monotone
    on the integers up to floor(r1), from there to ceil(r2), and from
    ceil(r2) on; else it is monotone throughout.  Each of those integer
    ranges holds a root iff the signs at its ends differ or one is zero,
    and bisection finds it.
    """
    def g(y):
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    ranges = [(-bound, bound)]
    disc = b * b - 3 * c
    if disc > 0:
        root = isqrt(disc)
        root += root * root < disc  # the ceiling of sqrt(disc)
        lo, hi = (-b - root) // 3, -((b - root) // 3)  # floor(r1), ceil(r2)
        ranges = [(-bound, lo), (lo + 1, hi - 1), (hi, bound)]
    for lo, hi in ranges:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            continue
        at_lo, at_hi = g(lo), g(hi)
        if not at_lo or not at_hi:
            return True
        if (at_lo > 0) == (at_hi > 0):
            continue
        while hi - lo > 1:  # the sign changes between lo and hi
            mid = (lo + hi) // 2
            at_mid = g(mid)
            if not at_mid:
                return True
            if (at_mid > 0) == (at_lo > 0):
                lo = mid
            else:
                hi = mid
    return False


class RationalField:
    """The base field Q; a scalar is an ``int`` when integral, else a Fraction.

    Integer arithmetic runs natively, and the generators the package builds
    have integer coefficients, so Fractions appear only where a non-integer
    is written or computed.  An integral Fraction still equals and hashes
    like its ``int``.
    """

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, value) -> int | Fraction:
        if type(value) is int:
            return value
        if isinstance(value, ExtensionScalar):
            raise FieldMismatchError("extension scalar used where a rational is required")
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("leavitt.QQ")


QQ = RationalField()


def join(f, g):
    """The field in which scalars over f and over g combine: Q embeds into
    every extension K', and two different extensions never mix."""
    if f is g or isinstance(g, RationalField):
        return f
    if isinstance(f, RationalField):
        return g
    if f == g:  # two presentations of one extension
        return f
    raise FieldMismatchError(f"cannot combine scalars over {f!r} and {g!r}")


class ExtensionField:
    """K' = Q[x, x^-1] / (f(x)) presented by a normalized modulus.

    A Laurent modulus is shifted by a power of x to clear negative
    exponents first; the result must have nonzero constant term and
    degree >= 1.  ``irreducible_verified`` records whether the rational
    root test actually ran (degree <= 3) or the modulus was trusted.
    """

    def __init__(self, modulus: LaurentPoly):
        if modulus.min_exp < 0:
            modulus = modulus.shift(-modulus.min_exp)
        if not modulus.constant_term:
            raise ZeroConstantTermError(f"modulus {modulus} has zero constant term")
        if modulus.max_exp < 1:
            raise DegreeZeroError(f"modulus {modulus} is constant")
        self.modulus = modulus
        self.degree = d = modulus.max_exp
        # the reduction rule x^d = sum of r_i x^i over i < d
        self._rule = tuple(QQ.coerce(-modulus[i] / modulus[d]) for i in range(d))
        if d <= 3:
            # degree 1 is always irreducible; 2 and 3 exactly when rootless
            if d >= 2 and _rational_root_exists([modulus[i] for i in range(d + 1)]):
                raise ReduciblePolynomialError(f"modulus {modulus} has a rational root")
            self.irreducible_verified = True
        else:
            warnings.warn(
                f"irreducibility of degree-{self.degree} modulus {modulus} not verified; "
                "trusting the caller",
                stacklevel=2,
            )
            self.irreducible_verified = False

    @property
    def zero(self) -> "ExtensionScalar":
        return ExtensionScalar(self, (0,) * self.degree)

    @property
    def one(self) -> "ExtensionScalar":
        return self.coerce(1)

    def coerce(self, value) -> "ExtensionScalar":
        if isinstance(value, ExtensionScalar):
            join(self, value.field)  # raises for a residue of another extension
            return value
        return ExtensionScalar(self, (QQ.coerce(value),) + (0,) * (self.degree - 1))

    def element(self, coeffs: Iterable[Fraction | int]) -> "ExtensionScalar":
        """Residue from little-endian coefficients (reduced mod the modulus)."""
        return ExtensionScalar(self, self._reduce([QQ.coerce(c) for c in coeffs]))

    def generator(self) -> "ExtensionScalar":
        """The image of x."""
        return self.element([0, 1])

    def _reduce(self, c: list) -> tuple:
        """Fold the little-endian list c in place to ``degree`` coefficients,
        rewriting x^k for each k >= d, from the top, as the sum of r_i x^(k-d+i);
        every integral coefficient of the result is an ``int``."""
        d, rule = self.degree, self._rule
        c += [0] * (d - len(c))
        for top in range(len(c) - 1, d - 1, -1):
            k = c[top]
            if k:
                for i, r in enumerate(rule, top - d):
                    c[i] += k * r
        return tuple(map(QQ.coerce, c[:d]))

    def __eq__(self, other):
        return self is other or (isinstance(other, ExtensionField) and self.modulus == other.modulus)

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"ExtensionField({str(self.modulus)!r})"


class ExtensionScalar:
    """Residue of degree < d = deg(f): ``coeffs`` is a tuple of exactly d
    little-endian Q scalars, each an ``int`` when integral, as over Q.

    The constructor stores the tuple it is given; build a residue from any
    coefficient list with :meth:`ExtensionField.element`.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _match(self, other) -> "ExtensionScalar | None":
        if isinstance(other, (ExtensionScalar, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return ExtensionScalar(self.field, self.field._reduce([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return ExtensionScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs, i):
                    prod[j] += a * b
        return ExtensionScalar(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "ExtensionScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # solve a * y = 1 by Gauss-Jordan: column j of the matrix is a * x^j,
        # and the last column of each row is the right-hand side 1
        field = self.field
        d = field.degree
        cols, col = [], self.coeffs
        for _ in range(d):
            cols.append(col)
            col = field._reduce([0, *col])
        rows = [[Fraction(c[i]) for c in cols] + [Fraction(i == 0)] for i in range(d)]
        for k in range(d):
            pivot = next((i for i in range(k, d) if rows[i][k]), None)
            if pivot is None:
                raise NotInvertibleError(
                    "residue shares a factor with the (trusted) modulus"
                )
            rows[k], rows[pivot] = rows[pivot], rows[k]
            lead = rows[k][k]
            rows[k] = [v / lead for v in rows[k]]
            for i in range(d):
                if i != k and rows[i][k]:
                    m = rows[i][k]
                    rows[i] = [v - m * w for v, w in zip(rows[i], rows[k])]
        return ExtensionScalar(field, tuple(QQ.coerce(row[d]) for row in rows))

    def __truediv__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        return (
            isinstance(other, ExtensionScalar)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return str(LaurentPoly(dict(enumerate(self.coeffs))))

    def __repr__(self):
        return f"<{self} mod {self.field.modulus}>"

