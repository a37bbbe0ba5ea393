"""Exact scalar arithmetic: rationals and finite extensions of Q.

Two kinds of scalars circulate in the package:

* plain rationals: an ``int`` when the value is integral, else a stdlib
  ``fractions.Fraction`` (reduced, positive denominator), and
* :class:`ExtensionScalar` residues in K' = Q[x, x^-1] / (f(x)) for a
  Laurent polynomial f with nonzero constant term.

Because the constant term of f is a unit, x is invertible mod f, so a
Laurent modulus can be normalized to an ordinary polynomial by clearing
negative exponents before quotienting.  Irreducibility of f is verified up
to degree 3 by the rational root test; higher degrees are trusted with a
warning (an actually-reducible modulus degrades K' to a ring, but every
identity computed here remains well defined).

Mixed arithmetic embeds rationals into the extension; combining residues
of two *different* extensions raises :class:`~leavitt.errors.FieldMismatchError`.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from math import gcd
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


def rational_literal(text: str, at: int) -> Fraction:
    """Read a written rational "p" or "p/q"; a zero q is a ParseError at ``at``."""
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

    def __init__(self, coeffs: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        c: dict[int, Fraction] = {}
        for exp, val in items:
            val = Fraction(val)
            if val:
                c[int(exp)] = c.get(int(exp), Fraction(0)) + val
                if not c[int(exp)]:
                    del c[int(exp)]
        self._c = c

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


def _power(value, n: int):
    if isinstance(value, (int, Fraction)):
        return value ** n
    result = value.field.one
    for _ in range(n):
        result = result * value
    return result


# dense polynomial helpers over Q, little-endian coefficient lists

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p

def _pdeg(p: list[Fraction]) -> int:
    return len(p) - 1

def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, v in enumerate(p):
        out[i] += v
    for i, v in enumerate(q):
        out[i] += v
    return _trim(out)

def _pscale(p, k: Fraction):
    return _trim([v * k for v in p])

def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)

def _pdivmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while num and len(num) >= len(den):
        k = num[-1] / lead
        shift = len(num) - len(den)
        q[shift] = k
        for i, b in enumerate(den):
            num[shift + i] -= k * b
        _trim(num)
    return _trim(q), num


def _rational_root_exists(coeffs: list[Fraction]) -> bool:
    """True iff the polynomial has a root in Q (degree >= 1, nonzero coeffs)."""
    denlcm = 1
    for c in coeffs:
        denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in coeffs]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return True
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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


class ExtensionField:
    """K' = Q[x, x^-1] / (f(x)) presented by a normalized modulus.

    A Laurent modulus is shifted by a power of x to clear negative
    exponents first; the result must have nonzero constant term and
    degree >= 1.  ``irreducible_verified`` records whether the rational
    root test actually ran (degree <= 3) or the modulus was trusted.
    """

    def __init__(self, modulus: LaurentPoly):
        if not isinstance(modulus, LaurentPoly):
            modulus = LaurentPoly.parse(str(modulus))
        if modulus.min_exp < 0:
            modulus = modulus.shift(-modulus.min_exp)
        if not modulus.constant_term:
            raise ZeroConstantTermError(f"modulus {modulus} has zero constant term")
        if modulus.max_exp < 1:
            raise DegreeZeroError(f"modulus {modulus} is constant")
        self.modulus = modulus
        self.degree = modulus.max_exp
        self._dense = [modulus[i] for i in range(self.degree + 1)]
        if self.degree <= 3:
            # degree 1 is always irreducible; 2 and 3 exactly when rootless
            if self.degree >= 2 and _rational_root_exists(self._dense):
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
        return ExtensionScalar(self, ())

    @property
    def one(self) -> "ExtensionScalar":
        return ExtensionScalar(self, (Fraction(1),))

    def coerce(self, value) -> "ExtensionScalar":
        if isinstance(value, ExtensionScalar):
            if value.field != self:
                raise FieldMismatchError(
                    f"residue mod {value.field.modulus} used in extension mod {self.modulus}"
                )
            return value
        return ExtensionScalar(self, (Fraction(value),))

    def element(self, coeffs: Iterable[Fraction | int]) -> "ExtensionScalar":
        """Residue from little-endian coefficients (reduced mod the modulus)."""
        return ExtensionScalar(self, self._reduce([Fraction(c) for c in coeffs]))

    def generator(self) -> "ExtensionScalar":
        """The image of x."""
        return self.element([0, 1])

    def _reduce(self, dense: list[Fraction]) -> tuple[Fraction, ...]:
        _, rem = _pdivmod(_trim(list(dense)), self._dense)
        out = rem + [Fraction(0)] * (self.degree - len(rem))
        return tuple(out[: self.degree])

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"ExtensionField({str(self.modulus)!r})"


class ExtensionScalar:
    """Residue of degree < deg(f), with exact rational coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: Iterable[Fraction]):
        self.field = field
        c = list(coeffs)
        c += [Fraction(0)] * (field.degree - len(c))
        self.coeffs = tuple(c[: field.degree])

    def _match(self, other) -> "ExtensionScalar | None":
        if isinstance(other, ExtensionScalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix residues mod {self.field.modulus} and mod {other.field.modulus}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return ExtensionScalar(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ExtensionScalar(self.field, [-a for a in self.coeffs])

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
        prod = _pmul(_trim(list(self.coeffs)), _trim(list(o.coeffs)))
        return ExtensionScalar(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "ExtensionScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[x] against the modulus
        r0, r1 = list(self.field._dense), _trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while _pdeg(r1) > 0:
            q, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _padd(s0, _pscale(_pmul(q, s1), Fraction(-1)))
            if not r1:
                raise NotInvertibleError(
                    "residue shares a factor with the (trusted) modulus"
                )
        return ExtensionScalar(self.field, self.field._reduce(_pscale(s1, 1 / r1[0])))

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


def inv(a):
    if isinstance(a, ExtensionScalar):
        return a.inverse()
    a = Fraction(a)
    if not a:
        raise ZeroDivisionError("inverse of zero")
    return QQ.coerce(1 / a)
