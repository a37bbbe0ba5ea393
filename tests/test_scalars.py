import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leavitt.errors import (
    DegreeZeroError,
    FieldMismatchError,
    ParseError,
    ReduciblePolynomialError,
    ZeroConstantTermError,
)
from leavitt.scalars import QQ, ExtensionField, LaurentPoly, inv


def test_rationals_are_ints_when_integral():
    assert (QQ.one, QQ.zero) == (1, 0) and type(QQ.one) is type(QQ.zero) is int
    for value in (3, Fraction(6, 2), "4/2", True):
        assert type(QQ.coerce(value)) is int and QQ.coerce(value) == Fraction(value)
    assert QQ.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert type(QQ.coerce(Fraction(-5, 3))) is Fraction
    assert type(inv(Fraction(1, 2))) is int and inv(Fraction(1, 2)) == 2
    assert LaurentPoly.parse("1 + x").eval_at(2) == 3


def test_rational_parse_and_print():
    # rational coefficients parse and print through Laurent polynomials
    assert LaurentPoly.parse("3/4") == LaurentPoly({0: Fraction(3, 4)})
    assert LaurentPoly.parse("-7") == LaurentPoly({0: Fraction(-7)})
    assert str(LaurentPoly({0: Fraction(5, 6)})) == "5/6"
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / 0
    assert inv(Fraction(-2, 3)) == Fraction(-3, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 + x + x^2", {0: 1, 1: 1, 2: 1}),
        ("x^-1", {-1: 1}),
        ("2*x^3 - 1/2", {3: 2, 0: Fraction(-1, 2)}),
        ("2x^3", {3: 2}),
        ("-x + 4", {1: -1, 0: 4}),
    ],
)
def test_laurent_parse(text, expected):
    assert LaurentPoly.parse(text) == LaurentPoly(expected)


def test_laurent_parse_errors():
    for bad in ["", "x +", "x^", "* x", "1 ++ 2", "y"]:
        with pytest.raises(ParseError):
            LaurentPoly.parse(bad)


def test_laurent_zero_denominator_is_a_parse_error():
    for text, at in [("1/0 + x", 0), ("x - 3/0*x^2", 4), ("2x + 0/0", 5)]:
        with pytest.raises(ParseError, match=f"zero denominator in .* at position {at}$"):
            LaurentPoly.parse(text)
    assert LaurentPoly.parse("0/2 + 4/2*x") == LaurentPoly({1: 2})


def test_laurent_print_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        poly = LaurentPoly(
            {rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)}
        )
        if poly:
            assert LaurentPoly.parse(str(poly)) == poly


@given(
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=5),
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=5),
)
def test_laurent_mul_commutes(c1, c2):
    p, q = LaurentPoly(c1), LaurentPoly(c2)
    assert p * q == q * p
    assert p * (q + q) == p * q + p * q


def _poly_remainder(num, den):
    # independent long-division oracle over Q, little-endian lists
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while num and num[-1] == 0:
        num.pop()
    while len(num) >= len(den):
        k = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= k * c
        while num and num[-1] == 0:
            num.pop()
    return num + [Fraction(0)] * (len(den) - 1 - len(num))


def test_extension_basic_identities():
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    x = field.generator()
    assert field.degree == 2
    # oracle: x * (-1 - x) = -x - x^2, whose remainder mod 1 + x + x^2 is 1
    assert _poly_remainder([0, -1, -1], [1, 1, 1]) == [Fraction(1), Fraction(0)]
    assert x * field.element([-1, -1]) == field.one
    assert x.inverse() == field.element([-1, -1])
    assert x * x.inverse() == field.one
    assert field.modulus.eval_at(x) == field.zero


def test_extension_degree_one():
    field = ExtensionField(LaurentPoly.parse("1 + x"))
    assert field.generator() == field.coerce(-1)


def test_extension_rejections():
    with pytest.raises(ZeroConstantTermError):
        ExtensionField(LaurentPoly.parse("x^2"))
    with pytest.raises(DegreeZeroError):
        ExtensionField(LaurentPoly.parse("5"))
    with pytest.raises(DegreeZeroError):
        ExtensionField(LaurentPoly.parse("x^-1"))
    # (1 + x)^2 has the rational root -1
    with pytest.raises(ReduciblePolynomialError):
        ExtensionField(LaurentPoly.parse("1 + 2*x + x^2"))
    with pytest.raises(ReduciblePolynomialError):
        ExtensionField(LaurentPoly.parse("2 - x - x^2 + 1/2*x^3"))


def test_extension_laurent_modulus_normalized():
    # x^-1 + 1 + x clears to 1 + x + x^2
    field = ExtensionField(LaurentPoly.parse("x^-1 + 1 + x"))
    assert field.modulus == LaurentPoly.parse("1 + x + x^2")


def test_extension_high_degree_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        field = ExtensionField(LaurentPoly.parse("1 + x + x^4"))
    assert any("not verified" in str(w.message) for w in caught)
    assert not field.irreducible_verified


def test_mixed_field_operands():
    f1 = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    f2 = ExtensionField(LaurentPoly.parse("2 + x + x^2"))
    with pytest.raises(FieldMismatchError):
        f1.generator() + f2.generator()
    with pytest.raises(FieldMismatchError):
        f1.generator() * f2.generator()
    # residues of different fields are unequal, not an error
    assert f1.generator() != f2.generator()
    # rationals embed
    assert Fraction(1) + f1.generator() == f1.element([1, 1])
    assert Fraction(2) * f1.generator() == f1.element([0, 2])
    assert Fraction(1) - f1.generator() == f1.element([1, -1])


def test_inverse_of_zero_extension():
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    with pytest.raises(ZeroDivisionError):
        inv(field.zero)


def _random_scalar(rng, field):
    if field is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree)])


@pytest.mark.parametrize("use_extension", [False, True])
def test_field_axioms_random_triples(use_extension):
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2")) if use_extension else None
    one = field.one if field else Fraction(1)
    rng = random.Random(42 if use_extension else 43)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == a - a
        if a != a - a:
            assert a * inv(a) == one
            assert (b / a) * a == b
