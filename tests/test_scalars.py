import random
import time
import warnings
from fractions import Fraction

import pytest

from leavitt import scalars
from leavitt.errors import (
    DegreeZeroError,
    FieldMismatchError,
    NotInvertibleError,
    ParseError,
    ReduciblePolynomialError,
    ZeroConstantTermError,
)
from leavitt.scalars import QQ, ExtensionField, LaurentPoly

MODULI = ["1 + x", "1 + x + x^2", "3*x^2 - 2", "x^3 - 2"]


def test_rationals_are_ints_when_integral():
    assert (QQ.one, QQ.zero) == (1, 0) and type(QQ.one) is type(QQ.zero) is int
    for value in (3, Fraction(6, 2), "4/2", True):
        assert type(QQ.coerce(value)) is int and QQ.coerce(value) == Fraction(value)
    assert QQ.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert type(QQ.coerce(Fraction(-5, 3))) is Fraction
    assert type(QQ.coerce(1 / Fraction(1, 2))) is int and QQ.coerce(1 / Fraction(1, 2)) == 2


def test_rational_parse_and_print():
    # rational coefficients parse and print through Laurent polynomials
    assert LaurentPoly.parse("3/4") == LaurentPoly({0: Fraction(3, 4)})
    assert LaurentPoly.parse("-7") == LaurentPoly({0: Fraction(-7)})
    assert str(LaurentPoly({0: Fraction(5, 6)})) == "5/6"
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / 0
    assert 1 / Fraction(-2, 3) == Fraction(-3, 2)


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
    # x is a root of the modulus: Horner's rule over 1, 1, 1 from the top
    value = field.zero
    for coeff in reversed([1, 1, 1]):
        value = value * x + coeff
    assert value == field.zero


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
        field.zero.inverse()


def _random_scalar(rng, field):
    if field is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree)])


@pytest.mark.parametrize("modulus", [None] + MODULI, ids=lambda m: m or "Q")
def test_field_axioms_random_triples(modulus):
    field = ExtensionField(LaurentPoly.parse(modulus)) if modulus else None
    one = field.one if field else Fraction(1)
    rng = random.Random(42 if modulus else 43)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == a - a
        if a != a - a:
            assert a * (a.inverse() if field else 1 / a) == one
            assert (b / a) * a == b


@pytest.mark.parametrize("modulus", MODULI)
def test_element_matches_long_division(modulus):
    field = ExtensionField(LaurentPoly.parse(modulus))
    dense = [field.modulus[i] for i in range(field.degree + 1)]
    rng = random.Random(modulus)
    for _ in range(200):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 2 * field.degree))]
        assert field.element(c).coeffs == tuple(_poly_remainder(c, dense))


# MODULI plus Laurent moduli and moduli of degree >= 4 (trusted, so warned)
PRODUCT_MODULI = MODULI + [
    "x^-1 + 1 + x",
    "2*x^-2 + x^-1 + 3*x",
    "x^-2 + 1/3 + x^2",
    "1 + 2*x^2 + x^4",
    "x^5 - 3*x + 1/2",
]


@pytest.mark.parametrize("modulus", PRODUCT_MODULI)
def test_product_matches_long_division(modulus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        field = ExtensionField(LaurentPoly.parse(modulus))
        twin = ExtensionField(LaurentPoly.parse(modulus))
    dense = [field.modulus[i] for i in range(field.degree + 1)]
    rng = random.Random(f"product/{modulus}")
    for _ in range(200):
        a, b = (
            [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(field.degree)]
            for _ in range(2)
        )
        schoolbook = [0] * (2 * field.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                schoolbook[i + j] += x * y
        product = field.element(a) * field.element(b)
        assert product.coeffs == tuple(_poly_remainder(schoolbook, dense))
        assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in product.coeffs)
        # a residue of an equal, distinct field object mixes with this one
        assert field.element(a) * twin.element(b) == product
        assert (field.element(a) + twin.element(b)).coeffs == field.element(
            [x + y for x, y in zip(a, b)]
        ).coeffs
        # (1 + x^2)^2 has zero divisors, which the test below covers
        if any(a) and modulus != "1 + 2*x^2 + x^4":
            assert field.element(a) * field.element(a).inverse() == field.one


def test_integral_residues_have_int_coefficients():
    field = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    x = field.generator()
    assert (x * x).coeffs == (-1, -1) and all(type(c) is int for c in (x * x).coeffs)
    rng = random.Random(5)
    for _ in range(200):
        a, b = (field.element([rng.randint(-9, 9) for _ in range(4)]) for _ in range(2))
        for value in (a, b, a + b, a * b, a - b, -a, 3 * a, a + 1):
            assert all(type(c) is int for c in value.coeffs), value.coeffs
    # integral results of non-integral operands are ints too
    half = field.element([Fraction(1, 2), Fraction(3, 2)])
    for value in (half + half, 2 * half, 4 * half * half, x.inverse(), half / half):
        assert all(type(c) is int for c in value.coeffs), value.coeffs


def test_zero_divisor_of_trusted_modulus_is_not_invertible():
    # 1 + 2x^2 + x^4 = (1 + x^2)^2 is reducible but above degree 3, so trusted
    with pytest.warns(UserWarning, match="not verified"):
        field = ExtensionField(LaurentPoly.parse("1 + 2*x^2 + x^4"))
    x = field.generator()
    with pytest.raises(NotInvertibleError):
        (1 + x * x).inverse()
    assert x * x.inverse() == field.one
    assert x.inverse() == field.element([0, -2, 0, -1])


def test_rational_root_test_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(11)
    seen = set()
    for degree in (2, 3):
        for _ in range(300):
            coeffs = [rng.choice([k for k in range(-60, 61) if k])]
            coeffs += [rng.randint(-60, 60) for _ in range(degree - 1)]
            coeffs.append(rng.choice([k for k in range(-60, 61) if k]))
            _, factors = sympy.factor_list(sum(c * t**i for i, c in enumerate(coeffs)))
            linear = any(sympy.degree(f, t) == 1 for f, _ in factors)
            seen.add((degree, linear))
            modulus = LaurentPoly(dict(enumerate(coeffs)))
            if linear:
                with pytest.raises(ReduciblePolynomialError):
                    ExtensionField(modulus)
            else:
                assert ExtensionField(modulus).degree == degree
    assert seen == {(2, True), (2, False), (3, True), (3, False)}


def test_quadratic_modulus_with_huge_coefficients_skips_divisors():
    assert ExtensionField(LaurentPoly.parse(f"1 + x + {10**40}*x^2")).degree == 2
    with pytest.raises(ReduciblePolynomialError):
        ExtensionField(LaurentPoly.parse(f"x^2 - {10**40}"))


def test_join_embeds_q_and_keeps_extensions_apart():
    k1 = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    k1_again = ExtensionField(LaurentPoly.parse("1 + x + x^2"))
    k2 = ExtensionField(LaurentPoly.parse("2 + x + x^2"))
    assert scalars.join(QQ, QQ) is QQ
    assert scalars.join(QQ, k1) is k1 and scalars.join(k1, QQ) is k1
    assert scalars.join(k1, k1) is k1 and scalars.join(k1, k1_again) == k1
    for f, g in ((k1, k2), (k2, k1)):
        with pytest.raises(FieldMismatchError):
            scalars.join(f, g)


def test_huge_cubic_moduli_are_decided_quickly():
    start = time.perf_counter()
    assert ExtensionField(LaurentPoly.parse(f"1 + x + {10**40}*x^3")).irreducible_verified
    assert time.perf_counter() - start < 1
    # (x - 10^20/7)(x^2 + 1): the rational root is 10^20/7
    start = time.perf_counter()
    with pytest.raises(ReduciblePolynomialError):
        ExtensionField(LaurentPoly.parse(f"{10**20} - 7*x + {10**20}*x^2 - 7*x^3"))
    assert time.perf_counter() - start < 1


def test_dense_high_degree_field_builds_quickly():
    # sum of (i + 1) x^i for i <= 200: building the field is one pass over the rule
    modulus = LaurentPoly({i: i + 1 for i in range(201)})
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="not verified"):
        field = ExtensionField(modulus)
    assert time.perf_counter() - start < 1
    assert field.degree == 200
