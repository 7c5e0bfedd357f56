from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bvcalc.coeff import Coefficient
from bvcalc.grammar import format_coefficient


def coeffs():
    entry = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    return st.lists(entry, max_size=3).map(
        lambda entries: Coefficient({d: (re, im) for d, re, im in entries})
    )


@given(coeffs(), coeffs(), coeffs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Coefficient.zero() == a
    assert a * Coefficient.one() == a
    assert a - a == Coefficient.zero()


def test_zero_unique_representation():
    z = Coefficient({0: (Fraction(0), Fraction(0)), 3: (Fraction(0), Fraction(0))})
    assert z.is_zero()
    assert z == Coefficient.zero()
    assert not z.terms


def test_hbar_invertible():
    h = Coefficient.hbar()
    assert h * h.inverse() == Coefficient.one()
    assert Coefficient.hbar(-2) * Coefficient.hbar(2) == Coefficient.one()
    assert Coefficient.hbar(-1).hbar_degrees() == [-1]


def test_imag_unit_squares_to_minus_one():
    i = Coefficient.imag_unit()
    assert i * i == -Coefficient.one()
    assert (i * Coefficient.hbar()).inverse() * (i * Coefficient.hbar()) == Coefficient.one()


def test_non_unit_not_invertible():
    with pytest.raises(ZeroDivisionError):
        (Coefficient.of(2) + Coefficient.hbar()).inverse()


def test_as_complex_guards_hbar():
    c = Coefficient.of(Fraction(3, 2)) + Coefficient.imag_unit()
    assert c.as_complex() == 1.5 + 1j
    with pytest.raises(ValueError):
        Coefficient.hbar().as_complex()


def test_integral_entries_are_int():
    two = Coefficient.of(Fraction(6, 3))
    assert two == Coefficient.of(2)
    assert two.key() == Coefficient.of(2).key()
    assert hash(two) == hash(Coefficient.of(2))
    re, im = two.terms[0]
    assert type(re) is int and type(im) is int
    half = Coefficient.of(Fraction(1, 2))
    re, _ = (half * 2).terms[0]
    assert type(re) is int


def test_inverse_of_integer_is_fraction():
    re, im = Coefficient.of(2).inverse().terms[0]
    assert re == Fraction(1, 2) and isinstance(re, Fraction)
    assert im == 0


@pytest.mark.parametrize("value, text", [
    (Coefficient.of(2), "2"),
    (Coefficient.of(-3), "-3"),
    (Coefficient.of(Fraction(6, 3)), "2"),
    (Coefficient.of(Fraction(-1, 2)), "-1/2"),
    (Coefficient.imag_unit() * 2 + 3, "(3 + 2*i)"),
    (Coefficient.imag_unit() * Fraction(-1, 2) + Fraction(1, 3), "(1/3 - 1/2*i)"),
    ((Coefficient.imag_unit() + 1) * Coefficient.hbar()
     - Coefficient.hbar(-2) * Fraction(3, 4), "-3/4*hbar^-2 + (1 + i)*hbar"),
    (-Coefficient.imag_unit(), "-i"),
    (Coefficient.of(2) * Coefficient.imag_unit() * Coefficient.hbar(), "2*i*hbar"),
])
def test_format_coefficient(value, text):
    assert format_coefficient(value) == text


def test_float_rejected():
    with pytest.raises(TypeError):
        Coefficient.of(1.5)
    with pytest.raises(TypeError):
        Coefficient({0: (1.0, 0)})


# -- the arithmetic's own results --------------------------------------------------

def _entries_are_clean(c):
    for re, im in c.terms.values():
        assert re or im
        for x in (re, im):
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_integral_product_is_stored_as_int():
    half = Coefficient.of(Fraction(1, 2))
    for product in (half * 2, 2 * half, half * Coefficient.of(2),
                    half * Coefficient({0: (2, 0)}),
                    Coefficient.of(Fraction(2, 3)) * Coefficient.of(Fraction(3, 2)),
                    # (1/2 + i/2)(1 - i): both parts of a Gaussian product
                    Coefficient({0: (Fraction(1, 2), Fraction(1, 2))}) * Coefficient({0: (1, -1)})):
        assert product.terms == {0: (1, 0)}
        assert type(product.terms[0][0]) is int


def _reference_product(a, b):
    """The product by the double loop over hbar degrees."""
    out = {}
    for d1, (r1, i1) in a.terms.items():
        for d2, (r2, i2) in b.terms.items():
            r0, i0 = out.get(d1 + d2, (0, 0))
            out[d1 + d2] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return Coefficient(out)


def test_a_product_by_one_is_the_other_factor():
    one = Coefficient.one()
    values = [
        one, Coefficient.zero(), Coefficient.of(3), Coefficient.of(-1),
        Coefficient.of(Fraction(1, 2)), Coefficient.imag_unit(), Coefficient.hbar(2),
        Coefficient.hbar(-1), Coefficient({1: (Fraction(1, 3), Fraction(-2, 3))}),
        Coefficient.hbar() + Coefficient.imag_unit(), Coefficient.of(1) + Coefficient.hbar(),
    ]
    for c in values:
        assert c * one is c and one * c is c
        assert c * 1 is c and 1 * c is c
        for d in values:
            product = c * d
            _entries_are_clean(product)
            assert product == _reference_product(c, d), (c, d)


def test_imag_unit_squared_is_minus_one():
    i = Coefficient.imag_unit()
    assert i * i == -1
    assert (i * i).terms == {0: (-1, 0)}


@given(coeffs(), coeffs())
def test_results_are_clean_and_key_like_the_public_constructor(a, b):
    for value in (a * b, a + b, -a, a - b, a * 3, a + 0):
        _entries_are_clean(value)
        public = Coefficient(dict(value.terms))
        assert value == public
        assert value.key() == public.key()
        assert hash(value) == hash(public)


def test_cancelling_results_are_zero():
    h = Coefficient.hbar()
    third = Coefficient({1: (Fraction(1, 3), Fraction(-2, 3))})
    assert (third - third).is_zero() and not (third - third).terms
    assert (third + (-third)).is_zero()
    assert (h * third + h * (-third)).is_zero()
    # (1 + i)(1 - i) - 2: the product's imaginary parts cancel, then the sum
    one_plus_i = Coefficient.of(1) + Coefficient.imag_unit()
    one_minus_i = Coefficient.of(1) - Coefficient.imag_unit()
    product = one_plus_i * one_minus_i
    assert product.terms == {0: (2, 0)}
    assert (product - 2).is_zero()
    # two hbar degrees whose cross terms cancel in the double loop
    x = Coefficient.hbar(1) + Coefficient.hbar(-1)
    y = Coefficient.hbar(1) - Coefficient.hbar(-1)
    assert (x * y).terms == {2: (1, 0), -2: (-1, 0)}


def test_adding_zero_returns_the_coefficient():
    c = Coefficient({0: (Fraction(1, 2), 1), 2: (3, 0)})
    assert c + 0 is c
    assert 0 + c is c
    assert c + Coefficient.zero() is c


def test_public_constructor_still_validates():
    with pytest.raises(TypeError):
        Coefficient({0: ("1", 0)})
    c = Coefficient({0: (Fraction(4, 2), Fraction(0)), 1: (0, 0)})
    assert c.terms == {0: (2, 0)} and type(c.terms[0][0]) is int
