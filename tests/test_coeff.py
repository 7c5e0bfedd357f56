from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bvcalc.coeff import _BOUND, _SHARED, Coefficient
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


def test_a_coefficient_leaves_an_expression_operand_to_it():
    # a sum or product with an Expr or a Functional is that operand's own:
    # both orders agree, and a Functional, which takes no scalar summand,
    # refuses both
    from bvcalc.cohomology import Functional
    from bvcalc.jetcalc import BvModel
    m = BvModel(1, [("q", 0)])
    e = m.jet("q") * m.jet("q", (1,), dagger=True)
    F = Functional.from_density(m, e)
    for c in (Coefficient.hbar(), Coefficient.imag_unit(), Coefficient.of(Fraction(1, 2))):
        assert c * e == e * c == e.scale(c) and c + e == e + c
        assert c * F == F * c == F.scale(c)
        for add in (lambda: c + F, lambda: F + c):
            with pytest.raises(TypeError, match="unsupported operand"):
                add()
    with pytest.raises(TypeError):
        Coefficient.one() * 1.5


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


# -- the shared integers -----------------------------------------------------------

def _reference_sum(a, b):
    """The sum by adding the entries of each hbar degree."""
    out = {}
    for c in (a, b):
        for d, (re, im) in c.terms.items():
            r0, i0 = out.get(d, (0, 0))
            out[d] = (r0 + re, i0 + im)
    return Coefficient(out)


def _shared_value(c):
    """The integer that c equals if it is zero or a shared integer, else None."""
    if not c.terms:
        return 0
    if len(c.terms) == 1 and 0 in c.terms:
        re, im = c.terms[0]
        if not im and type(re) is int and -_BOUND <= re <= _BOUND:
            return re
    return None


def integers():
    """Integers inside the shared range, at its boundary, where sums and
    products of two of them cross it, and far outside it."""
    return st.one_of(
        st.integers(-_BOUND, _BOUND),
        st.integers(_BOUND - 3, _BOUND + 3).flatmap(lambda k: st.sampled_from((k, -k))),
        st.integers(-24, 24),
        st.integers(-10**30, 10**30),
    )


def operands():
    return st.one_of(
        integers().map(Coefficient.of),
        integers(),  # a plain int operand
        # an integer of the public constructor equals the shared one, but is
        # not it
        integers().map(lambda k: Coefficient({0: (k, 0)})),
        # an integer with an imaginary part or at a nonzero hbar degree
        st.tuples(st.integers(-2, 2), integers(), st.integers(-3, 3)).map(
            lambda t: Coefficient({t[0]: (t[1], t[2])})),
        st.fractions(min_value=-40, max_value=40, max_denominator=6).map(Coefficient.of),
        coeffs(),
    )


@given(operands(), operands())
def test_the_integer_branch_agrees_with_the_references(a, b):
    ca, cb = Coefficient.of(a), Coefficient.of(b)
    # an unshared small integer operand may be returned as it is (c + 0 is c)
    unshared = any(_shared_value(c) is not None and c is not Coefficient.of(_shared_value(c))
                   for c in (ca, cb))
    if type(a) is int:
        a = ca  # two plain ints would not meet the Coefficient arithmetic
    for value, reference in ((a + b, _reference_sum(ca, cb)), (b + a, _reference_sum(ca, cb)),
                             (a * b, _reference_product(ca, cb)),
                             (b * a, _reference_product(ca, cb)),
                             (-ca, _reference_product(ca, Coefficient({0: (-1, 0)})))):
        _entries_are_clean(value)
        assert value == reference and value.key() == reference.key()
        k = _shared_value(reference)
        if k is not None and not unshared:
            assert value is Coefficient.of(k)
        elif k is None:
            assert value._int is None


def test_each_shared_integer_is_one_instance():
    for k in range(-_BOUND, _BOUND + 1):
        c = Coefficient.of(k)
        assert c is Coefficient.of(k)
        assert c is Coefficient.of(Fraction(2 * k, 2))
        assert c.terms == ({0: (k, 0)} if k else {}) and c._int == k
    assert Coefficient.zero() is Coefficient.of(0)
    assert Coefficient.one() is Coefficient.of(1) and Coefficient.hbar(0) is Coefficient.one()
    for k in (_BOUND + 1, -_BOUND - 1, 10**20):
        assert Coefficient.of(k) == Coefficient.of(k) and Coefficient.of(k) is not Coefficient.of(k)
        assert Coefficient.of(k)._int is None
    # the public constructor always builds a new instance
    assert Coefficient({0: (2, 0)}) is not Coefficient.of(2)


def test_sums_and_products_of_shared_integers_are_shared():
    two, three = Coefficient.of(2), Coefficient.of(3)
    assert two + three is Coefficient.of(5) and two * three is Coefficient.of(6)
    assert -two is Coefficient.of(-2) and two - three is Coefficient.of(-1)
    assert Coefficient.of(16) * Coefficient.of(16) is Coefficient.of(_BOUND)
    assert Coefficient.of(_BOUND) + 1 == _BOUND + 1
    assert Coefficient.of(_BOUND) * 2 == 2 * _BOUND
    # an integer left by the general arithmetic is shared too
    half = Coefficient.of(Fraction(1, 2))
    assert half * 4 is two and half + half is Coefficient.one()
    assert Coefficient.of(Fraction(-1, 4)).inverse() is Coefficient.of(-4)
    assert Coefficient.imag_unit() * Coefficient.imag_unit() is Coefficient.of(-1)


def test_a_cancelled_sum_is_the_shared_zero():
    zero = Coefficient.zero()
    three = Coefficient.of(3)
    assert three + (-three) is zero and three - 3 is zero
    big = Coefficient.of(10**20)
    assert big - big is zero and big + (-big) is zero
    third = Coefficient({1: (Fraction(1, 3), Fraction(-2, 3))})
    assert third - third is zero
    h = Coefficient.hbar()
    assert h * third + h * (-third) is zero
    assert zero * third is zero and third * 0 is zero


def test_results_at_the_edges_of_the_shared_range():
    edges = [k for edge in (_BOUND, -_BOUND) for k in range(edge - 3, edge + 4)]
    for k in edges:
        a = Coefficient.of(k)
        assert (-a).terms == {0: (-k, 0)}
        for d in range(-3, 4):
            b = Coefficient.of(d)
            for value, exact in ((a + b, k + d), (b + a, k + d), (a - b, k - d),
                                 (a * b, k * d), (b * a, k * d)):
                assert value.terms == ({0: (exact, 0)} if exact else {}), (k, d)
                assert (value is Coefficient.of(exact)) == (abs(exact) <= _BOUND), (k, d)
    for k in edges:
        assert Coefficient.of(k).terms == {0: (k, 0)}


def test_shared_integers_are_unchanged_by_arithmetic():
    values = [Coefficient.of(k) for k in range(-_BOUND, _BOUND + 1, 7)]
    values += [Coefficient.of(Fraction(1, 3)), Coefficient.imag_unit(), Coefficient.hbar(-1),
               Coefficient.of(10**12), Coefficient({0: (5, 0)})]
    for a in values:
        for b in values:
            for value in (a + b, a * b, a - b, -a):
                _entries_are_clean(value)
    for k in range(-_BOUND, _BOUND + 1):
        c = _SHARED[k + _BOUND]
        if c is not None:
            assert c.terms == ({0: (k, 0)} if k else {}) and c._int == k
