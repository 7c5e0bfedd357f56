"""Exact scalar arithmetic: Laurent polynomials in hbar with Gaussian-rational
coefficients.

A Coefficient is a finite map {hbar-degree: (re, im)} with exact rational
entries: an integral entry is an int, any other a Fraction, so the common
integer products never pay for Fraction arithmetic.  Zero is the empty map,
so equality and the zero test are structural.
Negative hbar degrees are allowed (hbar is invertible).

Zero and the integers of absolute value at most ``_BOUND`` (256) are shared:
``of``, ``zero``, ``one`` and every arithmetic result with such a value
return one instance per integer, made on its first use, and a sum, product
or negation of shared integers that stays in range builds no object at all.
Any other value is a new instance each time, as is every value of the public
constructor.  One instance stands in many monomials at once, so a
Coefficient must never change after it is made: its ``terms`` map is read,
never written.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _as_rational(x):
    """Exact rational entry: an int for an integral value, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if not isinstance(x, Rational):
            raise TypeError(f"not an exact rational: {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _tidy(x):
    """An int or Fraction result of exact arithmetic as a clean entry: an
    integral Fraction becomes an int."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


_UNIT = {0: (1, 0)}  # the terms of 1

_BOUND = 256  # the shared integers are -_BOUND.._BOUND
_SHARED = [None] * (2 * _BOUND + 1)  # the shared integer k at k + _BOUND


class Coefficient:
    """Element of Q(i)[hbar, hbar^-1]."""

    # _int: the value of a shared integer, None on every other instance
    __slots__ = ("terms", "_int")

    def __init__(self, terms=None):
        # terms: dict {degree: (re, im)} with zero entries dropped
        clean = {}
        if terms:
            for deg, (re, im) in terms.items():
                re = _as_rational(re)
                im = _as_rational(im)
                if re or im:
                    clean[int(deg)] = (re, im)
        self.terms = clean
        self._int = None

    @classmethod
    def _clean(cls, terms) -> "Coefficient":
        """The Coefficient of a {degree: (re, im)} map whose entries are
        clean already (ints or non-integral Fractions, no zero entry): the
        shared instance for zero or a shared integer, else a new one.  The
        arithmetic files its results here and skips the validation of the
        public constructor."""
        if not terms:
            return _SHARED[_BOUND] or _share(0)
        if len(terms) == 1 and 0 in terms:
            re, im = terms[0]
            if not im and type(re) is int and -_BOUND <= re <= _BOUND:
                return _SHARED[re + _BOUND] or _share(re)
        return cls._new(terms)

    @classmethod
    def _new(cls, terms) -> "Coefficient":
        """A new instance on clean terms; with ``__init__``, the only place
        that builds one."""
        c = object.__new__(cls)
        c.terms = terms
        c._int = None
        return c

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value) -> "Coefficient":
        if type(value) is int and -_BOUND <= value <= _BOUND:
            return _SHARED[value + _BOUND] or _share(value)
        if isinstance(value, Coefficient):
            return value
        value = _as_rational(value)
        return Coefficient._clean({0: (value, 0)} if value else {})

    @staticmethod
    def zero() -> "Coefficient":
        return Coefficient.of(0)

    @staticmethod
    def one() -> "Coefficient":
        return Coefficient.of(1)

    @staticmethod
    def imag_unit() -> "Coefficient":
        return Coefficient({0: (0, 1)})

    @staticmethod
    def hbar(degree: int = 1) -> "Coefficient":
        return Coefficient._clean({int(degree): (1, 0)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        return tuple(
            (d, re.numerator, re.denominator, im.numerator, im.denominator)
            for d, (re, im) in sorted(self.terms.items())
        )

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            try:
                other = Coefficient.of(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Coefficient:
            if type(other) is int and not other:
                return self
            if not isinstance(other, Rational):
                return NotImplemented  # left to the other operand's method
            other = Coefficient.of(other)
        a = self._int
        if a is not None:
            b = other._int
            if b is not None:
                v = a + b
                if -_BOUND <= v <= _BOUND:
                    return _SHARED[v + _BOUND] or _share(v)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for d, (re, im) in other.terms.items():
            prev = out.get(d)
            if prev is None:
                out[d] = (re, im)
                continue
            re, im = prev[0] + re, prev[1] + im
            if re or im:
                out[d] = (_tidy(re), _tidy(im))
            else:
                del out[d]
        return Coefficient._clean(out)

    __radd__ = __add__

    def __neg__(self):
        a = self._int
        if a is not None:
            return _SHARED[_BOUND - a] or _share(-a)
        return Coefficient._clean({d: (-re, -im) for d, (re, im) in self.terms.items()})

    def __sub__(self, other):
        return self + (-Coefficient.of(other))

    def __rsub__(self, other):
        return Coefficient.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Coefficient:
            if not isinstance(other, Rational):
                return NotImplemented  # left to the other operand's method
            other = Coefficient.of(other)
        a = self._int
        if a is not None:
            b = other._int
            if b is not None:
                v = a * b
                if -_BOUND <= v <= _BOUND:
                    return _SHARED[v + _BOUND] or _share(v)
        mine, theirs = self.terms, other.terms
        # coefficients are immutable, so a product by 1 is the other factor
        if theirs == _UNIT:
            return self
        if mine == _UNIT:
            return other
        if len(mine) == 1 and len(theirs) == 1:
            # a product of two nonzero Gaussian rationals is nonzero
            (d1, (r1, i1)), = mine.items()
            (d2, (r2, i2)), = theirs.items()
            if i1 or i2:
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            else:
                re, im = r1 * r2, 0
            if type(re) is not int or type(im) is not int:
                re, im = _tidy(re), _tidy(im)
            return Coefficient._clean({d1 + d2: (re, im)})
        out = {}
        for d1, (r1, i1) in mine.items():
            for d2, (r2, i2) in theirs.items():
                d = d1 + d2
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                r0, i0 = out.get(d, (0, 0))
                out[d] = (r0 + re, i0 + im)
        return Coefficient._clean({
            d: (_tidy(re), _tidy(im)) for d, (re, im) in out.items() if re or im
        })

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Coefficient.of(other)
        return self * other.inverse()

    def inverse(self) -> "Coefficient":
        """Inverse of a unit.  Units of the Laurent ring are the single-term
        coefficients c*hbar^k with c a nonzero Gaussian rational."""
        if len(self.terms) != 1:
            raise ZeroDivisionError(f"not invertible in Q(i)[hbar,hbar^-1]: {self!r}")
        (d, (re, im)), = self.terms.items()
        norm = Fraction(re * re + im * im)
        return Coefficient._clean({-d: (_tidy(re / norm), _tidy(-im / norm))})

    # -- queries ------------------------------------------------------

    def hbar_degrees(self):
        return sorted(self.terms.keys())

    def as_complex(self) -> complex:
        """Numeric value; defined only for hbar-free coefficients."""
        if not self.terms:
            return 0j
        if set(self.terms) != {0}:
            raise ValueError(f"coefficient involves hbar: {self!r}")
        re, im = self.terms[0]
        return complex(re) + 1j * complex(im)

    def __repr__(self):
        return f"Coefficient({self.terms!r})"


def _share(k: int) -> Coefficient:
    """Make the shared instance of the integer k, on its first use."""
    c = _SHARED[k + _BOUND] = Coefficient._new({0: (k, 0)} if k else {})
    c._int = k
    return c
