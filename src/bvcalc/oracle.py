"""Independent numeric cross-check: evaluate functionals at explicit sections.

Even field components are trigonometric polynomials on the periodic box
[0, 2pi)^n; odd components carry coefficients in a Grassmann algebra on as
many generators as the section names.  Jet variables are substituted by
exact symbolic derivatives of the section, monomials evaluated in Grassmann
arithmetic, and the result integrated by the trapezoidal rule on a grid the
oracle picks itself.  A polynomial density of degree d, shifted along a
density of degree b, restricts to a trigonometric polynomial of top
frequency at most d*max(b, 1)*K at a section of top frequency K; the rule
is exact once the grid exceeds that frequency, and the oracle takes twice
it, 2*d*max(b, 1)*K points per coordinate.  A density with sin, cos or exp
of a field is no trigonometric polynomial, but it is analytic and periodic,
where the rule converges exponentially (Trefethen & Weideman, SIAM Review
56, 2014): its grid doubles until two successive values agree.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .algebra import Attach, BaseVar, Expr, JetVar, Trig
from .cohomology import Functional
from .jetcalc import BvModel, collapse, total_derivative_multi

# the first grid of a transcendental density: cos and exp of a section of
# amplitude up to 10 agree with their doubled grid there, so such a density
# costs two quadratures
TRANSCENDENTAL_POINTS = 32
# 32 points doubled four times is 512 per coordinate: cos(a*sin(x)), whose
# error falls fast once the grid passes a points, settles up to a = 200 and
# exp(a*sin(x)) further; a density that moves beyond that is refused, not
# integrated on ever larger grids
MAX_DOUBLINGS = 4


class GrassmannNumber:
    """Element of the exterior algebra on finitely many generators over floats.

    Coefficients are keyed by subsets of generators encoded as bitmasks."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, float]] = None):
        self.coeffs = {}
        if coeffs:
            for mask, val in coeffs.items():
                if val != 0.0:
                    self.coeffs[int(mask)] = float(val)

    @staticmethod
    def scalar(value: float) -> "GrassmannNumber":
        return GrassmannNumber({0: float(value)})

    @staticmethod
    def generator(k: int) -> "GrassmannNumber":
        if k < 0:
            raise ValueError(f"generator index {k} out of range")
        return GrassmannNumber({1 << k: 1.0})

    def __add__(self, other):
        other = _as_grassmann(other)
        out = dict(self.coeffs)
        for m, v in other.coeffs.items():
            out[m] = out.get(m, 0.0) + v
        return GrassmannNumber(out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannNumber({m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_as_grassmann(other))

    def __rsub__(self, other):
        return _as_grassmann(other) + (-self)

    def __mul__(self, other):
        other = _as_grassmann(other)
        out: Dict[int, float] = {}
        for m1, v1 in self.coeffs.items():
            for m2, v2 in other.coeffs.items():
                if m1 & m2:
                    continue
                sign = _merge_sign(m1, m2)
                m = m1 | m2
                out[m] = out.get(m, 0.0) + sign * v1 * v2
        return GrassmannNumber(out)

    __rmul__ = __mul__

    def scale(self, s: float) -> "GrassmannNumber":
        return GrassmannNumber({m: s * v for m, v in self.coeffs.items()})

    def body(self) -> float:
        return self.coeffs.get(0, 0.0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            v = self.coeffs[m]
            gens = "*".join(f"g{k + 1}" for k in range(m.bit_length()) if m >> k & 1)
            parts.append(f"{v:+.6g}" + (f"*{gens}" if gens else ""))
        return " ".join(parts)


def _as_grassmann(x) -> GrassmannNumber:
    if isinstance(x, GrassmannNumber):
        return x
    return GrassmannNumber.scalar(float(x))


def _merge_sign(m1: int, m2: int) -> int:
    """Koszul sign of merging two disjoint sorted generator sets."""
    sign = 1
    while m2:
        # the generators of m1 above the lowest one of m2
        higher = m1 >> (m2 & -m2).bit_length()
        if bin(higher).count("1") & 1:
            sign = -sign
        m2 &= m2 - 1
    return sign


# ---------------------------------------------------------------------------
# trig-polynomial sections

# one term: (coefficient, factors) with factors a tuple of per-coordinate
# (kind, frequency) where kind is 'sin' | 'cos' | 'one'.  The alias serves
# annotations only: built at import, it would sit in typing's process-wide
# cache and keep GrassmannNumber, and through it every module of this
# import, alive after bvcalc is imported afresh.
if TYPE_CHECKING:
    TrigTerm = Tuple[GrassmannNumber, Tuple[Tuple[str, int], ...]]


class SectionSpec:
    """Per-variable trigonometric sections on [0, 2pi)^n.

    components maps (field, dagger) to a list of TrigTerm; odd variables
    should carry Grassmann coefficients of odd grade.  Missing variables
    evaluate to zero."""

    def __init__(self, model: BvModel, components):
        self.model = model
        self.components: Dict[Tuple[str, bool], List[TrigTerm]] = {}
        for key, terms in components.items():
            norm = []
            for coeff, factors in terms:
                factors = tuple(factors)
                if len(factors) != model.base_dim:
                    raise ValueError(
                        f"section term for {key} has {len(factors)} coordinate "
                        f"factors, base dimension is {model.base_dim}"
                    )
                norm.append((_as_grassmann(coeff), factors))
            self.components[key] = norm

    def max_frequency(self) -> int:
        best = 0
        for terms in self.components.values():
            for _, factors in terms:
                for kind, freq in factors:
                    if kind != "one":
                        best = max(best, abs(freq))
        return best

    def derivative(self, key, index: Sequence[int]) -> List[TrigTerm]:
        terms = self.components.get(key, [])
        for i, k in enumerate(index):
            for _ in range(k):
                terms = [t for t in (_diff_term(term, i) for term in terms) if t]
        return terms

    def value(self, terms: List[TrigTerm], x: Sequence[float]) -> GrassmannNumber:
        out = GrassmannNumber()
        for coeff, factors in terms:
            val = 1.0
            for (kind, freq), xi in zip(factors, x):
                if kind == "sin":
                    val *= math.sin(freq * xi)
                elif kind == "cos":
                    val *= math.cos(freq * xi)
            if val != 0.0:
                out = out + coeff.scale(val)
        return out


def _diff_term(term: TrigTerm, i: int) -> Optional[TrigTerm]:
    coeff, factors = term
    kind, freq = factors[i]
    if kind == "one" or freq == 0:
        return None
    if kind == "sin":
        new = ("cos", freq)
        scale = float(freq)
    else:
        new = ("sin", freq)
        scale = -float(freq)
    out = list(factors)
    out[i] = new
    return (coeff.scale(scale), tuple(out))


# ---------------------------------------------------------------------------
# evaluation


class FrequencyError(ValueError):
    pass


def _density_degree(e: Expr) -> int:
    """Maximal number of jet-variable factors in a monomial (counting
    exponents); used for the frequency bound of the restriction."""
    best = 0
    for m in e.monomials():
        deg = 0
        for a, k in m.even:
            deg += k * _atom_degree(a)
        for a in m.odd:
            deg += _atom_degree(a)
        best = max(best, deg)
    return best


def _atom_degree(a) -> int:
    if isinstance(a, JetVar):
        return 1
    if isinstance(a, Trig):
        return 1
    if isinstance(a, BaseVar):
        raise FrequencyError(
            "densities with explicit base coordinates are outside the "
            "periodic oracle's class"
        )
    if isinstance(a, Attach):
        raise AssertionError("collapse before evaluation")
    raise TypeError(f"unknown atom {a!r}")


def _has_trig(e: Expr) -> bool:
    return any(isinstance(a, Trig) for a in e.atoms())


def evaluate_density(
    model: BvModel,
    density: Expr,
    section: SectionSpec,
    shift=None,
) -> GrassmannNumber:
    """Integral of a wrapper-free density over [0, 2pi)^n at the section.

    ``shift`` optionally perturbs one even field: a triple (field, eps,
    shift_density) replaces every jet of the field by its section value plus
    eps times the matching total derivative of the shift density restricted
    to the section.  The grid is the one the module docstring states; an
    integral past the float range, or one that does not settle, raises
    FrequencyError."""
    degree = max(_density_degree(density), 1)
    if shift is not None:
        degree *= max(_density_degree(shift[2]), 1)
    points = 2 * degree * max(section.max_frequency(), 1)
    if not (_has_trig(density) or shift is not None and _has_trig(shift[2])):
        return _finite(_quadrature(model, density, section, points, shift))
    points = max(points, TRANSCENDENTAL_POINTS)
    a = _finite(_quadrature(model, density, section, points, shift))
    for _ in range(MAX_DOUBLINGS):
        points *= 2
        b = _finite(_quadrature(model, density, section, points, shift))
        if (a - b).max_abs() <= 1e-9 * (1.0 + a.max_abs()):
            return b
        a = b
    raise FrequencyError(
        f"the quadrature of the density does not settle within {points} "
        f"points per coordinate"
    )


def _finite(value: GrassmannNumber) -> GrassmannNumber:
    if not all(math.isfinite(v) for v in value.coeffs.values()):
        raise FrequencyError("the density's integral at the section is not finite")
    return value


def _quadrature(model, density, section, points, shift) -> GrassmannNumber:
    derived = {}   # jet key -> the section's derivative, as trig terms
    shifted = {}   # multi-index -> total derivative of the shift density
    sfield, eps, sdens = shift or (None, None, None)
    grid = [2.0 * math.pi * k / points for k in range(points)]
    total = GrassmannNumber()
    for point in itertools.product(grid, repeat=model.base_dim):
        x = point[::-1]
        cache = {}
        base_cache = {}

        def base_jet_value(field, dagger, index):
            key = (field, dagger, index)
            if key not in base_cache:
                if key not in derived:
                    derived[key] = section.derivative((field, dagger), index)
                base_cache[key] = section.value(derived[key], x)
            return base_cache[key]

        def jet_value(field, dagger, index):
            key = (field, dagger, index)
            if key not in cache:
                val = base_jet_value(field, dagger, index)
                if field == sfield and not dagger:
                    if index not in shifted:
                        shifted[index] = total_derivative_multi(sdens, index)
                    val = val + eps * _eval_density_at(
                        model, shifted[index], base_jet_value, x
                    )
                cache[key] = val
            return cache[key]

        total = total + _eval_density_at(model, density, jet_value, x)
    vol = (2.0 * math.pi / points) ** model.base_dim
    return total.scale(vol)


def _eval_density_at(model, density: Expr, jet_value, x) -> GrassmannNumber:
    out = GrassmannNumber()
    for m in density.monomials():
        c = m.coeff.as_complex()
        if c.imag != 0.0:
            raise ValueError("cannot numerically evaluate a complex density")
        val = GrassmannNumber.scalar(c.real)
        for a, k in m.factors():
            fa = _eval_atom(a, jet_value, x)
            for _ in range(k):
                val = val * fa
            if not val.coeffs:
                break
        out = out + val
    return out


def _eval_atom(a, jet_value, x) -> GrassmannNumber:
    if isinstance(a, JetVar):
        return jet_value(a.field, a.dagger, a.index)
    if isinstance(a, Trig):
        u = jet_value(a.arg.field, a.arg.dagger, a.arg.index)
        if any(m for m in u.coeffs if m):
            raise ValueError("transcendental function of a Grassmann-valued section")
        try:
            return GrassmannNumber.scalar(getattr(math, a.tag)(u.body()))
        except OverflowError:
            raise FrequencyError(f"{a.tag} overflows at the section") from None
    if isinstance(a, BaseVar):
        raise FrequencyError("explicit base coordinates are outside the oracle class")
    raise TypeError(f"unknown atom {a!r}")


def evaluate(
    F: Functional,
    section: SectionSpec,
    shift=None,
) -> GrassmannNumber:
    """Value of a functional at a section: densities are collapsed, each
    integral block evaluated by quadrature, block products multiplied in
    Grassmann arithmetic, and terms summed with their exact coefficients."""
    model = F.model
    total = GrassmannNumber()
    for blocks, coeff in F.terms.items():
        c = coeff.as_complex()
        if c.imag != 0.0:
            raise ValueError("cannot numerically evaluate a complex coefficient")
        val = GrassmannNumber.scalar(c.real)
        for b in blocks:
            val = val * evaluate_density(model, collapse(b), section, shift=shift)
            if not val.coeffs:
                break
        total = total + val
    return total
