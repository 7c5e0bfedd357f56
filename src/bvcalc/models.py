"""Built-in models and the seeded random-functional generator."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, product
from typing import Dict, Tuple

from .coeff import Coefficient
from .algebra import Expr, Trig, _sum_scaled
from .cohomology import Functional
from .jetcalc import BvModel, idx_unit


# ---------------------------------------------------------------------------
# Lie algebra data


class LieAlgebraData:
    """Structure constants f^a_{bc} of a finite-dimensional Lie algebra,
    validated for antisymmetry in (b, c) and the Jacobi identity."""

    def __init__(self, dimension: int, constants: Dict[Tuple[int, int, int], Fraction]):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        f = {}
        for (a, b, c), v in constants.items():
            v = Fraction(v)
            if not v:
                continue
            for idx in (a, b, c):
                if not 0 <= idx < dimension:
                    raise ValueError(f"index {idx} out of range")
            f[(a, b, c)] = v
        self.f = f
        self._validate()

    def c(self, a: int, b: int, c: int) -> Fraction:
        return self.f.get((a, b, c), Fraction(0))

    def _validate(self):
        d = self.dimension
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    if self.c(a, b, c) != -self.c(a, c, b):
                        raise ValueError(
                            f"structure constants not antisymmetric at ({a},{b},{c})"
                        )
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        s = sum(
                            self.c(a, m, e) * self.c(m, b, c)
                            + self.c(a, m, b) * self.c(m, c, e)
                            + self.c(a, m, c) * self.c(m, e, b)
                            for m in range(d)
                        )
                        if s:
                            raise ValueError(
                                f"Jacobi identity fails at ({a},{b},{c},{e})"
                            )

    @staticmethod
    def su2() -> "LieAlgebraData":
        eps = {}
        for (a, b, c), s in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
        ):
            eps[(a, b, c)] = Fraction(s)
        return LieAlgebraData(3, eps)

    @staticmethod
    def abelian(dimension: int) -> "LieAlgebraData":
        return LieAlgebraData(dimension, {})


# ---------------------------------------------------------------------------
# Yang-Mills


def _ym_names(dim: int, n: int):
    a_names = [[f"A{a + 1}{i + 1}" for i in range(n)] for a in range(dim)]
    g_names = [f"gam{a + 1}" for a in range(dim)]
    return a_names, g_names


def build_yang_mills_bv(g: LieAlgebraData, n: int) -> Tuple[BvModel, Functional]:
    """The BV-extended Yang-Mills model on a flat n-dimensional base with
    Euclidean index contraction:

      S = 1/4 int F^a_ij F^a_ij + int dag(A)^ai (D_i gam^a + f^a_bc A^b_i gam^c)
          - 1/2 int f^c_ab gam^a gam^b dag(gam)_c

    The Euclidean contraction is an invariant metric only when f^c_ab is
    totally antisymmetric (which implies unimodularity, f^a_ab = 0); other
    structure constants raise ValueError at the first failing (a, b, c).
    """
    if n < 2:
        raise ValueError("Yang-Mills needs base dimension >= 2")
    d = g.dimension
    # f^c_ab is antisymmetric in (a, b) already; antisymmetry in (c, a)
    # completes the full permutation group
    for a, b, c in product(range(d), repeat=3):
        if g.c(c, a, b) != -g.c(a, c, b):
            raise ValueError(
                f"structure constants f^c_ab are not totally antisymmetric at "
                f"(a, b, c) = ({a}, {b}, {c}): f^{c}_{a}{b} = {g.c(c, a, b)}, "
                f"f^{a}_{c}{b} = {g.c(a, c, b)}; the Euclidean contraction of "
                f"Yang-Mills needs an invariant metric"
            )
    a_names, g_names = _ym_names(d, n)
    fields = [(a_names[a][i], 0) for a in range(d) for i in range(n)]
    fields += [(g_names[a], 1) for a in range(d)]
    model = BvModel(n, fields)

    def A(a, i, idx=()):
        return model.jet(a_names[a][i], idx)

    def dA(a, i):
        return model.jet(a_names[a][i], dagger=True)

    def gam(a, idx=()):
        return model.jet(g_names[a], idx)

    def dgam(a):
        return model.jet(g_names[a], dagger=True)

    def strength(a, i, j) -> Expr:
        return _sum_scaled(chain(
            [(A(a, j, idx_unit(n, i)), 1), (A(a, i, idx_unit(n, j)), -1)],
            ((A(b, i) * A(c, j), Fraction(g.c(a, b, c)))
             for b in range(d) for c in range(d) if g.c(a, b, c))))

    def gauge(a, i) -> Expr:
        return _sum_scaled(chain(
            [(gam(a, idx_unit(n, i)), 1)],
            ((A(b, i) * gam(c), Fraction(g.c(a, b, c)))
             for b in range(d) for c in range(d) if g.c(a, b, c))))

    quarter = Coefficient.of(Fraction(1, 4))
    minus_half = Coefficient.of(Fraction(-1, 2))
    strengths = (strength(a, i, j) for a in range(d) for i in range(n) for j in range(n))
    density = _sum_scaled(chain(
        ((Fij * Fij, quarter) for Fij in strengths if not Fij.is_zero()),
        ((dA(a, i) * gauge(a, i), 1) for a in range(d) for i in range(n)),
        ((gam(a) * gam(b) * dgam(c), minus_half * Coefficient.of(Fraction(g.c(c, a, b))))
         for c in range(d) for a in range(d) for b in range(d) if g.c(c, a, b))))
    return model, Functional.from_density(model, density)


# ---------------------------------------------------------------------------
# the scalar example


def build_scalar_example() -> Tuple[BvModel, Functional, Functional]:
    """One even field pair on a one-dimensional base:
    F = int dag(q) q q_xx dx,  G = int dag(q)_xx cos(q) dx."""
    model = BvModel(1, [("q", 0)])
    f = model.jet("q", dagger=True) * model.jet("q") * model.jet("q", (2,))
    g = model.jet("q", (2,), dagger=True) * model.cos("q")
    return model, Functional.from_density(model, f), Functional.from_density(model, g)


# ---------------------------------------------------------------------------
# random functionals


def random_density(
    model: BvModel,
    max_jet_order: int,
    max_degree: int,
    parity: int,
    rng: random.Random,
    with_trig: bool = False,
) -> Expr:
    """Seeded random parity-homogeneous polynomial density.

    Every monomial contains at least one jet variable (so total derivatives of
    such densities stay inside the class recognised by the triviality test).
    """
    n = model.base_dim
    names = [name for name, _ in model.fields]
    monos = []
    count = rng.randint(1, 3)
    attempts = 0
    made = 0
    while made < count and attempts < 200:
        attempts += 1
        degree = rng.randint(1, max_degree)
        factors = []
        for _ in range(degree):
            name = rng.choice(names)
            dagger = rng.random() < 0.5
            order = rng.randint(0, max_jet_order)
            idx = [0] * n
            for _ in range(order):
                idx[rng.randrange(n)] += 1
            factors.append(model.jet(name, tuple(idx), dagger))
        if with_trig and rng.random() < 0.4:
            even_choices = [nm for nm in names if model.parity(nm) == 0]
            if even_choices:
                nm = rng.choice(even_choices)
                tag = rng.choice(("sin", "cos"))
                factors.append(Expr.from_atom(Trig(tag, model.jet_atom(nm))))
        mono = Expr.scalar(rng.choice([1, -1, 2, -2, 3]))
        for f in factors:
            mono = mono * f
        if mono.is_zero():
            continue
        try:
            p = mono.parity()
        except Exception:
            continue
        if p != parity:
            # append a bare odd variable of a random field to flip parity
            name = rng.choice(names)
            dagger = model.parity(name, False) == 0
            extra = model.jet(name, (0,) * n, dagger)
            mono = mono * extra
            if mono.is_zero() or mono.parity() != parity:
                continue
        monos.append((mono, 1))
        made += 1
    out = _sum_scaled(monos)
    if out.is_zero():
        # guarantee a nonzero density of the requested parity
        name = names[0]
        if parity == 0:
            out = model.jet(name) * model.jet(name)
            if model.parity(name) == 1:
                out = model.jet(name) * model.jet(name, dagger=True)
        else:
            dagger = model.parity(name, False) == 0
            out = model.jet(name, dagger=dagger)
            if out.parity() != parity:
                out = model.jet(name)
    return out


def random_functional(
    model: BvModel,
    max_jet_order: int,
    max_degree: int,
    parity: int,
    seed: int,
    n_blocks: int = 1,
) -> Functional:
    """Deterministic seeded random functional: a product of ``n_blocks``
    integral blocks with parity-homogeneous polynomial densities whose total
    parity equals ``parity``."""
    if max_jet_order < 0 or max_degree < 1:
        raise ValueError("bounds must be positive")
    rng = random.Random(seed)
    out = Functional.constant(model, 1)
    parities = [rng.randint(0, 1) for _ in range(n_blocks)]
    if (sum(parities) & 1) != (parity & 1):
        parities[-1] ^= 1
    for p in parities:
        d = random_density(model, max_jet_order, max_degree, p, rng)
        out = out * Functional.from_density(model, d)
    if out.is_zero():  # odd block squared collapsed the product; retry shifted
        return random_functional(model, max_jet_order, max_degree, parity,
                                 seed + 7919, n_blocks)
    return out
