"""Built-in models and the seeded random-functional generator."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, product
from typing import Dict, Tuple

from .coeff import Coefficient
from .algebra import Expr, JetVar, _add_product, _add_term, _sum_scaled
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
        """Antisymmetry in (b, c), then the Jacobi identity
        f^a_{me} f^m_{bc} + f^a_{mb} f^m_{ce} + f^a_{mc} f^m_{eb} = 0 (summed
        over m), each reported at its lexicographically least failing index.
        Only nonzero constants are read: with P(a, x, y, z) the sum over m
        of f^a_{mx} f^m_{yz}, the Jacobi sum at (a, b, c, e) is
        P(a, e, b, c) + P(a, b, c, e) + P(a, c, e, b), so it can be nonzero
        only where (b, c, e) is a cyclic rotation of some (x, y, z) of P."""
        f, c = self.f, self.c
        bad = [t for a, b, e in f for t in ((a, b, e), (a, e, b)) if c(*t) != -c(t[0], t[2], t[1])]
        if bad:
            raise ValueError("structure constants not antisymmetric at (%d,%d,%d)" % min(bad))
        upper = {}
        for (m, y, z), v in f.items():
            upper.setdefault(m, []).append((y, z, v))
        products = {}
        for (a, m, x), v in f.items():
            for y, z, w in upper.get(m, ()):
                products[a, x, y, z] = products.get((a, x, y, z), 0) + v * w
        p = products.get
        bad = [(a, b, cc, e) for a, x, y, z in products
               for b, cc, e in ((x, y, z), (y, z, x), (z, x, y))
               if p((a, e, b, cc), 0) + p((a, b, cc, e), 0) + p((a, cc, e, b), 0)]
        if bad:
            raise ValueError("Jacobi identity fails at (%d,%d,%d,%d)" % min(bad))

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
    def so(n: int) -> "LieAlgebraData":
        """so(n) in the basis L_ij (i < j, in lexicographic order), with
        [L_ij, L_kl] = d_jk L_il - d_ik L_jl - d_jl L_ik + d_il L_jk and
        L_ji = -L_ij."""
        if n < 2:
            raise ValueError("so(n) needs n >= 2")
        basis = [(i, j) for i in range(n) for j in range(i + 1, n)]
        index = {p: a for a, p in enumerate(basis)}
        f = {}
        for a, (i, j) in enumerate(basis):
            for b, (k, l) in enumerate(basis):
                for delta, p, q, sign in ((j == k, i, l, 1), (i == k, j, l, -1),
                                          (j == l, i, k, -1), (i == l, j, k, 1)):
                    if delta and p != q:
                        c, s = (index[p, q], sign) if p < q else (index[q, p], -sign)
                        f[c, a, b] = f.get((c, a, b), 0) + s
        return LieAlgebraData(len(basis), f)

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
) -> Expr:
    """Seeded random parity-homogeneous polynomial density.

    Every monomial contains at least one jet variable (so total derivatives of
    such densities stay inside the class recognised by the triviality test).
    Each monomial is its coefficient times its drawn atoms, one canonical
    product per atom; a monomial with an odd atom twice is zero and dropped.
    """
    n = model.base_dim
    names = [name for name, _ in model.fields]
    acc = {}
    count = rng.randint(1, 3)
    attempts = 0
    made = 0
    while made < count and attempts < 200:
        attempts += 1
        degree = rng.randint(1, max_degree)
        atoms = []
        for _ in range(degree):
            name = rng.choice(names)
            dagger = rng.random() < 0.5
            order = rng.randint(0, max_jet_order)
            idx = [0] * n
            for _ in range(order):
                idx[rng.randrange(n)] += 1
            atoms.append(JetVar._from_parts(name, dagger, tuple(idx), model.gh(name, dagger)))
        mono = _times_atoms(Coefficient.of(rng.choice([1, -1, 2, -2, 3])), atoms)
        if mono is None:
            continue
        coeff, even, odd = mono
        if len(odd) & 1 != parity:
            # append a bare odd variable of a random field to flip parity
            name = rng.choice(names)
            dagger = model.parity(name, False) == 0
            extra = JetVar._from_parts(name, dagger, (0,) * n, model.gh(name, dagger))
            mono = _times_atoms(coeff, [extra], even, odd)
            if mono is None or len(mono[2]) & 1 != parity:
                continue
            coeff, even, odd = mono
        _add_term(acc, (even, odd), coeff)
        made += 1
    if acc:
        return Expr(acc)
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


def _times_atoms(coeff, atoms, even=(), odd=()):
    """The monomial coeff * (even, odd) times ``atoms`` in turn, each by the
    canonical product, as (coeff, even, odd); None when an odd atom
    repeats."""
    for u in atoms:
        acc = {}
        if u.parity:
            _add_product(acc, coeff, even, odd, (), (u,))
        else:
            _add_product(acc, coeff, even, odd, ((u, 1),), ())
        if not acc:
            return None
        ((even, odd), m), = acc.items()
        coeff = m.coeff
    return coeff, even, odd


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
