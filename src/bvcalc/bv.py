"""The variational Schouten bracket and BV-Laplacian.

Geometric mode keeps every variation's pending derivatives frozen on blocks,
each at its own copy of the base (multi-base geometry); naive mode expands
them immediately on collapsed densities.  The bracket takes each operand's
Euler images from ``jetcalc.images``, which isolates frozen ones after the
walk, so each operand's factors live at their own copy of the base, and
keeps them on the operand.  Blocks are anonymous, so an image
of one operand and an image of the other that hold the same block multiply
to a square, or to zero when it is odd.  Both structures extend to products
of integral blocks as closed sums over blocks and block pairs, (1a) and (1b)
summed out (see ``schouten`` and ``laplacian``).  A first argument of
several blocks takes the densities [[B_i, C_j]] as they stand, not through
skew-symmetry, so the ``skew`` suite tests skew-symmetry rather than
restating it.  Every operand, plain or holding a frozen block, is walked
once per model and mode for its whole life; a block bracketed with itself
is walked once, in either mode.  The quantum
layer combines the two into the differential Omega = -i*hbar*Delta + [S, .].

Each verdict has one table (``_Ops``, the mode it binds): every bracket and
Laplacian its builder takes reads each block's and block pair's density from
it, made once.  The table is dropped with the verdict; a public call is a
verdict of its own.

Sign conventions (fixed constants of the construction): the two couplings
pair as <e, dag e> = +1 and <dag e, e> = -1; normalized variations couple to
+1.  The two surgery couplings of the Laplacian multiply to +1; the two
Schouten-surgery terms carry +1 and -1 respectively.  In the bracket the
first argument is differentiated from the right, the second from the left,
the antifield derivative acting on the second argument in the + term; the
Laplacian applies the antifield partial first, then the field partial.

Every identity that ``bvcalc check`` decides is written once, as a row of
``IDENTITIES`` that also holds the inputs the command draws for it;
``check_identity`` is the one way to decide an identity on given arguments.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import List

from .coeff import Coefficient
from .algebra import _MINUS_ONE, _ONE, Expr, ParityError, _add_products, _sum_scaled
from .cohomology import (Functional, _add_blocks, _check_model, _reduce_functional,
                         functional_equal, functional_text, is_trivial)
from .jetcalc import GEOMETRIC, NAIVE, BvModel, _check_mode, collapse, eulers, images


# ---------------------------------------------------------------------------
# core operations on single integral blocks


def schouten_density(model: BvModel, f: Expr, g: Expr, mode: str = GEOMETRIC) -> Expr:
    """Density of [[F, G]] for integral blocks with densities f, g: the sum
    over the conjugate pairs (ev, od) of er[ev] * el[od] - er[od] * el[ev].
    Only left images are taken (``jetcalc.images``, kept on each operand):
    on a parity-homogeneous f, er[v] = (-1)^(p_v (p_f - 1)) el[v], a sign
    folded into the products, so a heterogeneous f raises ParityError (g
    may be of any parity).  A verdict passes its ``_Ops`` as ``mode``.

    In geometric mode each operand's variations stay pending on frozen
    blocks.  A product of an image of f and one of g that share a block
    holds its square, or is zero when that block is odd: each variation acts
    at its own copy of the base, so two equal blocks are interchangeable.

    Canonical products graded-commute, frozen blocks included, so in either
    mode for g is f the two terms of a pair agree for even f and cancel for
    odd f: f is walked once for 2 sum el[ev] * el[od] (Henneaux &
    Teitelboim, Quantization of Gauge Systems, 1992), or not at all."""
    _check_mode(mode)
    fold = g is f
    if mode == NAIVE:
        f, g = collapse(f), collapse(g)
    odd = f.parity()  # raises on heterogeneous f
    if fold and odd:
        return Expr.zero()
    frozen = mode == GEOMETRIC
    ef = images(model, f, frozen)
    eg = ef if fold else images(model, g, frozen)
    lead, sign = (_TWO if fold else _ONE), (_MINUS_ONE if odd else _ONE)
    acc = {}
    for ev, od in model.pairs():
        _add_products(acc, lead, ef[ev], eg[od])
        if not fold:
            _add_products(acc, sign, ef[od], eg[ev])
    return Expr(acc) if acc else Expr.zero()


def laplacian_density(model: BvModel, f: Expr, mode: str = GEOMETRIC) -> Expr:
    """Density of Delta F for an integral block with density f; the antifield
    partial is applied first, then the field partial, in geometric mode each
    with its derivatives pending on frozen blocks."""
    _check_mode(mode)
    frozen = mode == GEOMETRIC
    if not frozen:
        f = collapse(f)
    pairs = list(model.pairs())
    # the first (antifield) step of every pair in one walk over f
    steps = eulers(model, f, [od for _, od in pairs], frozen)
    # each step is a temporary: it is walked by its field alone
    return _sum_scaled((eulers(model, steps[od], [ev], frozen)[ev], _ONE) for ev, od in pairs)


# ---------------------------------------------------------------------------
# extension to products of blocks


def schouten(F: Functional, G: Functional, mode: str = GEOMETRIC) -> Functional:
    """Variational Schouten bracket, extended to products of blocks by the
    closed sum over block pairs, with p the parity of a run of blocks:
    [[B_1...B_k, C_1...C_l]] = sum_(i,j) (-1)^((p(B) - 1) p(C_<j) + (p(C_j) - 1) p(B_>i))
                               C_<j B_<i [[B_i, C_j]] B_>i C_>j.
    Each distinct block pair takes its density once per verdict (a call
    on its own is one), and each product is filed by ``_add_blocks``, which
    absorbs the Koszul sign of sorting its blocks.  Constants are
    bracket-inert."""
    return _Ops(mode).schouten(F, G)


def laplacian(F: Functional, mode: str = GEOMETRIC) -> Functional:
    """BV-Laplacian, extended to products of blocks as the second-order
    operator whose failure to be a derivation is the bracket, with p the
    parity of a run of blocks:
    Delta(B_1...B_k) = sum_j (-1)^p(B_<j) B_<j Delta(B_j) B_>j
        + sum_(i<j) (-1)^(p(B_<=i) + (p(B_i) - 1) p(B_i<.<j)) B_<i B_i<.<j [[B_i, B_j]] B_>j.
    Each distinct block and each distinct block pair takes its density once
    per verdict (a call on its own is one)."""
    return _Ops(mode).laplacian(F)


def omega(O: Functional, S: Functional, mode: str = GEOMETRIC) -> Functional:
    """Omega(O) = -i*hbar*Delta(O) + [[S, O]]."""
    return _Ops(mode).omega(O, S)


class _Ops(str):
    """The mode of one verdict, carrying its table: the bracket, Laplacian
    and Omega taken through it (``op.schouten(F, G)``) take each block's
    Laplacian density and each ordered block pair's bracket density
    (``densities``) once, keyed by model.  It is the mode string itself, so
    the density functions take it where they take a mode; it is dropped
    with the verdict, so no density outlives one (the operands' Euler
    images live on the operands, ``jetcalc.images``)."""

    def __new__(cls, mode: str):
        _check_mode(mode)
        op = super().__new__(cls, mode)
        op.densities = {}
        return op

    def schouten(self, F: Functional, G: Functional) -> Functional:
        _check_model(F, G)
        pF, _ = F.parity(), G.parity()  # raises on heterogeneous input
        acc = {}
        for bf, cf in F.terms.items():
            before_b = _parities_before(bf)
            for bg, cg in G.terms.items():
                c0 = cf * cg
                before_c = _parities_before(bg)
                for j, C in enumerate(bg):
                    for i, B in enumerate(bf):
                        d = self._density(F.model, B, C)
                        sign = ((pF - 1) * before_c[j]
                                + (C.parity() - 1) * (pF ^ before_b[i + 1])) & 1
                        _add_blocks(acc, bg[:j] + bf[:i] + (d,) + bf[i + 1:] + bg[j + 1:],
                                    -c0 if sign else c0)
        return Functional(F.model, acc)

    def laplacian(self, F: Functional) -> Functional:
        F.parity()
        acc = {}
        for blocks, c0 in F.terms.items():
            before = _parities_before(blocks)
            for j, B in enumerate(blocks):
                d = self._density(F.model, B)
                _add_blocks(acc, blocks[:j] + (d,) + blocks[j + 1:], -c0 if before[j] else c0)
                for i, A in enumerate(blocks[:j]):
                    d = self._density(F.model, A, B)
                    sign = (before[i + 1] + (A.parity() - 1) * (before[j] ^ before[i + 1])) & 1
                    _add_blocks(acc, blocks[:i] + blocks[i + 1:j] + (d,) + blocks[j + 1:],
                                -c0 if sign else c0)
        return Functional(F.model, acc)

    def omega(self, O: Functional, S: Functional) -> Functional:
        _check_model(O, S)
        return self.laplacian(O).scale(_MINUS_I_HBAR) + self.schouten(S, O)

    def _density(self, model: BvModel, *blocks) -> Expr:
        """The Laplacian density of one block or the bracket density of an
        ordered pair, computed once per verdict.  (B, C) is never read as
        (C, B) by skew-symmetry, so the ``skew`` suite tests it."""
        key = (model,) + blocks
        d = self.densities.get(key)
        if d is None:
            density = laplacian_density if len(blocks) == 1 else schouten_density
            d = self.densities[key] = density(model, *blocks, self)
        return d


def _parities_before(blocks) -> list:
    """The parities of blocks[:i] for i = 0..len(blocks)."""
    out = [0]
    for b in blocks:
        out.append(out[-1] ^ b.parity())
    return out


# ---------------------------------------------------------------------------
# quantum layer

_MINUS_I_HBAR = -(Coefficient.imag_unit() * Coefficient.hbar())
_HALF = Coefficient.of(1) / Coefficient.of(2)
_TWO = Coefficient.of(2)


def _qme(delta: Functional, bracket: Functional) -> Functional:
    """-i*hbar*Delta(S) + 1/2 [[S,S]], from Delta(S) and [[S,S]]."""
    return delta.scale(_MINUS_I_HBAR) + bracket.scale(_HALF)


# ---------------------------------------------------------------------------
# the identities: each builder returns the (lhs, rhs) pairs it equates


def _sign(exponent: int) -> int:
    return -1 if exponent & 1 else 1


def _leibniz_1a(F, G, H, op):
    """(1a) [[F, G*H]] = [[F,G]]*H + (-1)^((gh F - 1) gh G) G*[[F,H]]."""
    sign = _sign((F.parity() - 1) * G.parity())
    return [(op.schouten(F, G * H),
             op.schouten(F, G) * H + (G * op.schouten(F, H)).scale(sign))]


def _laplacian_1b(F, G, op):
    """(1b) Delta(F*G) = Delta(F)*G + (-1)^gh(F) [[F,G]] + (-1)^gh(F) F*Delta(G)."""
    sign = _sign(F.parity())
    return [(op.laplacian(F * G), op.laplacian(F) * G
             + (op.schouten(F, G) + F * op.laplacian(G)).scale(sign))]


def _derivation_1c(F, G, op):
    """(1c) Delta[[F,G]] = [[Delta F, G]] + (-1)^(gh F - 1) [[F, Delta G]]."""
    sign = _sign(F.parity() - 1)
    return [(op.laplacian(op.schouten(F, G)), op.schouten(op.laplacian(F), G)
             + op.schouten(F, op.laplacian(G)).scale(sign))]


def _delta_squared_1d(F, op):
    """(1d) Delta^2 = 0."""
    return [(op.laplacian(op.laplacian(F)), Functional.zero(F.model))]


def _jacobi(F, G, H, op):
    """(1d) Jacobi: the cyclic sum of (-1)^((gh F-1)(gh H-1)) [[F,[[G,H]]]] is 0."""
    pF, pG, pH = F.parity(), G.parity(), H.parity()
    cyclic = (op.schouten(F, op.schouten(G, H)).scale(_sign((pF - 1) * (pH - 1)))
              + op.schouten(G, op.schouten(H, F)).scale(_sign((pF - 1) * (pG - 1)))
              + op.schouten(H, op.schouten(F, G)).scale(_sign((pG - 1) * (pH - 1))))
    return [(cyclic, Functional.zero(F.model))]


def _skew(F, G, op):
    """[[F, G]] = -(-1)^((gh F - 1)(gh G - 1)) [[G, F]]."""
    sign = _sign((F.parity() - 1) * (G.parity() - 1))
    return [(op.schouten(F, G), op.schouten(G, F).scale(-sign))]


def _powers(F, G, op):
    """For even F: [[G, F^n]] = n [[G,F]] F^(n-1) for n = 1..4 and
    Delta(F^n) = n Delta(F) F^(n-1) + n(n-1)/2 [[F,F]] F^(n-2) for n = 2..4."""
    powers = [F ** 0]
    for _ in range(4):
        powers.append(powers[-1] * F)
    GF, dF, FF = op.schouten(G, F), op.laplacian(F), op.schouten(F, F)
    pairs = [(op.schouten(G, powers[n]), (GF * powers[n - 1]).scale(n)) for n in (1, 2, 3, 4)]
    pairs += [(op.laplacian(powers[n]), (dF * powers[n - 1]).scale(n)
               + (FF * powers[n - 2]).scale(_HALF * (n * (n - 1)))) for n in (2, 3, 4)]
    return pairs


def _omega_squared(O, S, op):
    """(Omega)^2(O) = [[Q, O]] for Q = -i*hbar*Delta S + 1/2 [[S,S]]; and, when
    every block of the collapsed Q_c is trivial, [[Q_c, O]] ~ 0 (the
    collapse fixes the generating section of the field that [[Q, .]] induces)."""
    omega2 = op.omega(op.omega(O, S), S)
    Q = _qme(op.laplacian(S), op.schouten(S, S))
    pairs = [(omega2, op.schouten(Q, O))]
    Qc = Q.collapse()
    if all(is_trivial(S.model, b) for b in Qc.blocks()):
        pairs.append((op.schouten(Qc, O), Functional.zero(S.model)))
    return pairs


def _gauge_closure(F1, F2, S, op):
    """-i*hbar*([[Delta F1, F2]] + [[F1, Delta F2]]) + [[[[S,F1]],F2]]
    - [[[[S,F2]],F1]] = Omega([[F1, F2]]): gauge symmetries close."""
    lhs = ((op.schouten(op.laplacian(F1), F2)
            + op.schouten(F1, op.laplacian(F2))).scale(_MINUS_I_HBAR)
           + op.schouten(op.schouten(S, F1), F2)
           - op.schouten(op.schouten(S, F2), F1))
    return [(lhs, op.omega(op.schouten(F1, F2), S))]


def _cocycles(S, O, F, xi, op):
    """Omega([[X,F]]) + [[Omega(F), X]] = [[Omega(X), F]] for an even cocycle
    X = O and an odd coboundary X = xi; a None argument is left out."""
    omega_F = op.omega(F, S)
    return [(op.omega(op.schouten(X, F), S) + op.schouten(omega_F, X),
             op.schouten(op.omega(X, S), F)) for X in (O, xi) if X is not None]


COIN = "coin"  # a parity drawn by random.Random(cs).randint(0, 1)

# One row per check suite:
# - parities: the parity each argument must have (None: either);
# - build: the builder of its (lhs, rhs) pairs, from the arguments and the
#   verdict's ``_Ops``, through which it takes every bracket and Laplacian;
# - compare: the comparison that decides the verdict;
# - records: the comparisons a passing verdict also records;
# - draws: the arguments ``bvcalc check`` draws for its case cs, in order: a
#   random functional (parity, seed offset k) is drawn at seed cs + k, with
#   the number of blocks drawn from a tuple by random.Random(cs).choice when
#   one follows.
# The parities say what a caller may pass and the draws what the command
# passes: omega accepts an O of either parity and draws an even one.
Identity = namedtuple("Identity", "name parities build compare records draws",
                      defaults=((), ()))

IDENTITIES = {e.name: e for e in (
    Identity("leibniz-1a", (None, None, None), _leibniz_1a, "structural",
             draws=((COIN, 1), (COIN, 2), (COIN, 3))),
    Identity("laplacian-1b", (None, None), _laplacian_1b, "structural",
             draws=((COIN, 1), (COIN, 2))),
    Identity("derivation-1c", (None, None), _derivation_1c, "collapse",
             ("structural", "collapse"), draws=((COIN, 1), (COIN, 2))),
    Identity("delta-squared-1d", (None,), _delta_squared_1d, "collapse", ("structural",),
             draws=((COIN, 1, (1, 2)),)),
    Identity("jacobi", (None, None, None), _jacobi, "collapse",
             draws=((COIN, 1), (COIN, 2), (COIN, 3))),
    Identity("skew", (None, None), _skew, "structural", draws=((COIN, 1), (COIN, 2))),
    Identity("powers", (0, None), _powers, "structural", draws=((0, 1), (COIN, 2))),
    Identity("omega", (None, 0), _omega_squared, "collapse", draws=((0, 1), (0, 2))),
    Identity("gauge-closure", (1, 1, 0), _gauge_closure, "collapse",
             draws=((1, 1), (1, 2), (0, 3))),
    Identity("cocycles", (0, 0, 1, 1), _cocycles, "collapse",
             draws=((0, 4), (0, 1), (1, 2), (1, 3))),
)}


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    name: str
    passed: bool
    lines: List[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def check_identity(name: str, args, mode: str = GEOMETRIC) -> Report:
    """Decide ``IDENTITIES[name]`` on ``args``, in the row's argument order
    (None for an argument the builder may leave out).  Every pair is
    compared in order: ``data["agreed"]`` lists the outcomes, and
    ``data["discrepancy"]`` is the collapsed lhs - rhs of the first that
    fails, its single-block terms summed into one integral.  The builder
    takes every bracket and Laplacian through one ``_Ops``, the table of
    this verdict, made here and dropped when it returns."""
    entry = IDENTITIES[name]
    if len(args) != len(entry.parities):
        raise TypeError(f"{name}: takes {len(entry.parities)} arguments, {len(args)} given")
    for i, (X, parity) in enumerate(zip(args, entry.parities), 1):
        if parity is not None and X is not None and not X.is_zero() and X.parity() != parity:
            raise ParityError(f"{name}: argument {i} must be {('even', 'odd')[parity]}")
    pairs = entry.build(*args, _Ops(mode))
    agreed = [functional_equal(lhs, rhs, entry.compare) for lhs, rhs in pairs]
    passed = all(agreed)
    data = {"agreed": agreed}
    if not passed:
        lhs, rhs = pairs[agreed.index(False)]
        D = (lhs - rhs).collapse()
        # reported with its single-block terms as one integral
        singles = [(blocks[0], c) for blocks, c in D.terms.items() if len(blocks) == 1]
        products = Functional(D.model, {k: c for k, c in D.terms.items() if len(k) != 1})
        data["discrepancy"] = products + Functional.from_density(D.model, _sum_scaled(singles))
    for how in entry.records:
        data[how] = passed and (how == entry.compare or all(
            functional_equal(lhs, rhs, how) for lhs, rhs in pairs))
    return Report(name, passed, [], data)


def check_master_equation(S: Functional, mode: str = GEOMETRIC) -> Report:
    """Evaluate both sides of the quantum master-equation
    i*hbar*Delta(S) = 1/2 [[S, S]] and reduce the obstruction once, to its
    class polynomial: the QME holds iff that polynomial is empty.  For S in
    Q(i)[hbar] the hbar^0 order of the obstruction is -1/2 [[S_0, S_0]],
    with S_0 = S at hbar = 0, so the classical master equation holds iff no
    coefficient of the polynomial has an hbar^0 term (Henneaux & Teitelboim,
    1992).  ``data`` holds the obstruction, the exact Delta(S) ("delta"),
    the collapsed [[S, S]] ("bracket") and that CME verdict ("cme").  The
    geometric bracket of operands without frozen blocks collapses to the
    naive one, so such an S takes the naive bracket, which builds no
    frozen block."""
    # collapse is linear, so the obstruction is formed from the collapsed
    # pieces that the summary lines print
    delta = laplacian(S, mode)
    delta_c = delta.collapse()
    frozen = any(b.has_attach() for b in S.blocks())
    bracket_c = schouten(S, S, mode if frozen else NAIVE).collapse()
    obstruction = -_qme(delta_c, bracket_c)
    classes = _reduce_functional(obstruction, "collapse")
    passed = not classes
    lines = [
        f"Delta(S) collapsed: {_summarize(delta_c)}",
        f"[[S,S]] collapsed:  {_summarize(bracket_c)}",
        f"QME obstruction i*hbar*Delta(S) - 1/2*[[S,S]] ~ "
        f"{'0' if passed else _summarize(obstruction)}",
    ]
    return Report("quantum master-equation", passed, lines,
                  {"obstruction": obstruction, "delta": delta, "bracket": bracket_c,
                   "cme": not any(0 in c.terms for c in classes.values())})


def _summarize(F: Functional, limit: int = 400) -> str:
    """``repr(F)``, or its first ``limit`` characters and the numbers of
    terms and monomials when it is longer; formats only what it prints."""
    text, size = [], 0
    for piece in functional_text(F):
        text.append(piece)
        size += len(piece)
        if size > limit:
            monomials = sum(len(b.terms) for blocks in F.terms for b in blocks)
            return f"{''.join(text)[:limit]} ... [{len(F.terms)} terms, {monomials} monomials]"
    return "".join(text)

