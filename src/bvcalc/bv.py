"""The variational Schouten bracket and BV-Laplacian.

Geometric mode keeps every variation's pending derivatives frozen against a
fresh channel (multi-base geometry); naive mode expands them immediately on
collapsed densities.  Both structures extend to products of integral blocks
by their graded Leibniz rules, and the quantum layer combines them into the
differential Omega = -i*hbar*Delta + [S, .].

Sign conventions (fixed constants of the construction): the two couplings
pair as <e, dag e> = +1 and <dag e, e> = -1; normalized variations couple to
+1.  The two surgery couplings of the Laplacian multiply to +1; the two
Schouten-surgery terms carry +1 and -1 respectively.  In the bracket the
first argument is differentiated from the right, the second from the left,
the antifield derivative acting on the second argument in the + term; the
Laplacian applies the antifield partial first, then the field partial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .coeff import Coefficient
from .algebra import Expr, ParityError, _add_monomial
from .cohomology import Functional, euler_operators_vanish, functional_equal
from .jetcalc import BvModel, collapse, euler, eulers, fresh_label

GEOMETRIC = "geometric"
NAIVE = "naive"
_MODES = (GEOMETRIC, NAIVE)


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# core operations on single integral blocks


def schouten_density(model: BvModel, f: Expr, g: Expr, mode: str = GEOMETRIC) -> Expr:
    """Density of [[F, G]] for integral blocks with densities f, g."""
    _check_mode(mode)
    if mode == NAIVE:
        f = collapse(f)
        g = collapse(g)
    pairs = list(model.pairs())
    f_labels, g_labels = {}, {}
    for ev, od in pairs:
        l1, l2 = (fresh_label(), fresh_label()) if mode == GEOMETRIC else (None, None)
        f_labels[ev] = f_labels[od] = l1
        g_labels[ev] = g_labels[od] = l2
    # one walk over f and one over g serve every variable of every pair
    er = eulers(model, f, f_labels, "right", isolate=True)
    el = eulers(model, g, g_labels, "left", isolate=True)
    acc = {}
    for ev, od in pairs:
        for term in (er[ev] * el[od], -er[od] * el[ev]):
            for k, m in term.terms.items():
                _add_monomial(acc, k, m)
    return Expr(acc) if acc else Expr.zero()


def laplacian_density(model: BvModel, f: Expr, mode: str = GEOMETRIC) -> Expr:
    """Density of Delta F for an integral block with density f; the antifield
    partial is applied first, then the field partial, each with its own
    channel of pending derivatives."""
    _check_mode(mode)
    if mode == NAIVE:
        f = collapse(f)
    pairs = list(model.pairs())
    first, second = {}, {}
    for ev, od in pairs:
        z1, z2 = (fresh_label(), fresh_label()) if mode == GEOMETRIC else (None, None)
        first[od], second[ev] = z2, z1
    # the first (antifield) step of every pair in one walk over f
    steps = eulers(model, f, first)
    acc = {}
    for ev, od in pairs:
        step = euler(model, steps[od], *ev, label=second[ev])
        for k, m in step.terms.items():
            _add_monomial(acc, k, m)
    return Expr(acc) if acc else Expr.zero()


# ---------------------------------------------------------------------------
# extension to products of blocks


def _blocks_parity(blocks) -> int:
    return sum(b.parity() for b in blocks) & 1


def schouten(F: Functional, G: Functional, mode: str = GEOMETRIC) -> Functional:
    """Variational Schouten bracket, extended to products by
    [[F, G*H]] = [[F,G]]*H + (-1)^((gh F - 1) gh G) G*[[F,H]] and to products
    in the first slot through shifted-graded skew-symmetry."""
    _check_mode(mode)
    model = F.model
    pF, pG = F.parity(), G.parity()  # raises on heterogeneous input
    out = Functional.zero(model)
    for bf, cf in F.terms.items():
        for bg, cg in G.terms.items():
            out = out + _bracket_blocks(model, bf, bg, mode).scale(cf * cg)
    return out


def _bracket_blocks(model, bf: tuple, bg: tuple, mode: str) -> Functional:
    if not bf or not bg:
        return Functional.zero(model)  # constants are bracket-inert
    if len(bg) > 1:
        C, rest = bg[0], bg[1:]
        pF = _blocks_parity(bf)
        pC = C.parity()
        left = _bracket_blocks(model, bf, (C,), mode) * Functional(model, {rest: Coefficient.one()})
        right = Functional(model, {(C,): Coefficient.one()}) * _bracket_blocks(model, bf, rest, mode)
        if ((pF - 1) * pC) & 1:
            right = -right
        return left + right
    if len(bf) > 1:
        pF = _blocks_parity(bf)
        pG = _blocks_parity(bg)
        flipped = _bracket_blocks(model, bg, bf, mode)
        if (((pF - 1) * (pG - 1)) & 1) == 0:
            flipped = -flipped
        return flipped
    density = schouten_density(model, bf[0], bg[0], mode)
    return Functional.from_density(model, density)


def laplacian(F: Functional, mode: str = GEOMETRIC) -> Functional:
    """BV-Laplacian, extended to products by
    Delta(F*G) = Delta(F)*G + (-1)^gh(F) [[F,G]] + (-1)^gh(F) F*Delta(G)."""
    _check_mode(mode)
    model = F.model
    F.parity()
    out = Functional.zero(model)
    for blocks, c in F.terms.items():
        out = out + _laplace_blocks(model, blocks, mode).scale(c)
    return out


def _laplace_blocks(model, blocks: tuple, mode: str) -> Functional:
    if not blocks:
        return Functional.zero(model)
    if len(blocks) == 1:
        return Functional.from_density(model, laplacian_density(model, blocks[0], mode))
    B, rest = blocks[0], blocks[1:]
    pB = B.parity()
    restF = Functional(model, {rest: Coefficient.one()})
    BF = Functional(model, {(B,): Coefficient.one()})
    out = _laplace_blocks(model, (B,), mode) * restF
    cross = _bracket_blocks(model, (B,), rest, mode)
    tail = BF * _laplace_blocks(model, rest, mode)
    if pB & 1:
        cross = -cross
        tail = -tail
    return out + cross + tail


# ---------------------------------------------------------------------------
# quantum layer


def omega(O: Functional, S: Functional, mode: str = GEOMETRIC) -> Functional:
    """Omega(O) = -i*hbar*Delta(O) + [[S, O]]."""
    minus_i_hbar = -(Coefficient.imag_unit() * Coefficient.hbar())
    return laplacian(O, mode).scale(minus_i_hbar) + schouten(S, O, mode)


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

    def render(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return "\n".join([head] + [f"  {line}" for line in self.lines])


def _equiv_mod_collapse(F: Functional, G: Functional) -> bool:
    return functional_equal(F, G, mode="collapse")


def _trivial_functional(F: Functional) -> bool:
    return functional_equal(F, Functional.zero(F.model), mode="collapse")


def check_master_equation(S: Functional, mode: str = GEOMETRIC) -> Report:
    """Evaluate both sides of the quantum master-equation
    i*hbar*Delta(S) = 1/2 [[S, S]] and report the obstruction."""
    model = S.model
    i_hbar = Coefficient.imag_unit() * Coefficient.hbar()
    half = Coefficient.of(1) / Coefficient.of(2)
    # collapse is linear, so the obstruction is formed from the collapsed
    # pieces that the summary lines print
    delta_c = laplacian(S, mode).collapse()
    bracket_c = schouten(S, S, mode).collapse()
    obstruction = delta_c.scale(i_hbar) - bracket_c.scale(half)
    passed = functional_equal(obstruction, Functional.zero(model), mode="collapse")
    lines = [
        f"Delta(S) collapsed: {_summarize(delta_c)}",
        f"[[S,S]] collapsed:  {_summarize(bracket_c)}",
        f"QME obstruction i*hbar*Delta(S) - 1/2*[[S,S]] ~ "
        f"{'0' if passed else _summarize(obstruction)}",
    ]
    return Report("quantum master-equation", passed, lines,
                  {"obstruction": obstruction})


def _summarize(F: Functional, limit: int = 400) -> str:
    text = repr(F)
    if len(text) <= limit:
        return text
    monomials = sum(len(b.terms) for blocks in F.terms for b in blocks)
    return f"{text[:limit]} ... [{len(F.terms)} terms, {monomials} monomials]"


def check_omega_squared(O: Functional, S: Functional, mode: str = GEOMETRIC) -> Report:
    """Check (Omega)^2(O) against its reduced form [[-i*hbar*Delta S
    + 1/2 [[S,S]], O]], and against zero when the master-equation obstruction
    has vanishing Euler operators.

    The reduced form keeps the obstruction as a structured object; its final
    evaluation replaces the bracket co-multiple by the generating section of
    the induced evolutionary field, i.e. by the obstruction's collapsed
    density.  When every Euler operator of that density vanishes the
    transitioned (Omega)^2(O) is cohomologically trivial."""
    if not S.is_zero() and S.parity() != 0:
        raise ParityError("Omega requires an even action functional")
    model = S.model
    omega2 = omega(omega(O, S, mode), S, mode)
    minus_i_hbar = -(Coefficient.imag_unit() * Coefficient.hbar())
    half = Coefficient.of(1) / Coefficient.of(2)
    qme = laplacian(S, mode).scale(minus_i_hbar) + schouten(S, S, mode).scale(half)
    reduced = schouten(qme, O, mode)
    agrees = _equiv_mod_collapse(omega2, reduced)

    # the evolutionary-field transition: fix the co-multiple's generating
    # section by collapsing the obstruction before the final bracket
    qme_c = qme.collapse()
    obstruction_inert = all(euler_operators_vanish(model, b) for b in qme_c.blocks())
    transitioned = schouten(qme_c, O, mode)
    omega2_zero = _trivial_functional(transitioned) if obstruction_inert else None

    passed = agrees and (omega2_zero is not False)
    lines = [
        f"(Omega)^2(O) ~ [[-i hbar Delta S + 1/2 [[S,S]], O]]: {agrees}",
        f"QME obstruction has vanishing Euler operators: {obstruction_inert}",
    ]
    if omega2_zero is not None:
        lines.append(f"(Omega)^2(O) ~ 0 after the generating-section transition: "
                     f"{omega2_zero}")
    return Report("(Omega)^2 consistency", passed, lines,
                  {"agrees": agrees, "omega2_zero": omega2_zero})


def check_gauge_closure(F1: Functional, F2: Functional, S: Functional,
                        mode: str = GEOMETRIC) -> Report:
    """Closure of infinitesimal gauge symmetries:
    -i*hbar*([[Delta F1, F2]] + [[F1, Delta F2]])
      + [[[[S,F1]],F2]] - [[[[S,F2]],F1]]  =  Omega([[F1, F2]])."""
    for gen in (F1, F2):
        if not gen.is_zero() and gen.parity() != 1:
            raise ParityError("gauge symmetry generators must be odd")
    minus_i_hbar = -(Coefficient.imag_unit() * Coefficient.hbar())
    lhs = (
        (schouten(laplacian(F1, mode), F2, mode)
         + schouten(F1, laplacian(F2, mode), mode)).scale(minus_i_hbar)
        + schouten(schouten(S, F1, mode), F2, mode)
        - schouten(schouten(S, F2, mode), F1, mode)
    )
    rhs = omega(schouten(F1, F2, mode), S, mode)
    passed = _equiv_mod_collapse(lhs, rhs)
    return Report("gauge-symmetry closure", passed,
                  [f"commutator = Omega([[F1,F2]]) mod collapse+cohomology: {passed}"])


def check_cocycle_preservation(O: Functional, F: Functional, S: Functional,
                               mode: str = GEOMETRIC) -> Report:
    """Omega([[O,F]]) + [[Omega(F), O]] = [[Omega(O), F]] for even O, odd F."""
    if not O.is_zero() and O.parity() != 0:
        raise ParityError("cocycle preservation needs an even observable")
    if not F.is_zero() and F.parity() != 1:
        raise ParityError("cocycle preservation needs an odd generator")
    lhs = omega(schouten(O, F, mode), S, mode) + schouten(omega(F, S, mode), O, mode)
    rhs = schouten(omega(O, S, mode), F, mode)
    passed = _equiv_mod_collapse(lhs, rhs)
    return Report("cocycle preservation", passed,
                  [f"Omega([[O,F]]) + [[Omega(F),O]] ~ [[Omega(O),F]]: {passed}"])


def check_coboundary_preservation(xi: Functional, F: Functional, S: Functional,
                                  mode: str = GEOMETRIC) -> Report:
    """Omega([[xi,F]]) + [[Omega(F), xi]] = [[Omega(xi), F]] for odd xi, F."""
    for gen in (xi, F):
        if not gen.is_zero() and gen.parity() != 1:
            raise ParityError("coboundary preservation needs odd xi and odd F")
    lhs = omega(schouten(xi, F, mode), S, mode) + schouten(omega(F, S, mode), xi, mode)
    rhs = schouten(omega(xi, S, mode), F, mode)
    passed = _equiv_mod_collapse(lhs, rhs)
    return Report("coboundary preservation", passed,
                  [f"Omega([[xi,F]]) + [[Omega(F),xi]] ~ [[Omega(xi),F]]: {passed}"])


def check_schouten_power(G: Functional, F: Functional, n: int,
                         mode: str = GEOMETRIC) -> Report:
    """[[G, F^n]] = n [[G, F]] F^(n-1) for an even integral block F."""
    if not F.is_zero() and F.parity() != 0:
        raise ParityError("power lemma requires an even functional")
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = schouten(G, F ** n, mode)
    rhs = (schouten(G, F, mode) * F ** (n - 1)).scale(n)
    passed = functional_equal(lhs, rhs, mode="structural")
    return Report(f"[[G,F^{n}]] = {n}[[G,F]]F^{n - 1}", passed, [])


def check_laplacian_power(F: Functional, n: int, mode: str = GEOMETRIC) -> Report:
    """Delta(F^n) = n Delta(F) F^(n-1) + n(n-1)/2 [[F,F]] F^(n-2)."""
    if not F.is_zero() and F.parity() != 0:
        raise ParityError("power lemma requires an even functional")
    if n < 2:
        raise ValueError("n must be >= 2")
    lhs = laplacian(F ** n, mode)
    half_count = Coefficient.of(n * (n - 1)) / Coefficient.of(2)
    rhs = (laplacian(F, mode) * F ** (n - 1)).scale(n) + (
        schouten(F, F, mode) * F ** (n - 2)
    ).scale(half_count)
    passed = functional_equal(lhs, rhs, mode="structural")
    return Report(f"Delta(F^{n}) power rule", passed, [])
