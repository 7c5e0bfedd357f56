import random
from fractions import Fraction

import pytest

import bvcalc
from bvcalc import Expr, cohomology
from bvcalc.algebra import make_attach
from bvcalc.coeff import Coefficient
from bvcalc.cohomology import (
    Functional,
    _ClassBasis,
    _graded_expand,
    _graded_sort,
    _hbar_parts,
    field_free_part,
    functional_equal,
    is_trivial,
)
from bvcalc.jetcalc import collapse, euler_left, eulers, total_derivative
from bvcalc.bv import laplacian, omega, schouten

from util_random import nested_brackets, plane_model, random_homogeneous, scalar_model


@pytest.fixture
def m():
    return scalar_model()


def test_is_trivial_examples(m):
    q = m.jet("q")
    qx, qxx = m.jet("q", (1,)), m.jet("q", (2,))
    assert is_trivial(m, total_derivative(q * q, 0))
    # the collapsed Laplacian of the cosine block is a synonym of zero
    d2sin = total_derivative(total_derivative(-m.sin("q"), 0), 0)
    assert is_trivial(m, d2sin)
    assert not is_trivial(m, q * qxx)
    assert euler_left(m, q * qxx, "q") == qxx.scale(2)
    # field-free residues are not discarded
    assert not is_trivial(m, Expr.scalar(3))
    assert field_free_part(Expr.scalar(3) + q) == Expr.scalar(3)


def test_divergences_trivial_in_two_dimensions():
    model = plane_model()
    rng = random.Random(31)
    for i in range(40):
        h = random_homogeneous(model, rng, rng.randint(0, 1))
        assert is_trivial(model, total_derivative(h, i % 2))


def test_densities_equivalent_examples(m):
    q = m.jet("q")
    qx, qxx = m.jet("q", (1,)), m.jet("q", (2,))
    assert is_trivial(m, qxx.scale(2) - Expr.zero())
    assert is_trivial(m, q * qx - Expr.zero())
    assert is_trivial(m, qx * qx - (-(q * qxx)))
    assert not is_trivial(m, qx * qx - q * qxx)


def test_equivalence_relation(m):
    rng = random.Random(32)
    for _ in range(10):
        a = random_homogeneous(m, rng, 0)
        b = a + total_derivative(random_homogeneous(m, rng, 0), 0)
        c = b + total_derivative(random_homogeneous(m, rng, 0), 0)
        assert is_trivial(m, a - a)
        assert is_trivial(m, a - b) and is_trivial(m, b - a)
        assert is_trivial(m, a - c)


@pytest.mark.parametrize("model", [scalar_model(), plane_model()], ids=["scalar", "plane"])
def test_is_trivial_agrees_with_the_two_step_rule(model):
    # the rule is_trivial replaced: no field-free part, then every Euler
    # operator vanishes
    rng = random.Random(34)
    verdicts = []
    for i in range(50):
        h = random_homogeneous(model, rng, rng.randint(0, 1), with_trig=i % 3 == 0)
        d = total_derivative(h, rng.randrange(model.base_dim))
        if i % 2:
            d = d + random_homogeneous(model, rng, h.parity())
        if i % 5 == 0:
            d = d + Expr.scalar(rng.randint(1, 3))
        images = eulers(model, d, model.variables())
        expected = field_free_part(d).is_zero() and all(e.is_zero() for e in images.values())
        assert is_trivial(model, d) == expected, d
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_every_exported_name_resolves():
    # __all__ names each export once, and a star import binds every one
    for name in bvcalc.__all__:
        assert hasattr(bvcalc, name), name
    assert len(set(bvcalc.__all__)) == len(bvcalc.__all__)
    namespace = {}
    exec("from bvcalc import *", namespace)
    assert set(bvcalc.__all__) <= set(namespace)


def test_functional_graded_commutativity(m):
    rng = random.Random(33)
    for _ in range(20):
        F = Functional.from_density(m, random_homogeneous(m, rng, rng.randint(0, 1)))
        G = Functional.from_density(m, random_homogeneous(m, rng, rng.randint(0, 1)))
        sign = (-1) ** (F.parity() * G.parity())
        assert functional_equal(F * G, (G * F).scale(sign), "structural")


def test_trivial_block_is_zero_functional(m):
    q = m.jet("q")
    F = Functional.from_density(m, total_derivative(q * q, 0))
    assert functional_equal(F, Functional.zero(m), "structural")
    assert functional_equal(F, Functional.zero(m), "collapse")


def test_block_linearity(m):
    # int (a + b) = int a + int b as functionals
    q, qx = m.jet("q"), m.jet("q", (1,))
    a = q * q * qx + q
    b = qx * qx
    F = Functional.from_density(m, a + b)
    G = Functional.from_density(m, a) + Functional.from_density(m, b)
    assert functional_equal(F, G, "collapse")


def test_structured_blocks_compared_after_canonicalization(m):
    model, F, G = _scalar_pair()
    L = laplacian(schouten(F, G))
    R = schouten(F, laplacian(G)) + schouten(laplacian(F), G)
    assert functional_equal(L, R, "structural")
    assert functional_equal(L, R, "collapse")


def _scalar_pair():
    from bvcalc.models import build_scalar_example
    return build_scalar_example()


def test_synonym_blocks_kept_structurally(m):
    # a structured block that collapses to a trivial density is not the zero
    # functional as an object
    model, F, G = _scalar_pair()
    dG = laplacian(G)
    from bvcalc.jetcalc import collapse
    for b in dG.blocks():
        assert is_trivial(model, collapse(b))
    assert not functional_equal(dG, Functional.zero(model), "structural")
    assert functional_equal(dG, Functional.zero(model), "collapse")


def test_model_mismatch_rejected(m, monkeypatch):
    other = scalar_model()
    F = Functional.from_density(m, m.jet("q"))
    G = Functional.from_density(other, other.jet("q"))
    with pytest.raises(ValueError):
        functional_equal(F, G)
    # the bracket of two models' functionals is refused as their sum is, in
    # either order and through Omega, whether the models share a field or not
    p = bvcalc.BvModel(1, [("p", 0)])
    H = Functional.from_density(p, p.jet("p") * p.jet("p"))
    square = Functional.from_density(m, m.jet("q") * m.jet("q"))
    for a, b in ((square, G * G), (square, H), (H, F)):
        for call in (schouten, omega):
            with pytest.raises(ValueError, match="different models"):
                call(a, b)
            with pytest.raises(ValueError, match="different models"):
                call(b, a)
    # Omega refuses before it takes any Laplacian
    taken = []
    density = bvcalc.bv.laplacian_density
    monkeypatch.setattr(bvcalc.bv, "laplacian_density",
                        lambda *args: taken.append(args) or density(*args))
    for a, b in ((square, H), (H, square), (square, G * G)):
        with pytest.raises(ValueError, match="different models"):
            omega(a, b)
    assert not taken
    omega(square, square)
    assert taken


def test_functionals_scale_by_any_exact_scalar(m):
    # as an Expr does: a Fraction scales from either side, an inexact
    # scalar is refused by Coefficient.of, and a sum with a scalar is no
    # sum of functionals
    F = Functional.from_density(m, m.jet("q") * m.jet("q", (1,)))
    half = F.scale(Coefficient.of(1) / Coefficient.of(2))
    assert F * Fraction(1, 2) == Fraction(1, 2) * F == half != F
    assert F * 3 == 3 * F == F.scale(3)
    assert F * Coefficient.hbar() == F.scale(Coefficient.hbar())
    for bad in (lambda: F * 2.5, lambda: 2.5 * F):
        with pytest.raises(TypeError, match="exact rational"):
            bad()
    for bad in (lambda: F + 1, lambda: 1 + F, lambda: F - 1):
        with pytest.raises(TypeError):
            bad()


def test_odd_block_squares_to_zero(m):
    qd = m.jet("q", dagger=True)
    F = Functional.from_density(m, qd * m.jet("q"))
    assert F.parity() == 1
    assert (F * F).is_zero()


def test_constant_blocks(m):
    one = Functional.constant(m, 1)
    F = Functional.from_density(m, m.jet("q"))
    assert functional_equal(one * F, F, "structural")
    vol = Functional.from_density(m, Expr.scalar(1))
    assert not functional_equal(vol, Functional.zero(m), "collapse")
    assert functional_equal(F ** 0, one, "structural")
    with pytest.raises(ValueError, match="negative powers"):
        F ** -1


def test_graded_sort_matches_a_brute_force_reference():
    # items are (key, parity) pairs, the parity fixed by the key; the sign is
    # that of the permutation of the odd items, and a repeated odd key kills
    # the product
    rng = random.Random(34)
    for _ in range(500):
        parity = {k: rng.randint(0, 1) for k in range(6)}
        items = [(k, parity[k]) for k in (rng.randrange(6) for _ in range(rng.randint(0, 6)))]
        got = _graded_sort(items, lambda x: x[0], lambda x: x[1])
        odd = [k for k, p in items if p]
        if len(set(odd)) < len(odd):
            assert got is None
            continue
        inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
        assert got == ((-1) ** inversions, tuple(sorted(items)))


def test_collapsing_one_block_builds_no_key(m, monkeypatch):
    # one block is in order as it is, so Functional.collapse spells out no
    # nested key for it; a product of two blocks is still sorted by key,
    # with its Koszul sign
    q, qx, qd = m.jet("q"), m.jet("q", (1,)), m.jet("q", dagger=True)
    density = make_attach(((1,),), qd * q * qx) * q + qd * qx
    F = Functional.from_density(m, density)
    expected = Functional.from_density(m, collapse(density))
    A = Functional.from_density(m, qd * q)
    B = Functional.from_density(m, m.jet("q", (1,), dagger=True))

    def no_key(self):
        raise AssertionError("a nested key was built")

    monkeypatch.setattr(Expr, "key", no_key)
    assert F.collapse() == expected
    monkeypatch.undo()
    AB, BA = A * B, B * A
    assert not AB.is_zero() and AB == BA.scale(-1)
    (blocks,) = AB.terms
    assert [b.key() for b in blocks] == sorted(b.key() for b in blocks)


def test_odd_blocks_in_one_class_multiply_graded_commutatively(m):
    # A and B differ by a divergence, so <A>*<B> is an odd class squared; the
    # same holds for C and C', and swapping two odd blocks flips the sign
    q, qd, qx = m.jet("q"), m.jet("q", dagger=True), m.jet("q", (1,))
    A = qd * q
    B = A + total_derivative(q * q * qd, 0)
    C = qd * qx
    C2 = C + total_derivative(q * qd, 0)
    F = lambda d: Functional.from_density(m, d)
    for mode in ("structural", "collapse"):
        assert not (F(A) * F(B)).is_zero()
        assert functional_equal(F(A) * F(B), Functional.zero(m), mode)
        assert functional_equal(F(A) * F(C), -(F(C2) * F(A)), mode)
        assert not functional_equal(F(A) * F(C), F(C2) * F(A), mode)


# -- the single plain blocks of F - G are decided as one integral ---------------

def _scale_canonical(b):
    """Reference normalisation of a block's overall scale: divide by the
    leading coefficient when it is invertible, returning (representative,
    factored-out lead)."""
    lead = b.lead_coefficient()
    try:
        inv = lead.inverse()
    except ZeroDivisionError:
        return b, Coefficient.one()
    return b.scale(inv), lead


def _blockwise_equal(F, G, mode):
    """Reference for functional_equal: every block of F - G is expanded over
    the class basis on its own, with no summing of single blocks."""
    H = F - G
    basis = _ClassBasis(H.model)
    parities, terms = {}, {}
    for blocks, c in H.terms.items():
        expansions = []
        for b in blocks:
            if mode == "collapse":
                b = collapse(b)
            if b.has_attach():
                b, lead = _scale_canonical(b)
                c = c * lead
                parities[("s", b.key())] = b.parity()
                expansions.append([(("s", b.key()), Coefficient.one())])
            else:
                raw = [] if b.is_zero() else basis.expand(b)
                if not raw:
                    break
                for i, _ in raw:
                    parities[("p", i)] = basis.rows[i][0]
                expansions.append([(("p", i), lam) for i, lam in raw])
        else:
            _graded_expand(terms, expansions, parities, seed=c)
    return not terms


def _structured(m, rng, parity):
    """A block with one Attach atom: D_x of a random density at a frozen
    channel, times a random even density."""
    inner = random_homogeneous(m, rng, parity, max_order=1, degree=2)
    return make_attach(((1,),), inner) * random_homogeneous(m, rng, 0, 1, 2)


HBAR = Coefficient.hbar()
_COEFFICIENTS = (1, -1, 2, Fraction(1, 2), HBAR, -(Coefficient.imag_unit() * HBAR), 1 + HBAR)


def _singles_case(m, rng, with_products):
    """(F, G) with F - G holding single plain blocks of both parities, and
    G a regrouping of F: per power of hbar, its even singles summed into one
    block plus a divergence, its odd singles split differently.
    with_products adds the same product of blocks to both sides, and two
    structured blocks to F that G holds as one (equal modulo collapse, not
    structurally)."""
    F, G = Functional.zero(m), Functional.zero(m)
    block = lambda d, c=1: Functional.from_density(m, d).scale(c)
    for parity in (0, 1):
        parts = [random_homogeneous(m, rng, parity) for _ in range(rng.randint(2, 3))]
        cs = [Coefficient.of(rng.choice(_COEFFICIENTS)) for _ in parts]
        for d, c in zip(parts, cs):
            F = F + block(d, c)
        for k in {k for c in cs for k in c.terms}:
            # the hbar^k parts of the coefficients, each in Q(i)
            qs = [Coefficient({0: c.terms[k]}) if k in c.terms else 0 for c in cs]
            whole = Expr.zero()
            for d, q in zip(parts, qs):
                whole = whole + d.scale(q)
            div = total_derivative(random_homogeneous(m, rng, parity), 0)
            unit = Coefficient.hbar(k)
            if parity == 0:
                G = G + block(whole + div, unit)
            else:
                first = parts[0].scale(qs[0])
                G = G + block(whole - first, unit) + block(first + div, unit)
    if with_products:
        P = block(random_homogeneous(m, rng, 0)) * block(random_homogeneous(m, rng, 1))
        X, Y = _structured(m, rng, 1), _structured(m, rng, 1)
        F, G = F + P + block(X) + block(Y), G + P + block(X + Y)
    return F, G


def test_merged_reduction_matches_the_blockwise_reference(m):
    rng = random.Random(35)
    outcomes = set()
    for trial in range(24):
        F, G = _singles_case(m, rng, with_products=trial % 2 == 1)
        extra = Functional.from_density(m, random_homogeneous(m, rng, trial % 2))
        mixed = extra.scale(rng.choice(_COEFFICIENTS[4:]))
        for mode in ("structural", "collapse"):
            for lhs, rhs in ((F, G), (F + extra, G), (F, G + extra.scale(2) - extra),
                             (F + mixed, G)):
                expected = _blockwise_equal(lhs, rhs, mode)
                assert functional_equal(lhs, rhs, mode) == expected, (trial, mode)
                outcomes.add((mode, expected))
    assert outcomes == {(mode, v) for mode in ("structural", "collapse") for v in (True, False)}
    # one plain block in several nonzero product terms is expanded in each
    a, b, c, h = (random_homogeneous(m, rng, p) for p in (0, 1, 0, 0))
    A, B, C = (Functional.from_density(m, d) for d in (a, b, c))
    A2 = Functional.from_density(m, a + total_derivative(h, 0))
    F = A * B + A * C + A * A * B
    for mode in ("structural", "collapse"):
        for G, expected in ((A2 * B + A * C + A * A2 * B, True),
                            (A * B + (A * C).scale(2) + A * A * B, False),
                            (A * B + A2 * C + A * A * B, True), (A * B + A * B, False)):
            assert _blockwise_equal(F, G, mode) == expected, mode
            assert functional_equal(F, G, mode) == expected, mode


def test_singles_trivial_modulo_a_divergence(m):
    # int a + int D(h1) = int (a + D(h2)): the two sides differ by a
    # divergence only once their integrands are summed
    rng = random.Random(36)
    for _ in range(10):
        p = rng.randint(0, 1)
        a, h1, h2 = (random_homogeneous(m, rng, p) for _ in range(3))
        F = Functional.from_density(m, a) + Functional.from_density(m, total_derivative(h1, 0))
        G = Functional.from_density(m, a + total_derivative(h2, 0))
        for mode in ("structural", "collapse"):
            assert _blockwise_equal(F, G, mode) and functional_equal(F, G, mode)
            assert functional_equal(F, G + G, mode) == _blockwise_equal(F, G + G, mode)


def test_singles_are_expanded_once_per_parity_and_not_when_they_cancel(m, monkeypatch):
    calls = []
    expand = _ClassBasis.expand
    monkeypatch.setattr(_ClassBasis, "expand", lambda self, b: calls.append(b) or expand(self, b))
    rng = random.Random(37)
    a, b = random_homogeneous(m, rng, 0), random_homogeneous(m, rng, 0)
    c, d = random_homogeneous(m, rng, 1), random_homogeneous(m, rng, 1)
    block = lambda e: Functional.from_density(m, e)
    for mode in ("structural", "collapse"):
        calls.clear()
        assert functional_equal(block(a) + block(b), block(a + b), mode)
        assert calls == []  # the integrands cancel exactly
        assert not functional_equal(block(a) + block(b) + block(c) - block(d), block(a), mode)
        assert len(calls) == 2 and {e.parity() for e in calls} == {0, 1}


def test_structured_singles_stay_blockwise_in_structural_mode(m):
    # int (X + Y) = int X + int Y modulo collapse, but structurally the
    # three structured blocks are three different objects
    rng = random.Random(38)
    X, Y = _structured(m, rng, 0), _structured(m, rng, 0)
    F = Functional.from_density(m, X + Y)
    G = Functional.from_density(m, X) + Functional.from_density(m, Y)
    assert not _blockwise_equal(F, G, "structural")
    assert not functional_equal(F, G, "structural")
    assert functional_equal(F, G, "collapse") and _blockwise_equal(F, G, "collapse")


_SCALARS = (2, Fraction(1, 2), -1, -(Coefficient.imag_unit() * HBAR), 1 + HBAR)


def test_proportional_blocks_share_a_class_as_in_the_blockwise_reference(m):
    # a structured block counts once up to a scalar, its coefficient at the
    # least term key when that is a unit, and only as itself otherwise.  The
    # blocks X + Y and Y + X are equal with their terms in two orders, so
    # the scalar must not depend on which one is met first; X + 2*Y has the
    # term keys of X + Y and is not proportional to it
    rng = random.Random(41)
    block = lambda d, c=1: Functional.from_density(m, d).scale(c)
    lead = lambda d: d.lead_coefficient()
    outcomes = set()
    for trial in range(4):
        X, Y = (_structured(m, rng, 0) for _ in range(2))
        U, V = (_structured(m, rng, 1) for _ in range(2))
        even, odd, uneven = (X + Y, Y + X), (U + V, V + U), X + Y.scale(2)
        assert list(even[0].terms) != list(even[1].terms)
        assert set(uneven.terms) == set(even[0].terms)
        cases = [(block(even[0], lead(uneven)), block(uneven, lead(even[0])))]
        for s in _SCALARS:
            cases += [
                (block(even[0], s), block(even[1].scale(s))),
                (block(even[0].scale(1 + HBAR), s), block(even[1].scale(s * (1 + HBAR)))),
                (block(even[0], s) * block(odd[0]), block(even[1].scale(s)) * block(odd[1])),
                # one odd class twice: the product vanishes
                (block(odd[0]) * block(odd[1].scale(s)), Functional.zero(m)),
            ]
        for F, G in cases:
            for lhs, rhs in ((F, G), (G, F)):
                expected = _blockwise_equal(lhs, rhs, "structural")
                assert functional_equal(lhs, rhs, "structural") == expected, trial
                outcomes.add((max(map(len, (lhs - rhs).terms)), expected))
    assert outcomes == {(n, v) for n in (1, 2) for v in (True, False)}


def test_a_structural_verdict_scales_no_block_and_reads_no_canonical_key(monkeypatch):
    # [[S,X]] = [[X,S]] with X = [[S,[[S,O]]]], the nested-brackets shape: a
    # structured block is filed as it stands, by its term keys and the
    # coefficient at the least one, with no scaled copy and no nested key
    _, S, X = nested_brackets(2)
    lhs, rhs = schouten(S, X), schouten(X, S)
    blocks = [b for F in (lhs, rhs) for b in F.blocks()]
    keyed, scaled = [], []
    key, scale = Expr.key, Expr.scale
    monkeypatch.setattr(Expr, "key", lambda self: keyed.append(self) or key(self))
    monkeypatch.setattr(Expr, "scale", lambda self, c: scaled.append(self) or scale(self, c))
    assert functional_equal(lhs, rhs, "structural")
    assert blocks and all(b.has_attach() for b in blocks) and scaled == []
    assert not {id(e) for e in keyed} & {id(e) for e in blocks}


def test_singles_with_mixed_powers_of_hbar_are_decided_per_power(m):
    # int A + hbar int 2A sums to int (1 + 2*hbar) A: no entry of its
    # Euler image is a unit of Q(i)[hbar, hbar^-1], yet the verdict is exact
    rng = random.Random(39)
    A = random_homogeneous(m, rng, 0)
    block = lambda d, c=1: Functional.from_density(m, d).scale(c)
    F = block(A) + block(A.scale(2), HBAR)
    div = total_derivative(random_homogeneous(m, rng, 0), 0)
    for mode in ("structural", "collapse"):
        assert not functional_equal(F, Functional.zero(m), mode)
        assert not functional_equal(block(A) + block(A.scale(2), 1 + HBAR),
                                    block(A) + block(A.scale(2)), mode)
        assert not functional_equal(F, block(A.scale(1 + HBAR)), mode)
        assert functional_equal(F, block(A.scale(1 + 2 * HBAR)), mode)
        assert functional_equal(F, block(A.scale(1 + 2 * HBAR) + div.scale(1 - HBAR)), mode)
        # a lone block with hbar inside its density
        assert not functional_equal(block(A.scale(1 + HBAR)), Functional.zero(m), mode)
        assert functional_equal(block(div.scale(1 + HBAR)), Functional.zero(m), mode)


# -- in mode 'collapse' the single blocks of a parity are collapsed together ---

def _frozen_case(m, rng):
    """(F, G) with single frozen blocks of both parities and a product
    holding one: G regroups two of F's frozen blocks and holds a third one
    collapsed, so F = G modulo collapse."""
    block = lambda d, c=1: Functional.from_density(m, d).scale(c)
    F, G = Functional.zero(m), Functional.zero(m)
    for parity in (0, 1):
        X, Y = (_structured(m, rng, parity) for _ in range(2))
        c = rng.choice(_COEFFICIENTS)
        F = F + block(X, c) + block(Y, c) + block(X.scale(2))
        G = G + block(X + Y, c) + block(collapse(X).scale(2))
    P = block(_structured(m, rng, 1)) * block(random_homogeneous(m, rng, 0))
    return F + P, G + P


def test_collapse_once_matches_the_blockwise_reference(m):
    rng = random.Random(40)
    outcomes = set()
    for trial in range(20):
        F, G = _frozen_case(m, rng)
        extra = Functional.from_density(m, _structured(m, rng, trial % 2))
        product = extra * Functional.from_density(m, random_homogeneous(m, rng, 1))
        for lhs, rhs in ((F, G), (F + extra, G), (F + product, G + product),
                         (F + product, G), (F, G + extra.scale(2) - extra)):
            expected = _blockwise_equal(lhs, rhs, "collapse")
            assert functional_equal(lhs, rhs, "collapse") == expected, trial
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_single_frozen_blocks_are_collapsed_once_per_parity(m, monkeypatch):
    import bvcalc.cohomology as cohomology
    calls = []
    monkeypatch.setattr(cohomology, "collapse", lambda e: calls.append(e) or collapse(e))
    rng = random.Random(41)
    for _ in range(5):
        F, G = _frozen_case(m, rng)
        F, G = (Functional(m, {b: c for b, c in H.terms.items() if len(b) == 1})
                for H in (F, G))
        calls.clear()
        assert functional_equal(F, G, "collapse")
        assert len(calls) == 2 and {e.parity() for e in calls} == {0, 1}


def test_hbar_parts_are_clean_and_share_their_integers():
    h, i = Coefficient.hbar(), Coefficient.imag_unit()
    third = Coefficient.of(Fraction(1, 3))
    v = {"a": 2 + 3 * h, "b": third * Coefficient.hbar(-1) - i, "c": Coefficient.of(5)}
    parts = _hbar_parts(v)
    assert parts == {0: {"a": Coefficient.of(2), "b": -i, "c": Coefficient.of(5)},
                     1: {"a": Coefficient.of(3)}, -1: {"b": third}}
    assert parts[0]["a"] is Coefficient.of(2) and parts[1]["a"] is Coefficient.of(3)
    for part in parts.values():
        for k, c in part.items():
            assert c.hbar_degrees() == [0]
            assert sum((Coefficient.hbar(d) * parts[d].get(k, 0) for d in parts),
                       Coefficient.zero()) == v[k]
