import random

import pytest

from bvcalc import Expr
from bvcalc.cohomology import (
    Functional,
    _graded_sort,
    densities_equivalent,
    field_free_part,
    functional_equal,
    is_trivial,
)
from bvcalc.jetcalc import euler_left, total_derivative
from bvcalc.bv import schouten, laplacian

from util_random import plane_model, random_homogeneous, scalar_model


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
    assert densities_equivalent(m, qxx.scale(2), Expr.zero())
    assert densities_equivalent(m, q * qx, Expr.zero())
    assert densities_equivalent(m, qx * qx, -(q * qxx))
    assert not densities_equivalent(m, qx * qx, q * qxx)


def test_equivalence_relation(m):
    rng = random.Random(32)
    for _ in range(10):
        a = random_homogeneous(m, rng, 0)
        b = a + total_derivative(random_homogeneous(m, rng, 0), 0)
        c = b + total_derivative(random_homogeneous(m, rng, 0), 0)
        assert densities_equivalent(m, a, a)
        assert densities_equivalent(m, a, b) and densities_equivalent(m, b, a)
        assert densities_equivalent(m, a, c)


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


def test_model_mismatch_rejected(m):
    other = scalar_model()
    F = Functional.from_density(m, m.jet("q"))
    G = Functional.from_density(other, other.jet("q"))
    with pytest.raises(ValueError):
        functional_equal(F, G)


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
