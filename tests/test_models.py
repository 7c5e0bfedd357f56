from fractions import Fraction

import pytest

from bvcalc import BvModel
from bvcalc.cohomology import functional_equal
from bvcalc.jetcalc import euler_left
from bvcalc.bv import laplacian, schouten
from bvcalc.models import (
    LieAlgebraData,
    build_scalar_example,
    build_yang_mills_bv,
    random_functional,
)


def test_su2_structure_constants_valid():
    g = LieAlgebraData.su2()
    assert g.dimension == 3
    assert g.c(0, 1, 2) == 1 and g.c(0, 2, 1) == -1


def test_perturbed_structure_constants_rejected():
    eps = dict(LieAlgebraData.su2().f)
    eps[(0, 0, 1)] = Fraction(1)  # antisymmetric but breaks the Jacobi identity
    eps[(0, 1, 0)] = Fraction(-1)
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebraData(3, eps)
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebraData(3, {(0, 1, 2): Fraction(1)})


def test_scalar_example_construction():
    m, F, G = build_scalar_example()
    assert F.parity() == 1 and G.parity() == 1
    assert F.ghost_number() == -1 and G.ghost_number() == -1
    f = next(iter(F.blocks()))
    assert f == m.jet("q", dagger=True) * m.jet("q") * m.jet("q", (2,))


def test_yang_mills_ghost_numbers():
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    assert model.gh("gam1") == 1
    assert model.gh("gam1", dagger=True) == -2
    assert model.gh("A11", dagger=True) == -1
    assert S.parity() == 0
    assert S.ghost_number() == 0


def test_abelian_yang_mills():
    model, S = build_yang_mills_bv(LieAlgebraData.abelian(1), 2)
    # no cubic ghost term: the ghost antifield never appears
    for b in S.blocks():
        assert not any(
            getattr(a, "field", "") == "gam1" and getattr(a, "dagger", False)
            for mono in b.monomials() for a, _ in mono.factors()
        )
    assert laplacian(S).is_zero()


def test_su2_n2_master_equation():
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    assert laplacian(S).is_zero()
    ss = schouten(S, S).collapse()
    for blocks, _ in ss.terms.items():
        for b in blocks:
            for name, dagger in model.variables():
                assert euler_left(model, b, name, dagger).is_zero()


def test_yang_mills_rejects_non_invariant_algebra():
    # [e1, e2] = e2 satisfies the Jacobi identity but is not unimodular, so
    # the Euclidean contraction is not invariant: Delta S = -int gam1 at n=2
    g = LieAlgebraData(2, {(1, 0, 1): Fraction(1), (1, 1, 0): Fraction(-1)})
    with pytest.raises(ValueError, match=r"totally antisymmetric at \(a, b, c\) = \(0, 1, 1\)"):
        build_yang_mills_bv(g, 2)
    for g in (LieAlgebraData.su2(), LieAlgebraData.abelian(3)):
        model, S = build_yang_mills_bv(g, 2)
        assert S.parity() == 0


def test_yang_mills_requires_dim_two():
    with pytest.raises(ValueError):
        build_yang_mills_bv(LieAlgebraData.su2(), 1)


def test_random_functional_determinism():
    m = BvModel(1, [("q", 0)])
    a = random_functional(m, 2, 3, 1, 123)
    b = random_functional(m, 2, 3, 1, 123)
    assert functional_equal(a, b, "structural")
    assert a.terms == b.terms
    c = random_functional(m, 2, 3, 1, 124)
    assert a.terms != c.terms


def test_random_functional_parity_and_bounds():
    m = BvModel(1, [("q", 0)])
    for seed in range(30):
        parity = seed % 2
        F = random_functional(m, 2, 3, parity, seed)
        assert F.parity() == parity
        for b in F.blocks():
            for mono in b.monomials():
                degree = sum(k for _, k in mono.even) + len(mono.odd)
                assert degree <= 4  # degree bound plus one parity-fixing factor
                for a, _ in mono.factors():
                    idx = getattr(a, "index", None)
                    if idx is not None:
                        assert sum(idx) <= 2
