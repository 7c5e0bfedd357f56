import itertools
import random
from fractions import Fraction

import pytest

from bvcalc import BvModel
from bvcalc.cohomology import Functional, functional_equal
from bvcalc.jetcalc import euler_left
from bvcalc.bv import check_master_equation, laplacian, schouten
from bvcalc.models import (
    LieAlgebraData,
    build_scalar_example,
    build_yang_mills_bv,
    random_density,
    random_functional,
)

from util_random import ghost_model, plane_model, reference_random_density, scalar_model


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


def _dense_validation_error(d, f):
    """The message of the first failure of the dense O(d^5) loops, or None."""
    def c(a, b, e):
        return f.get((a, b, e), 0)

    for a, b, e in itertools.product(range(d), repeat=3):
        if c(a, b, e) != -c(a, e, b):
            return f"structure constants not antisymmetric at ({a},{b},{e})"
    for a, b, cc, e in itertools.product(range(d), repeat=4):
        if sum(c(a, m, e) * c(m, b, cc) + c(a, m, b) * c(m, cc, e) + c(a, m, cc) * c(m, e, b)
               for m in range(d)):
            return f"Jacobi identity fails at ({a},{b},{cc},{e})"
    return None


def test_sparse_validation_agrees_with_the_dense_loops():
    # seeded changes of su(2), so(4) and abelian constants: single entries
    # (antisymmetry fails), antisymmetric pairs (Jacobi mostly fails), and
    # a relabelled, rescaled basis (valid) with at most one pair, each
    # failure reported at the dense loops' first failing index
    rng = random.Random(47)
    algebras = [LieAlgebraData.su2(), LieAlgebraData.so(4), LieAlgebraData.abelian(3)]
    seen = {"antisymmetric": 0, "Jacobi": 0, None: 0}
    for case in range(90):
        g = algebras[case % 3]
        d, f = g.dimension, dict(g.f)
        how = case // 3 % 3
        if how == 2:
            perm, scale = rng.sample(range(d), d), Fraction(rng.choice((-3, 1, 2)))
            f = {(perm[a], perm[b], perm[e]): scale * v for (a, b, e), v in f.items()}
        for _ in range(rng.randint(1, 3) if how < 2 else rng.randint(0, 1)):
            a, b, e = (rng.randrange(d) for _ in range(3))
            v = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            f[a, b, e] = f.get((a, b, e), 0) + v
            if how and b != e:
                f[a, e, b] = f.get((a, e, b), 0) - v
        f = {k: v for k, v in f.items() if v}
        expected = _dense_validation_error(d, f)
        try:
            LieAlgebraData(d, f)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (case, f)
        kind = None if expected is None else "Jacobi" if "Jacobi" in expected else "antisymmetric"
        seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_so_n_structure_constants():
    # [L_01, L_12] = L_02 and [L_01, L_02] = -L_12 in so(3), basis
    # L_01, L_02, L_12; so(n) has dimension n(n-1)/2
    g = LieAlgebraData.so(3)
    assert g.dimension == 3
    assert g.c(1, 0, 2) == 1 and g.c(2, 0, 1) == -1
    assert [LieAlgebraData.so(n).dimension for n in (2, 4, 5)] == [1, 6, 10]


def test_so4_yang_mills_master_equation():
    # so(4) Yang-Mills on a 4-dimensional base: the sizes of S and of the
    # collapsed [[S,S]], Delta S = 0, the classical and the quantum master
    # equations, and the halved bracket of check_master_equation equal to
    # the whole one
    model, S = build_yang_mills_bv(LieAlgebraData.so(4), 4)
    assert [len(b.terms) for b in S.blocks()] == [852]
    assert laplacian(S).is_zero()
    rep = check_master_equation(S)
    assert rep.passed
    ss = rep.data["bracket"]
    assert [len(b.terms) for b in ss.blocks()] == [5472]
    assert ss == schouten(S, S).collapse()
    assert functional_equal(ss, Functional.zero(model), "collapse")


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


@pytest.mark.parametrize("model", [scalar_model(), ghost_model(), plane_model(),
                                   BvModel(1, [("b", 1), ("c", 1)])],
                         ids=["scalar", "ghost", "plane", "two-odd"])
def test_random_density_draws_as_the_expr_builder(model):
    # the canonical products give the term map of the Expr products, term
    # order included, and leave the rng where the Expr builder leaves it
    rng, ref = random.Random(31), random.Random(31)
    for i in range(150):
        args = (model, i % 3, 1 + i % 4, (i // 3) % 2)
        d = random_density(*args, rng)
        r = reference_random_density(*args, ref)
        assert [(k, m.coeff) for k, m in d.terms.items()] == \
            [(k, m.coeff) for k, m in r.terms.items()]
        assert rng.getstate() == ref.getstate()


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
