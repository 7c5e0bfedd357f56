import math
import os
import random
import subprocess
import sys

import pytest

import bvcalc
from bvcalc import Expr
from bvcalc.cohomology import Functional
from bvcalc.jetcalc import total_derivative
from bvcalc.bv import schouten
from bvcalc.models import random_density
from bvcalc.oracle import (
    FrequencyError,
    GrassmannNumber,
    SectionSpec,
    evaluate,
)

from util_random import scalar_model


@pytest.fixture
def m():
    return scalar_model()


def g(k):
    return GrassmannNumber.generator(k)


# -- Grassmann arithmetic ----------------------------------------------------

def test_generator_squares_vanish():
    assert (g(0) * g(0)).max_abs() == 0.0


def test_anticommutativity():
    assert (g(0) * g(1) + g(1) * g(0)).max_abs() == 0.0


def test_associativity_random():
    rng = random.Random(5)
    def rand_g():
        out = GrassmannNumber()
        for _ in range(3):
            mask = rng.randrange(16)
            out = out + GrassmannNumber({mask: rng.uniform(-2, 2)})
        return out
    for _ in range(50):
        a, b, c = rand_g(), rand_g(), rand_g()
        assert ((a * b) * c - a * (b * c)).max_abs() < 1e-12


def test_generators_past_eight():
    # the algebra takes any number of generators; only a negative index is
    # no generator
    assert (g(8) * g(20) + g(20) * g(8)).max_abs() == 0.0
    assert (g(8) * g(8)).max_abs() == 0.0 and (g(20) * g(20)).max_abs() == 0.0
    assert (g(8) * g(20)).coeffs == {1 << 8 | 1 << 20: 1.0}
    assert repr(g(20) * g(8)) == "-1*g9*g21"
    with pytest.raises(ValueError):
        GrassmannNumber.generator(-1)


# -- evaluation ---------------------------------------------------------------

def sin_section(m):
    return SectionSpec(m, {("q", False): [(1.0, (("sin", 1),))]})


def test_total_derivative_integrates_to_zero(m):
    # a polynomial density, and a transcendental one, whose grid doubles
    # until its value settles
    for density in (m.jet("q") * m.jet("q", (1,)), m.exp("q") * m.jet("q", (1,))):
        v = evaluate(Functional.from_density(m, density), sin_section(m))
        assert abs(v.body()) < 1e-12, density


def test_cos_of_sin_integrates_to_the_bessel_value(m):
    # the integral of cos(sin x) over [0, 2pi) is 2pi J0(1), with J0(1) the
    # sum of (-1)^k / (4^k (k!)^2)
    j0 = sum((-1) ** k / (4 ** k * math.factorial(k) ** 2) for k in range(20))
    v = evaluate(Functional.from_density(m, m.cos("q")), sin_section(m))
    assert abs(v.body() - 2 * math.pi * j0) < 1e-12


def test_sin_squared_integral(m):
    F = Functional.from_density(m, m.jet("q") * m.jet("q"))
    v = evaluate(F, sin_section(m))
    assert abs(v.body() - math.pi) < 1e-12


def test_grassmann_valued_integral(m):
    s = SectionSpec(m, {
        ("q", False): [(1.0, (("cos", 1),))],
        ("q", True): [(g(0), (("sin", 1),))],
    })
    F = Functional.from_density(m, m.jet("q", dagger=True) * m.jet("q", (1,)))
    v = evaluate(F, s)
    expected = GrassmannNumber({1: -math.pi})
    assert (v - expected).max_abs() < 1e-12


def test_the_grid_counts_the_shift(m):
    # q^2 shifted along q^3 is a polynomial of degree 6 in sin(x): a grid of
    # 4 points, enough for q^2 alone, reads the finite difference as 2pi;
    # its derivative at eps = 0 is the integral of 2 q * q^3 = 2 sin(x)^4
    F = Functional.from_density(m, m.jet("q") ** 2)
    B = m.jet("q") ** 3
    eps = 1e-4
    plus = evaluate(F, sin_section(m), shift=("q", eps, B)).body()
    minus = evaluate(F, sin_section(m), shift=("q", -eps, B)).body()
    assert abs((plus - minus) / (2 * eps) - 3 * math.pi / 2) < 1e-6


def test_an_unbounded_or_unsettled_quadrature_is_refused(m):
    def at(amplitude):
        return SectionSpec(m, {("q", False): [(amplitude, (("sin", 1),))]})
    # exp(1000) is past the float range
    with pytest.raises(FrequencyError, match="exp overflows"):
        evaluate(Functional.from_density(m, m.exp("q")), at(1000.0))
    # exp(400) is not, but its square is
    with pytest.raises(FrequencyError, match="not finite"):
        evaluate(Functional.from_density(m, m.exp("q") ** 2), at(400.0))
    # cos(1000 sin x) needs a grid of about 1000 points
    with pytest.raises(FrequencyError, match="does not settle within 512 points"):
        evaluate(Functional.from_density(m, m.cos("q")), at(1000.0))


def test_base_coordinates_rejected(m):
    F = Functional.from_density(m, m.x(0) * m.jet("q"))
    with pytest.raises(FrequencyError):
        evaluate(F, sin_section(m))


def random_section(m, rng, odd_gen):
    def trig_poly(grass=None):
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = rng.uniform(-1.0, 1.0)
            if grass is not None:
                coeff = grass.scale(coeff)
            kind = rng.choice(("sin", "cos"))
            freq = rng.randint(1, 2)
            terms.append((coeff, ((kind, freq),)))
        return terms
    return SectionSpec(m, {
        ("q", False): trig_poly(),
        ("q", True): trig_poly(g(odd_gen)),
    })


def test_synonym_consistency(m):
    rng = random.Random(7)
    for i in range(20):
        h = random_density(m, 2, 3, rng.randint(0, 1), rng)
        r = random_density(m, 1, 2, rng.randint(0, 1), rng)
        h2 = h + total_derivative(r, 0)
        for j in range(2):
            s = random_section(m, rng, odd_gen=j)
            v1 = evaluate(Functional.from_density(m, h), s)
            v2 = evaluate(Functional.from_density(m, h2), s)
            assert (v1 - v2).max_abs() < 1e-9


def test_product_evaluation_is_grassmann_product(m):
    rng = random.Random(8)
    for _ in range(10):
        a = random_density(m, 1, 2, 0, rng)
        b = random_density(m, 1, 2, rng.randint(0, 1), rng)
        F = Functional.from_density(m, a)
        G = Functional.from_density(m, b)
        s = random_section(m, rng, odd_gen=0)
        lhs = evaluate(F * G, s)
        rhs = evaluate(F, s) * evaluate(G, s)
        assert (lhs - rhs).max_abs() < 1e-9


def test_sign_oracle_finite_difference(m):
    rng = random.Random(9)
    eps = 1e-4

    def even_density(max_order, max_degree):
        out = Expr.zero()
        for _ in range(rng.randint(1, 3)):
            mono = Expr.scalar(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(1, max_degree)):
                mono = mono * m.jet("q", (rng.randint(0, max_order),))
            out = out + mono
        return out if not out.is_zero() else m.jet("q") * m.jet("q")

    for i in range(6):
        f0 = even_density(2, 3)
        B = even_density(1, 2)
        Ff = Functional.from_density(m, f0)
        Gf = Functional.from_density(m, m.jet("q", dagger=True) * B)
        s = SectionSpec(m, {("q", False): [(0.7, (("sin", 1),)), (0.3, (("cos", 2),))]})
        val = evaluate(schouten(Ff, Gf), s).body()
        plus = evaluate(Ff, s, shift=("q", eps, B)).body()
        minus = evaluate(Ff, s, shift=("q", -eps, B)).body()
        fd = (plus - minus) / (2 * eps)
        scale = max(1.0, abs(fd))
        assert abs(val - fd) <= 1e-4 * scale
        swapped = evaluate(schouten(Gf, Ff), s).body()
        assert abs(swapped + fd) <= 1e-4 * scale


_REIMPORT = """
import gc, importlib, sys, weakref
import bvcalc
from bvcalc import algebra
from bvcalc.bv import schouten
from bvcalc.models import LieAlgebraData, build_yang_mills_bv
S = build_yang_mills_bv(LieAlgebraData.su2(), 2)[1]
schouten(S, S).collapse()
assert any(type(a) is algebra.Attach for a in algebra._INTERNED.values())
old = [weakref.ref(m) for name, m in sys.modules.items() if name.partition(".")[0] == "bvcalc"]
old += [weakref.ref(c) for c in (bvcalc.GrassmannNumber, bvcalc.Expr, bvcalc.Functional,
                                 algebra.JetVar, algebra.Attach)]
del bvcalc, algebra, schouten, LieAlgebraData, build_yang_mills_bv, S
for name in [n for n in sys.modules if n.partition(".")[0] == "bvcalc"]:
    del sys.modules[name]
importlib.import_module("bvcalc")
gc.collect()
sys.exit(sum(r() is not None for r in old))
"""


def test_a_fresh_import_lets_the_previous_one_go():
    # nothing of one import of bvcalc may sit in a process-wide cache: a
    # subscripted typing alias built at import (typing caches those) kept
    # GrassmannNumber, and through it every module of that import, alive
    # when bvcalc was imported afresh, as the benchmark's set-ups do; the
    # intern table, filled here by a bracket, goes with its import
    src = os.path.dirname(os.path.dirname(os.path.abspath(bvcalc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, timeout=60)
    assert done.returncode == 0, f"{done.returncode} objects of the first import are alive"

