"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from bvcalc import BvModel, Expr
from bvcalc.algebra import make_attach
from bvcalc.cohomology import Functional, functional_equal
from bvcalc.jetcalc import collapse, euler_left, iterated_variation
from bvcalc.bv import (
    GEOMETRIC,
    NAIVE,
    check_identity,
    check_master_equation,
    laplacian,
    schouten,
)
from bvcalc.cli import run_suite
from bvcalc.models import (
    LieAlgebraData,
    build_scalar_example,
    build_yang_mills_bv,
    random_density,
    random_functional,
)
from bvcalc.oracle import GrassmannNumber, SectionSpec, evaluate

SEED = 20240808


def _report(number: int, name: str, passed: bool, t0: float, limit=None):
    elapsed = time.time() - t0
    status = "PASS" if passed else "FAIL"
    budget = f" (limit {limit}s)" if limit else ""
    print(f"[acceptance] criterion {number} {name}: {status} "
          f"in {elapsed:.2f}s{budget}")
    assert passed, f"criterion {number} ({name}) failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_scalar_example():
    t0 = time.time()
    model, F, G = build_scalar_example()
    f = next(iter(F.blocks()))
    g = next(iter(G.blocks()))
    q, qxx = model.jet("q"), model.jet("q", (2,))
    qd = model.jet("q", dagger=True)
    qdx = model.jet("q", (1,), dagger=True)
    qdxx = model.jet("q", (2,), dagger=True)
    qx = model.jet("q", (1,))

    # (a) the two variational derivatives, exactly
    ok = euler_left(model, f, "q") == (
        (qd * qxx).scale(2) + (qdx * qx).scale(2) + qdxx * q)
    ok &= euler_left(model, g, "q") == -(qdxx * model.sin("q"))

    # (b) structured Laplacians
    dF = laplacian(F)
    dG = laplacian(G)
    exp_dF = Functional.from_density(model, qxx + make_attach(((2,),), q))
    exp_dG = Functional.from_density(model, make_attach(((2,),), -model.sin("q")))
    ok &= functional_equal(dF, exp_dF, "structural")
    ok &= functional_equal(dG, exp_dG, "structural")

    # (c) [[Delta F, G]] vanishes exactly
    ok &= schouten(laplacian(F), G).is_zero()

    # (d) the derivation identity, structurally and after collapse
    L = laplacian(schouten(F, G))
    R = schouten(F, laplacian(G)) + schouten(laplacian(F), G)
    ok &= functional_equal(L, R, "structural")
    ok &= functional_equal(L, R, "collapse")
    # common collapsed value ~ (q q_xx) * D^2(cos q)
    common = (q * qxx) * collapse(make_attach(((2,),), model.cos("q")))
    ok &= functional_equal(L.collapse(), Functional.from_density(model, common),
                           "collapse")
    _report(1, "scalar example", ok, t0, limit=1.0)


def test_criterion_2_yang_mills_su2_n4():
    t0 = time.time()
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 4)
    ok = laplacian(S).is_zero()
    ss = schouten(S, S).collapse()
    for blocks, _ in ss.terms.items():
        for b in blocks:
            for name, dagger in model.variables():
                ok &= euler_left(model, b, name, dagger).is_zero()
    rep = check_master_equation(S)
    ok &= rep.passed
    ok &= laplacian(S).collapse().is_zero()
    _report(2, "Yang-Mills su(2) n=4", ok, t0, limit=60.0)


def test_criterion_3_identity_suites():
    t0 = time.time()
    ok = True
    structural_rate = None
    for suite in ("leibniz-1a", "laplacian-1b", "derivation-1c",
                  "delta-squared-1d", "jacobi", "skew"):
        passed, results = run_suite(suite, cases=100, seed=SEED, max_order=2)
        ok &= passed
        if suite == "derivation-1c":
            structural_rate = sum(1 for r in results if r.get("structural")) / len(results)
    print(f"  derivation-1c structural pass rate: {structural_rate:.2f}")
    ok &= structural_rate is not None and structural_rate > 0.9
    _report(3, "identity suites (100 cases each)", ok, t0, limit=300.0)


def test_criterion_4_naive_mode_regression():
    t0 = time.time()
    model, F, G = build_scalar_example()
    ok = schouten(F, laplacian(G, NAIVE), NAIVE).is_zero()
    passed, results = run_suite("derivation-1c", cases=1, seed=SEED,
                                max_order=2, mode=NAIVE, scalar_pair=True)
    ok &= not passed
    ok &= any("discrepancy" in r for r in results)
    disc = next(r["discrepancy"] for r in results if "discrepancy" in r)
    ok &= len(disc) > 0
    print(f"  naive-mode discrepancy density: {disc}")
    _report(4, "naive-mode regression", ok, t0, limit=1.0)


def test_criterion_5_two_ways_discrepancy():
    t0 = time.time()
    m = BvModel(1, [("q", 0)])
    qx = m.jet("q", (1,))
    naive, _ = iterated_variation(m, qx * qx, [("q", False), ("q", False)], NAIVE)
    geo, _ = iterated_variation(m, qx * qx, [("q", False), ("q", False)], GEOMETRIC)
    ok = collapse(geo) != naive
    ok &= not naive.is_zero() and collapse(geo).is_zero()

    rng = random.Random(SEED)
    for _ in range(50):
        d = random_density(m, 2, 3, rng.randint(0, 1), rng)
        a = ("q", rng.random() < 0.5)
        b = ("q", rng.random() < 0.5)
        g_ab, _ = iterated_variation(m, d, [a, b], GEOMETRIC, include_shifts=False)
        g_ba, _ = iterated_variation(m, d, [b, a], GEOMETRIC, include_shifts=False)
        sign = (-1) ** (m.parity(*a) * m.parity(*b))
        ok &= g_ab == g_ba.scale(sign)
    _report(5, "iterated-variation discrepancy", ok, t0)


def test_criterion_6_appendix_power_lemmas():
    t0 = time.time()
    m = BvModel(1, [("q", 0)])
    ok = True
    for i in range(20):
        F = random_functional(m, 1, 2, 0, SEED + 100 + i)
        G = random_functional(m, 1, 2, i % 2, SEED + 200 + i)
        # n = 1..4 in [[G, F^n]] and n = 2..4 in Delta(F^n)
        ok &= check_identity("powers", (F, G)).passed
    _report(6, "appendix power lemmas", ok, t0)


def test_criterion_7_quantum_layer():
    t0 = time.time()
    ok = True
    ym_model, S_ym = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    for i in range(10):
        O = random_functional(ym_model, 1, 2, 0, SEED + 300 + i)
        rep = check_identity("omega", (O, S_ym))
        ok &= rep.passed and rep.data["agreed"] == [True, True]

    m = BvModel(1, [("q", 0)])
    # an even action, the KdV Hamiltonian int (q^3 - q_x^2/2)
    q, qx = m.jet("q"), m.jet("q", (1,))
    S = Functional.from_density(m, q * q * q - (qx * qx).scale(Fraction(1, 2)))
    for i in range(50):
        F1 = random_functional(m, 1, 2, 1, SEED + 400 + i)
        F2 = random_functional(m, 1, 2, 1, SEED + 500 + i)
        ok &= check_identity("gauge-closure", (F1, F2, S)).passed
    for i in range(50):
        Se = random_functional(m, 1, 2, 0, SEED + 600 + i)
        O = random_functional(m, 1, 2, 0, SEED + 700 + i)
        F = random_functional(m, 1, 2, 1, SEED + 800 + i)
        xi = random_functional(m, 1, 2, 1, SEED + 900 + i)
        ok &= check_identity("cocycles", (Se, O, F, None)).passed
        ok &= check_identity("cocycles", (Se, None, F, xi)).passed
    _report(7, "quantum layer", ok, t0, limit=300.0)


def test_criterion_8_numeric_oracle():
    t0 = time.time()
    from bvcalc.jetcalc import total_derivative

    m = BvModel(1, [("q", 0)])
    rng = random.Random(SEED)
    ok = True

    def rand_section(j):
        def poly(grass=None):
            terms = []
            for _ in range(rng.randint(1, 2)):
                c = rng.uniform(-1, 1)
                if grass is not None:
                    c = grass.scale(c)
                terms.append((c, ((rng.choice(("sin", "cos")), rng.randint(1, 2)),)))
            return terms
        return SectionSpec(m, {
            ("q", False): poly(),
            ("q", True): poly(GrassmannNumber.generator(j)),
        })

    for i in range(20):
        h = random_density(m, 2, 3, rng.randint(0, 1), rng)
        r = random_density(m, 1, 2, rng.randint(0, 1), rng)
        pair = (h, h + total_derivative(r, 0))
        for j in range(5):
            s = rand_section(j)
            v1 = evaluate(Functional.from_density(m, pair[0]), s)
            v2 = evaluate(Functional.from_density(m, pair[1]), s)
            ok &= (v1 - v2).max_abs() < 1e-9

    eps = 1e-4

    def even_density(max_order, max_degree):
        out = Expr.zero()
        for _ in range(rng.randint(1, 3)):
            mono = Expr.scalar(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(1, max_degree)):
                mono = mono * m.jet("q", (rng.randint(0, max_order),))
            out = out + mono
        return out if not out.is_zero() else m.jet("q") * m.jet("q")

    for i in range(8):
        f0 = even_density(2, 3)
        B = even_density(1, 2)
        Ff = Functional.from_density(m, f0)
        Gf = Functional.from_density(m, m.jet("q", dagger=True) * B)
        s = SectionSpec(m, {("q", False): [(0.6, (("sin", 1),)),
                                           (0.4, (("cos", 2),))]})
        val = evaluate(schouten(Ff, Gf), s).body()
        plus = evaluate(Ff, s, shift=("q", eps, B)).body()
        minus = evaluate(Ff, s, shift=("q", -eps, B)).body()
        fd = (plus - minus) / (2 * eps)
        ok &= abs(val - fd) <= 1e-4 * max(1.0, abs(fd))
    _report(8, "numeric oracle", ok, t0)
