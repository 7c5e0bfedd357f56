"""The benchmark's three workloads and the inputs they draw from the seed.

Each workload builds a list of cases from a freshly imported bvcalc.  A case
runs one verdict through bvcalc's public entry points and returns ``None``
when the verdict is the expected one, or a one-line reason when it is not.

Seeds.  The random functionals have heavy-tailed costs: the cost of a Jacobi
case is set by the shape of its three random densities (which jet variables
appear, at which degree), and a fresh draw of shapes per seed moves the total
time of 100 cases by about 20% from seed to seed.  So the shapes are drawn
from a fixed structure seed (the acceptance seed), and the run's seed redraws
every monomial coefficient of every random density from the generator's own
coefficient set.  Runs on different seeds then decide different identities
of the same size.  ``ym-su2-n4`` has no random input: its action is fixed.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

STRUCTURE_SEED = 20240808  # the acceptance seed of tests/test_acceptance.py

MODULES = ("coeff", "algebra", "jetcalc", "cohomology", "bv", "models",
           "grammar", "oracle", "cli")


def load_bvcalc():
    """Import bvcalc afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "bvcalc" or n.startswith("bvcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("bvcalc")
    mods = {m: importlib.import_module(f"bvcalc.{m}") for m in MODULES}
    return SimpleNamespace(package=package, **mods)


class SeededCoefficients:
    """While active, every density that ``models.random_density`` returns gets
    its monomial coefficients redrawn from ``COEFFICIENTS`` by an rng keyed
    on (run seed, case key)."""

    COEFFICIENTS = (1, -1, 2, -2, 3)  # random_density's own choices

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.rng = random.Random(f"{seed}:")
        self._original = None

    def case(self, key: str):
        self.rng = random.Random(f"{self.seed}:{key}")

    def __enter__(self):
        models = self.lib.models
        Monomial = self.lib.algebra.Monomial
        Coefficient = self.lib.coeff.Coefficient
        Expr = self.lib.algebra.Expr
        original = self._original = models.random_density

        def redrawn(*args, **kwargs):
            d = original(*args, **kwargs)
            return Expr({
                k: Monomial(Coefficient.of(self.rng.choice(self.COEFFICIENTS)),
                            m.even, m.odd)
                for k, m in d.terms.items()
            })

        models.random_density = redrawn
        return self

    def __exit__(self, *exc):
        self.lib.models.random_density = self._original
        return False


class Spans:
    """Wall seconds per named benchmark step (per case and per pipeline step)."""

    def __init__(self):
        self.seconds = {}

    def add(self, name: str, dt: float):
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)


class Case:
    __slots__ = ("label", "span", "run")

    def __init__(self, label, span, run):
        self.label = label
        self.span = span  # span the case's wall time is added to
        self.run = run    # run(spans) -> None, or a reason the verdict is wrong


def _block_sizes(F):
    return [len(b.terms) for blocks in F.terms for b in blocks]


# ---------------------------------------------------------------------------
# ym-su2-n4


YM_STEPS = ("delta_s", "schouten_ss", "collapse_ss", "euler_ss", "qme")


def build_ym(lib, seeds):
    """Criterion 2's pipeline on su(2) Yang-Mills over a 4-dimensional base."""
    model, S = lib.models.build_yang_mills_bv(lib.models.LieAlgebraData.su2(), 4)

    def run(spans):
        bv, jetcalc = lib.bv, lib.jetcalc
        problems = []
        if _block_sizes(S) != [219]:
            problems.append(f"S has blocks of {_block_sizes(S)} monomials, not [219]")
        with spans("ym.delta_s"):
            delta_zero = bv.laplacian(S).is_zero()
        if not delta_zero:
            problems.append("Delta S != 0")
        with spans("ym.schouten_ss"):
            ss = bv.schouten(S, S)
        with spans("ym.collapse_ss"):
            ss = ss.collapse()
        if _block_sizes(ss) != [972]:
            problems.append(f"collapsed [[S,S]] has {_block_sizes(ss)} monomials, not [972]")
        with spans("ym.euler_ss"):
            nonzero = sum(
                1
                for blocks in ss.terms for b in blocks
                for name, dagger in model.variables()
                if not jetcalc.euler_left(model, b, name, dagger).is_zero()
            )
        if nonzero:
            problems.append(f"{nonzero} Euler operators of [[S,S]] are nonzero")
        with spans("ym.qme"):
            qme = bv.check_master_equation(S).passed
        if not qme:
            problems.append("check_master_equation failed")
        return "; ".join(problems) or None

    return [Case("ym-su2-n4", None, run)], []


# ---------------------------------------------------------------------------
# identity-suites

SUITES = ("leibniz-1a", "laplacian-1b", "derivation-1c", "delta-squared-1d",
          "jacobi", "skew")
SUITE_CASES = 20
STRUCTURAL_RATE_MIN = 0.9  # criterion 3's bound on derivation-1c


def build_suites(lib, seeds):
    """The six criterion-3 suites on the 1D scalar model, one timed case per
    ``cli.run_suite(suite, cases=1, ...)`` call, plus the scalar pair of
    derivation-1c in geometric mode (passes) and naive mode (fails)."""
    structural = []

    def suite_case(suite, i):
        label = f"{suite}#{i}"

        def run(spans):
            seeds.case(label)
            passed, results = lib.cli.run_suite(
                suite, cases=1, seed=STRUCTURE_SEED + i, max_order=2)
            if suite == "derivation-1c":
                structural.append(bool(results[0].get("structural")))
            return None if passed else "identity not verified"

        return Case(label, f"cli.run_suite.{suite}", run)

    def scalar_pair(mode, expect_pass):
        def run(spans):
            passed, results = lib.cli.run_suite(
                "derivation-1c", cases=1, seed=STRUCTURE_SEED, max_order=2,
                mode=mode, scalar_pair=True)
            if expect_pass:
                return None if passed else "geometric scalar pair failed"
            if passed:
                return "naive scalar pair passed; it must fail"
            if not results[0].get("discrepancy"):
                return "naive scalar pair failed without a discrepancy"
            return None

        return Case(f"derivation-1c/scalar-pair/{mode}",
                    "cli.run_suite.derivation-1c", run)

    cases = [suite_case(s, i) for s in SUITES for i in range(SUITE_CASES)]
    cases.append(scalar_pair(lib.bv.GEOMETRIC, True))
    cases.append(scalar_pair(lib.bv.NAIVE, False))

    def structural_rate():
        rate = sum(structural) / len(structural) if structural else 0.0
        structural.clear()
        if rate <= STRUCTURAL_RATE_MIN:
            return f"derivation-1c structural rate {rate:.2f} <= {STRUCTURAL_RATE_MIN}"
        return None

    return cases, [("derivation-1c structural rate", structural_rate)]


# ---------------------------------------------------------------------------
# nested-brackets

NESTED_CASES = 36


def build_nested(lib, seeds):
    """[[S,X]] = [[X,S]] structurally, with X = [[S,[[S,O]]]]: six channel
    labels per monomial, so the canonicaliser dominates."""
    m = lib.jetcalc.BvModel(1, [("q", 0)])
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd, qdx, qdxx = (m.jet("q", (k,), dagger=True) for k in (0, 1, 2))
    S = lib.cohomology.Functional.from_density(
        m, qd * qdx * q + qx * qx * q + qd * qdxx * qx)
    observables = []
    for i in range(NESTED_CASES):
        seeds.case(f"O#{i}")
        observables.append(lib.models.random_functional(m, 1, 1, 0, STRUCTURE_SEED + i))

    def case(i, O):
        def run(spans):
            bv = lib.bv
            X = bv.schouten(S, bv.schouten(S, O))
            # both sides are even, so skew-symmetry carries the sign +
            same = lib.cohomology.functional_equal(
                bv.schouten(S, X), bv.schouten(X, S), "structural")
            return None if same else "[[S,X]] != [[X,S]]"

        return Case(f"nested#{i}", None, run)

    return [case(i, O) for i, O in enumerate(observables)], []


WORKLOADS = {
    "ym-su2-n4": build_ym,
    "identity-suites": build_suites,
    "nested-brackets": build_nested,
}
