"""Golden-output regression test.

One SHA-256 over the canonical keys of a fixed set of results: su(2)
Yang-Mills at n=2 (Delta S, the collapsed [[S,S]], its Euler images and its
triviality image), [[S,X]] for three nested-bracket observables, and the
Schouten bracket and BV-Laplacian of seeded two-field functionals on a
two-dimensional base in both modes.  Every result is hashed with its
channel labels erased (``util_random.erase_labels``): a label is a bound
name, so the digest pins results up to renaming them, and how an operation
names its channels does not enter the digest.

A second SHA-256, ``VERDICTS``, pins the verdicts of every check suite in
both modes: (suite, mode, case, seed, passed, structural) for two cases at
seed 9.

A third, ``ITERATED``, pins iterated variations: the extended model's fields
and the label-erased result of ``iterated_variation`` on seeded densities
(with trig factors and pending-derivative blocks) over models with odd
fields, in both modes, with and without shift fields, for one to three
shifts.  Odd shift fields meet odd targets there, so the Koszul sign of
passing a shift field shows.

A change that is meant to keep every output unchanged (a performance change)
must keep these digests.  A change that alters outputs on purpose updates
``GOLDEN``, ``VERDICTS`` or ``ITERATED`` and says why.
"""

import hashlib
import random

from bvcalc import BvModel
from bvcalc.bv import GEOMETRIC, NAIVE, laplacian, schouten
from bvcalc.cli import run_suite
from bvcalc.cohomology import _triviality_image
from bvcalc.jetcalc import euler, iterated_variation
from bvcalc.models import LieAlgebraData, build_yang_mills_bv, random_functional

from util_random import erase_labels, nested_brackets, random_expr

GOLDEN = "4c99c9e1cb41bdedf00227807ddf2526c8aba1829057766e26460f4c09e73176"
VERDICTS = "1a8ed26d3e954364951fa7455701b299b036e989fcf0659fc73631da597bff99"
ITERATED = "ea4263e99423c1bade5ba100cc1a4612aa43f65f0a28971d450ac33b7adb0842"

SUITES = ("leibniz-1a", "laplacian-1b", "derivation-1c", "delta-squared-1d",
          "jacobi", "skew", "powers", "omega", "gauge-closure", "cocycles")


def _functional_key(F):
    return erase_labels(F)


def _image_key(img):
    """The triviality image with each coordinate's term key (even, odd)
    spelled out as nested atom keys."""
    def nested(coord):
        even, odd = coord[-1]
        return coord[:-1] + ((tuple((a.key, k) for a, k in even), tuple(a.key for a in odd)),)
    return sorted((nested(coord), c.key()) for coord, c in img.items())


def _images(name, model, F):
    """Left and right Euler images and the triviality image of each block."""
    for b in F.collapse().blocks():
        for field, dagger in model.variables():
            for side in ("left", "right"):
                e = euler(model, b, field, dagger, side)
                yield f"{name} E_{side} {field},{dagger}", e.key()
        yield f"{name} triviality image", _image_key(_triviality_image(model, b))


def _golden_items():
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    yield "ym Delta S", _functional_key(laplacian(S))
    ss = schouten(S, S).collapse()
    yield "ym [[S,S]] collapsed", _functional_key(ss)
    yield from _images("ym [[S,S]]", model, ss)
    yield from _images("ym S", model, S)

    for seed in (20240808, 20240810, 20240811):
        _, S1, X = nested_brackets(2, seed)
        yield f"nested [[S,X]] {seed}", _functional_key(schouten(S1, X))

    plane = BvModel(2, [("u", 0), ("c", 1)])
    for seed in range(3):
        F = random_functional(plane, 2, 3, 0, 100 + seed)
        G = random_functional(plane, 2, 3, 1, 200 + seed)
        for mode in (GEOMETRIC, NAIVE):
            FG = schouten(F, G, mode)
            yield f"plane [[F,G]] {seed} {mode}", _functional_key(FG)
            yield from _images(f"plane [[F,G]] {seed} {mode}", plane, FG)
            yield f"plane Delta F {seed} {mode}", _functional_key(laplacian(F, mode))
            yield f"plane Delta G {seed} {mode}", _functional_key(laplacian(G, mode))


def golden_digest() -> str:
    h = hashlib.sha256()
    for name, key in _golden_items():
        h.update(f"{name}: {key!r}\n".encode())
    return h.hexdigest()


def test_golden_outputs():
    assert golden_digest() == GOLDEN


def verdict_digest() -> str:
    h = hashlib.sha256()
    for suite in SUITES:
        for mode in (GEOMETRIC, NAIVE):
            _, results = run_suite(suite, cases=2, seed=9, max_order=2, mode=mode)
            for r in results:
                h.update(f"{suite} {mode} {r['case']} {r['seed']} {r['passed']} "
                         f"{r.get('structural')}\n".encode())
    return h.hexdigest()


def test_golden_verdicts():
    assert verdict_digest() == VERDICTS


ITERATED_CASES = 40  # seeded densities per model
ITERATED_MODELS = {
    "ghost": BvModel(1, [("q", 0), ("c", 1)]),
    "plane": BvModel(2, [("u", 0), ("c", 1)]),
    "two-odd": BvModel(1, [("q", 0), ("c", 1), ("b", -1)]),
}


def iterated_digest() -> str:
    h = hashlib.sha256()
    for seed, (name, model) in enumerate(ITERATED_MODELS.items(), start=300):
        variables = list(model.variables())
        rng = random.Random(seed)
        for case in range(ITERATED_CASES):
            f = (random_expr(model, rng, with_attach=True)
                 * random_expr(model, rng, terms=2, with_attach=True))
            # shifts along the variables f depends on outside its blocks,
            # so that most variations are nonzero
            occurring = sorted({a.var for a in f.atoms() if a.var is not None}) or variables
            shifts = [rng.choice(occurring) for _ in range(rng.randint(1, 3))]
            for mode in (GEOMETRIC, NAIVE):
                for include_shifts in (True, False):
                    e, ext = iterated_variation(model, f, shifts, mode, include_shifts)
                    h.update(f"{name} {case} {shifts} {mode} {include_shifts}: {ext.fields!r} "
                             f"{erase_labels(e)!r}\n".encode())
    return h.hexdigest()


def test_golden_iterated_variations():
    assert iterated_digest() == ITERATED
