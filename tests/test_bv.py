import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest

from bvcalc import Expr
from bvcalc.coeff import Coefficient
from bvcalc.algebra import ParityError, make_attach
from bvcalc.cohomology import Functional, functional_equal
from bvcalc.jetcalc import collapse, euler, eulers
from bvcalc import bv
from bvcalc.bv import (
    GEOMETRIC,
    IDENTITIES,
    NAIVE,
    Identity,
    check_identity,
    check_master_equation,
    laplacian,
    laplacian_density,
    omega,
    schouten,
    schouten_density,
    _summarize,
)
from bvcalc.grammar import (
    _coeff_prefix,
    _join_signed,
    format_atom,
    format_coefficient,
    format_expr,
    parse_expr,
)
from bvcalc.models import LieAlgebraData, build_scalar_example, build_yang_mills_bv, random_functional

from util_random import (
    ghost_model,
    isolated,
    labelled_operands,
    nested_brackets,
    plane_model,
    reference_bracket_density,
    reference_bracket_images,
    reference_laplacian,
    reference_schouten,
    scalar_model,
)

MODELS = {"scalar": scalar_model, "ghost": ghost_model, "plane": plane_model}


@pytest.fixture
def m():
    return scalar_model()


@pytest.fixture
def walked(monkeypatch):
    """The operand of every Euler walk that ``bv`` makes, in order."""
    operands = []

    def counted(model, e, *args, **kwargs):
        operands.append(e)
        return eulers(model, e, *args, **kwargs)

    monkeypatch.setattr(bv, "eulers", counted)
    return operands


def rf(model, parity, seed, order=2, degree=3, blocks=1):
    return random_functional(model, order, degree, parity, seed, n_blocks=blocks)


def zero(model):
    return Functional.zero(model)


# -- core densities ---------------------------------------------------------

def test_scalar_example_densities():
    m, F, G = build_scalar_example()
    f = next(iter(F.blocks()))
    g = next(iter(G.blocks()))
    q, qxx = m.jet("q"), m.jet("q", (2,))
    dF = laplacian_density(m, f)
    # structured Delta F = q_xx + pending-D^2(q); Delta G = pending-D^2(-sin q)
    assert dF == qxx + make_attach(((2,),), q)
    dG = laplacian_density(m, g)
    assert dG == make_attach(((2,),), -m.sin("q"))
    # no antifield present: Delta vanishes
    assert laplacian_density(m, m.jet("q") * m.jet("q", (1,))).is_zero()


def test_bracket_derived_example(m):
    # [[int dag(q) q_x, int q^2]] has collapsed density -2 q q_x
    qd_qx = m.jet("q", dagger=True) * m.jet("q", (1,))
    q2 = m.jet("q") * m.jet("q")
    br = schouten_density(m, qd_qx, q2)
    assert collapse(br) == -(m.jet("q") * m.jet("q", (1,))).scale(2)


def test_bracket_with_constant_block(m):
    F = rf(m, 1, 41)
    c = Functional.constant(m, 5)
    assert schouten(F, c).is_zero()
    assert schouten(c, F).is_zero()


def test_parity_heterogeneous_rejected(m):
    het = Functional.from_density(m, m.jet("q")) + Functional.from_density(
        m, m.jet("q", dagger=True) * m.jet("q") * m.jet("q"))
    good = rf(m, 0, 42)
    with pytest.raises(ParityError):
        schouten(het, good)
    with pytest.raises(ParityError):
        laplacian(het)


# -- the canonical identities ----------------------------------------------

@pytest.mark.parametrize("model_name", ["scalar", "ghost"])
def test_skew_symmetry(model_name):
    # together with the acceptance run this exercises 200 random pairs
    model = scalar_model() if model_name == "scalar" else ghost_model()
    for i in range(50):
        F = rf(model, random.Random(i).randint(0, 1), 100 + i)
        G = rf(model, random.Random(i + 9).randint(0, 1), 200 + i)
        e = ((F.parity() - 1) * (G.parity() - 1)) & 1
        s, t = schouten(F, G), schouten(G, F)
        tot = s + (t if e == 0 else -t)
        assert functional_equal(tot, zero(model), "structural")


def test_skew_symmetry_of_deeply_nested_bracket():
    # [[S,X]] and [[X,S]] with X = [[S,[[S,[[S,O]]]]]] and one bracket more:
    # X's monomials name up to six channels, and there is no limit on their
    # number.  Both sides are even, so skew-symmetry carries the sign +; the
    # two term maps are equal as built
    for depth in (3, 4):
        _, S, X = nested_brackets(depth)
        if depth == 3:
            assert max(format_expr(Expr({k: mono})).count(":")
                       for b in X.blocks() for k, mono in b.terms.items()) == 6
        assert schouten(S, X).terms == schouten(X, S).terms
        assert functional_equal(schouten(S, X), schouten(X, S), "structural")


def _density(F):
    """The density of a functional that is one block with coefficient 1."""
    ((b,), c), = F.terms.items()
    assert c == Coefficient.one()
    return b


@functools.lru_cache(maxsize=None)
def _reference_operands():
    """Operand pairs {name: (model, f, g)} for the geometric bracket: plain
    and holding blocks, X at depth 1-3, odd and even, two operands sharing
    the blocks of one ancestor, and parsed frozen blocks."""
    return {name: (model, f, g) for name, model, f, g in _reference_pairs()}


def _reference_pairs():
    model, S, X1 = nested_brackets(1)
    s = _density(S)
    x = [_density(X1)]
    for _ in range(2):
        x.append(schouten_density(model, s, x[-1]))
    o = _density(random_functional(model, 1, 1, 0, 20240808))
    odd = schouten_density(model, s, _density(random_functional(model, 1, 1, 1, 7)))
    yield "plain", model, s, o
    for depth, xd in enumerate(x, start=1):
        yield f"[[S, X{depth}]]", model, s, xd
        yield f"[[X{depth}, S]]", model, xd, s
    yield "[[X2, X1]]", model, x[1], x[0]
    yield "[[X1, X1]]", model, x[0], x[0]
    yield "odd", model, odd, x[0]
    yield "odd, odd", model, odd, odd
    yield "[[X, [[S,X]]]]", model, x[0], schouten_density(model, s, x[0])
    parsed = parse_expr("frz[1:x1](q)*dag(q)*q_x + frz[4:x1 x1](q*dag(q))*q", model)
    yield "parsed", model, parsed, s
    yield "parsed, labelled", model, x[0], parsed
    ghost = ghost_model()
    f, g = _density(rf(ghost, 1, 31)), _density(rf(ghost, 0, 131))
    fg = schouten_density(ghost, f, g)
    yield "ghost", ghost, fg, g
    yield "ghost, odd", ghost, f, fg
    yield "ghost, same", ghost, fg, fg


@pytest.mark.parametrize("name", [
    "plain", "[[S, X1]]", "[[X1, S]]", "[[S, X2]]", "[[X2, S]]", "[[S, X3]]",
    "[[X3, S]]", "[[X2, X1]]", "[[X1, X1]]", "odd", "odd, odd", "[[X, [[S,X]]]]",
    "parsed", "parsed, labelled", "ghost", "ghost, odd", "ghost, same"])
def test_bracket_agrees_with_raw_image_products(name):
    # the bracket on left images equals the products of the right images of
    # f and the left images of g, and so does its collapse
    model, f, g = _reference_operands()[name]
    new = schouten_density(model, f, g)
    ref = reference_bracket_density(model, f, g)
    assert new == ref
    assert collapse(new) == collapse(ref)


@pytest.mark.parametrize("inner", ["q^2", "q*q_x", "dag(q)*q_x", "dag(q)_x*q^2"])
def test_a_block_in_both_images_is_squared_or_vanishes(m, inner):
    # f = B dag(q) and g = B q hold one block B, which the image of f by
    # dag(q) and that of g by q keep whole: their product in [[f, g]] holds
    # B squared when B is even, and vanishes when it is odd.  Collapse is
    # multiplicative, so the bracket collapses as the products of the
    # collapsed reference images do, an odd collapsed B squared to zero
    B = parse_expr(f"frz[0:x1]({inner})", m)
    ((block,),) = [[a for a in B.atoms()]]
    f, g = B * m.jet("q", dagger=True), B * m.jet("q")
    bracket = schouten_density(m, f, g)
    twice = [mono for mono in bracket.monomials() if (block, 2) in mono.even]
    assert bool(twice) == (block.parity == 0) and (B * B).is_zero() == bool(block.parity)
    pairs, er, el = reference_bracket_images(m, f, g)
    expected = Expr.zero()
    for ev, od in pairs:
        expected = (expected + collapse(er[ev]) * collapse(el[od])
                    - collapse(er[od]) * collapse(el[ev]))
    assert collapse(bracket) == expected != Expr.zero()


def test_a_plain_operand_keeps_its_images_for_its_life(walked):
    # images are kept on every operand, plain or holding a block: the
    # long-lived S and O are walked once for X = [[S,[[S,O]]]], [[S,X]] and
    # [[X,S]], not again by a second round, and a verdict on them reads the
    # same images
    m, S, _ = nested_brackets(0)
    O = random_functional(m, 2, 3, 0, 77)
    plain = [b for F in (S, O) for b in F.blocks()]

    def bracket():
        X = schouten(S, schouten(S, O))
        lhs, rhs = schouten(S, X), schouten(X, S)
        return functional_equal(lhs, rhs, "structural")

    assert bracket() and bracket()
    assert [sum(e is b for e in walked) for b in plain] == [1, 1]
    assert all(list(b._images) == [(m, True)] for b in plain)
    kept = [b._images[m, True] for b in plain]
    assert check_identity("derivation-1c", (S, O)).passed
    assert all(b._images[m, True] is k for b, k in zip(plain, kept))


def test_raw_results_do_not_depend_on_call_history():
    # a bracket names no channel, so two identical calls give equal raw
    # results
    model, S, X = nested_brackets(2)
    O = rf(model, 0, 5)
    for F, G in ((S, X), (X, S), (O, X), (S, O)):
        first = schouten(F, G)
        assert not first.is_zero()
        assert first == schouten(F, G)
    for F in (O, schouten(O, O), schouten(S, O)):
        assert laplacian(F) == laplacian(F)
    assert not laplacian(O).is_zero()
    for F in (S, X):
        assert omega(X, F) == omega(X, F)


# -- the Euler images of an operand that holds a block, kept on it ---------------


def _raw(e):
    """The term map of ``e`` as a list, term order included."""
    return [(k, m.coeff) for k, m in e.terms.items()]


def _fresh(e):
    """A copy of ``e`` that carries none of its memos."""
    return Expr(dict(e.terms))


def _operands(model_name, seeds=(0, 1, 2)):
    """Seeded operands of both parities, plain, holding blocks and nested,
    and their ordered pairs; [[z, z]] is left out for its size."""
    model = MODELS[model_name]()
    for seed in seeds:
        ops = labelled_operands(model, seed)
        yield model, ops, [(fn, gn) for fn in ops for gn in ops if not fn == gn == "z"]


@pytest.mark.parametrize("mode", [GEOMETRIC, NAIVE])
@pytest.mark.parametrize("model_name", list(MODELS))
def test_bracket_density_agrees_with_the_image_reference(model_name, mode):
    # the raw term maps, term order included, equal those of the bracket
    # that walks both operands in every call: on fresh copies, never one
    # object (the images are made), and on operands bracketed before and in
    # the other order (the images are read); a self-pair is folded in
    # either mode; naive mode collapses the nested z into large plain
    # densities first, and leaves it out
    labelled = 0
    for model, ops, pairs in _operands(model_name):
        labelled += sum(e.has_attach() for e in ops.values())
        for fn, gn in pairs:
            if mode == NAIVE and "z" in (fn, gn):
                continue
            f, g = ops[fn], ops[gn]
            ref = _raw(reference_bracket_density(model, f, g, mode))
            assert _raw(schouten_density(model, _fresh(f), _fresh(g), mode)) == ref, (fn, gn)
            got = _raw(schouten_density(model, f, g, mode))
            if f is g:
                # the self-pair is folded: the same terms, which may be
                # filed in another order
                assert dict(got) == dict(ref), fn
            else:
                assert got == ref, (fn, gn)
    assert labelled >= 8


def test_bracket_of_functionals_agrees_with_the_image_reference(monkeypatch):
    # raw schouten, on products of blocks that hold frozen blocks, equals schouten
    # with every density taken by the reference
    def raw(F):
        return [(tuple(_raw(b) for b in blocks), c) for blocks, c in F.terms.items()]

    cases = []
    for model_name in MODELS:
        for model, ops, _ in _operands(model_name, seeds=(0,)):
            one = {k: Functional.from_density(model, e) for k, e in ops.items()}
            cases += [(one["x"], one["y"]), (one["y"], one["x"] * one["p1"]),
                      (one["x"] * one["y"], one["p0"]), (one["z"], one["y"])]
    _, S, X = nested_brackets(2)
    cases += [(S, X), (X, S), (X, X)]
    new = [raw(schouten(F, G)) for F, G in cases]
    monkeypatch.setattr(bv, "schouten_density", reference_bracket_density)
    assert new == [raw(schouten(F, G)) for F, G in cases]


@pytest.mark.parametrize("model_name", list(MODELS))
def test_right_images_are_signed_left_images(model_name):
    # on a parity-homogeneous operand e, the right image by v is
    # (-1)^(p_v (p_e - 1)) times the left one, term order included, frozen
    # and isolated, or expanded
    for model, ops, _ in _operands(model_name):
        variables = [v for pair in model.pairs() for v in pair]
        for name, e in ops.items():
            for frozen in (True, False):
                left = eulers(model, e, variables, frozen)
                for v, image in left.items():
                    image = isolated(image, frozen)
                    right = isolated(euler(model, e, *v, side="right", frozen=frozen), frozen)
                    sign = -1 if model.parity(*v) and not e.parity() else 1
                    assert _raw(right) == _raw(image.scale(sign)), (name, v, frozen)


def test_one_walk_of_a_labelled_block_serves_both_brackets(walked):
    # X = [[S,[[S,O]]]] is walked once for [[S,X]] and [[X,S]] together
    model, S, X = nested_brackets(2)
    ((x,),) = X.terms
    assert x.has_attach()
    assert not schouten(S, X).is_zero() and not schouten(X, S).is_zero()
    assert sum(e is x for e in walked) == 1
    assert list(x._images) == [(model, True)]


def test_a_plain_block_keeps_its_images_per_mode():
    # the plain Yang-Mills action keeps its frozen images from [[S,S]] and
    # its expanded ones from the naive bracket of the master equation, and
    # a second round reads both
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    ((s,),) = S.terms
    assert not schouten(S, S).is_zero()
    assert check_master_equation(S).passed
    kept = dict(s._images)
    assert list(kept) == [(model, True), (model, False)]
    assert not schouten(S, S).is_zero()
    assert check_master_equation(S).passed
    assert s._images.keys() == kept.keys()
    assert all(s._images[k] is kept[k] for k in kept)


def test_a_labelled_block_keeps_images_per_model():
    model, S, X = nested_brackets(1)
    ((s,),), ((x,),) = S.terms, X.terms
    wider = model.extend([("c", 1)])
    for m_ in (model, wider, model):
        assert _raw(schouten_density(m_, s, x)) == _raw(reference_bracket_density(m_, s, x))
        assert _raw(schouten_density(m_, x, s)) == _raw(reference_bracket_density(m_, x, s))
    for e in (s, x):
        assert list(e._images) == [(model, True), (wider, True)]
        assert len(e._images[wider, True]) == len(e._images[model, True]) + 2


def test_a_heterogeneous_first_operand_is_refused(m):
    # right images are signed left images only on a parity-homogeneous f:
    # a heterogeneous f, with blocks or plain, raises and keeps no images; a
    # heterogeneous g is bracketed as the reference brackets it
    ops = labelled_operands(m, 0)
    s = ops["p1"]
    for het in (ops["x"] + ops["y"], ops["p0"] + ops["p1"]):
        assert not het.is_homogeneous()
        with pytest.raises(ParityError, match="parity-heterogeneous expression"):
            schouten_density(m, het, s)
        assert not hasattr(het, "_images")
        assert _raw(schouten_density(m, s, het)) == _raw(reference_bracket_density(m, s, het))


@pytest.mark.parametrize("model_name", list(MODELS))
def test_a_plain_operand_keeps_images_per_mode(model_name):
    # one plain operand object bracketed in geometric, naive and again
    # geometric mode gives the reference's raw term maps each time: its
    # frozen and its expanded images are kept apart
    model = MODELS[model_name]()
    ops = labelled_operands(model, 3)
    f, g = ops["p1"], ops["p0"]
    for mode in (GEOMETRIC, NAIVE, GEOMETRIC):
        for a, b in ((f, g), (g, f)):
            ref = _raw(reference_bracket_density(model, a, b, mode))
            assert _raw(schouten_density(model, a, b, mode)) == ref, mode
    for e in (f, g):
        assert list(e._images) == [(model, True), (model, False)]


def test_a_fixed_action_is_walked_once_per_mode_across_verdicts(m, walked):
    # 20 gauge-closure verdicts on one KdV action walk it once in each mode
    S = _kdv_hamiltonian(m)
    ((s,),) = S.terms
    for walks, mode in enumerate((GEOMETRIC, NAIVE), 1):
        for i in range(20):
            F1, F2 = rf(m, 1, 2600 + i, order=1), rf(m, 1, 2700 + i, order=1)
            assert check_identity("gauge-closure", (F1, F2, S), mode).passed
        assert sum(e is s for e in walked) == walks, mode
    assert list(s._images) == [(m, True), (m, False)]
    # a heterogeneous first operand is refused before it is walked
    het = _density(rf(m, 0, 2800)) + _density(rf(m, 1, 2801))
    with pytest.raises(ParityError, match="parity-heterogeneous expression"):
        schouten_density(m, het, s)
    assert not hasattr(het, "_images") and not any(e is het for e in walked)


def test_self_bracket_of_odd_functional_vanishes(m):
    S = Functional.from_density(m, m.jet("q", dagger=True) * m.jet("q"))
    assert schouten(S, S).is_zero()


@pytest.mark.parametrize("model_name", ["scalar", "ghost"])
def test_leibniz_1a(model_name):
    model = scalar_model() if model_name == "scalar" else ghost_model()
    for i in range(20):
        F = rf(model, random.Random(i).randint(0, 1), 300 + i)
        G = rf(model, random.Random(i + 1).randint(0, 1), 400 + i)
        H = rf(model, random.Random(i + 2).randint(0, 1), 500 + i)
        pF, pG = F.parity(), G.parity()
        lhs = schouten(F, G * H)
        rhs = schouten(F, G) * H + (G * schouten(F, H)).scale(
            (-1) ** (((pF - 1) * pG) & 1))
        assert functional_equal(lhs, rhs, "structural")


def test_laplacian_1b_product_rule(m):
    for i in range(20):
        F = rf(m, random.Random(i).randint(0, 1), 600 + i)
        G = rf(m, random.Random(i + 3).randint(0, 1), 700 + i)
        pF = F.parity()
        sgn = (-1) ** (pF & 1)
        lhs = laplacian(F * G)
        rhs = laplacian(F) * G + schouten(F, G).scale(sgn) + (F * laplacian(G)).scale(sgn)
        assert functional_equal(lhs, rhs, "structural")


def _block_products(model, seed):
    """Seeded products of 1-4 blocks of mixed parity, drawn from a pool of
    eight blocks so that block pairs with a nonzero bracket recur, then
    powers of an even block, alone and times an odd one."""
    rng = random.Random(seed)
    pool = [rf(model, k % 2, seed + k, order=1, degree=2) for k in range(8)]
    out = [functools.reduce(Functional.__mul__, rng.sample(pool, rng.randint(1, 4)))
           for _ in range(10)]
    return out + [pool[0] ** 2, pool[2] ** 3 * pool[1]]


@pytest.mark.parametrize("mode", [GEOMETRIC, NAIVE])
@pytest.mark.parametrize("model_name", ["scalar", "ghost"])
def test_leibniz_sums_agree_with_the_recursions(model_name, mode):
    # the closed sums give the recursions' term maps, except that a first
    # argument of several blocks takes [[B_i, C_j]] where the recursion flips
    # to [[C_j, B_i]] by skew-symmetry: equal there as functionals
    model = scalar_model() if model_name == "scalar" else ghost_model()
    products = _block_products(model, 6100)
    for k, F in enumerate(products):
        assert laplacian(F, mode) == reference_laplacian(F, mode), k
        for G in products[k:k + 3] + products[:1]:
            new, ref = schouten(F, G, mode), reference_schouten(F, G, mode)
            if all(len(blocks) == 1 for blocks in F.terms):
                assert new == ref, k
            else:
                assert functional_equal(new, ref, "structural"), k
                assert functional_equal(new, ref, "collapse"), k


def test_leibniz_sums_take_each_density_once(m, monkeypatch):
    # F**4 is one even block four times: one pair for the bracket, one block
    # and one pair for the Laplacian, whatever the number of terms in the sums
    calls = {"schouten_density": 0, "laplacian_density": 0}
    taken = []

    def counted(name):
        density = getattr(bv, name)

        def count(model, *args):
            calls[name] += 1
            taken.append(args[:-1])
            return density(model, *args)
        return count

    for name in calls:
        monkeypatch.setattr(bv, name, counted(name))
    q, qd = m.jet("q"), m.jet("q", dagger=True)
    F = Functional.from_density(m, qd * m.jet("q", (1,), dagger=True) * q * m.jet("q", (1,)))
    G = rf(m, 1, 6201, order=1, degree=2)
    assert not schouten(G, F ** 4).is_zero()
    assert calls == {"schouten_density": 1, "laplacian_density": 0}
    assert not laplacian(F ** 4).is_zero()
    assert calls == {"schouten_density": 2, "laplacian_density": 1}
    # a powers verdict takes [[G,F]], Delta F and [[F,F]] once each, for all
    # of its brackets and Laplacians of powers of F
    calls.update(dict.fromkeys(calls, 0))
    del taken[:]
    assert check_identity("powers", (F, G)).passed
    ((f,),), ((g,),) = F.terms, G.terms
    assert taken == [(g, f), (f,), (f, f)]


def test_a_verdict_takes_each_density_and_plain_image_once(m, walked, monkeypatch):
    # each plain operand is walked once for its life: Jacobi walks it once,
    # not once for each of the three brackets it enters, and a later (1a)
    # verdict on the same operands reads the kept images; one table serves
    # every bracket of a verdict, so (1a) takes [[F,G]] and [[F,H]] once for
    # both of its sides
    taken = []

    def bracket(model, f, g, mode):
        taken.append((f, g))
        return schouten_density(model, f, g, mode)

    monkeypatch.setattr(bv, "schouten_density", bracket)
    for k in range(3):
        F, G, H = (rf(m, (k + i) % 2, 5200 + 3 * k + i, order=1) for i in range(3))
        ((f,),), ((g,),), ((h,),) = F.terms, G.terms, H.terms
        del walked[:]
        for suite in ("jacobi", "leibniz-1a"):
            del taken[:]
            assert check_identity(suite, (F, G, H)).passed
            assert [sum(e is b for e in walked) for b in (f, g, h)] == [1, 1, 1], (suite, k)
        assert collections.Counter(taken) == {(f, g): 1, (f, h): 1}, k


@pytest.mark.parametrize("model_name", ["scalar", "ghost"])
def test_derivation_1c(model_name):
    model = scalar_model() if model_name == "scalar" else ghost_model()
    structural = 0
    for i in range(20):
        F = rf(model, random.Random(i).randint(0, 1), 800 + i)
        G = rf(model, random.Random(i + 5).randint(0, 1), 900 + i)
        pF = F.parity()
        L = laplacian(schouten(F, G))
        R = schouten(laplacian(F), G) + schouten(F, laplacian(G)).scale(
            (-1) ** ((pF - 1) & 1))
        assert functional_equal(L, R, "collapse")
        structural += functional_equal(L, R, "structural")
    assert structural >= 18  # structural equality holds on almost all cases


@pytest.mark.parametrize("model_name", ["scalar", "ghost"])
def test_delta_squared_1d(model_name):
    model = scalar_model() if model_name == "scalar" else ghost_model()
    for i in range(20):
        blocks = 1 + (i % 2)
        F = rf(model, random.Random(i).randint(0, 1), 1000 + i, blocks=blocks)
        assert functional_equal(laplacian(laplacian(F)), zero(model), "structural")


def test_jacobi_mod_cohomology(m):
    for i in range(15):
        F = rf(m, random.Random(i).randint(0, 1), 1100 + i, order=1)
        G = rf(m, random.Random(i + 1).randint(0, 1), 1200 + i, order=1)
        H = rf(m, random.Random(i + 2).randint(0, 1), 1300 + i, order=1)
        pF, pG, pH = F.parity(), G.parity(), H.parity()
        j = (schouten(F, schouten(G, H)).scale((-1) ** (((pF - 1) * (pH - 1)) & 1))
             + schouten(G, schouten(H, F)).scale((-1) ** (((pF - 1) * (pG - 1)) & 1))
             + schouten(H, schouten(F, G)).scale((-1) ** (((pG - 1) * (pH - 1)) & 1)))
        assert functional_equal(j, zero(m), "collapse")


def test_jacobi_leibniz_form(m):
    for i in range(10):
        F = rf(m, random.Random(i).randint(0, 1), 1400 + i, order=1)
        G = rf(m, random.Random(i + 4).randint(0, 1), 1500 + i, order=1)
        H = rf(m, random.Random(i + 8).randint(0, 1), 1600 + i, order=1)
        pF, pG = F.parity(), G.parity()
        lhs = schouten(F, schouten(G, H))
        rhs = schouten(schouten(F, G), H) + schouten(G, schouten(F, H)).scale(
            (-1) ** (((pF - 1) * (pG - 1)) & 1))
        assert functional_equal(lhs, rhs, "collapse")


def test_bracket_grading_bookkeeping(m):
    from bvcalc.algebra import GhostNumberError
    checked_gh = 0
    for i in range(10):
        F = rf(m, random.Random(i).randint(0, 1), 1700 + i)
        G = rf(m, random.Random(i + 2).randint(0, 1), 1800 + i)
        br = schouten(F, G)
        if not br.is_zero():
            assert br.parity() == (F.parity() + G.parity() + 1) & 1
            try:
                ghF, ghG = F.ghost_number(), G.ghost_number()
            except GhostNumberError:
                ghF = None  # random densities need not be gh-homogeneous
            if ghF is not None:
                assert br.ghost_number() == ghF + ghG + 1
                checked_gh += 1
        dF = laplacian(F)
        if not dF.is_zero():
            assert dF.parity() == (F.parity() + 1) & 1
    assert checked_gh >= 1


# -- naive mode --------------------------------------------------------------

def test_naive_mode_violates_derivation_identity():
    model, F, G = build_scalar_example()
    assert schouten(F, laplacian(G, NAIVE), NAIVE).is_zero()
    L = laplacian(schouten(F, G, NAIVE), NAIVE)
    R = schouten(laplacian(F, NAIVE), G, NAIVE) + schouten(F, laplacian(G, NAIVE), NAIVE)
    assert not functional_equal(L, R, "collapse")
    assert not (L - R).collapse().is_zero()


def test_naive_densities_carry_no_attach_atoms():
    # naive mode expands every derivative at once, so not even a bare
    # attachment boundary may appear in its densities
    model = ghost_model()
    for seed in range(3100, 3115):
        f, g = rf(model, seed & 1, seed), rf(model, 0, seed + 50)
        for a in f.blocks():
            assert not laplacian_density(model, a, NAIVE).has_attach()
            for b in g.blocks():
                assert not schouten_density(model, a, b, NAIVE).has_attach()


# -- quantum layer ------------------------------------------------------------

def test_omega_trivial_cases(m):
    S = rf(m, 0, 1900)
    one = Functional.constant(m, 1)
    assert omega(one, S).is_zero()
    O = rf(m, 0, 1901)
    lhs = omega(O, zero(m))
    minus_i_hbar = -(Coefficient.imag_unit() * Coefficient.hbar())
    assert functional_equal(lhs, laplacian(O).scale(minus_i_hbar), "structural")


def test_check_master_equation_scalar(m):
    S = Functional.from_density(m, m.jet("q", dagger=True) * m.jet("q"))
    rep = check_master_equation(S)
    # Delta S is the volume block and [[S,S]] vanishes: the QME fails at
    # order hbar^1 and the CME, its order hbar^0, holds
    assert not rep.passed and rep.data["cme"]
    assert rep.data["delta"] == laplacian(S)
    dS = laplacian(S).collapse()
    ((blocks, c),) = dS.terms.items()
    assert blocks == (Expr.scalar(1),) and c == Coefficient.one()
    assert schouten(S, S).is_zero()
    assert check_master_equation(zero(m)).passed


def test_check_master_equation_with_both_sides_nontrivial(m):
    # Delta S and [[S,S]] are both nontrivial and share Euler-image
    # coordinates, so the obstruction i*hbar*Delta(S) - 1/2 [[S,S]] mixes
    # powers of hbar in one integral
    S = Functional.from_density(m, parse_expr("-q + q*dag(q)*dag(q)_x - 2*q^2*dag(q)*dag(q)_x", m))
    for mode in (GEOMETRIC, NAIVE):
        rep = check_master_equation(S, mode)
        assert not rep.passed and not rep.data["cme"]
        assert not functional_equal(laplacian(S, mode), zero(m), "collapse")
        assert not functional_equal(schouten(S, S, mode), zero(m), "collapse")
        assert not functional_equal(rep.data["obstruction"], zero(m), "structural")


@pytest.mark.parametrize("model", [scalar_model(), ghost_model()], ids=["scalar", "ghost"])
def test_cme_is_the_hbar0_order_of_the_reduced_obstruction(model):
    # the report's CME verdict, read from the one reduction of the QME
    # obstruction, is [[S_0, S_0]]_c ~ 0 for the classical action S_0, on
    # actions of one and two blocks, with and without an hbar^1 term
    hbar = Coefficient.hbar()
    verdicts = set()
    for seed in range(12):
        S1 = rf(model, 0, 8000 + seed)
        for blocks in (1, 2):
            S0 = rf(model, 0, 7000 + seed, blocks=blocks)
            for mode in (GEOMETRIC, NAIVE):
                cme = functional_equal(schouten(S0, S0, mode), zero(model), "collapse")
                for S in (S0, S0 + S1.scale(hbar)):
                    assert check_master_equation(S, mode).data["cme"] == cme, (seed, blocks)
                verdicts.add(cme)
    assert verdicts == {True, False}


@pytest.mark.parametrize("model", [scalar_model(), ghost_model()], ids=["scalar", "ghost"])
def test_master_equation_bracket_is_the_collapsed_bracket(model):
    # a plain S takes the naive bracket, whose self-pairs are folded; the
    # result is the whole bracket's collapse in either mode, coefficient and
    # printed form included
    i_hbar = Coefficient.imag_unit() * Coefficient.hbar()
    for seed in range(5000, 5030):
        S = rf(model, 0, seed).scale(random.Random(seed).choice((1, -2, i_hbar)))
        naive = schouten(S, S, NAIVE)
        for mode in (GEOMETRIC, NAIVE):
            full = schouten(S, S, mode).collapse()
            got = check_master_equation(S, mode).data["bracket"]
            assert got == full == naive and repr(got) == repr(full), (seed, mode)
    # an odd S, products, sums, and an even block with frozen blocks among
    # them, which geometric mode brackets as it stands and naive mode
    # collapses first
    labelled = schouten(rf(model, 1, 5104), rf(model, 0, 5105))
    assert len(labelled.terms) == 1 and labelled.parity() == 0
    assert next(iter(labelled.terms))[0].has_attach()
    for S in (rf(model, 1, 5100), rf(model, 0, 5101, blocks=2), rf(model, 0, 5102) + rf(model, 0, 5103),
              labelled):
        for mode in (GEOMETRIC, NAIVE):
            got = check_master_equation(S, mode).data["bracket"]
            assert got == schouten(S, S, mode).collapse(), mode


@pytest.mark.parametrize("model_name", list(MODELS))
def test_collapse_forgets_the_mode_of_a_plain_bracket(model_name):
    # the identity behind the master equation's naive bracket: for plain
    # functionals of one to three blocks the geometric bracket collapses to
    # the naive one
    model = MODELS[model_name]()
    for seed in range(7000, 7030):
        for pf in (0, 1):
            for pg in (0, 1):
                for blocks in (1, 2, 3):
                    F, G = rf(model, pf, seed, blocks=blocks), rf(model, pg, seed + 100, blocks=blocks)
                    assert (schouten(F, G, GEOMETRIC).collapse() == schouten(F, G, NAIVE).collapse()), \
                        (seed, pf, pg, blocks)


def test_a_naive_self_pair_is_walked_once(walked):
    # [[f, f]] in either mode takes f's images once and files
    # 2 sum el[ev] * el[od] for even f, and is 0 for odd f with no walk:
    # the same term map as the unfolded bracket; naive mode walks the
    # collapsed f, and geometric mode f itself, blocks and all
    cases = []
    for model_name in MODELS:
        for model, ops, _ in _operands(model_name):
            cases += [(model, name, f) for name, f in ops.items() if name != "z"]
        model = MODELS[model_name]()
        for seed in range(6000, 6010):
            cases += [(model, seed, next(rf(model, p, seed).blocks())) for p in (0, 1)]
    folded = dict.fromkeys((NAIVE, GEOMETRIC), 0)
    for mode in folded:
        for model, name, f in cases:
            walked.clear()
            got = schouten_density(model, f, f, mode)
            ref = reference_bracket_density(model, f, f, mode)
            if f.parity():
                assert got.is_zero() and ref.is_zero() and not walked, (name, mode)
                continue
            assert len(walked) == 1, (name, mode)
            assert walked[0] == collapse(f) if mode == NAIVE else walked[0] is f, (name, mode)
            assert dict(_raw(got)) == dict(_raw(ref)), (name, mode)
            folded[mode] += not got.is_zero()
    assert min(folded.values()) >= 30, folded


def test_the_ym_self_bracket_walks_its_action_once(walked):
    # the geometric [[S,S]] of su(2) Yang-Mills on a 4-dimensional base
    # walks the one block of S once, and files the terms of the unfolded
    # bracket
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 4)
    ((s,),) = S.terms
    ref = reference_bracket_density(model, s, s)
    assert not schouten(S, S, GEOMETRIC).is_zero()
    assert len(walked) == 1 and walked[0] is s
    assert dict(_raw(schouten_density(model, s, s))) == dict(_raw(ref)) != {}


def test_self_bracket_of_a_plain_action_builds_no_frozen_block(monkeypatch):
    # a plain S needs no block wrapped around its home plains for its
    # [[S,S]]; the Laplacian wraps its branches by design, so it is taken
    # before the bracket is watched
    model = ghost_model()
    cases = [rf(model, 0, seed) for seed in range(5200, 5210)]
    q_x, c_x, qd_x = model.jet("q", (1,)), model.jet("c", (1,)), model.jet("q", (1,), dagger=True)
    cases.append(Functional.from_density(model, model.cos("q") * qd_x * c_x + model.sin("q") * q_x * q_x))
    cases.append(build_yang_mills_bv(LieAlgebraData.su2(), 2)[1])
    cases.append(rf(model, 0, 5210, blocks=2) + rf(model, 1, 5211) * rf(model, 1, 5212))
    expected = [schouten(S, S).collapse() for S in cases]
    deltas = {id(S): laplacian(S) for S in cases}

    def no_wrapping(*args):
        raise AssertionError("a frozen block was built")

    monkeypatch.setattr(bv, "laplacian", lambda S, mode: deltas[id(S)])
    monkeypatch.setattr("bvcalc.jetcalc._wrap_branch", no_wrapping)
    for S, full in zip(cases, expected):
        assert check_master_equation(S, GEOMETRIC).data["bracket"] == full


def test_the_ym_master_equation_builds_no_small_integer_coefficient(monkeypatch):
    # zero and the small integers are shared: once a run has made each of
    # them, the bracket, its collapse and the master equation build none
    from bvcalc.coeff import _BOUND
    _, S = build_yang_mills_bv(LieAlgebraData.su2(), 4)

    def run():
        schouten(S, S).collapse()
        assert check_master_equation(S).passed

    run()
    built = []
    new, init = Coefficient._new, Coefficient.__init__

    def counting_new(terms):
        built.append(terms)
        return new(terms)

    def counting_init(self, terms=None):
        init(self, terms)
        built.append(self.terms)

    monkeypatch.setattr(Coefficient, "_new", counting_new)
    monkeypatch.setattr(Coefficient, "__init__", counting_init)
    run()
    small = [t for t in built if not t or (
        len(t) == 1 and 0 in t and not t[0][1] and type(t[0][0]) is int
        and -_BOUND <= t[0][0] <= _BOUND)]
    assert not small, f"{len(small)} of {len(built)} built coefficients are shared integers"


def _reference_repr(F):
    """repr(F) by full sorts: the terms by their blocks' keys and each
    block's monomials by their term keys, joined at once."""
    if not F.terms:
        return "<0>"
    parts = []
    for blocks in sorted(F.terms, key=lambda bs: tuple(b.key() for b in bs)):
        body = "*".join(f"<{_reference_format(b)}>" for b in blocks) or "<vol>"
        parts.append(f"({format_coefficient(F.terms[blocks])})*{body}")
    return " + ".join(parts)


def _reference_format(e):
    if e.is_zero():
        return "0"
    pieces = []
    for key in sorted(e.terms):
        mono = e.terms[key]
        labels = itertools.count()  # the channels of one monomial
        factors = [format_atom(a, labels) if k == 1 else f"{format_atom(a, labels)}^{k}"
                   for a, k in mono.factors()]
        if factors:
            pieces.append(_coeff_prefix(mono.coeff) + "*".join(factors))
        else:
            text = format_coefficient(mono.coeff)
            pieces.append(f"({text})" if " " in text else text)
    return _join_signed(pieces)


def _reference_summarize(F, limit):
    text = _reference_repr(F)
    if len(text) <= limit:
        return text
    monomials = sum(len(b.terms) for blocks in F.terms for b in blocks)
    return f"{text[:limit]} ... [{len(F.terms)} terms, {monomials} monomials]"


def test_summarize_agrees_with_the_truncated_repr():
    # the summary formats only what it prints: it must equal the first
    # `limit` characters of the whole text, cut anywhere, a " - " join
    # included, and the whole text when that is short enough
    model = ghost_model()
    cases = [zero(model), Functional.constant(model, Coefficient.hbar())]
    for seed in range(5200, 5212):
        F = rf(model, seed & 1, seed, blocks=1 + seed % 3)
        (b, *_), c = next(iter(F.terms.items()))
        cases += [F, F + rf(model, seed & 1, seed + 1), -F,
                  Functional.from_density(model, -b) + Functional.constant(model, 2),
                  schouten(F, rf(model, 0, seed + 2))]
    seen = dict.fromkeys(("negative lead", "minus join", "multi-term", "long"), 0)
    for F in cases:
        text = _reference_repr(F)
        assert repr(F) == text
        seen["negative lead"] += "<-" in text
        seen["minus join"] += " - " in text
        seen["multi-term"] += len(F.terms) > 1
        seen["long"] += len(text) > 400
        limits = {400, len(text), len(text) - 1}
        for k in range(len(text)):
            if text.startswith(" - ", k):
                limits.update(range(k - 1, k + 4))
        for limit in sorted(limits):
            assert _summarize(F, limit) == _reference_summarize(F, limit), (text, limit)
    assert min(seen.values()) >= 5, seen


def test_check_omega_squared_reports(m):
    O = rf(m, 0, 2000)
    S = rf(m, 0, 2001)
    rep = check_identity("omega", (O, S))
    assert rep.data["agreed"][0]
    one = Functional.constant(m, 1)
    rep1 = check_identity("omega", (one, S))
    assert rep1.data["agreed"][0]



# -- where collapse stops being a congruence for the geometric bracket ---------
# Characterisation tests: they pin what the engine does today, not what the
# theory asks of it.  X ~ 0 modulo collapse does not give [[F, X]] ~ 0 in
# geometric mode, because the frozen blocks of X are what [[F, .]] reads.


def test_virasoro_magri_d_p_squared_is_pinned(m):
    # P = 1/2 int b (2 q b_x + q_x b), b = dag(q), is Hamiltonian, so
    # [[P, [[P, H]]]] should be trivial; geometrically it is not, while
    # naive mode and the bracket of the collapsed [[P, H]] give 0
    P = Functional.from_density(m, parse_expr("1/2*dag(q)*(2*q*dag(q)_x + q_x*dag(q))", m))
    H = Functional.from_density(m, parse_expr("q^2", m))
    PH = schouten(P, H)
    geometric = schouten(P, PH)
    assert repr(geometric.collapse()) == "(1)*<4*q*q_x*dag(q)*dag(q)_x>"
    assert not functional_equal(geometric, zero(m), "collapse")
    assert schouten(P, schouten(P, H, NAIVE), NAIVE).is_zero()
    assert functional_equal(schouten(P, PH.collapse()), zero(m), "collapse")


def test_delta_p_of_u2d_is_closed_only_once_collapsed_in_geometric_mode(m):
    # P = int q^2 b b_x, b = dag(q), is the Hamiltonian operator
    # u^2 D + D u^2; [[P, Delta P]] ~ 0 fails geometrically, where Delta P
    # keeps a frozen block, and holds once Delta P is collapsed; in naive
    # mode it holds either way.  The collapsed Delta P differs between the
    # modes by a divergence, and is not trivial
    P = Functional.from_density(m, parse_expr("q^2*dag(q)*dag(q)_x", m))
    collapsed = {GEOMETRIC: "(1)*<4*q*dag(q)_x + 2*q_x*dag(q)>", NAIVE: "(1)*<2*q*dag(q)_x>"}
    classes = []
    for mode, text in collapsed.items():
        dP = laplacian(P, mode)
        assert repr(dP.collapse()) == text, mode
        assert functional_equal(schouten(P, dP, mode), zero(m), "collapse") == (mode == NAIVE)
        assert functional_equal(schouten(P, dP.collapse(), mode), zero(m), "collapse"), mode
        classes.append(dP.collapse())
    assert functional_equal(*classes, "collapse")
    assert not functional_equal(classes[0], zero(m), "collapse")


def test_omega_squared_of_criterion_7_is_pinned():
    # Omega^2 O ~ 0 on su(2) Yang-Mills at n=2, O drawn as acceptance
    # criterion 7 draws it: geometrically on 2 of 10 cases, on 9 of 10 with
    # the inner Omega O collapsed, in naive mode on the same 9
    model, S = build_yang_mills_bv(LieAlgebraData.su2(), 2)
    geometric, inner_collapsed, naive = [], [], []
    for i in range(10):
        O = rf(model, 0, 20240808 + 300 + i, order=1, degree=2)
        inner = omega(O, S)
        if functional_equal(omega(inner, S), zero(model), "collapse"):
            geometric.append(i)
        if functional_equal(omega(inner.collapse(), S), zero(model), "collapse"):
            inner_collapsed.append(i)
        if functional_equal(omega(omega(O, S, NAIVE), S, NAIVE), zero(model), "collapse"):
            naive.append(i)
    assert geometric == [2, 4]
    assert inner_collapsed == naive == [0, 1, 2, 3, 4, 5, 6, 7, 9]

def _kdv_hamiltonian(m):
    """The even action int (q^3 - q_x^2/2), the KdV Hamiltonian."""
    q, qx = m.jet("q"), m.jet("q", (1,))
    return Functional.from_density(m, q * q * q - (qx * qx).scale(Fraction(1, 2)))


def test_gauge_closure(m):
    S = _kdv_hamiltonian(m)
    for i in range(8):
        F1 = rf(m, 1, 2100 + i, order=1)
        F2 = rf(m, 1, 2200 + i, order=1)
        assert check_identity("gauge-closure", (F1, F2, S)).passed
    # equal generators: both sides still agree
    F = rf(m, 1, 2300, order=1)
    assert check_identity("gauge-closure", (F, F, S)).passed
    # S = 0 reduces to the derivation identity
    assert check_identity("gauge-closure", (rf(m, 1, 2400), rf(m, 1, 2401), zero(m))).passed
    # the row declares S even: an odd action is refused and named
    odd = Functional.from_density(m, m.jet("q", dagger=True) * m.jet("q"))
    with pytest.raises(ParityError) as exc:
        check_identity("gauge-closure", (rf(m, 1, 2400), rf(m, 1, 2401), odd))
    assert str(exc.value) == "gauge-closure: argument 3 must be even"


def test_cocycle_and_coboundary_preservation(m):
    for i in range(8):
        S = rf(m, 0, 2500 + i, order=1)
        O = rf(m, 0, 2600 + i, order=1)
        F = rf(m, 1, 2700 + i, order=1)
        xi = rf(m, 1, 2800 + i, order=1)
        assert check_identity("cocycles", (S, O, F, None)).passed
        assert check_identity("cocycles", (S, None, F, xi)).passed
    # degenerate cases
    S = rf(m, 0, 2900)
    one = Functional.constant(m, 1)
    assert check_identity("cocycles", (S, one, rf(m, 1, 2901), None)).passed
    assert check_identity("cocycles", (S, rf(m, 0, 2902), zero(m), None)).passed


def test_cocycles_rejects_an_odd_s(m):
    # Omega = -i*hbar*Delta + [[S, .]] is parity-homogeneous only for even S:
    # an odd S is refused up front and named, both where the builder would
    # have passed (k = 0, 4) and where it failed on a mixed-parity sum
    for k in range(5):
        S, O, F = (rf(m, p, seed + k, order=1, degree=2)
                   for p, seed in ((1, 100), (0, 200), (1, 300)))
        with pytest.raises(ParityError) as exc:
            check_identity("cocycles", (S, O, F, None))
        assert str(exc.value) == "cocycles: argument 1 must be even"


def test_check_identity_reports_the_first_failing_pair(m, monkeypatch):
    A, B, C = (rf(m, 0, 4000 + k) for k in range(3))
    pairs = [(A, A), (B, C), (C, A)]
    monkeypatch.setitem(IDENTITIES, "probe",
                        Identity("probe", (0,), lambda X, mode: pairs, "collapse"))
    rep = check_identity("probe", (A,))
    assert not rep.passed and rep.data["agreed"] == [True, False, False]
    # the discrepancy int B - int C is reported as the one integral int (B - C)
    (b,), (c,) = B.blocks(), C.blocks()
    assert rep.data["discrepancy"] == Functional.from_density(m, collapse(b) - collapse(c))
    with pytest.raises(ParityError):
        check_identity("probe", (rf(m, 1, 4003),))
    # a wrong number of arguments is refused before anything is built
    for args in ((A,), (A, B, A)):
        with pytest.raises(TypeError, match=f"^skew: takes 2 arguments, {len(args)} given$"):
            check_identity("skew", args)


def test_power_lemmas(m):
    for i in range(5):
        F = rf(m, 0, 3000 + i, order=1, degree=2)
        G = rf(m, random.Random(i).randint(0, 1), 3100 + i, order=1, degree=2)
        # n = 1..4 in [[G, F^n]] and n = 2..4 in Delta(F^n)
        assert check_identity("powers", (F, G)).passed
    with pytest.raises(ParityError):
        check_identity("powers", (rf(m, 1, 2), rf(m, 0, 1)))
