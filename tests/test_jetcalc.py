import collections
import functools
import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from bvcalc import BvModel, Expr, algebra, jetcalc
from bvcalc.algebra import (
    Attach,
    BaseVar,
    JetVar,
    Trig,
    make_attach,
)
from bvcalc.bv import laplacian, laplacian_density, schouten
from bvcalc.coeff import Coefficient
from bvcalc.grammar import ParseError, format_expr, parse_expr, parse_model_file
from bvcalc.models import build_scalar_example
from bvcalc.jetcalc import (
    GEOMETRIC,
    NAIVE,
    collapse,
    euler,
    euler_left,
    eulers,
    iterated_variation,
    partial,
    total_derivative,
    total_derivative_multi,
    _isolate,
    _shift,
    _walk,
)

from util_random import (
    _from_raw,
    erase_labels,
    ghost_model,
    isolated,
    labelled_operands,
    nested_brackets,
    plane_model,
    random_expr,
    random_homogeneous,
    random_monomial,
    scalar_model,
)


@pytest.fixture
def m():
    return scalar_model()


# -- total derivative -------------------------------------------------------

def test_total_derivative_examples(m):
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd, qdx = m.jet("q", dagger=True), m.jet("q", (1,), dagger=True)
    assert total_derivative(q, 0) == qx
    assert total_derivative(m.cos("q"), 0) == -(m.sin("q") * qx)
    assert total_derivative(qd * q, 0) == qdx * q + qd * qx
    assert total_derivative(m.exp("q"), 0) == m.exp("q") * qx


def test_total_derivatives_commute():
    model = plane_model()
    rng = random.Random(21)
    for _ in range(40):
        e = random_expr(model, rng, with_attach=True)
        d01 = total_derivative(total_derivative(e, 0), 1)
        d10 = total_derivative(total_derivative(e, 1), 0)
        assert d01 == d10


def test_total_derivative_through_wrapper(m):
    pending = ((2,),)
    w = make_attach(pending, m.cos("q"))
    lhs = total_derivative(w, 0)
    rhs = make_attach(pending, total_derivative(m.cos("q"), 0))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ghost", "plane"]))
def test_total_derivative_is_an_even_derivation(seed, which):
    # D_i(a*b) = D_i(a)*b + a*D_i(b) with no Koszul sign: the derivative of a
    # factor must replace it in place, not move past the odd factors after it
    model = _GHOST if which == "ghost" else _PLANE
    rng = random.Random(seed)
    a, b = _random_wrapped(model, rng), _random_wrapped(model, rng)
    for i in range(model.base_dim):
        da, db = total_derivative(a, i), total_derivative(b, i)
        assert total_derivative(a * b, i) == da * b + a * db


def _reference_total_derivative(e, i):
    """D_i built from raw factor lists: every branch is the monomial's factor
    list with one copy of a factor replaced by its derivative, and all of
    them are normalised by ``_from_raw`` at once."""
    one = Coefficient.one()
    raw = []
    for mono in e.monomials():
        factors = mono.factors()
        for j, (a, k) in enumerate(factors):
            if isinstance(a, JetVar):
                branches = [(one, ((_shift(a, i), 1),))]
            elif isinstance(a, BaseVar):
                branches = [(one, ())] if a.coord == i else []
            elif isinstance(a, Trig):
                du = ((_shift(a.arg, i), 1),)
                branches = [(dm.coeff, dm.factors() + du)
                            for dm in _reference_trig_chain(a).monomials()]
            else:
                d = make_attach(a.pending, _reference_total_derivative(a.inner, i))
                branches = [(dm.coeff, dm.factors()) for dm in d.monomials()]
            head = factors[:j] + (((a, k - 1),) if k > 1 else ())
            for c, d in branches:
                raw.append((mono.coeff * k * c, head + d + factors[j + 1:]))
    return _from_raw(raw)


@pytest.mark.parametrize("model", [ghost_model(), BvModel(2, [("u", 0), ("c", 1)])],
                         ids=["ghost", "plane"])
def test_total_derivative_agrees_with_the_raw_branch_reference(model):
    rng = random.Random(43)
    seen = dict.fromkeys(("odd jet", "trig", "attach", "exponent"), 0)
    for case in range(150):
        e = _random_wrapped(model, rng)
        if rng.random() < 0.3 and e.is_homogeneous() and not e.parity():
            e = e * e
        for i in range(model.base_dim):
            assert total_derivative(e, i).key() == _reference_total_derivative(e, i).key(), case
        atoms = [(a, k) for mono in e.monomials() for a, k in mono.factors()]
        seen["odd jet"] += any(isinstance(a, JetVar) and a.parity for a, _ in atoms)
        seen["trig"] += any(isinstance(a, Trig) for a, _ in atoms)
        seen["attach"] += any(isinstance(a, Attach) for a, _ in atoms)
        seen["exponent"] += any(k > 1 for _, k in atoms)
    assert min(seen.values()) >= 20, seen


def test_total_derivative_out_of_range_raises(m):
    block = make_attach(((1,),), m.cos("q") * m.x(0))
    for e in (m.jet("q"), m.jet("q", (1,), dagger=True), m.sin("q"), m.exp("q"), block):
        for i in (1, -1):
            with pytest.raises(ValueError):
                total_derivative(e, i)


def test_shifts_are_interned_once_and_read_from_the_atom():
    # the first read of a shift files the interned JetVar with the index
    # bumped in the atom's own table, and every later read returns it
    for model in (scalar_model(), ghost_model(), plane_model()):
        n = model.base_dim
        for name, dagger in model.variables():
            u = model.jet_atom(name, (9,) * n, dagger)
            for i in (-1, n):
                with pytest.raises(ValueError):
                    _shift(u, i)
            for i in range(n):
                bumped = tuple(k + (j == i) for j, k in enumerate(u.index))
                expected = JetVar._from_parts(u.field, u.dagger, bumped, u.gh)
                assert _shift(u, i) is expected
                assert u.shifts[i] is expected
                assert _shift(u, i) is expected
            # a filled table still refuses a coordinate out of range, where a
            # list indexed by -1 would return the last shift
            for i in (-1, n):
                with pytest.raises(ValueError):
                    _shift(u, i)
            assert sorted(u.shifts) == list(range(n))


# -- partial derivatives ----------------------------------------------------

def test_partial_examples(m):
    q, qxx = m.jet("q"), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    f = qd * q * qxx
    assert partial(f, m.jet_atom("q", dagger=True)) == q * qxx
    assert partial(f, m.jet_atom("q", (2,))) == qd * q
    qdx = m.jet("q", (1,), dagger=True)
    g = qd * qdx
    assert partial(g, m.jet_atom("q", dagger=True)) == qdx
    assert partial(g, m.jet_atom("q", (1,), dagger=True)) == -qd
    assert partial(g, m.jet_atom("q", (1,), dagger=True), "right") == qd
    with pytest.raises(ValueError):
        partial(g, m.jet_atom("q", dagger=True), "up")


def test_partial_chain_rule(m):
    v = m.jet_atom("q")
    assert partial(m.sin("q"), v) == m.cos("q")
    assert partial(m.cos("q"), v) == -m.sin("q")
    assert partial(m.exp("q") * m.exp("q"), v) == (m.exp("q") * m.exp("q")).scale(2)


_GHOST = ghost_model()
_PLANE = plane_model()
# jets of q, dag q, c and dag c; the odd ones are c and dag q, and dag q
# sorts after c, so a dag q derivative passes odd c factors
_GHOST_VARS = [
    _GHOST.jet_atom(name, (k,), dagger)
    for name in ("q", "c") for dagger in (False, True) for k in range(3)
]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_GHOST_VARS))
def test_graded_leibniz(seed, v):
    # d(AB) = dA*B + (-1)^(|v||A|) A*dB for a single (hence homogeneous)
    # monomial A; pins the Koszul sign carried past skipped odd factors
    rng = random.Random(seed)
    a = random_monomial(_GHOST, rng, with_attach=True)
    b = random_expr(_GHOST, rng, with_attach=True)
    sign = -1 if v.parity and a.parity() else 1
    lhs = partial(a * b, v)
    rhs = partial(a, v) * b + (a * partial(b, v)).scale(sign)
    assert lhs == rhs


def test_partial_of_absent_variable_multiplies_no_coefficients(monkeypatch):
    calls = []
    mul = Coefficient.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Coefficient, "__mul__", counted)
    monkeypatch.setattr(Coefficient, "__rmul__", counted)
    rng = random.Random(27)
    v = _GHOST.jet_atom("q", (3,))  # random_expr stays below order 3
    for _ in range(20):
        e = random_expr(_GHOST, rng, with_attach=True)
        calls.clear()
        assert partial(e, v).is_zero()
        assert not calls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([v for v in _GHOST_VARS if v.parity]))
def test_right_side_is_the_per_monomial_sign(seed, v):
    # the definition: right = sum_m (-1)^(p_v (p_m - 1)) left(m), on input
    # that mixes parities, so no single sign for the whole expression works
    rng = random.Random(seed)
    a = random_monomial(_GHOST, rng, with_attach=True)
    e = random_expr(_GHOST, rng, with_attach=True) + a + _GHOST.jet("c", (rng.randint(0, 2),)) * a
    assume(not e.is_homogeneous())
    right, channelled = Expr.zero(), Expr.zero()
    for k, mono in e.terms.items():
        single = Expr({k: mono})
        sign = -1 if (v.parity * (mono.parity() - 1)) & 1 else 1
        right = right + partial(single, v).scale(sign)
        channelled = channelled + _isolate(euler(
            _GHOST, single, v.field, v.dagger, frozen=True)).scale(sign)
    assert partial(e, v, "right") == right
    assert _isolate(euler(_GHOST, e, v.field, v.dagger, side="right", frozen=True)) == channelled


def test_partials_commute_with_wrappers():
    model = ghost_model()
    rng = random.Random(22)
    for _ in range(40):
        h = random_homogeneous(model, rng, rng.randint(0, 1))
        v = model.jet_atom("q", (1,))
        pending = ((1,),)
        lhs = partial(make_attach(pending, h), v)
        rhs = make_attach(pending, partial(h, v))
        assert lhs == rhs


# -- Euler operators --------------------------------------------------------

def test_euler_examples(m):
    q, qxx = m.jet("q"), m.jet("q", (2,))
    qd, qdxx = m.jet("q", dagger=True), m.jet("q", (2,), dagger=True)
    qdx_ = m.jet("q", (1,), dagger=True)
    qx = m.jet("q", (1,))
    e = euler_left(m, qd * q * qxx, "q")
    assert e == (qd * qxx).scale(2) + (qdx_ * qx).scale(2) + qdxx * q
    assert euler_left(m, qdxx * m.cos("q"), "q") == -(qdxx * m.sin("q"))
    assert euler_left(m, q * qxx, "q") == qxx.scale(2)


def test_euler_kernel_contains_divergences(m):
    rng = random.Random(23)
    model = ghost_model()
    for _ in range(100):
        h = random_expr(model, rng, with_trig=True)
        dh = total_derivative(h, 0)
        for name, dagger in model.variables():
            assert euler_left(model, dh, name, dagger).is_zero()


def test_euler_right_relation(m):
    rng = random.Random(24)
    for _ in range(30):
        h = random_homogeneous(m, rng, rng.randint(0, 1))
        p = h.parity()
        lhs = euler(m, h, "q", True, side="right")
        rhs = euler_left(m, h, "q", True)
        if (p - 1) & 1:
            rhs = -rhs
        assert lhs == rhs


def test_euler_of_unknown_field_raises(m):
    with pytest.raises(KeyError):
        euler_left(m, m.jet("q") * m.jet("q"), "nope")


def _occurring_indices(e, field, dagger):
    """Every multi-index at which a jet of (field, dagger) occurs in ``e``,
    also as a sin/cos/exp argument or inside an Attach wrapper."""
    found = set()
    for a in e.atoms():
        if isinstance(a, Attach):
            found |= _occurring_indices(a.inner, field, dagger)
            continue
        u = a.arg if isinstance(a, Trig) else a
        if isinstance(u, JetVar) and u.field == field and u.dagger == dagger:
            found.add(u.index)
    return found


def _channelled_partial(e, v):
    """The channelled left partial d/dv by the graded Leibniz rule, from
    ``partial``: each monomial is split into its plain factors P and its
    Attach factors A_1...A_k; the derivative of P is gathered into a block
    pending sigma, that of A_j adds sigma to A_j's pending set (nothing is
    pending at sigma = 0)."""
    pend = (v.index,) if any(v.index) else ()
    out = Expr.zero()
    for k, mono in e.terms.items():
        plain, blocks = Expr.scalar(mono.coeff), []
        for a, n in mono.factors():
            if isinstance(a, Attach):
                blocks += [a] * n
            else:
                plain = plain * Expr.from_atom(a) ** n
        whole = plain
        for a in blocks:
            whole = whole * Expr.from_atom(a)
        sign = 1 if whole == Expr({k: mono}) else -1
        assert whole == Expr({k: mono}).scale(sign)
        dp = partial(plain, v)
        term = make_attach(pend, dp) if pend else dp
        for a in blocks:
            term = term * Expr.from_atom(a)
        passed = plain.parity()
        for j, a in enumerate(blocks):
            da = make_attach(a.pending + pend, partial(a.inner, v))
            piece = plain
            for i, b in enumerate(blocks):
                piece = piece * (da if i == j else Expr.from_atom(b))
            term = term + (piece if not (v.parity and passed) else -piece)
            passed += a.parity
        out = out + term.scale(sign)
    return out


def _random_wrapped(model, rng):
    """A random expression with Attach atoms, some nested one level deeper,
    and sin/cos/exp of a first derivative."""
    dx = (1,) + (0,) * (model.base_dim - 1)
    e = random_expr(model, rng, with_attach=True)
    if rng.random() < 0.5:
        inner = random_monomial(model, rng, with_attach=True)
        e = e + make_attach((dx,), inner)
    if rng.random() < 0.5:  # random_expr's sin/cos/exp take no derivatives
        tag = rng.choice(("sin", "cos", "exp"))
        e = e * Expr.from_atom(Trig(tag, model.jet_atom(model.fields[0][0], dx)))
    return e


@pytest.mark.parametrize("model", [ghost_model(), plane_model()], ids=["ghost", "plane"])
def test_euler_operators_group_the_per_index_partials(model):
    # one walk files every branch under its multi-index: the Euler operators
    # equal their definition, one partial per occurring index
    rng = random.Random(28)
    for _ in range(40):
        e = _random_wrapped(model, rng)
        for name, dagger in model.variables():
            sigmas = _occurring_indices(e, name, dagger)
            expanded, channelled = Expr.zero(), Expr.zero()
            for sigma in sigmas:
                v = model.jet_atom(name, sigma, dagger)
                sign = -1 if sum(sigma) & 1 else 1
                d = total_derivative_multi(partial(e, v), sigma)
                expanded = expanded + d.scale(sign)
                channelled = channelled + _channelled_partial(e, v).scale(sign)
            assert euler_left(model, e, name, dagger) == expanded
            assert euler(model, e, name, dagger, frozen=True) == channelled


def _euler_reference(model, e, name, dagger, side, frozen):
    """sum_sigma (-D)^sigma d/dq_sigma on ``side``, one monomial at a time
    from ``partial``: expanded, or channelled when ``frozen``; the right
    side is (-1)^(p_v (p_m - 1)) times the left on each monomial m."""
    out = Expr.zero()
    for k, mono in e.terms.items():
        one = Expr({k: mono})
        flip = side == "right" and model.parity(name, dagger) and not len(mono.odd) & 1
        for sigma in _occurring_indices(one, name, dagger):
            v = model.jet_atom(name, sigma, dagger)
            if not frozen:
                d = total_derivative_multi(partial(one, v), sigma)
            else:
                d = _channelled_partial(one, v)
            out = out + d.scale((-1) ** (sum(sigma) + flip))
    return out


@pytest.mark.parametrize("model", [ghost_model(), plane_model()], ids=["ghost", "plane"])
def test_eulers_are_the_per_variable_euler_operators(model):
    # one walk serves every variable: each image equals its definition, with
    # no variable frozen, every one, or each half of the variables walked
    # apart, one unfrozen and one frozen; the public right side of each
    # equals its definition too
    variables = list(model.variables())
    walks = [(variables, False), (variables, True),
             (variables[0::2], False), (variables[1::2], True)]
    rng = random.Random(30)
    for _ in range(25):
        e = _random_wrapped(model, rng)
        for walked, frozen in walks:
            images = eulers(model, e, walked, frozen)
            assert list(images) == walked
            for name, dagger in walked:
                expected = _euler_reference(model, e, name, dagger, "left", frozen)
                assert images[name, dagger] == expected
                right = euler(model, e, name, dagger, "right", frozen)
                assert right == _euler_reference(model, e, name, dagger, "right", frozen)


# -- the walk against a raw-branch reference ------------------------------------

def _reference_trig_chain(a):
    if a.tag == "sin":
        return Expr.from_atom(Trig("cos", a.arg))
    if a.tag == "cos":
        return -Expr.from_atom(Trig("sin", a.arg))
    return Expr.from_atom(Trig("exp", a.arg))


def _reference_partials(e, variables, side, isolate, index=None):
    """The partials walk built from raw factor lists: every branch is the
    monomial's factor list with one copy of a factor replaced, wrapped by
    ``make_attach`` and normalised by ``_from_raw``, and with ``isolate``
    each branch of a frozen variable has its home plains wrapped as it is
    filed.  The result is ``{(field, dagger): {sigma: Expr}}``, as
    ``_filed`` groups ``jetcalc._walk``."""
    raw = {}
    expanded = None
    dives = {}
    for m in e.monomials():
        factors = m.factors()
        sign = -1 if side == "right" and not len(m.odd) & 1 else 1
        for i, (a, k) in enumerate(factors):
            s = sign
            if a.parity:
                sign = -sign
            if isinstance(a, Attach):
                hits = dives.get(a)
                if hits is None:
                    if expanded is None:
                        expanded = {v: (p, False) for v, (p, _) in variables.items()}
                    hits = dives[a] = []
                    inner = _reference_partials(a.inner, expanded, "left", False, index)
                    for v, by_index in inner.items():
                        parity, frozen = variables[v]
                        for sigma, d in by_index.items():
                            pending = a.pending
                            if frozen and sum(sigma) > 0:
                                pending += (sigma,)
                            dived = make_attach(pending, d)
                            if not dived.is_zero():
                                hits.append((v, parity, frozen, sigma, None, dived))
                if not hits:
                    continue
            elif isinstance(a, (JetVar, Trig)):
                u = a.arg if isinstance(a, Trig) else a
                v = (u.field, u.dagger)
                spec = variables.get(v)
                if spec is None or (index is not None and u.index != index):
                    continue
                parity, frozen = spec
                pend = u.index if frozen and sum(u.index) > 0 else None
                hits = ((v, parity, frozen, u.index, pend,
                         _reference_trig_chain(a) if isinstance(a, Trig) else None),)
            else:
                continue
            head = factors[:i] + (((a, k - 1),) if k > 1 else ())
            tail = factors[i + 1:]
            cmult = m.coeff * k if k > 1 else m.coeff
            for v, parity, frozen, sigma, pend, chain in hits:
                c = -cmult if parity and s < 0 else cmult
                iso = isolate and frozen
                out = raw.setdefault((v, sigma), [])
                if chain is None:
                    out.extend(_reference_wrap_branch(c, head + tail, pend, iso))
                    continue
                for dm in chain.monomials():
                    out.extend(_reference_wrap_branch(c * dm.coeff, head + dm.factors() + tail,
                                                      pend, iso))
    filed = {}
    for (v, sigma), branches in raw.items():
        filed.setdefault(v, {})[sigma] = _from_raw(branches)
    return filed


def _reference_wrap_branch(coeff, factors, pend, isolate):
    """One raw branch with its home plains gathered, in their order, into a
    block made by ``make_attach``; the kept factors are moved in front of
    them one at a time, each odd one past the odd home plains before it."""
    if pend is None and not isolate:
        return [(coeff, factors)]
    kept, wrapped = [], []
    wrapped_odd = 0
    for a, k in factors:
        if isinstance(a, Attach):
            if a.parity and wrapped_odd & 1:
                coeff = -coeff
            kept.append((a, k))
        else:
            wrapped.append((a, k))
            wrapped_odd += a.parity
    if not wrapped and pend is None:
        return [(coeff, tuple(kept))]
    inner = _from_raw([(Coefficient.one(), wrapped)])
    attach = make_attach((pend,) if pend is not None else (), inner)
    return [(coeff * dm.coeff, tuple(kept) + dm.factors()) for dm in attach.monomials()]


def _reference_eulers(model, e, frozen, side, isolate):
    """sum_sigma (-D)^sigma of the reference partials: expanded one
    multi-index at a time, or kept pending by a frozen variable."""
    variables = {v: (model.parity(*v), f) for v, f in frozen.items()}
    terms = _reference_partials(e, variables, side, isolate)
    out = {}
    for v, f in frozen.items():
        total = Expr.zero()
        for sigma, term in terms.get(v, {}).items():
            if not f:
                term = total_derivative_multi(term, sigma)
            total = total + term.scale((-1) ** sum(sigma))
        out[v] = total
    return out


def _filed(walk, isolate=False):
    """The term maps of ``jetcalc._walk`` as nonzero Exprs by variable and
    multi-index, each isolated (``_isolate``) when ``isolate``."""
    filed = {}
    for u, terms in walk.items():
        d = Expr(terms) if terms else Expr.zero()
        if isolate:
            d = _isolate(d)
        if not d.is_zero():
            filed.setdefault(u.var, {})[u.index] = d
    return filed


def _nonzero(filed):
    nonzero = {v: {sigma: d for sigma, d in by_index.items() if not d.is_zero()}
               for v, by_index in filed.items()}
    return {v: by_index for v, by_index in nonzero.items() if by_index}


# fields "s" (even) and "t" (odd) are ordinary fields, one more of each parity
_WALK_MODELS = {
    "ghost": ghost_model().extend([("s", 0), ("t", 1)]),
    "plane": BvModel(2, [("u", 0), ("c", 1), ("s", 0), ("t", 1)]),
}


def _walk_input(model, rng):
    """Random input for the walk: sin/cos/exp factors, blocks pending
    derivatives nested up to three deep, bare blocks, and jets of the
    fields s and t both at home and inside blocks."""
    e = _random_wrapped(model, rng)
    if rng.random() < 0.4:
        e = e + _nested_twice(model, rng) * random_monomial(model, rng, degree=1)
    if rng.random() < 0.3:
        bare = make_attach((), random_monomial(model, rng, degree=rng.randint(1, 2)))
        e = e * bare + bare * random_monomial(model, rng, degree=1)
    if rng.random() < 0.5:
        e = e * model.jet(rng.choice(("s", "t")), (0,) * model.base_dim)
    return e


@pytest.mark.parametrize("which", sorted(_WALK_MODELS))
def test_walk_agrees_with_the_raw_branch_reference(which):
    # the walk, and the bracket's isolation applied after it, against the
    # reference that files and wraps every branch one at a time; isolating
    # a frozen image is linear, so it equals wrapping each branch as it is
    # filed
    model = _WALK_MODELS[which]
    variables = list(model.variables())
    if which == "ghost":
        # the home plain c meets its own kept bare block: isolated, the
        # frozen image by q is the odd block squared
        q, c = model.jet("q"), model.jet("c")
        e = q * c * make_attach((), c)
        frozen = euler(model, e, "q", frozen=True)
        assert frozen == c * make_attach((), c) and _isolate(frozen).is_zero()
        for isolate in (False, True):
            ref = _reference_eulers(model, e, {("q", False): True}, "left", isolate)
            assert isolated(frozen, isolate) == ref["q", False]
    rng = random.Random(32)
    for case in range(110):
        e = _walk_input(model, rng)
        frozen = {v: rng.random() < 0.6 for v in variables}
        side = rng.choice(("left", "right"))
        isolate = rng.random() < 0.5
        context = (case, frozen, side, isolate)

        # one walk per flag: the variables drawn unfrozen, then those frozen;
        # a frozen image isolated when ``isolate``
        for f in (False, True):
            walked = [v for v in variables if frozen[v] is f]
            got = {v: isolated(image, isolate and f)
                   for v, image in eulers(model, e, walked, f).items()}
            reference = _reference_eulers(model, e, dict.fromkeys(walked, f), "left", isolate)
            assert got == reference, context

            # partials filed by variable and multi-index
            parities = {v: model.parity(*v) for v in walked}
            walk = _walk(e, parities, f)
            expected = _reference_partials(e, {v: (p, f) for v, p in parities.items()},
                                           "left", isolate)
            assert _filed(walk, isolate and f) == _nonzero(expected), context
        (name, dagger), f = rng.choice(sorted(frozen.items()))
        expected = _reference_eulers(model, e, {(name, dagger): f}, side, isolate)
        got = euler(model, e, name, dagger, side, f)
        assert isolated(got, isolate and f) == expected[name, dagger]

        sigmas = sorted(_occurring_indices(e, name, dagger)) or [(0,) * model.base_dim]
        expanded = {v: (model.parity(*v), False) for v in variables}
        for sigma in sigmas:
            v = model.jet_atom(name, sigma, dagger)
            for side_ in ("left", "right"):
                ref = _reference_partials(e, expanded, side_, False, sigma)
                assert partial(e, v, side_) == ref.get((name, dagger), {}).get(sigma, Expr.zero()), context


def test_isolation_merges_a_wrapped_monomial_into_a_block_filed_before(m):
    # isolation is linear: q*B isolates to at(q)*B, and the blocks-only
    # monomial at(q)*B after it is added to that term
    q = m.jet("q")
    B, at_q = make_attach(((1,),), q), make_attach((), q)
    e = q * B + at_q * B
    assert [type(mono.even[0][0]) for mono in e.monomials()] == [JetVar, Attach]
    assert _isolate(e) == (at_q * B).scale(2)


@pytest.mark.parametrize("which", sorted(_WALK_MODELS))
def test_the_right_side_agrees_with_the_raw_branch_reference(which):
    # the public right side signs the left image; the reference files every
    # branch at its own monomial's right-side sign; on input that mixes
    # parities no one sign for the whole expression works; by every
    # variable, expanded, frozen and isolated
    model = _WALK_MODELS[which]
    t = model.jet("t", (0,) * model.base_dim)
    rng = random.Random(34)
    checked = flipped = 0
    for case in range(40):
        e = _walk_input(model, rng)
        e = e + e * t
        if e.is_homogeneous():
            continue
        checked += 1
        for v in model.variables():
            for frozen in (False, True):
                right = euler(model, e, *v, "right", frozen)
                expected = _reference_eulers(model, e, {v: frozen}, "right", False)[v]
                assert right == expected, (case, v, frozen)
                left = euler(model, e, *v, "left", frozen)
                flipped += right != left
            # the isolated frozen image, as the bracket takes it
            expected = _reference_eulers(model, e, {v: True}, "right", True)[v]
            assert _isolate(right) == expected, (case, v)
            flipped += _isolate(right) != _isolate(left)
            by_index = _reference_partials(e, {v: (model.parity(*v), False)}, "right", False)
            for sigma, d in by_index.get(v, {}).items():
                assert partial(e, model.jet_atom(v[0], sigma, v[1]), "right") == d, (case, v, sigma)
    assert checked >= 30 and flipped >= 100, (checked, flipped)


def test_an_unknown_side_is_refused_before_any_walk(m, monkeypatch):
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(jetcalc, "_walk", walk)
    e = m.jet("q") * m.jet("q", (1,), dagger=True)
    calls = (lambda: partial(e, m.jet_atom("q"), "up"),
             lambda: euler(m, e, "q", side="up"),
             lambda: euler(m, e, "q", True, "up", True))
    for call in calls:
        with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
            call()

def _walk_inputs():
    for model in (ghost_model(), plane_model()):
        rng = random.Random(4100 + model.base_dim)
        for _ in range(30):
            e = (random_expr(model, rng, terms=rng.randint(2, 5), with_attach=True)
                 * random_expr(model, rng, terms=2, with_attach=True))
            yield model, e
    m, S, X = nested_brackets(2)
    for blocks in schouten(S, X).terms:
        for b in blocks:
            yield m, b


def test_a_walk_by_one_variable_is_its_slice_of_the_walk_by_all():
    # a walk by one variable visits every monomial, as the walk by every
    # variable does, and files what that walk files for its variable
    seen = 0
    for model, e in _walk_inputs():
        variables = list(model.variables())
        spec = {v: model.parity(*v) for v in variables}
        for frozen in (False, True):
            every = _filed(_walk(e, spec, frozen))
            for v in variables:
                one = _filed(_walk(e, {v: spec[v]}, frozen))
                assert one.get(v, {}) == every.get(v, {}), (e, v, frozen)
                seen += bool(one.get(v))
    assert seen > 250, seen


def test_the_walk_index_is_built_on_the_second_walk_by_one_variable(monkeypatch):
    # no walk index is kept: an expanded euler by every variable in turn
    # walks its operand once per model, whose images by every variable
    # ``jetcalc.images`` keeps on it, and each left and right image equals
    # a fresh walk by that variable alone, signed for the right side on
    # its odd monomials by an odd variable
    walked = []

    def counted(model, e, *args):
        walked.append(e)
        return eulers(model, e, *args)

    monkeypatch.setattr(jetcalc, "eulers", counted)
    checked = 0
    for model, e in _walk_inputs():
        e = Expr(dict(e.terms))
        wider = model.extend([("w", 1)])
        for m_ in (model, wider, model):
            for v in m_.variables():
                # the test module's own binding: a fresh walk, not counted
                fresh = eulers(m_, e, [v])[v]
                odd = Expr({k: mono for k, mono in fresh.terms.items() if len(mono.odd) & 1})
                signed = fresh - odd.scale(2) if m_.parity(*v) else fresh
                assert euler(m_, e, *v) == fresh, (e, v)
                assert euler(m_, e, *v, side="right") == signed, (e, v)
                checked += not fresh.is_zero()
        assert sum(w is e for w in walked) == 2
        assert list(e._images) == [(model, False), (wider, False)]
    assert checked > 250, checked


def test_walk_edge_cases(m):
    # the channelled Euler operator by q, isolated, on inputs whose only
    # q-dependence is the one factor named; the kept block holds no q
    q, qxx, x = m.jet("q"), m.jet("q", (2,)), m.x(0)
    qd, qdx = m.jet("q", dagger=True), m.jet("q", (1,), dagger=True)
    block = make_attach(((1,),), qd * qdx)
    cases = [
        # a pending derivative of empty home plains is 0, beside a kept block too
        (qxx, Expr.zero()),
        (block * qxx, Expr.zero()),
        # a bare wrap of nothing keeps the kept factors
        (block * q, block),
        # the gathered block meets an equal even block, or an equal odd one
        (make_attach((), x) * x * q, make_attach((), x) ** 2),
        (make_attach((), qd) * qd * q, Expr.zero()),
    ]
    for e, expected in cases:
        assert not e.is_zero()
        got = _isolate(euler(m, e, "q", False, frozen=True))
        ref = _reference_eulers(m, e, {("q", False): True}, "left", True)
        assert got == ref[("q", False)] == expected, e


# -- the branches a block keeps ---------------------------------------------
#
# A block keeps its partial-derivative branches (``Attach.branches``) once a
# walk has entered it, for the life of the import, so the first walk must not
# decide what a later walk finds.  Each case is built from field names that
# no other test uses, so its blocks are entered here first.


def _memo_case(tag, nested):
    """A fresh model and a block-holding density: the fields mb<tag>p (even)
    and mb<tag>c (odd) at home and in blocks pending derivatives, and, when
    ``nested``, mb<tag>n (even) only in a block nested in another block's
    inner, where no plain factor of that inner holds it."""
    p, c, n = f"mb{tag}p", f"mb{tag}c", f"mb{tag}n"
    model = BvModel(1, [(p, 0), (c, 1), (n, 0)])
    jet = model.jet
    if nested:
        inner = jet(p) * jet(c, (1,)) * make_attach(((1,),), jet(n) * jet(n, (2,)))
    else:
        inner = jet(p) * jet(p, (1,)) * jet(c, (1,)) * jet(c, (2,), dagger=True)
    odd = make_attach(((2,),), inner)
    even = make_attach(((1,),), jet(p, (1,)) * jet(c) * jet(c, (1,)))
    e = jet(c) * odd * jet(p, (2,)) + even * odd * jet(c, (1,)) + even ** 2 * jet(p)
    (odd,), (even,) = odd.atoms(), even.atoms()
    assert odd.parity and not even.parity
    return model, e, (odd, even)


def _memo_walks(model):
    """Walks as (variables, frozen): by one variable or by all, either flag."""
    every = list(model.variables())
    return [(vs, f) for vs in (every[:1], every) for f in (False, True)]


@pytest.mark.parametrize("nested", (False, True))
def test_a_block_keeps_what_any_later_walk_finds(nested):
    # every ordered pair of walks on a fresh block, by one variable or all,
    # unfrozen or frozen: each equals the reference, which keeps nothing,
    # whichever walk entered the block first
    tag = 0
    for first, later in itertools.permutations(range(4), 2):
        tag += 1
        model, e, blocks = _memo_case(f"{int(nested)}x{tag}", nested)
        assert all(b.branches is None for b in blocks)
        for k in (first, later):
            variables, frozen = _memo_walks(model)[k]
            got = eulers(model, e, variables, frozen)
            expected = _reference_eulers(model, e, dict.fromkeys(variables, frozen), "left", False)
            assert got == expected, (nested, first, later, k)
        assert all(b.branches is not None for b in blocks)
    # a nested block's variable reaches the outer walk through its host
    model, e, _ = _memo_case(f"{int(nested)}y", nested)
    n = (f"mb{int(nested)}yn", False)
    assert eulers(model, e, [n], True)[n].is_zero() is not nested


def test_a_second_walk_enters_no_block(monkeypatch):
    # once a walk with each flag has entered a block, no walk of a density
    # holding it, by any variables, walks its inner or builds a block
    model, e, _ = _memo_case("z", True)
    parities = {v: model.parity(*v) for v in model.variables()}
    for f in (False, True):
        _walk(e, parities, f)
    walks, attached = [], []

    def walk(*args):
        walks.append(args[0])
        return _walk(*args)

    def attach(*args):
        attached.append(args)
        return make_attach(*args)

    monkeypatch.setattr(jetcalc, "_walk", walk)
    monkeypatch.setattr(jetcalc, "make_attach", attach)
    interned = len(algebra._INTERNED)
    for variables, frozen in _memo_walks(model):
        walks.clear()
        found = jetcalc._walk(e, {v: parities[v] for v in variables}, frozen)
        assert walks == [e] and not attached and found, (variables, frozen)
    assert len(algebra._INTERNED) == interned


def test_a_block_no_walk_entered_keeps_nothing():
    # interning a block allocates no branches; a walk fills those of the
    # blocks it enters, and of the blocks nested in them, and no others
    model, e, (odd, even) = _memo_case("w", True)
    (nested,) = [a for a in odd.inner.atoms() if type(a) is Attach]
    (other,) = make_attach(((1,),), model.jet("mbwp", (3,))).atoms()
    assert all(b.branches is None for b in (odd, even, nested, other))
    eulers(model, e, list(model.variables()), True)
    assert odd.branches[1] and even.branches[1] and nested.branches[0]
    assert odd.branches[0] is None and other.branches is None


def test_the_engine_never_calls_the_reference_normaliser(m):
    # every product, total derivative and Euler branch is a merge of
    # canonical monomials; the reference normaliser lives in the tests alone
    assert not hasattr(algebra, "_from_raw") and not hasattr(jetcalc, "_from_raw")
    q, qx, qd = m.jet("q"), m.jet("q", (1,)), m.jet("q", dagger=True)
    sin, cos = m.sin("q"), m.cos("q")
    even_block = make_attach(((1,),), q * qx)
    odd_block = make_attach(((1,),), qd * qx)
    densities = [sin * cos, qd * odd_block * even_block ** 2 * m.exp("q", (1,)),
                 odd_block * cos * q + even_block * sin * qd]
    derivatives = [_reference_total_derivative(e, 0) for e in densities]
    model = _WALK_MODELS["ghost"]
    variables = list(model.variables())
    frozen = dict.fromkeys(variables, True)
    rng = random.Random(17)
    walked = []
    for _ in range(12):
        e = _walk_input(model, rng)
        for side in ("left", "right"):
            walked.append((e, side, _reference_eulers(model, e, frozen, side, True)))
    assert any(isinstance(a, Attach) for e, _, _ in walked for a in e.atoms())
    _, F, G = build_scalar_example()
    assert sin * sin == 1 - cos * cos
    for e, expected in zip(densities, derivatives):
        assert total_derivative(e, 0) == expected != Expr.zero()
    for e, side, expected in walked:
        if side == "left":
            images = eulers(model, e, variables, True)
            assert {v: _isolate(image) for v, image in images.items()} == expected
        assert _isolate(euler(model, e, "c", True, side, True)) == expected["c", True]
    for mode in ("geometric", "naive"):
        laplacian(G, mode)
        assert not laplacian(schouten(F, G, mode), mode).is_zero()


# -- channelled operators ---------------------------------------------------

def test_euler_channelled_examples(m):
    q, qxx = m.jet("q"), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    f = qd * q * qxx
    e = euler(m, f, "q", False, frozen=True)
    expected = qd * qxx + make_attach(((2,),), qd * q)
    assert e == expected

    # both contributions are pending derivatives of the constant 1
    w = make_attach(((2,),), q)
    assert euler(m, qxx + w, "q", False, frozen=True).is_zero()

    # a partial passing through an existing wrapper
    w2 = make_attach(((2,),), -m.sin("q"))
    out = euler(m, w2, "q", False, frozen=True)
    assert out == make_attach(((2,),), -m.cos("q"))


def test_collapse_examples(m):
    q = m.jet("q")
    qx, qxx = m.jet("q", (1,)), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    w = make_attach(((2,),), -m.sin("q"))
    assert collapse(w) == m.sin("q") * qx * qx - m.cos("q") * qxx
    assert collapse(make_attach(((2,),), Expr.scalar(1))).is_zero()
    assert collapse(qd * qxx) == qd * qxx
    assert collapse(make_attach((), q * qx)) == q * qx


def _reference_collapse(e):
    """collapse by its definition: each monomial is the product, one Expr
    factor at a time, of its plain atoms and its collapsed Attach blocks."""
    out = Expr.zero()
    for mono in e.monomials():
        term = Expr.scalar(mono.coeff)
        for a, k in mono.factors():
            fa = Expr.from_atom(a)
            if isinstance(a, Attach):
                fa = _reference_collapse(a.inner)
                for idx in a.pending:
                    fa = total_derivative_multi(fa, idx)
            for _ in range(k):
                term = term * fa
        out = out + term
    return out


def _nested_twice(model, rng):
    """Three blocks nested, each pending a first-order derivative and
    beside a random monomial; squared when even, so the outer Attach atom
    has exponent 2."""
    n = model.base_dim
    blk = Expr.scalar(1)
    for _ in range(3):
        sigma = [0] * n
        sigma[rng.randrange(n)] = 1
        blk = make_attach((tuple(sigma),),
                          blk * random_monomial(model, rng, degree=rng.randint(1, 2)))
    return blk * blk if blk.is_homogeneous() and blk.parity() == 0 else blk


@pytest.mark.parametrize("model", [ghost_model(), plane_model()], ids=["ghost", "plane"])
def test_collapse_agrees_with_the_product_of_collapsed_factors(model):
    rng = random.Random(29)
    squared = 0
    for _ in range(60):
        nested = _nested_twice(model, rng)
        squared += any(k == 2 and isinstance(a, Attach)
                       for mono in nested.monomials() for a, k in mono.even)
        e = _random_wrapped(model, rng) + nested * random_monomial(model, rng, degree=1)
        assert collapse(e).key() == _reference_collapse(e).key()
        assert collapse(nested).key() == _reference_collapse(nested).key()
    assert squared >= 10


def _attach_atoms(e, found):
    """Every distinct Attach atom of ``e``, nested ones included."""
    for a in e.atoms():
        if isinstance(a, Attach) and a not in found:
            found.add(a)
            _attach_atoms(a.inner, found)
    return found


@pytest.mark.parametrize("model", [ghost_model(), BvModel(2, [("q", 0), ("c", 1)])],
                         ids=["ghost", "plane"])
def test_collapse_expands_each_distinct_block_once(model, monkeypatch):
    # four blocks (even and odd, nested, with exponents up to 3) and their
    # copies with the pending derivatives split (``_split``), shared by many
    # monomials with different coefficients: collapse expands each distinct
    # block it reaches once per call, nested ones included, and agrees with
    # collapsing the monomials one at a time and with the reference
    from bvcalc import jetcalc

    rng = random.Random(31)
    n = model.base_dim
    dx, ddx = (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)
    q, c = model.jet("q"), model.jet("c")
    inner = make_attach((ddx,), q * model.jet("q", dx))
    even = make_attach((ddx,), inner * q)
    odd = make_attach((ddx,), inner * c)
    bare_odd = make_attach((ddx,), c * q)
    copies = {t: _split(t) for t in (inner, even, odd, bare_odd)}

    def pick(t):
        return t if rng.random() < 0.5 else copies[t]

    e = Expr.zero()
    for _ in range(30):
        term = random_monomial(model, rng, degree=1, with_trig=False)
        term = term * pick(even) ** rng.randint(1, 3)
        term = term * rng.choice((Expr.scalar(1), pick(odd), pick(bare_odd), pick(inner) ** 2))
        e = e + term
    assert len(e.terms) >= 10
    assert len(_attach_atoms(e, set())) == 8

    calls = []
    expand = jetcalc._expand_block

    def counted(a, expansions):
        calls.append(a)
        return expand(a, expansions)

    monkeypatch.setattr(jetcalc, "_expand_block", counted)
    whole = collapse(e)
    assert len(calls) == len(set(calls)) == 8
    assert set(calls) == _attach_atoms(e, set())
    one_at_a_time = Expr.zero()
    for k, mono in e.terms.items():
        one_at_a_time = one_at_a_time + collapse(Expr({k: mono}))
    assert whole.key() == one_at_a_time.key()
    assert whole.key() == _reference_collapse(e).key()


_LABEL = re.compile(r"(?:(?<=frz\[)|(?<=; ))(\d+)(?=:)")  # a printed channel label


def _split(e):
    """``e`` with the pending derivatives of every block, nested ones
    included, split into first-order ones: each block keeps its collapse,
    and one pending a derivative of order two or more becomes another
    atom."""
    out = Expr.zero()
    for mono in e.monomials():
        term = Expr.scalar(mono.coeff)
        for a, k in mono.factors():
            f = Expr.from_atom(a)
            if isinstance(a, Attach):
                units = sorted(tuple(int(i == j) for j in range(len(idx)))
                               for idx in a.pending for i, n in enumerate(idx) for _ in range(n))
                f = make_attach(units, _split(a.inner))
            term = term * f ** k
        out = out + term
    return out


def _random_index(model, rng):
    """A multi-index of order 1 or 2 along one random coordinate."""
    idx = [0] * model.base_dim
    idx[rng.randrange(model.base_dim)] = rng.randint(1, 2)
    return tuple(idx)


def _odd_block(model, rng, sigma):
    """An odd block pending sigma: dag(f) f of the model's first field f,
    an even one, with random derivatives."""
    f = model.fields[0][0]
    inner = (model.jet(f, _random_index(model, rng), dagger=True)
             * model.jet(f, _random_index(model, rng)))
    return make_attach((sigma,), inner)


def _relabelled_copies(model, rng):
    """A sum of two to four copies of one random expression with blocks,
    each printed, read back with its channel labels renamed by a random
    bijection, its pending derivatives split (``_split``) or not, and with
    a random sign; and the kinds of block it was built with.  Beside
    ``random_expr``'s blocks, the expression may hold a block nested twice
    (squared when even); a block times its split copy: its collapse squared
    when even, twice when odd; and two odd blocks pending the same
    derivative, alone and inside a block pending two derivatives."""
    e = random_expr(model, rng, with_attach=True)
    kinds = set()
    if rng.random() < 0.5:
        sigma = _random_index(model, rng)
        pair = _odd_block(model, rng, sigma) * _odd_block(model, rng, sigma)
        outer = make_attach((sigma, _random_index(model, rng)),
                            pair * random_monomial(model, rng, degree=1, with_trig=False))
        e = (e + pair * random_monomial(model, rng, degree=1)
             + outer * random_monomial(model, rng, degree=1))
        kinds.add("odd pair")
    if rng.random() < 0.4:
        e = e + _nested_twice(model, rng) * random_monomial(model, rng, degree=1)
        kinds.add("nested")
    if rng.random() < 0.5:
        w = make_attach((_random_index(model, rng),),
                        random_monomial(model, rng, degree=rng.randint(1, 2), with_trig=False))
        e = e + w * _split(w) * random_monomial(model, rng, degree=1)
        kinds.add("odd twice" if w.parity() else "even squared")
    kinds.update("odd" for mono in e.monomials() for a in mono.odd if isinstance(a, Attach))
    text = format_expr(e)
    labels = sorted({int(x) for x in _LABEL.findall(text)})
    out = Expr.zero()
    for _ in range(rng.randint(2, 4)):
        names = dict(zip(labels, rng.sample(range(100, 200), len(labels))))
        copy = parse_expr(_LABEL.sub(lambda mt: str(names[int(mt.group(1))]), text), model)
        assert copy == e
        copy = _split(copy) if rng.random() < 0.5 else copy
        out = out + (copy if rng.random() < 0.5 else -copy)
    return out, kinds


@pytest.mark.parametrize("model", [scalar_model(), ghost_model(),
                                   BvModel(2, [("u", 0), ("c", 1)])],
                         ids=["scalar", "ghost", "plane"])
def test_collapse_of_relabelled_copies_agrees_with_the_reference(model):
    # copies read back under other labels are the expression itself, and
    # those with their pending derivatives split hold other blocks, which
    # collapse alike and merge or cancel once expanded; the result is the
    # collapse of their sum by its definition
    rng = random.Random(37)
    seen = collections.Counter()
    for case in range(60):
        e, kinds = _relabelled_copies(model, rng)
        seen.update(kinds)
        assert collapse(e).key() == _reference_collapse(e).key(), case
    for kind in ("nested", "odd", "even squared", "odd twice", "odd pair"):
        assert seen[kind] >= 5, (kind, seen)


def test_copies_equal_up_to_labels_cancel_before_any_expansion(monkeypatch):
    # a nested block, odd blocks and an even block squared: a copy written
    # under other labels is the expression itself, so the difference is
    # zero as built; a copy with its pending derivatives split is another
    # expression, whose blocks are other atoms, and the difference collapses
    # to zero; so does an odd block times its split copy, the odd expansion
    # of one times that of the other
    from bvcalc import jetcalc

    model = ghost_model()
    q, c, qd = model.jet("q"), model.jet("c"), model.jet("q", dagger=True)
    inner = make_attach(((2,),), q * model.jet("q", (1,)))
    e = (make_attach(((2,),), inner * c) * make_attach(((2,),), qd * q) * q
         + inner ** 2 * make_attach(((2,),), c))
    text = format_expr(e)
    assert (e - parse_expr(_LABEL.sub(lambda mt: str(int(mt.group(1)) + 5), text), model)).is_zero()
    copy = _split(e)
    assert not (e - copy).is_zero()
    w = make_attach(((2,),), qd * q)
    twice = w * _split(w) * q
    assert w.parity() == 1 and not twice.is_zero()

    calls = []
    for name in ("total_derivative", "_add_total_derivative", "_add_product"):
        def counted(*args, _f=getattr(jetcalc, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(jetcalc, name, counted)
    assert collapse(e - copy).is_zero()
    assert collapse(twice).is_zero()
    calls.clear()
    assert collapse(e) == collapse(copy) != Expr.zero()
    assert "total_derivative" in calls and "_add_product" in calls


def test_collapse_of_the_omega_blocks_agrees_with_the_reference():
    # the geometric omega row is the one suite whose collapse meets frozen
    # monomials: at the draws of seed 41, every block of its master-equation
    # obstruction Q = -i*hbar*Delta S + 1/2 [[S,S]] collapses as the
    # product of its collapsed factors
    from bvcalc import bv
    from bvcalc.cli import _draw

    model = BvModel(1, [("q", 0)])
    frozen = 0
    for case in range(5):
        O, S = _draw("omega", model, 41 * 10_000 + case, 2)
        Q = bv._qme(laplacian(S, bv.GEOMETRIC), schouten(S, S, bv.GEOMETRIC))
        for b in Q.blocks():
            frozen += b.has_attach()
            assert collapse(b).key() == _reference_collapse(b).key(), case
    assert frozen >= 5


def test_collapse_of_channelled_euler_is_plain_euler():
    model = ghost_model()
    rng = random.Random(25)
    for _ in range(50):
        e = random_homogeneous(model, rng, rng.randint(0, 1))
        for name, dagger in (("q", False), ("q", True), ("c", False)):
            chan = _isolate(euler(model, e, name, dagger, frozen=True))
            assert collapse(chan) == euler_left(model, e, name, dagger)


def test_canonicalize_channels(m):
    # blocks are anonymous: a label is only a name, which the parser reads
    # and drops, so blocks written with other labels are one block, the one
    # make_attach builds from the multi-indices alone
    q, c = m.jet("q"), m.cos("q")
    assert parse_expr("frz[7:x1 x1](cos(q))", m) == parse_expr("frz[9:x1 x1](cos(q))", m) \
        == make_attach(((2,),), c)
    two = parse_expr("frz[7:x1](q)*frz[9:x1 x1](q)", m)
    assert two == parse_expr("frz[0:x1 x1](q)*frz[1:x1](q)", m)
    assert two == make_attach(((1,),), q) * make_attach(((2,),), q)


def _swap_cases(m):
    """Factor lists whose product holds one block twice, beside plain
    factors and other blocks, or inside a block: built apart, the equal
    blocks are one atom, odd or even."""
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd, qdx = m.jet("q", dagger=True), m.jet("q", (1,), dagger=True)
    one, two = (1,), (2,)
    out = []
    for inner in (q, q * qx, qd, qd * q, qd * qdx):
        w = [make_attach((two,), inner) for _ in range(3)]
        other = make_attach((one,), inner)
        out += [[w[0], w[1]], [w[0], w[1], w[2], qx], [w[0], w[1], other],
                [w[0], w[1], make_attach((one,), q * qx), qd]]
    return out


def _product(factors):
    out = Expr.scalar(1)
    for f in factors:
        out = out * f
    return out


def test_channel_swap_odd_monomial_vanishes(m):
    # two equal odd blocks are one odd atom twice, so their product is zero
    # as it is built, alone, beside other blocks or inside a block; two
    # equal even blocks are its square.  Collapse agrees with the product of
    # the collapsed factors, in which an odd factor twice is zero too
    qd = m.jet("q", dagger=True)
    w1, w2 = parse_expr("frz[3:x1 x1](dag(q))", m), parse_expr("frz[5:x1 x1](dag(q))", m)
    w3 = make_attach(((1,),), m.jet("q"))
    assert w1 == w2 and w1.parity() == 1
    for e in (w1 * w2, w1 * w2 * w3, make_attach(((2,),), w1 * w2 * m.jet("q"))):
        assert e.is_zero()
    zero = square = 0
    for factors in _swap_cases(m):
        e = _product(factors)
        twice = factors[0]
        assert twice == factors[1]
        if twice.parity():
            assert e.is_zero()
            zero += 1
        else:
            ((a, k),) = [(a, k) for a, k in next(iter(e.monomials())).even
                         if Expr.from_atom(a) == twice]
            assert k >= 2
            square += 1
        assert collapse(e) == _product([collapse(f) for f in factors])
    assert (zero, square) == (8, 12)


@functools.lru_cache(maxsize=None)
def _nested_blocks():
    """The densities of [[S,X]] and [[X,S]], X = [[S,[[S,O]]]]."""
    _, S, X = nested_brackets(2)
    return [b for F in (schouten(S, X), schouten(X, S)) for blocks in F.terms for b in blocks]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonicalize_channels_ignores_label_names(seed):
    # the printer names each monomial's channels 0, 1, ...; the text read
    # back with its labels renamed by any bijection is the same block
    rng = random.Random(seed)
    b = _nested_blocks()[rng.randrange(len(_nested_blocks()))]
    text = format_expr(b)
    labels = sorted({int(x) for x in _LABEL.findall(text)})
    names = dict(zip(labels, rng.sample(range(100, 1000), len(labels))))
    renamed = _LABEL.sub(lambda mt: str(names[int(mt.group(1))]), text)
    assert renamed != text
    assert parse_expr(renamed, scalar_model()) == b


def test_engine_monomials_name_each_label_once():
    # brackets, Laplacians and Euler images of frozen operands, nested: the
    # printer names the channels of every monomial 0, 1, ... once each, in
    # print order, and the text reads back to the monomial
    outputs = []
    for model in (scalar_model(), ghost_model(), plane_model()):
        ops = labelled_operands(model, 5)
        for name in ("x", "y", "z"):
            e = ops[name]
            variables = [v for pair in model.pairs() for v in pair]
            images = eulers(model, e, variables, True).values()
            outputs += [(model, x) for x in (e, laplacian_density(model, e),
                                             *map(_isolate, images))]
    m, S, X = nested_brackets(2)
    for F in (X, schouten(S, X), schouten(X, S), laplacian(X)):
        outputs += [(m, b) for blocks in F.terms for b in blocks]
    labelled = 0
    for model, e in outputs:
        for k, mono in e.terms.items():
            one = Expr({k: mono})
            text = format_expr(one)
            labels = [int(x) for x in _LABEL.findall(text)]
            assert labels == list(range(len(labels))), text
            assert parse_expr(text, model) == one, text
            labelled += bool(labels)
    assert labelled > 800


def test_block_swaps_are_symmetries_not_searched(m):
    # a product that holds one block twice is built as that block squared,
    # or as zero when it is odd, from its factors in any order, at the
    # Koszul sign of the order: no order is searched
    rng = random.Random(30)
    for factors in _swap_cases(m):
        e = _product(factors)
        order = list(range(len(factors)))
        for _ in range(3):
            rng.shuffle(order)
            odd = [i for i in order if factors[i].parity()]
            swaps = sum(a > b for j, a in enumerate(odd) for b in odd[j + 1:])
            assert _product([factors[i] for i in order]) == e.scale((-1) ** swaps)


def _relabelled_text(text, names):
    """``text`` with each printed channel label ``l`` renamed ``names(l)``."""
    return _LABEL.sub(lambda mt: str(names(int(mt.group(1)))), text)


@functools.lru_cache(maxsize=None)
def _small_nested_monomials():
    """Single monomials of the nested blocks naming at most 4 channels."""
    return [one for b in _nested_blocks() for one in (Expr({k: mono}) for k, mono in b.terms.items())
            if len(_LABEL.findall(format_expr(one))) <= 4]


def test_canonicalize_channels_agrees_with_reference():
    # the definition, by brute force: all k! bijections of a monomial's
    # printed labels read back to the monomial itself, never to minus it;
    # and equal monomials are those of equal label-erased key (erase_labels,
    # which reads no label), so renaming leaves nothing to normalise
    monos = _small_nested_monomials()
    assert len(monos) >= 40
    m = scalar_model()
    for x in monos:
        text = format_expr(x)
        labels = sorted({int(t) for t in _LABEL.findall(text)})
        assert labels == list(range(len(labels)))
        for perm in itertools.permutations(labels):
            assert parse_expr(_relabelled_text(text, perm.__getitem__), m) == x, text

    def classes(key):
        found = {}
        for i, x in enumerate(monos):
            found.setdefault(key(x), []).append(i)
        return sorted(found.values())

    assert classes(Expr.key) == classes(erase_labels)
    assert len(classes(Expr.key)) < len(monos)  # some monomials are equal


def test_canonicalize_channels_from_an_offset():
    # labels are names from any first label: each nested block read back
    # with every printed label raised by 10 is the block
    m = scalar_model()
    for b in _nested_blocks():
        text = format_expr(b)
        raised = _relabelled_text(text, lambda lab: lab + 10)
        assert raised != text
        assert parse_expr(raised, m) == b


def test_canonicalize_channels_is_per_monomial():
    # a label names a channel within its monomial only: the printer names
    # each monomial's channels from 0, and the sum of the monomials' texts,
    # one label in many monomials, reads back to the whole block
    m = scalar_model()
    for b in _nested_blocks():
        texts = [format_expr(Expr({k: mono})) for k, mono in b.terms.items()]
        assert sum(t.startswith("frz[0:") or "*frz[0:" in t for t in texts) == len(texts)
        assert parse_expr(" + ".join(f"({t})" for t in texts), m) == b


def test_canonicalize_channels_renames_untied_labels_into_signature_order(m):
    q = m.jet("q")
    # label 0 sits on the second derivative, 1 on the first: a block keeps
    # no label, so the product is the one with the labels swapped, or raised
    # to 5 and 6, and the printer names its channels 0, 1 in print order
    e = parse_expr("frz[0:x1 x1](q)*frz[1:x1](q)", m)
    swapped = parse_expr("frz[1:x1 x1](q)*frz[0:x1](q)", m)
    at5 = parse_expr("frz[5:x1 x1](q)*frz[6:x1](q)", m)
    assert e == swapped == at5 == make_attach(((2,),), q) * make_attach(((1,),), q)
    text = format_expr(e)
    assert _LABEL.findall(text) == ["0", "1"]
    assert format_expr(swapped) == format_expr(at5) == text
    assert parse_expr(_relabelled_text(text, lambda lab: 6 - lab), m) == e


def test_canonicalize_channels_shares_nested_blocks_across_monomials(m):
    q, qx, qxx = m.jet("q"), m.jet("q", (1,)), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    # B and N built again with other labels are the same interned atoms,
    # and one atom serves both monomials of a sum
    B = parse_expr("frz[2:x1](frz[1:x1](q)*q_x)", m)
    B2 = parse_expr("frz[0:x1](frz[7:x1](q)*q_x)", m)
    W = make_attach(((2,),), q)
    # inside N the odd blocks written with labels 4, 3 or 3, 4 are one pair
    # of atoms in one order, so no labelling costs N a sign
    N = parse_expr("frz[5:x1](frz[4:x1](dag(q))*frz[3:x1](dag(q)*q)*q)", m)
    N2 = parse_expr("frz[0:x1](frz[3:x1](dag(q))*frz[4:x1](dag(q)*q)*q)", m)
    for block, again, e in ((B, B2, B * W + B2 * qxx), (N, N2, N * qx + N2 * qxx)):
        (atom,) = block.atoms()
        (atom2,) = again.atoms()
        assert atom is atom2 and block == again
        assert len(e.terms) == 2
        for mono in e.monomials():
            assert sum(a is atom for a, _ in mono.factors()) == 1
    assert (N * qx).lead_coefficient() == N.lead_coefficient() == N2.lead_coefficient()
    assert _attach_atoms(N * qx, set()) == _attach_atoms(N2 * qx, set())


def test_tied_labels_already_in_range_are_still_searched(m):
    # labels first and first + 1 on equal blocks: nothing is searched, the
    # blocks are one atom, so the odd product vanishes as it is built, from
    # any first label, and the even product is the block's square
    qd, q = m.jet("q", dagger=True), m.jet("q")
    for first in (0, 3):
        w1 = parse_expr(f"frz[{first}:x1 x1](dag(q))", m)
        w2 = parse_expr(f"frz[{first + 1}:x1 x1](dag(q))", m)
        assert w1 == w2
        assert (w1 * w2).is_zero()
        v1 = parse_expr(f"frz[{first}:x1 x1](q)", m)
        v2 = parse_expr(f"frz[{first + 1}:x1 x1](q)", m)
        assert not (v1 * v2).is_zero()
        assert v1 * v2 == v1 * v1
        assert v1 * v1 * v2 * v2 == v1 * v1 * v1 * v1


def test_a_repeated_label_is_searched_by_signatures(m):
    # hand-built from multi-indices: each block is its own channel and
    # nothing is searched: the blocks written with any distinct labels read
    # back to the same product, the printer names one label per channel,
    # and the text with label 0 named twice, which would link two blocks,
    # is refused
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd = m.jet("q", dagger=True)
    one = (1,)

    def build(a, b, c, d, e, f):
        return parse_expr(f"frz[{a}:x1](q)*frz[{b}:x1; {c}:x1](q_x)"
                          f"*frz[{d}:x1](q)*frz[{e}:x1; {f}:x1](q_x)*dag(q)", m)

    e = (make_attach((one,), q) * make_attach((one, one), qx)) ** 2 * qd
    assert build(0, 1, 2, 3, 4, 5) == build(5, 4, 3, 2, 1, 0) == e
    text = format_expr(e)
    labels = [int(t) for t in _LABEL.findall(text)]
    assert labels == list(range(len(labels)))
    assert parse_expr(text, m) == e
    with pytest.raises(ParseError, match="channel label 0 named twice"):
        parse_expr("frz[0:x1](q)*frz[0:x1; 1:x1](q_x)", m)


# -- iterated variations ----------------------------------------------------

def test_iterated_variation_discrepancy(m):
    qx = m.jet("q", (1,))
    f = qx * qx
    naive, ext_n = iterated_variation(m, f, [("q", False), ("q", False)], NAIVE)
    geo, ext_g = iterated_variation(m, f, [("q", False), ("q", False)], GEOMETRIC)
    assert naive == -(ext_n.jet("sh1", (2,)) * ext_n.jet("sh2")).scale(2)
    assert geo.is_zero()
    assert collapse(geo) != naive


def test_single_variation_agrees_with_euler(m):
    f = m.jet("q") * m.jet("q", (1,)) + m.jet("q", (2,))
    naive, ext = iterated_variation(m, f, [("q", False)], NAIVE)
    geo, ext_g = iterated_variation(m, f, [("q", False)], GEOMETRIC)
    assert naive == ext.jet("sh1") * euler_left(ext, f, "q")
    assert collapse(geo) == naive


def test_iterated_variation_labels_are_local(m):
    # a variation names no channel, so the results of two identical calls
    # are equal, and each step adds at most one pending derivative to a
    # monomial: printed, a plain density's variations name at most one
    # channel per step, and a step on a density with a block one more
    qd = m.jet("q", dagger=True)
    f = qd * m.jet("q") * m.jet("q", (2,)) + m.sin("q") * m.jet("q", (1,)) * qd
    shifts = [("q", False), ("q", True), ("q", False)]
    first, _ = iterated_variation(m, f, shifts, GEOMETRIC)
    again, _ = iterated_variation(m, f, shifts, GEOMETRIC)
    assert not first.is_zero()
    assert first == again
    assert 1 <= _most_labels(first) <= 3
    w = make_attach(((1,),), m.jet("q") * m.jet("q")) * m.jet("q", (2,)) * m.jet("q")
    out, _ = iterated_variation(m, w, [("q", False)], GEOMETRIC, include_shifts=False)
    assert _most_labels(out) == 2


def _most_labels(e) -> int:
    """The most channel labels the printer names in one monomial of ``e``."""
    return max(len(_LABEL.findall(format_expr(Expr({k: mono})))) for k, mono in e.terms.items())


def test_geometric_variations_graded_commute(m):
    rng = random.Random(26)
    for _ in range(50):
        d = random_homogeneous(m, rng, rng.randint(0, 1))
        a = ("q", rng.random() < 0.5)
        b = ("q", rng.random() < 0.5)
        g_ab, _ = iterated_variation(m, d, [a, b], GEOMETRIC, include_shifts=False)
        g_ba, _ = iterated_variation(m, d, [b, a], GEOMETRIC, include_shifts=False)
        sign = (-1) ** (m.parity(*a) * m.parity(*b))
        assert g_ab == g_ba.scale(sign)


def test_model_validation():
    with pytest.raises(ValueError):
        BvModel(0, [("q", 0)])
    with pytest.raises(ValueError):
        BvModel(1, [("q", 0), ("q", 1)])
    # each name below is one the grammar cannot read back as a field
    for name in ("not a name", "q_x", "\u03c6", "1q", "", "i", "hbar", "sin", "cos",
                 "exp", "D", "at", "frz", "dag", "x1", "x0", "x12"):
        with pytest.raises(ValueError):
            BvModel(1, [(name, 0)])
        with pytest.raises(ParseError, match=r"\(line 4\)"):
            parse_model_file(f"[base]\ndim = 1\n[fields]\n{name} ghost = 0\n")
    # names that only look like reserved words print and parse back
    m = BvModel(1, [("x", 0), ("xi", 0), ("ii", 1), ("Dq", 0), ("at2", 0)])
    e = m.jet("x") * m.jet("x", (1,)) * m.jet("xi", (2,)) * m.jet("Dq") \
        * m.jet("ii", (1,), dagger=True) * m.jet("at2") * m.x(0)
    assert parse_expr(format_expr(e), m) == e
