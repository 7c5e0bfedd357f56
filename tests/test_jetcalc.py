import collections
import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from bvcalc import BvModel, Expr, algebra, jetcalc
from bvcalc.algebra import (
    Attach,
    BaseVar,
    JetVar,
    Trig,
    collect_channel_labels,
    make_attach,
    _from_raw,
)
from bvcalc.bv import laplacian, laplacian_density, schouten
from bvcalc.coeff import Coefficient
from bvcalc.models import build_scalar_example
from bvcalc.jetcalc import (
    canonicalize_channels,
    collapse,
    euler,
    euler_left,
    eulers,
    iterated_variation_geometric,
    iterated_variation_naive,
    label_after,
    partial,
    total_derivative,
    total_derivative_multi,
    _monomial_labels,
    _partials,
    _sorted_occurrences,
    _shift,
)

from util_random import (
    ghost_model,
    label_signatures,
    labelled_operands,
    nested_brackets,
    plane_model,
    random_expr,
    random_homogeneous,
    random_monomial,
    raw_nested_densities,
    reference_canonicalize_channels,
    reference_schouten_density,
    relabel,
    relabel_monomial,
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
    pending = ((7, (2,)),)
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
    block = make_attach(((3, (1,)),), m.cos("q") * m.x(0))
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
        channelled = channelled + euler(
            _GHOST, single, v.field, v.dagger, label=1000, isolate=True).scale(sign)
    assert partial(e, v, "right") == right
    assert euler(_GHOST, e, v.field, v.dagger, side="right", label=1000,
                 isolate=True) == channelled


def test_partials_commute_with_wrappers():
    model = ghost_model()
    rng = random.Random(22)
    for _ in range(40):
        h = random_homogeneous(model, rng, rng.randint(0, 1))
        v = model.jet_atom("q", (1,))
        pending = ((1, (1,)),)
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


def _channelled_partial(e, v, label):
    """The channelled left partial d/dv by the graded Leibniz rule, from
    ``partial``: each monomial is split into its plain factors P and its
    Attach factors A_1...A_k; the derivative of P is gathered into a block
    pending (label, sigma), that of A_j adds (label, sigma) to A_j's pending
    set (nothing is pending at sigma = 0)."""
    pend = ((label, v.index),) if any(v.index) else ()
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
        e = e + make_attach(((60, dx),), inner)
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
                channelled = channelled + _channelled_partial(e, v, 1000).scale(sign)
            assert euler_left(model, e, name, dagger) == expanded
            assert euler(model, e, name, dagger, label=1000) == channelled


def _euler_reference(model, e, name, dagger, side, label):
    """sum_sigma (-D)^sigma d/dq_sigma on ``side``, one monomial at a time
    from ``partial``: expanded without a label, channelled with one; the
    right side is (-1)^(p_v (p_m - 1)) times the left on each monomial m."""
    out = Expr.zero()
    for k, mono in e.terms.items():
        one = Expr({k: mono})
        flip = side == "right" and model.parity(name, dagger) and not len(mono.odd) & 1
        for sigma in _occurring_indices(one, name, dagger):
            v = model.jet_atom(name, sigma, dagger)
            if label is None:
                d = total_derivative_multi(partial(one, v), sigma)
            else:
                d = _channelled_partial(one, v, label)
            out = out + d.scale((-1) ** (sum(sigma) + flip))
    return out


@pytest.mark.parametrize("model", [ghost_model(), plane_model()], ids=["ghost", "plane"])
def test_eulers_are_the_per_variable_euler_operators(model):
    # one walk serves every variable: each image equals its definition, with
    # no labels, one label per conjugate pair, or a mix; the public right
    # side of each equals its definition too
    variables = list(model.variables())
    pair_label = {v: 1000 + j for j, pair in enumerate(model.pairs()) for v in pair}
    label_maps = [
        dict.fromkeys(variables),
        {v: pair_label[v] for v in variables},
        {v: pair_label[v] if j % 2 else None for j, v in enumerate(variables)},
    ]
    rng = random.Random(30)
    for _ in range(25):
        e = _random_wrapped(model, rng)
        for labels in label_maps:
            images = eulers(model, e, labels)
            assert list(images) == variables
            for (name, dagger), label in labels.items():
                expected = _euler_reference(model, e, name, dagger, "left", label)
                assert images[name, dagger] == expected
                right = euler(model, e, name, dagger, "right", label)
                assert right == _euler_reference(model, e, name, dagger, "right", label)


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
    ``make_attach`` and normalised by ``_from_raw``.  Same arguments and
    result as ``jetcalc._partials``."""
    raw = {}
    unlabelled = None
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
                    if unlabelled is None:
                        unlabelled = {v: (p, None) for v, (p, _) in variables.items()}
                    hits = dives[a] = []
                    inner = _reference_partials(a.inner, unlabelled, "left", False, index)
                    for v, by_index in inner.items():
                        parity, label = variables[v]
                        for sigma, d in by_index.items():
                            pending = a.pending
                            if label is not None and sum(sigma) > 0:
                                pending += ((label, sigma),)
                            dived = make_attach(pending, d)
                            if not dived.is_zero():
                                hits.append((v, parity, label, sigma, None, dived))
                if not hits:
                    continue
            elif isinstance(a, (JetVar, Trig)):
                u = a.arg if isinstance(a, Trig) else a
                v = (u.field, u.dagger)
                spec = variables.get(v)
                if spec is None or (index is not None and u.index != index):
                    continue
                parity, label = spec
                pend = (label, u.index) if label is not None and sum(u.index) > 0 else None
                hits = ((v, parity, label, u.index, pend,
                         _reference_trig_chain(a) if isinstance(a, Trig) else None),)
            else:
                continue
            head = factors[:i] + (((a, k - 1),) if k > 1 else ())
            tail = factors[i + 1:]
            cmult = m.coeff * k if k > 1 else m.coeff
            for v, parity, label, sigma, pend, chain in hits:
                c = -cmult if parity and s < 0 else cmult
                iso = isolate and label is not None
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


def _reference_eulers(model, e, labels, side, isolate):
    """sum_sigma (-D)^sigma of the reference partials: expanded one
    multi-index at a time without a label, kept pending with one."""
    variables = {v: (model.parity(*v), label) for v, label in labels.items()}
    terms = _reference_partials(e, variables, side, isolate)
    out = {}
    for v, label in labels.items():
        total = Expr.zero()
        for sigma, term in terms.get(v, {}).items():
            if label is None:
                term = total_derivative_multi(term, sigma)
            total = total + term.scale((-1) ** sum(sigma))
        out[v] = total
    return out


def _nonzero(filed):
    return {v: {sigma: d for sigma, d in by_index.items() if not d.is_zero()}
            for v, by_index in filed.items()}


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
    model = _WALK_MODELS[which]
    variables = list(model.variables())
    rng = random.Random(32)
    for case in range(110):
        e = _walk_input(model, rng)
        labels = {v: 1000 + j if rng.random() < 0.6 else None
                  for j, v in enumerate(variables)}
        side = rng.choice(("left", "right"))
        isolate = rng.random() < 0.5
        context = (case, labels, side, isolate)

        got = eulers(model, e, labels, isolate)
        assert got == _reference_eulers(model, e, labels, "left", isolate), context
        (name, dagger), label = rng.choice(sorted(labels.items()))
        expected = _reference_eulers(model, e, {(name, dagger): label}, side, isolate)
        assert euler(model, e, name, dagger, side, label, isolate) == expected[name, dagger]

        # partials filed by variable and multi-index
        spec = {v: (model.parity(*v), lab) for v, lab in labels.items()}
        sigmas = sorted(_occurring_indices(e, name, dagger)) or [(0,) * model.base_dim]
        walked = _partials(e, spec, isolate)
        expected = _reference_partials(e, spec, "left", isolate)
        assert _nonzero(walked) == _nonzero(expected), context

        unlabelled = {v: (p, None) for v, (p, _) in spec.items()}
        for sigma in sigmas:
            v = model.jet_atom(name, sigma, dagger)
            for side_ in ("left", "right"):
                ref = _reference_partials(e, unlabelled, side_, False, sigma)
                assert partial(e, v, side_) == ref.get((name, dagger), {}).get(sigma, Expr.zero()), context



@pytest.mark.parametrize("which", sorted(_WALK_MODELS))
def test_the_right_side_agrees_with_the_raw_branch_reference(which):
    # the public right side signs the left image; the reference files every
    # branch at its own monomial's right-side sign; on input that mixes
    # parities no one sign for the whole expression works; by every
    # variable, plain, labelled and isolated
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
            for label, isolate in ((None, False), (1000, False), (1000, True)):
                right = euler(model, e, *v, "right", label, isolate)
                expected = _reference_eulers(model, e, {v: label}, "right", isolate)[v]
                assert right == expected, (case, v, label, isolate)
                flipped += right != euler(model, e, *v, "left", label, isolate)
            by_index = _reference_partials(e, {v: (model.parity(*v), None)}, "right", False)
            for sigma, d in by_index.get(v, {}).items():
                assert partial(e, model.jet_atom(v[0], sigma, v[1]), "right") == d, (case, v, sigma)
    assert checked >= 30 and flipped >= 100, (checked, flipped)


def test_an_unknown_side_is_refused_before_any_walk(m, monkeypatch):
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(jetcalc, "_partials", walk)
    e = m.jet("q") * m.jet("q", (1,), dagger=True)
    calls = (lambda: partial(e, m.jet_atom("q"), "up"),
             lambda: euler(m, e, "q", side="up"),
             lambda: euler(m, e, "q", True, "up", 3, True))
    for call in calls:
        with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
            call()

def _walk_index_inputs():
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
    # a walk by one variable visits only the monomials that the expression's
    # index lists for it, and those holding a block; it files what the walk
    # by every variable files for that variable
    seen = 0
    for model, e in _walk_index_inputs():
        variables = list(model.variables())
        for labelled, isolate in ((False, False), (True, False), (True, True)):
            spec = {v: (model.parity(*v), 1000 + j if labelled else None)
                    for j, v in enumerate(variables)}
            every = _nonzero(_partials(e, spec, isolate))
            for v in variables:
                one = _nonzero(_partials(e, {v: spec[v]}, isolate))
                assert one.get(v, {}) == every.get(v, {}), (e, v, labelled, isolate)
                seen += bool(one.get(v))
        assert len(e.terms) < 2 or e._index is not None
    assert seen > 250, seen


def test_the_walk_index_is_built_on_the_second_walk_by_one_variable():
    # the first walk by one variable scans every monomial and leaves no
    # index, as a walk by several variables does; the second builds it;
    # every walk files the same partials
    checked = 0
    for model, e in _walk_index_inputs():
        if len(e.terms) < 2:
            continue
        variables = list(model.variables())
        spec = {v: (model.parity(*v), 1000 + j) for j, v in enumerate(variables)}
        for v in variables:
            fresh = Expr(dict(e.terms))
            _partials(fresh, spec, True)
            assert not fresh._index
            walks = [_nonzero(_partials(fresh, {v: spec[v]}, True))]
            assert not fresh._index
            walks.append(_nonzero(_partials(fresh, {v: spec[v]}, True)))
            assert fresh._index
            walks.append(_nonzero(_partials(fresh, {v: spec[v]}, True)))
            assert walks[0] == walks[1] == walks[2]
            checked += bool(walks[0])
    assert checked > 100, checked


def test_walk_edge_cases(m):
    # the channelled Euler operator by q with isolate, on inputs whose only
    # q-dependence is the one factor named; the kept block holds no q
    q, qxx, x = m.jet("q"), m.jet("q", (2,)), m.x(0)
    qd, qdx = m.jet("q", dagger=True), m.jet("q", (1,), dagger=True)
    block = make_attach(((7, (1,)),), qd * qdx)
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
        got = euler(m, e, "q", False, label=1000, isolate=True)
        ref = _reference_eulers(m, e, {("q", False): 1000}, "left", True)
        assert got == ref[("q", False)] == expected, e


def test_the_engine_never_calls_the_reference_normaliser(m, monkeypatch):
    # every product, total derivative and Euler branch is a merge of
    # canonical monomials; _from_raw is only the reference behind normalize
    assert "_from_raw" not in vars(jetcalc)
    q, qx, qd = m.jet("q"), m.jet("q", (1,)), m.jet("q", dagger=True)
    sin, cos = m.sin("q"), m.cos("q")
    even_block = make_attach(((5, (1,)),), q * qx)
    odd_block = make_attach(((6, (1,)),), qd * qx)
    densities = [sin * cos, qd * odd_block * even_block ** 2 * m.exp("q", (1,)),
                 odd_block * cos * q + even_block * sin * qd]
    derivatives = [_reference_total_derivative(e, 0) for e in densities]
    model = _WALK_MODELS["ghost"]
    labels = {v: 1000 + j for j, v in enumerate(model.variables())}
    rng = random.Random(17)
    walked = []
    for _ in range(12):
        e = _walk_input(model, rng)
        for side in ("left", "right"):
            walked.append((e, side, _reference_eulers(model, e, labels, side, True)))
    assert any(isinstance(a, Attach) for e, _, _ in walked for a in e.atoms())
    _, F, G = build_scalar_example()

    def refuse(raw):
        raise AssertionError("the engine called the reference normaliser")

    monkeypatch.setattr(algebra, "_from_raw", refuse)
    assert sin * sin == 1 - cos * cos
    for e, expected in zip(densities, derivatives):
        assert total_derivative(e, 0) == expected != Expr.zero()
    for e, side, expected in walked:
        if side == "left":
            assert eulers(model, e, labels, True) == expected
        assert euler(model, e, "c", True, side, labels["c", True], True) == expected["c", True]
    for mode in ("geometric", "naive"):
        laplacian(G, mode)
        assert not laplacian(schouten(F, G, mode), mode).is_zero()


# -- channelled operators ---------------------------------------------------

def test_euler_channelled_examples(m):
    q, qxx = m.jet("q"), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    f = qd * q * qxx
    lab = 1
    e = euler(m, f, "q", False, label=lab)
    expected = qd * qxx + make_attach(((lab, (2,)),), qd * q)
    assert e == expected

    # both contributions are pending derivatives of the constant 1
    w = make_attach(((2, (2,)),), q)
    assert euler(m, qxx + w, "q", False, label=3).is_zero()

    # a partial passing through an existing wrapper
    z2 = 4
    w2 = make_attach(((z2, (2,)),), -m.sin("q"))
    out = euler(m, w2, "q", False, label=5)
    assert out == make_attach(((z2, (2,)),), -m.cos("q"))


def test_euler_channelled_label_reuse_rejected(m):
    lab = 1
    w = make_attach(((lab, (1,)),), m.jet("q"))
    with pytest.raises(ValueError):
        euler(m, w, "q", False, label=lab)


def test_collapse_examples(m):
    q = m.jet("q")
    qx, qxx = m.jet("q", (1,)), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    w = make_attach(((1, (2,)),), -m.sin("q"))
    assert collapse(w) == m.sin("q") * qx * qx - m.cos("q") * qxx
    assert collapse(make_attach(((2, (2,)),), Expr.scalar(1))).is_zero()
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
                for _, idx in a.pending:
                    fa = total_derivative_multi(fa, idx)
            for _ in range(k):
                term = term * fa
        out = out + term
    return out


def _nested_twice(model, rng):
    """A block pending (62, sigma) around a block pending (61, sigma) around
    a block pending (60, sigma), each beside a random monomial; squared when
    even, so the outer Attach atom has exponent 2."""
    n = model.base_dim
    blk = Expr.scalar(1)
    for lab in (60, 61, 62):
        sigma = [0] * n
        sigma[rng.randrange(n)] = 1
        blk = make_attach(((lab, tuple(sigma)),),
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
    # copies under other labels, shared by many monomials with different
    # coefficients: collapse expands each label-free block class once per
    # call, a block and its copy sharing one expansion, and agrees with
    # collapsing the monomials one at a time and with the reference
    from bvcalc import jetcalc

    rng = random.Random(31)
    n = model.base_dim
    dx = (1,) + (0,) * (n - 1)
    q, c = model.jet("q"), model.jet("c")
    inner = make_attach(((60, dx),), q * model.jet("q", dx))
    even = make_attach(((61, dx),), inner * q)
    odd = make_attach(((62, dx),), inner * c)
    bare_odd = make_attach(((63, dx),), c * q)
    copies = {t: relabel(t, {60: 70, 61: 71, 62: 72, 63: 73})
              for t in (inner, even, odd, bare_odd)}

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
    expand = jetcalc._Classes.expand_block

    def counted(self, c):
        calls.append(self.keys[c])
        return expand(self, c)

    monkeypatch.setattr(jetcalc._Classes, "expand_block", counted)
    whole = collapse(e)
    assert len(calls) == len(set(calls)) == 4
    one_at_a_time = Expr.zero()
    for k, mono in e.terms.items():
        one_at_a_time = one_at_a_time + collapse(Expr({k: mono}))
    assert whole.key() == one_at_a_time.key()
    assert whole.key() == _reference_collapse(e).key()


def _random_index(model, rng):
    """A multi-index of order 1 or 2 along one random coordinate."""
    idx = [0] * model.base_dim
    idx[rng.randrange(model.base_dim)] = rng.randint(1, 2)
    return tuple(idx)


def _odd_block(model, rng, label, sigma):
    """An odd block pending (label, sigma): dag(f) f of the model's first
    field f, an even one, with random derivatives."""
    f = model.fields[0][0]
    inner = (model.jet(f, _random_index(model, rng), dagger=True)
             * model.jet(f, _random_index(model, rng)))
    return make_attach(((label, sigma),), inner)


def _relabelled_copies(model, rng):
    """A sum of two to four copies of one random expression with blocks,
    each with its channel labels renamed by a random bijection and with a
    random sign; and the kinds of block it was built with.  Beside
    ``random_expr``'s blocks, the expression may hold a block nested twice
    (squared when even); a block times a copy of it under another label:
    its class squared when even, twice when odd; and two odd blocks pending
    the same derivative, whose order a renaming can swap, alone and inside
    a block pending two derivatives."""
    e = random_expr(model, rng, with_attach=True)
    kinds = set()
    if rng.random() < 0.5:
        sigma = _random_index(model, rng)
        pair = _odd_block(model, rng, 52, sigma) * _odd_block(model, rng, 53, sigma)
        outer = make_attach(((54, sigma), (55, _random_index(model, rng))),
                            pair * random_monomial(model, rng, degree=1, with_trig=False))
        e = (e + pair * random_monomial(model, rng, degree=1)
             + outer * random_monomial(model, rng, degree=1))
        kinds.add("odd pair")
    if rng.random() < 0.4:
        e = e + _nested_twice(model, rng) * random_monomial(model, rng, degree=1)
        kinds.add("nested")
    if rng.random() < 0.5:
        w = make_attach(((50, _random_index(model, rng)),),
                        random_monomial(model, rng, degree=rng.randint(1, 2), with_trig=False))
        e = e + w * relabel(w, {50: 51}) * random_monomial(model, rng, degree=1)
        kinds.add("odd twice" if w.parity() else "even squared")
    kinds.update("odd" for mono in e.monomials() for a in mono.odd if isinstance(a, Attach))
    labels = sorted(collect_channel_labels(e))
    out = Expr.zero()
    for _ in range(rng.randint(2, 4)):
        copy = relabel(e, dict(zip(labels, rng.sample(range(100, 200), len(labels)))))
        out = out + (copy if rng.random() < 0.5 else -copy)
    return out, kinds


@pytest.mark.parametrize("model", [scalar_model(), ghost_model(),
                                   BvModel(2, [("u", 0), ("c", 1)])],
                         ids=["scalar", "ghost", "plane"])
def test_collapse_of_relabelled_copies_agrees_with_the_reference(model):
    # copies equal up to labels fall into one class and merge or cancel
    # there; the result is the collapse of their sum by its definition
    rng = random.Random(37)
    seen = collections.Counter()
    for case in range(60):
        e, kinds = _relabelled_copies(model, rng)
        seen.update(kinds)
        assert collapse(e).key() == _reference_collapse(e).key(), case
    for kind in ("nested", "odd", "even squared", "odd twice", "odd pair"):
        assert seen[kind] >= 5, (kind, seen)


def test_copies_equal_up_to_labels_cancel_before_any_expansion(monkeypatch):
    # a nested block, odd blocks and an even block squared, minus the same
    # under other labels: the difference is not zero as an expression, and
    # collapses to zero with no total derivative and no product taken; so
    # does an odd block times a copy of it under another label
    from bvcalc import jetcalc

    model = ghost_model()
    q, c, qd = model.jet("q"), model.jet("c"), model.jet("q", dagger=True)
    inner = make_attach(((60, (1,)),), q * model.jet("q", (1,)))
    e = (make_attach(((61, (2,)),), inner * c) * make_attach(((62, (1,)),), qd * q) * q
         + inner ** 2 * make_attach(((63, (1,)),), c))
    copy = relabel(e, {60: 5, 61: 3, 62: 9, 63: 4})
    assert not (e - copy).is_zero()
    w = make_attach(((64, (1,)),), qd * q)
    twice = w * relabel(w, {64: 65}) * q
    assert w.parity() == 1 and not twice.is_zero()

    calls = []
    for name in ("total_derivative", "_add_total_derivative", "_add_product"):
        def counted(*args, _f=getattr(jetcalc, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(jetcalc, name, counted)
    assert collapse(e - copy).is_zero()
    assert collapse(twice).is_zero()
    assert calls == []
    assert collapse(e) == collapse(copy) != Expr.zero()
    assert "total_derivative" in calls and "_add_product" in calls


def test_collapse_of_channelled_euler_is_plain_euler():
    model = ghost_model()
    rng = random.Random(25)
    for _ in range(50):
        e = random_homogeneous(model, rng, rng.randint(0, 1))
        for name, dagger in (("q", False), ("q", True), ("c", False)):
            lab = 1
            chan = euler(model, e, name, dagger, label=lab, isolate=True)
            assert collapse(chan) == euler_left(model, e, name, dagger)


def test_canonicalize_channels(m):
    c = m.cos("q")
    a = make_attach(((7, (2,)),), c)
    b = make_attach(((9, (2,)),), c)
    assert canonicalize_channels(a) == canonicalize_channels(b)
    two = make_attach(((7, (1,)),), m.jet("q")) * make_attach(((9, (2,)),), m.jet("q"))
    canon = canonicalize_channels(two)
    labels = set()
    for mono in canon.monomials():
        for atom, _ in mono.factors():
            labels.update(lab for lab, _ in atom.pending)
    assert labels == {0, 1}
    plain = m.jet("q") * m.jet("q", (1,))
    assert canonicalize_channels(plain) == plain


def test_channel_swap_odd_monomial_vanishes(m):
    # a monomial odd under renaming its own bound channels is zero; 3 and 5
    # have tied signatures, 4 does not, and the swap may act inside a block
    qd = m.jet("q", dagger=True)
    w1 = make_attach(((3, (2,)),), qd)
    w2 = make_attach(((5, (2,)),), qd)
    w3 = make_attach(((4, (1,)),), m.jet("q"))
    nested = make_attach(((4, (2,)),), w1 * w2 * m.jet("q"))
    for mono in (w1 * w2, w1 * w2 * w3, nested):
        assert not mono.is_zero()
        assert canonicalize_channels(mono).is_zero()
        assert _reference_canonical(mono).is_zero()


def _reference_canonical(e):
    """The definition, by brute force: try all k! bijections of a monomial's
    labels onto 0..k-1 and keep the least result; a monomial that some
    bijection maps to minus itself vanishes."""
    out = Expr.zero()
    for mono in e.monomials():
        labels = sorted(_monomial_labels(mono))
        images = [relabel_monomial(mono, dict(zip(labels, perm)))
                  for perm in itertools.permutations(range(len(labels)))]
        distinct = set(images)
        if any(-x in distinct for x in distinct):
            continue
        out = out + min(images, key=Expr.key)
    return out


@functools.lru_cache(maxsize=None)
def _nested_blocks():
    """The densities of [[S,X]] and [[X,S]], X = [[S,[[S,O]]]], every bracket
    a raw product of Euler images: up to 6 labels, and monomials equal up to
    renaming their labels, some of them zero by the vanishing rule."""
    model, s, x = raw_nested_densities(2)
    return [reference_schouten_density(model, s, x), reference_schouten_density(model, x, s)]


@functools.lru_cache(maxsize=None)
def _small_nested_monomials():
    """Single monomials of the nested blocks with at most 5 labels."""
    return [Expr({k: mono}) for b in _nested_blocks()
            for k, mono in b.terms.items() if len(_monomial_labels(mono)) <= 5]


@functools.lru_cache(maxsize=None)
def _canonical_nested_block(i):
    return canonicalize_channels(_nested_blocks()[i])


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonicalize_channels_ignores_label_names(seed):
    rng = random.Random(seed)
    i = rng.randrange(len(_nested_blocks()))
    b = _nested_blocks()[i]
    labels = sorted(collect_channel_labels(b))
    renamed = relabel(b, dict(zip(labels, rng.sample(range(100, 1000), len(labels)))))
    assert renamed != b
    assert repr(canonicalize_channels(renamed)) == repr(_canonical_nested_block(i))


def test_canonicalize_channels_agrees_with_reference():
    monos = _small_nested_monomials()
    canon = [canonicalize_channels(x) for x in monos]
    ref = [_reference_canonical(x) for x in monos]
    assert [c.is_zero() for c in canon] == [r.is_zero() for r in ref]
    assert any(r.is_zero() for r in ref) and not all(r.is_zero() for r in ref)

    def classes(forms):
        found = {}
        for i, f in enumerate(forms):
            found.setdefault(f.key(), []).append(i)
        return sorted(found.values())

    assert classes(canon) == classes(ref)
    assert len(classes(ref)) < len(monos)  # some pairs are equivalent


def _per_monomial_canonical(e):
    out = Expr.zero()
    for k, mono in e.terms.items():
        out = out + canonicalize_channels(Expr({k: mono}))
    return out


def test_canonicalize_channels_is_per_monomial():
    # renamed blocks are shared within one call; sharing must not carry one
    # monomial's renaming or sign over to another monomial
    for b in _nested_blocks():
        assert canonicalize_channels(b) == _per_monomial_canonical(b)


def test_canonicalize_channels_shares_nested_blocks_across_monomials(m):
    q, qx, qxx = m.jet("q"), m.jet("q", (1,)), m.jet("q", (2,))
    qd = m.jet("q", dagger=True)
    # B carries labels 2 (outer) and 1 (nested); beside W (label 3) they are
    # renamed 2->0, 1->2, alone 2->0, 1->1
    B = make_attach(((2, (1,)),), make_attach(((1, (1,)),), q) * qx)
    W = make_attach(((3, (2,)),), q)
    # inside N the odd blocks labelled 4 and 3 are renamed 1 and 2, which
    # swaps their order: N's inner costs a sign, in both monomials alike
    N = make_attach(((5, (1,)),), make_attach(((4, (1,)),), qd)
                    * make_attach(((3, (1,)),), qd * q) * q)
    for e in (B * W + B * qxx, N * qx + N * qxx):
        assert len(e.terms) == 2
        canon = canonicalize_channels(e)
        assert canon == _per_monomial_canonical(e)
        # the brute-force form is invariant under renaming, signs included
        assert _reference_canonical(canon) == _reference_canonical(e)
    canon = canonicalize_channels(N * qx)
    assert canon == relabel(N * qx, {5: 0, 4: 1, 3: 2})
    assert canon.lead_coefficient() == -(N * qx).lead_coefficient()


def test_canonicalize_channels_from_an_offset():
    # canonical labels from ``first`` on: the form from 0, every label moved
    # up by ``first`` (a shift keeps every comparison of labels)
    for i, b in enumerate(_nested_blocks()):
        canon = _canonical_nested_block(i)
        shift = {lab: lab + 10 for lab in collect_channel_labels(canon)}
        assert canonicalize_channels(b, 10) == relabel(canon, shift)
        assert canonicalize_channels(canon, 10) == relabel(canon, shift)


def test_canonicalize_channels_renames_untied_labels_into_signature_order(m):
    q = m.jet("q")
    # label 0 sits on the second derivative, 1 on the first: the signature
    # order is 1, 0, so the labels are swapped although they are 0 and 1
    e = make_attach(((0, (2,)),), q) * make_attach(((1, (1,)),), q)
    swapped = make_attach(((1, (2,)),), q) * make_attach(((0, (1,)),), q)
    assert canonicalize_channels(e) == swapped
    assert canonicalize_channels(swapped) == swapped
    # labels first, first+1 in signature order are kept, and others are not
    at5 = relabel(swapped, {0: 5, 1: 6})
    assert canonicalize_channels(at5, 5) == at5
    assert canonicalize_channels(swapped, 5) == at5
    assert canonicalize_channels(e, 5) == at5


def test_tied_labels_already_in_range_are_still_searched(m):
    # labels 0 and 1 tie and already run 0, 1: the swap maps the odd product
    # to minus itself, so it vanishes from any offset, and the even product
    # of the same blocks is kept
    qd = m.jet("q", dagger=True)
    for first in (0, 3):
        w1 = make_attach(((first, (2,)),), qd)
        w2 = make_attach(((first + 1, (2,)),), qd)
        assert canonicalize_channels(w1 * w2, first).is_zero()
        assert canonicalize_channels(w1 * w1 * w2 * w2, first) == w1 * w1 * w2 * w2


def _tie_cases(m):
    """Labelled monomials around the fixed-tie rule: ties fixed by one block,
    ties across equal blocks, labels that occur twice, nested blocks."""
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd = m.jet("q", dagger=True)
    one, two = (1,), (2,)
    out = []
    for inner in (q, qd, q * qd):
        # two or three labels at one multi-index in one block, alone, beside
        # a block of their own signature, or nested in another block
        pair = make_attach(((0, one), (1, one)), inner)
        triple = make_attach(((0, one), (1, one), (2, one)), inner)
        out += [pair * qx, triple, pair * make_attach(((2, two),), inner),
                triple * make_attach(((3, one), (4, one)), q * qx),
                make_attach(((5, two),), pair * q), make_attach(((5, one),), triple * qx)]
    for inner in (q, qd):
        # equal blocks on different labels: even ones are kept, odd ones vanish
        w = [make_attach(((lab, two),), inner) for lab in (0, 1, 2)]
        out += [w[0] * w[1], w[0] * w[1] * w[2], make_attach(((3, one),), w[0] * w[1] * q)]
    # a label that occurs twice: tied to a label whose copies sit in other
    # blocks, before or after the block they share; and under an exponent
    for shared, apart in ((one, two), (two, one)):
        a = make_attach(((0, shared), (1, shared)), qd)
        out.append(a * make_attach(((0, apart),), qd) * make_attach(((1, apart),), qd))
    w0, w1 = make_attach(((0, two),), qd), make_attach(((1, two),), qd)
    out += [make_attach(((0, one), (1, one)), w0 * w1 * q) * qx,
            make_attach(((0, one), (1, one)), q * q) * make_attach(((0, one), (1, one)), q * q),
            make_attach(((2, one),), make_attach(((0, one), (1, one)), q) * q) * qx]
    b = make_attach(((0, one),), q)
    out.append(make_attach(((1, one),), b * q) * make_attach(((2, one),), b * qx))
    return out


def test_canonical_forms_agree_with_the_enumerating_reference(m):
    # the one-renaming branch for fixed ties gives the enumerated form byte
    # for byte, term order included, from any first label and with memos
    # shared across the calls of one pass
    rng = random.Random(8)
    cases = list(_nested_blocks())
    for e in _tie_cases(m):
        labels = sorted(collect_channel_labels(e))
        cases.append(e)
        cases.append(relabel(e, dict(zip(labels, rng.sample(range(12), len(labels))))))
    vanish = [e for e in cases if reference_canonicalize_channels(e).is_zero()]
    assert len(vanish) >= 6 and len(vanish) < len(cases) - 20
    for first in (0, 1, 5):
        memos, ref_memos = ({}, {}, {}), ({}, {}, {})
        for e in cases:
            assert repr(canonicalize_channels(e, first, memos)) == \
                repr(reference_canonicalize_channels(e, first, ref_memos))


def test_fixed_ties_take_one_renaming(monkeypatch):
    # a monomial whose tied labels are all fixed by their block is renamed
    # at most once; nested blocks are renamed inside that one call
    calls = []
    depth = [0]
    rename = jetcalc._rename_monomial

    def counting(mono, mapping, memo):
        if not depth[0]:
            calls.append(mono)
        depth[0] += 1
        try:
            return rename(mono, mapping, memo)
        finally:
            depth[0] -= 1

    fixed = []
    for b in _nested_blocks():
        for mono in b.monomials():
            sigs, homes = label_signatures(mono)
            ranked = sorted(sigs, key=sigs.get)
            ties = [(x, y) for x, y in zip(ranked, ranked[1:]) if sigs[x] == sigs[y]]
            if ties and all(homes[x] is homes[y] for x, y in ties):
                fixed.append(mono)
    assert len(fixed) >= 10
    monkeypatch.setattr(jetcalc, "_rename_monomial", counting)
    for mono in fixed:
        calls.clear()
        canonicalize_channels(Expr({(mono.even, mono.odd): mono}))
        assert len(calls) <= 1


def _count_searches(monkeypatch):
    """Patch ``jetcalc._tie_groups`` to count the monomials it sees (those
    with a tie across two homes, or a label met twice) and, among them,
    those it leaves to the search; the searched groups are recorded with
    the homes of their labels."""
    counts = {"tied": 0, "zero": 0, "searched": []}
    tie_groups = jetcalc._tie_groups

    def counting(found):
        groups = tie_groups(found)
        counts["tied"] += 1
        if groups is None:
            counts["zero"] += 1
        elif any(len(g) > 1 for g in groups):
            homes = {lab: home for lab, _, home in found}
            counts["searched"].append([[homes[lab] for lab in g] for g in groups if len(g) > 1])
        return groups

    monkeypatch.setattr(jetcalc, "_tie_groups", counting)
    return counts


def test_engine_monomials_name_each_label_once():
    # the premise of the flat sort: brackets, Laplacians and Euler images
    # tag each pending derivative with a label of its own
    outputs = []
    for model in (scalar_model(), ghost_model(), plane_model()):
        ops = labelled_operands(model, 5)
        for name in ("x", "y", "z"):
            e = ops[name]
            labels = dict.fromkeys([v for pair in model.pairs() for v in pair], label_after(e))
            outputs += [e, laplacian_density(model, e), *eulers(model, e, labels, True).values()]
    _, S, X = nested_brackets(2)
    for F in (X, schouten(S, X), schouten(X, S), laplacian(X)):
        outputs += [b for blocks in F.terms for b in blocks]
    labelled = 0
    for e in outputs:
        for mono in e.monomials():
            labels = [lab for lab, _, _ in _sorted_occurrences(mono, {}, {})]
            assert len(set(labels)) == len(labels), mono
            labelled += bool(labels)
    assert labelled > 1000


def _swap_cases(m):
    """Monomials whose ties are swaps of top-level blocks of exponent 1 that
    hold one label each, equal up to it: even ones beside plain factors and
    other blocks, odd ones, which vanish."""
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd, qdx = m.jet("q", dagger=True), m.jet("q", (1,), dagger=True)
    one, two = (1,), (2,)
    out = []
    for inner in (q, q * qx, qd, qd * q, qd * qdx):
        w = [make_attach(((lab, two),), inner) for lab in (3, 0, 4)]
        other = make_attach(((1, one),), inner)
        out += [w[0] * w[1], w[0] * w[1] * w[2] * qx, w[0] * w[1] * other,
                w[0] * w[1] * make_attach(((2, one),), q * qx) * qd]
    return out


def test_block_swaps_are_symmetries_not_searched(m, monkeypatch):
    # interchangeable even blocks keep the sorted order as their one
    # renaming, and odd ones give zero, as the enumeration finds
    rng = random.Random(30)
    cases = []
    for e in _swap_cases(m):
        labels = sorted(collect_channel_labels(e))
        cases += [e, relabel(e, dict(zip(labels, rng.sample(range(9), len(labels)))))]
    zero = [e for e in cases if reference_canonicalize_channels(e).is_zero()]
    assert 10 <= len(zero) < len(cases) - 10
    counts = _count_searches(monkeypatch)
    for first in (0, 2):
        for e in cases:
            assert repr(canonicalize_channels(e, first)) == \
                repr(reference_canonicalize_channels(e, first))
    assert counts["tied"] == 2 * len(cases) and counts["zero"] == 2 * len(zero)
    assert counts["searched"] == []


def _lookalike_cases(m):
    """Ties across blocks equal up to their labels that are no swaps of
    single-label blocks: blocks that also hold a nested label, blocks with
    two labels each, as frz[0:x1,4:x1x1](dag q)*frz[1:x1,2:x1x1](dag q)."""
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd = m.jet("q", dagger=True)
    one, two = (1,), (2,)
    out = []
    for inner in (q, qd):
        nest = [make_attach(((lab, one),), make_attach(((lab + 2, one),), inner) * qx)
                for lab in (0, 1)]
        out += [nest[0] * nest[1], nest[0] * nest[1] * q]
        out += [make_attach(((0, one), (4, two)), inner) * make_attach(((1, one), (2, two)), inner),
                make_attach(((0, one), (3, two)), inner) * make_attach(((1, one), (2, two)), inner)
                * make_attach(((5, one),), inner * q)]
    return out


def test_lookalike_ties_are_searched_and_agree_with_the_reference(m, monkeypatch):
    rng = random.Random(31)
    cases = []
    for e in _lookalike_cases(m):
        labels = sorted(collect_channel_labels(e))
        cases += [e, relabel(e, dict(zip(labels, rng.sample(range(12), len(labels)))))]
    counts = _count_searches(monkeypatch)
    for e in cases:
        assert repr(canonicalize_channels(e)) == repr(reference_canonicalize_channels(e))
    assert len(counts["searched"]) == len(cases)
    assert any(reference_canonicalize_channels(e).is_zero() for e in cases)


def test_a_repeated_label_is_searched_by_signatures(m, monkeypatch):
    # hand-built: label 0 tags a derivative in two blocks, so no single
    # occurrence ranks it; its signature is both occurrences, and a label
    # met twice is its own home
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd = m.jet("q", dagger=True)
    one = (1,)
    e = make_attach(((0, one),), q) * make_attach(((0, one), (1, one)), qx) \
        * make_attach(((2, one),), q) * make_attach(((2, one), (3, one)), qx)
    sigs, homes = label_signatures(next(iter(e.monomials())))
    assert len(sigs[0]) == 2 and homes[0] == 0 and homes[1] is not homes[3]
    counts = _count_searches(monkeypatch)
    renamed = relabel(e, {0: 3, 1: 2, 2: 1, 3: 0})
    for x in (e, e * qd, renamed):
        assert repr(canonicalize_channels(x)) == repr(reference_canonicalize_channels(x))
    assert len(counts["searched"]) == 3
    assert canonicalize_channels(renamed) == canonicalize_channels(e)


def test_only_ties_across_multi_label_blocks_are_searched(monkeypatch):
    # the image passes and the structural comparison of [[S,X]] and [[X,S]]
    # for 36 observables, as in the nested-brackets benchmark: 250 monomials
    # hold a tie across two homes, each searched before the swap rule; 193
    # are swaps of odd blocks and vanish, and the 57 searched have their
    # searched ties across blocks of several labels
    from bvcalc.cohomology import functional_equal
    counts = _count_searches(monkeypatch)
    for i in range(36):
        _, S, X = nested_brackets(2, 20240808 + i)
        assert functional_equal(schouten(S, X), schouten(X, S), "structural")
    assert (counts["tied"], counts["zero"], len(counts["searched"])) == (250, 193, 57)
    for groups in counts["searched"]:
        for homes in groups:
            assert all(type(h) is Attach and len(h.labels) > 1 for h in homes)


# -- iterated variations ----------------------------------------------------

def test_iterated_variation_discrepancy(m):
    qx = m.jet("q", (1,))
    f = qx * qx
    naive, ext_n = iterated_variation_naive(m, f, [("q", False), ("q", False)])
    geo, ext_g = iterated_variation_geometric(m, f, [("q", False), ("q", False)])
    assert naive == -(ext_n.jet("sh1", (2,)) * ext_n.jet("sh2")).scale(2)
    assert geo.is_zero()
    assert collapse(geo) != naive


def test_single_variation_agrees_with_euler(m):
    f = m.jet("q") * m.jet("q", (1,)) + m.jet("q", (2,))
    naive, ext = iterated_variation_naive(m, f, [("q", False)])
    geo, ext_g = iterated_variation_geometric(m, f, [("q", False)])
    assert naive == ext.jet("sh1") * euler_left(ext, f, "q")
    assert collapse(geo) == naive


def test_iterated_variation_labels_are_local(m):
    # each step takes one more than the largest label so far, so the raw
    # results of two identical calls are equal, and a plain density's
    # variations carry the labels 0, 1, ...
    qd = m.jet("q", dagger=True)
    f = qd * m.jet("q") * m.jet("q", (2,)) + m.sin("q") * m.jet("q", (1,)) * qd
    shifts = [("q", False), ("q", True), ("q", False)]
    first, _ = iterated_variation_geometric(m, f, shifts)
    again, _ = iterated_variation_geometric(m, f, shifts)
    assert not first.is_zero()
    assert first == again
    assert collect_channel_labels(first) <= {0, 1, 2}
    # a labelled density's steps start past its own labels
    w = make_attach(((7, (1,)),), m.jet("q") * m.jet("q")) * m.jet("q", (2,)) * m.jet("q")
    out, _ = iterated_variation_geometric(m, w, [("q", False)], include_shifts=False)
    assert collect_channel_labels(out) == {7, 8}


def test_geometric_variations_graded_commute(m):
    rng = random.Random(26)
    for _ in range(50):
        d = random_homogeneous(m, rng, rng.randint(0, 1))
        a = ("q", rng.random() < 0.5)
        b = ("q", rng.random() < 0.5)
        g_ab, _ = iterated_variation_geometric(m, d, [a, b], include_shifts=False)
        g_ba, _ = iterated_variation_geometric(m, d, [b, a], include_shifts=False)
        sign = (-1) ** (m.parity(*a) * m.parity(*b))
        assert canonicalize_channels(g_ab) == canonicalize_channels(g_ba.scale(sign))


def test_model_validation():
    with pytest.raises(ValueError):
        BvModel(0, [("q", 0)])
    with pytest.raises(ValueError):
        BvModel(1, [("q", 0), ("q", 1)])
    with pytest.raises(ValueError):
        BvModel(1, [("not a name", 0)])
