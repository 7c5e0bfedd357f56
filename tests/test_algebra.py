import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import bvcalc
from bvcalc import BvModel, Expr, ParityError
from bvcalc import algebra
from bvcalc.coeff import Coefficient
from bvcalc.algebra import (
    Atom,
    Attach,
    BaseVar,
    GhostNumberError,
    JetVar,
    Trig,
    make_attach,
    _add_product,
)
from bvcalc.grammar import format_expr, parse_expr
from bvcalc.jetcalc import _shift

from util_random import (_from_raw, ghost_model, normalize, random_expr, random_monomial,
                         scalar_model)


@pytest.fixture
def m():
    return scalar_model()


def test_odd_square_vanishes(m):
    qd = m.jet("q", dagger=True)
    assert (qd * qd).is_zero()


def test_odd_transposition_sign(m):
    qd = m.jet("q", dagger=True)
    qdx = m.jet("q", (1,), dagger=True)
    assert qdx * qd == -(qd * qdx)


def test_pythagorean_rewrite(m):
    s, c = m.sin("q"), m.cos("q")
    assert s * s + c * c == Expr.scalar(1)
    assert (s * s - Expr.scalar(1) + c * c).is_zero()
    # sin^3 keeps a single sin factor
    cube = s * s * s
    assert cube == s - c * c * s


def test_trig_rejects_odd_argument(m):
    with pytest.raises(ValueError):
        Trig("sin", m.jet_atom("q", dagger=True))


def test_graded_commutativity_on_random_pairs():
    model = ghost_model()
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        a = random_expr(model, rng, with_attach=True)
        b = random_expr(model, rng, with_attach=True)
        if not (a.is_homogeneous() and b.is_homogeneous()):
            continue
        sign = (-1) ** (a.parity() * b.parity())
        assert (a * b - (b * a).scale(sign)).is_zero()
        checked += 1


def test_associativity_on_random_triples():
    model = ghost_model()
    rng = random.Random(12)
    for _ in range(60):
        a = random_expr(model, rng, with_attach=True)
        b = random_expr(model, rng)
        c = random_expr(model, rng)
        assert (a * b) * c == a * (b * c)


def test_normalize_idempotent_on_random_trees():
    model = ghost_model()
    rng = random.Random(13)
    for _ in range(1000):
        e = random_expr(model, rng, with_attach=True)
        assert normalize(e) == e


def _product_input(model, rng):
    """A nonzero canonical monomial over few atoms, so that two of them
    often share atoms: jets of order <= 1, sin/cos/exp, base coordinates
    and blocks."""
    while True:
        e = random_monomial(model, rng, max_order=1, degree=rng.randint(1, 4),
                            with_attach=True)
        if rng.random() < 0.3:
            e = e * Expr.from_atom(Trig("sin", model.jet_atom(model.fields[0][0])))
        if not e.is_zero():
            return next(iter(e.monomials()))


@pytest.mark.parametrize("model", [ghost_model(), BvModel(2, [("u", 0), ("c", 1)])],
                         ids=["ghost", "plane"])
def test_product_agrees_with_the_normaliser(model):
    # the merge of two canonical monomials against _from_raw of their
    # concatenated factor lists, on the term map it files into
    rng = random.Random(41)
    seen = dict.fromkeys(("odd repeat", "sin sin", "exponent", "attach"), 0)
    for case in range(400):
        m1, m2 = _product_input(model, rng), _product_input(model, rng)
        c = m1.coeff * m2.coeff
        acc = {}
        _add_product(acc, c, m1.even, m1.odd, m2.even, m2.odd)
        expected = _from_raw([(c, m1.factors() + m2.factors())])
        assert Expr(acc).key() == expected.key(), case
        atoms1 = {a for a, _ in m1.factors()}
        shared = atoms1 & {a for a, _ in m2.factors()}
        seen["odd repeat"] += any(a.parity for a in shared)
        seen["sin sin"] += any(isinstance(a, Trig) and a.tag == "sin" for a in shared)
        seen["exponent"] += any(k > 1 for mm in (m1, m2) for _, k in mm.even) or any(
            not a.parity for a in shared)
        seen["attach"] += any(isinstance(a, Attach) for a, _ in m1.factors() + m2.factors())
    assert min(seen.values()) >= 20, seen


def test_even_odd_commute_freely(m):
    q, qd = m.jet("q"), m.jet("q", dagger=True)
    assert qd * q == q * qd


def test_scalar_action(m):
    c = Coefficient.of(2) + Coefficient.hbar(-1)
    q = m.jet("q")
    e = q.scale(c)
    assert e == Expr.scalar(c) * q
    ((_, mono),) = e.terms.items()
    assert mono.coeff == c


def test_parity_and_ghost_numbers():
    model = BvModel(1, [("q", 0), ("gam", 1)])
    q = model.jet("q")
    qd = model.jet("q", dagger=True)
    qxx = model.jet("q", (2,))
    assert (qd * q * qxx).parity() == 1
    assert Expr.scalar(1).parity() == 0
    assert model.gh("gam") == 1
    assert model.gh("gam", dagger=True) == -2
    assert model.jet("gam").ghost_number() == 1
    assert (model.jet("gam", dagger=True) * model.jet("gam")).ghost_number() == -1


def test_parity_error_names_monomials(m):
    mixed = m.jet("q") + m.jet("q", dagger=True)
    with pytest.raises(ParityError, match=r"^parity-heterogeneous expression: q vs dag\(q\)$"):
        mixed.parity()


def test_ghost_heterogeneous_rejected(m):
    mixed = m.jet("q", dagger=True) + m.jet("q", (1,)).scale(2)
    with pytest.raises(GhostNumberError, match=r"^ghost-number-heterogeneous expression: "
                                               r"dag\(q\) \(gh -1\) vs 2\*q_x \(gh 0\)$"):
        mixed.ghost_number()


def test_is_zero_examples(m):
    from bvcalc.jetcalc import total_derivative
    q = m.jet("q")
    qx = m.jet("q", (1,))
    assert (total_derivative(q, 0) - qx).is_zero()
    s, c = m.sin("q"), m.cos("q")
    assert (s * s - Expr.scalar(1) + c * c).is_zero()
    assert not qx.is_zero()
    # every sum, difference, negation and scaling is one linear combination,
    # with no shortcut for a zero operand or a unit scalar
    rng = random.Random(40)
    for model in (m, ghost_model()):
        for _ in range(30):
            e = random_expr(model, rng, with_attach=True)
            negated = {k: -mono.coeff for k, mono in e.terms.items()}
            assert e + 0 == 0 + e == e - 0 == -(-e) == e.scale(1) == e
            assert 0 - e == -e == e.scale(-1)
            assert {k: mono.coeff for k, mono in (-e).terms.items()} == negated
            for zero in (e - e, e * 0, 0 * e, e.scale(0), e + (-e)):
                assert zero.is_zero() and zero == Expr.zero()


def test_attach_merge_by_parity(m):
    # identical even wrappers accumulate exponents; odd wrappers square to zero
    even_w = make_attach(((1,),), m.jet("q"))
    assert not (even_w * even_w).is_zero()
    odd_w = make_attach(((1,),), m.jet("q", dagger=True))
    assert (odd_w * odd_w).is_zero()


def test_duplicate_channel_label_rejected(m):
    # a label only names a block as it is written: the engine keeps no
    # label, so one named twice in a block's spec is refused where labels
    # are read, and make_attach takes the two pending derivatives of the
    # one block in either order
    from bvcalc.grammar import ParseError, parse_expr
    inner = m.jet("q")
    with pytest.raises(ParseError, match="channel label 3 named twice"):
        parse_expr("frz[3:x1; 3:x1 x1](q)", m)
    block = make_attach(((1,), (2,)), inner)
    assert block == make_attach(((2,), (1,)), inner)
    assert block == parse_expr("frz[0:x1; 1:x1 x1](q)", m)


def test_attach_of_constant_rules(m):
    assert make_attach(((2,),), Expr.scalar(5)).is_zero()
    assert make_attach((), Expr.scalar(5)) == Expr.scalar(5)
    w = make_attach(((2,),), m.cos("q"))
    assert make_attach((), w) == w


def test_negative_and_empty_multi_indices_are_rejected(m):
    # neither has a printed form that parses back: q_{-1} prints as q_ and
    # a pending derivative of order 0 as frz[0:](q)
    q = m.jet("q")
    with pytest.raises(ValueError):
        m.jet("q", (-1,))
    with pytest.raises(ValueError):
        JetVar("q", False, (1, -1), 0)
    for pending in (((0,),), ((-1,),), ((1,), (0,)), ((2,), (-1,))):
        for inner in (q, Expr.scalar(5), make_attach(((1,),), q)):
            with pytest.raises(ValueError):
                make_attach(pending, inner)
        # the public block constructor checks as make_attach does
        for inner in (q, make_attach(((1,),), q)):
            with pytest.raises(ValueError, match="is not a derivative"):
                Attach(pending, inner)
    plane = BvModel(2, [("u", 0)])
    with pytest.raises(ValueError):
        make_attach(((0, 0),), plane.jet("u"))
    for e, model in ((make_attach(((1,), (2,)), q * m.jet("q", (1,))), m),
                     (make_attach(((1, 0),), plane.jet("u", (0, 1))), plane)):
        assert parse_expr(format_expr(e), model) == e


def test_only_algebra_builds_monomials():
    # one writer for term maps: no other module binds or builds a Monomial,
    # and the reference normaliser is not part of the library
    for info in pkgutil.iter_modules(bvcalc.__path__):
        if info.name == "algebra":
            continue
        module = importlib.import_module(f"bvcalc.{info.name}")
        assert "Monomial" not in vars(module), info.name
        assert "Monomial(" not in inspect.getsource(module), info.name
    assert "normalize" not in bvcalc.__all__
    for name in ("normalize", "_from_raw", "_sort_odd", "_add_monomial"):
        assert not hasattr(algebra, name), name


# ---------------------------------------------------------------------------
# interned atoms and term keys


def test_equal_atoms_built_apart_are_one_object(m):
    q = m.jet_atom("q")
    assert JetVar("q", False, (1,), 0) is _shift(q, 0)
    # the constructor converts its parts before the lookup
    assert JetVar("q", 0, [2], 0) is _shift(_shift(q, 0), 0)
    assert BaseVar(0) is BaseVar(0)
    assert Trig("sin", q) is Trig("sin", JetVar("q", False, (0,), 0))
    inner = m.jet("q") * m.x(0)
    again = m.x(0) * m.jet("q")
    assert inner is not again
    assert Attach(((1,), (2,)), inner) is Attach([[2], (1,)], again)
    assert Attach(((1,),), inner) is not Attach(((2,),), inner)
    # a block is anonymous: it is built from its multi-indices alone
    ((even, odd),) = make_attach(((1,),), inner).terms
    assert even == ((Attach(((1,),), inner), 1),) and odd == ()
    assert make_attach(((1,),), inner) == make_attach(((1,),), again)


# ---------------------------------------------------------------------------
# frozen blocks: found by their atoms, keyed on first read


def _key_is_set(a) -> bool:
    """Whether ``a.key`` is stored, read through the slot descriptor so that
    the check builds no key."""
    try:
        Atom.key.__get__(a, type(a))
    except AttributeError:
        return False
    return True


def _blocks_of(e: Expr, out: list) -> list:
    """Every Attach atom of ``e``, nested ones included."""
    for a in e.atoms():
        if type(a) is Attach:
            out.append(a)
            _blocks_of(a.inner, out)
    return out


def test_attach_rejects_an_inner_that_is_not_one_unit_monomial(m):
    # a constant inner is refused too: a bare one is that constant and a
    # pending derivative of one is zero, so its block would print as text
    # that parses back to something else (at(1), frz[0:x1](1))
    q, qx = m.jet("q"), m.jet("q", (1,))
    for pending in (((1,),), ()):
        for inner in (q + qx, q.scale(2), q.scale(-1), Expr.zero(), Expr.scalar(1),
                      Expr.scalar(5)):
            with pytest.raises(ValueError, match="one monomial of coefficient 1"):
                Attach(pending, inner)


def test_public_and_internal_block_constructors_agree(m):
    rng = random.Random(16)
    for model in (m, ghost_model()):
        for _ in range(40):
            mono = random_monomial(model, rng, with_attach=True)
            if len(mono.terms) != 1:
                continue
            ((even, odd), mono), = mono.terms.items()
            if not even and not odd:
                continue
            inner = Expr({(even, odd): algebra.Monomial(Coefficient.one(), even, odd)})
            pending = tuple(sorted((rng.randint(1, 2),) for _ in range(rng.randint(0, 2))))
            a = Attach(pending, inner)
            assert a is Attach._of(pending, even, odd)
            assert a.inner == inner and a.pending == pending
            assert a.parity == inner.parity()
            # a lone block as the inner: its pending derivatives join the
            # new ones, as make_attach joins them, and a bare one is itself
            lone = Expr.from_atom(a)
            assert Expr.from_atom(Attach(pending, lone)) == make_attach(pending, lone)
            assert Attach((), lone) is a
    # each block the constructor builds prints as text that parses back to it
    for pending, text, printed in (((), "at(q)", "at(q)"),
                                   (((1,),), "frz[0:x1](q)", "frz[0:x1; 1:x1](q)")):
        block = Expr.from_atom(Attach(pending, parse_expr(text, m)))
        assert format_expr(block) == printed and parse_expr(printed, m) == block


def test_block_keys_are_built_on_first_read_as_the_nested_key():
    # atoms outlive the tests that build them: fields no other test names
    # give blocks whose keys nothing has read yet
    rng = random.Random(17)
    blocks = []
    for model in (BvModel(1, [("keyless", 0)]),
                  BvModel(1, [("keyless", 0), ("keylessghost", 1)])):
        for _ in range(60):
            e = random_expr(model, rng, with_attach=True)
            if rng.random() < 0.5:
                # nest: blocks inside a block, at an order-0 draw a bare one
                order = rng.randint(0, 2)
                rng.randint(70, 79)  # unused: keeps the rng stream, so the cases, fixed
                e = make_attach(((order,),) if order else (), e)
            _blocks_of(e, blocks)
    fresh = [a for a in blocks if not _key_is_set(a)]
    assert len(set(fresh)) > 50
    expected = {a: (3, a.pending, a.inner.key()) for a in blocks}
    for a in blocks:
        assert a.key == expected[a]
        assert _key_is_set(a)
    assert sorted(set(blocks)) == sorted(set(blocks), key=expected.__getitem__)


def _ym_blocks_made_and_keyed():
    """How many blocks su(2) Yang-Mills ``[[S, S]]`` at n = 4 interns, and
    how many of them have their key set once it is collapsed."""
    from bvcalc.bv import schouten
    from bvcalc.models import LieAlgebraData, build_yang_mills_bv
    old = {a for a in algebra._INTERNED.values() if type(a) is Attach}
    _, S = build_yang_mills_bv(LieAlgebraData.su2(), 4)
    SS = schouten(S, S)
    collapsed = SS.collapse()
    assert not any(b.has_attach() for b in collapsed.blocks())
    made = {a for b in SS.blocks() for a in _blocks_of(b, []) if a not in old}
    return len(made), sum(_key_is_set(a) for a in made)


def test_the_ym_bracket_and_its_collapse_read_no_block_key():
    # in a fresh interpreter: atoms live as long as the import, so in this
    # one earlier tests may have interned these blocks and read their keys
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(bvcalc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    script = "import test_algebra as t; print(*t._ym_blocks_made_and_keyed())"
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    made, keyed = map(int, done.stdout.split())
    assert made > 500
    assert keyed == 0


def test_a_ghost_number_is_part_of_a_jet_variable():
    # one name with two ghost numbers gives two atoms, never one of the wrong
    # parity, although their keys agree
    even, odd = JetVar("s", False, (0,), 0), JetVar("s", False, (0,), 1)
    assert even is not odd
    assert (even.parity, odd.parity) == (0, 1)
    assert even.key == odd.key


def test_atoms_hash_and_compare_by_identity():
    for cls in (Atom, JetVar, BaseVar, Trig, Attach):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    # only the ordering reads the nested keys
    assert JetVar("a", False, (0,), 0) < BaseVar(0) < BaseVar(1)
    assert sorted([BaseVar(2), BaseVar(0), BaseVar(1)]) == [BaseVar(0), BaseVar(1), BaseVar(2)]


def test_a_second_pass_of_the_suites_interns_no_atom():
    # atoms live as long as the import: the same cases again find every
    # block, jet variable and function atom that the first pass built
    from bvcalc.cli import run_suite

    def one_pass():
        for suite in ("leibniz-1a", "laplacian-1b", "derivation-1c",
                      "delta-squared-1d", "jacobi", "skew"):
            assert run_suite(suite, 20, 7, 2)[0]
        assert run_suite("derivation-1c", 1, 7, 2, scalar_pair=True)[0]

    one_pass()
    first = dict(algebra._INTERNED)
    assert {type(a) for a in first.values()} >= {JetVar, Trig, Attach}
    one_pass()
    assert algebra._INTERNED.keys() == first.keys()
    assert all(algebra._INTERNED[k] is a for k, a in first.items())


def _term_key_cases():
    rng = random.Random(14)
    for model in (scalar_model(), ghost_model()):
        for _ in range(100):
            yield random_expr(model, rng, with_attach=True)


def _printed_in_atom_key_order(e: Expr) -> str:
    """The printed form with the monomials ordered by their nested atom keys."""
    if e.is_zero():
        return "0"
    mons = sorted(e.terms.values(), key=lambda mono: mono.atom_key())
    pieces = [repr(Expr({(mono.even, mono.odd): mono})) for mono in mons]
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def test_term_maps_are_keyed_by_the_monomials_own_atoms():
    for e in _term_key_cases():
        for k, mono in e.terms.items():
            assert k == (mono.even, mono.odd)
        ordered = [e.terms[k].atom_key() for k in sorted(e.terms)]
        assert ordered == sorted(mono.atom_key() for mono in e.terms.values())
        assert repr(e) == _printed_in_atom_key_order(e)


def test_expr_equality_agrees_with_the_nested_key():
    cases = list(_term_key_cases())
    rng = random.Random(15)
    for a in cases[:60]:
        # the same expression rebuilt in another order, a multiple and a
        # different expression
        rebuilt = normalize(Expr(dict(reversed(list(a.terms.items())))))
        for b in (rebuilt, a.scale(2), rng.choice(cases)):
            assert (a == b) == (a.key() == b.key())
            if a == b:
                assert hash(a) == hash(b)
        assert a == rebuilt and hash(a) == hash(rebuilt)
