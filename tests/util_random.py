"""Seeded random generators shared by the test modules."""

import itertools
import random
from fractions import Fraction

from bvcalc import BvModel, Expr, bv
from bvcalc.coeff import Coefficient
from bvcalc.algebra import (_ONE, Attach, Trig, _add_monomial, _add_products, _from_raw,
                            _sum_scaled, collect_channel_labels, make_attach)
from bvcalc.cohomology import Functional, _accumulate
from bvcalc.jetcalc import (GEOMETRIC, NAIVE, _check_mode, _rename_monomial,
                            _sorted_occurrences, canonicalize_channels, collapse, euler, eulers)


def scalar_model() -> BvModel:
    return BvModel(1, [("q", 0)])


def ghost_model() -> BvModel:
    return BvModel(1, [("q", 0), ("c", 1)])


def plane_model() -> BvModel:
    return BvModel(2, [("u", 0)])


def random_coefficient(rng: random.Random) -> Coefficient:
    c = Coefficient.zero()
    for _ in range(rng.randint(1, 2)):
        deg = rng.choice([0, 0, 0, 1, -1])
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
        c = c + Coefficient({deg: (re, im)})
    if c.is_zero():
        c = Coefficient.of(1)
    return c


def random_atom_expr(model: BvModel, rng: random.Random, max_order=2,
                     with_trig=True, with_attach=False) -> Expr:
    n = model.base_dim
    names = [name for name, _ in model.fields]
    kind = rng.random()
    if with_attach and kind < 0.12:
        inner = random_monomial(model, rng, max_order, degree=rng.randint(1, 2),
                                with_trig=False, with_attach=False)
        if inner.is_zero():
            inner = model.jet(names[0])
        label = rng.randint(50, 59)
        idx = [0] * n
        idx[rng.randrange(n)] = rng.randint(1, 2)
        return make_attach(((label, tuple(idx)),), inner)
    if with_trig and kind < 0.3:
        even = [nm for nm in names if model.parity(nm) == 0]
        if even:
            tag = rng.choice(("sin", "cos", "exp"))
            return Expr.from_atom(Trig(tag, model.jet_atom(rng.choice(even))))
    if kind < 0.4:
        return model.x(rng.randrange(n))
    name = rng.choice(names)
    dagger = rng.random() < 0.5
    idx = [0] * n
    for _ in range(rng.randint(0, max_order)):
        idx[rng.randrange(n)] += 1
    return model.jet(name, tuple(idx), dagger)


def random_monomial(model, rng, max_order=2, degree=None, with_trig=True,
                    with_attach=False) -> Expr:
    out = Expr.scalar(random_coefficient(rng))
    for _ in range(degree if degree is not None else rng.randint(1, 3)):
        out = out * random_atom_expr(model, rng, max_order, with_trig, with_attach)
    return out


def random_expr(model, rng, terms=None, max_order=2, with_trig=True,
                with_attach=False) -> Expr:
    out = Expr.zero()
    for _ in range(terms if terms is not None else rng.randint(1, 4)):
        out = out + random_monomial(model, rng, max_order,
                                    with_trig=with_trig, with_attach=with_attach)
    return out


def random_homogeneous(model, rng, parity, max_order=2, degree=3,
                       with_trig=False) -> Expr:
    """Parity-homogeneous density with at least one jet factor per monomial."""
    from bvcalc.models import random_density
    return random_density(model, max_order, degree, parity, rng,
                          with_trig=with_trig)


def reference_random_density(
    model,
    max_jet_order: int,
    max_degree: int,
    parity: int,
    rng,
    with_trig: bool = False,
):
    """``models.random_density`` as it was built from Exprs: each drawn
    factor a one-atom Expr, each monomial their product taken one factor at
    a time, and the density the sum of the monomials.  It draws from ``rng``
    in the same sequence."""
    n = model.base_dim
    names = [name for name, _ in model.fields]
    monos = []
    count = rng.randint(1, 3)
    attempts = 0
    made = 0
    while made < count and attempts < 200:
        attempts += 1
        degree = rng.randint(1, max_degree)
        factors = []
        for _ in range(degree):
            name = rng.choice(names)
            dagger = rng.random() < 0.5
            order = rng.randint(0, max_jet_order)
            idx = [0] * n
            for _ in range(order):
                idx[rng.randrange(n)] += 1
            factors.append(model.jet(name, tuple(idx), dagger))
        if with_trig and rng.random() < 0.4:
            even_choices = [nm for nm in names if model.parity(nm) == 0]
            if even_choices:
                nm = rng.choice(even_choices)
                tag = rng.choice(("sin", "cos"))
                factors.append(Expr.from_atom(Trig(tag, model.jet_atom(nm))))
        mono = Expr.scalar(rng.choice([1, -1, 2, -2, 3]))
        for f in factors:
            mono = mono * f
        if mono.is_zero():
            continue
        try:
            p = mono.parity()
        except Exception:
            continue
        if p != parity:
            # append a bare odd variable of a random field to flip parity
            name = rng.choice(names)
            dagger = model.parity(name, False) == 0
            extra = model.jet(name, (0,) * n, dagger)
            mono = mono * extra
            if mono.is_zero() or mono.parity() != parity:
                continue
        monos.append((mono, 1))
        made += 1
    out = _sum_scaled(monos)
    if out.is_zero():
        # guarantee a nonzero density of the requested parity
        name = names[0]
        if parity == 0:
            out = model.jet(name) * model.jet(name)
            if model.parity(name) == 1:
                out = model.jet(name) * model.jet(name, dagger=True)
        else:
            dagger = model.parity(name, False) == 0
            out = model.jet(name, dagger=dagger)
            if out.parity() != parity:
                out = model.jet(name)
    return out



def nested_brackets(depth: int, seed: int = 20240808):
    """The scalar model, an odd action S and X = [[S,[[S,...[[S,O]]]]]] with
    ``depth`` brackets around O = random_functional(m, 1, 1, 0, seed).  Each
    bracket adds up to two channel labels, so [[S,X]] carries up to
    2 * depth + 2 labels per monomial."""
    from bvcalc.bv import schouten
    from bvcalc.cohomology import Functional
    from bvcalc.models import random_functional
    m = scalar_model()
    q, qx = m.jet("q"), m.jet("q", (1,))
    qd, qdx, qdxx = (m.jet("q", (k,), dagger=True) for k in (0, 1, 2))
    S = Functional.from_density(m, qd * qdx * q + qx * qx * q + qd * qdxx * qx)
    X = random_functional(m, 1, 1, 0, seed)
    for _ in range(depth):
        X = schouten(S, X)
    return m, S, X


# -- channel labels -----------------------------------------------------------


def relabel(e, mapping):
    """``e`` with its channel labels renamed by ``mapping``, each monomial
    normalised anew."""
    out = Expr.zero()
    for mono in e.monomials():
        out = out + relabel_monomial(mono, mapping)
    return out


def relabel_monomial(m, mapping):
    """A monomial renamed by ``mapping`` and normalised anew by `_from_raw`."""
    return _from_raw([_relabel_factors(m.coeff, m.factors(), mapping)])


def _relabel_factors(coeff, factors, mapping):
    """Rename channel labels in a factor list.  Renaming can reorder the odd
    factors inside a nested block; the sign this costs is pulled out of the
    block (which keeps a unit coefficient) into ``coeff``."""
    out = []
    for a, k in factors:
        if isinstance(a, Attach):
            pending = tuple((mapping[lab], idx) for lab, idx in a.pending)
            inner = a.inner
            if any(isinstance(b, Attach) for b in inner.atoms()):
                inner = _from_raw(
                    [_relabel_factors(mm.coeff, mm.factors(), mapping)
                     for mm in inner.monomials()])
                if inner.lead_coefficient() == -1:
                    inner = -inner
                    if k & 1:
                        coeff = -coeff
            a = Attach(pending, inner)
        out.append((a, k))
    return coeff, tuple(out)


def label_signatures(m, erased=None, occurrences=None):
    """(signatures, homes) of the channel labels of ``m``, read off the one
    sorted occurrence list of ``jetcalc._sorted_occurrences``: a label's
    signature is the sorted list of its occurrences, its home that of its one
    occurrence, and a label met twice is its own home."""
    sigs, homes = {}, {}
    found = _sorted_occurrences(m, {} if erased is None else erased,
                                {} if occurrences is None else occurrences)
    for lab, occurrence, home in found:
        sigs.setdefault(lab, []).append(occurrence)
        homes[lab] = lab if lab in homes else home
    return sigs, homes


def reference_canonicalize_channels(e: Expr, first: int = 0, memos=None) -> Expr:
    """``canonicalize_channels`` by enumeration: every permutation of every
    group of labels with equal signatures is tried, fixed ties included, and
    the least renamed monomial is kept; a monomial that some renaming maps to
    minus itself vanishes.  With no ties the signature order is the one
    renaming, skipped when it is the identity."""
    erased, occurrences, renamed = memos if memos is not None else ({}, {}, {})
    acc = {}
    for m in e.monomials():
        sigs = label_signatures(m, erased, occurrences)[0]
        if not sigs:
            _add_monomial(acc, (m.even, m.odd), m)
            continue
        ranked = sorted(sigs, key=sigs.get)
        groups = [tuple(g) for _, g in itertools.groupby(ranked, key=sigs.get)]
        if len(groups) == len(ranked):
            if any(lab != i for i, lab in enumerate(ranked, first)):
                m = _rename_monomial(m, {lab: i for i, lab in enumerate(ranked, first)},
                                     renamed)
            _add_monomial(acc, (m.even, m.odd), m)
            continue
        best = best_key = None
        seen = {}
        for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
            mapping = {lab: i for i, lab in enumerate(itertools.chain.from_iterable(choice), first)}
            candidate = _rename_monomial(m, mapping, renamed)
            mk = (candidate.even, candidate.odd)
            if seen.setdefault(mk, candidate.coeff) != candidate.coeff:
                break
            if best is None or mk < best_key:
                best, best_key = candidate, mk
        else:
            _add_monomial(acc, best_key, best)
    return Expr(acc) if acc else Expr.zero()


def reference_schouten_density(model, f, g):
    """The geometric density of [[f, g]] as the raw products of the Euler
    images of f and g, with nothing merged up to renaming labels.  g's labels
    are first shifted past f's, since the two may share the labels of one
    ancestor, and the two new labels lie past both."""
    f_labels = collect_channel_labels(f)
    shift = max(f_labels) + 1 if f_labels else 0
    g = relabel(g, {lab: lab + shift for lab in collect_channel_labels(g)})
    top = max(f_labels | collect_channel_labels(g), default=-1) + 1
    pairs = list(model.pairs())
    er = right_images(model, f, top)
    el = eulers(model, g, {v: top + 1 for pair in pairs for v in pair}, isolate=True)
    out = Expr.zero()
    for ev, od in pairs:
        out = out + er[ev] * el[od] - er[od] * el[ev]
    return out


def right_images(model, e, label):
    """The right isolated Euler images of ``e`` by every variable of
    ``model``, one public ``euler`` call per variable, all at ``label``."""
    return {v: euler(model, e, *v, side="right", label=label, isolate=True)
            for pair in model.pairs() for v in pair}


def raw_nested_densities(depth: int, seed: int = 20240808):
    """The model and the densities s of S and x of X as in ``nested_brackets``,
    every bracket of X taken by ``reference_schouten_density``, so that X
    keeps every monomial that differs from another only by its labels."""
    m, S, O = nested_brackets(0, seed)
    ((s,),), ((x,),) = S.terms, O.terms
    for _ in range(depth):
        x = reference_schouten_density(m, s, x)
    return m, s, x


# -- the bracket density with its images taken afresh --------------------------
# Both operands walked in every call, f from the right and g from the left, and
# a labelled operand's images put in canonical label form in every call: the
# reference for ``bv.schouten_density``, which keeps a labelled block's images
# on the block and takes only left images.

_MINUS_ONE = Coefficient.of(-1)


def reference_bracket_density(model, f, g, mode=GEOMETRIC):
    """The density of [[f, g]]: the sum over the conjugate pairs (ev, od) of
    er[ev] * el[od] - er[od] * el[ev], with the images of
    ``reference_bracket_images``."""
    pairs, er, el = reference_bracket_images(model, f, g, mode)
    acc = {}
    for ev, od in pairs:
        _add_products(acc, _ONE, er[ev], el[od])
        _add_products(acc, _MINUS_ONE, er[od], el[ev])
    return Expr(acc) if acc else Expr.zero()


def reference_bracket_images(model, f, g, mode=GEOMETRIC):
    """The conjugate pairs of the model, the right Euler images er of f and
    the left Euler images el of g.  In geometric mode f's variations are
    recorded against the new label max(labels of f) + 1 (0 for a plain f)
    and g's against max(labels of g) + 1 (a for a plain g); a labelled
    operand's images are put in canonical label form, f's from 0 and g's
    from a, where a is one more than the number of labels of f."""
    _check_mode(mode)
    if mode == NAIVE:
        f, g = collapse(f), collapse(g)
        f_own = g_own = ()
        l1 = l2 = None
    else:
        f_own, g_own = collect_channel_labels(f), collect_channel_labels(g)
        a = len(f_own) + 1
        l1 = max(f_own) + 1 if f_own else 0
        l2 = max(g_own) + 1 if g_own else a
    pairs = list(model.pairs())
    er = right_images(model, f, l1)
    el = eulers(model, g, {v: l2 for pair in pairs for v in pair}, isolate=True)
    if f_own:
        er = reference_canonical_images(er, 0)
    if g_own:
        el = reference_canonical_images(el, a)
    return pairs, er, el


def reference_canonical_images(images: dict, first: int) -> dict:
    """Each Euler image in canonical label form from ``first`` on, in one pass
    that shares the canonicaliser's memos."""
    memos = ({}, {}, {})
    return {v: canonicalize_channels(e, first, memos) for v, e in images.items()}


def labelled_operands(model, seed: int) -> dict:
    """Seeded bracket operands {name: density} in ``model``: plain densities
    p0 (even, with sin/cos factors when the model has an even field), e
    (even) and p1 (odd); the labelled brackets x = [[p1, p0]] (even) and
    y = [[p0, e]] (odd); and z = [[x, y]] (even), whose blocks nest.  Every
    bracket is taken by ``reference_bracket_density``."""
    from bvcalc.models import random_density
    rng = random.Random(seed)
    p0 = random_density(model, 2, 3, 0, rng, with_trig=True)
    e = random_density(model, 2, 3, 0, rng)
    p1 = random_density(model, 2, 3, 1, rng)
    x = reference_bracket_density(model, p1, p0)
    y = reference_bracket_density(model, p0, e)
    return {"p0": p0, "p1": p1, "x": x, "y": y, "z": reference_bracket_density(model, x, y)}


# -- the Leibniz extensions by recursion ----------------------------------------
# The extensions of the bracket and the Laplacian to products of blocks, built
# by recursion over the blocks and, for a bracket whose first argument has
# several blocks, through skew-symmetry: the reference for the closed sums of
# ``bv.schouten`` and ``bv.laplacian``.


def _blocks_parity(blocks) -> int:
    return sum(b.parity() for b in blocks) & 1


def reference_schouten(F: Functional, G: Functional, mode: str = GEOMETRIC) -> Functional:
    """Variational Schouten bracket, extended to products by
    [[F, G*H]] = [[F,G]]*H + (-1)^((gh F - 1) gh G) G*[[F,H]] and to products
    in the first slot through shifted-graded skew-symmetry."""
    _check_mode(mode)
    model = F.model
    pF, pG = F.parity(), G.parity()  # raises on heterogeneous input
    acc = {}
    for bf, cf in F.terms.items():
        for bg, cg in G.terms.items():
            c0 = cf * cg
            for blocks, c in _bracket_blocks(model, bf, bg, mode).terms.items():
                _accumulate(acc, blocks, c0 * c)
    return Functional(model, acc)


def _bracket_blocks(model, bf: tuple, bg: tuple, mode: str) -> Functional:
    if not bf or not bg:
        return Functional.zero(model)  # constants are bracket-inert
    if len(bg) > 1:
        C, rest = bg[0], bg[1:]
        pF = _blocks_parity(bf)
        pC = C.parity()
        left = _bracket_blocks(model, bf, (C,), mode) * Functional(model, {rest: Coefficient.one()})
        right = Functional(model, {(C,): Coefficient.one()}) * _bracket_blocks(model, bf, rest, mode)
        if ((pF - 1) * pC) & 1:
            right = -right
        return left + right
    if len(bf) > 1:
        pF = _blocks_parity(bf)
        pG = _blocks_parity(bg)
        flipped = _bracket_blocks(model, bg, bf, mode)
        if (((pF - 1) * (pG - 1)) & 1) == 0:
            flipped = -flipped
        return flipped
    density = bv.schouten_density(model, bf[0], bg[0], mode)
    return Functional.from_density(model, density)


def reference_laplacian(F: Functional, mode: str = GEOMETRIC) -> Functional:
    """BV-Laplacian, extended to products by
    Delta(F*G) = Delta(F)*G + (-1)^gh(F) [[F,G]] + (-1)^gh(F) F*Delta(G)."""
    _check_mode(mode)
    model = F.model
    F.parity()
    acc = {}
    for blocks, c0 in F.terms.items():
        for key, c in _laplace_blocks(model, blocks, mode).terms.items():
            _accumulate(acc, key, c0 * c)
    return Functional(model, acc)


def _laplace_blocks(model, blocks: tuple, mode: str) -> Functional:
    if not blocks:
        return Functional.zero(model)
    if len(blocks) == 1:
        return Functional.from_density(model, bv.laplacian_density(model, blocks[0], mode))
    B, rest = blocks[0], blocks[1:]
    pB = B.parity()
    restF = Functional(model, {rest: Coefficient.one()})
    BF = Functional(model, {(B,): Coefficient.one()})
    out = _laplace_blocks(model, (B,), mode) * restF
    cross = _bracket_blocks(model, (B,), rest, mode)
    tail = BF * _laplace_blocks(model, rest, mode)
    if pB & 1:
        cross = -cross
        tail = -tail
    return out + cross + tail
