"""Seeded random generators shared by the test modules."""

import random
from fractions import Fraction
from operator import attrgetter, itemgetter

from bvcalc import BvModel, Expr, bv
from bvcalc.coeff import Coefficient
from bvcalc.algebra import (_ONE, Attach, Trig, _add_products, _add_term, _sum_scaled,
                            make_attach)
from bvcalc.cohomology import Functional, _accumulate, _graded_sort
from bvcalc.jetcalc import GEOMETRIC, NAIVE, _check_mode, _isolate, _right, collapse, eulers


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
        rng.randint(50, 59)  # unused: keeps the rng stream, so the golden digests, fixed
        idx = [0] * n
        idx[rng.randrange(n)] = rng.randint(1, 2)
        return make_attach((tuple(idx),), inner)
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
    """Parity-homogeneous density with at least one jet factor per monomial;
    with ``with_trig`` some monomials also hold a sin or cos factor."""
    from bvcalc.models import random_density
    if with_trig:
        return reference_random_density(model, max_order, degree, parity, rng,
                                        with_trig=True)
    return random_density(model, max_order, degree, parity, rng)


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
    in the same sequence.  With ``with_trig`` a monomial may also take a
    sin or cos factor of an even field, drawn after its jet factors, which
    ``random_density`` never draws."""
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
    bracket adds up to two channels, so [[S,X]] carries up to 2 * depth + 2
    channels per monomial."""
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


# -- the reference normaliser -------------------------------------------------


def _from_raw(raw) -> Expr:
    """Build a canonical Expr from (coefficient, ordered factor list) pairs:
    the reference that the engine's canonical products are compared against.

    Factor lists may repeat atoms and carry them in any order; the Koszul sign
    of sorting the odd factors is absorbed into the coefficient, odd squares
    vanish, and sin(u)^2 is rewritten to 1 - cos(u)^2.
    """
    acc = {}
    stack = list(raw)
    while stack:
        coeff, factors = stack.pop()
        if coeff.is_zero() or any(a.parity and e > 1 for a, e in factors):
            continue  # an odd factor squared
        evens, odds = {}, []
        for atom, exp in factors:
            if exp < 0:
                raise ValueError("negative atom exponent")
            if atom.parity:
                odds += [atom] * exp
            elif exp:
                evens[atom] = evens.get(atom, 0) + exp
        # sin^2 -> 1 - cos^2 (restores canonical sin-degree <= 1)
        sin = next((a for a, e in evens.items()
                    if e >= 2 and isinstance(a, Trig) and a.tag == "sin"), None)
        if sin is not None:
            rest = [(a, e) for a, e in evens.items() if a is not sin]
            if evens[sin] > 2:
                rest.append((sin, evens[sin] - 2))
            rest_odd = [(o, 1) for o in odds]
            stack.append((coeff, rest + rest_odd))
            stack.append((-coeff, rest + [(Trig("cos", sin.arg), 2)] + rest_odd))
            continue
        graded = _graded_sort(odds, attrgetter("key"), attrgetter("parity"))
        if graded is None:
            continue  # an odd factor repeated
        sign, odd = graded
        even = tuple(sorted(evens.items(), key=lambda t: t[0].key))
        _add_term(acc, (even, odd), coeff if sign > 0 else -coeff)
    return Expr(acc) if acc else Expr.zero()


def normalize(e: Expr) -> Expr:
    """Re-normalise an expression by the reference; the identity on the
    canonical expressions the engine builds."""
    return _from_raw([(m.coeff, m.factors()) for m in e.monomials()])


# -- channel labels -----------------------------------------------------------


def erase_labels(x):
    """A key of the Functional or Expr ``x`` with every channel label erased.

    A block's key is (3, its sorted pending multi-indices, the erased key of
    its inner monomial); even atoms with equal keys add their exponents, and
    odd atoms and odd density blocks are re-sorted by their erased keys at
    the Koszul sign of the re-sorting.  An odd key met twice drops the term,
    and equal terms merge.  Erasing is invariant under renaming labels, so
    it pins results up to their bound channel labels."""
    memo = {}
    if isinstance(x, Expr):
        return _erased_expr(x, memo)
    acc = {}
    for blocks, c in x.terms.items():
        erased = [(_erased_expr(b, memo), b.parity()) for b in blocks]
        if any(not key for key, _ in erased):
            continue
        graded = _graded_sort(erased, itemgetter(0), itemgetter(1))
        if graded is not None:
            sign, erased = graded
            _accumulate(acc, tuple(key for key, _ in erased), c if sign > 0 else -c)
    return sorted((blocks, c.key()) for blocks, c in acc.items())


def _erased_expr(e, memo):
    acc = {}
    for mono in e.monomials():
        found = _erased_monomial(mono, memo)
        if found is not None:
            sign, key = found
            _accumulate(acc, key, mono.coeff if sign > 0 else -mono.coeff)
    return tuple(sorted((key, c.key()) for key, c in acc.items()))


def _erased_monomial(mono, memo):
    """(sign, erased key) of a monomial, or None when erasing repeats an
    odd key."""
    sign, evens, odds = 1, {}, []
    for a, k in mono.even:
        found = _erased_atom(a, memo)
        if found is None:
            return None
        s, key = found
        sign *= s ** k
        evens[key] = evens.get(key, 0) + k
    for a in mono.odd:
        found = _erased_atom(a, memo)
        if found is None:
            return None
        s, key = found
        sign *= s
        odds.append(key)
    for i in range(1, len(odds)):  # insertion sort, one sign per transposition
        j = i
        while j and odds[j - 1] > odds[j]:
            odds[j - 1], odds[j] = odds[j], odds[j - 1]
            sign = -sign
            j -= 1
    if any(x == y for x, y in zip(odds, odds[1:])):
        return None
    return sign, (tuple(sorted(evens.items())), tuple(odds))


def _erased_atom(a, memo):
    """(sign, erased key) of an atom, or None when it erases to zero; a
    block keeps a unit inner, so a sign of re-sorting inside it comes out."""
    if not isinstance(a, Attach):
        return 1, a.key
    if a not in memo:
        found = _erased_monomial(next(iter(a.inner.monomials())), memo)
        if found is not None:
            sign, inner = found
            found = sign, (3, a.pending, inner)
        memo[a] = found
    return memo[a]


def right_images(model, e, frozen):
    """The right isolated Euler images of ``e`` by every variable of
    ``model``, one walk by each variable alone (``eulers``, which keeps
    nothing on ``e``, so the reference never reads the images that
    ``jetcalc.images`` keeps) signed into a right image (``jetcalc._right``,
    as ``euler`` signs it), all ``frozen`` or none; a frozen image is then
    isolated (``jetcalc._isolate``)."""
    return {v: isolated(_right(eulers(model, e, [v], frozen)[v], model.parity(*v)), frozen)
            for pair in model.pairs() for v in pair}


def isolated(image, frozen):
    """A frozen Euler image with its home plains isolated, as the bracket
    takes it; an expanded image as it is."""
    return _isolate(image) if frozen else image


# -- the bracket density with its images taken afresh --------------------------
# Both operands walked in every call, f from the right and g from the left:
# the reference for ``bv.schouten_density``, which keeps the images of an
# operand that holds a block on it and takes only left images.

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
    the left Euler images el of g, frozen in geometric mode and taken of the
    collapsed operands in naive mode."""
    _check_mode(mode)
    if mode == NAIVE:
        f, g = collapse(f), collapse(g)
    frozen = mode == GEOMETRIC
    pairs = list(model.pairs())
    er = right_images(model, f, frozen)
    el = {v: isolated(image, frozen)
          for v, image in eulers(model, g, [v for pair in pairs for v in pair], frozen).items()}
    return pairs, er, el


def labelled_operands(model, seed: int) -> dict:
    """Seeded bracket operands {name: density} in ``model``: plain densities
    p0 (even, with sin/cos factors when the model has an even field), e
    (even) and p1 (odd); the brackets x = [[p1, p0]] (even) and
    y = [[p0, e]] (odd), which hold frozen blocks; and z = [[x, y]] (even),
    whose blocks nest.  Every
    bracket is taken by ``reference_bracket_density``."""
    from bvcalc.models import random_density
    rng = random.Random(seed)
    p0 = reference_random_density(model, 2, 3, 0, rng, with_trig=True)
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
