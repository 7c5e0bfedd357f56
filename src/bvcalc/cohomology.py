"""Functionals as horizontal-cohomology classes.

A density is trivial (a total divergence) iff every Euler operator of it
vanishes and its field-free part is zero; integral functionals are then
equivalence classes of densities, and formal graded-commutative products of
such blocks form the space of local functionals.
"""

from __future__ import annotations

from .coeff import Coefficient
from .algebra import Attach, Expr, GhostNumberError, ParityError, _sum_scaled
from .grammar import expr_text, format_coefficient
from .jetcalc import BvModel, collapse, eulers


# ---------------------------------------------------------------------------
# density-level decisions


def field_free_part(e: Expr) -> Expr:
    """The part of a density containing no jet variables at all."""
    keep = {}
    for k, m in e.terms.items():
        if not any(_has_fields(a) for a, _ in m.even) and not any(
            _has_fields(a) for a in m.odd
        ):
            keep[k] = m
    return Expr(keep)


def _has_fields(a) -> bool:
    if type(a) is Attach:
        return any(_has_fields(b) for b in a.inner.atoms())
    return a.var is not None


def is_trivial(model: BvModel, density: Expr) -> bool:
    """True iff the density is a total divergence: its triviality image (all
    Euler operators and the field-free residue) is zero.  Expects a
    wrapper-free density."""
    if density.has_attach():
        raise ValueError("structured density: collapse before cohomological tests")
    return not _triviality_image(model, density)


# ---------------------------------------------------------------------------
# functionals


class Functional:
    """Formal coefficient-ring combination of products of integral blocks.

    Each term is a coefficient times an ordered product of blocks; a block is
    a density expression (structured when it carries Attach atoms).  Block
    products are graded-commutative: blocks are kept sorted by canonical key
    with the Koszul sign absorbed, and a repeated odd block vanishes.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: BvModel, terms=None):
        self.model = model
        self.terms = terms or {}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_density(model: BvModel, density: Expr) -> "Functional":
        if density.is_zero():
            return Functional(model)
        return Functional(model, {(density,): Coefficient.one()})

    @staticmethod
    def zero(model: BvModel) -> "Functional":
        return Functional(model)

    @staticmethod
    def constant(model: BvModel, value) -> "Functional":
        c = Coefficient.of(value)
        if c.is_zero():
            return Functional(model)
        return Functional(model, {(): c})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int:
        p = None
        for blocks in self.terms:
            bp = sum(b.parity() for b in blocks) & 1
            if p is None:
                p = bp
            elif bp != p:
                raise ParityError("parity-heterogeneous functional")
        return 0 if p is None else p

    def ghost_number(self) -> int:
        g = None
        for blocks in self.terms:
            bg = sum(b.ghost_number() for b in blocks)
            if g is None:
                g = bg
            elif bg != g:
                raise GhostNumberError("ghost-number-heterogeneous functional")
        return 0 if g is None else g

    def blocks(self):
        for blocks in self.terms:
            yield from blocks

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        _check_model(self, other)
        acc = dict(self.terms)
        for blocks, c in other.terms.items():
            _accumulate(acc, blocks, c)
        return Functional(self.model, acc)

    def __neg__(self):
        return Functional(self.model, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "Functional":
        c0 = Coefficient.of(value)
        if c0.is_zero():
            return Functional(self.model)
        return Functional(self.model, {b: c0 * c for b, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Functional):
            return self.scale(other)
        _check_model(self, other)
        acc = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                _add_blocks(acc, b1 + b2, c1 * c2)
        return Functional(self.model, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of functionals are not defined")
        out = Functional.constant(self.model, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and self.model is other.model
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((b, c) for b, c in self.terms.items()))

    def collapse(self) -> "Functional":
        acc = {}
        for blocks, c in self.terms.items():
            _add_blocks(acc, tuple(collapse(b) for b in blocks), c)
        return Functional(self.model, acc)

    def __repr__(self):
        return "".join(functional_text(self))


def functional_text(F: Functional):
    """The text of ``repr(F)`` in pieces, in order, made as they are read:
    each term is ``(coefficient)*<block>*...`` (``<vol>`` for no block), the
    terms in the order of their blocks' keys and joined by " + ".  A single
    term needs no order, and so no block key."""
    if not F.terms:
        yield "<0>"
        return
    order = F.terms if len(F.terms) == 1 else sorted(F.terms, key=_blocks_key)
    for i, blocks in enumerate(order):
        yield f"{' + ' if i else ''}({format_coefficient(F.terms[blocks])})*"
        if not blocks:
            yield "<vol>"
        for j, b in enumerate(blocks):
            yield "*<" if j else "<"
            yield from expr_text(b)
            yield ">"


def _blocks_key(blocks):
    return tuple(b.key() for b in blocks)


def _add_blocks(acc, blocks, c):
    """Add c times the graded product of ``blocks`` into the term map ``acc``."""
    if any(b.is_zero() for b in blocks):
        return
    graded = _graded_sort(blocks, Expr.key, Expr.parity)
    if graded is not None:
        sign, key = graded
        _accumulate(acc, key, c if sign > 0 else -c)


def _graded_sort(items, key, parity):
    """Sort graded-commuting items by key, absorbing the Koszul sign: returns
    (sign, sorted tuple), or None when an odd item repeats (the product
    vanishes).  Fewer than two items are in order as they are, and no key
    is built for them."""
    if len(items) < 2:
        return 1, tuple(items)
    arr = [(key(x), parity(x), x) for x in items]
    sign = 1
    for i in range(1, len(arr)):
        cur = arr[i]
        j = i - 1
        while j >= 0 and arr[j][0] > cur[0]:
            if cur[1] and arr[j][1]:
                sign = -sign
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = cur
    for (k, p, _), (k2, _, _) in zip(arr, arr[1:]):
        if p and k == k2:
            return None
    return sign, tuple(x for _, _, x in arr)


def _accumulate(acc, key, c):
    """Add the coefficient c to ``acc[key]`` in place; a zero sum is dropped."""
    prev = acc.get(key)
    if prev is not None:
        c = prev + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def _check_model(a: Functional, b: Functional):
    if a.model is not b.model:
        raise ValueError("functionals belong to different models")


# ---------------------------------------------------------------------------
# functional equality


def functional_equal(
    F: Functional,
    G: Functional,
    mode: str = "structural",
) -> bool:
    """Decide equality of two functionals.

    Blocks of F - G are partitioned into equivalence classes: wrapper-free
    densities by cohomological equivalence, structured blocks either by
    structural equality up to a unit scalar, the
    coefficient at the least term key (mode 'structural'), or by collapse
    followed by cohomological equivalence (mode 'collapse').  The integral is
    linear, so the single wrapper-free blocks of F - G are first summed into
    one integral per parity, and tested as one density.
    Terms containing a block that is a trivial density vanish; the
    class-representative polynomials are then compared.
    """
    if mode not in ("structural", "collapse"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    _check_model(F, G)
    H = F - G
    return not _reduce_functional(H, mode)


def _triviality_image(model: BvModel, b: Expr) -> dict:
    """Sparse coordinates of a density under the linear map whose kernel is
    exactly the trivial densities: all Euler-operator images together with
    the field-free residue, keyed by term keys (which order as the nested
    keys do)."""
    img = {}
    for (field, dagger), e in eulers(model, b, model.variables()).items():
        for k, mono in e.terms.items():
            img[("E", field, dagger, k)] = mono.coeff
    for k, mono in field_free_part(b).terms.items():
        img[("c", k)] = mono.coeff
    return img


class _ClassBasis:
    """Greedy exact basis of density classes modulo total divergences.

    Blocks are reduced against the basis of their triviality images by
    Gaussian elimination over Q(i); each block gets an expansion as a linear
    combination of independent basis classes, with coefficients in
    Q(i)[hbar, hbar^-1].  That ring is not a field (1 + hbar has no inverse),
    so an image is eliminated one power of hbar at a time: hbar is a formal
    variable and the Euler operators do not touch it.
    """

    def __init__(self, model: BvModel):
        self.model = model
        self.rows = []  # (parity, pivot_coord, normalized_vector)

    def expand(self, b: Expr):
        """Expansion of [b] over the basis: list of (basis_index, Coefficient)."""
        parity = b.parity()
        expansion = {}
        for k, v in _hbar_parts(_triviality_image(self.model, b)).items():
            unit = Coefficient.hbar(k)
            for idx, lam in self._eliminate(parity, v):
                _accumulate(expansion, idx, lam if k == 0 else unit * lam)
        return list(expansion.items())

    def _eliminate(self, parity: int, v: dict):
        """Expansion of an image with entries in Q(i); a remainder becomes a
        new row, normalised by its pivot."""
        expansion = []
        for idx, (p, pivot, row) in enumerate(self.rows):
            if p != parity:
                continue
            lam = v.get(pivot)
            if lam is None:
                continue
            neg = -lam
            for coord, c in row.items():
                _accumulate(v, coord, neg * c)
            expansion.append((idx, lam))
        if v:
            pivot = min(v)
            scale = v[pivot].inverse()
            row = {k: scale * c for k, c in v.items()}
            self.rows.append((parity, pivot, row))
            expansion.append((len(self.rows) - 1, v[pivot]))
        return expansion


def _hbar_parts(v: dict) -> dict:
    """{k: v_k} with v = sum over k of hbar^k * v_k and every entry of every
    v_k in Q(i)."""
    parts = {}
    for coord, c in v.items():
        if len(c.terms) == 1 and 0 in c.terms:
            parts.setdefault(0, {})[coord] = c
        else:
            for k, entry in c.terms.items():
                parts.setdefault(k, {})[coord] = Coefficient._clean({0: entry})
    return parts


def _graded_expand(terms, factors_expansions, parities, seed):
    """Multiply out ``seed`` times a product of linear combinations of graded
    symbols, adding the result into ``terms``.

    ``factors_expansions`` is a list of [(symbol, Coefficient)] expansions;
    symbols multiply graded-commutatively with parities from ``parities``,
    and ``terms`` maps sorted symbol tuples to Coefficients."""
    acc = {(): seed}
    for expansion in factors_expansions:
        nxt = {}
        for key, c in acc.items():
            for sym, lam in expansion:
                graded = _graded_sort(key + (sym,), _itself, parities.__getitem__)
                if graded is not None:
                    sign, new_key = graded
                    _accumulate(nxt, new_key, c * lam if sign > 0 else -(c * lam))
        acc = nxt
    for key, c in acc.items():
        _accumulate(terms, key, c)


def _itself(x):
    return x


def _reduce_functional(H: Functional, mode: str) -> dict:
    """Reduce a functional to a graded polynomial over independent density
    classes (plain blocks) and structured blocks; the result is the
    zero functional iff the returned term map is empty.

    In mode 'collapse' every block is collapsed once, and the blocks of a
    product only until one of them is zero or trivial.  The single blocks of
    each parity (the plain ones only in mode 'structural') are then one
    integral, their densities scaled by their coefficients and summed, so
    the class basis expands one density per parity, and none when the sum
    is zero; the only single block of its parity is kept as it is.  In mode
    'collapse' the sum is taken before the collapse, which is linear: one
    call serves every single block of a parity, each distinct frozen block
    is expanded once for all of them, and equal frozen monomials cancel
    unexpanded.  The verdict is that of a blockwise reduction, since a
    single block's term holds exactly one class symbol and the class map is
    linear over Q(i)[hbar, hbar^-1].  A structured block, filed as it
    stands, is a scalar times the symbol of its class up to scalars
    (``_block_class``)."""
    model = H.model
    prepare = collapse if mode == "collapse" else _itself
    singles = {}
    pending = []  # (blocks, c); a product's blocks are prepared as they are read
    for blocks, c in H.terms.items():
        if len(blocks) != 1:
            pending.append((map(prepare, blocks), c))
        elif mode != "collapse" and blocks[0].has_attach():
            pending.append((blocks, c))
        else:
            singles.setdefault(blocks[0].parity(), []).append((blocks[0], c))
    for group in singles.values():
        if len(group) > 1:
            group = [(_sum_scaled(group), Coefficient.one())]
        pending += [((prepare(b),), c) for b, c in group]
    basis = _ClassBasis(model)
    parities = {}
    terms = {}
    classes = {}
    for blocks, c in pending:
        expansions = []
        for b in blocks:
            if b.has_attach():
                sym, lead = _block_class(classes, b)
                c = c * lead
                parities[sym] = b.parity()
                expansions.append([(sym, Coefficient.one())])
                continue
            raw = None if b.is_zero() else basis.expand(b)
            if not raw:
                break  # a zero or trivial density: the zero functional
            for i, _ in raw:
                parities[("p", i)] = basis.rows[i][0]
            expansions.append([(("p", i), lam) for i, lam in raw])
        else:
            if not c.is_zero():
                _graded_expand(terms, expansions, parities, seed=c)
    return terms


def _block_class(classes: dict, b: Expr):
    """``(symbol, lead)`` of a structured block ``b``: its lead is
    its coefficient at the least term key when that is a unit, else 1, and
    ``b`` shares a class with a block on the same term keys when
    ``b[k]*lead(rep) == rep[k]*lead(b)`` at every key k.  These are the
    classes of ``b/lead``, found with no copy built; a block whose least
    coefficient is no unit matches only an equal block.  ``classes`` lives
    for one reduction."""
    lead = b.lead_coefficient()
    if len(lead.terms) != 1:
        lead = Coefficient.one()
    i, reps = classes.setdefault(frozenset(b.terms), (len(classes), []))
    for j, (rep, rep_lead) in enumerate(reps):
        theirs = rep.terms
        if all(m.coeff * rep_lead == theirs[k].coeff * lead for k, m in b.terms.items()):
            return ("s", i, j), lead
    reps.append((b, lead))
    return ("s", i, len(reps) - 1), lead
