"""Jet-space calculus over a declared BV field table.

Provides the bundle declaration (BvModel), total derivatives, one walk for the
graded left partial derivatives by any set of variables at once (each monomial
visited once, each branch filed under the interned jet atom q_sigma it
differentiates by, as term maps that ``eulers`` groups by variable and
multi-index and ``partial`` reads by that atom), the Euler operators of those
variables (total derivatives expanded by Horner's scheme on term maps, one
coordinate at a time, or kept pending on a frozen block), collapse of pending
derivatives, and the naive/geometric iterated variations.  ``eulers`` is the
one Euler entry that walks and sums; the iterated variations keep their shift
fields outside it.  The walk and ``eulers`` take left partials only: the
public ``partial`` and ``euler`` sign a left image into a right one
(``_right``).  A walk is frozen or not as a whole (one ``frozen`` flag, its
only one): its variables' derivatives all stay pending or are all expanded,
and the inner of a block it enters is walked unfrozen, the derivative joining
that block's pending set.  The bracket isolates its frozen images after the
walk (``_isolate``, called by ``bv._images`` alone).

Total derivatives, collapse and the partial-derivative walk take canonical
monomials and file canonical ones.  The total derivative of a jet variable
replaces one copy of it by its shift in one pass, the shift put in its sorted
place and read from the atom's own table once it has been interned
(``_shift``); collapse multiplies each monomial's blocks' expansions into its
plain factors by the canonical product, and expands each interned block once
per call, as D^sigma of its inner's collapse (sigma the sum of its pending
multi-indices).  Blocks are anonymous (``algebra.Attach``): a frozen
variation makes new blocks and extends the pending set of those it enters
(``make_attach``, from multi-indices alone), and never reads or names a
channel.  The partials branch of a jet variable is its monomial with one copy
of that factor removed, and a wrapped branch's home plains (those of a branch
taking a pending derivative, or of an isolated monomial), already a canonical
unit monomial, become the inner of the new block as they are.  Every other
branch -- chain-rule (sin/cos/exp), a block's derivative, a new block among
the kept ones -- is a derivative times the rest of its monomial, filed by the
canonical product ``algebra._add_product``; no branch is normalised.  From
its second walk by one variable on, an expression's index lists the monomials
that walk visits: those holding the variable and those holding a block
(``Expr.var_index()``); any other walk visits every monomial.
"""

from __future__ import annotations

import itertools
import re
from typing import Sequence, Tuple

from .coeff import Coefficient
from .algebra import (
    Atom,
    Attach,
    BaseVar,
    Expr,
    JetVar,
    Trig,
    _MINUS_ONE,
    _ONE,
    _add_product,
    _add_scaled,
    _add_term,
    make_attach,
)

# ---------------------------------------------------------------------------
# multi-indices


def idx_zero(n: int) -> Tuple[int, ...]:
    return (0,) * n


def idx_unit(n: int, i: int) -> Tuple[int, ...]:
    if not 0 <= i < n:
        raise ValueError(f"coordinate index {i} out of range for base dimension {n}")
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# the model


# a field name (to match in full): a letter and letters or digits, and no word
# that the grammar reads as a scalar, function, block, antifield or coordinate
_FIELD_NAME = re.compile(r"(?!(?:i|hbar|sin|cos|exp|D|at|frz|dag|x\d+)$)[A-Za-z][A-Za-z0-9]*")


class BvModel:
    """Base dimension plus an ordered table of fields with ghost numbers.

    Every declared field q gets an antifield partner dag(q) with
    gh(dag q) = -gh(q) - 1; parities are the ghost numbers mod 2.
    """

    def __init__(self, base_dim: int, fields: Sequence[Tuple[str, int]]):
        if base_dim < 1:
            raise ValueError("base dimension must be positive")
        names = [name for name, _ in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in {names}")
        for name in names:
            if not _FIELD_NAME.fullmatch(name):
                raise ValueError(f"field name {name!r} is reserved by the grammar or not a "
                                 "letter followed by letters and digits")
        self.base_dim = int(base_dim)
        self.fields = tuple((name, int(gh)) for name, gh in fields)
        self._gh = {name: gh for name, gh in self.fields}

    def gh(self, name: str, dagger: bool = False) -> int:
        if name not in self._gh:
            raise KeyError(f"unknown field {name!r}")
        g = self._gh[name]
        return -g - 1 if dagger else g

    def parity(self, name: str, dagger: bool = False) -> int:
        return self.gh(name, dagger) & 1

    def jet_atom(self, name: str, index: Sequence[int] = (), dagger: bool = False) -> JetVar:
        idx = tuple(index) if index else idx_zero(self.base_dim)
        if len(idx) != self.base_dim:
            raise ValueError(
                f"multi-index {idx} has length {len(idx)}, base dimension is {self.base_dim}"
            )
        return JetVar(name, dagger, idx, self.gh(name, dagger))

    def jet(self, name: str, index: Sequence[int] = (), dagger: bool = False) -> Expr:
        return Expr.from_atom(self.jet_atom(name, index, dagger))

    def x(self, i: int) -> Expr:
        if not 0 <= i < self.base_dim:
            raise ValueError(f"no base coordinate x{i + 1} in dimension {self.base_dim}")
        return Expr.from_atom(BaseVar(i))

    def variables(self):
        """All (field, dagger) pairs, fields first."""
        for name, _ in self.fields:
            yield (name, False)
        for name, _ in self.fields:
            yield (name, True)

    def pairs(self):
        """Conjugate variable pairs as ((even member), (odd member)).

        The canonical coupling pairs the parity-even half against the odd
        half, so for an odd declared field (a ghost) the antifield occupies
        the even slot."""
        for name, gh in self.fields:
            if gh & 1:
                yield (name, True), (name, False)
            else:
                yield (name, False), (name, True)

    def extend(self, extra: Sequence[Tuple[str, int]]) -> "BvModel":
        return BvModel(self.base_dim, tuple(self.fields) + tuple(extra))

    def sin(self, name, index=(), dagger=False) -> Expr:
        return Expr.from_atom(Trig("sin", self.jet_atom(name, index, dagger)))

    def cos(self, name, index=(), dagger=False) -> Expr:
        return Expr.from_atom(Trig("cos", self.jet_atom(name, index, dagger)))

    def exp(self, name, index=(), dagger=False) -> Expr:
        return Expr.from_atom(Trig("exp", self.jet_atom(name, index, dagger)))

    def __repr__(self):
        return f"BvModel(dim={self.base_dim}, fields={list(self.fields)})"


# ---------------------------------------------------------------------------
# total derivative


def total_derivative(e: Expr, direction: int) -> Expr:
    """Total derivative D_i; linear, Leibniz, commutes with Attach wrappers.

    D_i is an even derivation: the derivative of a factor is spliced in place
    of one copy of it, so no Koszul sign arises there.  A jet variable's
    branch is its canonical monomial with one copy of that factor replaced
    by its shift, the shift put in its sorted place (an odd shift paying the
    sign of the odd atoms it passes); a base coordinate's branch drops one
    copy of it.  A sin/cos/exp or Attach factor's derivative d is
    multiplied into the rest of its monomial by the canonical product
    d * rest, an odd block's derivative paying the sign of the odd factors
    before it."""
    acc = {}
    _add_total_derivative(acc, e.terms, direction)
    return Expr(acc) if acc else Expr.zero()


def _add_total_derivative(acc: dict, terms: dict, direction: int, negate: bool = False) -> None:
    """Add D_i of the term map ``terms``, or -D_i when ``negate``, into ``acc``."""
    for m in terms.values():
        even, odd, coeff = m.even, m.odd, -m.coeff if negate else m.coeff
        for j, (a, k) in enumerate(even):
            t = type(a)
            if t is BaseVar and a.coord != direction:
                continue
            c = coeff * k if k > 1 else coeff
            head = even[:j] + (((a, k - 1),) if k > 1 else ())
            if t is JetVar:
                # one pass: the shift sorts after a, at p or merged there
                u = _shift(a, direction)
                key, p, n = u.key, j + 1, len(even)
                while p < n and even[p][0].key < key:
                    p += 1
                if p < n and even[p][0] is u:
                    rest = head + even[j + 1:p] + ((u, even[p][1] + 1),) + even[p + 1:]
                else:
                    rest = head + even[j + 1:p] + ((u, 1),) + even[p:]
                _add_term(acc, (rest, odd), c)
                continue
            rest = head + even[j + 1:]
            if t is BaseVar:
                _add_term(acc, (rest, odd), c)
                continue
            for dc, de, do in _atom_total_derivative(a, direction):
                _add_product(acc, c * dc, de, do, rest, odd)
        for j, a in enumerate(odd):
            if type(a) is JetVar:
                u = _shift(a, direction)
                key, p, n = u.key, j + 1, len(odd)
                while p < n and odd[p].key < key:
                    p += 1
                if p < n and odd[p] is u:
                    continue  # an odd factor squared
                rest = odd[:j] + odd[j + 1:p] + (u,) + odd[p:]
                # the shift passes the p - j - 1 odd atoms after a
                _add_term(acc, (even, rest), -coeff if (p - j - 1) & 1 else coeff)
                continue
            c = -coeff if j & 1 else coeff
            rest = odd[:j] + odd[j + 1:]
            for dc, de, do in _atom_total_derivative(a, direction):
                _add_product(acc, c * dc, de, do, even, rest)


# the chain rule of each function: d f(u) / du = coefficient times the
# function named
_CHAIN = {"sin": (_ONE, "cos"), "cos": (_MINUS_ONE, "sin"), "exp": (_ONE, "exp")}


def _shift(u: JetVar, i: int) -> JetVar:
    """u with one more derivative along x_i: interned the first time, then
    read from u's own table."""
    try:
        return u.shifts[i]
    except KeyError:
        pass
    idx = u.index
    if not 0 <= i < len(idx):
        raise ValueError(f"coordinate index {i} out of range for base dimension {len(idx)}")
    s = u.shifts[i] = JetVar._from_parts(u.field, u.dagger,
                                         idx[:i] + (idx[i] + 1,) + idx[i + 1:], u.gh)
    return s


def _atom_total_derivative(a: Atom, i: int):
    """D_i of a sin/cos/exp or Attach atom as canonical branches
    ``(coefficient, even, odd)``; none when the derivative vanishes."""
    if isinstance(a, Trig):
        dc, tag = _CHAIN[a.tag]
        # a jet variable's key (tag 0) sorts before a function's (tag 2)
        return ((dc, ((_shift(a.arg, i), 1), (Trig(tag, a.arg), 1)), ()),)
    if isinstance(a, Attach):
        d = total_derivative(a.inner, i)
        if d.is_zero():
            return ()
        return tuple((dm.coeff, dm.even, dm.odd) for dm in make_attach(a.pending, d).monomials())
    raise TypeError(f"unknown atom {a!r}")


def total_derivative_multi(e: Expr, index: Sequence[int]) -> Expr:
    out = e
    for i, k in enumerate(index):
        for _ in range(k):
            out = total_derivative(out, i)
    return out


# ---------------------------------------------------------------------------
# graded partial derivatives and the Euler operator


def _walk(e, variables, frozen):
    """Graded left partials of ``e`` by the jet variables q_sigma of every
    variable in ``variables`` = {(field, dagger): parity}, all frozen or
    none, as term maps filed by the interned jet atom q_sigma each
    differentiates by: ``{JetVar: term map}``.  Each monomial is visited
    once, for all variables together; a walk by one variable visits only
    the monomials that ``e.var_index()``, once built, lists for it or as
    holding a block.  Right partials are signed left ones (``_right``).

    In a ``frozen`` walk a branch consumed at home records the pending
    derivative sigma for |sigma| > 0 on a new block of its home plains
    (``_wrap_branch``); a branch consumed inside an Attach wrapper adds it
    to that wrapper's pending set.

    Each factor is tested once, as an Attach or by its ``var``, and nothing
    is built for one that cannot contribute.  The branch of a jet variable
    is the canonical monomial with one copy of that factor removed
    (``_without``), its sign known, and is filed as it is.  A chain-rule
    branch is f'(u) times that rest, and a dived branch dm * rest, the
    block's derivative dm paying the sign of the odd factors before the
    block; both are filed by the canonical product.
    """
    acc = {}  # JetVar -> term map of canonical branches
    dives = {}  # Attach atom -> its branches, so each block is entered once
    monomials = e.terms.values()
    # most monomials hold none of one variable's jets: an indexed walk skips
    # them unread, any other tests their factors; one monomial needs no index
    found = e.var_index() if len(variables) == 1 and len(e.terms) > 1 else None
    if found is not None:
        holding, blocks = found
        monomials = holding.get(next(iter(variables)), ())
        if blocks:
            monomials = itertools.chain(monomials, blocks)
    for m in monomials:
        even, odd = m.even, m.odd
        n = len(even)
        for i in range(n + len(odd)):
            a, k = even[i] if i < n else (odd[i - n], 1)
            if type(a) is Attach:
                # the pending derivative joins the block's own set, so the
                # branch itself records none
                hits = dives.get(a)
                if hits is None:
                    hits = dives[a] = []
                    for u, terms in _walk(a.inner, variables, False).items():
                        pending = a.pending
                        if frozen and any(u.index):
                            pending += (u.index,)
                        dived = make_attach(pending, Expr(terms))
                        if dived.terms:
                            hits.append((u, variables[u.var], dived))
                if not hits:
                    continue
                rest_even, rest_odd = _without(even, odd, i, k)
                passed = max(i - n, 0)  # the odd factors before the block
                cmult = m.coeff * k if k > 1 else m.coeff
                for u, parity, dived in hits:
                    c = -cmult if parity and passed & 1 else cmult
                    out = acc.get(u)
                    if out is None:
                        out = acc[u] = {}
                    for dm in dived.monomials():
                        dc = -dm.coeff if passed & len(dm.odd) & 1 else dm.coeff
                        _add_product(out, c * dc, dm.even, dm.odd, rest_even, rest_odd)
                continue
            parity = variables.get(a.var)
            if parity is None:
                continue
            u = a.arg if type(a) is Trig else a
            sigma = u.index
            pend = sigma if frozen and any(sigma) else None
            cmult = m.coeff * k if k > 1 else m.coeff
            # an odd variable's Koszul sign: the odd factors before it
            c = -cmult if parity and i > n and (i - n) & 1 else cmult
            out = acc.get(u)
            if out is None:
                out = acc[u] = {}
            rest_even, rest_odd = _without(even, odd, i, k)
            if u is not a:
                cc, tag = _CHAIN[a.tag]
                # a branch taking a pending derivative wraps each product monomial
                product = out if pend is None else {}
                _add_product(product, c * cc, ((Trig(tag, u), 1),), (), rest_even, rest_odd)
                if pend is not None:
                    for mm in product.values():
                        _wrap_branch(out, mm.coeff, mm.even, mm.odd, pend)
            elif pend is None:
                _add_term(out, (rest_even, rest_odd), c)
            else:
                _wrap_branch(out, c, rest_even, rest_odd, pend)
    return acc


def _without(even, odd, i, k):
    """The canonical atoms (even, odd) with one copy of factor ``i`` of
    even + odd, whose exponent is ``k``, removed."""
    n = len(even)
    if i >= n:
        return even, odd[:i - n] + odd[i - n + 1:]
    return even[:i] + (((even[i][0], k - 1),) if k > 1 else ()) + even[i + 1:], odd


def _wrap_branch(acc, coeff, even, odd, pend):
    """Add one derivative branch, given canonical, to the term map ``acc``
    with its home plains wrapped.

    The branch is ``coeff`` times the atoms ``even``/``odd`` of a canonical
    monomial, and ``pend`` is a multi-index sigma, or None from
    ``_isolate``, which passes only a branch with a home plain.  Home plains
    (everything that is not an Attach atom) are gathered into a new Attach
    carrying ``pend``.  The kept blocks end each side (``_blocks_start``),
    so the home plains before them are already a canonical unit monomial:
    the block is found by them directly.  The kept odd blocks are
    moved in front of the home odd plains, at a Koszul sign, and multiplied
    by the new block in one canonical product, which squares it, or drops
    the branch when it is odd, if a kept block is the same block.
    """
    i, j = _blocks_start(even, odd)
    if not i and not j:
        return  # a pending derivative of a constant block is 0
    block = Attach._of((pend,) if pend is not None else (), even[:i], odd[:j])
    block_even, block_odd = ((), (block,)) if block.parity else (((block, 1),), ())
    flips = j * (len(odd) - j)
    _add_product(acc, -coeff if flips & 1 else coeff, even[i:], odd[j:], block_even, block_odd)


def _isolate(e: Expr) -> Expr:
    """The frozen image ``e`` with each monomial's home plains gathered into
    a bare block (``_wrap_branch`` with no pending derivative), so that in a
    bracket each operand's factors live at their own copy of the base.
    Wrapping is linear, so isolating a walk's sum equals isolating each of
    its branches.  A monomial of blocks alone wraps nothing: it is filed as
    it is (monomials are immutable), or merged when its key is filed."""
    acc = {}
    for k, m in e.terms.items():
        even, odd = m.even, m.odd
        # Attach keys sort last, so a plain factor leads a side if any does
        if (even and type(even[0][0]) is not Attach) or (odd and type(odd[0]) is not Attach):
            _wrap_branch(acc, m.coeff, even, odd, None)
        elif k in acc:
            _add_term(acc, k, m.coeff)
        else:
            acc[k] = m
    return Expr(acc) if acc else Expr.zero()


def _blocks_start(even, odd):
    """Where the blocks of the canonical atoms ``even``/``odd`` start, as
    (even position, odd position): Attach keys sort last, so the blocks end
    each side."""
    i, j = len(even), len(odd)
    while i and type(even[i - 1][0]) is Attach:
        i -= 1
    while j and type(odd[j - 1]) is Attach:
        j -= 1
    return i, j


def partial(e: Expr, v: JetVar, side: str = "left") -> Expr:
    """Graded partial derivative by ``v`` on the given side; on a
    parity-homogeneous monomial m, right = (-1)^(gh(v) * (gh(m) - 1)) * left."""
    _check_side(side)
    if not _holds(e, v):  # the walk would take every multi-index of v's field
        return Expr.zero()
    terms = _walk(e, {v.var: v.parity}, False).get(v)
    d = Expr(terms) if terms else Expr.zero()
    return _right(d, v.parity) if side == "right" else d


def _holds(e: Expr, v: JetVar) -> bool:
    """Whether ``v`` occurs in ``e``: as a factor, an argument or in a block."""
    return any(a is v or (type(a) is Trig and a.arg is v)
               or (type(a) is Attach and _holds(a.inner, v)) for a in e.atoms())


def euler(
    model: BvModel,
    e: Expr,
    field: str,
    dagger: bool = False,
    side: str = "left",
    frozen: bool = False,
) -> Expr:
    """Euler operator sum_sigma (-D)^sigma d/dq_sigma (Olver, Applications of
    Lie Groups to Differential Equations, 4.1), on the given side.

    Unless ``frozen`` the total derivatives are applied at once (naive or
    collapsed mode), by Horner's scheme one coordinate i at a time: the
    partials Q_k by q_sigma with sigma_i = k are summed as
    Q_0 - D_i(Q_1 - D_i(Q_2 - ...)), so D_i is applied once per order of x_i
    rather than once per multi-index and order.  ``frozen`` keeps the
    derivatives pending on blocks (geometric mode).
    """
    _check_side(side)
    v = (field, dagger)
    image = eulers(model, e, [v], frozen)[v]
    return _right(image, model.parity(*v)) if side == "right" else image


def eulers(model: BvModel, e: Expr, variables, frozen: bool = False) -> dict:
    """The left Euler operators of ``e`` by every (field, dagger) of
    ``variables``, as {(field, dagger): Expr} in the order of ``variables``;
    each is ``euler`` with ``frozen``, and one partial-derivative walk
    serves them all, its term maps grouped by variable and multi-index."""
    variables = {v: model.parity(*v) for v in variables}
    by_var = {}
    for u, terms in _walk(e, variables, frozen).items():
        by_var.setdefault(u.var, {})[u.index] = terms
    images = {}
    for v in variables:
        by_index = by_var.get(v, {})
        if not frozen:
            acc = _horner(by_index, model.base_dim)
        else:
            acc = {}
            for sigma, terms in by_index.items():
                _add_scaled(acc, terms, _MINUS_ONE if sum(sigma) & 1 else _ONE)
        images[v] = Expr(acc) if acc else Expr.zero()
    return images


def _check_side(side: str):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _right(e: Expr, parity: int) -> Expr:
    """The right image from the left image ``e`` by a variable of ``parity``:
    (-1)^(p_v (p_m - 1)) times it on each monomial m, and an image of m has
    parity p_m + p_v, so by an odd v its odd monomials change sign."""
    if not parity:
        return e
    acc = {}
    for k, m in e.terms.items():
        _add_term(acc, k, -m.coeff if len(m.odd) & 1 else m.coeff)
    return Expr(acc) if acc else Expr.zero()


def _horner(terms: dict, n: int) -> dict:
    """sum_sigma (-D)^sigma terms[sigma] over multi-indices of length ``n``,
    a term map from the walk's term maps: Horner's scheme eliminates one
    coordinate at a time, each step filing -D_i of the last straight into
    the next order's term map, which the walk made for this call alone."""
    for i in range(n):
        groups = {}
        for sigma, term in terms.items():
            rest = sigma[:i] + (0,) + sigma[i + 1:]
            groups.setdefault(rest, {})[sigma[i]] = term
        terms = {}
        for rest, by_order in groups.items():
            top = max(by_order)
            acc = by_order[top]
            for k in range(top - 1, -1, -1):
                step = by_order.get(k, {})
                _add_total_derivative(step, acc, i, negate=True)
                acc = step
            terms[rest] = acc
    return terms.get(idx_zero(n), {})


def euler_left(model: BvModel, e: Expr, field: str, dagger: bool = False) -> Expr:
    """Variational derivative sum_sigma (-D)^sigma (d->/dq_sigma), with the
    pending derivatives expanded immediately (naive / collapsed mode): the
    default ``euler``.  It stays beside ``euler`` because the benchmark's
    ``ym-su2-n4`` workload calls it (``perfbench/workloads.py``)."""
    return euler(model, e, field, dagger)


# ---------------------------------------------------------------------------
# collapse


def collapse(e: Expr) -> Expr:
    """Expand every pending channel derivative into genuine total derivatives,
    innermost first; the result carries no Attach atoms.

    Collapse identifies the channels, so a block collapses to D^sigma of its
    inner's collapse, sigma the sum of its pending multi-indices.  Each
    monomial is its plain atoms times its blocks' expansions, multiplied in
    by the canonical product in the monomial's own order (``_add_collapsed``),
    and each interned block is expanded once per call (``_expand_block``)."""
    if not e.has_attach():
        return e
    expansions = {}  # Attach atom -> its expansion, for this call only
    acc = {}
    for m in e.terms.values():
        _add_collapsed(acc, m.coeff, m.even, m.odd, expansions)
    return Expr(acc) if acc else Expr.zero()


def _add_collapsed(acc: dict, coeff: Coefficient, even, odd, expansions: dict) -> None:
    """Add ``coeff`` times the collapse of the canonical atoms ``even``/``odd``
    into the term map ``acc``: the plain atoms times the expansion of each
    block, one at a time, by the canonical product, the even blocks repeated
    by their exponents and then the odd blocks in order.  Even blocks
    commute with everything and each odd block follows every plain odd atom
    and the odd blocks before it, as in the monomial, so no sign arises."""
    i, j = _blocks_start(even, odd)
    blocks = [a for a, k in even[i:] for _ in range(k)] + list(odd[j:])
    if not blocks:
        _add_term(acc, (even, odd), coeff)
        return
    terms = [(coeff, even[:i], odd[:j])]
    last = len(blocks) - 1
    for n, a in enumerate(blocks):
        branches = expansions.get(a)
        if branches is None:
            branches = expansions[a] = _expand_block(a, expansions)
        out = acc if n == last else {}
        for tc, te, to in terms:
            for dc, de, do in branches:
                _add_product(out, tc * dc, te, to, de, do)
        if n < last:
            terms = [(mm.coeff, mm.even, mm.odd) for mm in out.values()]


def _expand_block(a: Attach, expansions: dict) -> tuple:
    """The expansion of the block ``a``, D^sigma of the collapse of its unit
    inner monomial for sigma its summed pending multi-index, as canonical
    branches ``(coefficient, even, odd)``."""
    acc = {}
    ((even, odd),) = a.inner.terms
    _add_collapsed(acc, _ONE, even, odd, expansions)
    h = Expr(acc)
    if a.pending:
        h = total_derivative_multi(h, tuple(map(sum, zip(*a.pending))))
    return tuple([(m.coeff, m.even, m.odd) for m in h.terms.values()])


# ---------------------------------------------------------------------------
# iterated variations


GEOMETRIC = "geometric"
NAIVE = "naive"


def _check_mode(mode: str):
    if mode not in (GEOMETRIC, NAIVE):
        raise ValueError(f"unknown mode {mode!r}")


def iterated_variation(
    model: BvModel,
    f: Expr,
    shifts: Sequence[Tuple[str, bool]],
    mode: str,
    include_shifts: bool = True,
):
    """Iterated variation of a density along the given (field, dagger) shift
    directions, first entry applied first.

    Naive mode composes fully expanded Euler operators step by step; geometric
    mode keeps each step's derivatives pending on frozen blocks.  With
    ``include_shifts`` step k multiplies in a formal shift field sh<k>
    carrying the parity of its target; the shift fields live in the returned
    extended model.  Naive mode multiplies sh<k> in after step k, so later
    total derivatives act on it.  Geometric mode holds the shift fields aside
    and multiplies them in at the end: no pending derivative reaches them, so
    step k passes those held at the Koszul sign (-1)^(p(sh<k>) p(held)).
    """
    if not shifts:
        raise ValueError("shifts must be non-empty")
    _check_mode(mode)
    aux = [(f"sh{k}", model.gh(field, dagger))
           for k, (field, dagger) in enumerate(shifts, start=1)]
    ext = model.extend(aux) if include_shifts else model
    e, held = f, Expr.scalar(1)
    for k, (field, dagger) in enumerate(shifts, start=1):
        e = euler(ext, e, field, dagger, frozen=mode == GEOMETRIC)
        if not include_shifts:
            continue
        sh = ext.jet(f"sh{k}")
        if mode == NAIVE:
            e = sh * e
        else:
            if sh.parity() and held.parity():
                e = -e
            held = sh * held
    return held * e, ext
