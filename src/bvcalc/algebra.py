"""Canonical graded expressions in jet variables.

An Expr is a finite sum of monomials.  Each monomial is an exact coefficient
times a product of atoms:

  * JetVar    -- a jet coordinate q or its antifield dag(q), with a derivative
                 multi-index; parity is the ghost number mod 2,
  * BaseVar   -- a base coordinate x_i,
  * Trig      -- sin/cos/exp of a single parity-even jet variable,
  * Attach    -- a factor attached at its own copy of the base, carrying a
                 (possibly empty) multiset of pending total derivatives.
                 Pending derivatives expand only at collapse.

Normal form: even atoms are a sorted multiset with integer exponents, odd
atoms a sorted sequence (each at most once, with the sorting sign absorbed
into the coefficient), sin(u)^2 is rewritten to 1 - cos(u)^2, monomials with
equal atom content are merged, and zero coefficients are dropped.  The zero
expression is the empty sum.  All operations return canonical expressions;
Expr values are immutable.

Atoms are interned for the life of the import: equal atoms are one object,
so they hash and compare by identity, and only their ``key`` (a nested
tuple) orders them.  An Attach block is anonymous: it is found by its sorted
pending multi-indices and the atoms of its inner monomial alone, so two
blocks built apart from equal parts are one atom, and a product of two equal
odd blocks is zero and of two equal even blocks a square, as for any atom.
Blocks are built from multi-indices alone (``make_attach``); a channel label
exists only in the text that ``grammar`` reads and writes.  A term map
``Expr.terms`` is keyed by each monomial's own ``(even, odd)`` tuples of
atoms, which hash in one shallow pass and sort as the nested keys do; Expr
equality and hashing read these term maps too, and so do the triviality
images of the class basis.  Values derived from an interned atom or an
immutable expression are kept on it once found: a JetVar's shifts
(``JetVar.shifts``), an Attach block's nested key, built on first read, and
its partial-derivative branches, found when a walk first enters it
(``Attach.branches``), an expression's key, hash and parity, and its Euler
images by every variable of a model, per model and mode, once a bracket or
an expanded ``euler`` has taken them (``jetcalc.images``).

Canonical in, canonical out: a product of two canonical monomials is a
merge of their sorted atoms (``_add_product``), sin(u) on both sides
included, and every product of the engine is one: in ``Expr.__mul__``, in
``jetcalc.collapse`` and in the branches of total, partial and Euler
derivatives.  This module alone writes term maps: ``_add_term`` files one
coefficient under its canonical atoms, ``_add_scaled`` adds a multiple of
another term map, and ``_sum_scaled`` is the one writer of a linear
combination of expressions (``+``, ``-`` and ``scale`` are each one call to
it); no other module builds a Monomial.  The reference
normaliser, which sorts an arbitrary factor list and which the tests compare
the merges against, lives with the tests (``tests/util_random.py``).
"""

from __future__ import annotations

from typing import Tuple

from .coeff import Coefficient

# ---------------------------------------------------------------------------
# atoms


# Every atom built, by what makes it that atom: equal atoms are built once and
# shared (hash-consing, Filliâtre & Conchon, "Type-safe modular
# hash-consing", 2006), so atoms hash and compare by identity, in C.  An
# entry lasts as long as this import: each block and its key are built once
# per process, and later verdicts find them.
_INTERNED = {}


class Atom:
    """An interned factor.  ``key`` is a nested tuple that orders atoms and
    leaves the program in ``Expr.key()``; two atoms with equal keys are
    the same object (given one ghost number per field name).  ``var`` is the
    variable (field, dagger) that a JetVar is a jet of, or that a Trig takes
    its argument from, set once when the atom is interned; it is None for a
    BaseVar and an Attach, so a derivative walk tests a factor with one
    attribute read."""

    __slots__ = ("key", "parity", "var")

    def __lt__(self, other):
        return self.key < other.key


class JetVar(Atom):
    """A jet coordinate.  ``shifts`` maps a coordinate i to the JetVar with
    one more derivative along x_i; ``jetcalc._shift`` fills it the first time
    it takes that shift, so a total derivative interns each shift once and
    then reads it from the atom."""

    __slots__ = ("field", "dagger", "index", "gh", "shifts")

    def __new__(cls, field: str, dagger: bool, index: Tuple[int, ...], gh: int):
        index = tuple(int(k) for k in index)
        if any(k < 0 for k in index):
            raise ValueError(f"negative entry in the multi-index {index}")
        return cls._from_parts(field, bool(dagger), index, int(gh))

    @classmethod
    def _from_parts(cls, field: str, dagger: bool, index: Tuple[int, ...], gh: int):
        """The JetVar of parts that are already a bool, a tuple of ints and an
        int, as those of another JetVar are; skips the conversion pass.  The
        ghost number is part of its identity, not of its key."""
        ident = (0, field, dagger, index, gh)
        u = _INTERNED.get(ident)
        if u is None:
            u = _INTERNED[ident] = object.__new__(cls)
            u.field = field
            u.dagger = dagger
            u.index = index
            u.gh = gh
            u.parity = gh & 1
            u.var = (field, dagger)
            u.key = (0, field, dagger, index)
            u.shifts = {}
        return u

    def __repr__(self):
        d = "dag " if self.dagger else ""
        return f"JetVar({d}{self.field}{list(self.index)})"


class BaseVar(Atom):
    __slots__ = ("coord",)

    def __new__(cls, coord: int):
        key = (1, int(coord))
        a = _INTERNED.get(key)
        if a is None:
            a = _INTERNED[key] = object.__new__(cls)
            a.coord = key[1]
            a.parity = 0
            a.var = None
            a.key = key
        return a

    def __repr__(self):
        return f"BaseVar(x{self.coord + 1})"


TRIG_TAGS = ("sin", "cos", "exp")


class Trig(Atom):
    __slots__ = ("tag", "arg")

    def __new__(cls, tag: str, arg: JetVar):
        if tag not in TRIG_TAGS:
            raise ValueError(f"unsupported function tag {tag!r}")
        if not isinstance(arg, JetVar) or arg.parity != 0:
            raise ValueError(
                f"{tag} argument must be a single parity-even jet variable, got {arg!r}"
            )
        ident = (2, tag, arg)
        a = _INTERNED.get(ident)
        if a is None:
            a = _INTERNED[ident] = object.__new__(cls)
            a.tag = tag
            a.arg = arg
            a.parity = 0
            a.var = arg.var
            a.key = (2, tag, arg.key)
        return a

    def __repr__(self):
        return f"Trig({self.tag}, {self.arg!r})"


class Attach(Atom):
    """A factor living at its own attachment point on the base.

    ``pending`` is the sorted tuple of the multi-indices of its pending total
    derivatives, each waiting to be expanded at collapse; an empty tuple
    marks a bare attachment boundary.  ``inner`` is a canonical
    single-monomial expression with unit coefficient.  A block is found by
    its pending multi-indices and the atoms of that monomial (``_of``), so
    an existing block costs one lookup and no inner is built for it; its
    ``key``, (3, pending, inner key), is found the first time it is read and
    then stored on the atom, so a block that is never ordered (as no block
    of the su(2) Yang-Mills ``[[S, S]]`` is) never pays for it.
    ``branches`` is None until a partial-derivative walk first enters the
    block; then it holds, per walk flag (unfrozen, frozen), the block's
    partials by every jet variable of its inner (``jetcalc._branches``,
    its one writer), so each block is entered once per flag and process,
    and a block that no walk enters holds nothing.  The
    constructor is ``make_attach`` of one block: a lone block's pending
    derivatives join it, and an inner that gives anything but one block of
    coefficient 1 (a constant, a sum) is a ValueError.  ``_of`` checks
    nothing.
    """

    __slots__ = ("pending", "inner", "branches")

    def __new__(cls, pending, inner: "Expr"):
        terms = make_attach([tuple(int(k) for k in idx) for idx in pending], inner).terms
        if (len(terms) != 1 or ((), ()) in terms
                or next(iter(terms.values())).coeff != _ONE):
            raise ValueError(f"an Attach inner is one monomial of coefficient 1, not {inner!r}")
        ((even, odd),) = terms
        return odd[0] if odd else even[0][0]

    @classmethod
    def _of(cls, pending, even, odd):
        """The block of the sorted multi-indices ``pending`` and the canonical
        atoms ``even``/``odd`` of its unit inner monomial."""
        ident = (3, pending, even, odd)
        a = _INTERNED.get(ident)
        if a is None:
            a = _INTERNED[ident] = object.__new__(cls)
            a.pending = pending
            a.inner = Expr({(even, odd): Monomial(_ONE, even, odd)})
            a.parity = len(odd) & 1
            a.var = None
            a.branches = None
        return a

    def __getattr__(self, name):
        # called only when normal lookup fails: for ``key`` while its slot
        # is still unset
        if name != "key":
            raise AttributeError(name)
        key = self.key = (3, self.pending, self.inner.key())
        return key

    def __repr__(self):
        return f"Attach({self.pending!r}, {self.inner!r})"


# ---------------------------------------------------------------------------
# monomials and expressions


class Monomial:
    __slots__ = ("coeff", "even", "odd")

    def __init__(self, coeff: Coefficient, even, odd):
        self.coeff = coeff
        self.even = even  # tuple of (Atom, exponent), sorted by atom key
        self.odd = odd    # tuple of Atom, sorted by key, pairwise distinct

    def atom_key(self):
        """The nested keys of the term key (even, odd); only for values that
        leave the program."""
        return (
            tuple((a.key, e) for a, e in self.even),
            tuple(a.key for a in self.odd),
        )

    def factors(self):
        """All factors in canonical order as (atom, exponent) pairs."""
        if not self.odd:
            return self.even
        return self.even + tuple([(a, 1) for a in self.odd])

    def parity(self) -> int:
        return len(self.odd) & 1

    def __repr__(self):
        return f"Monomial({self.coeff!r}, {self.even!r}, {self.odd!r})"


class ParityError(ValueError):
    pass


class GhostNumberError(ValueError):
    pass


class Expr:
    __slots__ = ("terms", "_key", "_hash", "_parity", "_images")

    def __init__(self, terms):
        # terms: dict (even, odd) -> Monomial, keyed by the monomial's own
        # tuples of interned atoms; canonical by construction
        self.terms = terms
        self._key = None
        self._hash = None
        self._parity = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _EXPR_ZERO

    @staticmethod
    def scalar(value) -> "Expr":
        c = Coefficient.of(value)
        if c.is_zero():
            return _EXPR_ZERO
        return Expr({((), ()): Monomial(c, (), ())})

    @staticmethod
    def from_atom(atom: Atom) -> "Expr":
        even, odd = ((), (atom,)) if atom.parity else (((atom, 1),), ())
        return Expr({(even, odd): Monomial(_ONE, even, odd)})

    # -- canonical key ----------------------------------------------------

    def key(self):
        """The nested canonical key: orders expressions, and is the form in
        which an expression leaves the program."""
        if self._key is None:
            self._key = tuple(
                sorted((m.atom_key(), m.coeff.key()) for m in self.terms.values())
            )
        return self._key

    def __hash__(self):
        # by the term keys alone, which hash by atom identity: equal
        # expressions have equal term keys, and the nested key is not built
        if self._hash is None:
            self._hash = hash(frozenset(self.terms))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        if self is other:
            return True
        if len(self.terms) != len(other.terms):
            return False
        theirs = other.terms
        for k, m in self.terms.items():
            o = theirs.get(k)
            if o is None or o.coeff != m.coeff:
                return False
        return True

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        return _sum_scaled(((self, _ONE), (_coerce(other), _ONE)))

    __radd__ = __add__

    def __neg__(self):
        return _sum_scaled(((self, _MINUS_ONE),))

    def __sub__(self, other):
        return _sum_scaled(((self, _ONE), (_coerce(other), _MINUS_ONE)))

    def __rsub__(self, other):
        return _sum_scaled(((_coerce(other), _ONE), (self, _MINUS_ONE)))

    def __mul__(self, other):
        acc = {}
        _add_products(acc, _ONE, self, _coerce(other))
        return Expr(acc) if acc else _EXPR_ZERO

    def __rmul__(self, other):
        return _coerce(other) * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of expressions are not defined")
        out = Expr.scalar(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, value) -> "Expr":
        return _sum_scaled(((self, value),))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self):
        return self.terms.values()

    def parity(self) -> int:
        """Ghost parity; raises ParityError on a heterogeneous expression."""
        if self._parity is None:
            p = None
            witness = None
            for m in self.terms.values():
                mp = m.parity()
                if p is None:
                    p, witness = mp, m
                elif mp != p:
                    raise ParityError(f"parity-heterogeneous expression: "
                                      f"{_written(witness)} vs {_written(m)}")
            self._parity = 0 if p is None else p
        return self._parity

    def is_homogeneous(self) -> bool:
        try:
            self.parity()
            return True
        except ParityError:
            return False

    def ghost_number(self) -> int:
        """Ghost number; raises GhostNumberError when not homogeneous."""
        gh = None
        witness = None
        for m in self.terms.values():
            g = _monomial_gh(m)
            if gh is None:
                gh, witness = g, m
            elif g != gh:
                raise GhostNumberError(
                    f"ghost-number-heterogeneous expression: {_written(witness)} "
                    f"(gh {gh}) vs {_written(m)} (gh {g})"
                )
        return 0 if gh is None else gh

    def atoms(self):
        for m in self.terms.values():
            for a, _ in m.even:
                yield a
            for a in m.odd:
                yield a

    def has_attach(self) -> bool:
        # Attach keys (tag 3) sort last: only the last atom of each side can be one
        for m in self.terms.values():
            if (m.even and type(m.even[-1][0]) is Attach) or (
                    m.odd and type(m.odd[-1]) is Attach):
                return True
        return False

    def lead_coefficient(self) -> Coefficient:
        """Coefficient of the canonically least monomial (zero for 0)."""
        if not self.terms:
            return Coefficient.zero()
        k = min(self.terms)
        return self.terms[k].coeff

    def __repr__(self):
        from .grammar import format_expr
        return format_expr(self)


_EXPR_ZERO = Expr({})
_ONE = Coefficient.one()
_MINUS_ONE = -_ONE


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Expr.scalar(x)


def _written(m: Monomial) -> str:
    """The monomial ``m`` as the grammar writes it, for an error message."""
    return repr(Expr({(m.even, m.odd): m}))


def _monomial_gh(m: Monomial) -> int:
    g = 0
    for a, e in m.even:
        g += _atom_gh(a) * e
    for a in m.odd:
        g += _atom_gh(a)
    return g


def _atom_gh(a: Atom) -> int:
    if isinstance(a, JetVar):
        return a.gh
    if isinstance(a, BaseVar):
        return 0
    if isinstance(a, Trig):
        if a.arg.gh != 0:
            raise GhostNumberError(
                f"{a.tag}({a.arg!r}) mixes ghost numbers; argument must have gh 0"
            )
        return 0
    if isinstance(a, Attach):
        return a.inner.ghost_number()
    raise TypeError(f"unknown atom {a!r}")


# ---------------------------------------------------------------------------
# term maps


def _add_term(acc: dict, key, coeff: Coefficient) -> None:
    """Add ``coeff`` times the canonical atoms ``key`` = (even, odd) into the
    term map ``acc`` in place: equal keys add, and a zero sum is dropped."""
    prev = acc.get(key)
    if prev is None:
        acc[key] = Monomial(coeff, key[0], key[1])
    else:
        c = prev.coeff + coeff
        if c.is_zero():
            del acc[key]
        else:
            acc[key] = Monomial(c, key[0], key[1])


def _add_scaled(acc: dict, terms: dict, c: Coefficient) -> None:
    """Add ``c`` times the term map ``terms`` into the term map ``acc`` in
    place.  By c = 1 a monomial new to ``acc`` is filed as it is: monomials
    are immutable, so term maps may share them; by any other c each
    coefficient is multiplied, which for a shared integer c, -1 included,
    is one integer product."""
    if c is _ONE:
        for k, m in terms.items():
            if k in acc:
                _add_term(acc, k, m.coeff)
            else:
                acc[k] = m
        return
    for k, m in terms.items():
        _add_term(acc, k, c * m.coeff)


def _add_product(acc: dict, coeff: Coefficient, e1, o1, e2, o2) -> None:
    """Add ``coeff`` times the product of the canonical monomials (e1, o1)
    and (e2, o2), in that order, into the term map ``acc``.

    The odd atoms are merged by key, each atom of the second monomial
    costing the sign of passing the atoms of the first still unmerged; a
    repeated odd atom gives zero.  The even atoms are merged by key, and an
    atom on both sides adds its exponents, except sin(u), whose square is
    rewritten to 1 - cos(u)^2."""
    flips = 0
    if not o1:
        odd = o2
    elif not o2:
        odd = o1
    else:
        merged = []
        i = j = 0
        n1, n2 = len(o1), len(o2)
        a, b = o1[0], o2[0]
        while True:
            if a is b:
                return  # an odd factor squared
            if b.key < a.key:
                merged.append(b)
                flips += n1 - i
                j += 1
                if j == n2:
                    break
                b = o2[j]
            else:
                merged.append(a)
                i += 1
                if i == n1:
                    break
                a = o1[i]
        odd = tuple(merged) + o1[i:] + o2[j:]
    if not e1:
        even = e2
    elif not e2:
        even = e1
    else:
        merged = []
        i = j = 0
        n1, n2 = len(e1), len(e2)
        p, q = e1[0], e2[0]
        while True:
            a, b = p[0], q[0]
            if a is b:
                if type(a) is Trig and a.tag == "sin":
                    # a canonical monomial holds sin(u) at most once, so this
                    # is sin(u)^2 = 1 - cos(u)^2 times the product of the rests
                    rests = {}
                    _add_product(rests, coeff, e1[:i] + e1[i + 1:], o1,
                                 e2[:j] + e2[j + 1:], o2)
                    cos2 = ((Trig("cos", a.arg), 2),)
                    for k, m in rests.items():
                        _add_term(acc, k, m.coeff)
                        _add_product(acc, -m.coeff, m.even, m.odd, cos2, ())
                    return
                merged.append((a, p[1] + q[1]))
                i += 1
                j += 1
                if i == n1 or j == n2:
                    break
                p, q = e1[i], e2[j]
            elif b.key < a.key:
                merged.append(q)
                j += 1
                if j == n2:
                    break
                q = e2[j]
            else:
                merged.append(p)
                i += 1
                if i == n1:
                    break
                p = e1[i]
        even = tuple(merged) + e1[i:] + e2[j:]
    _add_term(acc, (even, odd), -coeff if flips & 1 else coeff)


def _add_products(acc: dict, scale: Coefficient, left: Expr, right: Expr) -> None:
    """Add ``scale`` times the product left * right into the term map ``acc``
    in place, one canonical product per pair of monomials."""
    rights = right.terms.values()
    for m1 in left.terms.values():
        c1 = scale * m1.coeff
        for m2 in rights:
            _add_product(acc, c1 * m2.coeff, m1.even, m1.odd, m2.even, m2.odd)


def _sum_scaled(pairs) -> Expr:
    """The sum of c*e over the (Expr, coefficient) pairs, built in one term
    map: a sum built with + copies itself once per piece."""
    acc = {}
    for e, c in pairs:
        c = Coefficient.of(c)
        if not c.is_zero():
            _add_scaled(acc, e.terms, c)
    return Expr(acc) if acc else _EXPR_ZERO


# ---------------------------------------------------------------------------
# attachment blocks


def make_attach(pending, inner: Expr) -> Expr:
    """Attach ``inner`` at its own base point with the pending total
    derivatives of the multi-indices ``pending``, in any order.  Linear in
    ``inner``; a pending derivative of a block with no atoms is zero, a bare
    attachment of a constant is that constant, and a bare attachment of a
    lone Attach atom is the atom itself.  Each monomial's atoms go to
    ``Attach._of`` as they are.  A pending multi-index with a negative
    entry, or with no nonzero entry, is a ValueError."""
    pending = tuple(sorted(map(tuple, pending)))
    _check_pending(pending)
    acc = {}
    for k, m in inner.terms.items():
        content = m.factors()
        if not content:  # a constant is kept bare, and its derivatives are 0
            if not pending:
                _add_term(acc, k, m.coeff)
            continue
        a = content[0][0]
        if len(content) > 1 or type(a) is not Attach or content[0][1] > 1:
            a = Attach._of(pending, *k)
        elif pending:
            # the pending derivatives join the lone block's own set
            (k,) = a.inner.terms
            a = Attach._of(tuple(sorted(a.pending + pending)), *k)
        even, odd = ((), (a,)) if a.parity else (((a, 1),), ())
        _add_term(acc, (even, odd), m.coeff)
    return Expr(acc) if acc else _EXPR_ZERO


def _check_pending(pending) -> None:
    """Raise ValueError unless each multi-index of ``pending`` is a
    derivative, with no negative entry and some nonzero one."""
    for idx in pending:
        if not any(idx) or min(idx) < 0:
            raise ValueError(f"pending multi-index {idx} is not a derivative")
