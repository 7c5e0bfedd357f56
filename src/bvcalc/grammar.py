"""Textual grammar for expressions and model files.

The printer emits canonical forms; ``parse_expr(print(e)) == e`` for every
canonical expression.  Grammar sketch:

    expr    := term (('+'|'-') term)*
    term    := '-'* factor ('*' factor)*
    factor  := atom ('^' int)?
    atom    := rational | 'i' | 'hbar' | ident suffix?
             | 'dag' '(' ident ')' suffix?
             | ('sin'|'cos'|'exp') '(' factor-jetvar ')'
             | 'D' '[' int ']' '(' expr ')'
             | 'at' '(' expr ')'
             | 'frz' '[' label ':' coords (';' label ':' coords)* ']' '(' expr ')'
             | '(' expr ')'
    suffix  := '_' ('{' coord+ '}' | x-run) | "'"+

Coordinates are x1..xn; for a one-dimensional base the printer uses the
compact run form q_x, q_xx, ...

A channel label in ``frz[l:...]`` is only a name: every block is its own
channel, so the parser keeps the multi-indices and drops the labels, and a
label named twice within one monomial (two factors of a product, or a block
and a block inside it) is a ParseError at its second naming.  The printer
names the channels of each monomial 0, 1, 2, ... in print order.
"""

from __future__ import annotations

import heapq
import itertools
import re
from fractions import Fraction
from typing import List, Tuple

from .coeff import Coefficient
from .algebra import Atom, Attach, BaseVar, Expr, JetVar, Trig, make_attach
from .jetcalc import _FIELD_NAME, BvModel, total_derivative


class ParseError(ValueError):
    def __init__(self, message: str, pos: int = -1, line: int = -1):
        loc = ""
        if line >= 0:
            loc = f" (line {line})"
        elif pos >= 0:
            loc = f" (column {pos + 1})"
        super().__init__(message + loc)
        self.pos = pos
        self.line = line


# ---------------------------------------------------------------------------
# printer


def _gauss_str(re_part: Fraction, im_part: Fraction) -> str:
    if im_part == 0:
        return str(re_part)
    if re_part == 0:
        if im_part == 1:
            return "i"
        if im_part == -1:
            return "-i"
        return f"{im_part}*i"
    sign = "+" if im_part > 0 else "-"
    mag = abs(im_part)
    istr = "i" if mag == 1 else f"{mag}*i"
    return f"({re_part} {sign} {istr})"


def format_coefficient(c: Coefficient) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for d in sorted(c.terms):
        re_part, im_part = c.terms[d]
        g = _gauss_str(re_part, im_part)
        if d == 0:
            parts.append(g)
            continue
        h = "hbar" if d == 1 else f"hbar^{d}"
        if g == "1":
            parts.append(h)
        elif g == "-1":
            parts.append(f"-{h}")
        else:
            parts.append(f"{g}*{h}")
    return _join_signed(parts)


def _join_signed(parts: List[str]) -> str:
    """Join terms with ' + ', writing a leading minus as ' - '."""
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def _coeff_prefix(c: Coefficient) -> str:
    """Coefficient rendered as a leading factor ('' for 1, '-' for -1)."""
    if c == Coefficient.one():
        return ""
    if c == -Coefficient.one():
        return "-"
    s = format_coefficient(c)
    if len(c.terms) > 1 or " " in s:
        return f"({s})*"
    return f"{s}*"


def _index_tokens(index: Tuple[int, ...]) -> List[str]:
    toks = []
    for i, k in enumerate(index):
        toks.extend([f"x{i + 1}"] * k)
    return toks


def _jet_str(a: JetVar) -> str:
    base = f"dag({a.field})" if a.dagger else a.field
    order = sum(a.index)
    if order == 0:
        return base
    if len(a.index) == 1:
        return base + "_" + "x" * order
    return base + "_{" + " ".join(_index_tokens(a.index)) + "}"


def format_atom(a: Atom, labels=None) -> str:
    """The text of one atom.  ``labels`` yields the channel labels of the
    monomial the atom is printed in, from the first not yet named
    (``itertools.count()`` when None): a block names its own channels, then
    those of the blocks inside it."""
    if isinstance(a, JetVar):
        return _jet_str(a)
    if isinstance(a, BaseVar):
        return f"x{a.coord + 1}"
    if isinstance(a, Trig):
        return f"{a.tag}({_jet_str(a.arg)})"
    if isinstance(a, Attach):
        if labels is None:
            labels = itertools.count()
        specs = "; ".join(f"{next(labels)}:{' '.join(_index_tokens(idx))}" for idx in a.pending)
        inner = _monomial_text(next(iter(a.inner.monomials())), labels)
        return f"frz[{specs}]({inner})" if specs else f"at({inner})"
    raise TypeError(f"unknown atom {a!r}")


def _monomial_text(m, labels) -> str:
    """The text of one monomial, its coefficient leading; its blocks name
    their channels by the labels that ``labels`` yields."""
    factors = []
    for a, k in m.factors():
        s = format_atom(a, labels)
        factors.append(s if k == 1 else f"{s}^{k}")
    if factors:
        return _coeff_prefix(m.coeff) + "*".join(factors)
    s = format_coefficient(m.coeff)
    return f"({s})" if " " in s else s


def format_expr(e: Expr) -> str:
    return "".join(expr_text(e))


def expr_text(e: Expr):
    """The text of ``format_expr(e)`` in pieces, in order, made as they are
    read: one per monomial with its joining sign, the monomials taken in key
    order from a heap, so a reader that stops early orders only what it
    read."""
    if e.is_zero():
        yield "0"
        return
    keys = list(e.terms)
    heapq.heapify(keys)
    first = True
    while keys:
        body = _monomial_text(e.terms[heapq.heappop(keys)], itertools.count())
        if first:
            yield body
            first = False
        elif body.startswith("-"):
            yield " - " + body[1:]
        else:
            yield " + " + body


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*^()\[\]{}_;:=',]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, model):
        self.text = text
        self.model = model
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token helpers ----------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    # -- grammar -----------------------------------------------------

    # Each rule returns (Expr, names): ``names`` maps every channel label
    # named in its text to the column of its first naming.

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {val!r}", pos)
        return e

    def expr(self):
        e, names = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t, more = self.term()
            e = e + t if op == "+" else e - t
            names = {**more, **names}
        return e, names

    def term(self):
        sign = 1
        while self.at("-"):
            self.next()
            sign = -sign
        e, names = self.factor()
        while self.at("*"):
            self.next()
            neg = False
            while self.at("-"):
                self.next()
                neg = not neg
            f, more = self.factor()
            names = _disjoint(names, more)
            e = e * (-f if neg else f)
        return (e if sign > 0 else -e), names

    def factor(self):
        e, names = self.atom()
        if self.at("^"):
            self.next()
            neg = False
            if self.at("-"):
                self.next()
                neg = True
            kind, val, pos = self.next()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be an integer", pos)
            n = int(val)
            if neg:
                # negative powers only for the units c*hbar^k, c != 0
                if len(e.terms) > 1 or any(m.factors() for m in e.monomials()):
                    raise ParseError("negative exponent on a non-scalar", pos)
                c = e.lead_coefficient()
                if len(c.terms) != 1:
                    raise ParseError(f"the scalar {format_coefficient(c)} has no inverse", pos)
                return Expr.scalar(c.inverse()) ** n, names
            return e ** n, names
        return e, names

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            if "/" in val:
                a, b = val.split("/")
                return Expr.scalar(Fraction(int(a), int(b))), {}
            return Expr.scalar(int(val)), {}
        if val == "(":
            found = self.expr()
            self.expect(")")
            return found
        if kind != "ident":
            raise ParseError(f"unexpected token {val!r}", pos)
        if val == "i":
            return Expr.scalar(Coefficient.imag_unit()), {}
        if val == "hbar":
            return Expr.scalar(Coefficient.hbar()), {}
        if val in ("sin", "cos", "exp"):
            self.expect("(")
            arg = self.jetvar_atom(*self.next())
            self.expect(")")
            try:
                return Expr.from_atom(Trig(val, arg)), {}
            except ValueError as exc:
                raise ParseError(str(exc), pos)
        if val == "D":
            self.expect("[")
            kind2, num, pos2 = self.next()
            if kind2 != "num" or "/" in num:
                raise ParseError("expected coordinate number in D[...]", pos2)
            j = int(num)
            if not 1 <= j <= self.model.base_dim:
                raise ParseError(f"coordinate {j} out of range", pos2)
            self.expect("]")
            self.expect("(")
            e, names = self.expr()
            self.expect(")")
            return total_derivative(e, j - 1), names
        if val == "at":
            self.expect("(")
            e, names = self.expr()
            self.expect(")")
            return make_attach((), e), names
        if val == "frz":
            self.expect("[")
            pending, names = [], {}
            while True:
                label, idx, label_pos = self.pending_spec()
                names = _disjoint(names, {label: label_pos})
                pending.append(idx)
                if not self.at(";"):
                    break
                self.next()
            self.expect("]")
            self.expect("(")
            e, inner = self.expr()
            self.expect(")")
            return make_attach(pending, e), _disjoint(names, inner)
        j = self.coordinate(val, pos)
        if j is not None:
            return self.model.x(j), {}
        return Expr.from_atom(self.jetvar_atom(kind, val, pos)), {}

    def coordinate(self, val: str, pos: int):
        """The 0-based coordinate named by a token 'x<j>', or None for any
        other token."""
        if not re.fullmatch(r"x\d+", val):
            return None
        j = int(val[1:])
        if not 1 <= j <= self.model.base_dim:
            raise ParseError(f"coordinate {val} out of range", pos)
        return j - 1

    def jetvar_atom(self, kind: str, val: str, pos: int) -> JetVar:
        """A jet variable, 'name' or 'dag(name)' with an optional suffix,
        from its first token on."""
        dagger = False
        if val == "dag":
            self.expect("(")
            kind, val, pos = self.next()
            if kind != "ident":
                raise ParseError("expected field name in dag(...)", pos)
            self.expect(")")
            dagger = True
        elif kind != "ident":
            raise ParseError("expected a jet variable", pos)
        index = self.opt_suffix()
        try:
            return self.model.jet_atom(val, index, dagger)
        except KeyError:
            raise ParseError(f"unknown field {val!r}", pos)

    def pending_spec(self):
        kind, val, pos = self.next()
        if kind != "num" or "/" in val:
            raise ParseError("expected channel label", pos)
        self.expect(":")
        idx = [0] * self.model.base_dim
        while (j := self.coordinate(*self.peek()[1:])) is not None:
            self.next()
            idx[j] += 1
        if not any(idx):
            raise ParseError("empty multi-index in frz[...]", pos)
        return int(val), tuple(idx), pos

    def opt_suffix(self) -> Tuple[int, ...]:
        n = self.model.base_dim
        idx = [0] * n
        if self.at("'"):
            while self.at("'"):
                self.next()
                idx[0] += 1
            return tuple(idx)
        if not self.at("_"):
            return tuple(idx)
        self.next()
        kind, val, pos = self.next()
        if val == "{":
            while True:
                _, val2, pos2 = self.next()
                if val2 == "}":
                    break
                j = self.coordinate(val2, pos2)
                if j is None:
                    raise ParseError(f"expected coordinate in index, found {val2!r}", pos2)
                idx[j] += 1
            if not any(idx):
                raise ParseError("empty multi-index", pos)
            return tuple(idx)
        if kind == "ident" and re.fullmatch(r"x+", val):
            if n != 1:
                raise ParseError("run-form index q_xx needs base dimension 1", pos)
            idx[0] = len(val)
            return tuple(idx)
        raise ParseError(f"malformed derivative suffix at {val!r}", pos)


def _disjoint(names: dict, more: dict) -> dict:
    """The channel labels ``names`` and ``more``, named in one monomial; a
    label in both is named twice there."""
    for label, pos in more.items():
        if label in names:
            raise ParseError(f"channel label {label} named twice in one monomial", pos)
    return {**names, **more}


def parse_expr(text: str, model) -> Expr:
    return _Parser(text, model).parse()


# ---------------------------------------------------------------------------
# model files


def parse_model_file(text: str):
    """Parse a model file; returns (BvModel, sections) where sections maps a
    section name to {(field, dagger): raw trig-polynomial string}.  A field
    is declared once, and a section gives a declared field, or its dag, at
    most once; a breach is a ParseError at its line."""
    base_dim = None
    fields = []
    sections = {}
    named = {}  # each field a section names, at the first line naming it
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[base]":
                current = "base"
            elif line == "[fields]":
                current = "fields"
            elif line == "[sections]":
                current = "sections"
            else:
                raise ParseError(f"unknown section header {line!r}", line=lineno)
            continue
        if current == "base":
            m = re.fullmatch(r"dim\s*=\s*(\d+)", line)
            if not m:
                raise ParseError(f"expected 'dim = n', found {line!r}", line=lineno)
            base_dim = int(m.group(1))
        elif current == "fields":
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)\s+ghost\s*=\s*(-?\d+)", line)
            if not m:
                raise ParseError(
                    f"expected '<name> ghost = <int>', found {line!r}", line=lineno
                )
            if not _FIELD_NAME.fullmatch(m.group(1)):
                raise ParseError(f"field name {m.group(1)!r} is reserved", line=lineno)
            if any(name == m.group(1) for name, _ in fields):
                raise ParseError(f"field {m.group(1)!r} declared twice", line=lineno)
            fields.append((m.group(1), int(m.group(2))))
        elif current == "sections":
            m = re.fullmatch(
                r"([A-Za-z][A-Za-z0-9]*)\s*:\s*(dag\(([A-Za-z][A-Za-z0-9]*)\)|[A-Za-z][A-Za-z0-9]*)\s*=\s*(.+)",
                line,
            )
            if not m:
                raise ParseError(
                    f"expected '<section>: <field> = <trig poly>', found {line!r}",
                    line=lineno,
                )
            sec = m.group(1)
            if m.group(3):
                key = (m.group(3), True)
            else:
                key = (m.group(2), False)
            given = sections.setdefault(sec, {})
            if key in given:
                raise ParseError(f"section {sec!r} gives {m.group(2)} twice", line=lineno)
            given[key] = m.group(4).strip()
            named.setdefault(key[0], lineno)
        else:
            raise ParseError(f"content outside any section: {line!r}", line=lineno)
    if base_dim is None:
        raise ParseError("missing [base] section with 'dim = n'", line=0)
    if not fields:
        raise ParseError("missing [fields] section", line=0)
    declared = {name for name, _ in fields}
    for name, lineno in named.items():
        if name not in declared:
            raise ParseError(f"a section names the undeclared field {name!r}", line=lineno)
    return BvModel(base_dim, fields), sections
