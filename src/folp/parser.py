"""Concrete syntax: lexer, recursive descent parser, and printer.

Grammar (ASCII, unambiguous)::

    formula := unary ("->" unary)*                   right associative
    unary   := "~" unary
             | ("forall" | "exists") IVAR "." unary
             | term ":" window? unary
             | "(" formula ")"
             | PRED ("(" atomlist ")")?
    window  := "[" atomlist? "]"                     omitted = empty set

    term    := tapp ("+" tapp)*                      left associative
    tapp    := tpre ("*" tpre)*                      left associative
    tpre    := "!" tpre | "gen" "<" IVAR ">" "(" term ")" | JID | "(" term ")"

Tokens: PRED starts uppercase; IVAR and JID are bare lowercase
identifiers (a JID is a constant iff declared); parameters are
``@name`` and domain elements ``$name``.  ``:`` binds the immediately
following unary-level formula, so ``t:[x]A -> B`` reads ``(t:[x]A) -> B``
and ``p : forall x. A(x) -> B`` reads ``(p : forall x. A(x)) -> B``.

Chains are read iteratively.  Input nested deeper than ``MAX_DEPTH``
levels (each prefix operator, parenthesis and chain link is one) is a
:class:`ParseError`, so no recursive walker over it runs out of stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import (
    App,
    Assert,
    Atom,
    Bang,
    Exists,
    Forall,
    Formula,
    Gen,
    Impl,
    Neg,
    Pred,
    Sum,
    Term,
    TermConst,
    TermVar,
    elem,
    param,
    var,
)

KEYWORDS = {"forall", "exists", "gen"}

# The chain-256 benchmark goal nests 258 levels.  Formula equality and
# this parser on nested parentheses take three stack frames per level, so
# 280 levels leave room under Python's default limit of 1000 frames.
MAX_DEPTH = 280


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>\#[^\n]*)
    | (?P<VARIANT>variant-closed\b)
    | (?P<ARROW>->)
    | (?P<PARAM>@[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ELEM>\$[A-Za-z_][A-Za-z0-9_]*)
    | (?P<UID>[A-Z][A-Za-z0-9_]*)
    | (?P<LID>[a-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>[~:.,()\[\]<>+*!])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        tok = m.group()
        if kind not in ("WS", "COMMENT"):
            if kind == "PUNCT":
                kind = tok
            tokens.append(Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Parser:
    """Token-stream parser; reusable for formulas, terms, and CS files."""

    def __init__(
        self,
        tokens: list[Token],
        decls: Iterable[str] = (),
        arities: Optional[dict[str, int]] = None,
    ):
        self.tokens = tokens
        self.pos = 0
        self.decls = set(decls)
        self.arities = arities if arities is not None else {}
        self.depth = 0  # nesting levels entered, at most MAX_DEPTH
        self.peak = 0  # the most levels entered at once, so far

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        # ``next`` never moves past the closing EOF token.
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def deeper(self) -> None:
        """Enter a nesting level; the caller lowers ``depth`` to leave."""
        self.depth += 1
        if self.depth > self.peak:
            if self.depth > MAX_DEPTH:
                raise self.error(f"input nested deeper than {MAX_DEPTH} levels")
            self.peak = self.depth

    def whole(self, parse):
        """``parse()``, which must read all of the input."""
        out = parse()
        if not self.at_end():
            raise self.error(f"trailing input {self.peek().text!r}")
        return out

    def nested(self, parse):
        """``parse()`` one level deeper."""
        self.deeper()
        out = parse()
        self.depth -= 1
        return out

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        parts = [self.unary()]
        while self.peek().kind == "ARROW":
            self.next()
            self.deeper()
            parts.append(self.unary())
        self.depth -= len(parts) - 1
        f = parts.pop()
        while parts:
            f = Impl(parts.pop(), f)
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Neg(self.nested(self.unary))
        if tok.kind == "LID" and tok.text in ("forall", "exists"):
            self.next()
            bound = self.peek()
            if bound.kind in ("PARAM", "ELEM"):
                raise self.error(
                    f"cannot quantify over {bound.text!r}: "
                    "quantifier binders are individual variables"
                )
            name_tok = self.expect("LID")
            if name_tok.text in KEYWORDS:
                raise ParseError(
                    f"{name_tok.text!r} is reserved", name_tok.line, name_tok.col
                )
            self.expect(".")
            body = self.nested(self.unary)
            return (Forall if tok.text == "forall" else Exists)(name_tok.text, body)
        if tok.kind in ("LID", "!", "("):
            # Could be an assertion "term : ..." or, for "(", a
            # parenthesised formula.  Try the term reading first.
            save = self.pos, self.depth
            try:
                t = self.term()
                if self.peek().kind == ":":
                    self.next()
                    window: tuple[Atom, ...] = ()
                    if self.peek().kind == "[":
                        self.next()
                        if self.peek().kind != "]":
                            window = tuple(self.atom_list())
                        self.expect("]")
                    return Assert(t, window, self.nested(self.unary))
                if tok.kind != "(":
                    raise self.error("expected ':' after justification term")
            except ParseError:
                if tok.kind != "(":
                    raise
            self.pos, self.depth = save
        if tok.kind == "(":
            self.next()
            f = self.nested(self.formula)
            self.expect(")")
            return f
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "UID":
            self.next()
            args: tuple[Atom, ...] = ()
            if self.peek().kind == "(":
                self.next()
                args = tuple(self.atom_list())
                self.expect(")")
            known = self.arities.get(tok.text)
            if known is not None and known != len(args):
                raise ParseError(
                    f"predicate {tok.text} used with arity {len(args)}, "
                    f"previously {known}",
                    tok.line,
                    tok.col,
                )
            self.arities[tok.text] = len(args)
            return Pred(tok.text, args)
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "PARAM":
            self.next()
            return param(tok.text[1:])
        if tok.kind == "ELEM":
            self.next()
            return elem(tok.text[1:])
        if tok.kind == "LID" and tok.text not in KEYWORDS:
            self.next()
            return var(tok.text)
        raise self.error(
            f"expected a variable, parameter, or domain element, "
            f"found {tok.text or 'end of input'!r}"
        )

    def atom_list(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.peek().kind == ",":
            self.next()
            atoms.append(self.atom())
        return atoms

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        # One loop for tsum and tapp: ``total`` holds the sum so far and
        # ``product`` the application being read.
        links = 0
        total: Optional[Term] = None
        product = self.tpre()
        while self.peek().kind in ("+", "*"):
            op = self.next().kind
            self.deeper()
            links += 1
            right = self.tpre()
            if op == "*":
                product = App(product, right)
            else:
                total = product if total is None else Sum(total, product)
                product = right
        self.depth -= links
        return product if total is None else Sum(total, product)

    def tpre(self) -> Term:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Bang(self.nested(self.tpre))
        if tok.kind == "LID" and tok.text == "gen":
            self.next()
            self.expect("<")
            name = self.expect("LID")
            if name.text in KEYWORDS:
                raise ParseError(f"{name.text!r} is reserved", name.line, name.col)
            self.expect(">")
            self.expect("(")
            t = self.nested(self.term)
            self.expect(")")
            return Gen(name.text, t)
        if tok.kind == "LID":
            self.next()
            if tok.text in KEYWORDS:
                raise ParseError(f"{tok.text!r} is reserved", tok.line, tok.col)
            if tok.text in self.decls:
                return TermConst(tok.text)
            return TermVar(tok.text)
        if tok.kind == "(":
            self.next()
            t = self.nested(self.term)
            self.expect(")")
            return t
        raise self.error(
            f"expected a justification term, found {tok.text or 'end of input'!r}"
        )


def parse_formula(
    text: str,
    decls: Iterable[str] = (),
    arities: Optional[dict[str, int]] = None,
) -> Formula:
    """Parse a formula; identifiers in term position resolve to constants
    iff declared in ``decls``."""
    p = Parser(tokenize(text), decls, arities)
    return p.whole(p.formula)


def parse_term(text: str, decls: Iterable[str] = ()) -> Term:
    p = Parser(tokenize(text), decls)
    return p.whole(p.term)


# ---------------------------------------------------------------------------
# Printing

_IMPL, _UNARY, _PRIMARY = 0, 1, 2


def _level(f: Formula) -> int:
    if isinstance(f, Impl):
        return _IMPL
    if isinstance(f, (Neg, Forall, Exists, Assert)):
        return _UNARY
    return _PRIMARY


def _fmt(f: Formula, required: int, memo: Optional[dict[Formula, str]]) -> str:
    s = None if memo is None else memo.get(f)
    if s is None:
        if isinstance(f, Pred):
            s = f.name + (f"({', '.join(map(str, f.args))})" if f.args else "")
        elif isinstance(f, Neg):
            s = "~" + _fmt(f.body, _UNARY, memo)
        elif isinstance(f, Impl):
            s = f"{_fmt(f.left, _UNARY, memo)} -> {_fmt(f.right, _IMPL, memo)}"
        elif isinstance(f, Forall):
            s = f"forall {f.bound}. {_fmt(f.body, _UNARY, memo)}"
        elif isinstance(f, Exists):
            s = f"exists {f.bound}. {_fmt(f.body, _UNARY, memo)}"
        elif isinstance(f, Assert):
            w = "[" + ", ".join(str(a) for a in f.window) + "] " if f.window else ""
            s = f"{f.term} : {w}{_fmt(f.body, _UNARY, memo)}"
        else:
            raise TypeError(f"not a formula: {f!r}")
        if memo is not None:
            memo[f] = s
    return f"({s})" if _level(f) < required else s


def print_formula(f: Formula, memo: Optional[dict[Formula, str]] = None) -> str:
    """Minimal-parenthesis rendering; reparses to a structurally
    identical formula.

    ``memo`` maps formulas already printed to their text; when given,
    each subformula of ``f`` is printed once and entered into it, so
    ``memo`` ends up holding the text of every subformula of ``f``."""
    return _fmt(f, _IMPL, memo)


def print_term(t: Term) -> str:
    return str(t)
