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

The lexer reads each token with one regex match, which also takes the
whitespace and comments before it.  A token keeps its offset; its line
and column are worked out only for an error message.  A ``(`` that
starts a unary formula is read as a term first only if a term can start
after the opening parentheses, at ``!`` or a lowercase identifier other
than ``forall`` and ``exists``; otherwise it opens a formula.

Chains are read iteratively.  Input nested deeper than ``MAX_DEPTH``
levels (each prefix operator, parenthesis and chain link is one) is a
:class:`ParseError`, so no recursive walker over it runs out of stack.
The printer walks with its own stack, so formulas built through the API
print at any depth.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Union

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

# The chain-256 benchmark goal nests 258 levels.  This parser takes three
# stack frames per level of nested parentheses, and the model evaluator
# one, so 280 levels leave room under Python's default limit of 1000
# frames.  Formula hashing, equality, repr, atom facts and printing do not
# recurse.
MAX_DEPTH = 280


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class Token:
    """A token and its offset in ``source``; ``line`` and ``col`` are
    worked out only when asked for, as when an error is raised."""

    __slots__ = ("kind", "text", "offset", "source")

    def __init__(self, kind: str, text: str, offset: int, source: str):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.source = source

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.offset) + 1

    @property
    def col(self) -> int:
        return self.offset - self.source.rfind("\n", 0, self.offset)


# One match per token: the whitespace and comments before it, then the
# token, a character no token starts with (BAD), or the end (EOF).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<VARIANT>variant-closed\b)
    | (?P<ARROW>->)
    | (?P<PARAM>@[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ELEM>\$[A-Za-z_][A-Za-z0-9_]*)
    | (?P<UID>[A-Z][A-Za-z0-9_]*)
    | (?P<LID>[a-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>[~:.,()\[\]<>+*!])
    | (?P<BAD>.)
    | (?P<EOF>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        offset = m.start(kind)
        if kind == "PUNCT":
            kind = tok
        elif kind == "BAD":
            bad = Token(kind, tok, offset, text)
            raise ParseError(f"unexpected character {tok!r}", bad.line, bad.col)
        append(Token(kind, tok, offset, text))
        if kind == "EOF":
            break
    return tokens


def _term_start(tok: Token) -> bool:
    """Whether a term can start at ``tok``: ``Parser.tpre`` reads ``!``,
    ``(`` and a lowercase identifier; ``forall`` and ``exists`` open a
    formula instead."""
    return tok.kind in ("!", "(") or (
        tok.kind == "LID" and tok.text not in ("forall", "exists")
    )


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
        if _term_start(tok) and (tok.kind != "(" or self.term_after_parens()):
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

    def term_after_parens(self) -> bool:
        """Whether a term can start after the opening parentheses at the
        current token; if not, they open a formula."""
        tokens, i = self.tokens, self.pos
        while tokens[i].kind == "(":
            i += 1
        return _term_start(tokens[i])

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
        # The tokens dispatched on here are those ``_term_start`` accepts,
        # which ``unary`` reads ahead with; change both together.
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

# A printing memo maps formulas and terms already printed to their text,
# without the parentheses their context may add.
Memo = dict[Union[Formula, Term], str]

# Binding levels, loosest first: a formula or term whose level is below
# the one its place requires is printed in parentheses.
_IMPL, _UNARY, _PRIMARY = 0, 1, 2
_SUM, _APP, _PREFIX = 0, 1, 2
_LEVEL = {Impl: _IMPL, Neg: _UNARY, Forall: _UNARY, Exists: _UNARY, Assert: _UNARY,
          Sum: _SUM, App: _APP}


def _fmt(x: Union[Formula, Term], required: int, memo: Optional[Memo]) -> str:
    """``x`` in parentheses if its level is below ``required``.

    The walk keeps its own stack, so no depth of nesting exhausts the
    interpreter's.  ``todo`` holds ``(node, level)`` pairs: a node to
    print with the level its place requires, or, once its children are
    queued, the node again with the level's complement (negative) to join
    their texts.  ``done`` holds the texts printed so far."""
    s = None if memo is None else memo.get(x)
    if s is not None:
        return f"({s})" if _LEVEL.get(type(x), _PRIMARY) < required else s
    todo = [(x, required)]
    push, pop = todo.append, todo.pop
    done: list[str] = []
    while todo:
        x, required = pop()
        cls = type(x)
        if required < 0:
            required = ~required
            right = done.pop()
            if cls is Impl:
                s = f"{done.pop()} -> {right}"
            elif cls is Neg:
                s = "~" + right
            elif cls is Assert:
                w = "[" + ", ".join(map(str, x.window)) + "] " if x.window else ""
                s = f"{done.pop()} : {w}{right}"
            elif cls is Sum:
                s = f"{done.pop()}+{right}"
            elif cls is App:
                s = f"{done.pop()}*{right}"
            elif cls is Bang:
                s = "!" + right
            elif cls is Gen:
                s = f"gen<{x.bound}>({right})"
            else:
                s = f"{'forall' if cls is Forall else 'exists'} {x.bound}. {right}"
        else:
            s = None if memo is None else memo.get(x)
            if s is not None:
                done.append(f"({s})" if _LEVEL.get(cls, _PRIMARY) < required else s)
                continue
            if cls is Pred:
                s = x.name + (f"({', '.join(map(str, x.args))})" if x.args else "")
            elif cls is TermVar or cls is TermConst:
                s = x.name
            else:
                push((x, ~required))
                if cls is Impl:
                    push((x.right, _IMPL))
                    push((x.left, _UNARY))
                elif cls is Neg or cls is Forall or cls is Exists:
                    push((x.body, _UNARY))
                elif cls is Assert:
                    push((x.body, _UNARY))
                    push((x.term, _SUM))
                elif cls is Sum:
                    push((x.right, _APP))
                    push((x.left, _SUM))
                elif cls is App:
                    push((x.right, _PREFIX))
                    push((x.left, _APP))
                elif cls is Bang:
                    push((x.inner, _PREFIX))
                elif cls is Gen:
                    push((x.inner, _SUM))
                else:
                    raise TypeError(f"not a formula or term: {x!r}")
                continue
        if memo is not None:
            memo[x] = s
        done.append(f"({s})" if _LEVEL.get(cls, _PRIMARY) < required else s)
    return done[0]


def print_formula(f: Formula, memo: Optional[Memo] = None) -> str:
    """Minimal-parenthesis rendering; reparses to a structurally
    identical formula.

    When ``memo`` is given, each subformula and subterm of ``f`` is
    printed once: its text is taken from ``memo`` if there, and entered
    into it otherwise, so ``memo`` ends up holding the text of every
    subformula and every subterm of ``f``."""
    return _fmt(f, _IMPL, memo)


def print_term(t: Term) -> str:
    """Minimal-parenthesis rendering of a term."""
    return _fmt(t, _SUM, None)
