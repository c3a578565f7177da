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

The lexer reads a text with one ``findall`` of one regex, which skips
the whitespace and comments before each token and captures its text; a
table gives the token's kind.  The parser reads the lists of kinds and
texts by index.  A token's offset, line and column are worked out, by
scanning again, only for an error message or for ``tokenize``.

A ``(`` that starts a unary formula opens an assertion's term exactly
when the token after its matching ``)`` is ``:``, ``+`` or ``*``, since
none of these follows a formula; otherwise it opens a formula.  So the
parser never backtracks.  One pass pairs a text's parentheses, when a
``(`` first needs the decision or a parse fails, and finds the first
``)`` that closes no ``(``: one ``)`` too many can mislead the decision,
so a text that fails to parse and has such a ``)`` is reported there.

A parser returns each subformula and subterm that repeats in its text
as one object, the first built (see ``Parser.share``), and the ``~`` of a
formula as its ``neg``, so a goal, a CS file or a proof root is a DAG.

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
    _node,
    elem,
    neg,
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


class Token(metaclass=_node):
    """A token and its offset in ``source``; ``line`` and ``col`` are
    worked out only when asked for, as when an error is raised."""

    kind: str
    text: str
    offset: int
    source: str

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.offset) + 1

    @property
    def col(self) -> int:
        return self.offset - self.source.rfind("\n", 0, self.offset)


# The whitespace and comments before a token, then the token: a
# character no token starts with (BAD), or the end (EOF, "").  The one
# group is the token's text.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (
      variant-closed\b | -> | [@$]?[A-Za-z_][A-Za-z0-9_]*
    | [~:.,()\[\]<>+*!] | . | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# The kind of each token text listed; an identifier has the kind of the
# identifier made of its first character and ``_``.  Any other text is a
# BAD character.
_KIND = {"": "EOF", "->": "ARROW", "variant-closed": "VARIANT", "@": "BAD", "$": "BAD",
         **{c: c for c in "~:.,()[]<>+*!"},
         **{c + "_": "UID" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"},
         **{c + "_": "LID" for c in "abcdefghijklmnopqrstuvwxyz_"},
         "@_": "PARAM", "$_": "ELEM"}


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one EOF token."""
    p = Parser(text)
    p.token(0)  # finds the offsets
    return list(map(Token, p.kinds, p.texts, p.offsets, [text] * len(p.kinds)))


class Parser:
    """Recursive descent over the kinds and texts of the tokens of
    ``text``, which end with EOF; reusable for formulas, terms, and CS
    files."""

    def __init__(
        self,
        text: str,
        decls: Iterable[str] = (),
        arities: Optional[dict[str, int]] = None,
    ):
        self.source = text
        self.offsets: Optional[list[int]] = None
        self.closers: Optional[dict[int, int]] = None  # "(" -> its ")"
        self.stray: Optional[int] = None  # the first ")" that closes no "("
        self.texts = texts = _TOKEN_RE.findall(text)
        if len(texts) > 1 and not texts[-2]:
            texts.pop()  # a second empty match at the end, after its whitespace
        get = _KIND.get
        self.kinds = [get(t) or get(t[0] + "_", "BAD") for t in texts]
        if "BAD" in self.kinds:
            i = self.kinds.index("BAD")
            raise self.error(f"unexpected character {texts[i]!r}", i)
        self.pos = 0
        self.decls = set(decls)
        self.arities = arities if arities is not None else {}
        self.depth = 0  # nesting levels entered, at most MAX_DEPTH
        self.peak = 0  # the most levels entered at once, so far
        self.built: dict = {}  # each formula and term built, by itself

    # -- token plumbing ----------------------------------------------------

    def token(self, i: Optional[int] = None) -> Token:
        """Token ``i``, by default the current one, as for an error."""
        if self.offsets is None:  # scanned again, once, when first asked for
            self.offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.source)]
        i = self.pos if i is None else i
        return Token(self.kinds[i], self.texts[i], self.offsets[i], self.source)

    def next(self) -> str:
        """The current token's text; moves on, but never past EOF."""
        i = self.pos
        if self.kinds[i] != "EOF":
            self.pos = i + 1
        return self.texts[i]

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            raise self.error(
                f"expected {kind!r}, found {self.texts[self.pos] or 'end of input'!r}"
            )
        return self.next()

    def at_end(self) -> bool:
        return self.kinds[self.pos] == "EOF"

    def error(self, message: str, i: Optional[int] = None) -> ParseError:
        tok = self.token(i)
        return ParseError(message, tok.line, tok.col)

    def share(self, x):
        """The first formula or term equal to ``x`` built here, else ``x``."""
        return self.built.setdefault(x, x)

    def deeper(self) -> None:
        """Enter a nesting level; the caller lowers ``depth`` to leave."""
        self.depth += 1
        if self.depth > self.peak:
            if self.depth > MAX_DEPTH:
                raise self.error(f"input nested deeper than {MAX_DEPTH} levels")
            self.peak = self.depth

    def whole(self, parse):
        """``parse()``, which must read all of the input.

        An error in a text with a ``)`` that closes no ``(`` is reported
        at the first such ``)`` (see ``pair``): one ``)`` too many can
        mislead ``opens_term`` before the parser reaches the fault, and no
        error can lie past that ``)``, which no parse reads."""
        try:
            out = parse()
            if not self.at_end():
                raise self.error(f"trailing input {self.texts[self.pos]!r}")
        except ParseError:
            self.pair()
            if self.stray is None:
                raise
            raise self.error("unmatched ')'", self.stray) from None
        return out

    def pair(self) -> dict[int, int]:
        """Each ``(`` token's matching ``)``, by index.  The parentheses
        are paired once per text, when first asked for, and the same pass
        sets ``stray``, the first ``)`` that closes no ``(``, if any."""
        if self.closers is None:
            self.closers, opened = {}, []
            for j, kind in enumerate(self.kinds):
                if kind == "(":
                    opened.append(j)
                elif kind == ")":
                    if opened:
                        self.closers[opened.pop()] = j
                    elif self.stray is None:
                        self.stray = j
        return self.closers

    def nested(self, parse):
        """``parse()`` one level deeper."""
        self.deeper()
        out = parse()
        self.depth -= 1
        return out

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        parts = [self.unary()]
        while self.kinds[self.pos] == "ARROW":
            self.pos += 1
            self.deeper()
            parts.append(self.unary())
        self.depth -= len(parts) - 1
        f = parts.pop()
        while parts:
            f = self.share(Impl(parts.pop(), f))
        return f

    def unary(self) -> Formula:
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "~":
            self.pos += 1
            return neg(self.nested(self.unary))
        if kind == "LID" and text in ("forall", "exists"):
            self.pos += 1
            if self.kinds[self.pos] in ("PARAM", "ELEM"):
                raise self.error(
                    f"cannot quantify over {self.texts[self.pos]!r}: "
                    "quantifier binders are individual variables"
                )
            name = self.expect("LID")
            if name in KEYWORDS:
                raise self.error(f"{name!r} is reserved", self.pos - 1)
            self.expect(".")
            body = self.nested(self.unary)
            return self.share((Forall if text == "forall" else Exists)(name, body))
        if kind == "!" or kind == "LID" or (kind == "(" and self.opens_term(i)):
            t = self.term()
            if self.kinds[self.pos] != ":":
                raise self.error("expected ':' after justification term")
            self.pos += 1
            window: tuple[Atom, ...] = ()
            if self.kinds[self.pos] == "[":
                self.pos += 1
                if self.kinds[self.pos] != "]":
                    window = tuple(self.atom_list())
                self.expect("]")
            return self.share(Assert(t, window, self.nested(self.unary)))
        if kind == "(":
            self.pos += 1
            f = self.nested(self.formula)
            self.expect(")")
            return f
        return self.primary()

    def opens_term(self, i: int) -> bool:
        """Whether the ``(`` at token ``i`` opens a justification term: the
        token after its matching ``)`` is ``:``, ``+`` or ``*``, which
        never follow a formula."""
        j = self.pair().get(i)
        return j is not None and self.kinds[j + 1] in (":", "+", "*")

    def primary(self) -> Formula:
        i = self.pos
        if self.kinds[i] == "UID":
            name = self.next()
            args: tuple[Atom, ...] = ()
            if self.kinds[self.pos] == "(":
                self.pos += 1
                args = tuple(self.atom_list())
                self.expect(")")
            known = self.arities.get(name)
            if known is not None and known != len(args):
                raise self.error(
                    f"predicate {name} used with arity {len(args)}, previously {known}", i
                )
            self.arities[name] = len(args)
            return self.share(Pred(name, args))
        raise self.error(f"expected a formula, found {self.texts[i] or 'end of input'!r}")

    def atom(self) -> Atom:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "PARAM":
            self.pos += 1
            return param(text[1:])
        if kind == "ELEM":
            self.pos += 1
            return elem(text[1:])
        if kind == "LID" and text not in KEYWORDS:
            self.pos += 1
            return var(text)
        raise self.error(
            f"expected a variable, parameter, or domain element, "
            f"found {text or 'end of input'!r}"
        )

    def atom_list(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            atoms.append(self.atom())
        return atoms

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        # One loop for tsum and tapp: ``total`` holds the sum so far and
        # ``product`` the application being read.
        links = 0
        total: Optional[Term] = None
        product = self.tpre()
        while self.kinds[self.pos] in ("+", "*"):
            op = self.next()
            self.deeper()
            links += 1
            right = self.tpre()
            if op == "*":
                product = self.share(App(product, right))
            else:
                total = product if total is None else self.share(Sum(total, product))
                product = right
        self.depth -= links
        return product if total is None else self.share(Sum(total, product))

    def tpre(self) -> Term:
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "!":
            self.pos += 1
            return self.share(Bang(self.nested(self.tpre)))
        if kind == "LID" and text == "gen":
            self.pos += 1
            self.expect("<")
            name = self.expect("LID")
            if name in KEYWORDS:
                raise self.error(f"{name!r} is reserved", self.pos - 1)
            self.expect(">")
            self.expect("(")
            t = self.nested(self.term)
            self.expect(")")
            return self.share(Gen(name, t))
        if kind == "LID":
            self.pos += 1
            if text in KEYWORDS:
                raise self.error(f"{text!r} is reserved", i)
            return self.share((TermConst if text in self.decls else TermVar)(text))
        if kind == "(":
            self.pos += 1
            t = self.nested(self.term)
            self.expect(")")
            return t
        raise self.error(
            f"expected a justification term, found {text or 'end of input'!r}"
        )


def parse_formula(
    text: str,
    decls: Iterable[str] = (),
    arities: Optional[dict[str, int]] = None,
) -> Formula:
    """Parse a formula; identifiers in term position resolve to constants
    iff declared in ``decls``."""
    p = Parser(text, decls, arities)
    return p.whole(p.formula)


def parse_term(text: str, decls: Iterable[str] = ()) -> Term:
    p = Parser(text, decls)
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
