"""Abstract syntax for first order logic of proofs.

Formulas extend first order logic with justification assertions
``t :_X A`` whose subscript ``X`` (the "window") lists the atoms that
are substitutable-for and not quantifiable.  Three disjoint atom
namespaces exist: individual variables (bare lowercase), parameters
(``@u``), and domain elements (``$a``).  Parameters and domain elements
are never bound by quantifiers.

Values are never changed after construction.  Each node hashes itself
when built, from its children's cached hashes; formulas also cache their
atom facts and canonical form.  Windows are sorted duplicate-free tuples,
so structural equality of formulas is plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

VAR = "var"
PARAM = "param"
ELEM = "elem"

_KIND_ORDER = {VAR: 0, PARAM: 1, ELEM: 2}
_KIND_SIGIL = {VAR: "", PARAM: "@", ELEM: "$"}


@dataclass(frozen=True, slots=True)
class Atom:
    """An individual variable, a parameter, or a domain element."""

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown atom kind: {self.kind!r}")

    def __str__(self) -> str:
        return _KIND_SIGIL[self.kind] + self.name

    def sort_key(self) -> tuple[int, str]:
        return (_KIND_ORDER[self.kind], self.name)


def var(name: str) -> Atom:
    return Atom(VAR, name)


def param(name: str) -> Atom:
    return Atom(PARAM, name)


def elem(name: str) -> Atom:
    return Atom(ELEM, name)


# ---------------------------------------------------------------------------
# Terms and formulas cache their hash, and formulas their atom name sets.


def _node(cls):
    """Slotted dataclass that stores its hash in ``_hash`` once built (and
    normalized by its own ``__post_init__``), reading its children's, so
    hashing never recurses; nor does equality (see ``_equal``).
    ``dataclass`` keeps the ``__hash__`` and ``__eq__`` set here."""
    key = attrgetter("__class__.__name__", *(
        f"{name}._hash" if kind in ("Term", "Formula") else name
        for name, kind in cls.__annotations__.items()
    ))
    normalize = cls.__dict__.get("__post_init__")

    def __post_init__(self) -> None:
        if normalize is not None:
            normalize(self)
        self._hash = hash(key(self))

    def __hash__(self) -> int:
        return self._hash

    cls.__post_init__ = __post_init__
    cls.__hash__ = __hash__
    cls.__eq__ = _equal
    return dataclass(slots=True)(cls)


def _equal(a, b):
    """``a == b`` for terms and formulas: structural equality, walking
    pairs of nodes with a stack.  A pair of one node is equal; a pair
    whose classes, hashes or own fields differ is not; otherwise its
    children are compared.  Fields are read directly, not generically,
    because formulas are compared on every dictionary hit."""
    if type(b) is not type(a):
        return NotImplemented
    stack = []
    while True:
        if a is not b:
            cls = type(a)
            if cls is not type(b) or a._hash != b._hash:
                return False
            if cls is Pred:
                if a.name != b.name or a.args != b.args:
                    return False
            elif cls is TermVar or cls is TermConst:
                if a.name != b.name:
                    return False
            elif cls is Neg:
                a, b = a.body, b.body
                continue
            elif cls is Impl or cls is Sum or cls is App:
                if a.right is not b.right:
                    stack.append((a.right, b.right))
                a, b = a.left, b.left
                continue
            elif cls is Assert:
                if a.window != b.window:
                    return False
                if a.term is not b.term:
                    stack.append((a.term, b.term))
                a, b = a.body, b.body
                continue
            elif cls is Forall or cls is Exists:
                if a.bound != b.bound:
                    return False
                a, b = a.body, b.body
                continue
            elif cls is Bang:
                a, b = a.inner, b.inner
                continue
            else:  # Gen
                if a.bound != b.bound:
                    return False
                a, b = a.inner, b.inner
                continue
        if not stack:
            return True
        a, b = stack.pop()


# ---------------------------------------------------------------------------
# Justification terms


@dataclass(slots=True, eq=False)
class Term:
    _hash: int = field(init=False, repr=False, compare=False)

    def __str__(self) -> str:
        from .parser import print_term

        return print_term(self)


@_node
class TermVar(Term):
    name: str


@_node
class TermConst(Term):
    name: str


@_node
class Sum(Term):
    left: Term
    right: Term


@_node
class App(Term):
    left: Term
    right: Term


@_node
class Bang(Term):
    inner: Term


@_node
class Gen(Term):
    """``gen_x(t)``; ``bound`` is always an individual variable name."""

    bound: str
    inner: Term


def subterms(t: Term) -> Iterator[Term]:
    """Yield ``t`` and every subterm of ``t``, outermost first."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, (Sum, App)):
            stack += (s.right, s.left)
        elif isinstance(s, (Bang, Gen)):
            stack.append(s.inner)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(slots=True, eq=False)
class Formula:
    _hash: int = field(init=False, repr=False, compare=False)
    _facts: Optional[_Facts] = field(default=None, init=False, repr=False, compare=False)
    _canon: Optional[Formula] = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        from .parser import print_formula

        return print_formula(self)  # type: ignore[arg-type]


Window = tuple[Atom, ...]


def mkwindow(atoms: Iterable[Atom]) -> Window:
    """Sorted duplicate-free window."""
    return tuple(sorted(set(atoms), key=Atom.sort_key))


@_node
class Pred(Formula):
    name: str
    args: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        self.args = tuple(self.args)


@_node
class Neg(Formula):
    body: Formula


@_node
class Impl(Formula):
    left: Formula
    right: Formula


@_node
class Forall(Formula):
    bound: str
    body: Formula


@_node
class Exists(Formula):
    bound: str
    body: Formula


@_node
class Assert(Formula):
    """A justification assertion ``term :_window body``."""

    term: Term
    window: Window
    body: Formula

    def __post_init__(self) -> None:
        self.window = mkwindow(self.window)


class CaptureError(Exception):
    """Substitution would capture the substituted atom under a binder."""


# ---------------------------------------------------------------------------
# Variable and parameter bookkeeping


class _Facts(NamedTuple):  # indexed by _KIND_ORDER
    free: frozenset[str]
    params: frozenset[str]
    elems: frozenset[str]


# Facts reuse their children's sets where they can, to save memory.
_NONE: frozenset = frozenset()
_NO_FACTS = _Facts(_NONE, _NONE, _NONE)


def _names(atoms: Iterable[Atom], kind: str) -> frozenset[str]:
    return frozenset([a.name for a in atoms if a.kind == kind]) or _NONE


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a if b <= a else b if a <= b else a | b


def _facts(f: Formula) -> _Facts:
    """The atom facts of ``f``, folded once from its children's and
    cached on ``f``."""
    facts = f._facts
    if facts is not None:
        return facts
    cls = type(f)
    if cls is Pred or cls is Assert:
        own = f.args if cls is Pred else f.window
        facts = _NO_FACTS if cls is Pred else _facts(f.body)
        if own:
            kinds = {a.kind for a in own}
            facts = _Facts(
                _names(own, VAR) if VAR in kinds else _NONE,
                _union(facts.params, _names(own, PARAM)) if PARAM in kinds else facts.params,
                _union(facts.elems, _names(own, ELEM)) if ELEM in kinds else facts.elems,
            )
        elif facts.free:
            facts = facts._replace(free=_NONE)
    elif cls is Neg:
        facts = _facts(f.body)
    elif cls is Impl:
        left, right = _facts(f.left), _facts(f.right)
        if right is not _NO_FACTS and right is not left:
            facts = right if left is _NO_FACTS else _Facts(*map(_union, left, right))
        else:
            facts = left
    elif cls is Forall or cls is Exists:
        facts = _facts(f.body)
        if f.bound in facts.free:
            facts = facts._replace(free=facts.free - {f.bound} or _NONE)
    else:
        raise TypeError(f"not a formula: {f!r}")
    f._facts = facts
    return facts


def free_vars(f: Formula) -> frozenset[str]:
    """Free individual variables of ``f``.

    The free variables of ``t :_X A`` are exactly the individual
    variables of ``X``; occurrences in ``A`` of variables not in ``X``
    are neither free nor bindable.
    """
    return _facts(f).free


def par_set(f: Formula) -> frozenset[str]:
    """All parameters occurring in ``f``, windows included."""
    return _facts(f).params


def elem_set(f: Formula) -> frozenset[str]:
    """All domain elements occurring in ``f``, windows included."""
    return _facts(f).elems


def atoms_of(f: Formula) -> frozenset[Atom]:
    """Every atom occurring in ``f`` (predicate arguments and windows)."""
    return frozenset(
        a for g in subformulas(f) for a in getattr(g, "args", getattr(g, "window", ()))
    )


def predicate_arities(f: Formula) -> dict[str, set[int]]:
    """Map each predicate symbol of ``f`` to the arities it is used at."""
    out: dict[str, set[int]] = {}
    for g in subformulas(f):
        if isinstance(g, Pred):
            out.setdefault(g.name, set()).add(len(g.args))
    return out


def formula_terms(f: Formula) -> frozenset[Term]:
    """All justification terms occurring in ``f``, subterms included."""
    return frozenset(
        t for g in subformulas(f) if isinstance(g, Assert) for t in subterms(g.term)
    )


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and all its subformulas, outermost first."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Impl):
            stack += (g.right, g.left)
        elif isinstance(g, (Neg, Forall, Exists, Assert)):
            stack.append(g.body)


def occurs(a: Atom, f: Formula) -> bool:
    """Whether ``a`` occurs in ``f`` where a substitution for it reaches:
    free, for an individual variable."""
    return a.name in _facts(f)[_KIND_ORDER[a.kind]]


def universal_closure(f: Formula) -> Formula:
    """Quantify the free individual variables of ``f``, lexicographically;
    parameters and domain elements are never quantified."""
    out = f
    for name in sorted(free_vars(f), reverse=True):
        out = Forall(name, out)
    return out


# ---------------------------------------------------------------------------
# Renaming: substitution and canonical forms


class _FirstSeen(dict):
    """Names the variables it is asked for ``_f0``, ``_f1``, ... in turn."""

    def __missing__(self, name: str) -> Atom:
        b = self[name] = Atom(VAR, f"_f{len(self)}")
        return b


def _rebuild(
    f: Formula,
    kind: str,
    swap: dict[str, Atom],
    names: Optional[Iterator[Atom]] = None,
    free: Optional[_FirstSeen] = None,
) -> Formula:
    """``f`` with each atom of ``kind`` that ``swap`` reaches replaced by
    ``swap[name]``.  A window gates individual variables: only those in
    ``X`` reach into ``A`` of ``t :_X A``.  Other atoms reach everywhere.

    With ``names`` None a binder keeps its name, hides its variable from
    ``swap`` and raises :class:`CaptureError` if ``swap`` puts that
    variable below it.  Otherwise binders, in preorder, take the next of
    ``names``, and ``gen`` binders follow.  ``free`` renames the variables
    nothing else covers, wherever they are."""
    i = _KIND_ORDER[kind]

    def atom(a: Atom, m: dict[str, Atom]) -> Atom:
        if a.kind != kind:
            return a
        return m.get(a.name) or (a if free is None else free[a.name])

    def term(t: Term, m: dict[str, Atom]) -> Term:
        cls = type(t)
        if cls is Sum or cls is App:
            return cls(term(t.left, m), term(t.right, m))
        if cls is Bang:
            return Bang(term(t.inner, m))
        if cls is Gen:
            return Gen(atom(var(t.bound), m).name, term(t.inner, m))
        return t

    def walk(g: Formula, m: dict[str, Atom]) -> Formula:
        if names is None and m.keys().isdisjoint(_facts(g)[i]):
            return g
        cls = type(g)
        if cls is Pred:
            return Pred(g.name, tuple([atom(a, m) for a in g.args]))
        if cls is Neg:
            return Neg(walk(g.body, m))
        if cls is Impl:
            return Impl(walk(g.left, m), walk(g.right, m))
        if cls is Forall or cls is Exists:
            if names is not None:
                new = next(names)
                return cls(new.name, walk(g.body, {**m, g.bound: new}))
            for x, b in m.items():
                if b.name == g.bound and b.kind == VAR and x in _facts(g.body)[i]:
                    raise CaptureError(f"{b} replacing {Atom(kind, x)} would be captured")
            if kind == VAR and g.bound in m:
                m = {x: b for x, b in m.items() if x != g.bound}
            return cls(g.bound, walk(g.body, m))
        if cls is Assert:
            t = g.term if names is None else term(g.term, m)
            window = tuple([atom(a, m) for a in g.window])
            if kind == VAR:
                m = {x: b for x, b in m.items() if x in free_vars(g)}
            return Assert(t, window, walk(g.body, m))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, swap)


def substitute(f: Formula, x: str, a: Atom) -> Formula:
    """Replace every free occurrence of individual variable ``x`` by ``a``.

    Raises :class:`CaptureError` when ``a`` is a variable that would be
    captured by a quantifier.  Occurrences in an assertion are touched
    only when ``x`` belongs to its window.
    """
    return _rebuild(f, VAR, {x: a})


def substitute_param(f: Formula, u: str, a: Atom) -> Formula:
    """Replace every occurrence of parameter ``u`` in ``f`` by ``a``.

    Parameters occur freely everywhere (they are never bound), so all
    occurrences are replaced, nested windows included.  When ``a`` is an
    individual variable, placing it under a quantifier binding the same
    name raises :class:`CaptureError`.
    """
    return _rebuild(f, PARAM, {u: a})


def canonical(f: Formula, rename_free: bool = False) -> Formula:
    """Rename bound variables to a canonical sequence ``0, 1, ...`` by
    preorder position (de Bruijn's nameless dummies).  No parser produces
    such a name, so a bound variable never meets a free one of the same
    name.  The result is cached on ``f`` and is its own canonical form.

    With ``rename_free`` every remaining individual variable is also
    renamed, by first occurrence, to ``_f0, _f1, ...``; two formulas are
    variable variants iff their fully renamed forms coincide.
    """
    names = map(var, map(str, count()))
    if rename_free:
        return _rebuild(f, VAR, {}, names, _FirstSeen())
    g = f._canon
    if g is None:
        g = f._canon = _rebuild(f, VAR, {}, names)
        g._canon = g
    return g


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return f == g or canonical(f) == canonical(g)


def variable_variant(f: Formula, g: Formula) -> bool:
    """True iff the formulas differ only by a bijective renaming of free
    and bound individual variables."""
    return canonical(f, rename_free=True) == canonical(g, rename_free=True)
