"""Abstract syntax for first order logic of proofs.

Formulas extend first order logic with justification assertions
``t :_X A`` whose subscript ``X`` (the "window") lists the atoms that
are substitutable-for and not quantifiable.  Three disjoint atom
namespaces exist: individual variables (bare lowercase), parameters
(``@u``), and domain elements (``$a``).  Parameters and domain elements
are never bound by quantifiers.

Values are never changed after construction.  ``Atom``, each term and
formula class and folp's other records are slotted classes that ``_node``
makes from their fields.  Each node hashes itself when built, copied or
unpickled, from its children's cached hashes; formulas also cache their
atom facts, canonical form and negation.  Windows are sorted
duplicate-free tuples, so structural equality of formulas is plain ``==``.

Equal formulas may be one object, and the tableau's labels mostly are:
the parser shares repeated subformulas within one text, ``neg(f)``
returns one ``Neg(f)`` while that negation is alive, and a renaming
returns every part it leaves alone.  A dictionary lookup or ``==`` that
meets the same object on both sides does not walk it.  No slot but a
field is copied or pickled, so sharing never changes what a formula
equals, hashes to or prints as.

No value of this module is part of a reference cycle, so reference
counting frees each one as soon as it is dropped.  The negation cache,
``_neg``, is a weak reference, since the negation holds ``f`` as its
body; a formula that is its own canonical form records that with a
marker, not a reference to itself; and the renaming walk is made of
methods, not of a closure that calls itself.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator, NamedTuple, Optional
from weakref import ref

VAR = "var"
PARAM = "param"
ELEM = "elem"

_KIND_ORDER = {VAR: 0, PARAM: 1, ELEM: 2}
_KIND_SIGIL = {VAR: "", PARAM: "@", ELEM: "$"}


# ---------------------------------------------------------------------------
# The class maker.  Terms and formulas cache their hash, formulas their atoms.


def _node(name: str, bases: tuple, ns: dict, frozen: bool = False) -> type:
    """Metaclass of the term and formula classes and of every record,
    such as ``Atom`` or ``tableau.ProofNode``, made as slotted
    ``dataclasses`` would make them, without importing it.  A class's
    annotations are its fields, each a slot.  Its ``__init__`` takes them
    by position or keyword, with the defaults its body gives, and runs
    its ``__post_init__``, if any; its ``repr`` is the dataclass form
    (see ``_repr``).  A copy or an unpickled instance is made by that
    ``__init__`` (see ``_reduce``), so it computes its own hash.

    A term or formula, a class with a base, starts the base's cache
    slots (all but ``_hash`` and ``__weakref__``) as None and stores its
    hash in ``_hash``, read off its children's, so hashing never
    recurses; nor does equality (see ``_equal``).

    A record, a class without a base, compares the tuple of its fields
    with that of another of its class.  A ``frozen`` record refuses
    assignment and hashes that tuple; any other is unhashable."""
    fields = tuple(
        (field, kind in ("Term", "Formula")) for field, kind in ns["__annotations__"].items()
    )
    names = [field for field, _ in fields]
    defaults = tuple(ns.pop(field) for field in names if field in ns)
    post = [" self.__post_init__()"] if "__post_init__" in ns else []
    source = [f"def __init__(self, {', '.join(names)}):",
              *(f" _set(self, {f!r}, {f})" if frozen else f" self.{f} = {f}" for f in names)]
    if bases:
        read = "self." if post else ""
        key = [repr(name), *(f"{read}{field}._hash" if child else read + field
                             for field, child in fields)]
        caches = [slot for slot in bases[0].__slots__ if slot not in ("_hash", "__weakref__")]
        source += [*(f" self.{slot} = None" for slot in caches),
                   *post, f" self._hash = hash(({', '.join(key)}))"]
        ns.update(__hash__=_cached_hash, __eq__=_equal)
    else:
        own = "".join(f"self.{field}, " for field in names)
        source += [*post, "def __eq__(self, other):",
                   " if other.__class__ is not self.__class__: return NotImplemented",
                   f" return ({own}) == ({own.replace('self.', 'other.')})"]
        if frozen:
            source.append(f"def __hash__(self): return hash(({own}))")
            ns.update(__setattr__=_refuse, __delattr__=_refuse)
        else:
            ns["__hash__"] = None
    methods: dict = {}
    exec("\n".join(source), {"_set": object.__setattr__}, methods)
    methods["__init__"].__defaults__ = defaults
    for method, function in methods.items():
        function.__qualname__ = f"{name}.{method}"
    ns.update(methods, __slots__=tuple(names), __repr__=_repr, __reduce__=_reduce)
    return type(name, bases, ns)


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set field {name!r}")


def _cached_hash(self) -> int:
    return self._hash


def _reduce(self) -> tuple:
    """``copy`` and ``pickle`` rebuild ``self`` by calling its class on its fields."""
    return type(self), tuple([getattr(self, field) for field in type(self).__slots__])


def _repr(x) -> str:
    """The repr of a ``_node`` class's instance in the form a dataclass
    prints, ``Neg(body=...)``, built off a stack of nodes and finished text
    pieces, so no depth of nesting exhausts the interpreter's stack."""
    todo: list = [x]
    out: list[str] = []
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        parts = [type(x).__name__ + "("]
        for i, field in enumerate(type(x).__slots__):
            value = getattr(x, field)
            child = isinstance(value, (Term, Formula))
            parts += (", " * (i > 0) + field + "=", value if child else repr(value))
        parts.append(")")
        todo += reversed(parts)
    return "".join(out)


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
# Atoms


class Atom(metaclass=_node, frozen=True):
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
# Justification terms


class Term:
    __slots__ = ("_hash",)

    def __str__(self) -> str:
        from .parser import print_term

        return print_term(self)


class TermVar(Term, metaclass=_node):
    name: str


class TermConst(Term, metaclass=_node):
    name: str


class Sum(Term, metaclass=_node):
    left: Term
    right: Term


class App(Term, metaclass=_node):
    left: Term
    right: Term


class Bang(Term, metaclass=_node):
    inner: Term


class Gen(Term, metaclass=_node):
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


class Formula:
    # The hash, the atom facts (see ``_facts``), the canonical form (see
    # ``canonical``) and a weak reference to the negation (see ``neg``).
    __slots__ = ("_hash", "_facts", "_canon", "_neg", "__weakref__")

    def __str__(self) -> str:
        from .parser import print_formula

        return print_formula(self)  # type: ignore[arg-type]


Window = tuple[Atom, ...]


def mkwindow(atoms: Iterable[Atom]) -> Window:
    """Sorted duplicate-free window."""
    return tuple(sorted(set(atoms), key=Atom.sort_key))


class Pred(Formula, metaclass=_node):
    name: str
    args: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        self.args = tuple(self.args)


class Neg(Formula, metaclass=_node):
    body: Formula


def neg(f: Formula) -> Neg:
    """``Neg(f)``, one object for every call while it is alive.  ``f``'s
    ``_neg`` slot holds a weak reference to it: the negation holds ``f``
    as its body, so a strong one would make a cycle that only the cyclic
    collector frees."""
    r = f._neg
    g = None if r is None else r()
    if g is None:
        g = Neg(f)
        f._neg = ref(g)
    return g


class Impl(Formula, metaclass=_node):
    left: Formula
    right: Formula


class Forall(Formula, metaclass=_node):
    bound: str
    body: Formula


class Exists(Formula, metaclass=_node):
    bound: str
    body: Formula


class Assert(Formula, metaclass=_node):
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
    cached on ``f``.  Uncached children are folded first, off an explicit
    stack, so that nesting depth is not bounded by the interpreter's."""
    facts = f._facts
    if facts is not None:
        return facts
    facts = _fold_facts(f)
    stack = [f] if facts is None else []
    while stack:
        g = stack[-1]
        facts = _fold_facts(g)
        if facts is not None:
            g._facts = facts
            stack.pop()
        elif type(g) is Impl:
            if g.right._facts is None:
                stack.append(g.right)
            if g.left._facts is None:
                stack.append(g.left)
        else:
            stack.append(g.body)
    f._facts = facts
    return facts


def _fold_facts(f: Formula) -> Optional[_Facts]:
    """The facts of ``f`` from its children's, or None while a child's
    are not cached."""
    cls = type(f)
    if cls is Pred or cls is Assert:
        own = f.args if cls is Pred else f.window
        facts = _NO_FACTS if cls is Pred else f.body._facts
        if facts is None:
            return None
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
        facts = f.body._facts
    elif cls is Impl:
        left, right = f.left._facts, f.right._facts
        if left is None or right is None:
            return None
        if right is not _NO_FACTS and right is not left:
            facts = right if left is _NO_FACTS else _Facts(*map(_union, left, right))
        else:
            facts = left
    elif cls is Forall or cls is Exists:
        facts = f.body._facts
        if facts is not None and f.bound in facts.free:
            facts = facts._replace(free=facts.free - {f.bound} or _NONE)
    else:
        raise TypeError(f"not a formula: {f!r}")
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


class _Rebuild:
    """The one renaming walk, behind substitution, canonical forms and
    variable variants: ``walk(f, swap)`` is ``f`` with each atom of
    ``kind`` that ``swap`` reaches replaced by ``swap[name]``.  A window
    gates individual variables: only those in ``X`` reach into ``A`` of
    ``t :_X A``.  Other atoms reach everywhere.

    With ``names`` None a binder keeps its name, hides its variable from
    ``swap`` and raises :class:`CaptureError` if ``swap`` puts that
    variable below it.  Otherwise binders, in preorder, take the next of
    ``names``, and ``gen`` binders follow.  ``free`` renames the variables
    nothing else covers, wherever they are.

    A subformula or subterm whose children, atoms and binders all come
    out unchanged is returned itself, so the result shares every part
    that the renaming leaves alone.  The walk is made of methods, not
    closures: a nested function that calls itself is a reference cycle."""

    __slots__ = ("kind", "index", "names", "free")

    def __init__(self, kind: str, names: Optional[Iterator[Atom]] = None,
                 free: Optional[_FirstSeen] = None):
        self.kind, self.index, self.names, self.free = kind, _KIND_ORDER[kind], names, free

    def atom(self, a: Atom, m: dict[str, Atom]) -> Atom:
        if a.kind != self.kind:
            return a
        return m.get(a.name) or (a if self.free is None else self.free[a.name])

    def atoms(self, atoms: tuple[Atom, ...], m: dict[str, Atom]) -> tuple[Atom, ...]:
        out = tuple([self.atom(a, m) for a in atoms])
        return atoms if out == atoms else out

    def term(self, t: Term, m: dict[str, Atom]) -> Term:
        cls = type(t)
        if cls is Sum or cls is App:
            left, right = self.term(t.left, m), self.term(t.right, m)
            return t if left is t.left and right is t.right else cls(left, right)
        if cls is Bang:
            inner = self.term(t.inner, m)
            return t if inner is t.inner else Bang(inner)
        if cls is Gen:
            bound, inner = self.atom(var(t.bound), m).name, self.term(t.inner, m)
            return t if bound == t.bound and inner is t.inner else Gen(bound, inner)
        return t

    def walk(self, g: Formula, m: dict[str, Atom]) -> Formula:
        names = self.names
        if names is None and m.keys().isdisjoint(_facts(g)[self.index]):
            return g
        cls = type(g)
        if cls is Pred:
            args = self.atoms(g.args, m)
            return g if args is g.args else Pred(g.name, args)
        if cls is Neg:
            body = self.walk(g.body, m)
            return g if body is g.body else Neg(body)
        if cls is Impl:
            left, right = self.walk(g.left, m), self.walk(g.right, m)
            return g if left is g.left and right is g.right else Impl(left, right)
        if cls is Forall or cls is Exists:
            bound = g.bound
            if names is not None:
                new = next(names)
                bound, m = new.name, {**m, bound: new}
            else:
                for x, b in m.items():
                    if b.name == bound and b.kind == VAR and x in _facts(g.body)[self.index]:
                        raise CaptureError(f"{b} replacing {Atom(self.kind, x)} would be captured")
                if self.kind == VAR and bound in m:
                    m = {x: b for x, b in m.items() if x != bound}
            body = self.walk(g.body, m)
            return g if bound == g.bound and body is g.body else cls(bound, body)
        if cls is Assert:
            t = g.term if names is None else self.term(g.term, m)
            window = self.atoms(g.window, m)
            if self.kind == VAR:
                m = {x: b for x, b in m.items() if x in free_vars(g)}
            body = self.walk(g.body, m)
            if t is g.term and window is g.window and body is g.body:
                return g
            return Assert(t, window, body)
        raise TypeError(f"not a formula: {g!r}")


def substitute(f: Formula, x: str, a: Atom) -> Formula:
    """Replace every free occurrence of individual variable ``x`` by ``a``.

    Raises :class:`CaptureError` when ``a`` is a variable that would be
    captured by a quantifier.  Occurrences in an assertion are touched
    only when ``x`` belongs to its window.
    """
    return _Rebuild(VAR).walk(f, {x: a})


def substitute_param(f: Formula, u: str, a: Atom) -> Formula:
    """Replace every occurrence of parameter ``u`` in ``f`` by ``a``.

    Parameters occur freely everywhere (they are never bound), so all
    occurrences are replaced, nested windows included.  When ``a`` is an
    individual variable, placing it under a quantifier binding the same
    name raises :class:`CaptureError`.
    """
    return _Rebuild(PARAM).walk(f, {u: a})


# ``_canon`` of a formula that is its own canonical form.
_ITSELF = object()


def canonical(f: Formula) -> Formula:
    """Rename bound variables to a canonical sequence ``0, 1, ...`` by
    preorder position (de Bruijn's nameless dummies).  No parser produces
    such a name, so a bound variable never meets a free one of the same
    name.  The result shares every subformula the renaming leaves
    unchanged, so a formula without binders is its own canonical form,
    and every result is.  It is cached in ``f``'s ``_canon`` slot, as
    ``_ITSELF`` when it is ``f``, so that no formula refers to itself."""
    g = f._canon
    if g is None:
        g = _Rebuild(VAR, map(var, map(str, count()))).walk(f, {})
        f._canon = _ITSELF if g is f else g
        if g is not f:
            g._canon = _ITSELF
    return f if g is _ITSELF else g


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return f == g or canonical(f) == canonical(g)


def variable_variant(f: Formula, g: Formula) -> bool:
    """True iff the formulas differ only by a bijective renaming of free
    and bound individual variables: they coincide once their bound ones
    are renamed as by ``canonical`` and their free ones, by first
    occurrence, to ``_f0, _f1, ...``."""

    def renamed(h: Formula) -> Formula:
        return _Rebuild(VAR, map(var, map(str, count())), _FirstSeen()).walk(h, {})

    return renamed(f) == renamed(g)
