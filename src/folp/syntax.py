"""Abstract syntax for first order logic of proofs.

Formulas extend first order logic with justification assertions
``t :_X A`` whose subscript ``X`` (the "window") lists the atoms that
are substitutable-for and not quantifiable.  Three disjoint atom
namespaces exist: individual variables (bare lowercase), parameters
(``@u``), and domain elements (``$a``).  Parameters and domain elements
are never bound by quantifiers.

Values are never changed after construction (they cache their hash);
windows are kept as sorted duplicate-free tuples so structural equality
of formulas is plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Slotted dataclass with a hash cached in ``_hash``.  (``dataclass``
    keeps a ``__hash__`` set before decoration.)"""
    key = attrgetter(*cls.__annotations__)
    tag = cls.__name__

    def __hash__(self) -> int:
        h = self._hash
        if not h:
            h = hash((tag, key(self)))
            self._hash = h
        return h

    cls.__hash__ = __hash__
    return dataclass(slots=True)(cls)


# ---------------------------------------------------------------------------
# Justification terms


@dataclass(slots=True, eq=False)
class Term:
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return _fmt_term(self)


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


def _fmt_term(t: Term, required: int = 0) -> str:
    """``t`` in parentheses if its level (0: sum, 1: application, 2:
    prefix or atomic) is below ``required``; one stack frame per level."""
    if isinstance(t, Sum):
        level, s = 0, f"{_fmt_term(t.left, 0)}+{_fmt_term(t.right, 1)}"
    elif isinstance(t, App):
        level, s = 1, f"{_fmt_term(t.left, 1)}*{_fmt_term(t.right, 2)}"
    elif isinstance(t, Bang):
        level, s = 2, "!" + _fmt_term(t.inner, 2)
    elif isinstance(t, Gen):
        level, s = 2, f"gen<{t.bound}>({_fmt_term(t.inner)})"
    else:
        level, s = 2, t.name  # type: ignore[attr-defined]
    return f"({s})" if level < required else s


def subterms(t: Term) -> Iterator[Term]:
    """Yield ``t`` and every subterm of ``t``."""
    yield t
    if isinstance(t, (Sum, App)):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, Bang):
        yield from subterms(t.inner)
    elif isinstance(t, Gen):
        yield from subterms(t.inner)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(slots=True, eq=False)
class Formula:
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _facts: Optional[_Facts] = field(default=None, init=False, repr=False, compare=False)

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


class _Facts(NamedTuple):
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
    yield f
    if isinstance(f, Neg):
        yield from subformulas(f.body)
    elif isinstance(f, Impl):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Forall, Exists, Assert)):
        yield from subformulas(f.body)


# ---------------------------------------------------------------------------
# Substitution


def substitute(f: Formula, x: str, a: Atom) -> Formula:
    """Replace every free occurrence of individual variable ``x`` by ``a``.

    Raises :class:`CaptureError` when ``a`` is a variable that would be
    captured by a quantifier.  Occurrences in an assertion are touched
    only when ``x`` belongs to its window.
    """
    if isinstance(f, Pred):
        return Pred(
            f.name,
            tuple(a if (g.kind == VAR and g.name == x) else g for g in f.args),
        )
    if isinstance(f, Neg):
        return Neg(substitute(f.body, x, a))
    if isinstance(f, Impl):
        return Impl(substitute(f.left, x, a), substitute(f.right, x, a))
    if isinstance(f, (Forall, Exists)):
        if f.bound == x or x not in free_vars(f.body):
            return f
        if a.kind == VAR and a.name == f.bound:
            raise CaptureError(
                f"substituting {a} for {x} would be captured by the "
                f"quantifier binding {f.bound}"
            )
        return type(f)(f.bound, substitute(f.body, x, a))
    if isinstance(f, Assert):
        wnames = {w.name for w in f.window if w.kind == VAR}
        if x not in wnames:
            return f
        new_window = tuple(
            a if (w.kind == VAR and w.name == x) else w for w in f.window
        )
        return Assert(f.term, new_window, substitute(f.body, x, a))
    raise TypeError(f"not a formula: {f!r}")


def substitute_param(f: Formula, u: str, a: Atom) -> Formula:
    """Replace every occurrence of parameter ``u`` in ``f`` by ``a``.

    Parameters occur freely everywhere (they are never bound), so all
    occurrences are replaced, nested windows included.  When ``a`` is an
    individual variable, placing it under a quantifier binding the same
    name raises :class:`CaptureError`.
    """
    if u not in par_set(f):
        return f
    if isinstance(f, Pred):
        return Pred(
            f.name,
            tuple(a if (g.kind == PARAM and g.name == u) else g for g in f.args),
        )
    if isinstance(f, Neg):
        return Neg(substitute_param(f.body, u, a))
    if isinstance(f, Impl):
        return Impl(substitute_param(f.left, u, a), substitute_param(f.right, u, a))
    if isinstance(f, (Forall, Exists)):
        if a.kind == VAR and a.name == f.bound:
            raise CaptureError(
                f"replacing @{u} by {a} under the quantifier binding {f.bound}"
            )
        return type(f)(f.bound, substitute_param(f.body, u, a))
    assert isinstance(f, Assert)
    new_window = tuple(a if (w.kind == PARAM and w.name == u) else w for w in f.window)
    return Assert(f.term, new_window, substitute_param(f.body, u, a))


def universal_closure(f: Formula) -> Formula:
    """Quantify the free individual variables of ``f``, lexicographically.

    Parameters and domain elements are never quantified.
    """
    out = f
    for name in sorted(free_vars(f), reverse=True):
        out = Forall(name, out)
    return out


# ---------------------------------------------------------------------------
# Canonical renaming and variable variants


def canonical(f: Formula, rename_free: bool = False) -> Formula:
    """Rename bound variables to a canonical sequence ``_b0, _b1, ...``.

    With ``rename_free`` every remaining individual variable is also
    renamed, by first occurrence, to ``_f0, _f1, ...``; two formulas are
    variable variants iff their fully renamed forms coincide.
    """
    bound_counter = [0]
    free_map: dict[str, str] = {}

    def map_name(name: str, env: dict[str, str]) -> str:
        if name in env:
            return env[name]
        if rename_free:
            return free_map.setdefault(name, f"_f{len(free_map)}")
        return name

    def map_atom(a: Atom, env: dict[str, str]) -> Atom:
        if a.kind == VAR:
            return Atom(VAR, map_name(a.name, env))
        return a

    def walk_term(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, (TermVar, TermConst)):
            return t
        if isinstance(t, (Sum, App)):
            return type(t)(walk_term(t.left, env), walk_term(t.right, env))
        if isinstance(t, Bang):
            return Bang(walk_term(t.inner, env))
        if isinstance(t, Gen):
            return Gen(map_name(t.bound, env), walk_term(t.inner, env))
        raise TypeError(f"not a term: {t!r}")

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Pred):
            return Pred(g.name, tuple(map_atom(a, env) for a in g.args))
        if isinstance(g, Neg):
            return Neg(walk(g.body, env))
        if isinstance(g, Impl):
            return Impl(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Forall, Exists)):
            fresh = f"_b{bound_counter[0]}"
            bound_counter[0] += 1
            return type(g)(fresh, walk(g.body, {**env, g.bound: fresh}))
        if isinstance(g, Assert):
            wnames = {w.name for w in g.window if w.kind == VAR}
            # Only window variables are visible through an assertion;
            # other bindings do not reach into the body.
            inner_env = {k: v for k, v in env.items() if k in wnames}
            return Assert(
                walk_term(g.term, env),
                tuple(map_atom(a, env) for a in g.window),
                walk(g.body, inner_env),
            )
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return f == g or canonical(f) == canonical(g)


def variable_variant(f: Formula, g: Formula) -> bool:
    """True iff the formulas differ only by a bijective renaming of free
    and bound individual variables."""
    return canonical(f, rename_free=True) == canonical(g, rename_free=True)
