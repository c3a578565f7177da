"""Shared fixtures: the proved-goal corpus, data paths, and a seeded
random formula generator used for round-trip testing.

The tests import folp from ``PYTHONPATH`` or the installed package, and
from this checkout's ``src`` only when neither has it; the report
header names the file imported."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import folp
except ModuleNotFoundError as exc:
    if exc.name != "folp":
        raise
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import folp

from folp import (
    Assert,
    Atom,
    Exists,
    Forall,
    Formula,
    Impl,
    Neg,
    Pred,
    SearchBudget,
    TermConst,
    TermVar,
    App,
    Bang,
    Gen,
    Sum,
    Term,
    elem,
    param,
    var,
)
from folp.fileio import read_cs_file
from folp.syntax import elem_set, par_set, universal_closure

DATA = Path(__file__).parent / "data"


def pytest_report_header(config):
    return f"folp: {folp.__file__}"


# Predicate names at fixed arities, shared by the generator and corpus.
_PREDS = {"Q0": 0, "Q1": 0, "Q2": 0, "Q": 1, "R": 1, "S": 2}
_VARS = ("x", "y", "z")
_PARAMS = ("u", "w")
_ELEMS = ("a", "b")
_CONSTS = ("c",)
_PROOF_VARS = ("p", "q", "r")


@pytest.fixture(scope="session")
def corpus_cs():
    return read_cs_file(DATA / "corpus.cs")


@pytest.fixture(scope="session")
def example1_cs():
    return read_cs_file(DATA / "example1.cs")


def model_paths() -> list[Path]:
    return sorted((DATA / "models").glob("*.json"))


def run_fresh(script: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with the default stack, as
    the CLI would, importing the folp that the tests import; ``env`` adds
    to the environment."""
    src = str(Path(folp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def replace(record, **changes):
    """A copy of the record ``record``, a ``_node`` class's instance, with
    the fields named in ``changes`` set to their values."""
    return type(record)(**{**{f: getattr(record, f) for f in record.__slots__}, **changes})


# Goals provable under the corpus CS: three instances per axiom scheme
# (windowed schemes as universal closures, which is what makes them
# sentences), the golden goal, and assorted small theorems.
CORPUS_GOALS: tuple[str, ...] = (
    # P1
    "Q0 -> Q1 -> Q0",
    "(Q0 -> Q1) -> Q2 -> Q0 -> Q1",
    "p : Q0 -> Q1 -> p : Q0",
    # P2
    "(Q0 -> Q1 -> Q2) -> (Q0 -> Q1) -> Q0 -> Q2",
    "(Q0 -> Q0 -> Q1) -> (Q0 -> Q0) -> Q0 -> Q1",
    "((Q0 -> Q1) -> Q2 -> Q0) -> ((Q0 -> Q1) -> Q2) -> (Q0 -> Q1) -> Q0",
    # P3
    "(~Q0 -> ~Q1) -> Q1 -> Q0",
    "(~~Q0 -> ~Q1) -> Q1 -> ~Q0",
    "(~(Q0 -> Q1) -> ~Q2) -> Q2 -> Q0 -> Q1",
    # Q1
    "forall x. Q0 -> Q0",
    "forall y. (forall x. Q(x) -> Q(y))",
    "forall y. (forall x. (Q(x) -> Q0) -> Q(y) -> Q0)",
    # Q2
    "forall x. (Q(x) -> R(x)) -> forall x. Q(x) -> forall x. R(x)",
    "forall x. (Q(x) -> Q(x)) -> forall x. Q(x) -> forall x. Q(x)",
    "forall z. (Q(z) -> Q0) -> forall z. Q(z) -> forall z. Q0",
    # Q3
    "Q0 -> forall x. Q0",
    "p : Q1 -> forall y. p : Q1",
    "(Q0 -> Q1) -> forall z. (Q0 -> Q1)",
    # Q4
    "Q0 -> exists x. Q0",
    "forall y. (Q(y) -> exists x. Q(x))",
    "forall x. (Q(x) -> Q0) -> exists x. Q(x) -> Q0",
    # CTR
    "forall y. (p :[y] Q0 -> p : Q0)",
    "forall x. forall y. (p :[x, y] Q(x) -> p :[x] Q(x))",
    "forall y. (q :[y] Q1 -> q : Q1)",
    # EXP
    "forall y. (p : Q0 -> p :[y] Q0)",
    "forall x. forall y. (p :[x] Q(x) -> p :[x, y] Q(x))",
    "forall y. (q : Q1 -> q :[y] Q1)",
    # SUM1
    "p : Q0 -> (p + q) : Q0",
    "forall y. (p :[y] Q(y) -> (p + q) :[y] Q(y))",
    "p : (Q0 -> Q1) -> (p + q) : (Q0 -> Q1)",
    # SUM2
    "q : Q0 -> (p + q) : Q0",
    "forall y. (q :[y] Q(y) -> (p + q) :[y] Q(y))",
    "q : (Q0 -> Q1) -> (p + q) : (Q0 -> Q1)",
    # JK
    "p : (Q0 -> Q1) -> q : Q0 -> (p * q) : Q1",
    "forall x. (p :[x] (Q(x) -> R(x)) -> q :[x] Q(x) -> (p * q) :[x] R(x))",
    "p : (Q0 -> Q0) -> q : Q0 -> (p * q) : Q0",
    # JT
    "p : Q0 -> Q0",
    "forall x. (p :[x] Q(x) -> Q(x))",
    "q : (Q0 -> Q1) -> Q0 -> Q1",
    # J4
    "p : Q0 -> !p : p : Q0",
    "forall x. (p :[x] Q(x) -> !p :[x] p :[x] Q(x))",
    "q : Q1 -> !q : q : Q1",
    # GEN
    "p : Q0 -> gen<x>(p) : forall x. Q0",
    "forall y. (p :[y] Q(y) -> gen<x>(p) :[y] forall x. Q(y))",
    "q : Q1 -> gen<z>(q) : forall z. Q1",
    # golden goal
    "p : forall x. A(x) -> forall x. (c * p) :[x] A(x)",
    # assorted small theorems
    "Q0 -> Q0",
    "~~Q0 -> Q0",
    "Q0 -> ~~Q0",
    "forall x. Q(x) -> forall y. Q(y)",
    "exists x. Q0 -> Q0",
    "p : Q0 -> (q + p) : Q0",
    "(p + q) : Q0 -> Q0",
    "!p : p : Q0 -> p : Q0",
    "c : (forall x. A(x) -> A(x))",
)

# Non-theorems under the corpus CS.
NON_THEOREMS: tuple[str, ...] = tuple(
    line
    for line in (DATA / "non_theorems.txt").read_text().splitlines()
    if line and not line.startswith("#")
)

# One representative per scheme, in matcher order, used by scheme-level
# provability tests.
SCHEME_GOALS: dict[str, tuple[str, str, str]] = {
    "P1": CORPUS_GOALS[0:3],
    "P2": CORPUS_GOALS[3:6],
    "P3": CORPUS_GOALS[6:9],
    "Q1": CORPUS_GOALS[9:12],
    "Q2": CORPUS_GOALS[12:15],
    "Q3": CORPUS_GOALS[15:18],
    "Q4": CORPUS_GOALS[18:21],
    "CTR": CORPUS_GOALS[21:24],
    "EXP": CORPUS_GOALS[24:27],
    "SUM1": CORPUS_GOALS[27:30],
    "SUM2": CORPUS_GOALS[30:33],
    "JK": CORPUS_GOALS[33:36],
    "JT": CORPUS_GOALS[36:39],
    "J4": CORPUS_GOALS[39:42],
    "GEN": CORPUS_GOALS[42:45],
}


def random_term(rng: random.Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.2:
            return TermConst(rng.choice(_CONSTS))
        return TermVar(rng.choice(_PROOF_VARS))
    kind = rng.randrange(4)
    if kind == 0:
        return Sum(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == 1:
        return App(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == 2:
        return Bang(random_term(rng, depth - 1))
    return Gen(rng.choice(_VARS), random_term(rng, depth - 1))


def random_atom(rng: random.Random) -> Atom:
    return rng.choice(
        [var(rng.choice(_VARS)), param(rng.choice(_PARAMS)), elem(rng.choice(_ELEMS))]
    )


def random_window(rng: random.Random) -> tuple[Atom, ...]:
    return tuple([random_atom(rng) for _ in range(rng.randrange(3))])


def random_formula(rng: random.Random, depth: int = 4) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        name = rng.choice(list(_PREDS))
        args = tuple(random_atom(rng) for _ in range(_PREDS[name]))
        return Pred(name, args)
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_formula(rng, depth - 1))
    if kind == 1:
        return Impl(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        cls = Forall if rng.random() < 0.5 else Exists
        return cls(rng.choice(_VARS), random_formula(rng, depth - 1))
    if kind == 3:
        window = random_window(rng)
        return Assert(random_term(rng, depth - 1), window, random_formula(rng, depth - 1))
    return Impl(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


_P, _Q = TermVar("p"), TermVar("q")

# Shapes of valid sentences, each built of two formulas.
_VALID_SHAPES = (
    lambda a, b: Impl(a, a),
    lambda a, b: Impl(Impl(a, b), Impl(Neg(b), Neg(a))),
    lambda a, b: Impl(Assert(_P, (), a), a),
    lambda a, b: Impl(Assert(_Q, (), a), Assert(Sum(_P, _Q), (), a)),
    lambda a, b: Impl(Assert(_P, (), a), Assert(Bang(_P), (), Assert(_P, (), a))),
    lambda a, b: Impl(Assert(_P, (), Impl(a, b)), Impl(Assert(_Q, (), a), Assert(App(_P, _Q), (), b))),
    lambda a, b: Impl(Forall("x", a), Exists("x", a)),
)


# The census signature: every sentence up to a size over ``Q0``, ``Q1``,
# ``~``, ``->`` and ``t : A``, with ``t`` one of these terms.
CENSUS_TERMS = (_P, _Q, Sum(_P, _Q), App(_P, _Q))


def census_sentences(k: int) -> list[Formula]:
    """Every sentence of size at most ``k`` over the census signature, by
    size: an atom has size 1, and ``~A``, ``t : A`` and ``A -> B`` one
    more than their parts together."""
    by_size: dict[int, list[Formula]] = {1: [Pred("Q0", ()), Pred("Q1", ())]}
    for n in range(2, k + 1):
        smaller = by_size[n - 1]
        by_size[n] = [Neg(f) for f in smaller]
        by_size[n] += [Assert(t, (), f) for t in CENSUS_TERMS for f in smaller]
        by_size[n] += [Impl(a, b) for i in range(1, n - 1)
                       for a in by_size[i] for b in by_size[n - 1 - i]]
    return [f for formulas in by_size.values() for f in formulas]


def random_sentence(rng: random.Random) -> Formula:
    """A ``random_formula``, or one of a few valid shapes built of two,
    closed universally, so that most are provable; a draw that keeps a
    parameter or a domain element is drawn again."""
    while True:
        a, b = (random_formula(rng, rng.randint(1, 4)) for _ in range(2))
        shape = rng.randrange(len(_VALID_SHAPES) + 1)
        goal = universal_closure(_VALID_SHAPES[shape - 1](a, b) if shape else a)
        if not (par_set(goal) or elem_set(goal)):
            return goal


# ---------------------------------------------------------------------------
# Formula families scaled by n, proved under the corpus CS.

# The budget of the scaled families: large enough never to bind.
FAMILY_BUDGET = SearchBudget(max_nodes=100_000, max_depth=5_000)


def chain(n: int) -> str:
    steps = [f"(P{i} -> P{i + 1})" for i in range(n)]
    return " -> ".join(["P0", *steps, f"P{n}"])


def cases(n: int) -> str:
    premises = []
    for signs in itertools.product((False, True), repeat=n):
        lits = [("~" if neg else "") + f"P{i}" for i, neg in enumerate(signs)]
        premises.append("(" + " -> ".join([*lits, "Q0"]) + ")")
    return " -> ".join([*premises, "Q0"])


def sum_family(n: int) -> str:
    term = " + ".join(["p", *(f"q{i}" for i in range(n))])
    return f"p : Q0 -> ({term}) : Q0"


def app(n: int) -> str:
    premises = [f"p{i} : (Q{i} -> Q{i + 1})" for i in range(n)]
    term = "q"
    for i in range(n):
        term = f"(p{i} * {term})"
    return " -> ".join([*premises, "q : Q0", f"{term} : Q{n}"])


def qchain(n: int) -> str:
    """chain-n under ``forall x``: each step is a universal implication."""
    steps = [f"(forall x. (P{i}(x) -> P{i + 1}(x)))" for i in range(n)]
    return " -> ".join(["(forall x. P0(x))", *steps, f"forall x. P{n}(x)"])


def echain(n: int) -> str:
    """qchain-n with ``exists`` in the first premise and the conclusion."""
    steps = [f"(forall x. (P{i}(x) -> P{i + 1}(x)))" for i in range(n)]
    return " -> ".join(["(exists x. P0(x))", *steps, f"exists x. P{n}(x)"])
