"""Seeded inputs for the three benchmark workloads.

Every item is one goal or query that the benchmark takes to a checked
verdict through ``folp.cli.main``.  The seed decides the corpus variants
and the order of items; the item sets of ``families`` and ``models`` are
fixed, so that their figures compare across seeds.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

DATA = Path(__file__).resolve().parent / "data"
CS_PATH = DATA / "corpus.cs"

# Proof kinds and the verdict each must reach.
PROOF, MODEL, REFUTE = "proof", "model", "refute"
EXPECTED = {PROOF: "proved", MODEL: "true", REFUTE: "refuted"}

# Per-item limit in seconds.  It is the prover's --timeout, and PAR-2
# charges a failed or undecided item twice this value.  corpus and models
# use the acceptance gates of the test suite (5 s per proof, 10 s per
# non-theorem); families uses the CLI's default search limit.
LIMITS = {"corpus": 5.0, "families": 30.0, "models": 10.0}

# The families need more room than the default budget: chain-256
# branches reach 1,027 nodes deep.
FAMILY_BUDGET = ("--max-nodes", "100000", "--max-depth", "5000")

FAMILY_SIZES = {
    "chain": (32, 64, 128, 256),
    # cases-5 (22,979 nodes, about 17 s) is left out: one sample of it per
    # run spread by up to 30 % between runs on a shared 2-CPU machine, and
    # no run length the benchmark can afford fits a second one.
    "cases": (3, 4),
    "sum": (32, 64, 128),
    "app": (4, 8, 12, 16),
}

_TOKEN = re.compile(r"->|[A-Za-z_@$][A-Za-z0-9_]*|[~:.,()\[\]<>+*!]")
_WORD = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


@dataclass(frozen=True)
class Item:
    id: str
    kind: str
    goal: str
    size: int  # tokens in the goal
    family: Optional[str] = None
    n: Optional[int] = None
    model: Optional[str] = None  # model file name, for MODEL items

    @property
    def expected(self) -> str:
        return EXPECTED[self.kind]


@dataclass
class Workload:
    name: str
    limit_s: float
    items: list[Item]
    prove_flags: tuple[str, ...] = field(default=())


def read_lines(name: str) -> list[str]:
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    return [s.strip() for s in lines if s.strip() and not s.startswith("#")]


def model_files() -> list[Path]:
    return sorted((DATA / "models").glob("*.json"))


def size_of(text: str) -> int:
    return len(_TOKEN.findall(text))


# ---------------------------------------------------------------------------
# Formula families


def chain(n: int) -> str:
    """P0 -> (P0 -> P1) -> ... -> (P{n-1} -> Pn) -> Pn: n modus-ponens
    steps on one branch, so the proof is a path about 4n nodes deep."""
    steps = [f"(P{i} -> P{i + 1})" for i in range(n)]
    return " -> ".join(["P0", *steps, f"P{n}"])


def cases(n: int) -> str:
    """One premise l0 -> ... -> l{n-1} -> Q0 for each of the 2^n sign
    choices (li is Pi or ~Pi), then -> Q0: a case split on n atoms whose
    tableau grows exponentially in n."""
    premises = []
    for signs in itertools.product((False, True), repeat=n):
        lits = [("~" if neg else "") + f"P{i}" for i, neg in enumerate(signs)]
        premises.append("(" + " -> ".join([*lits, "Q0"]) + ")")
    return " -> ".join([*premises, "Q0"])


def sum_family(n: int) -> str:
    """p : Q0 -> (p + q0 + ... + q{n-1}) : Q0: n FPlus steps, one per
    summand, on a single deep branch."""
    term = " + ".join(["p", *(f"q{i}" for i in range(n))])
    return f"p : Q0 -> ({term}) : Q0"


def app(n: int) -> str:
    """p0 : (Q0 -> Q1) -> ... -> p{n-1} : (Q{n-1} -> Qn) -> q : Q0 ->
    (p{n-1} * (... (p0 * q))) : Qn: n nested applications, each closed by
    an FDot cut the prover must find among its candidates."""
    premises = [f"p{i} : (Q{i} -> Q{i + 1})" for i in range(n)]
    term = "q"
    for i in range(n):
        term = f"(p{i} * {term})"
    return " -> ".join([*premises, "q : Q0", f"{term} : Q{n}"])


FAMILIES = {"chain": chain, "cases": cases, "sum": sum_family, "app": app}


# ---------------------------------------------------------------------------
# Corpus variants

# corpus.cs fixes the predicate A and the constant c; x, y, z are the
# individual variables of the corpus.  A renamed symbol keeps its length,
# so a variant's proofs have the same size as the original's.
_PROOF_VARS = ("p", "q", "r")
_PREDICATES = ("Q0", "Q1", "Q2", "Q", "R")
_LOWER = "bdefghijklmnopqrstuvw"
_UPPER = "BCDEFGHIJKLMNOPQRSTUVWXYZ"


def _renaming(rng: random.Random) -> dict[str, str]:
    out = dict(zip(_PROOF_VARS, rng.sample(_LOWER, len(_PROOF_VARS))))
    singles = [p for p in _PREDICATES if len(p) == 1]
    out.update(zip(singles, rng.sample(_UPPER, len(singles))))
    pairs = [a + d for a in _UPPER for d in "0123456789"]
    doubles = [p for p in _PREDICATES if len(p) == 2]
    out.update(zip(doubles, rng.sample(pairs, len(doubles))))
    return out


def rename(text: str, mapping: dict[str, str]) -> str:
    return _WORD.sub(lambda m: mapping.get(m.group(), m.group()), text)


def _corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    goals = read_lines("corpus_goals.txt")
    items = []
    for v in range(10):
        mapping = _renaming(rng)
        for i, goal in enumerate(goals):
            text = rename(goal, mapping)
            items.append(Item(f"corpus-v{v}-g{i:02d}", PROOF, text, size_of(text)))
    rng.shuffle(items)
    return Workload("corpus", LIMITS["corpus"], items)


def _families(seed: int) -> Workload:
    items = []
    for family, sizes in FAMILY_SIZES.items():
        for n in sizes:
            text = FAMILIES[family](n)
            items.append(
                Item(f"{family}-{n}", PROOF, text, size_of(text), family, n)
            )
    random.Random(seed).shuffle(items)
    return Workload("families", LIMITS["families"], items, FAMILY_BUDGET)


def _models(seed: int) -> Workload:
    goals = read_lines("corpus_goals.txt")
    items = [
        Item(f"theorem-g{i:02d}", PROOF, g, size_of(g)) for i, g in enumerate(goals)
    ]
    for path in model_files():
        for i, g in enumerate(goals):
            items.append(
                Item(f"{path.stem}-g{i:02d}", MODEL, g, size_of(g), model=path.name)
            )
    for i, g in enumerate(read_lines("non_theorems.txt")):
        items.append(Item(f"non-theorem-{i}", REFUTE, g, size_of(g)))
    random.Random(seed).shuffle(items)
    return Workload("models", LIMITS["models"], items)


BUILDERS = {"corpus": _corpus, "families": _families, "models": _models}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
