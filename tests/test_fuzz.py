"""Robustness: readers and the checker on random and mutated input.

Whatever the input, the only results allowed are a value, a ``Verdict``,
or a ``ParseError``/``FileFormatError``/``ModelError``; never another
exception.  Texts are drawn from the characters and tokens of the
grammar; JSON documents are shipped models and corpus proofs with a few
random edits.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from folp import ModelError, ParseError, Verdict, check_proof, parse_formula, prove
from folp.fileio import FileFormatError, parse_cs, parse_model, parse_proof, proof_to_dict
from conftest import CORPUS_GOALS, DATA, model_paths

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

TOKENS = (
    "forall", "exists", "gen", "const", "total", "variant-closed", "scheme", "JT", "P1",
    "x", "y", "p", "q", "c", "@u", "$a", "Q0", "Q", "R", "->", "~", ":", ".", ",",
    "(", ")", "[", "]", "<", ">", "+", "*", "!", "#", "\n",
)
texts = st.one_of(
    st.text(alphabet="xyzpcQR01@$_~:.,()[]<>+*!#- \né", max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join),
)

CS = parse_cs((DATA / "corpus.cs").read_text())
MODELS = [json.loads(p.read_text()) for p in model_paths()]
PROOFS = [
    (parse_formula(g, CS.constants), proof_to_dict(prove(parse_formula(g, CS.constants), CS).tree))
    for g in CORPUS_GOALS[::7]
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=6),
    lambda v: st.lists(v, max_size=3) | st.dictionaries(st.text(max_size=6), v, max_size=3),
    max_leaves=5,
)


def _places(doc, path=()):
    """Every path to a value in ``doc``, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, (*path, key))


def _mutate(data, doc):
    """``doc`` with one to three random edits: a value replaced by random
    JSON, a text cut or extended, or a key or item removed."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_places(doc))))
        if not path:
            return data.draw(json_values)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        edit = data.draw(st.sampled_from(["replace", "delete", "text"]))
        if edit == "delete":
            del parent[key]
        elif edit == "text" and isinstance(value, str):
            cut = data.draw(st.integers(0, len(value)))
            parent[key] = value[:cut] + data.draw(texts)
        else:
            parent[key] = data.draw(json_values)
    return doc


@FUZZ
@given(texts)
def test_parse_formula(text):
    try:
        parse_formula(text, {"c"})
    except ParseError:
        pass


@FUZZ
@given(texts)
def test_parse_cs(text):
    try:
        parse_cs(text)
    except (ParseError, FileFormatError):
        pass


@FUZZ
@given(st.data())
def test_parse_model(data):
    doc = _mutate(data, data.draw(st.sampled_from(MODELS)))
    try:
        parse_model(doc, CS.constants)
    except (FileFormatError, ModelError):
        pass


@FUZZ
@given(st.data())
def test_parse_and_check_proof(data):
    goal, doc = data.draw(st.sampled_from(PROOFS))
    try:
        tree = parse_proof(_mutate(data, doc), CS.constants)
    except (ParseError, FileFormatError):
        return
    assert isinstance(check_proof(tree, CS, expected_goal=goal), Verdict)
