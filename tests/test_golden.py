"""Proof identity: digests of the prover's output, recorded before the
search moved to an agenda with cached formula facts.  Any change to the
search that alters a proof, even one the checker accepts, shows here.

The digest is the SHA-256 of ``json.dumps(proof_to_dict(tree),
sort_keys=True)``.  A last digest pins substitution and renaming the
same way (see ``test_rename_identity``).
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from folp import (
    App,
    Assert,
    Bang,
    CaptureError,
    Exists,
    Forall,
    Gen,
    Impl,
    Neg,
    Pred,
    Proved,
    Sum,
    alpha_eq,
    elem,
    param,
    parse_formula,
    print_formula,
    proof_to_dict,
    prove,
    substitute,
    substitute_param,
    var,
    variable_variant,
)
from folp.syntax import VAR
from conftest import (
    CORPUS_GOALS,
    FAMILY_BUDGET,
    app,
    cases,
    chain,
    random_formula,
    sum_family,
)

CORPUS_DIGESTS = (
    "3696c409e88bcbbba1e98872d21077b6341e75a5142b998e32e7d4e0d3b0ee6a",
    "c97dc58f7365279547264c7df2c385ad25772a913f849026a203e1478871428a",
    "dee810d410cf4205d2e44f9ae81fac6dde5026b9a452fe8bee5d15486ffc88df",
    "3ab9676465b06cae4aa9c9773e98abc6a497ab410039c8d2baa681ec6137d20f",
    "47edb9ee126fb64bcf89d76e10af252ef507f6679fea7ef3a96e55df1e0cf8d8",
    "de45e6ccc2c8f596c1ea0836ed021a07bbc0bb683674f706afe15d35a3db7bef",
    "6b8e87d61389b5c4d02dc4d48f92ff189321755d8a009e9dbec0ee3894226e8a",
    "9e75368fad0bd6419c69cafe78fc73958978cc94329eb61e0f0b23a00e317f22",
    "9f9f935d93a76507015e8939773682181036acd17ff94127b10fe40c393e3dbc",
    "3dac5680529be5f94e35d2161fa2176791105d50debfa822d4930a8785e9b2eb",
    "091eda15c4ef5b762c3ced61fefdf89f9d3d367d7428079bd8c52fdfa175be5d",
    "546cf20c283922e49819ffbf0e404c62605f566185b0f56840245a577aaf0b1b",
    "38e8d33966f572deba913a7e8cdaa3e7d8a596304ed06a752fb597c0956344c6",
    "a7fc864b6b1e04f9fe4a59ef0a771d766a7643b9337b337f84eb6839165457a4",
    "80339561617e90abaa7794b13b0a11e4c2fc01100823c4c8081cbc3733dfba1b",
    "0b75a68da5fc396554ec8224da23e2fb14f628fb946dd200cdb07c9ccc25ef29",
    "12596f3b2b5aa141358b4204e717706300b16ee0c1b44149b129c69f742a886d",
    "2695e7a16da02165b1e2d83f562e988fccc19cb5e1a8a51dbdbf847aac643360",
    "fea2ae87f38b8689230159b6d5dac6b72f09d977ed6e3f22c93eaaae856015ad",
    "e0c831147b1a5cfdc3d97a887cc47bc9449ae6225402e4f5e098ff9be4bea2fc",
    "b000d5c955e792351cf73c92d2b62ab78bd8fd37fbea073e0a9fb7466db082d7",
    "3ce1ba0b7d6bc4e7b557321a7bb59ffa33291ad3e8536cae986938c3cbe69d85",
    "658a7d6c8cfef45e000f2ae467bb07f527a2ca7abcd7324fb3fb32f69f46a883",
    "a97d944ba0bf16843bb06cb0e03d2f7decb1bd5edb18617b00f0ee28238d455a",
    "f41054f478b3c83aa019c415fae5e84c9fee5890d1a2ec6c5fa82e7ec13f6d30",
    "91d8d9b6153a13b2a0d98325a0727b8829a4f140f8b82dbd5bc9cd28b3cc9edc",
    "d1af7389bea80d43a3d9754b752e8796d869c0f97cd9ff085e8bac3c322c6e17",
    "a07287f3f063ee295f0a763a8318050a024f1f4b929c058a17f517a33d967220",
    "795c7a433a0e4eed5495746116f7befdba2e9a734b5cc173b919f290178ba23b",
    "176576162b0270acc20f91a6176d1edc42bcad307b0804229d44bf2fc366e20a",
    "da467d7fed1da2633f6c61aab96f9fbfe80a004899a14b6941003a1a596e5536",
    "6af0367d3dd4be726fa722fb9928e4086d8c895f4dd5e4aa0d4764e472530383",
    "2b62245bf40b2069e3c0e4c9d39f9d207cfe335a34651f7fefc3886e303eb6ef",
    "1a4d56440d830cbd3980fec231613489b807b595e8624812aeba628361bae08f",
    "e056a1b6e4cb2815f8a41329f7e02ba2ad75fddeb2e16b45509df7433c8a02e3",
    "2da521e960a0c8fcfbd804a9a9ce2c9ae1c8e9090f247a7dc9f914df9087def3",
    "a4078bb2af8ab46d9f4ca7463e41d952530799733d249546c79672cdfa4bb001",
    "4d232bed51f8e51b5bb51109fac7191feb4e93293a0cd94e17e771169117803b",
    "66e9eeff543710089df4d598703655bedf020417211d828a7cf864bb8f06e9f7",
    "23d65f806f7111465d1ccc547f92ca51fef15021e336c25f421196840e5b7ed4",
    "371cd72396a659801c510225895bb860c833002a7010ecd491356d2051cb2cfb",
    "c480ae03b98049a231fd9858f42cb555aed2a96f274316fa92e8caab604a99dc",
    "551c82e93ee215717e943e7b0585a0d64ee1d122efe639593b46bfa0351d46fa",
    "fd0c44c35e50d534fb6de81db8c8d8dd3b847993501eda7ebb562a31d958652c",
    "91b6645da0bcbb059dc96f86308e9d9dfce230044bc399a51c9b321950e1b991",
    "999b12cb769809a1fd88b470b95e9cec0ff5bbd55cf0f51dfd4562f0172312a0",
    "f8d5503d2a8e0f98b691aa6d2885ff9c653ee5cb01a3ab7dfe32440e99b2dcc5",
    "e619a5df8a24d07bc3fe92593f1e33ae02fe3ea89daa24d136a83b67cf772e7b",
    "5fea9a92064a02d28dcaa4adb9ce72d9bff9d4dbcf7b33f753b8513abcc838f8",
    "87e5189ac73615bfa0f70c9f9433e52886480709052d25b5e020e6b1e2a37a48",
    "ef799941ddc21a05a19c1cfefab2b5ef6c5e0af850f35744a646728fb89bba68",
    "8ec756cbbe9f222b3a3fe784dd9c8b87a6800ec38ee4b30bce66c266a78333f3",
    "b1054db806fac138a6c823aa8140c93d7cd2c47c34adeb10f2d5ac249363c2ca",
    "ff8252cc46e415201bdf7fae6260986205714d38fd77af9adb897a3bd85bd916",
    "321a721416b6b479dccd1a71ab4b6dea9fbf23ddd6873fefed2fca593b761b10",
)


# (goal, proof nodes, digest)
FAMILIES = {
    "chain-32": (chain(32), 131, "4687aff089551ab2602a8b28271a290c639ed7fd531917999c8af7d844da1f70"),
    "cases-3": (cases(3), 155, "d2ba8117f61fc5347f263f6d17184f2ec0acb4442787653492f91e5831a0a438"),
    "sum-32": (sum_family(32), 66, "610de3255ef9e8c64804044625457c8f5eb0ba09c21749d37c6a81d2dfeaaaa0"),
    "app-4": (app(4), 32, "5d035180e0450b9dcded15ee731a93b9412ab37129f51edeec8797644fe29015"),
    "app-8": (app(8), 60, "2878bd0df4713cd5b9497e8d670360ba1aea070655be99bc1ac05914344b48f0"),
}


def proof_digest(outcome) -> str:
    assert isinstance(outcome, Proved)
    text = json.dumps(proof_to_dict(outcome.tree), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_per_goal():
    assert len(CORPUS_DIGESTS) == len(CORPUS_GOALS) == 55


@pytest.mark.parametrize("text, expected", zip(CORPUS_GOALS, CORPUS_DIGESTS))
def test_corpus_proof_identity(text, expected, corpus_cs):
    outcome = prove(parse_formula(text, corpus_cs.constants), corpus_cs)
    assert proof_digest(outcome) == expected


@pytest.mark.parametrize("name", FAMILIES)
def test_family_proof_identity(name, corpus_cs):
    text, nodes, expected = FAMILIES[name]
    outcome = prove(parse_formula(text, corpus_cs.constants), corpus_cs, FAMILY_BUDGET)
    assert len(outcome.tree.nodes()) == nodes
    assert proof_digest(outcome) == expected


# ---------------------------------------------------------------------------
# Renaming identity: substitution results and alpha/variant verdicts on
# seeded random formulas, recorded before the three renaming walkers of
# ``folp.syntax`` became one.

RENAME_DIGEST = "bdf35366b274e9affd15f7fd203e37a69d7e2e19139638e70b5ab722bf265bcc"

_SWAP = {"x": "y", "y": "z", "z": "x"}


def _swap_vars(f):
    """``f`` with every individual variable name cycled by ``_SWAP``:
    arguments, windows, binders and ``gen`` binders alike."""

    def atom(a):
        return var(_SWAP[a.name]) if a.kind == VAR else a

    def term(t):
        if isinstance(t, (Sum, App)):
            return type(t)(term(t.left), term(t.right))
        if isinstance(t, Bang):
            return Bang(term(t.inner))
        if isinstance(t, Gen):
            return Gen(_SWAP[t.bound], term(t.inner))
        return t

    if isinstance(f, Pred):
        return Pred(f.name, tuple(map(atom, f.args)))
    if isinstance(f, Neg):
        return Neg(_swap_vars(f.body))
    if isinstance(f, Impl):
        return Impl(_swap_vars(f.left), _swap_vars(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(_SWAP[f.bound], _swap_vars(f.body))
    return Assert(term(f.term), tuple(map(atom, f.window)), _swap_vars(f.body))


def _rename_lines():
    """One line per call: the printed result, ``CaptureError`` as a value.
    Each result also prints the same through a printing memo shared by
    all of them."""
    rng = random.Random(20261018)
    targets = [var("x"), var("y"), var("z"), param("u"), elem("a")]
    verdicts = Counter()
    memo = {}  # one printing memo for every formula: shared subterms hit it
    for i in range(1000):
        f = random_formula(rng, 1 + i % 5)
        for name, fn, sources in (("sub", substitute, "xyz"), ("par", substitute_param, "uw")):
            for x in sources:
                for a in targets:
                    try:
                        h = fn(f, x, a)
                    except CaptureError:
                        yield f"{name} {x} {a} CaptureError"
                        continue
                    out = print_formula(h)
                    assert print_formula(h, memo) == out
                    yield f"{name} {x} {a} {out}"
        g = random_formula(rng, 1 + i % 5)
        for other in (_swap_vars(f), g):
            pair = (alpha_eq(f, other), variable_variant(f, other))
            verdicts[pair] += 1
            yield f"alpha {pair[0]} variant {pair[1]}"
    # Each verdict occurs both ways, so the digest pins both.
    assert {a for a, _ in verdicts} == {v for _, v in verdicts} == {False, True}


def test_rename_identity():
    text = "\n".join(_rename_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == RENAME_DIGEST
