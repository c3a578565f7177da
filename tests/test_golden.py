"""Proof identity: digests of the prover's output, recorded before the
search moved to an agenda with cached formula facts.  Any change to the
search that alters a proof, even one the checker accepts, shows here.

The digest is the SHA-256 of ``json.dumps(proof_to_dict(tree),
sort_keys=True)``.  Two more digests pin substitution and renaming (see
``test_rename_identity``) and parsing (see ``test_parse_identity``) the
same way.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from folp import (
    RULE_NAMES,
    SCHEMES,
    App,
    Assert,
    Bang,
    CaptureError,
    Exists,
    Forall,
    Gen,
    Impl,
    Neg,
    ParseError,
    Pred,
    Proved,
    Sum,
    Term,
    alpha_eq,
    check_proof,
    elem,
    match_axiom,
    match_scheme,
    param,
    parse_formula,
    parse_proof,
    parse_term,
    print_formula,
    print_term,
    proof_to_dict,
    prove,
    substitute,
    substitute_param,
    var,
    variable_variant,
)
from folp.fileio import FileFormatError, parse_cs, proof_to_json
from folp.parser import Parser, tokenize
from folp.syntax import VAR, mkwindow
from conftest import (
    CORPUS_GOALS,
    DATA,
    FAMILY_BUDGET,
    app,
    cases,
    chain,
    echain,
    model_paths,
    qchain,
    random_atom,
    random_formula,
    random_term,
    random_window,
    sum_family,
)
from test_axioms import NEGATIVE, POSITIVE

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
    # Recorded before each FDot premise kept its cut candidates on the
    # agenda.  In the last goal the premise ~(c * q) : (Q1 -> Q0) is read
    # below both children of its own applications, each of which adds
    # subformulas; test_search::TestCutCandidates checks each read.
    "app-16": (app(16), 116, "6d0b9842459d6395582cbb50e9a0be71cec194be3bdefbef37fa3311a8268958"),
    "app-32": (app(32), 228, "6f57142421ec98f9369c7d19131be5e6034ae23adf193d36965c6b185bf4aceb"),
    # Recorded before the closure test read an index of negated formulas
    # and before TImp read that index; these lean on both.
    "cases-4": (cases(4), 1363, "86cfed029ba5d55d1495532ea390a892faee42300e43150c6ab64a1955d40eda"),
    "chain-64": (chain(64), 259, "96d675cd9b7d8a28716dbea14d50d27b8238f070825393f560331421b9cabf9d"),
    "sum-64": (sum_family(64), 130, "fd958288f4cf475b9353f8972b4581280e2a88620f9bd3a48398eabf04f68c80"),
    "fdot-branches": ("p : Q1 -> q : Q0 -> (c * q) : (Q1 -> Q0)", 517,
                      "9890c23563e23f23e56d7fed592911456c116ae5f5a73cc9e44796efc45e0b8b"),
    # Recorded while every gamma premise was examined at every step:
    # these pin which gamma premise wins each step and how fresh
    # parameters are numbered.
    "qchain-32": (qchain(32), 165, "2b0e336b15d0b7b9cfc25f988811ec9e0ec83d5f2f08f9ced035c5e83f30438b"),
    "echain-32": (echain(32), 165, "aa56333c54a4118064e329411e818f6c5bc15078ec53600395557a2c650036dd"),
    "app-64": (app(64), 452, "db0798f0a37722cfae5890e5f39489c0f94030d5c5d5a698b400b3d5b4b6c7c7"),
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


# ---------------------------------------------------------------------------
# Parse identity: what the parser makes of the shipped inputs and of
# seeded corruptions of them.  Each line is the printed formula or term
# and how deep the parser went, or the error text with its ``line:col``.
#
# ``PARSED_DIGEST`` pins the lines of the 794 inputs that parse, recorded
# while the parser still read a parenthesised assertion by trying a term
# first and falling back to a formula.  ``PARSE_DIGEST`` pins all 3,650
# lines.  It was re-pinned when the parser came to decide what a ``(``
# opens from the token after its matching ``)``: 25 lines changed, all
# of them errors before and after.  The old texts of these errors came
# from the fallback reading; the new ones come from the one reading the
# parser now makes, such as ``expected ')', found 'q'`` for
# ``(p  q) : Q0 -> Q0``.  It was re-pinned again when a failed parse of
# a formula or term with a ``)`` that closes no ``(`` came to be reported
# at that ``)``: 238 lines changed, all of them errors before and after,
# each now ``unmatched ')'`` where it was, say, ``trailing input ')'``
# or ``expected a formula, found ','``.  The CS lines did not change.
# It was re-pinned a third time when a CS entry that fails to parse came
# to be reported at a ``)`` that closes no ``(`` before the next ``.``:
# one line changed, the mutated ``corpus.cs`` text ``...A:x).ctotal....``,
# from ``in entry for c: 4:23: predicate A used with arity 0, previously
# 1`` to ``in entry for c: 4:26: unmatched ')'``.  It was re-pinned a
# fourth time when a CS entry whose formula parses but is followed by a
# ``)`` that closes no ``(`` came to be reported in the entry's context:
# one line changed, the mutated ``corpus.cs`` text ``...Ax) -> A(x)...``,
# from ``4:17: expected '.', found ')'`` to ``in entry for c: 4:17:
# unmatched ')'``.

PARSED_DIGEST = "cb94d424a1a2c357f96896d60b63dc4509333a93e3f68e0583d833c8e7fedc25"
PARSE_DIGEST = "fe414b57546da58dfe06f3ce4d566877787cb14a2028fbf25a46b509518ff59d"

_MUTATION_CHARS = "()~:.,[]<>+*!-#@$ \n\tpqxcPQ0A_%"


def _mutations(rng, text, count):
    """``count`` copies of ``text``, each with one to three characters
    inserted, deleted or replaced."""
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3) if i < len(chars) else 0
            if op == 0:
                chars.insert(i, rng.choice(_MUTATION_CHARS))
            elif op == 1:
                del chars[i]
            else:
                chars[i] = rng.choice(_MUTATION_CHARS)
        yield "".join(chars)


def _parse_inputs():
    """``(kind, text)`` for each shipped input and its seeded mutations:
    the corpus goals, the family goals, the model evidence terms and
    formulas, and ``corpus.cs``."""
    formulas = [*CORPUS_GOALS, *(fam(n) for fam, sizes in (
        (chain, (32, 64, 128, 256)), (cases, (3, 4)),
        (sum_family, (32, 64, 128)), (app, (4, 8, 12, 16))) for n in sizes)]
    terms = []
    for path in model_paths():
        for entry in json.loads(path.read_text())["evidence"]:
            terms.append(entry["term"])
            formulas.extend(entry["formulas"])
    rng = random.Random(20261018)
    for kind, texts, count in (("formula", formulas, 12), ("term", terms, 12),
                               ("cs", [(DATA / "corpus.cs").read_text()], 100)):
        for text in texts:
            for variant in (text, *_mutations(rng, text, count)):
                yield kind, variant


def _parse_lines():
    """``(parsed, line)`` for each input: whether it parses, and its line."""
    decls = {"c"}

    def formula(text):
        p = Parser(text, decls)
        f = p.whole(p.formula)
        return f"{print_formula(f)} peak {p.peak}"

    def term(text):
        return print_term(parse_term(text, decls))

    def cs(text):
        spec = parse_cs(text)
        return repr((sorted(spec.constants), [(c, print_formula(f)) for c, f in spec.concrete],
                     spec.schematic, spec.total, spec.variant_closed))

    read = {"formula": formula, "term": term, "cs": cs}
    for kind, variant in _parse_inputs():
        try:
            out, parsed = read[kind](variant), True
        except (ParseError, FileFormatError) as exc:
            out, parsed = f"{type(exc).__name__} {exc}", False
        yield parsed, f"{kind} {variant!r} {out}"


def test_parse_identity():
    lines = list(_parse_lines())
    parsed = "\n".join(line for ok, line in lines if ok)
    assert hashlib.sha256(parsed.encode()).hexdigest() == PARSED_DIGEST
    text = "\n".join(line for _, line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGEST


# Token identity: what ``tokenize`` returns for the inputs of the parse
# digest, recorded before the lexer read each text with one ``findall``.
# Each line is the token list, or the error text with its ``line:col``.

TOKEN_DIGEST = "f7982b6d7e97b8dae7323c8cb3d7fdf5393f842f0e9a75c30df1fd96d2e0d159"


def _token_lines():
    for _, text in _parse_inputs():
        try:
            out = repr([(t.kind, t.text, t.offset, t.line, t.col) for t in tokenize(text)])
        except ParseError as exc:
            out = f"ParseError {exc}"
        yield f"{text!r} {out}"


def test_token_identity():
    text = "\n".join(_token_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == TOKEN_DIGEST


# ---------------------------------------------------------------------------
# Verdict identity: what the checker says of proofs read back from their
# files, and of seeded corruptions of them, recorded before the checker
# derived each rule instance's conclusions once and the reader built one
# rule instance per distinct rule object.  Each line is the verdict, or
# the reader's error.  Re-pinned when ``apply_rule`` began rejecting a
# ``param``, ``cut`` or ``var`` its rule does not take: 289 lines of
# ``param`` and ``cut`` corruptions changed, to ``rule-field``, from
# ``accept`` (278) or "sibling does not cite the same rule instance" (11).

VERDICT_DIGEST = "5506f0248017bc08d24a227790daf446f1c711233267ba4cc4597b688008376d"

VERDICT_GOALS = (*CORPUS_GOALS, cases(3), app(8), sum_family(32))


def _corrupt(rng, data, kind):
    """Apply one corruption of ``kind`` to the proof document ``data`` in
    place; ``False`` if no node admits it."""
    nodes, stack = [], [data["tree"]]
    while stack:
        n = stack.pop()
        nodes.append(n)
        stack.extend(reversed(n["children"]))
    ruled = [n for n in nodes if n["rule"]]
    ids = [n["id"] for n in nodes]
    texts = [n["formula"] for n in nodes]
    pick = {
        "name": ruled, "premises": ruled, "param": ruled, "cut": ruled,
        "formula": ruled, "duplicate": ruled,
        "with": [n for n in nodes if n["closure"] and n["closure"]["kind"] == "contradiction"],
        "sibling": [n for n in nodes if len(n["children"]) == 2],
        "drop": [n for n in nodes if n["children"]],
    }[kind]
    if not pick:
        return False
    n = rng.choice(pick)
    if kind == "name":
        n["rule"]["name"] = rng.choice(RULE_NAMES)
    elif kind == "premises":
        n["rule"]["premises"] = rng.sample(ids, rng.choice((1, 1, 2)))
    elif kind == "param":
        n["rule"]["param"] = rng.choice(("@u0", "@u1", "@u2", "@v0"))
    elif kind == "cut":
        n["rule"]["cut"] = rng.choice(texts)
    elif kind == "formula":
        n["formula"] = rng.choice(texts)
    elif kind == "duplicate":
        # A copy of the node below it, citing the same rule instance.
        copy = {**n, "id": max(ids) + 1, "rule": dict(n["rule"])}
        n["children"], n["closure"] = [copy], None
    elif kind == "with":
        n["closure"]["with"] = rng.choice(ids)
    elif kind == "sibling":
        child = n["children"][rng.randrange(2)]
        child["rule"] = dict(rng.choice(ruled)["rule"])
    else:
        del n["children"][rng.randrange(len(n["children"]))]
    return True


def _verdict_lines(cs):
    rng = random.Random(20261018)
    kinds = ("name", "premises", "param", "cut", "with", "formula", "sibling", "drop",
             "duplicate")
    for i, text in enumerate(VERDICT_GOALS):
        goal = parse_formula(text, cs.constants)
        outcome = prove(goal, cs, FAMILY_BUDGET)
        assert isinstance(outcome, Proved)
        file_text = proof_to_json(outcome.tree)
        for kind in ("none", *kinds * 3):
            data = json.loads(file_text)
            if kind != "none" and not _corrupt(rng, data, kind):
                continue
            try:
                out = str(check_proof(parse_proof(data, cs.constants), cs, goal))
            except FileFormatError as exc:
                out = f"FileFormatError {exc}"
            yield f"{i} {kind} {out}"


def test_verdict_identity(corpus_cs):
    lines = list(_verdict_lines(corpus_cs))
    verdicts = Counter(line.split(" ", 2)[2].split(" at node")[0] for line in lines)
    # Both verdicts occur, so the digest pins both.
    assert verdicts["accept"] >= len(VERDICT_GOALS) and len(verdicts) > 1
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICT_DIGEST


# ---------------------------------------------------------------------------
# Matcher identity: ``match_axiom`` and every ``match_scheme`` on the axiom
# test cases, on seeded instances of every scheme, on one-part mutations
# of those and on random formulas, recorded before the schemes were
# stated as templates.  Each line is the formula, the scheme
# ``match_axiom`` names and one bit per scheme of ``SCHEMES``.

MATCHER_DIGEST = "8a6b0cd34587f1838ad6c12c52e5bb3c00b16a66934f9353baff79466fb33919"


def _scheme_instances(rng):
    """Instances of each scheme, in ``SCHEMES`` order (Q4 has two forms),
    built from random formulas, terms, a window, a bound variable and an
    atom.  Some break a side condition, such as x free in Q3's A."""
    a, b, c = (random_formula(rng, 3) for _ in range(3))
    s, t = random_term(rng, 2), random_term(rng, 2)
    w = mkwindow(random_window(rng))
    x, y = rng.choice("xyz"), random_atom(rng)
    wy = mkwindow((*w, y))

    def instance(body):  # body{x/y}, or body if y would be captured
        try:
            return substitute(body, x, y)
        except CaptureError:
            return body

    yield Impl(a, Impl(b, a))
    yield Impl(Impl(a, Impl(b, c)), Impl(Impl(a, b), Impl(a, c)))
    yield Impl(Impl(Neg(a), Neg(b)), Impl(b, a))
    yield Impl(Forall(x, a), instance(a))
    yield Impl(Forall(x, Impl(a, b)), Impl(Forall(x, a), Forall(x, b)))
    yield Impl(a, Forall(x, a))
    yield Impl(instance(a), Exists(x, a))
    yield Impl(Forall(x, Impl(a, b)), Impl(Exists(x, a), b))
    yield Impl(Assert(t, wy, a), Assert(t, w, a))
    yield Impl(Assert(t, w, a), Assert(t, wy, a))
    yield Impl(Assert(s, w, a), Assert(Sum(s, t), w, a))
    yield Impl(Assert(t, w, a), Assert(Sum(s, t), w, a))
    yield Impl(Assert(s, w, Impl(a, b)), Impl(Assert(t, w, a), Assert(App(s, t), w, b)))
    yield Impl(Assert(t, w, a), a)
    yield Impl(Assert(t, w, a), Assert(Bang(t), w, Assert(t, w, a)))
    yield Impl(Assert(t, w, a), Assert(Gen(x, t), w, Forall(x, a)))


# The parts of each node class, in constructor order.
_PARTS = {Impl: ("left", "right"), Sum: ("left", "right"), App: ("left", "right"),
          Neg: ("body",), Forall: ("bound", "body"), Exists: ("bound", "body"),
          Assert: ("term", "window", "body"), Bang: ("inner",), Gen: ("bound", "inner")}


def _mutate(rng, x):
    """``x``, a formula or term, with one part replaced by a random one of
    its kind: a subformula, a subterm, a window or a bound variable."""
    parts = _PARTS.get(type(x), ())
    if not parts or rng.random() < 0.2:
        return random_term(rng, 2) if isinstance(x, Term) else random_formula(rng, 2)
    part = rng.choice(parts)
    if part == "bound":
        new = rng.choice("xyz")
    elif part == "window":
        new = random_window(rng)
    else:
        new = _mutate(rng, getattr(x, part))
    return type(x)(*(new if p == part else getattr(x, p) for p in parts))


def matcher_inputs():
    """The formulas the matcher digest covers: the cases of
    ``test_axioms``, 16,000 seeded scheme instances, a one-part mutation
    of each, and 20,000 random formulas."""
    out = [parse_formula(text, {"c"}) for texts in POSITIVE.values() for text in texts]
    out += [parse_formula(text, {"c"}) for text in NEGATIVE]
    rng = random.Random(20261018)
    for _ in range(1000):
        for f in _scheme_instances(rng):
            out += (f, _mutate(rng, f))
    out += [random_formula(rng, 1 + i % 5) for i in range(20_000)]
    return out


def _matcher_lines():
    hits = Counter()
    for f in matcher_inputs():
        bits = [match_scheme(s, f) for s in SCHEMES]
        first = match_axiom(f)
        assert first == next((s for s, bit in zip(SCHEMES, bits) if bit), None)
        hits.update(s for s, bit in zip(SCHEMES, bits) if bit)
        hits[first] += first is None
        yield f"{print_formula(f)} {first} {''.join('01'[bit] for bit in bits)}"
    # Every scheme matches, and some inputs match none.
    assert min(hits[s] for s in (*SCHEMES, None)) >= 100, hits


def test_matcher_identity():
    text = "\n".join(_matcher_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == MATCHER_DIGEST
