"""Readers and writers for constant-specification, model, and proof files.

CS files are line-oriented UTF-8 with ``.``-terminated statements and
``#`` comments::

    const c, d.
    c : forall x. A(x) -> A(x).
    d : scheme JT.
    total.
    variant-closed.

Models and proofs are JSON; see ``parse_model`` and ``parse_proof`` for
the schemas.  A proof file is one line: the stdlib's C encoder writes
``proof_to_dict`` with no indentation, since indenting each line by its
depth in the tree made most of a deep proof's bytes spaces.  The schema
is unchanged, so indented proof files still read.  To read one::

    python -m json.tool proof.json

A file that is not UTF-8, or JSON nested past the decoder's limit, is a
:class:`FileFormatError`, and so is a proof too deep for the writer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from .axioms import SCHEMES, ConstantSpecification, CsError, match_axiom
from .parser import (
    MAX_DEPTH,
    Memo,
    ParseError,
    Parser,
    parse_formula,
    parse_term,
    print_formula,
    tokenize,
)
from .syntax import (
    Assert,
    Atom,
    Formula,
    Neg,
    Sum,
    canonical,
    elem_set,
    par_set,
    param,
)
from .tableau import (
    Contradiction,
    CsClosure,
    ProofNode,
    ProofTree,
    RuleApp,
)


class FileFormatError(Exception):
    """A CS, model, or proof file is malformed."""


# ---------------------------------------------------------------------------
# Constant specification files


def parse_cs(text: str) -> ConstantSpecification:
    try:
        return _parse_cs(text)
    except ParseError as exc:
        raise FileFormatError(str(exc)) from exc


def _parse_cs(text: str) -> ConstantSpecification:
    tokens = tokenize(text)
    p = Parser(tokens)
    constants: set[str] = set()
    concrete: list[tuple[str, Formula]] = []
    schematic: list[tuple[str, str]] = []
    total = False
    variant_closed = False
    arities: dict[str, int] = {}

    while not p.at_end():
        tok = p.peek()
        if tok.kind == "VARIANT":
            p.next()
            p.expect(".")
            variant_closed = True
            continue
        if tok.kind == "LID" and tok.text == "total":
            p.next()
            p.expect(".")
            total = True
            continue
        if tok.kind == "LID" and tok.text == "const":
            p.next()
            while True:
                name = p.expect("LID")
                constants.add(name.text)
                if p.peek().kind == ",":
                    p.next()
                    continue
                break
            p.expect(".")
            continue
        if tok.kind == "LID":
            cname = p.next().text
            if cname not in constants:
                raise FileFormatError(
                    f"line {tok.line}: entry for undeclared constant {cname!r}"
                )
            p.expect(":")
            nxt = p.peek()
            if nxt.kind == "LID" and nxt.text == "scheme":
                p.next()
                scheme = p.expect("UID").text
                if scheme not in SCHEMES:
                    raise FileFormatError(
                        f"line {nxt.line}: unknown scheme {scheme!r}"
                    )
                p.expect(".")
                schematic.append((cname, scheme))
                continue
            fp = Parser(p.tokens, constants, arities)
            fp.pos = p.pos
            try:
                f = fp.formula()
            except ParseError as exc:
                raise FileFormatError(f"in entry for {cname}: {exc}") from exc
            p.pos = fp.pos
            p.expect(".")
            if match_axiom(f) is None:
                raise FileFormatError(
                    f"entry {cname} : {f} is not an axiom instance"
                )
            concrete.append((cname, f))
            continue
        raise FileFormatError(
            f"line {tok.line}: unexpected {tok.text!r} in constant specification"
        )

    try:
        return ConstantSpecification(
            constants=frozenset(constants),
            concrete=tuple(concrete),
            schematic=tuple(schematic),
            total=total,
            variant_closed=variant_closed,
        )
    except CsError as exc:
        raise FileFormatError(str(exc)) from exc


def read_cs_file(path: Union[str, Path]) -> ConstantSpecification:
    return parse_cs(_read_text(path))


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8: {exc}") from exc


def _read_json(path: Union[str, Path]):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


# ---------------------------------------------------------------------------
# Model files

# What a wrongly shaped model or proof JSON value raises while it is read.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, ParseError)


def parse_model(data: dict, decls: Iterable[str] = ()):
    """Build a model from its JSON dict; returns ``models.MkrtychevModel``.
    Malformed input raises :class:`FileFormatError`.

    Schema::

        {"domain": ["a", "b"],
         "predicates": {"Q": [["a"], ["b"]]},
         "evidence": [{"term": "p", "formulas": ["Q($a)"]}]}
    """
    try:
        return _parse_model(data, decls)
    except _MALFORMED as exc:
        raise FileFormatError(f"bad model: {exc!r}") from exc


def _parse_model(data: dict, decls: Iterable[str]):
    from .models import Evidence, MkrtychevModel

    if not isinstance(data.get("domain"), list) or not data["domain"]:
        raise FileFormatError("model domain must be a non-empty list")
    domain = tuple(str(d) for d in data["domain"])
    interp: dict[str, frozenset[tuple[str, ...]]] = {}
    for pred, tuples in data.get("predicates", {}).items():
        rows = set()
        for row in tuples:
            if not isinstance(row, list):
                raise FileFormatError(f"predicate {pred}: row {row!r} is not a list")
            row = tuple(str(x) for x in row)
            for x in row:
                if x not in domain:
                    raise FileFormatError(
                        f"predicate {pred}: element {x!r} not in the domain"
                    )
            rows.add(row)
        interp[str(pred)] = frozenset(rows)
    evidence: Evidence = {}
    for entry in data.get("evidence", []):
        try:
            t = parse_term(entry["term"], decls)
            formulas = tuple(
                parse_formula(text, decls) for text in entry.get("formulas", [])
            )
        except _MALFORMED as exc:
            raise FileFormatError(f"bad evidence entry {entry!r}: {exc!r}") from exc
        if t in evidence:
            raise FileFormatError(f"duplicate evidence entry for term {t}")
        bucket = evidence[t] = {}
        for f in formulas:
            if par_set(f):
                raise FileFormatError(
                    f"evidence formula {f} contains parameters; "
                    "evidence formulas are domain formulas"
                )
            for e in elem_set(f):
                if e not in domain:
                    raise FileFormatError(
                        f"evidence formula {f}: element ${e} not in the domain"
                    )
            key = canonical(f)
            if key in bucket:
                raise FileFormatError(
                    f"evidence({t}) lists {f} twice, up to bound-variable renaming"
                )
            bucket[key] = f
    return MkrtychevModel(domain=domain, interp=interp, evidence=evidence)


def read_model_file(path: Union[str, Path], decls: Iterable[str] = ()):
    return parse_model(_read_json(path), decls)


def write_model(model) -> dict:
    return {
        "domain": list(model.domain),
        "predicates": {
            q: sorted(list(row) for row in rows) for q, rows in model.interp.items()
        },
        "evidence": [
            {"term": str(t), "formulas": [print_formula(f) for f in fs.values()]}
            for t, fs in sorted(model.evidence.items(), key=lambda kv: str(kv[0]))
        ],
    }


# ---------------------------------------------------------------------------
# Proof files


def _rule_to_dict(rule: RuleApp) -> dict:
    out: dict = {"name": rule.name, "premises": list(rule.premises)}
    if rule.param is not None:
        out["param"] = str(rule.param)
    if rule.cut is not None:
        out["cut"] = print_formula(rule.cut)
    if rule.var is not None:
        out["var"] = rule.var
    return out


def _closure_to_dict(mark) -> Optional[dict]:
    if mark is None:
        return None
    if isinstance(mark, Contradiction):
        return {"kind": "contradiction", "with": mark.with_id}
    if isinstance(mark, CsClosure):
        return {"kind": "cs", "constant": mark.constant}
    raise FileFormatError(f"unknown closure mark {mark!r}")


def _node_to_dict(node: ProofNode, memo: Memo) -> dict:
    return {
        "id": node.id,
        "formula": print_formula(node.formula, memo),
        "rule": None if node.rule is None else _rule_to_dict(node.rule),
        "children": [_node_to_dict(c, memo) for c in node.children],
        "closure": _closure_to_dict(node.closure),
    }


def proof_to_dict(tree: ProofTree) -> dict:
    # Node formulas share most of their subformulas and subterms; each is
    # printed once.
    memo: Memo = {}
    return {
        "roots": [print_formula(f, memo) for f in tree.roots],
        "tree": _node_to_dict(tree.root, memo),
    }


def proof_to_json(tree: ProofTree) -> str:
    """The text of a proof file: ``proof_to_dict`` as one line of JSON
    from the stdlib's C encoder (``indent`` would select its pure-Python
    encoder), and a newline.

    Both recurse once per tree level, so a proof too deep for the stack
    is a :class:`FileFormatError`, as it is for reading."""
    try:
        return json.dumps(proof_to_dict(tree)) + "\n"
    except RecursionError as exc:
        raise FileFormatError("proof nested too deeply to write as format v1") from exc


def write_proof_file(path: Union[str, Path], tree: ProofTree) -> None:
    Path(path).write_text(proof_to_json(tree), encoding="utf-8")


def _parse_rule(data: Optional[dict], decls: Iterable[str]) -> Optional[RuleApp]:
    if data is None:
        return None
    p: Optional[Atom] = None
    if data.get("param") is not None:
        text = data["param"]
        if not (isinstance(text, str) and text.startswith("@")):
            raise FileFormatError(f"rule parameter {text!r} must be written @name")
        p = param(text[1:])
    cut = None if data.get("cut") is None else parse_formula(data["cut"], decls)
    v = data.get("var")
    if v is not None and not isinstance(v, str):
        raise FileFormatError(f"rule variable {v!r} must be a string")
    return RuleApp(
        name=data["name"],
        premises=tuple(int(i) for i in data["premises"]),
        param=p,
        cut=cut,
        var=v,
    )


def _parse_closure(data: Optional[dict], nid: int):
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "contradiction":
        return Contradiction(node_id=nid, with_id=int(data["with"]))
    if kind == "cs":
        return CsClosure(node_id=nid, constant=str(data["constant"]))
    raise FileFormatError(f"unknown closure kind {kind!r}")


def _add_signed_subformulas(table: dict[str, Formula], root: Formula, peak: int) -> None:
    """Enter into ``table``, under its printed text, every subformula
    ``g`` of ``root``, every ``u :[X] A`` that ``FPlus`` reaches from a
    subformula ``t :[X] A`` (``u`` a summand of ``t``, through ``+``
    only), and the negation of each; ``peak`` is the most nesting levels
    the parser entered reading ``root``.

    Most rules conclude a subformula of a premise, or its negation, and
    ``FPlus`` concludes ``~(u :[X] A)`` from ``~(t :[X] A)``, so most
    proof nodes carry one of these formulas.  Each entry is what
    ``parse_formula`` returns for its text: the text reparses to the
    formula, no deeper than ``root`` (a summand nests no deeper than its
    sum), and the arity of every predicate in it is already recorded.  A
    negation nests at most two levels deeper than its formula, so
    negations are entered only when that stays within ``MAX_DEPTH``;
    otherwise the node text is parsed, and may be rejected.  Each
    subterm is printed once.
    """
    memo: Memo = {}
    print_formula(root, memo)
    for g in [g for g in memo if isinstance(g, Assert)]:
        stack = [g.term]
        while stack:
            t = stack.pop()
            if isinstance(t, Sum):
                for u in (t.left, t.right):
                    print_formula(Assert(u, g.window, g.body), memo)
                    stack.append(u)
    if peak + 2 <= MAX_DEPTH:
        for g in [g for g in memo if isinstance(g, Formula)]:
            print_formula(Neg(g), memo)
    table.update((s, g) for g, s in memo.items() if isinstance(g, Formula))


def _parse_node(
    data: dict, decls: Iterable[str], arities: dict[str, int], table: dict[str, Formula]
) -> ProofNode:
    try:
        nid = int(data["id"])
        text = data["formula"]
        node = ProofNode(
            id=nid,
            formula=table.get(text) or parse_formula(text, decls, arities),
            rule=_parse_rule(data.get("rule"), decls),
            closure=_parse_closure(data.get("closure"), nid),
            children=[
                _parse_node(c, decls, arities, table) for c in data.get("children", [])
            ],
        )
    except _MALFORMED as exc:
        where = data.get("id") if isinstance(data, dict) else data
        raise FileFormatError(f"bad proof node {where!r}: {exc!r}") from exc
    if len(node.children) > 2:
        raise FileFormatError(f"node {nid} has more than two children")
    return node


def parse_proof(data: dict, decls: Iterable[str] = ()) -> ProofTree:
    """Build a proof tree from its JSON dict (the output of
    ``proof_to_dict``); malformed input raises :class:`FileFormatError`.

    Schema::

        {"roots": ["~(Q0 -> Q0)"],
         "tree": {"id": 1, "formula": "~(Q0 -> Q0)",
                  "rule": null or {"name": "FImp", "premises": [1],
                                   "param": "@u", "cut": "...", "var": "x"},
                  "children": [...nodes...],
                  "closure": null or {"kind": "contradiction", "with": 2}
                                  or {"kind": "cs", "constant": "c"}}}

    ``param``, ``cut`` and ``var`` appear only on rules that take them.
    A node text that is a subformula of a root, an ``FPlus`` conclusion
    from one, or the negation of either is looked up instead of parsed
    (see ``_add_signed_subformulas``); others, such as quantifier
    instances and cut formulas, are parsed.
    """
    if not isinstance(data, dict) or "roots" not in data or "tree" not in data:
        raise FileFormatError("proof JSON requires 'roots' and 'tree'")
    arities: dict[str, int] = {}
    if not isinstance(data["roots"], list):
        raise FileFormatError("proof 'roots' must be a list of formulas")
    roots: list[Formula] = []
    table: dict[str, Formula] = {}
    try:
        for text in data["roots"]:
            p = Parser(tokenize(text), decls, arities)
            roots.append(p.whole(p.formula))
            _add_signed_subformulas(table, roots[-1], p.peak)
    except _MALFORMED as exc:
        raise FileFormatError(f"bad proof root: {exc!r}") from exc
    return ProofTree(roots=roots, root=_parse_node(data["tree"], decls, arities, table))


def read_proof_file(path: Union[str, Path], decls: Iterable[str] = ()) -> ProofTree:
    return parse_proof(_read_json(path), decls)
