"""Readers and writers for constant-specification, model, and proof files.

CS files are line-oriented UTF-8 with ``.``-terminated statements and
``#`` comments::

    const c, d.
    c : forall x. A(x) -> A(x).
    d : scheme JT.
    total.
    variant-closed.

Models and proofs are JSON; see ``read_model_file`` and
``read_proof_file`` for the schemas.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from .axioms import SCHEMES, ConstantSpecification, CsError, match_axiom
from .parser import ParseError, Parser, parse_formula, parse_term, print_formula, tokenize
from .syntax import (
    Atom,
    Formula,
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
    return parse_cs(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Model files


def parse_model(data: dict, decls: Iterable[str] = ()):
    """Build a model from its JSON dict; returns ``models.MkrtychevModel``.

    Schema::

        {"domain": ["a", "b"],
         "predicates": {"Q": [["a"], ["b"]]},
         "evidence": [{"term": "p", "formulas": ["Q($a)"]}]}
    """
    from .models import Evidence, MkrtychevModel

    if not isinstance(data.get("domain"), list) or not data["domain"]:
        raise FileFormatError("model domain must be a non-empty list")
    domain = tuple(str(d) for d in data["domain"])
    interp: dict[str, frozenset[tuple[str, ...]]] = {}
    for pred, tuples in data.get("predicates", {}).items():
        rows = set()
        for row in tuples:
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
        except (KeyError, ParseError) as exc:
            raise FileFormatError(f"bad evidence entry {entry!r}: {exc}") from exc
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
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return parse_model(data, decls)


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


def _atom_to_text(a: Atom) -> str:
    return str(a)


def _rule_to_dict(rule: RuleApp) -> dict:
    out: dict = {"name": rule.name, "premises": list(rule.premises)}
    if rule.param is not None:
        out["param"] = _atom_to_text(rule.param)
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


def _node_to_dict(node: ProofNode) -> dict:
    return {
        "id": node.id,
        "formula": print_formula(node.formula),
        "rule": None if node.rule is None else _rule_to_dict(node.rule),
        "children": [_node_to_dict(c) for c in node.children],
        "closure": _closure_to_dict(node.closure),
    }


def proof_to_dict(tree: ProofTree) -> dict:
    return {
        "roots": [print_formula(f) for f in tree.roots],
        "tree": _node_to_dict(tree.root),
    }


def write_proof_file(path: Union[str, Path], tree: ProofTree) -> None:
    Path(path).write_text(
        json.dumps(proof_to_dict(tree), indent=2) + "\n", encoding="utf-8"
    )


# What a wrongly shaped proof JSON value raises while it is read.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, ParseError)


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


def _parse_node(data: dict, decls: Iterable[str], arities: dict[str, int]) -> ProofNode:
    try:
        nid = int(data["id"])
        node = ProofNode(
            id=nid,
            formula=parse_formula(data["formula"], decls, arities),
            rule=_parse_rule(data.get("rule"), decls),
            closure=_parse_closure(data.get("closure"), nid),
            children=[_parse_node(c, decls, arities) for c in data.get("children", [])],
        )
    except _MALFORMED as exc:
        where = data.get("id") if isinstance(data, dict) else data
        raise FileFormatError(f"bad proof node {where!r}: {exc!r}") from exc
    if len(node.children) > 2:
        raise FileFormatError(f"node {nid} has more than two children")
    return node


def parse_proof(data: dict, decls: Iterable[str] = ()) -> ProofTree:
    """Build a proof tree from its JSON dict (the output of
    ``proof_to_dict``); malformed input raises :class:`FileFormatError`."""
    if not isinstance(data, dict) or "roots" not in data or "tree" not in data:
        raise FileFormatError("proof JSON requires 'roots' and 'tree'")
    arities: dict[str, int] = {}
    if not isinstance(data["roots"], list):
        raise FileFormatError("proof 'roots' must be a list of formulas")
    try:
        roots = [parse_formula(text, decls, arities) for text in data["roots"]]
    except _MALFORMED as exc:
        raise FileFormatError(f"bad proof root: {exc!r}") from exc
    return ProofTree(roots=roots, root=_parse_node(data["tree"], decls, arities))


def read_proof_file(path: Union[str, Path], decls: Iterable[str] = ()) -> ProofTree:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return parse_proof(data, decls)
