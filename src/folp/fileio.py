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

``parse_cs`` keeps one entry: the last text it parsed, with its
``ConstantSpecification``, which it returns again when the same text
comes again.  So in a process that makes several CLI calls under one CS
file, only the first parses and validates it.  The key is the whole
text, and ``read_cs_file`` reads the file on every call, so an edited
file is parsed afresh.  A text that fails to parse is never kept.  The
record is frozen, so callers can share it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .axioms import SCHEMES, ConstantSpecification, CsError
from .parser import (
    MAX_DEPTH,
    Memo,
    ParseError,
    Parser,
    parse_formula,
    parse_term,
    print_formula,
)
from .syntax import (
    Assert,
    Atom,
    Formula,
    Impl,
    Sum,
    canonical,
    elem_set,
    neg,
    par_set,
    param,
)

if TYPE_CHECKING:  # the proof functions import it on first use
    from .tableau import ProofNode, ProofTree, RuleApp


class FileFormatError(Exception):
    """A CS, model, or proof file is malformed."""


# ---------------------------------------------------------------------------
# Constant specification files


# The last CS text ``parse_cs`` parsed, and its record.
_last_cs: Optional[tuple[str, ConstantSpecification]] = None


def parse_cs(text: str) -> ConstantSpecification:
    """The constant specification ``text`` writes: the kept record if
    ``text`` is the last text parsed (see the module docstring)."""
    global _last_cs
    last = _last_cs  # one read, so another thread's entry cannot come between
    if last is not None and last[0] == text:
        return last[1]
    try:
        cs = _parse_cs(text)
    except ParseError as exc:
        raise FileFormatError(str(exc)) from exc
    _last_cs = (text, cs)
    return cs


def _parse_cs(text: str) -> ConstantSpecification:
    constants: set[str] = set()
    # Entries read the constants declared so far.
    p = Parser(text, arities={})
    p.decls = constants
    concrete: list[tuple[str, Formula]] = []
    schematic: list[tuple[str, str]] = []
    total = False
    variant_closed = False

    while not p.at_end():
        i = p.pos
        kind, word = p.kinds[i], p.texts[i]
        if kind == "VARIANT":
            p.next()
            p.expect(".")
            variant_closed = True
            continue
        if kind == "LID" and word == "total":
            p.next()
            p.expect(".")
            total = True
            continue
        if kind == "LID" and word == "const":
            p.next()
            while True:
                constants.add(p.expect("LID"))
                if p.kinds[p.pos] == ",":
                    p.next()
                    continue
                break
            p.expect(".")
            continue
        if kind == "LID":
            cname = p.next()
            if cname not in constants:
                raise FileFormatError(
                    f"line {p.token(i).line}: entry for undeclared constant {cname!r}"
                )
            p.expect(":")
            j = p.pos
            if p.kinds[j] == "LID" and p.texts[j] == "scheme":
                p.next()
                scheme = p.expect("UID")
                if scheme not in SCHEMES:
                    raise FileFormatError(
                        f"line {p.token(j).line}: unknown scheme {scheme!r}"
                    )
                p.expect(".")
                schematic.append((cname, scheme))
                continue
            try:
                f = p.formula()
            except ParseError as exc:
                raise FileFormatError(f"in entry for {cname}: {exc}") from exc
            p.expect(".")
            concrete.append((cname, f))
            continue
        raise FileFormatError(
            f"line {p.token(i).line}: unexpected {word!r} in constant specification"
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
    """``parse_cs`` of the file's text, read afresh on every call."""
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


def _typed(value, cls: type, what: str):
    """``value`` if its type is ``cls``: a JSON integer is no boolean."""
    if type(value) is not cls:
        raise FileFormatError(f"{what} must be a JSON {cls.__name__}, not {value!r}")
    return value


def parse_model(data: dict, decls: Iterable[str] = ()):
    """Build a model from its JSON dict; returns ``models.MkrtychevModel``.
    Malformed input raises :class:`FileFormatError`, and so does a domain
    that repeats an element or names one that ``$name`` cannot write (an
    element is an identifier, ``[A-Za-z_][A-Za-z0-9_]*``).  Rows and
    ``formulas`` are JSON lists, and elements, terms and formulas strings.

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
    domain = tuple(_typed(d, str, "domain element") for d in data["domain"])
    for i, d in enumerate(domain):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", d) or d in domain[:i]:
            raise FileFormatError(f"domain element {d!r} is not a unique identifier")
    interp: dict[str, frozenset[tuple[str, ...]]] = {}
    for pred, tuples in data.get("predicates", {}).items():
        rows = set()
        for row in tuples:
            row = tuple(_typed(x, str, f"predicate {pred}: row entry")
                        for x in _typed(row, list, f"predicate {pred}: row"))
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
            t = parse_term(_typed(entry["term"], str, "evidence term"), decls)
            formulas = tuple(
                parse_formula(_typed(text, str, "evidence formula"), decls)
                for text in _typed(entry.get("formulas", []), list, "evidence formulas")
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


def _closure_to_dict(mark, tableau) -> Optional[dict]:
    if mark is None:
        return None
    if isinstance(mark, tableau.Contradiction):
        return {"kind": "contradiction", "with": mark.with_id}
    if isinstance(mark, tableau.CsClosure):
        return {"kind": "cs", "constant": mark.constant}
    raise FileFormatError(f"unknown closure mark {mark!r}")


def proof_to_dict(tree: ProofTree) -> dict:
    """The JSON dict of a proof (see ``parse_proof``), built in table
    order.  Nodes that cite one ``RuleApp`` object share one rule dict:
    copy it before editing it for one node only.  An empty table, a
    first node with a parent, and a later node whose parent is not on the
    path from the first node to the node before it (the checker's
    ``structural:parent`` and ``structural:order``) are a
    :class:`FileFormatError`: the nested file would encode another
    table."""
    from . import tableau

    # Node formulas share most of their subformulas and subterms; each is
    # printed once.
    memo: Memo = {}
    rules: dict[int, dict] = {}
    roots = [print_formula(f, memo) for f in tree.roots]
    outs: list[dict] = []
    path: list[int] = []  # the last node written and its ancestors
    for i, node in enumerate(tree.table):
        p = node.parent
        while path and path[-1] != p:
            path.pop()
        if (p is not None) if i == 0 else not path:
            raise FileFormatError(
                f"node {node.id}: parent {p} is not on the branch in depth-first order"
            )
        path.append(i)
        rule = node.rule
        if rule is not None and id(rule) not in rules:
            rules[id(rule)] = _rule_to_dict(rule)
        out = {
            "id": node.id,
            "formula": print_formula(node.formula, memo),
            "rule": None if rule is None else rules[id(rule)],
            "children": [],
            "closure": _closure_to_dict(node.closure, tableau),
        }
        if i:
            outs[p]["children"].append(out)
        outs.append(out)
    if not outs:
        raise FileFormatError("proof has no nodes")
    return {"roots": roots, "tree": outs[0]}


def proof_to_json(tree: ProofTree) -> str:
    """The text of a proof file: ``proof_to_dict`` as one line of JSON
    from the stdlib's C encoder (``indent`` would select its pure-Python
    encoder), and a newline.  The dict holds no cycle, so the encoder
    does not look for one.

    The encoder recurses once per tree level, so a proof too deep for the
    stack is a :class:`FileFormatError`, as it is for the decoder."""
    try:
        return json.dumps(proof_to_dict(tree), check_circular=False) + "\n"
    except RecursionError as exc:
        raise FileFormatError("proof nested too deeply to write as format v1") from exc


def write_proof_file(path: Union[str, Path], tree: ProofTree) -> None:
    Path(path).write_text(proof_to_json(tree), encoding="utf-8")


def _parse_rule(
    data: Optional[dict], decls: Iterable[str], rules: dict[tuple, RuleApp], tableau
) -> Optional[RuleApp]:
    """The rule instance ``data`` writes.  ``rules`` maps the fields of
    each instance read so far to its ``RuleApp``, so the nodes citing an
    instance share one, and its cut is parsed once.  Only an instance
    with one premise, as every rule takes, is kept."""
    if data is None:
        return None
    get = data.get
    premises = get("premises")
    key = None
    # Only an integer premise: 1, 1.0 and true are equal keys.
    if type(premises) is list and len(premises) == 1 and type(premises[0]) is int:
        key = (get("name"), premises[0], get("param"), get("cut"), get("var"))
        try:
            rule = rules.get(key)
        except TypeError:  # a malformed, unhashable field
            rule = None
        if rule is not None:
            return rule
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
    rule = tableau.RuleApp(
        data["name"],
        tuple(_typed(i, int, "rule premise") for i in _typed(data["premises"], list, "premises")),
        p,
        cut,
        v,
    )
    if key is not None:  # reached only if every field is well typed, so hashable
        rules[key] = rule
    return rule


def _parse_closure(data: Optional[dict], nid: int, tableau):
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "contradiction":
        return tableau.Contradiction(nid, _typed(data["with"], int, "closure 'with'"))
    if kind == "cs":
        return tableau.CsClosure(nid, _typed(data["constant"], str, "closure 'constant'"))
    raise FileFormatError(f"unknown closure kind {kind!r}")


def _add_subformulas(table: dict[str, Formula], root: Formula) -> None:
    """Enter into ``table``, under its printed text, every subformula of
    ``root`` and every ``u :[X] A`` that ``FPlus`` reaches from a
    subformula ``t :[X] A`` (``u`` a summand of ``t``, through ``+``
    only).  Only ``root`` is printed: a summand assertion's text is the
    summand's text, then the rest of the text of ``t :[X] A``.

    Most rules conclude a subformula of a premise, or its negation
    (``parse_proof`` enters those), and ``FPlus`` concludes
    ``~(u :[X] A)`` from ``~(t :[X] A)``.  Each entry is what
    ``parse_formula`` returns for its text: the text reparses to the
    formula, no deeper than ``root`` (a summand nests no deeper than its
    sum), and the arity of every predicate in it is already recorded.
    """
    memo: Memo = {}
    print_formula(root, memo)
    for g in [g for g in memo if isinstance(g, Assert)]:
        rest = memo[g][len(memo[g.term]):]
        stack = [g.term]
        while stack:
            t = stack.pop()
            if isinstance(t, Sum):
                for u in (t.left, t.right):
                    table.setdefault(memo[u] + rest, Assert(u, g.window, g.body))
                    stack.append(u)
    table.update((s, g) for g, s in memo.items() if isinstance(g, Formula))


def _parse_tree(data: dict, decls: Iterable[str], arities: dict[str, int],
                table: dict[str, Formula], tableau) -> list[ProofNode]:
    """The table of the tree ``data`` writes, read depth first, children
    in order, off an explicit stack.  A node text that is an entry of
    ``table`` is looked up instead of parsed."""
    rules: dict[tuple, RuleApp] = {}
    nodes: list[ProofNode] = []
    stack = [(None, data)]  # (the parent's index, node data)
    while stack:
        parent, data = stack.pop()
        try:
            nid = _typed(data["id"], int, "node id")
            text = data["formula"]
            node = tableau.ProofNode(
                nid,
                table.get(text) or parse_formula(text, decls, arities),
                _parse_rule(data.get("rule"), decls, rules, tableau),
                parent,
                _parse_closure(data.get("closure"), nid, tableau),
            )
            children = data.get("children", [])
            if type(children) is not list:
                children = list(children)
        except _MALFORMED as exc:
            where = data.get("id") if isinstance(data, dict) else data
            raise FileFormatError(f"bad proof node {where!r}: {exc!r}") from exc
        if len(children) > 2:
            raise FileFormatError(f"node {nid} has more than two children")
        index = len(nodes)
        nodes.append(node)
        for c in reversed(children):
            stack.append((index, c))
    return nodes


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
    Node ids, premises and ``with`` are JSON integers (not booleans),
    ``premises`` is a list, and a CS closure's ``constant`` is a JSON
    string.  A node text that is a subformula of a root, an ``FPlus``
    conclusion from one, or the negation of either is looked up instead
    of parsed, in a table of those texts made from the roots (see
    ``_add_subformulas``; a negation's entry is ``neg`` of the formula's,
    as the calculus concludes it); others, such as quantifier instances,
    are parsed.  Only the roots are printed.
    Nodes whose rule objects have equal fields share one ``RuleApp``,
    built, cut parsed, once.
    """
    if not isinstance(data, dict) or "roots" not in data or "tree" not in data:
        raise FileFormatError("proof JSON requires 'roots' and 'tree'")
    arities: dict[str, int] = {}
    if not isinstance(data["roots"], list):
        raise FileFormatError("proof 'roots' must be a list of formulas")
    roots: list[Formula] = []
    table: dict[str, Formula] = {}
    peak = 0  # the most nesting levels the parser entered reading a root
    try:
        for text in data["roots"]:
            p = Parser(text, decls, arities)
            roots.append(p.whole(p.formula))
            peak = max(peak, p.peak)
            _add_subformulas(table, roots[-1])
    except _MALFORMED as exc:
        raise FileFormatError(f"bad proof root: {exc!r}") from exc
    # A negation nests at most two levels deeper than its formula.  None
    # is built on top of another, and a subformula's entry wins.
    if peak + 2 <= MAX_DEPTH:
        for text, g in list(table.items()):
            table.setdefault(f"~({text})" if type(g) is Impl else "~" + text, neg(g))
    from . import tableau

    return tableau.ProofTree(roots, _parse_tree(data["tree"], decls, arities, table, tableau))


def read_proof_file(path: Union[str, Path], decls: Iterable[str] = ()) -> ProofTree:
    return parse_proof(_read_json(path), decls)
