"""Readers and writers for constant-specification, model, and proof files.

CS files are line-oriented UTF-8 with ``.``-terminated statements and
``#`` comments::

    const c, d.
    c : forall x. A(x) -> A(x).
    d : scheme JT.
    total.
    variant-closed.

Models and proofs are JSON; see ``parse_model`` and ``parse_proof`` for
the schemas.  A proof file is one line, with no indentation, since
indenting each line by its depth in the tree made most of a deep proof's
bytes spaces: the bytes ``json.dumps`` writes for ``proof_to_dict``.
``proof_to_json`` writes them in one walk of the node table, with no
dict built and no recursion.  The schema is unchanged, so indented proof
files still read.  To read one::

    python -m json.tool proof.json

A file that is not UTF-8, or JSON nested past the decoder's limit, is a
:class:`FileFormatError`, and so is a proof more than
``MAX_WRITE_DEPTH`` nodes deep, which the writer refuses, since the
decoder could not read it back.

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
    PARAM,
    VAR,
    Assert,
    Atom,
    Formula,
    Impl,
    Sum,
    canonical,
    elem_set,
    neg,
    par_set,
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
        kind, word = p.kinds[i], p.next()
        if kind == "VARIANT":
            variant_closed = True
        elif kind == "LID" and word == "total":
            total = True
        elif kind == "LID" and word == "const":
            constants.add(p.expect("LID"))
            while p.kinds[p.pos] == ",":
                p.next()
                constants.add(p.expect("LID"))
        elif kind == "LID":
            if word not in constants:
                raise FileFormatError(
                    f"line {p.token(i).line}: entry for undeclared constant {word!r}"
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
                schematic.append((word, scheme))
            else:
                try:
                    concrete.append((word, p.formula()))
                    if p.kinds[p.pos] == ")":  # every "(" read so far is closed
                        raise p.error("unmatched ')'")
                except ParseError as exc:
                    # A ")" that closes no "(" is the error, as in
                    # ``Parser.whole``, if no "." lies between the fault
                    # and it: a later entry's ")" moves no error.
                    p.pair()
                    if p.stray is not None and "." not in p.kinds[p.pos:p.stray]:
                        exc = p.error("unmatched ')'", p.stray)
                    raise FileFormatError(f"in entry for {word}: {exc}") from exc
        else:
            raise FileFormatError(
                f"line {p.token(i).line}: unexpected {word!r} in constant specification"
            )
        p.expect(".")

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


# The deepest tree ``proof_to_json`` writes, in nodes on a path from the
# first node to a leaf.  A file nests two JSON levels per such node, and
# two more, and the stdlib's C decoder recurses once per level; CPython
# 3.10 and 3.11 count those calls against the default recursion limit of
# 1,000 together with the Python frames below them, ten in ``folp check``.
# chain-163's proof, 492 nodes deep, is the deepest chain this admits.
MAX_WRITE_DEPTH = 492

_quote = json.encoder.encode_basestring_ascii  # what json.dumps writes a str as


def _scalar(x) -> str:
    """``json.dumps(x)``, quickly for an int or a str."""
    if type(x) is int:
        return str(x)
    return _quote(x) if type(x) is str else json.dumps(x)


def _rule_to_dict(rule: RuleApp) -> dict:
    out: dict = {"name": rule.name, "premises": list(rule.premises)}
    if rule.param is not None:
        out["param"] = str(rule.param)
    if rule.cut is not None:
        out["cut"] = print_formula(rule.cut)
    if rule.var is not None:
        out["var"] = rule.var
    return out


def _rule_to_json(rule: RuleApp, memo: Memo) -> str:
    """``json.dumps(_rule_to_dict(rule))``, the cut printed with ``memo``."""
    out = (f'{{"name": {_scalar(rule.name)}, '
           f'"premises": [{", ".join(map(_scalar, rule.premises))}]')
    if rule.param is not None:
        out += f', "param": {_quote(str(rule.param))}'
    if rule.cut is not None:
        out += f', "cut": {_quote(print_formula(rule.cut, memo))}'
    if rule.var is not None:
        out += f', "var": {_scalar(rule.var)}'
    return out + "}"


def _closure_fields(mark, tableau) -> tuple[str, str, object]:
    """The kind of a closure mark, and the name and value of its one field."""
    if isinstance(mark, tableau.Contradiction):
        return "contradiction", "with", mark.with_id
    if not isinstance(mark, tableau.CsClosure):
        raise FileFormatError(f"unknown closure mark {mark!r}")
    return "cs", "constant", mark.constant


def _depths(tree: ProofTree) -> list[int]:
    """The depth of each node of ``tree.table``, in nodes from the first
    node to it.  An empty table, a first node with a parent, and a later
    node whose parent is not on the path from the first node to the node
    before it (the checker's ``structural:parent`` and
    ``structural:order``) are a :class:`FileFormatError`: the nested file
    would encode another table."""
    depths: list[int] = []
    path: list[int] = []  # the last node walked and its ancestors
    for i, node in enumerate(tree.table):
        p = node.parent
        while path and path[-1] != p:
            path.pop()
        if (p is not None) if i == 0 else not path:
            raise FileFormatError(
                f"node {node.id}: parent {p} is not on the branch in depth-first order"
            )
        path.append(i)
        depths.append(len(path))
    if not depths:
        raise FileFormatError("proof has no nodes")
    return depths


def proof_to_dict(tree: ProofTree) -> dict:
    """The JSON dict of a proof (see ``parse_proof``), built in table
    order.  Nodes that cite one ``RuleApp`` object share one rule dict:
    copy it before editing it for one node only.  A table that
    ``_depths`` refuses is a :class:`FileFormatError`."""
    from . import tableau

    _depths(tree)
    # Node formulas share most of their subformulas and subterms; each is
    # printed once.
    memo: Memo = {}
    rules: dict[int, dict] = {}
    outs: list[dict] = []
    for node in tree.table:
        rule, mark = node.rule, node.closure
        if rule is not None and id(rule) not in rules:
            rules[id(rule)] = _rule_to_dict(rule)
        if mark is not None:
            kind, field, value = _closure_fields(mark, tableau)
            mark = {"kind": kind, field: value}
        out = {
            "id": node.id,
            "formula": print_formula(node.formula, memo),
            "rule": None if rule is None else rules[id(rule)],
            "children": [],
            "closure": mark,
        }
        if outs:
            outs[node.parent]["children"].append(out)
        outs.append(out)
    return {"roots": [print_formula(f, memo) for f in tree.roots], "tree": outs[0]}


def proof_to_json(tree: ProofTree) -> str:
    """The text of a proof file: the bytes ``json.dumps`` writes for
    ``proof_to_dict(tree)``, one line with the stdlib's default
    separators and ASCII escapes, and a newline.

    It is written in one walk of the table, with no dict built and no
    recursion.  The walk keeps the closing text of each node on the path
    to the node before (``"], "closure": ...}"``) on a stack, and writes
    those of the nodes the next one is not below before the next node's
    opening text.  Each formula object is printed and escaped once, and
    each ``RuleApp`` object written once.  A table that ``_depths``
    refuses, and a tree deeper than ``MAX_WRITE_DEPTH`` nodes, which the
    C decoder could not read back, are a :class:`FileFormatError` before
    any text is made."""
    from . import tableau

    depths = _depths(tree)
    if max(depths) > MAX_WRITE_DEPTH:
        raise FileFormatError("proof nested too deeply to write as format v1")
    memo: Memo = {}
    formulas: dict[int, str] = {}  # the JSON text of each formula, by id
    rules: dict[int, str] = {}  # the JSON text of each RuleApp, by id
    roots = ", ".join(_quote(print_formula(f, memo)) for f in tree.roots)
    out = [f'{{"roots": [{roots}], "tree": ']
    closing: list[str] = []
    for node, depth in zip(tree.table, depths):
        if len(closing) >= depth:  # a later child: close the subtree before it
            while len(closing) >= depth:
                out.append(closing.pop())
            out.append(", ")
        f = node.formula
        text = formulas.get(id(f))
        if text is None:
            text = formulas[id(f)] = _quote(print_formula(f, memo))
        rule = node.rule
        if rule is None:
            rule_text = "null"
        else:
            rule_text = rules.get(id(rule))
            if rule_text is None:
                rule_text = rules[id(rule)] = _rule_to_json(rule, memo)
        nid = node.id
        out.append(f'{{"id": {nid if type(nid) is int else _scalar(nid)}, '
                   f'"formula": {text}, "rule": {rule_text}, "children": [')
        mark = node.closure
        if mark is None:
            closing.append('], "closure": null}')
        else:
            kind, field, value = _closure_fields(mark, tableau)
            closing.append(f'], "closure": {{"kind": "{kind}", "{field}": {_scalar(value)}}}}}')
    out.extend(reversed(closing))
    out.append("}\n")
    return "".join(out)


def write_proof_file(path: Union[str, Path], tree: ProofTree) -> None:
    """Write ``proof_to_json(tree)`` to ``path``; a tree it refuses
    leaves no file."""
    Path(path).write_text(proof_to_json(tree), encoding="utf-8")


def _parse_rule(data: Optional[dict], decls: Iterable[str],
                rules: dict[int, tuple[dict, RuleApp]],
                apps: dict[RuleApp, RuleApp], tableau) -> Optional[RuleApp]:
    """The rule instance ``data`` writes.  ``rules`` maps each premise
    read in a well-typed one-premise rule dict to the last such dict and
    its ``RuleApp``: a dict equal to it is that instance, with no field
    read again.  ``apps`` holds every instance built, so that nodes citing
    equal instances share one.  The nodes citing one instance of a
    prover's tree are the conclusions of one expansion, all on one
    premise, and the expansions on one premise mostly apply one rule."""
    if data is None:
        return None
    get = data.get
    premises = get("premises")
    # Only an integer premise: 1, 1.0 and true are equal, and so are
    # lists and dicts holding them.
    key = None
    if type(premises) is list and len(premises) == 1 and type(premises[0]) is int:
        key = premises[0]
        seen = rules.get(key)
        if seen is not None and seen[0] == data:
            return seen[1]
    p: Optional[Atom] = None
    if get("param") is not None:
        text = data["param"]
        p = _atom(text, PARAM, f"rule parameter {text!r} must be written @name")
    cut = None if get("cut") is None else parse_formula(data["cut"], decls)
    v = get("var")
    if v is not None:
        if not isinstance(v, str):
            raise FileFormatError(f"rule variable {v!r} must be a string")
        v = _atom(v, VAR, f"rule variable {v!r} must be a variable name").name
    name = data["name"]
    if key is None:
        premises = tuple(_typed(i, int, "rule premise")
                         for i in _typed(data["premises"], list, "premises"))
    else:
        premises = (key,)
    rule = tableau.RuleApp(name, premises, p, cut, v)
    rule = apps.setdefault(rule, rule)
    if key is not None:
        rules[key] = (data, rule)
    return rule


def _atom(text, kind: str, message: str) -> Atom:
    """The atom ``text`` writes, read by the parser's atom rule, if it is
    of ``kind``; otherwise a :class:`FileFormatError` with ``message``."""
    try:
        p = Parser(text)
        a = p.whole(p.atom)
    except (ParseError, TypeError):
        a = None
    if a is None or a.kind != kind:
        raise FileFormatError(message)
    return a


def _parse_closure(data: dict, nid: int, tableau):
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
    rules: dict[int, tuple[dict, RuleApp]] = {}
    apps: dict[RuleApp, RuleApp] = {}
    node_class = tableau.ProofNode
    nodes: list[ProofNode] = []
    stack = [(None, data)]  # (the parent's index, node data)
    while stack:
        parent, data = stack.pop()
        try:
            nid = data["id"]
            if type(nid) is not int:
                _typed(nid, int, "node id")
            text = data["formula"]
            mark = data.get("closure")
            node = node_class(
                nid,
                table.get(text) or parse_formula(text, decls, arities),
                _parse_rule(data.get("rule"), decls, rules, apps, tableau),
                parent,
                None if mark is None else _parse_closure(mark, nid, tableau),
            )
            children = data.get("children", [])
            if type(children) is not list:
                children = list(children)
        except _MALFORMED as exc:
            where = data.get("id") if isinstance(data, dict) else data
            raise FileFormatError(f"bad proof node {where!r}: {exc!r}") from exc
        nodes.append(node)
        if children:
            if len(children) > 2:
                raise FileFormatError(f"node {nid} has more than two children")
            index = len(nodes) - 1
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

    ``param``, ``cut`` and ``var`` appear only on rules that take them;
    ``param`` and ``var`` are read as the parser reads a parameter and an
    individual variable.
    Node ids, premises and ``with`` are JSON integers (not booleans),
    ``premises`` is a list, and a CS closure's ``constant`` is a JSON
    string.  A node text that is a subformula of a root, an ``FPlus``
    conclusion from one, or the negation of either is looked up instead
    of parsed, in a table of those texts made from the roots (see
    ``_add_subformulas``; a negation's entry is ``neg`` of the formula's,
    as the calculus concludes it); others, such as quantifier instances,
    are parsed.  Only the roots are printed.
    Nodes whose rule objects have equal fields share one ``RuleApp``; a
    rule object equal to the last one read on its premise is not decoded
    again (see ``_parse_rule``).
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
