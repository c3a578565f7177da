"""Tableau proof search under resource budgets.

The strategy is deterministic and monotone: rules only ever add
formulas to a branch, so no backtracking is needed.  Cheap
non-branching rules fire first, then one-shot fresh-parameter rules,
then the branching implication rule, and finally the generative rules
(parameter instantiation, window contraction, application cuts), which
are rationed round-robin per premise.

The search runs off an agenda.  A node is classified once, when it joins
the branch and leaves it open, into per-rule queues in branch order: one
per deterministic rule, then delta (fresh parameter), TImp and gamma
(generative).  Every entry is ``(node id, branch position, rule name,
premise)``, and the rule instance is built when the entry is examined.
A premise that has fired, or can never fire usefully again, is marked
spent.  The same pass indexes the node's subformulas and the
antecedents of its asserted implications, the sources of FDot's cut
candidates.  A node that closes its branch is never classified or
indexed: no rule is applied on a closed branch.
Gamma premises are examined least used first, then in branch order,
then by rule name, and the first with an instance to apply wins; the
rest wait for a later step.  An FDot premise lists its cut candidates
afresh at each examination.  The agenda also maps each ``g`` whose
negation is on the branch to the first node of ``~g``: the closure test
and TImp's redundancy test (is ``~left`` on the branch?) read it, so
neither builds a negation.  Formulas cache their hash and atom sets.  All
branches share one agenda: each change is logged on a trail, which is
unwound to the branch point before each child of a branching rule
grows.

``_Search.close_tableau`` is the one exit: it tests every budget, and
returns ``Open`` or ``Exhausted`` where the search stops, on the branch
it stops on, or None when the tableau closes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import chain
from typing import Any, Optional, Sequence, Union

from .axioms import ConstantSpecification
from .syntax import (
    Assert,
    Atom,
    Exists,
    Forall,
    Formula,
    Impl,
    Neg,
    _node,
    atoms_of,
    elem_set,
    free_vars,
    neg,
    par_set,
    param as mk_param,
)
from .tableau import (
    FRESH_PARAM_RULES,
    Closure,
    ProofNode,
    ProofTree,
    RuleApp,
    RuleError,
    apply_rule,
    closure_against,
    premise_rules,
)


class SearchBudget(metaclass=_node, frozen=True):
    max_nodes: int = 10_000
    max_depth: int = 200
    max_params: int = 8
    max_cut_candidates: int = 32
    time_limit: float = 30.0

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_depth", "max_params", "max_cut_candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.time_limit > 0:  # also rejects nan
            raise ValueError("time_limit must be positive")


class Proved(metaclass=_node, frozen=True):
    tree: ProofTree


class Open(metaclass=_node, frozen=True):
    branch: tuple[Formula, ...]
    diagnostics: str


class Exhausted(metaclass=_node, frozen=True):
    dimension: str
    branch: tuple[Formula, ...]


SearchOutcome = Union[Proved, Open, Exhausted]

# A selected rule instance and its child-branch extensions.
_Choice = tuple[RuleApp, list[list[Formula]]]

_DETERMINISTIC = ("FNeg", "FImp", "FPlus", "FBang", "GenX", "Exp", "TColon", "Ins")
_QUEUES = (*_DETERMINISTIC, "delta", "TImp", "gamma")
# The queue each rule's premises join.
_QUEUE_OF = {
    **{name: name for name in (*_DETERMINISTIC, "TImp")},
    **dict.fromkeys(FRESH_PARAM_RULES, "delta"),
    **dict.fromkeys(("TForall", "FExists", "FDot", "Ctr"), "gamma"),
}


def _param_of(name: str, premise: Formula) -> Optional[Atom]:
    """The parameter that Exp drops or Ins instantiates on ``premise``:
    the least one of the window, but not the body, to drop, or of the
    body to instantiate; None if there is none."""
    pars = par_set(premise.body.body)
    if name == "Exp":
        pars = {w.name for w in premise.body.window} - pars
    return mk_param(min(pars)) if pars else None


class _Agenda:
    """The current branch, its rule queues and its per-premise
    bookkeeping.  Every change is logged on ``trail`` so that ``undo``
    can return to an earlier branch point."""

    def __init__(self) -> None:
        self.branch: dict[int, Formula] = {}  # root first
        self.formulas: dict[Formula, int] = {}  # first node id per formula
        self.negs: dict[Formula, int] = {}  # g -> first node id of ~g
        self.param_order: list[str] = []
        self.queues: dict[str, list] = {name: [] for name in _QUEUES}
        self.heads: dict[str, int] = dict.fromkeys(_QUEUES, 0)
        self.spent: set[tuple[str, int]] = set()
        self.gamma_used: dict[int, set[str]] = defaultdict(set)
        self.gamma_fresh_used: set[int] = set()
        self.gamma_uses: dict[int, int] = {}
        self.fdot_done: dict[int, set[Formula]] = defaultdict(set)
        # Cut sources: distinct subformulas in order of first occurrence,
        # and the antecedents of asserted implications by consequent.
        self.subformulas: dict[Formula, None] = {}
        self.antecedents: dict[Formula, list[Formula]] = defaultdict(list)
        # Fresh parameters introduced on the branch, and the first budget
        # dimension that stopped a rule, kept in a dict for ``setitem``.
        self.counts: dict[str, Any] = {"fresh_params": 0, "limit_hit": None}
        self.trail: list[tuple[Any, tuple]] = []  # (undo function, its arguments)

    # -- logged changes ----------------------------------------------------

    def put(self, d: dict, key: Any, value: Any) -> None:
        """``d[key] = value`` for a new ``key``."""
        d[key] = value
        self.trail.append((d.pop, (key,)))

    def append(self, items: list, x: Any) -> None:
        items.append(x)
        self.trail.append((items.pop, ()))

    def add(self, s: set, x: Any) -> None:
        if x not in s:
            s.add(x)
            self.trail.append((s.discard, (x,)))

    def setitem(self, d: dict, key: Any, value: Any) -> None:
        """``d[key] = value``; undone to the earlier entry, if any."""
        if key in d:
            self.trail.append((d.__setitem__, (key, d[key])))
        else:
            self.trail.append((d.pop, (key,)))
        d[key] = value

    def count_fresh(self) -> None:
        """Count a fresh parameter introduced on the branch."""
        self.setitem(self.counts, "fresh_params", self.counts["fresh_params"] + 1)

    def hit(self, dimension: str) -> None:
        """Record a budget dimension that stopped a rule; only the first
        one is reported."""
        if self.counts["limit_hit"] is None:
            self.setitem(self.counts, "limit_hit", dimension)

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            fn, args = trail.pop()
            fn(*args)

    # -- the branch ----------------------------------------------------------

    def note(self, nid: int, f: Formula) -> None:
        """Add node ``nid`` to the branch and to the queues it belongs to."""
        pos = len(self.branch)
        self.put(self.branch, nid, f)
        if f not in self.formulas:
            self.put(self.formulas, f, nid)
            if isinstance(f, Neg):
                self.put(self.negs, f.body, nid)
        pars = par_set(f)
        if pars:
            for u in sorted(pars):
                if u not in self.param_order:
                    self.append(self.param_order, u)
        for name in premise_rules(f):
            # Exp and Ins join only with a parameter to drop or to instantiate.
            if name not in ("Exp", "Ins") or _param_of(name, f) is not None:
                self.append(self.queues[_QUEUE_OF[name]], (nid, pos, name, f))
        # Index the subformulas not seen yet; a seen one had all of its
        # own subformulas indexed with it.
        stack = [f]
        while stack:
            sub = stack.pop()
            if sub in self.subformulas:
                continue
            self.put(self.subformulas, sub, None)
            if isinstance(sub, Neg):
                stack.append(sub.body)
            elif isinstance(sub, Impl):
                stack += (sub.right, sub.left)
            elif isinstance(sub, (Forall, Exists, Assert)):
                stack.append(sub.body)
                if isinstance(sub, Assert) and isinstance(sub.body, Impl):
                    self.append(self.antecedents[sub.body.right], sub.body.left)

    def pending(self, queue: str):
        """Unspent entries of ``queue`` in branch order."""
        entries, spent = self.queues[queue], self.spent
        i = self.heads[queue]
        while i < len(entries) and (queue, entries[i][0]) in spent:
            i += 1
        if i != self.heads[queue]:
            self.setitem(self.heads, queue, i)
        for entry in entries[i:]:
            if (queue, entry[0]) not in spent:
                yield entry


class _Search:
    def __init__(
        self,
        goal: Formula,
        cs: ConstantSpecification,
        budget: SearchBudget,
        hints: Sequence[Formula],
    ):
        self.goal = goal
        self.cs = cs
        self.budget = budget
        self.hints = list(hints)
        self.cs_antecedents = [
            entry.left for _, entry in cs.concrete if isinstance(entry, Impl)
        ]
        self.nodes_created = 0  # the last node's id
        # The nodes as they join the branch, depth first: the last is the next one's parent.
        self.table: list[ProofNode] = []
        self.fresh_counters = {"u": 0, "v": 0}  # parameters, variables
        self.deadline = time.monotonic() + budget.time_limit
        # Free variables occur as atoms, so atoms_of covers them.
        sources = (goal, *hints, *(e for _, e in cs.concrete))
        self.reserved_names = {a.name for f in sources for a in atoms_of(f)}

    # -- fresh symbols -----------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        """``prefix`` numbered by its own counter, skipping used names."""
        while True:
            name = f"{prefix}{self.fresh_counters[prefix]}"
            self.fresh_counters[prefix] += 1
            if name not in self.reserved_names:
                self.reserved_names.add(name)
                return name

    def fresh_param(self) -> Atom:
        return mk_param(self.fresh_name("u"))

    # -- node plumbing -----------------------------------------------------

    def make_node(self, f: Formula, rule: Optional[RuleApp]) -> ProofNode:
        self.nodes_created += 1
        return ProofNode(self.nodes_created, f, rule, len(self.table) - 1 if self.table else None)

    # -- rule selection ----------------------------------------------------

    def _try_rule(self, agenda: _Agenda, rule: RuleApp) -> Optional[_Choice]:
        """The instance with its extensions, if it applies and adds a
        formula to each child branch."""
        try:
            extensions = apply_rule(agenda.branch, rule)
        except RuleError:
            return None
        formulas = agenda.formulas
        if all(any(f not in formulas for f in ext) for ext in extensions):
            return rule, extensions
        return None

    def select(self, agenda: _Agenda) -> Optional[_Choice]:
        """The next rule instance to apply, with its extensions."""
        for name in _DETERMINISTIC:
            if agenda.heads[name] == len(agenda.queues[name]):
                continue  # nothing past the head
            for nid, _, _, premise in agenda.pending(name):
                rule = RuleApp(
                    name, (nid,), _param_of(name, premise) if name in ("Exp", "Ins") else None,
                    # A fresh variable per Ins examination, applicable or not.
                    var=self.fresh_name("v") if name == "Ins" else None,
                )
                choice = self._try_rule(agenda, rule)
                if choice is not None:
                    return choice
                if name != "Ins":
                    # Inapplicable or redundant, and stays so on this branch.
                    agenda.add(agenda.spent, (name, nid))
        if agenda.heads["delta"] != len(agenda.queues["delta"]):
            for nid, _, name, _ in agenda.pending("delta"):
                if agenda.counts["fresh_params"] >= self.budget.max_params:
                    agenda.hit("max_params")
                    continue
                rule = RuleApp(name, (nid,), param=self.fresh_param())
                return rule, apply_rule(agenda.branch, rule)
        if agenda.heads["TImp"] != len(agenda.queues["TImp"]):
            for nid, _, _, f in agenda.pending("TImp"):
                # ``_try_rule``'s test for the children ``~left`` and
                # ``right``, made without building ``~left``.
                if f.left in agenda.negs or f.right in agenda.formulas:
                    agenda.add(agenda.spent, ("TImp", nid))
                    continue
                rule = RuleApp("TImp", (nid,))
                return rule, apply_rule(agenda.branch, rule)
        gamma = agenda.queues["gamma"]
        if not gamma:
            return None
        # The least used, earliest premise with an instance wins.  Whether
        # a premise has one does not depend on the others examined, so
        # the rest wait.
        uses = agenda.gamma_uses
        for nid, pos, name, premise in sorted(
            gamma, key=lambda e: (uses.get(e[0], 0), e[1], e[2])
        ):
            find = self._fdot_rule if name == "FDot" else self._param_rule
            choice = find(name, nid, premise, agenda)
            if choice is not None:
                return choice
        return None

    def _param_rule(
        self, name: str, nid: int, premise: Formula, agenda: _Agenda
    ) -> Optional[_Choice]:
        """TForall, FExists or Ctr with the first branch parameter not
        yet used on ``premise``; a quantifier premise may then take one
        fresh parameter."""
        used = agenda.gamma_used[nid]
        if len(used) >= self.budget.max_params:
            agenda.hit("max_params")
            return None
        window = {w.name for w in premise.body.window} if name == "Ctr" else ()
        for p in agenda.param_order:
            if p in used or p in window:
                continue
            choice = self._try_rule(agenda, RuleApp(name, (nid,), param=mk_param(p)))
            if choice is not None:
                return choice
            agenda.add(used, p)
        if name == "Ctr" or nid in agenda.gamma_fresh_used:
            return None
        if agenda.counts["fresh_params"] >= self.budget.max_params:
            agenda.hit("max_params")
            return None
        rule = RuleApp(name, (nid,), param=self.fresh_param())
        return rule, apply_rule(agenda.branch, rule)

    def _fdot_rule(
        self, name: str, nid: int, premise: Formula, agenda: _Agenda
    ) -> Optional[_Choice]:
        """FDot with the first cut candidate not yet tried on ``premise``
        whose two conclusions are both new to the branch."""
        done = agenda.fdot_done[nid]
        if len(done) >= self.budget.max_cut_candidates:
            agenda.hit("max_cut_candidates")
            return None
        for cut in self._cut_candidates(premise.body, agenda):
            if cut in done:
                continue
            choice = self._try_rule(agenda, RuleApp("FDot", (nid,), cut=cut))
            if choice is not None:
                return choice
            agenda.add(done, cut)
        return None

    def _cut_candidates(self, a: Assert, agenda: _Agenda) -> tuple[Formula, ...]:
        """The first admissible candidates, in order: hints, antecedents
        of asserted implications whose consequent is the premise's body,
        antecedents of concrete CS entries, then the branch's
        subformulas."""
        limit = self.budget.max_cut_candidates
        window_pars = {w.name for w in a.window}
        out: dict[Formula, None] = {}
        for f in chain(
            self.hints, agenda.antecedents.get(a.body, ()), self.cs_antecedents, agenda.subformulas
        ):
            if len(out) == limit:
                break
            if f not in out and par_set(f) <= window_pars and not elem_set(f):
                out[f] = None
        return tuple(out)

    # -- main loop ---------------------------------------------------------

    def close_tableau(self, root: ProofNode) -> Optional[Union[Open, Exhausted]]:
        """Grow the tableau below ``root`` until every branch closes, and
        return None; or return how the search stopped: ``Open`` with the
        first branch that saturates open, or ``Exhausted`` with the budget
        dimension that ran out and the branch it stopped on.  No other
        place makes either outcome.

        Branches grow depth first, children in order, off a stack of
        ``(node, branch point)`` pairs: the agenda is unwound to the branch
        point before the node joins the branch, so proof depth is not
        bounded by the interpreter's stack.  The time and depth budgets
        are tested before each rule is chosen, and ``max_nodes`` before
        each node is made: a branching rule makes all of its children or
        none.
        """
        budget = self.budget
        agenda = _Agenda()
        stack = [(root, 0)]
        while stack:
            leaf, branch_point = stack.pop()
            agenda.undo(branch_point)
            leaf.closure = self._note_and_close(agenda, leaf)
            while leaf.closure is None:
                if time.monotonic() > self.deadline:
                    return Exhausted("time_limit", tuple(agenda.branch.values()))
                if len(agenda.branch) > budget.max_depth:
                    return Exhausted("max_depth", tuple(agenda.branch.values()))
                choice = self.select(agenda)
                if choice is None:
                    branch = tuple(agenda.branch.values())
                    if agenda.counts["limit_hit"] is not None:
                        return Exhausted(agenda.counts["limit_hit"], branch)
                    return Open(
                        branch,
                        "branch saturated without closing; the goal may not be "
                        "provable with the current strategy",
                    )
                rule, extensions = choice
                self._mark_applied(agenda, rule)
                if len(extensions) > 1:
                    if self.nodes_created + len(extensions) > budget.max_nodes:
                        return Exhausted("max_nodes", tuple(agenda.branch.values()))
                    children = [self.make_node(ext[0], rule) for ext in extensions]
                    branch_point = len(agenda.trail)
                    stack.extend((child, branch_point) for child in reversed(children))
                    break
                for f in extensions[0]:
                    if self.nodes_created >= budget.max_nodes:
                        return Exhausted("max_nodes", tuple(agenda.branch.values()))
                    leaf = self.make_node(f, rule)
                    leaf.closure = self._note_and_close(agenda, leaf)
                    if leaf.closure is not None:
                        break
        return None

    def _mark_applied(self, agenda: _Agenda, rule: RuleApp) -> None:
        nid = rule.premises[0]
        queue = _QUEUE_OF[rule.name]
        if queue != "gamma":
            agenda.add(agenda.spent, (queue, nid))
            if queue == "delta":
                agenda.count_fresh()
            return
        if rule.name == "FDot":
            agenda.add(agenda.fdot_done[nid], rule.cut)
        else:
            assert rule.param is not None
            if rule.param.name not in agenda.param_order:
                agenda.count_fresh()
                agenda.add(agenda.gamma_fresh_used, nid)
            agenda.add(agenda.gamma_used[nid], rule.param.name)
        agenda.setitem(agenda.gamma_uses, nid, agenda.gamma_uses.get(nid, 0) + 1)

    def _note_and_close(self, agenda: _Agenda, node: ProofNode) -> Optional[Closure]:
        """Add ``node`` to the table and return its closure mark.  A closing
        node is never classified or indexed: no rule is applied on a closed
        branch, and the agenda is unwound before it is read again."""
        mark = closure_against(node.id, node.formula, agenda.formulas, agenda.negs, self.cs)
        if mark is None:
            agenda.note(node.id, node.formula)
        self.table.append(node)
        return mark

    def run(self) -> SearchOutcome:
        root_formula = neg(self.goal)
        root = self.make_node(root_formula, None)
        return self.close_tableau(root) or Proved(ProofTree([root_formula], self.table))


def prove(
    goal: Formula,
    cs: ConstantSpecification,
    budget: Optional[SearchBudget] = None,
    hints: Sequence[Formula] = (),
) -> SearchOutcome:
    """Search for a closed tableau beginning with the negated goal.

    ``proved`` outcomes carry a tree whose root is the negated goal and
    in which every branch closes; ``open`` and ``exhausted`` are
    non-verdicts, each with the branch the search stopped on.
    """
    if free_vars(goal) or par_set(goal) or elem_set(goal):
        raise ValueError(f"goal must be a sentence: {goal}")
    return _Search(goal, cs, budget or SearchBudget(), hints).run()
