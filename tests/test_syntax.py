"""Core AST semantics: variables, substitution, canonical forms."""

import copy
import gc
import importlib
import pickle
import weakref

import pytest

import folp
from folp import (
    App,
    Assert,
    Atom,
    Bang,
    CaptureError,
    ConstantSpecification,
    Contradiction,
    CountermodelSearch,
    CsClosure,
    CsError,
    Exhausted,
    Exists,
    Forall,
    Formula,
    Gen,
    Impl,
    MkrtychevModel,
    Neg,
    Open,
    Pred,
    ProofNode,
    ProofTree,
    Proved,
    RuleApp,
    SearchBudget,
    Sum,
    Term,
    TermConst,
    TermVar,
    Verdict,
    Violation,
    alpha_eq,
    canonical,
    elem,
    elem_set,
    free_vars,
    par_set,
    param,
    parse_formula,
    print_formula,
    substitute,
    substitute_param,
    universal_closure,
    var,
    variable_variant,
)
from folp.parser import Token
from folp.syntax import _repr, neg
from conftest import run_fresh


def f(text: str):
    return parse_formula(text, {"c"})


class TestFreeVars:
    def test_pred_and_quantifier(self):
        assert free_vars(f("R(x, y)")) == {"x", "y"}
        assert free_vars(f("forall x. R(x, y)")) == {"y"}
        assert free_vars(f("forall x. exists y. R(x, y)")) == set()

    def test_assert_window_is_the_free_var_set(self):
        # Only window variables are free; body occurrences outside the
        # window are out of reach.
        assert free_vars(f("p :[x] R(x, y)")) == {"x"}
        assert free_vars(f("p : R(x, y)")) == set()

    def test_window_params_and_elems_not_free(self):
        assert free_vars(f("p :[x, @u, $a] Q(x)")) == {"x"}

    def test_atom_namespaces_disjoint(self):
        g = f("p :[@u] S(x, $a)")
        assert par_set(g) == {"u"}
        assert elem_set(g) == {"a"}
        assert free_vars(g) == set()


class TestSubstitute:
    def test_basic(self):
        assert substitute(f("Q(x)"), "x", elem("a")) == f("Q($a)")
        assert substitute(f("forall x. Q(x)"), "x", elem("a")) == f("forall x. Q(x)")

    def test_window_gating(self):
        # The window variable is replaced throughout, window included.
        assert substitute(f("p :[x] R(x, x)"), "x", elem("a")) == f("p :[$a] R($a, $a)")
        # A non-window occurrence is untouchable.
        assert substitute(f("p : Q(x)"), "x", elem("a")) == f("p : Q(x)")
        assert substitute(f("p :[y] R(x, y)"), "x", elem("a")) == f("p :[y] R(x, y)")

    def test_capture_raises(self):
        with pytest.raises(CaptureError):
            substitute(f("forall y. R(x, y)"), "x", var("y"))
        # Renaming-free substitution with a non-captured variable works.
        assert substitute(f("forall y. R(x, y)"), "x", var("z")) == f("forall y. R(z, y)")

    def test_param_substitution_all_occurrences(self):
        g = f("p :[@u] Q(@u) -> Q(@u)")
        assert substitute_param(g, "u", var("v")) == f("p :[v] Q(v) -> Q(v)")

    def test_param_substitution_capture(self):
        with pytest.raises(CaptureError):
            substitute_param(f("forall y. Q(@u)"), "u", var("y"))


class TestCanonical:
    def test_alpha_eq(self):
        assert alpha_eq(f("forall x. Q(x)"), f("forall y. Q(y)"))
        assert not alpha_eq(f("forall x. Q(x)"), f("forall y. R(y)"))
        assert canonical(f("forall x. exists y. R(x, y)")) == canonical(
            f("forall y. exists x. R(y, x)")
        )

    def test_canonical_keeps_free_vars(self):
        assert canonical(f("Q(x)")) == f("Q(x)")

    def test_variable_variant(self):
        assert variable_variant(
            f("forall x. A(x) -> A(x)"), f("forall v. A(v) -> A(v)")
        )
        assert variable_variant(f("Q(x)"), f("Q(y)"))
        assert not variable_variant(f("R(x, y)"), f("R(x, x)"))
        assert not variable_variant(f("Q(x)"), f("Q($a)"))

    def test_variant_respects_windows(self):
        assert variable_variant(f("p :[x] Q(x)"), f("p :[y] Q(y)"))
        assert not variable_variant(f("p :[x] Q(x)"), f("q :[y] Q(y)"))

    def test_bound_names_never_meet_free_ones(self):
        # A parsed variable may be called like a canonical name of old.
        assert not alpha_eq(f("forall x. R(x, _b0)"), f("forall x. R(x, x)"))
        assert not alpha_eq(f("forall x. p :[x] R(x, _b0)"), f("forall x. p :[x] R(x, x)"))

    def test_canonical_form_is_cached_and_its_own(self):
        g = f("forall x. exists y. R(x, y)")
        c = canonical(g)
        assert canonical(g) is c and canonical(c) is c
        assert canonical(f("forall y. exists x. R(y, x)")) == c

    def test_renaming_shares_what_it_leaves_alone(self):
        # A formula without binders is its own canonical form.
        g = f("p :[x] (q * !p) : Q(x) -> ~R(x, $a)")
        assert canonical(g) is g and canonical(g) is g  # the second from the cache
        h = f("(forall x. Q(x)) -> p :[y] (q * !p) : Q(y)")
        c = canonical(h)
        assert c.left == Forall("0", Pred("Q", (var("0"),))) and c.right is h.right
        s = substitute(h, "y", elem("a"))
        assert s.left is h.left and s.right.body.term is h.right.body.term
        assert substitute(h, "z", elem("a")) is h
        assert substitute_param(h, "u", var("v")) is h


class TestEquality:
    @staticmethod
    def chain(n, last="P"):
        goal = Pred(f"{last}{n}")
        for i in reversed(range(n)):
            goal = Impl(Impl(Pred(f"P{i}"), Pred(f"P{i + 1}")), goal)
        return Impl(Pred("P0"), goal)

    def test_deep_formulas_compare_without_recursion(self):
        # chain-1000 nests about 1,000 levels; two separately built copies
        # compare by walking, not by recursing once per level.
        a, b = self.chain(1000), self.chain(1000)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self.chain(1000, last="Q")
        assert a != self.chain(999)

    def test_nodes_of_other_classes_differ(self):
        assert f("p : Q0") != f("q : Q0") and f("p : Q0") != f("p :[x] Q0")
        assert f("(p + q) : Q0") != f("(p * q) : Q0")
        assert TermVar("Q0") != f("Q0") and f("Q0") != "Q0"


class TestWindows:
    def test_window_normalized(self):
        a = f("p :[y, x, x] Q0")
        b = f("p :[x, y] Q0")
        assert a == b

    def test_universal_closure(self):
        g = f("R(x, y)")
        assert free_vars(universal_closure(g)) == set()
        assert universal_closure(g) == f("forall x. forall y. R(x, y)")
        assert universal_closure(f("Q0")) == f("Q0")


class TestPrinting:
    def test_str_forms(self):
        assert print_formula(f("~(Q0 -> Q1)")) == "~(Q0 -> Q1)"
        assert print_formula(f("Q0 -> Q1 -> Q2")) == "Q0 -> Q1 -> Q2"
        assert str(TermVar("p")) == "p"
        assert str(param("u")) == "@u"
        assert str(elem("a")) == "$a"

    def test_repr_is_the_dataclass_form(self):
        g = f("Q0 -> ~(p + gen<x>(c)) :[x] forall x. Q(x)")
        assert repr(g) == (
            "Impl(left=Pred(name='Q0', args=()), right=Neg(body=Assert("
            "term=Sum(left=TermVar(name='p'), right=Gen(bound='x', inner=TermConst(name='c'))), "
            "window=(Atom(kind='var', name='x'),), "
            "body=Forall(bound='x', body=Pred(name='Q', args=(Atom(kind='var', name='x'),))))))"
        )


_P, _Q, _X, _Y = TermVar("p"), TermVar("q"), var("x"), var("y")
_A, _B = Pred("Q0"), Pred("Q", (_X,))

# Each node class with the values of its fields, in order.
NODE_FIELDS = (
    (TermVar, {"name": "p"}),
    (TermConst, {"name": "c"}),
    (Sum, {"left": _P, "right": _Q}),
    (App, {"left": _P, "right": _Q}),
    (Bang, {"inner": _P}),
    (Gen, {"bound": "x", "inner": _P}),
    (Pred, {"name": "Q", "args": (_X,)}),
    (Neg, {"body": _A}),
    (Impl, {"left": _A, "right": _B}),
    (Forall, {"bound": "x", "body": _B}),
    (Exists, {"bound": "x", "body": _B}),
    (Assert, {"term": _P, "window": (_X, _Y), "body": _B}),
)


class TestNodes:
    def test_every_node_class_is_pinned(self):
        classes = {cls for cls, _ in NODE_FIELDS}
        assert classes == {*Term.__subclasses__(), *Formula.__subclasses__()}

    @pytest.mark.parametrize("cls, fields", NODE_FIELDS, ids=[cls.__name__ for cls, _ in NODE_FIELDS])
    def test_construction_hash_and_slots(self, cls, fields):
        node = cls(*fields.values())
        assert node == cls(**fields)
        assert [getattr(node, name) for name in fields] == list(fields.values())
        # The hash is that of the class name and the fields, each child
        # replaced by its own hash, so set and dict orders never drift.
        key = [v._hash if isinstance(v, (Term, Formula)) else v for v in fields.values()]
        assert hash(node) == node._hash == hash((cls.__name__, *key))
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(TypeError):
            cls(*fields.values(), None)

    def test_normalizers_run_before_hashing(self):
        pred = Pred("Q", [_X])
        assert pred.args == (_X,) and type(pred.args) is tuple
        assert hash(pred) == hash(("Pred", "Q", (_X,)))
        a = Assert(_P, [_Y, _X, _Y], _B)
        assert a.window == (_X, _Y) and hash(a) == hash(Assert(_P, (_X, _Y), _B))

    def test_pred_args_default_to_empty(self):
        assert Pred("Q0").args == () and Pred(name="Q0") == Pred("Q0", ())
        assert hash(Pred("Q0")) == hash(("Pred", "Q0", ()))


_ENTRY = ("c", f("Q0 -> Q1 -> Q0"))
_RULE = RuleApp("FNeg", (0,))
_TREE = ProofTree([Neg(_A)], [ProofNode(0, Neg(_A), None),
                              ProofNode(1, _A, _RULE, 0, Contradiction(1, 0))])

# Each record class: the values of its fields, in order, its defaults,
# and whether it is frozen (refuses assignment and hashes its fields).
RECORDS = (
    (Atom, {"kind": "var", "name": "x"}, {}, True),
    (ConstantSpecification,
     {"constants": frozenset("c"), "concrete": (_ENTRY,), "schematic": (("c", "JT"),),
      "total": True, "variant_closed": True},
     {"constants": frozenset(), "concrete": (), "schematic": (), "total": False,
      "variant_closed": False}, True),
    (MkrtychevModel, {"domain": ("a",), "interp": {"Q": frozenset({("a",)})}, "evidence": {}},
     {}, False),
    (Violation, {"condition": "E1", "message": "missing"}, {}, True),
    (CountermodelSearch, {"model": None, "status": "absent", "models_checked": 3},
     {"models_checked": 0}, False),
    (RuleApp, {"name": "Ins", "premises": (0,), "param": param("u"), "cut": _A, "var": "v"},
     {"param": None, "cut": None, "var": None}, True),
    (Contradiction, {"node_id": 1, "with_id": 0}, {}, True),
    (CsClosure, {"node_id": 1, "constant": "c"}, {}, True),
    (ProofNode, {"id": 1, "formula": _A, "rule": _RULE, "parent": 0,
                 "closure": CsClosure(1, "c")}, {"parent": None, "closure": None}, False),
    (ProofTree, {"roots": [Neg(_A)], "table": _TREE.table}, {}, False),
    (SearchBudget, {"max_nodes": 5, "max_depth": 6, "max_params": 7, "max_cut_candidates": 8,
                    "time_limit": 9.0},
     {"max_nodes": 10_000, "max_depth": 200, "max_params": 8, "max_cut_candidates": 32,
      "time_limit": 30.0}, True),
    (Proved, {"tree": _TREE}, {}, True),
    (Open, {"branch": (_A, Neg(_B)), "diagnostics": "no rule applies"}, {}, True),
    (Exhausted, {"dimension": "max_nodes", "branch": (_A, Neg(_B))}, {}, True),
    (Verdict, {"accepted": False, "node_id": 1, "condition": "closure-cs", "message": "no"},
     {"node_id": None, "condition": None, "message": ""}, True),
    (Token, {"kind": "PRED", "text": "Q", "offset": 2, "source": "~ Q"}, {}, False),
)


class TestRecords:
    """The records behave as the dataclasses they once were, each made
    with slots."""

    @pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS,
                             ids=[cls.__name__ for cls, *_ in RECORDS])
    def test_contract(self, cls, fields, defaults, frozen):
        record = cls(*fields.values())
        assert [getattr(record, name) for name in fields] == list(fields.values())
        assert repr(record) == (
            f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")
        bare = cls(**{k: v for k, v in fields.items() if k not in defaults})
        assert [getattr(bare, name) for name in defaults] == list(defaults.values())
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        # Equality is field-wise, and only with a record of the class.
        assert record == cls(**fields)
        for name in fields:
            other = cls(**fields)
            object.__setattr__(other, name, object())
            assert record != other
        assert record != tuple(fields.values())
        first = next(iter(fields))
        if frozen:
            # It hashes its fields when they all hash (``Proved``'s tree
            # does not).
            try:
                key = hash(tuple(fields.values()))
            except TypeError:
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == key
            with pytest.raises(AttributeError):
                setattr(record, first, fields[first])
            with pytest.raises(AttributeError):
                delattr(record, first)
        else:
            assert cls.__hash__ is None
            setattr(record, first, fields[first])
        # Each field is a slot, and there is no other.
        assert cls.__slots__ == tuple(fields) and not hasattr(record, "__dict__")

    def test_every_record_class_is_pinned(self):
        modules = [importlib.import_module("folp." + name)
                   for name in {*folp._EXPORTS.values(), "cli"}]
        made = {cls for module in modules for cls in vars(module).values()
                if isinstance(cls, type) and cls.__repr__ is _repr and cls.__bases__ == (object,)}
        assert made == {cls for cls, *_ in RECORDS}

    def test_post_init_checks(self):
        with pytest.raises(ValueError, match="unknown atom kind"):
            Atom("vra", "x")
        with pytest.raises(CsError, match="undeclared constant"):
            ConstantSpecification(concrete=(_ENTRY,))
        with pytest.raises(CsError, match="undeclared constant"):
            ConstantSpecification(schematic=(("c", "JT"),))
        with pytest.raises(CsError, match="not an axiom instance"):
            ConstantSpecification(frozenset("c"), (("c", f("Q0")),))
        with pytest.raises(CsError, match="unknown scheme"):
            ConstantSpecification(frozenset("c"), schematic=(("c", "JX"),))


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


class TestCopies:
    """A copy or an unpickled value is rebuilt through its class, so it
    equals the original and computes its own hash and caches."""

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, _pickled],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("cls, fields", [(cls, fields) for cls, fields, *_ in
                                             (*NODE_FIELDS, *RECORDS)],
                             ids=[cls.__name__ for cls, *_ in (*NODE_FIELDS, *RECORDS)])
    def test_round_trip(self, cls, fields, how):
        x = cls(**fields)
        y = how(x)
        assert type(y) is cls and y is not x and y == x and repr(y) == repr(x)
        if isinstance(x, (Term, Formula)):
            assert y._hash == x._hash
        if how is not copy.copy:
            assert all(getattr(y, k) is not v for k, v in fields.items()
                       if isinstance(v, (list, dict)))

    def test_copied_formula_caches_its_own(self):
        g = f("forall x. (p :[x] Q(x) -> Q(x))")
        canonical(g)
        free_vars(g)
        h = copy.copy(g)
        assert h._canon is None and h._facts is None and canonical(h) == canonical(g)

    def test_pickle_across_hash_seeds(self):
        # Pickled where strings hash one way, read where they hash another.
        text = "forall x. (p :[x, @u, $a] R(x) -> Q($a))"
        make = f"import pickle, sys, folp; g = folp.parse_formula({text!r}, set()); "
        done = run_fresh(make + "sys.stdout.write(pickle.dumps((g, g.body)).hex())",
                         PYTHONHASHSEED="1")
        assert done.returncode == 0, done.stderr
        done = run_fresh(make + f"h, body = pickle.loads(bytes.fromhex({done.stdout!r})); "
                         "print(h == g, {g: 1}.get(h), {h: 1}.get(g), body == g.body, "
                         "hash(h) == hash(g), {h.body.left.window[0]: 1}.get(folp.var('x')))",
                         PYTHONHASHSEED="2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "1", "1", "True", "True", "1"]


_FORMULA_FIELDS = [(cls, fields) for cls, fields in NODE_FIELDS if issubclass(cls, Formula)]


class TestNeg:
    """``neg(f)`` is one object per ``f`` while it is held, and making it
    changes nothing that ``f`` or its copies equal, hash to, print as or
    pickle to."""

    @pytest.mark.parametrize("cls, fields", _FORMULA_FIELDS,
                             ids=[cls.__name__ for cls, _ in _FORMULA_FIELDS])
    def test_one_negation_per_formula(self, cls, fields):
        g = cls(**fields)
        assert g._neg is None
        n = neg(g)
        assert neg(g) is n and g._neg() is n and n.body is g
        assert n == Neg(g) and hash(n) == hash(Neg(g)) and type(n) is Neg
        assert neg(n) is neg(n) and neg(n).body is n
        assert neg(cls(**fields)) is not n and neg(cls(**fields)) == n
        # The cache is weak, so reference counting frees both: no cycle.
        gone = [weakref.ref(g), weakref.ref(n)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del g, n
            assert [r() for r in gone] == [None, None]
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("cls, fields", _FORMULA_FIELDS,
                             ids=[cls.__name__ for cls, _ in _FORMULA_FIELDS])
    def test_negation_is_never_copied_or_pickled(self, cls, fields):
        plain, negated = cls(**fields), cls(**fields)
        neg(negated)
        assert negated == plain and hash(negated) == hash(plain)
        assert repr(negated) == repr(plain) and str(negated) == str(plain)
        assert pickle.dumps(negated) == pickle.dumps(plain)
        assert pickle.dumps(neg(negated)) == pickle.dumps(Neg(plain))
        for how in (copy.copy, copy.deepcopy, _pickled):
            a, b = how(plain), how(negated)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert b._neg is None
            c = how(neg(negated))
            assert c == Neg(plain) and c._neg is None
            # A shallow copy keeps the body itself; a deep one rebuilds it.
            assert c.body is negated if how is copy.copy else c.body._neg is None
