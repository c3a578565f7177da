"""Toolkit for the first-order logic of proofs.

Parsing and printing of formulas with justification terms, axiom-scheme
recognition, constant specifications, tableau proof search, independent
proof checking, and finite-model evaluation.
"""

from .axioms import (
    SCHEMES,
    ConstantSpecification,
    CsError,
    cs_appropriateness_gaps,
    cs_axiomatically_appropriate,
    cs_contains,
    match_axiom,
    match_scheme,
)
from .checker import Verdict, check_proof
from .fileio import (
    FileFormatError,
    parse_cs,
    parse_model,
    parse_proof,
    proof_to_dict,
    read_cs_file,
    read_model_file,
    read_proof_file,
    write_model,
    write_proof_file,
)
from .models import (
    CountermodelSearch,
    MkrtychevModel,
    ModelError,
    Violation,
    find_countermodel,
    satisfies,
    validate_model,
)
from .parser import ParseError, parse_formula, parse_term, print_formula, print_term
from .search import Exhausted, Open, Proved, SearchBudget, prove
from .syntax import (
    App,
    Assert,
    Atom,
    Bang,
    CaptureError,
    Exists,
    Forall,
    Formula,
    Gen,
    Impl,
    Neg,
    Pred,
    Sum,
    Term,
    TermConst,
    TermVar,
    alpha_eq,
    canonical,
    elem,
    elem_set,
    free_vars,
    par_set,
    param,
    substitute,
    substitute_param,
    universal_closure,
    var,
    variable_variant,
)
from .tableau import (
    BRANCHING_RULES,
    FRESH_PARAM_RULES,
    RULE_NAMES,
    Contradiction,
    CsClosure,
    ProofNode,
    ProofTree,
    RuleApp,
    RuleError,
    apply_rule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
