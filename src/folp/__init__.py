"""Toolkit for the first-order logic of proofs.

Parsing and printing of formulas with justification terms, axiom-scheme
recognition, constant specifications, tableau proof search, independent
proof checking, and finite-model evaluation.

``import folp`` loads none of these modules: each exported name, and
each module name, loads its module on first use and is then bound here.
"""

from importlib import import_module

# Each exported name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "axioms": "SCHEMES ConstantSpecification CsError cs_appropriateness_gaps "
        "cs_axiomatically_appropriate cs_contains match_axiom match_scheme",
        "checker": "Verdict check_proof",
        "fileio": "FileFormatError parse_cs parse_model parse_proof proof_to_dict "
        "read_cs_file read_model_file read_proof_file write_model write_proof_file",
        "models": "CountermodelSearch MkrtychevModel ModelError Violation "
        "find_countermodel satisfies validate_model",
        "parser": "ParseError parse_formula parse_term print_formula print_term",
        "search": "Exhausted Open Proved SearchBudget prove",
        "syntax": "App Assert Atom Bang CaptureError Exists Forall Formula Gen Impl "
        "Neg Pred Sum Term TermConst TermVar alpha_eq canonical elem elem_set "
        "free_vars par_set param substitute substitute_param universal_closure "
        "var variable_variant",
        "tableau": "BRANCHING_RULES FRESH_PARAM_RULES RULE_NAMES Contradiction "
        "CsClosure ProofNode ProofTree RuleApp RuleError apply_rule",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module of ``name`` on its first use, and bind it here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
