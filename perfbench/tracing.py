"""Outside-in tracing of folp's layers.

The tracer replaces each listed public function at every ``folp``
module attribute that binds it, so ``folp.search.apply_rule`` and
``folp.checker.apply_rule`` get separate wrappers and the caller's module
is known.  Each call records a span (function, binding, start, end,
parent span, item) in memory.  A layer's self time is the time of its
spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli", "parser", "syntax", "axioms", "tableau",
    "search", "checker", "fileio", "models",
)

TRACED = {
    "cli": ("main", "cmd_parse", "cmd_axiom_match", "cmd_prove", "cmd_check",
            "cmd_model_check"),
    "parser": ("tokenize", "parse_formula", "parse_term", "print_formula",
               "print_term"),
    "syntax": ("free_vars", "par_set", "elem_set", "atoms_of",
               "predicate_arities", "formula_terms", "substitute",
               "substitute_param", "universal_closure", "canonical",
               "alpha_eq", "variable_variant"),
    "axioms": ("match_axiom", "match_scheme", "cs_contains"),
    "tableau": ("apply_rule", "closure_against", "branch_closed",
                "branch_params"),
    "search": ("prove",),
    "checker": ("check_proof",),
    "fileio": ("parse_cs", "read_cs_file", "parse_model", "read_model_file",
               "write_model", "proof_to_dict", "write_proof_file",
               "parse_proof", "read_proof_file"),
    "models": ("validate_model", "satisfies", "find_countermodel"),
}


def _binding(module_name: str) -> str:
    """Short caller label of a binding: ``folp.search`` -> ``search``; the
    package's own re-exports (used by the benchmark) -> ``api``."""
    return module_name[len("folp."):] if module_name != "folp" else "api"


def _tree_size(tree) -> int:
    return len(tree.nodes())


class Tracer:
    """Span store plus the wrappers that feed it.

    ``install`` patches the folp modules, ``uninstall`` restores them.
    Counters that need a call's arguments or result (proof nodes, file
    sizes, outcomes) are taken by hooks after the span has closed.
    """

    def __init__(self) -> None:
        # (layer, function, binding) -> the key recorded in its spans
        self.keys: dict[tuple[str, str, str], int] = {}
        self.start = array("q")
        self.end = array("q")
        self.key = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.errors: dict[int, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.current_item = -1
        self._stack = [-1]
        self._fids = [None]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "folp" or name.startswith("folp."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"folp.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue  # absent or renamed in this version of folp
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            binding = _binding(mod.__name__)
                            wrapper = self._wrap(fn, layer, name, binding)
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str, binding: str):
        k = self.keys.setdefault((layer, name, binding), len(self.keys))
        hook = _HOOKS.get(f"{layer}.{name}")
        signature = inspect.signature(fn) if hook is not None else None
        stack, fids = self._stack, self._fids
        start, end, keys, parents, items = (
            self.start, self.end, self.key, self.parent, self.item)
        errors, clock = self.errors, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fids[-1] is fn:
                # Recursion through the module global: one span per call
                # from outside the function.
                return fn(*args, **kwargs)
            idx = len(start)
            parents.append(stack[-1])
            keys.append(k)
            items.append(self.current_item)
            start.append(0)
            end.append(0)
            stack.append(idx)
            fids.append(fn)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                fids.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self.counters, binding, signature, args, kwargs, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per (layer, function, binding): calls, inclusive and self
        seconds, errors; per layer: self seconds; per item: seconds spent
        in search.prove; and the seconds covered by top-level spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        top = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
            else:
                top += dur[i]
        per_key = [[0, 0, 0] for _ in self.keys]  # calls, incl ns, self ns
        for i in range(n):
            s = per_key[self.key[i]]
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - covered[i]
        prove_keys = {k for (layer, name, _), k in self.keys.items()
                      if (layer, name) == ("search", "prove")}
        prove_by_item: dict[int, int] = defaultdict(int)
        for i in range(n):
            if self.key[i] in prove_keys:
                prove_by_item[self.item[i]] += dur[i]
        functions = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (layer, name, binding), k in self.keys.items():
            calls, incl, self_ns = per_key[k]
            functions[(layer, name, binding)] = {
                "calls": calls, "s": incl / 1e9, "self_s": self_ns / 1e9,
                "errors": self.errors.get(k, 0),
            }
            layer_self[layer] += self_ns / 1e9
        return {
            "functions": functions,
            "layer_self_s": layer_self,
            "top_level_s": top / 1e9,
            "prove_s_by_item": {i: v / 1e9 for i, v in prove_by_item.items()},
            "counters": dict(self.counters),
        }

    def write(self, path: Path) -> None:
        """Write the spans as five little-endian arrays (start and end in
        ns, key, parent span, item; int64/int64/int32/int32/int32) to
        ``path`` and their key table to ``path`` + ``.json``."""
        with open(path, "wb") as fh:
            for a in (self.start, self.end, self.key, self.parent, self.item):
                if sys.byteorder != "little":
                    a = array(a.typecode, a)
                    a.byteswap()
                a.tofile(fh)
        meta = {
            "spans": len(self.start),
            "arrays": ["start_ns:int64", "end_ns:int64", "key:int32",
                       "parent:int32", "item:int32"],
            "keys": [list(k) for k in self.keys],
        }
        Path(str(path) + ".json").write_text(json.dumps(meta), encoding="utf-8")


# ---------------------------------------------------------------------------
# Hooks: counters that need a call's arguments or result.  A hook must not
# change the program's behaviour, so one that no longer fits a changed API
# only counts its own failure, which the run reports.


def _guarded(hook):
    def run(counters, binding, signature, args, kwargs, result):
        try:
            call = signature.bind(*args, **kwargs).arguments
            hook(counters, binding, call, result)
        except Exception:  # noqa: BLE001 - see the comment above
            counters["bench.hook_errors"] += 1
    return run


@_guarded
def _prove_hook(counters, binding, call, result):
    outcome = type(result).__name__.lower()
    counters[f"search.outcome.{outcome}"] += 1
    if outcome == "proved":
        counters["search.nodes"] += _tree_size(result.tree)


@_guarded
def _check_hook(counters, binding, call, result):
    counters["checker.nodes"] += _tree_size(call["tree"])


@_guarded
def _write_proof_hook(counters, binding, call, result):
    counters["fileio.proof_bytes"] += os.path.getsize(call["path"])
    counters["fileio.proof_nodes"] += _tree_size(call["tree"])


@_guarded
def _validate_hook(counters, binding, call, result):
    if binding == "models" and not result:
        counters["models.admissible"] += 1


@_guarded
def _countermodel_hook(counters, binding, call, result):
    counters["models.models_checked"] += result.models_checked


_HOOKS = {
    "search.prove": _prove_hook,
    "checker.check_proof": _check_hook,
    "fileio.write_proof_file": _write_proof_hook,
    "models.validate_model": _validate_hook,
    "models.find_countermodel": _countermodel_hook,
}
