"""In-memory spans and counters around the package's public functions.

The tracer lives entirely in the benchmark: `install` replaces functions
and methods of the package with wrappers, it does not edit the package.
Functions are imported by name into other modules (``checks`` holds its
own ``is_node``), so a module-level function is replaced in every
``s6quartic`` module attribute that is the original object.  Methods are
replaced on their class, each operator name (``__mul__`` and
``__rmul__``) separately.

A span records (name, start, end, parent); a layer's self time is
its spans' duration minus the time covered by their child spans.  Field
arithmetic is far cheaper than a span, so the ``eisenstein`` layer gets
counters only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, class or "" for a module-level function, attribute, metric prefix)
SPAN_TARGETS = (
    ("poly", "Polynomial", "evaluate", "poly.evaluate"),
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("poly", "Polynomial", "__rmul__", "poly.mul"),
    ("poly", "Polynomial", "__pow__", "poly.pow"),
    ("poly", "Polynomial", "substitute_linear", "poly.substitute_linear"),
    ("poly", "Polynomial", "apply_permutation", "poly.apply_permutation"),
    ("poly", "", "divide_exact", "poly.divide_exact"),
    ("linalg", "Matrix", "rank", "linalg.rank"),
    ("linalg", "", "rref_linear_forms", "linalg.rref_linear_forms"),
    ("linalg", "", "solve_linear_in_t", "linalg.solve"),
    ("linalg", "", "solve_parametric_proportionality", "linalg.solve"),
    ("linalg", "", "gram_matrix", "linalg.gram_matrix"),
    ("perms", "PermGroup", "generate", "perms.generate"),
    ("perms", "", "orbit_and_stabilizer", "perms.orbit_and_stabilizer"),
    ("perms", "PermGroup", "conjugacy_classes", "perms.structure"),
    ("perms", "PermGroup", "normal_subgroups", "perms.structure"),
    ("perms", "PermGroup", "commutator_subgroup", "perms.structure"),
    ("perms", "", "semidirect_structure_check", "perms.structure"),
    ("perms", "", "irreducible_degrees", "perms.structure"),
    (
        "perms",
        "LabelDictionary",
        "induced_variable_permutation",
        "perms.induced_variable_permutation",
    ),
    ("varieties", "ProjectivePoint", "__init__", "varieties.point"),
    ("varieties", "", "act_on_point", "varieties.act_on_point"),
    ("varieties", "", "act_on_variety", "varieties.act_on_variety"),
    ("varieties", "", "canonicalize", "varieties.canonicalize"),
    ("varieties", "LinearSliceVariety", "contains", "varieties.contains"),
    ("varieties", "", "is_singular_on_family", "varieties.is_singular_on_family"),
    ("varieties", "", "is_node", "varieties.is_node"),
    ("varieties", "", "singular_t_values", "varieties.singular_t_values"),
    ("varieties", "", "projective_orbit", "varieties.projective_orbit"),
    ("varieties", "", "incidence_table", "varieties.incidence_table"),
    ("varieties", "", "scan_alphabet", "varieties.scan_alphabet"),
    ("parsing", "", "parse_polynomial", "parsing.parse_polynomial"),
    ("parsing", "", "parse_point_coordinates", "parsing.parse_point_coordinates"),
    ("checks", "", "run_checks", "checks.run_checks"),
    ("checks", "", "emit_report", "checks.emit_report"),
    ("cli", "", "main", "cli.main"),
)

COUNTER_TARGETS = (
    ("eisenstein", "Eisenstein", "__add__", "eisenstein.add.calls"),
    ("eisenstein", "Eisenstein", "__radd__", "eisenstein.add.calls"),
    ("eisenstein", "Eisenstein", "inverse", "eisenstein.inverse.calls"),
    ("eisenstein", "Eisenstein", "__pow__", "eisenstein.pow.calls"),
    ("eisenstein", "Eisenstein", "__init__", "eisenstein.new.calls"),
    ("varieties", "LinearSliceVariety", "canonical", "varieties.canonical.requests"),
    ("varieties", "", "variety_eq", "varieties.variety_eq.calls"),
)

FIELD_MUL_TARGETS = (
    ("eisenstein", "Eisenstein", "__mul__"),
    ("eisenstein", "Eisenstein", "__rmul__"),
)

SCAN = "varieties.scan_alphabet"
PACKAGE = "s6quartic"


def _integral(value) -> bool:
    """Whether a field operand lies in Z[w]; reads only the public re/om."""
    if isinstance(value, int):
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    return value.re.denominator == 1 and value.om.denominator == 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = []

    # -- wrappers -----------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not NotImplemented:
                counts[key] += 1
            return result

        return wrapper

    def field_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(x, y):
            result = fn(x, y)
            if result is not NotImplemented:
                counts["eisenstein.mul.calls"] += 1
                if not (_integral(x) and _integral(y)):
                    counts["eisenstein.mul.nonintegral"] += 1
            return result

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        targets = SPAN_TARGETS + COUNTER_TARGETS
        for module_name in sorted({target[0] for target in targets}):
            try:
                importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass  # reported below as missing targets
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        home = {m.__name__: m for m in modules}

        def hooks(prefix):
            if prefix == "poly.evaluate":
                return self._count_terms, None
            if prefix == SCAN:
                return None, self._count_found
            return None, None

        def patch(module_name, owner, attr, make):
            module = home.get(f"{PACKAGE}.{module_name}")
            target = getattr(module, owner, None) if owner else module
            raw = vars(target).get(attr) if target is not None else None
            if raw is None:
                self.missing.append(".".join(filter(None, (module_name, owner, attr))))
                return
            if owner:
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(target, attr, type(raw)(make(raw.__func__)))
                else:
                    setattr(target, attr, make(raw))
                return
            wrapped = make(raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

        for module_name, owner, attr, prefix in SPAN_TARGETS:
            before, after = hooks(prefix)
            patch(
                module_name,
                owner,
                attr,
                lambda fn, p=prefix, b=before, a=after: self.span(p, fn, b, a),
            )
        for module_name, owner, attr, key in COUNTER_TARGETS:
            patch(module_name, owner, attr, lambda fn, k=key: self.counter(k, fn))
        for module_name, owner, attr in FIELD_MUL_TARGETS:
            patch(module_name, owner, attr, self.field_mul)

    def _count_terms(self, args):
        self.counts["poly.evaluate.terms"] += len(args[0].terms)

    def _count_found(self, result):
        self.counts["varieties.scan.found"] += len(result)

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        self_time = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = defaultdict(float)
        for (name, _, _, parent), own in zip(spans, self_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if parent >= 0 and spans[parent][0] == SCAN:
                if name == "varieties.point":
                    out["varieties.scan.tuples"] += 1
                elif name == "varieties.is_singular_on_family":
                    out["varieties.scan.points_tested"] += 1
        counts = self.counts
        out.update(counts)
        mul_calls = counts["eisenstein.mul.calls"]
        out["eisenstein.mul.nonintegral_share"] = (
            counts["eisenstein.mul.nonintegral"] / mul_calls if mul_calls else 0.0
        )
        # Requests for a canonical form: cached lookups plus the two direct
        # canonicalize calls variety_eq makes; every canonicalize call is
        # a computation, so the rest were served by the cache.
        requests = (
            counts["varieties.canonical.requests"]
            + 2 * counts["varieties.variety_eq.calls"]
        )
        computed = out["varieties.canonicalize.calls"]
        out["varieties.canonical.hit_ratio"] = (
            max(0.0, requests - computed) / requests if requests else 0.0
        )
        tested = out["varieties.scan.points_tested"]
        out["varieties.scan.hit_ratio"] = (
            counts["varieties.scan.found"] / tested if tested else 0.0
        )
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON list per line: [name, start_s, end_s, parent]."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps([name, start - origin, end - origin, parent])
                    + "\n"
                )


def cache_metrics() -> dict:
    """hit_ratio and currsize of every functools cache on a module attribute."""
    out = {}
    seen = set()
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for value in list(vars(module).values()):
            info = getattr(value, "cache_info", None)
            if not callable(info) or id(value) in seen:
                continue
            seen.add(id(value))
            stats = info()
            qualified = f"{value.__module__}.{value.__qualname__}"
            short = qualified.removeprefix(PACKAGE + ".")
            lookups = stats.hits + stats.misses
            out[f"cache.{short}.hit_ratio"] = stats.hits / lookups if lookups else 0.0
            out[f"cache.{short}.currsize"] = stats.currsize
    return out
