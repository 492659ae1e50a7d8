"""Static analysis for the repro codebase: four machine-checked passes.

1. **Plan verifier** (:mod:`repro.analysis.verifier`) — schema-propagating
   type checker over logical plans and Substrait IR, pushdown-legality
   rules, and the pushed+residual ≡ pre-plan equivalence check, gated by
   the ``strict_verify`` flag (:mod:`repro.analysis.runtime`).
2. **Simulation-safety linter** (:mod:`repro.analysis.lint`) — AST rules
   for sim-reachable code (``python -m repro.analysis.lint src tests``).
3. **Determinism checker** (:mod:`repro.analysis.determinism`) — digest
   replays and adversarial tie-break runs over the simulator kernel
   (``python -m repro.analysis.determinism``).
4. **Race sanitizer** (:mod:`repro.analysis.sanitizer`) — SimTSan, a
   vector-clock happens-before detector for same-instant accesses to
   shared simulated state, gated by ``strict_sanitize``
   (``python -m repro.analysis.race``).

See ``docs/STATIC_ANALYSIS.md`` for the invariant list and rule catalog.
"""

from repro.analysis.runtime import (
    set_strict_sanitize,
    set_strict_verify,
    strict_sanitize_enabled,
    strict_verify_enabled,
)
from repro.analysis.verifier import (
    check_expression,
    verify_logical_plan,
    verify_optimized_plan,
    verify_pushdown,
    verify_substrait_plan,
)

#: lint/determinism names resolve lazily so ``python -m repro.analysis.lint``
#: and ``... .determinism`` run without runpy's double-import warning.
_LAZY = {
    "DeterminismReport": "repro.analysis.determinism",
    "DigestRecorder": "repro.analysis.determinism",
    "ReplayReport": "repro.analysis.determinism",
    "canonical_result_digest": "repro.analysis.determinism",
    "check_determinism": "repro.analysis.determinism",
    "run_recorded": "repro.analysis.determinism",
    "LintViolation": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "check_dag_determinism": "repro.analysis.determinism",
    "check_service_determinism": "repro.analysis.determinism",
    "run_service_recorded": "repro.analysis.determinism",
    "AccessInfo": "repro.analysis.sanitizer",
    "RaceReport": "repro.analysis.sanitizer",
    "SimTSan": "repro.analysis.sanitizer",
    "run_self_test": "repro.analysis.race",
    "run_bench_suites": "repro.analysis.race",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "DeterminismReport",
    "DigestRecorder",
    "ReplayReport",
    "canonical_result_digest",
    "check_determinism",
    "run_recorded",
    "LintViolation",
    "lint_file",
    "lint_paths",
    "check_dag_determinism",
    "check_service_determinism",
    "run_service_recorded",
    "AccessInfo",
    "RaceReport",
    "SimTSan",
    "run_self_test",
    "run_bench_suites",
    "set_strict_verify",
    "strict_verify_enabled",
    "set_strict_sanitize",
    "strict_sanitize_enabled",
    "check_expression",
    "verify_logical_plan",
    "verify_optimized_plan",
    "verify_pushdown",
    "verify_substrait_plan",
]
