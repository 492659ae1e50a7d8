"""Process-wide strictness switches for the analysis passes.

``strict_verify`` gates the plan verifier
(:mod:`repro.analysis.verifier`), wired into two hot spots —
global-optimizer exit and the connector's local optimizer — and the
typed Substrait check (:func:`repro.substrait.validator.validate_plan`)
over plans the connector runs locally (fallback, speculation): those
never cross the OCS frontend, which checks every other plan always.
Tests flip it on globally (see
``tests/conftest.py``) so the whole suite runs verified; benchmarks
leave it off, which must be performance-neutral: every call site checks
:func:`strict_verify_enabled` *before* doing any work.

``strict_sanitize`` gates SimTSan (:mod:`repro.analysis.sanitizer`),
the happens-before race detector over the simulator kernel, with the
same shape: off by default for benchmarks (the off path is zero-cost —
no events scheduled, digests byte-identical), autouse-on in the test
suite, and per-run overridable via ``RunConfig.strict_sanitize``.

``strict_verify`` is process-wide only; an explicit
``RunConfig.strict_sanitize`` overrides its default in either direction.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "set_strict_verify",
    "strict_verify_enabled",
    "set_strict_sanitize",
    "strict_sanitize_enabled",
]

_STRICT_DEFAULT: bool = False
_SANITIZE_DEFAULT: bool = False


def set_strict_verify(enabled: bool) -> bool:
    """Set the process-wide default; returns the previous value."""
    global _STRICT_DEFAULT
    previous = _STRICT_DEFAULT
    _STRICT_DEFAULT = bool(enabled)
    return previous


def strict_verify_enabled() -> bool:
    """The process-wide default; every verification site reads it."""
    return _STRICT_DEFAULT


def set_strict_sanitize(enabled: bool) -> bool:
    """Set the process-wide SimTSan default; returns the previous value."""
    global _SANITIZE_DEFAULT
    previous = _SANITIZE_DEFAULT
    _SANITIZE_DEFAULT = bool(enabled)
    return previous


def strict_sanitize_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve an optional per-call override against the process default."""
    if explicit is None:
        return _SANITIZE_DEFAULT
    return bool(explicit)
