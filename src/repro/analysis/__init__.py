"""``repro-lint`` — project-specific static analysis for the reproduction.

Five PRs of engine work rest on contracts that ordinary linters cannot see:
every stochastic call site must route through :mod:`repro.rng`, every
``engine`` / ``eval_engine`` / ``eval_path`` / ``degradation`` realization
must have a dispatch branch *and* an equivalence-suite parametrization *and*
a golden seed-history case, store-backed masks must never be densified
outside the store itself, and the equivalence/golden suites must assert
exact equality.  This package machine-checks those contracts with
stdlib-``ast`` visitors so that breaking one is a lint failure, not a
mystery golden-fixture diff three PRs later.

Run it as ``python -m repro.analysis src tests`` (or the installed
``repro-lint`` script).  Rules are registered in :mod:`repro.analysis.rules`;
violations can be suppressed per line or per file with
``# repro-lint: disable=RULE — reason`` comments (the reason is mandatory —
an unexplained suppression is itself a violation).
"""

from __future__ import annotations

from repro.analysis.core import (
    RULES,
    FileRule,
    Project,
    Report,
    Rule,
    SourceFile,
    Violation,
    register,
    run_analysis,
)
from repro.analysis.suppressions import FileSuppressions, Suppression

# Importing the rules package registers every built-in rule.
import repro.analysis.rules  # noqa: F401  (imported for its registration side effect)

__all__ = [
    "RULES",
    "FileRule",
    "FileSuppressions",
    "Project",
    "Report",
    "Rule",
    "SourceFile",
    "Suppression",
    "Violation",
    "register",
    "run_analysis",
]
