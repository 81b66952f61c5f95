"""repro.analysis — AST-based invariant linter for the repo's conventions.

Seven PRs of growth rest on conventions nothing used to enforce: seeded and
injected RNGs, virtual-time code that never reads the wall clock, NaN (never
``0.0``) for undefined measurements, provenance threading, deterministic
signatures.  This package checks them *at review time, over all code* — the
static complement to the runtime oracle battery in :mod:`repro.simulate`.

Battery
-------
======  =====================================================================
DET001  RNG must be injected or built from an explicit seed; no module-level
        ``np.random.*`` / ``random.*`` global state
CLK001  no direct wall-clock reads outside the timing allowlist
NAN001  measurement-like functions return NaN for the undefined case, not 0.0
MUT001  no mutable default arguments
EXC001  no bare/overbroad ``except`` without re-raise
SIG001  signature/fingerprint/ledger code must not iterate unordered sets
IMP001  unused import outside ``__init__.py`` (ruff F401)
IMP002  ``typing`` name used in an annotation but never imported (ruff F821)
======  =====================================================================

Suppress one finding inline with ``# repro: ignore[RULE] reason`` (same line
or a standalone comment on the line above); grandfather existing findings in
``.repro-lint-baseline.json`` via ``repro lint --update-baseline``.
"""

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .engine import FileContext, LintReport, collect_files, lint_files, run_lint
from .findings import Finding, sort_findings
from .rules import RULE_CLASSES, BaseRule, Rule, default_rules, rule_table
from .suppress import SuppressionIndex

__all__ = [
    "Baseline",
    "BaseRule",
    "DEFAULT_BASELINE_NAME",
    "FileContext",
    "Finding",
    "LintReport",
    "RULE_CLASSES",
    "Rule",
    "SuppressionIndex",
    "collect_files",
    "default_rules",
    "lint_files",
    "rule_table",
    "run_lint",
    "sort_findings",
]
