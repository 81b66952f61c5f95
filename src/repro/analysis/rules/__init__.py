"""The rule battery. ``default_rules()`` builds one fresh instance of each.

Rules keep per-run state (the cross-file pass), so the engine must always be
given fresh instances — hence a factory rather than a module-level list.
"""

from __future__ import annotations

from typing import Dict, List

from .base import BaseRule, Rule
from .clock import DEFAULT_CLOCK_ALLOWLIST, WallClockRule
from .conventions import MutableDefaultRule, NaNMeasurementRule, OverbroadExceptRule
from .determinism import OrderedSignatureRule, SeededRandomnessRule
from .imports import UnimportedTypingNameRule, UnusedImportRule

RULE_CLASSES = (
    SeededRandomnessRule,    # DET001
    WallClockRule,           # CLK001
    NaNMeasurementRule,      # NAN001
    MutableDefaultRule,      # MUT001
    OverbroadExceptRule,     # EXC001
    OrderedSignatureRule,    # SIG001
    UnusedImportRule,        # IMP001
    UnimportedTypingNameRule,  # IMP002
)


def default_rules() -> List[Rule]:
    """Fresh instances of the whole battery, in rule-id order."""
    return [rule_class() for rule_class in RULE_CLASSES]


def rule_table() -> Dict[str, str]:
    """``{rule_id: description}`` for ``--list-rules`` and the docs."""
    return {rule_class.rule_id: rule_class.description
            for rule_class in RULE_CLASSES}


__all__ = [
    "BaseRule",
    "DEFAULT_CLOCK_ALLOWLIST",
    "MutableDefaultRule",
    "NaNMeasurementRule",
    "OrderedSignatureRule",
    "OverbroadExceptRule",
    "RULE_CLASSES",
    "Rule",
    "SeededRandomnessRule",
    "UnimportedTypingNameRule",
    "UnusedImportRule",
    "WallClockRule",
    "default_rules",
    "rule_table",
]
