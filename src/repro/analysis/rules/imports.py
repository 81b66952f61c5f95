"""Import hygiene: unused imports (IMP001) and unimported ``typing`` names (IMP002).

These are the two pyflakes classes (ruff F401, F821) that reach ``main``
unseen: with ``from __future__ import annotations`` an annotation is never
evaluated, so a ``Tuple`` that was never imported fails no test, and an
import left behind by a refactor fails nothing at all.  Checking them here
makes ``repro lint`` (and the tier-1 meta-test over the committed tree) catch
them offline.

Both rules read names without scopes: a name counts as used (or bound) if it
appears anywhere in the file.  That can only miss a finding, never invent
one.  A ``# noqa`` comment naming the matching ruff code (F401, F821) on the
flagged line is honoured, so one comment silences both linters.
"""

from __future__ import annotations

import ast
import re
import typing
from typing import Iterator, List, Set, Tuple

from .base import BaseRule

_TYPING_NAMES = frozenset(typing.__all__)
_NOQA = re.compile(r"#\s*noqa\b(?::\s*([A-Z0-9, ]+))?")


def _noqa_covers(line: str, code: str) -> bool:
    """True if ``line`` carries ``# noqa`` (bare) or ``# noqa: ...code...``."""
    match = _NOQA.search(line)
    return match is not None and (match.group(1) is None or code in match.group(1))


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    """Every annotation expression: arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(annotation: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, anchor)`` for each name an annotation reads, string forms included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id, node


def _used_names(tree: ast.Module) -> Set[str]:
    """Names read anywhere, in string annotations, or exported by ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        used.update(name for name, _ in _annotation_names(annotation))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(item.value for item in node.value.elts
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return used


def _imports(tree: ast.Module) -> Iterator[Tuple[str, str, ast.alias]]:
    """``(bound name, imported as, alias node)`` for every import in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                bound = item.asname or item.name.split(".")[0]
                yield bound, item.name, item
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for item in node.names:
                if item.name != "*":
                    yield item.asname or item.name, item.name, item


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name the file binds: imports, defs, classes, arguments, stores."""
    bound = {name for name, _, _ in _imports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


class UnusedImportRule(BaseRule):
    """IMP001 — an import no code in the module reads (package facades exempt)."""

    rule_id = "IMP001"
    description = "unused import outside __init__.py (ruff F401)"

    def check_file(self, context) -> List:
        if context.path.rsplit("/", 1)[-1] == "__init__.py":
            return []
        used = _used_names(context.tree)
        findings = []
        for bound, imported, alias in _imports(context.tree):
            # ``import x as x`` is the explicit re-export convention.
            if (bound in used or alias.asname == alias.name
                    or _noqa_covers(context.line(alias.lineno), "F401")):
                continue
            findings.append(self.finding(
                context, alias, f"`{imported}` is imported but never used — "
                                f"remove the import"))
        return findings


class UnimportedTypingNameRule(BaseRule):
    """IMP002 — an annotation reads a ``typing`` name the module never binds."""

    rule_id = "IMP002"
    description = ("typing name used in an annotation but never imported "
                   "(ruff F821)")

    def check_file(self, context) -> List:
        bound = _bound_names(context.tree)
        findings = []
        for annotation in _annotations(context.tree):
            for name, anchor in _annotation_names(annotation):
                if (name in _TYPING_NAMES and name not in bound
                        and not _noqa_covers(context.line(anchor.lineno), "F821")):
                    findings.append(self.finding(
                        context, anchor, f"annotation uses `{name}` but the module "
                                         f"never imports it — add it to the "
                                         f"`typing` import"))
        return findings
