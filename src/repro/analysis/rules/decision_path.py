"""``decision-path`` — one decision path, owned by :mod:`repro.api.core`.

The three serving transports (colocation engine, micro-batcher, worker
gateway) must *delegate* every judgement to the one
:class:`repro.api.core.JudgementCore`; PR 5 had to un-fork serve logic that
had been re-implemented per transport.  Three checks enforce that here:

* no ordering comparison against a ``threshold`` in a transport module
  (the probability >= threshold cut is the core's job; ``is None`` guards
  and chained range validations like ``0.0 <= t <= 1.0`` are fine);
* no ``decide_*`` helper defined or called in a transport, except as a
  delegation through ``self._core``;
* every class that owns a ``JudgementCore`` must define all five decision
  surfaces (``predict_proba``/``predict``/``probability_matrix``/``serve``/
  ``serve_batch``) and each must actually call through ``self._core`` —
  deleting a delegation is a finding, not a silent API shrink.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, call_name, register, self_attr
from repro.analysis.source import SourceFile

#: The transport modules the rule is scoped to (path suffixes).
TRANSPORT_MODULES = (
    "repro/api/engine.py",
    "repro/cluster/batcher.py",
    "repro/cluster/gateway.py",
)

#: Methods every JudgementCore-owning transport must delegate.
DECISION_SURFACES = ("predict_proba", "predict", "probability_matrix", "serve", "serve_batch")

_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _mentions_threshold(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "threshold" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "threshold" in sub.attr.lower():
            return True
    return False


def _owns_core(class_node: ast.ClassDef) -> bool:
    """True when ``__init__`` assigns ``self._core = JudgementCore(...)``."""
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        if not any(self_attr(target) == "_core" for target in node.targets):
            continue
        if isinstance(node.value, ast.Call) and call_name(node.value) == "JudgementCore":
            return True
    return False


def _delegates_to_core(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if self_attr(node.func.value) == "_core":
                return True
    return False


@register
class DecisionPathRule(Rule):
    rule_id = "decision-path"
    description = (
        "threshold cuts and decide_* logic live in repro.api.core only; "
        "transports delegate every decision surface to JudgementCore"
    )

    _HINT = (
        "delegate to self._core (repro.api.core.JudgementCore) instead of "
        "re-deciding in the transport"
    )

    def check_file(self, source: SourceFile) -> list[Finding]:
        if not source.matches(*TRANSPORT_MODULES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Compare):
                findings.extend(self._check_compare(source, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("decide_"):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"decision helper '{node.name}' defined in a transport module",
                            self._HINT,
                        )
                    )
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(source, node))
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_delegation(source, node))
        return findings

    def _check_compare(self, source: SourceFile, node: ast.Compare) -> list[Finding]:
        # Chained comparisons are range validation (0.0 <= t <= 1.0), and
        # is/is-not/==/!= are argument guards — only ordering cuts count.
        if len(node.ops) != 1 or not isinstance(node.ops[0], _ORDERING_OPS):
            return []
        if not _mentions_threshold(node):
            return []
        return [
            self.finding(
                source,
                node,
                "ordering comparison against a threshold in a transport module "
                "— the decision cut belongs to JudgementCore",
                self._HINT,
            )
        ]

    def _check_call(self, source: SourceFile, node: ast.Call) -> list[Finding]:
        name = call_name(node)
        if not name.startswith("decide_"):
            return []
        # Delegation through the core is the one sanctioned call shape.
        if isinstance(node.func, ast.Attribute) and self_attr(node.func.value) == "_core":
            return []
        return [
            self.finding(
                source,
                node,
                f"call to decision helper '{name}' outside the JudgementCore delegation",
                self._HINT,
            )
        ]

    def _check_delegation(self, source: SourceFile, node: ast.ClassDef) -> list[Finding]:
        if not _owns_core(node):
            return []
        findings: list[Finding] = []
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for surface in DECISION_SURFACES:
            method = methods.get(surface)
            if method is None:
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"core-owning transport '{node.name}' is missing decision "
                        f"surface '{surface}'",
                        f"restore 'def {surface}(...)' delegating to self._core.{surface}(...)",
                    )
                )
            elif not _delegates_to_core(method):
                findings.append(
                    self.finding(
                        source,
                        method,
                        f"'{node.name}.{surface}' does not call through self._core "
                        "— single decision path violated",
                        self._HINT,
                    )
                )
        return findings
