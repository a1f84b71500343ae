"""``stage-taxonomy`` — no transport invents a private stage name.

The trace-stage taxonomy is closed: ``repro.obs.trace`` declares the
canonical pipeline stages (``STAGES``) and store-tier events
(``STORE_EVENTS``), and the runtime parity test ``TestTraceParity`` pins
the three transports to it.  This rule is the static twin: every
``tracer.stage(...)`` / ``record_stage(...)`` / ``record_event(...)`` call
must name a canonical member — either the ``STAGE_*`` / ``EVENT_*``
constant (preferred) or a literal that is in the set.  PR 9 had to chase
down an invented stage literal after the fact; this rejects it up front.

The canonical sets are read from :mod:`repro.obs.trace` at rule
construction, so extending the taxonomy there is automatically reflected
here — the rule enforces membership, not a frozen copy.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.framework import Rule, register
from repro.analysis.source import SourceFile
from repro.obs import trace as _trace

#: The definition site is exempt — it *is* the taxonomy.
_EXCLUDED = ("repro/obs/trace.py",)

#: Call names -> which canonical set the first argument must belong to.
_STAGE_CALLS = {"stage": "stage", "record_stage": "stage", "record_event": "event"}


def _canonical_constants() -> dict[str, str]:
    """``STAGE_*``/``EVENT_*`` constant names -> their canonical values."""
    members = frozenset(_trace.STAGES) | frozenset(_trace.STORE_EVENTS)
    constants = {}
    for name in dir(_trace):
        if not name.startswith(("STAGE_", "EVENT_")):
            continue
        value = getattr(_trace, name)
        if isinstance(value, str) and value in members:
            constants[name] = value
    return constants


@register
class StageTaxonomyRule(Rule):
    rule_id = "stage-taxonomy"
    description = (
        "tracer.stage()/record_stage()/record_event() names must be members "
        "of the canonical taxonomy in repro.obs.trace"
    )

    def __init__(self) -> None:
        self._stages = frozenset(_trace.STAGES)
        self._events = frozenset(_trace.STORE_EVENTS)
        self._constants = _canonical_constants()

    def check_file(self, source: SourceFile) -> list[Finding]:
        if source.matches(*_EXCLUDED):
            return []
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            kind = _STAGE_CALLS.get(name)
            if kind is None or not node.args:
                continue
            findings.extend(self._check_arg(source, node, node.args[0], kind))
        return findings

    def _check_arg(
        self, source: SourceFile, call: ast.Call, arg: ast.expr, kind: str
    ) -> list[Finding]:
        expected = self._stages if kind == "stage" else self._events
        label = "stage" if kind == "stage" else "store event"
        hint = (
            "use the STAGE_*/EVENT_* constants from repro.obs; a genuinely new "
            "stage must be added to the taxonomy in repro/obs/trace.py first"
        )
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in expected:
                return [
                    self.finding(
                        source,
                        call,
                        f"'{arg.value}' is not a canonical {label} name "
                        f"(allowed: {', '.join(sorted(expected))})",
                        hint,
                    )
                ]
            return []
        identifier = ""
        if isinstance(arg, ast.Name):
            identifier = arg.id
        elif isinstance(arg, ast.Attribute):
            identifier = arg.attr
        if identifier:
            value = self._constants.get(identifier)
            if value is None:
                return [
                    self.finding(
                        source,
                        call,
                        f"{label} name '{identifier}' is not one of the canonical "
                        "STAGE_*/EVENT_* constants",
                        hint,
                    )
                ]
            if value not in expected:
                return [
                    self.finding(
                        source,
                        call,
                        f"'{identifier}' is a {'store event' if kind == 'stage' else 'stage'} "
                        f"constant passed where a {label} is expected",
                        hint,
                    )
                ]
            return []
        return [
            self.finding(
                source,
                call,
                f"dynamic {label} name — the taxonomy is closed, pass a "
                "STAGE_*/EVENT_* constant",
                hint,
            )
        ]
