"""``repro.analysis`` — the repo's own AST-based invariant checker.

The ROADMAP's correctness contract (one decision path across the three
transports, no pickle on the wire, lock discipline around shared engine
state, a closed trace-stage taxonomy, metric naming hygiene) used to live
only as prose plus after-the-fact parity tests.  This package turns each
clause into a static rule over the source tree, so a violation is rejected
at review time instead of retrofitted after a regression.

Run it as ``python -m repro.analysis src/`` or ``repro-hisrect check``:
every rule walks the parsed AST of each file (stdlib :mod:`ast` only — no
third-party linter framework), emits :class:`Finding` records carrying the
rule id, ``file:line``, a message and a fix hint, and the process exits
non-zero on any finding not grandfathered by the committed baseline file.

Deliberate exceptions are annotated inline (``# repro: allow(<rule-id>)``)
next to the code they excuse; the baseline is for *grandfathered* findings
only and is kept empty — see ROADMAP.md "Enforced invariants".
"""

from repro.analysis.findings import Finding
from repro.analysis.framework import Analyzer, Rule, all_rules
from repro.analysis.source import SourceFile

__all__ = [
    "Analyzer",
    "Finding",
    "Rule",
    "SourceFile",
    "all_rules",
]
