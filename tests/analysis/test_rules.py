"""Golden-fixture self-tests for every rule, plus the acceptance mutations:

each rule flags its known-bad fixture and passes its known-good one, the
real tree is clean (the committed baseline stays empty), and the two
regressions the checker exists to prevent — deleting a JudgementCore
delegation, inventing a stage literal — fail the check when injected into
the real sources.
"""

import re

from conftest import REPO_ROOT, analyze_fixture, analyze_text

from repro.analysis import Analyzer, SourceFile
from repro.analysis.framework import collect_files, load_sources

WIRE = "src/repro/cluster/wire.py"
WORKER = "src/repro/cluster/worker.py"
GATEWAY = "src/repro/cluster/gateway.py"
ENGINE = "src/repro/api/engine.py"
BATCHER = "src/repro/cluster/batcher.py"


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ------------------------------------------------------------- decision-path
class TestDecisionPath:
    def test_good_delegating_transport_is_clean(self):
        findings = analyze_fixture(
            "decision_path/good_delegating.py", ENGINE, rules=["decision-path"]
        )
        assert findings == []

    def test_inline_threshold_cut_is_flagged(self):
        findings = analyze_fixture(
            "decision_path/bad_inline_threshold.py", ENGINE, rules=["decision-path"]
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "ordering comparison against a threshold" in messages
        assert "decide_feature_pairs" in messages  # reimplemented helper
        assert "does not call through self._core" in messages  # forked predict

    def test_missing_surface_is_flagged(self):
        findings = analyze_fixture(
            "decision_path/bad_missing_delegation.py", ENGINE, rules=["decision-path"]
        )
        assert any("missing decision surface 'serve_batch'" in f.message for f in findings)

    def test_rule_is_scoped_to_transport_modules(self):
        text = (
            "def cut(probabilities, threshold):\n"
            "    return probabilities >= threshold\n"
        )
        # repro.api.core is the sanctioned home of exactly this comparison.
        assert analyze_text(text, "src/repro/api/core.py", rules=["decision-path"]) == []


# --------------------------------------------------------------- wire-safety
class TestWireSafety:
    def test_good_wire_module_is_clean(self):
        assert analyze_fixture("wire_safety/good_wire.py", WIRE, rules=["wire-safety"]) == []

    def test_pickle_eval_reduce_are_flagged(self):
        findings = analyze_fixture("wire_safety/bad_pickle.py", WIRE, rules=["wire-safety"])
        messages = " | ".join(finding.message for finding in findings)
        assert "import of 'pickle'" in messages
        assert "'pickle.loads' call" in messages
        assert "call to 'eval'" in messages
        assert "'__reduce__' defined" in messages

    def test_redeclared_frame_constant_is_flagged(self):
        findings = analyze_fixture("wire_safety/bad_frames.py", WIRE, rules=["wire-safety"])
        assert any("redeclared" in finding.message for finding in findings)

    def test_frame_constant_outside_wire_home_is_flagged(self):
        findings = analyze_text("FRAME_ROGUE = 9\n", WORKER, rules=["wire-safety"])
        assert any("outside" in finding.message for finding in findings)

    def test_unchecked_payload_read_is_flagged(self):
        findings = analyze_fixture(
            "wire_safety/bad_unchecked_read.py", WIRE, rules=["wire-safety"]
        )
        assert any("without a prior header length check" in f.message for f in findings)

    def test_rule_is_scoped_to_wire_modules(self):
        # The worker bundle exception aside, pickle elsewhere is not this rule's beat.
        assert analyze_text("import pickle\n", "src/repro/io/pipeline.py",
                            rules=["wire-safety"]) == []

    def test_inline_waiver_suppresses_a_documented_exception(self):
        text = "import pickle  # repro: allow(wire-safety) — disk bundle, never on the wire\n"
        assert analyze_text(text, WORKER, rules=["wire-safety"]) == []


# ----------------------------------------------------------- lock-discipline
class TestLockDiscipline:
    def test_good_guarded_class_is_clean(self):
        findings = analyze_fixture(
            "lock_discipline/good_guarded.py", ENGINE, rules=["lock-discipline"]
        )
        assert findings == []

    def test_unguarded_access_is_flagged(self):
        findings = analyze_fixture(
            "lock_discipline/bad_unguarded.py", ENGINE, rules=["lock-discipline"]
        )
        assert len(findings) == 2  # the bare write and the bare read
        assert all("guarded-by '_lock'" in finding.message for finding in findings)

    def test_featurize_inside_lock_is_flagged(self):
        findings = analyze_fixture(
            "lock_discipline/bad_featurize_in_lock.py", ENGINE, rules=["lock-discipline"]
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "'featurize_profiles' called inside a lock body" in messages
        assert "'encode_batch' called inside a lock body" in messages


# ------------------------------------------------------------ stage-taxonomy
class TestStageTaxonomy:
    def test_good_stages_are_clean(self):
        findings = analyze_fixture(
            "stage_taxonomy/good_stages.py", GATEWAY, rules=["stage-taxonomy"]
        )
        assert findings == []

    def test_bad_stages_are_flagged(self):
        findings = analyze_fixture(
            "stage_taxonomy/bad_stages.py", GATEWAY, rules=["stage-taxonomy"]
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "'bogus' is not a canonical stage name" in messages
        assert "'warm_hit' is not a canonical store event name" in messages
        assert "'STAGE_PRIVATE' is not one of the canonical" in messages
        assert "dynamic stage name" in messages


# ------------------------------------------------------------ metric-hygiene
class TestMetricHygiene:
    def test_good_metrics_are_clean(self):
        findings = analyze_fixture(
            "metric_hygiene/good_metrics.py", BATCHER, rules=["metric-hygiene"]
        )
        assert findings == []

    def test_bad_metrics_are_flagged(self):
        findings = analyze_fixture(
            "metric_hygiene/bad_metrics.py", BATCHER, rules=["metric-hygiene"]
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "'requestsTotal' is not repro_-prefixed snake_case" in messages
        assert "redeclared as gauge" in messages
        assert "redeclared with buckets=(1.0, 5.0)" in messages


# -------------------------------------------------- acceptance: the real tree
class TestRealTree:
    def test_src_tree_is_clean_with_empty_baseline(self):
        sources, parse_errors = load_sources(collect_files([str(REPO_ROOT / "src")]))
        assert parse_errors == []
        assert Analyzer().run(sources) == []

    def test_deleting_engine_delegation_fails_the_check(self, repo_source):
        real = repo_source(ENGINE)
        mutated = real.replace(
            "return self._core.predict(pairs)",
            "return (self.predict_proba(pairs) >= self.threshold).astype(int)",
        )
        assert mutated != real
        findings = Analyzer().run([SourceFile.from_text(mutated, ENGINE)])
        assert "decision-path" in rule_ids(findings)

        deleted = re.sub(
            r"    def predict\(self.*?return self\._core\.predict\(pairs\)\n\n",
            "",
            real,
            count=1,
            flags=re.S,
        )
        assert deleted != real
        findings = Analyzer().run([SourceFile.from_text(deleted, ENGINE)])
        assert any(
            "missing decision surface 'predict'" in finding.message for finding in findings
        )

    def test_bogus_stage_literal_fails_in_every_transport(self, repo_source):
        rogue = '\n\ndef _rogue(tracer):\n    with tracer.stage("bogus"):\n        pass\n'
        for path in (ENGINE, BATCHER, GATEWAY):
            mutated = repo_source(path) + rogue
            findings = Analyzer().run([SourceFile.from_text(mutated, path)])
            assert "stage-taxonomy" in rule_ids(findings), path
