"""Tests for the ``repro-hisrect`` command-line interface.

The workflow commands are chained against one shared temporary directory:
``generate`` writes a small dataset, ``train`` fits a deliberately tiny
pipeline on it, and ``evaluate`` / ``infer-poi`` consume both artefacts.
"""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_dir(workspace):
    directory = workspace / "dataset"
    exit_code = main(
        ["generate", "--preset", "nyc", "--scale", "0.3", "--seed", "5", "--out", str(directory)]
    )
    assert exit_code == 0
    return directory


@pytest.fixture(scope="module")
def model_dir(workspace, dataset_dir):
    directory = workspace / "model"
    exit_code = main(
        [
            "train",
            "--dataset", str(dataset_dir),
            "--out", str(directory),
            "--ssl-iterations", "8",
            "--judge-epochs", "2",
            "--content-dim", "6",
            "--feature-dim", "12",
            "--embedding-dim", "6",
            "--word-dim", "12",
        ]
    )
    assert exit_code == 0
    return directory


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "somewhere"])
        assert args.preset == "nyc"
        assert args.scale == 0.5
        assert args.func.__name__ == "cmd_generate"

    def test_train_flags(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "d", "--out", "m", "--no-unlabeled", "--judge", "one-phase"]
        )
        assert args.use_unlabeled is False
        assert args.judge == "one-phase"

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestWorkflow:
    def test_generate_writes_dataset(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert {"dataset.json", "city.json", "train.jsonl.gz"} <= names

    def test_train_writes_pipeline(self, model_dir):
        names = {p.name for p in model_dir.iterdir()}
        assert {"pipeline.json", "weights.npz", "city.json"} <= names

    def test_evaluate_prints_metrics(self, dataset_dir, model_dir, capsys):
        exit_code = main(
            ["evaluate", "--dataset", str(dataset_dir), "--model", str(model_dir), "--folds", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for metric in ("Acc", "Rec", "Pre", "F1"):
            assert metric in captured.out

    def test_infer_poi_prints_acc_at_k(self, dataset_dir, model_dir, capsys):
        exit_code = main(
            ["infer-poi", "--dataset", str(dataset_dir), "--model", str(model_dir), "--top-k", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Acc@1" in captured.out and "Acc@3" in captured.out

    def test_evaluate_missing_model_reports_error(self, dataset_dir, tmp_path, capsys):
        exit_code = main(["evaluate", "--dataset", str(dataset_dir), "--model", str(tmp_path)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err


class TestJudgeSelection:
    def test_train_parser_accepts_judge(self):
        args = build_parser().parse_args(["train", "--dataset", "d", "--judge", "tg-ti-c"])
        assert args.judge == "tg-ti-c"
        assert args.out is None

    def test_train_baseline_judge_end_to_end(self, dataset_dir, capsys):
        exit_code = main(["train", "--dataset", str(dataset_dir), "--judge", "tg-ti-c"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "trained judge 'tg-ti-c'" in captured.out
        # Non-persistable judges report quick held-out metrics instead of saving.
        for metric in ("Acc", "Rec", "Pre", "F1"):
            assert metric in captured.out

    def test_train_pipeline_judge_requires_out(self, dataset_dir, capsys):
        exit_code = main(
            [
                "train",
                "--dataset", str(dataset_dir),
                "--judge", "hisrect",
                "--ssl-iterations", "2",
                "--judge-epochs", "1",
                "--content-dim", "6",
                "--feature-dim", "12",
                "--embedding-dim", "6",
                "--word-dim", "12",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "--out is required" in captured.err

    def test_components_lists_registry(self, capsys):
        exit_code = main(["components"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for kind in ("judge:", "baseline:", "featurizer:", "preset:", "strategy:"):
            assert kind in captured.out
        assert "hisrect" in captured.out and "tg-ti-c" in captured.out

    def test_components_single_kind(self, capsys):
        exit_code = main(["components", "--kind", "strategy"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "two-phase" in captured.out
        assert "tg-ti-c" not in captured.out


class TestExperimentCommand:
    def test_table2_smoke(self, capsys):
        exit_code = main(["experiment", "table2", "--scale", "smoke"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 2" in captured.out

    def test_unknown_experiment_name(self, capsys):
        exit_code = main(["experiment", "does-not-exist", "--scale", "smoke"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown experiment" in captured.err


class TestServeBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.requests == 384
        assert args.pairs == 4
        assert args.max_batch == 256

    def test_serve_bench_small_run(self, capsys):
        exit_code = main(
            [
                "serve-bench",
                "--requests", "24",
                "--pairs", "2",
                "--users", "16",
                "--cache-size", "256",
                "--max-batch", "32",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "single engine" in captured.out
        assert "engine + micro-batch" in captured.out
        assert "bit-for-bit: yes" in captured.out


class TestWorkerCommand:
    def test_parser(self):
        args = build_parser().parse_args(
            ["worker", "--model", "m", "--listen", "127.0.0.1:0", "--once"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.once
        args = build_parser().parse_args(
            ["worker", "--model", "m", "--connect", "127.0.0.1:9", "--id", "3", "--token", "t"]
        )
        assert args.connect == "127.0.0.1:9"
        assert args.id == 3

    def test_listen_and_connect_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--model", "m", "--listen", "a:1", "--connect", "b:2"]
            )

    def test_connect_without_token_errors(self, capsys):
        exit_code = main(
            ["worker", "--model", "does-not-matter", "--connect", "127.0.0.1:9"]
        )
        assert exit_code == 2
        assert "--token" in capsys.readouterr().err

    def test_serve_bench_workers_row(self, capsys):
        exit_code = main(
            [
                "serve-bench",
                "--workers", "2",
                "--requests", "24",
                "--pairs", "2",
                "--users", "16",
                "--cache-size", "256",
                "--max-batch", "32",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "workers x2 + micro-batch" in captured.out
        assert "serve exact: yes" in captured.out
