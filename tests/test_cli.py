import json
import os

import numpy as np
import pytest

from gscnet import experiments
from gscnet.cli import main
from gscnet.experiments import ExperimentConfig

TINY = {"dataset": {"kind": "csbm", "n": 80, "d": 6, "p_intra": 0.3,
                    "p_inter": 0.05, "mu": 1.5, "sigma": 0.8},
        "arch": "GSCNet", "k1": 1, "k2": 1,
        "train": {"epochs": 25, "patience": 25, "dropout_linear": 0.0,
                  "dropout_conv": 0.0, "weight_decay": 0.0},
        "seeds": [0, 1]}


def write_config(tmp_path, obj=TINY):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def assert_environment(artifact, workers):
    env = artifact["environment"]
    assert set(env) == {"numpy", "blas", "blas_threads_per_worker", "nproc"}
    assert env == experiments.environment(workers)


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["train", "--config", write_config(tmp_path),
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"].startswith("gscnet")
        assert (out / "run_0.jsonl").exists()
        first = json.loads((out / "run_0.jsonl").read_text().splitlines()[0])
        assert {"epoch", "train_loss", "val_acc", "test_acc", "ms"} <= set(first)
        env = summary["environment"]
        assert set(env) == {"numpy", "blas", "blas_threads_per_worker",
                            "nproc"}
        assert env["numpy"] == np.__version__ and env["nproc"] >= 1
        records = experiments.cmd_train(
            ExperimentConfig.from_json(TINY))["records"]
        assert [r["seed"] for r in summary["runs"]] == [0, 1]
        for run, record in zip(summary["runs"], records):
            assert run["alpha"] == record.alpha
            assert run["beta"] == record.beta
            assert run["best_epoch"] == record.best_epoch
            assert run["diverged"] is False and "total_s" not in run

    def test_rerun_identical_modulo_times(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        config = write_config(tmp_path)
        assert main(["train", "--config", config, "--out-dir", str(out1)]) == 0
        assert main(["train", "--config", config, "--out-dir", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1 == s2

    def test_seed_list_override(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["train", "--config", write_config(tmp_path),
                   "--seed-list", "5", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "run_5.jsonl").exists()
        assert not (out / "run_0.jsonl").exists()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    def test_unknown_arch_exits_2(self, tmp_path):
        assert main(["train", "--config",
                     write_config(tmp_path, {**TINY, "arch": "GAT"})]) == 2

    @pytest.mark.parametrize("flags", [["--threads", "-1"],
                                       ["--threads", "0"],
                                       ["--seed-list", "a"]])
    def test_bad_override_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path),
                     "--out-dir", str(out), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [
        {"kind": "files", "edges": "x"},
        {**TINY["dataset"], "bogus": 1},
    ], ids=["files-missing-keys", "csbm-unknown-key"])
    def test_bad_dataset_spec_exits_2(self, tmp_path, capsys, dataset):
        rc = main(["train", "--config",
                   write_config(tmp_path, {**TINY, "dataset": dataset}),
                   "--out-dir", str(tmp_path / "runs"), "--threads", "2"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_train_seed_exits_2(self, tmp_path):
        cfg = {**TINY, "train": {**TINY["train"], "seed": 7}}
        assert main(["train", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(tmp_path / "runs")]) == 2


class TestSweepCommand:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["sweep", "--config", write_config(tmp_path),
                   "--k1-range", "0:1", "--k2-range", "1", "--out-dir",
                   str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,mean_test_acc,ci95"
        assert len(lines) == 3
        assert_environment(json.loads((out / "sweep.json").read_text()), 1)

    @pytest.mark.parametrize("flag", ["--k1-range", "--k2-range"])
    def test_bad_range_exits_2(self, tmp_path, flag):
        assert main(["sweep", "--config", write_config(tmp_path), flag,
                     "0:a", "--out-dir", str(tmp_path / "runs")]) == 2


class TestOversmoothCommand:
    def test_table_outputs(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["oversmooth", "--config", write_config(tmp_path),
                   "--depths", "1,2", "--out-dir", str(out), "--threads", "2"])
        assert rc == 0
        table = json.loads((out / "oversmooth.json").read_text())
        assert set(table["accuracy"]) == {"GSCNet", "GCN", "JKNet", "BernNet"}
        assert_environment(table, 2)
        assert (out / "oversmooth.csv").read_text().startswith("arch,depth_1")


class TestAblateCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["ablate", "--config", write_config(tmp_path),
                   "--out-dir", str(out)])
        assert rc == 0
        table = json.loads((out / "ablate.json").read_text())
        assert set(table["rows"]) == {"positive", "negative", "mixed"}
        assert_environment(table, 1)


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["bench", "--config", write_config(tmp_path),
                   "--warmup", "5", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["per_epoch_ms"] > 0
        assert_environment(report, 1)
        assert (out / "bench_epochs.csv").exists()

    def test_times_one_seed_serially(self, tmp_path):
        # Two seeds and two threads, but bench runs only the first seed.
        out = tmp_path / "runs"
        rc = main(["bench", "--config", write_config(tmp_path),
                   "--threads", "2", "--out-dir", str(out)])
        assert rc == 0
        assert_environment(json.loads((out / "bench.json").read_text()), 1)

    def test_empty_window_exits_2(self, tmp_path):
        cfg = {**TINY, "train": {**TINY["train"], "epochs": 1}}
        rc = main(["bench", "--config", write_config(tmp_path, cfg),
                   "--warmup", "1", "--out-dir", str(tmp_path / "x")])
        assert rc == 2


class TestCsbmGenCommand:
    def test_writes_files_and_sidecar(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["csbm-gen", "--preset", "homophily", "--n", "200",
                   "--seed", "3", "--out-dir", str(out)])
        assert rc == 0
        for name in ("edges.txt", "features.csv", "labels.txt", "csbm.json"):
            assert (out / name).exists()
        sidecar = json.loads((out / "csbm.json").read_text())
        assert sidecar["params"]["n"] == 200
        assert "label_smoothness" in sidecar["realized"]

    def test_custom_probabilities(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["csbm-gen", "--n", "50", "--p-intra", "0.4", "--p-inter",
                   "0.1", "--out-dir", str(out)])
        assert rc == 0

    def test_missing_probabilities_exit_2(self, tmp_path):
        assert main(["csbm-gen", "--n", "50",
                     "--out-dir", str(tmp_path / "d")]) == 2


class TestAnalyzeCommand:
    def test_preset_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--preset", "homophily", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["nodes"] == 1000
        assert 0.0 <= report["label_smoothness"] <= 1.0
        assert report["activation"]["shifted"]["label"] == "Positive"
        assert report["activation"]["laplacian"]["label"] == "Negative"

    def test_file_input(self, tmp_path):
        gen_dir = tmp_path / "data"
        main(["csbm-gen", "--preset", "homophily", "--n", "100",
              "--out-dir", str(gen_dir)])
        out = tmp_path / "report.json"
        rc = main(["analyze", "--edges", str(gen_dir / "edges.txt"),
                   "--features", str(gen_dir / "features.csv"),
                   "--labels", str(gen_dir / "labels.txt"),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["nodes"] == 100

    def test_missing_files_exit_3(self, tmp_path):
        rc = main(["analyze", "--edges", str(tmp_path / "nope.txt"),
                   "--features", str(tmp_path / "nope.csv"),
                   "--labels", str(tmp_path / "nope.txt")])
        assert rc == 3


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--quick", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
