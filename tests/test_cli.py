import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from gscnet import cli, experiments, pnca, suite
from gscnet.cli import build_parser, main
from gscnet.data import CsbmParams, csbm_params_for
from gscnet.errors import InputError
from gscnet.experiments import ExperimentConfig, make_dataset
from gscnet.model import ARCHITECTURES, TrainConfig
from gscnet.train import EpochStats, RunRecord
from test_acceptance import CONFIG_DIR, PROTOCOLS

TINY = {"dataset": {"kind": "csbm", "n": 80, "d": 6, "p_intra": 0.3,
                    "p_inter": 0.05, "mu": 1.5, "sigma": 0.8},
        "arch": "GSCNet", "k1": 1, "k2": 1,
        "train": {"epochs": 25, "patience": 25, "dropout_linear": 0.0,
                  "dropout_conv": 0.0, "weight_decay": 0.0},
        "seeds": [0, 1]}

# Each training command but bench, its flags for TINY and the cells its
# warnings name.
TRAINING_COMMANDS = [
    ("train", [], ["GSCNet (k1=1, k2=1)"]),
    ("sweep", ["--k1-range", "0:1", "--k2-range", "1"],
     ["GSCNet (k1=0, k2=1)", "GSCNet (k1=1, k2=1)"]),
    ("oversmooth", ["--depths", "1,2"],
     [f"{arch} at depth {d}" for arch in ARCHITECTURES for d in (1, 2)]),
    ("ablate", [], ["positive (k1=1, k2=-1)", "negative (k1=-1, k2=1)",
                    "mixed (k1=1, k2=1)"]),
]


def strict_json(text):
    """json.loads refusing the NaN and Infinity strict JSON has not."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def write_config(tmp_path, obj=TINY):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, flags", [
        *((c, f) for c, f, _ in TRAINING_COMMANDS), ("bench", [])],
        ids=[c for c, _, _ in TRAINING_COMMANDS] + ["bench"])
    def test_rerun_identical_modulo_times(self, tmp_path, bytes_gate,
                                          command, flags, threads):
        # Dropout on, so the runs' dropout draws are in the bytes too.
        config = write_config(tmp_path, {**TINY, "train": {
            **TINY["train"], "dropout_linear": 0.1, "dropout_conv": 0.1}})
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([command, "--config", config, *flags, "--out-dir",
                         str(out), "--threads", threads]) == 0
        assert list(outs[0].iterdir())
        # Every file loads as strict JSON or JSONL, and the two runs are
        # equal once WALL_TIME_FIELDS are dropped.
        assert bytes_gate.differing_files(*outs) == []

    def test_config_seeds_name_the_runs(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["train", "--config",
                   write_config(tmp_path, {**TINY, "seeds": [5]}),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "run_5.jsonl").exists()
        assert not (out / "run_0.jsonl").exists()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["train", "sweep", "oversmooth",
                                         "ablate", "bench"])
    def test_empty_evaluation_split_exits_2(self, tmp_path, capsys, command):
        # random_split(4) gives val and test floor(0.2 * 4) = 0 nodes, so
        # their accuracies would read a silent 0.
        cfg = {"dataset": {"kind": "csbm", "n": 4, "p_intra": 1e-9,
                           "p_inter": 1e-9},
               "train": {"epochs": 8, "patience": 3}}
        out = tmp_path / "runs"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 2
        assert "val split of 4 nodes is empty" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("config, message", [
        (None, "cannot read config"),
        ([TINY], "config must be a JSON object"),
    ], ids=["missing", "array"])
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, config,
                                          message):
        path = (str(tmp_path / "missing.json") if config is None
                else write_config(tmp_path, config))
        assert main(["train", "--config", path,
                     "--out-dir", str(tmp_path / "runs")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_unknown_arch_exits_2(self, tmp_path):
        assert main(["train", "--config",
                     write_config(tmp_path, {**TINY, "arch": "GAT"})]) == 2

    @pytest.mark.parametrize("flags", [["--threads", "-1"],
                                       ["--threads", "0"]])
    def test_bad_override_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path),
                     "--out-dir", str(out), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [
        {"kind": "files", "edges": "x"},
        {**TINY["dataset"], "bogus": 1},
        {"kind": "csbm", "regime": "bogus"},
    ], ids=["files-missing-keys", "csbm-unknown-key", "csbm-unknown-regime"])
    def test_bad_dataset_spec_exits_2(self, tmp_path, capsys, dataset):
        rc = main(["train", "--config",
                   write_config(tmp_path, {**TINY, "dataset": dataset}),
                   "--out-dir", str(tmp_path / "runs"), "--threads", "2"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override", [
        {"dataset": "cora"},
        {"dataset": {"kind": "cora"}},
        {"seeds": []},
        {"seeds": [0, 0]},
        {"k1": "2"},
        {"k2": 1.5},
        {"arch": "GCN", "k1": 2.5},
        {"train": {**TINY["train"], "epochs": 2.5}},
        {"train": {**TINY["train"], "patience": True}},
        {"arch": "JKNet", "k1": 0},
        {"threads": 1.5},
        {"threads": True},
        {"seeds": [-1]},
        {"train": {**TINY["train"], "lr_linear": float("nan")}},
        {"train": {**TINY["train"], "lr_prop": float("inf")}},
        {"train": {**TINY["train"], "weight_decay": -1.0}},
        {"train": {**TINY["train"], "weight_decay": float("nan")}},
        {"train": {**TINY["train"], "lr_linear": True}},
        {"train": {**TINY["train"], "lr_prop": True}},
        {"train": {**TINY["train"], "weight_decay": True}},
        {"train": {**TINY["train"], "dropout_conv": False}},
        {"train": {**TINY["train"], "dropout_linear": False}},
        {"dataset": {**TINY["dataset"], "d": 16.0}},
        {"dataset": {**TINY["dataset"], "n": 200.0}},
        {"dataset": {**TINY["dataset"], "sigma": True}},
        {"dataset": {**TINY["dataset"], "p_intra": True}},
        {"dataset": {**TINY["dataset"], "sigma": float("nan")}},
        {"dataset": {**TINY["dataset"], "mu": float("inf")}},
        {"dataset": {"kind": "csbm", "regime": "homophily", "n": 80,
                     "expected_degree": True}},
        {"schema": experiments.SCHEMA_VERSION},
    ], ids=["dataset-string", "dataset-kind-unknown", "seeds-empty",
            "seeds-duplicate", "k1-string", "k2-float", "gcn-depth-float",
            "epochs-float", "patience-bool", "jknet-degree-0", "threads-float",
            "threads-bool", "seed-negative", "lr-nan", "lr-inf",
            "decay-negative", "decay-nan", "lr-linear-bool", "lr-prop-bool",
            "decay-bool", "dropout-conv-bool", "dropout-linear-bool",
            "csbm-d-float", "csbm-n-float", "csbm-sigma-bool",
            "csbm-p-intra-bool", "csbm-sigma-nan", "csbm-mu-inf",
            "regime-degree-bool", "schema-key"])
    def test_mistyped_value_exits_2_before_any_draw(
            self, tmp_path, capsys, no_draw, override):
        out = tmp_path / "runs"
        # --threads would replace the config's threads.
        flags = [] if "threads" in override else ["--threads", "2"]
        assert main(["train", "--config",
                     write_config(tmp_path, {**TINY, **override}),
                     "--out-dir", str(out), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_that_is_a_file_exits_2_before_training(
            self, tmp_path, capsys, no_draw):
        out = tmp_path / "runs"
        out.write_text("not a directory\n")
        assert main(["train", "--config", write_config(tmp_path),
                     "--out-dir", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys, no_draw):
        # The directory cannot be made, because its parent is a file; this
        # is found before any dataset is drawn.
        (tmp_path / "file").write_text("")
        assert main(["train", "--config", write_config(tmp_path),
                     "--out-dir", str(tmp_path / "file" / "runs")]) == 2
        assert "config error" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == ""

    def test_train_seed_exits_2(self, tmp_path):
        cfg = {**TINY, "train": {**TINY["train"], "seed": 7}}
        assert main(["train", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(tmp_path / "runs")]) == 2


class TestSweepCommand:
    def test_grid(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["sweep", "--config", write_config(tmp_path),
                   "--k1-range", "0:1", "--k2-range", "1", "--out-dir",
                   str(out)])
        assert rc == 0
        assert [p.name for p in out.iterdir()] == ["sweep.json"]
        cells = json.loads((out / "sweep.json").read_text())["cells"]
        assert [(c["k1"], c["k2"]) for c in cells] == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("flag", ["--k1-range", "--k2-range"])
    def test_bad_range_exits_2(self, tmp_path, flag):
        assert main(["sweep", "--config", write_config(tmp_path), flag,
                     "0:a", "--out-dir", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("flag", ["--k1-range", "--k2-range"])
    def test_empty_range_exits_2(self, tmp_path, capsys, no_draw, flag):
        out = tmp_path / "runs"
        assert main(["sweep", "--config", write_config(tmp_path), flag, "",
                     "--out-dir", str(out)]) == 2
        assert "config error: sweep ranges must be non-empty" in \
            capsys.readouterr().err
        assert not out.exists()


class TestOversmoothCommand:
    def test_table_outputs(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["oversmooth", "--config", write_config(tmp_path),
                   "--depths", "1,2", "--out-dir", str(out), "--threads", "2"])
        assert rc == 0
        table = json.loads((out / "oversmooth.json").read_text())
        assert set(table["accuracy"]) == {"GSCNet", "GCN", "JKNet", "BernNet"}
        assert all(set(row) == {"1", "2"}
                   for row in table["accuracy"].values())
        assert [p.name for p in out.iterdir()] == ["oversmooth.json"]

    @pytest.mark.parametrize("depths", ["2,x", "4,2", "2,2"])
    def test_bad_depths_exit_2_before_any_draw(self, tmp_path, capsys,
                                               no_draw, depths):
        out = tmp_path / "runs"
        assert main(["oversmooth", "--config", write_config(tmp_path),
                     "--depths", depths, "--out-dir", str(out)]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()


class TestAblateCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["ablate", "--config", write_config(tmp_path),
                   "--out-dir", str(out)])
        assert rc == 0
        table = json.loads((out / "ablate.json").read_text())
        assert set(table["rows"]) == {"positive", "negative", "mixed"}

    def test_non_gscnet_arch_exits_2_before_any_draw(self, tmp_path, capsys,
                                                     no_draw):
        # The three variants are GSCNet's bases; another arch has none.
        out = tmp_path / "runs"
        assert main(["ablate", "--config", write_config(
            tmp_path, {**TINY, "arch": "BernNet"}), "--out-dir",
            str(out)]) == 2
        assert "config error: ablate compares GSCNet's two families; got " \
            "arch 'BernNet'" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_bench_outputs(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["bench", "--config", write_config(tmp_path),
                   "--warmup", "5", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["per_epoch_ms"] > 0
        assert len(report["series_ms"]) == TINY["train"]["epochs"]
        assert [p.name for p in out.iterdir()] == ["bench.json"]

    def test_times_one_seed_serially(self, tmp_path):
        # Two seeds and two threads, but bench runs only the first seed.
        out = tmp_path / "runs"
        rc = main(["bench", "--config", write_config(tmp_path),
                   "--threads", "2", "--out-dir", str(out)])
        assert rc == 0
        env = json.loads((out / "bench.json").read_text())["environment"]
        # Serial, so it records the full BLAS count, not a worker's share.
        assert env == experiments.environment()

    def test_negative_warmup_exits_2(self, tmp_path, capsys, no_draw):
        out = tmp_path / "runs"
        assert main(["bench", "--config", write_config(tmp_path),
                     "--warmup", "-1", "--out-dir", str(out)]) == 2
        assert "config error: warmup must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_window_exits_2(self, tmp_path):
        cfg = {**TINY, "train": {**TINY["train"], "epochs": 1}}
        rc = main(["bench", "--config", write_config(tmp_path, cfg),
                   "--warmup", "1", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_diverged_run_exits_2(self, tmp_path, capsys, nan_loss):
        nan_loss(seed=1, epoch=2)
        out = tmp_path / "runs"
        rc = main(["bench", "--config", write_config(
            tmp_path, {**TINY, "seeds": [1]}), "--out-dir", str(out)])
        assert rc == 2
        assert "error: bench: seed 1 diverged (non-finite loss or logits) " \
            "at epoch 2" in capsys.readouterr().err
        assert not out.exists()


def divergence_warnings(cells, seeds):
    return [f"warning: {cell}: training diverged (non-finite loss or "
            f"logits) on seed(s) {seeds}" for cell in cells]


class TestDivergenceWarning:
    @pytest.mark.parametrize("command, flags, cells", TRAINING_COMMANDS,
                             ids=[c[0] for c in TRAINING_COMMANDS])
    def test_names_each_diverged_cell(self, tmp_path, capsys, nan_loss,
                                      command, flags, cells):
        nan_loss(seed=1, epoch=2)
        assert main([command, "--config", write_config(tmp_path), *flags,
                     "--out-dir", str(tmp_path / "runs"),
                     "--threads", "2"]) == 0
        assert capsys.readouterr().err.splitlines() == \
            divergence_warnings(cells, [1])

    @pytest.mark.parametrize("command, flags, cells", TRAINING_COMMANDS
                             + [("bench", [], [])],
                             ids=[c[0] for c in TRAINING_COMMANDS] + ["bench"])
    def test_overflowing_first_step(self, tmp_path, capsys, command, flags,
                                    cells):
        """Learning rates of 1e300 overflow the first Adam step, so every
        run diverges at epoch 0 with no model selected, and numpy warns of
        nothing (pytest would raise on its RuntimeWarning)."""
        big = {**TINY["train"], "lr_linear": 1e300, "lr_prop": 1e300}
        out = tmp_path / "runs"
        rc = main([command, "--config",
                   write_config(tmp_path, {**TINY, "train": big}), *flags,
                   "--out-dir", str(out), "--threads", "2"])
        err = capsys.readouterr().err.splitlines()
        if command == "bench":
            assert rc == 2
            assert err == ["error: bench: seed 0 diverged (non-finite loss "
                           "or logits) at epoch 0"]
            assert not out.exists()
            return
        assert rc == 0
        assert err == divergence_warnings(cells, [0, 1])
        if command == "train":
            runs = json.loads((out / "summary.json").read_text())["runs"]
            assert [(r["best_epoch"], r["best_val_acc"], r["test_acc"],
                     r["alpha"], r["beta"], r["num_epochs"], r["diverged"])
                    for r in runs] == [(-1, 0.0, 0.0, [], [], 0, True)] * 2


# Each training command's experiments function and JSON artifact.
RESULTS = {"train": ("cmd_train", "summary.json"),
           "sweep": ("cmd_sweep_degrees", "sweep.json"),
           "oversmooth": ("cmd_oversmooth", "oversmooth.json"),
           "ablate": ("cmd_ablate_activations", "ablate.json"),
           "bench": ("cmd_bench", "bench.json")}


class TestEnvironmentBlock:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", RESULTS)
    def test_artifact_holds_its_results_environment(
            self, tmp_path, monkeypatch, command, threads):
        name, artifact = RESULTS[command]
        flags = {c: f for c, f, _ in TRAINING_COMMANDS}.get(command, [])
        real = getattr(experiments, name)
        results = []

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, name, spy)
        out = tmp_path / "runs"
        assert main([command, "--config", write_config(tmp_path), *flags,
                     "--out-dir", str(out), "--threads", threads]) == 0
        result, = results
        env = (result["summary"] if command == "train"
               else result)["environment"]
        assert set(env) == {"numpy", "blas", "blas_threads_per_worker",
                            "nproc"}
        assert json.loads((out / artifact).read_text())["environment"] == env


class TestStrictJson:
    # A training command, its flags for TINY, its artifact and the ci95
    # values in that artifact.
    @pytest.mark.parametrize("command, flags, artifact, cis", [
        ("train", [], "summary.json", lambda a: [a["ci95"]]),
        ("sweep", ["--k1-range", "0:1", "--k2-range", "1"], "sweep.json",
         lambda a: [cell["ci95"] for cell in a["cells"]]),
        ("ablate", [], "ablate.json",
         lambda a: [row["ci95"] for row in a["rows"].values()]),
    ], ids=["train", "sweep", "ablate"])
    def test_one_seed_artifacts(self, tmp_path, capsys, command, flags,
                                artifact, cis):
        out = tmp_path / "runs"
        assert main([command, "--config",
                     write_config(tmp_path, {**TINY, "seeds": [0]}), *flags,
                     "--out-dir", str(out)]) == 0
        for path in out.glob("*.json"):
            strict_json(path.read_text())
        for path in out.glob("*.jsonl"):
            for line in path.read_text().splitlines():
                strict_json(line)
        ci = cis(strict_json((out / artifact).read_text()))
        assert ci and all(c is None for c in ci)
        if command != "sweep":
            assert "+/- nan" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_writers_refuse_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            experiments.write_json(tmp_path / "x.json", {"x": value})
        record = RunRecord(seed=0, arch="GSCNet", k1=1, k2=1,
                           epochs=[EpochStats(0, value, 0.5, 0.5, 1.0)])
        with pytest.raises(ValueError):
            experiments.write_records_jsonl(tmp_path / "x.jsonl", record)


class TestCsbmGenCommand:
    def test_writes_files_and_sidecar(self, tmp_path):
        out = tmp_path / "data"
        cfg = {"dataset": {"kind": "csbm", "regime": "homophily", "n": 200},
               "seeds": [3, 4]}
        rc = main(["csbm-gen", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        for name in ("edges.txt", "features.csv", "labels.txt", "csbm.json"):
            assert (out / name).exists()
        sidecar = json.loads((out / "csbm.json").read_text())
        # The config's first seed, as bench uses.
        assert sidecar["params"] == csbm_params_for("homophily", n=200,
                                                    seed=3).to_json()
        assert "label_smoothness" in sidecar["realized"]

    def test_custom_probabilities(self, tmp_path):
        out = tmp_path / "data"
        cfg = {"dataset": {"kind": "csbm", "n": 50, "p_intra": 0.4,
                           "p_inter": 0.1}}
        rc = main(["csbm-gen", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        params = json.loads((out / "csbm.json").read_text())["params"]
        assert (params["n"], params["p_intra"], params["p_inter"]) == \
            (50, 0.4, 0.1)

    def test_edgeless_draw_has_no_smoothness(self, tmp_path, capsys):
        # Label smoothness is a fraction of the edges; with none it is null.
        out = tmp_path / "data"
        cfg = {"dataset": {"kind": "csbm", "n": 4, "p_intra": 1e-9,
                           "p_inter": 1e-9}}
        rc = main(["csbm-gen", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == (
            f"wrote {out}/: n=4, |E|=0, "
            "label_smoothness=undefined (no edges)\n")
        assert (out / "edges.txt").read_bytes() == b""
        sidecar = json.loads((out / "csbm.json").read_text())
        assert sidecar["realized"]["label_smoothness"] is None
        assert '"label_smoothness": null' in (out / "csbm.json").read_text()

    def test_files_spec_exits_2(self, tmp_path, capsys):
        cfg = {"dataset": {"kind": "files", "edges": "e", "features": "f",
                           "labels": "l"}}
        out = tmp_path / "data"
        assert main(["csbm-gen", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_one_spec_gives_one_dataset(self, tmp_path):
        """The files csbm-gen writes for a spec train exactly as the spec."""
        data = tmp_path / "data"
        assert main(["csbm-gen", "--config", write_config(tmp_path),
                     "--out-dir", str(data)]) == 0
        files = {"kind": "files", "edges": str(data / "edges.txt"),
                 "features": str(data / "features.csv"),
                 "labels": str(data / "labels.txt")}
        runs = []
        for name, dataset in (("csbm", TINY["dataset"]), ("files", files)):
            # csbm-gen draws the first seed's graph; train on that seed.
            cfg = {**TINY, "dataset": dataset, "seeds": TINY["seeds"][:1]}
            out = tmp_path / name
            assert main(["train", "--config",
                         write_config(tmp_path, cfg), "--out-dir",
                         str(out)]) == 0
            runs.append(json.loads((out / "summary.json").read_text())["runs"])
        assert runs[0] == runs[1]


class TestAnalyzeCommand:
    def test_preset_report(self, tmp_path, capsys):
        # No config: the homophily preset at n=1000, seed 0.
        out = tmp_path / "runs"
        rc = main(["analyze", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "analyze.json").read_text())
        assert json.loads(capsys.readouterr().out) == report
        assert report["nodes"] == 1000 and report["seed"] == 0
        assert 0.0 <= report["label_smoothness"] <= 1.0
        assert report["activation"]["shifted"]["label"] == "Positive"
        assert report["activation"]["laplacian"]["label"] == "Negative"

    def test_committed_config_dataset(self, tmp_path):
        out = tmp_path / "runs"
        rc = main(["analyze", "--config", str(CONFIG_DIR /
                                              "sweep-heterophily.json"),
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "analyze.json").read_text())
        stats = pnca.dataset_stats(make_dataset(
            PROTOCOLS["sweep-heterophily"].dataset, 0))
        for key in ("nodes", "edges", "label_smoothness"):
            assert report[key] == stats[key]
        assert report["activation"]["shifted"]["label"] == "Positive"
        assert report["activation"]["laplacian"]["label"] == "Negative"

    def test_activation_above_dense_sizes(self, tmp_path):
        # Above the dense oracle's guard: the verdicts need no dense matrix.
        cfg = {"dataset": {"kind": "csbm", "regime": "heterophily",
                           "n": 2500}}
        out = tmp_path / "runs"
        rc = main(["analyze", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["nodes"] == 2500
        assert report["activation"]["shifted"]["label"] == "Positive"
        assert report["activation"]["laplacian"]["label"] == "Negative"

    def test_file_input(self, tmp_path):
        gen_dir = tmp_path / "data"
        cfg = {"dataset": {"kind": "csbm", "regime": "homophily", "n": 100}}
        main(["csbm-gen", "--config", write_config(tmp_path, cfg),
              "--out-dir", str(gen_dir)])
        cfg = {"dataset": {"kind": "files",
                           "edges": str(gen_dir / "edges.txt"),
                           "features": str(gen_dir / "features.csv"),
                           "labels": str(gen_dir / "labels.txt")}}
        out = tmp_path / "runs"
        rc = main(["analyze", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "analyze.json").read_text())["nodes"] == 100

    def test_edgeless_files_dataset_has_no_smoothness(self, tmp_path):
        # Label smoothness is a fraction of the edges; with none it is null.
        (tmp_path / "edges.txt").write_text("# no edges\n")
        (tmp_path / "features.csv").write_text("0.5,1.0\n0.25,2.0\n1.5,0.0\n")
        (tmp_path / "labels.txt").write_text("0\n1\n0\n")
        cfg = {"dataset": {
            "kind": "files", "edges": str(tmp_path / "edges.txt"),
            "features": str(tmp_path / "features.csv"),
            "labels": str(tmp_path / "labels.txt")}}
        out = tmp_path / "runs"
        assert main(["analyze", "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "analyze.json").read_text())
        assert (report["nodes"], report["edges"]) == (3, 0)
        assert report["label_smoothness"] is None

    def test_missing_files_exit_3(self, tmp_path):
        cfg = {"dataset": {"kind": "files",
                           "edges": str(tmp_path / "nope.txt"),
                           "features": str(tmp_path / "nope.csv"),
                           "labels": str(tmp_path / "nope.txt")}}
        rc = main(["analyze", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "runs")])
        assert rc == 3

    @pytest.mark.parametrize("token,line", [("nan", 3), ("-inf", 4)])
    def test_non_finite_feature_exits_3(self, tmp_path, capsys, token, line):
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        # The blank second line carries no row: row 2 is on line 3 or 4.
        rows = ["0.5,1.0", "", "0.25,2.0", "1.5,0.0"]
        rows[line - 1] = f"1.0,{token}"
        (tmp_path / "features.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "labels.txt").write_text("0\n1\n0\n")
        cfg = {**TINY, "dataset": {
            "kind": "files", "edges": str(tmp_path / "edges.txt"),
            "features": str(tmp_path / "features.csv"),
            "labels": str(tmp_path / "labels.txt")}}
        rc = main(["train", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "runs")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "NaN/Inf" in err
        assert f"{tmp_path / 'features.csv'}:{line}" in err

    def test_self_loop_edge_exits_3(self, tmp_path, capsys):
        # A comment and a blank line come first: the loop is on line 4.
        (tmp_path / "edges.txt").write_text("# header\n\n0 1\n2 2\n1 2\n")
        (tmp_path / "features.csv").write_text("0.5,1.0\n0.25,2.0\n1.5,0.0\n")
        (tmp_path / "labels.txt").write_text("0\n1\n0\n")
        cfg = {**TINY, "dataset": {
            "kind": "files", "edges": str(tmp_path / "edges.txt"),
            "features": str(tmp_path / "features.csv"),
            "labels": str(tmp_path / "labels.txt")}}
        rc = main(["train", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "runs")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "self-loop" in err
        assert f"{tmp_path / 'edges.txt'}:4" in err


@pytest.mark.parametrize("command", ["csbm-gen", "analyze"])
class TestDatasetCommands:
    def test_flags_are_the_config_flags(self, command):
        args = vars(build_parser().parse_args([command]))
        assert set(args) == {"command", "fn", "config", "out_dir"}

    def test_non_object_dataset_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "runs"
        assert main([command, "--config",
                     write_config(tmp_path, {"dataset": "cora"}),
                     "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_csbm_key_exits_2(self, tmp_path, capsys, command):
        cfg = {"dataset": {**TINY["dataset"], "bogus": 1}}
        out = tmp_path / "runs"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_size_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, no_draw, command):
        # csbm-gen draws through cli's own import; no_draw has replaced
        # experiments.csbm_generate by then.
        monkeypatch.setattr(cli, "csbm_generate", experiments.csbm_generate)
        cfg = {"dataset": {**TINY["dataset"], "n": 200.0}}
        out = tmp_path / "runs"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def csbm_preset(**kwargs):
    return csbm_params_for("homophily", **kwargs)


@pytest.mark.parametrize("cls,name", [
    (cls, f.name) for cls in (TrainConfig, CsbmParams)
    for f in dataclasses.fields(cls) if f.type in ("int", "float")] + [
    (csbm_preset, name) for name, p in
    inspect.signature(csbm_params_for).parameters.items()
    if p.annotation in ("int", "float")])
def test_numeric_field_rejects_bool(cls, name):
    # JSON true must not pass as 1 (or false as 0) in any numeric config
    # input, nor a NaN or an infinity, including inputs added later.
    for value in (True, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            cls(**{name: value})


class TestVerifyCommand:
    @pytest.fixture
    def no_suite(self, monkeypatch):
        def run_suite(seed, quick):
            raise AssertionError("the suite ran")
        monkeypatch.setattr(suite, "run_suite", run_suite)

    def test_negative_seed_exits_2(self, capsys, no_suite):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_filter_fails_with_a_strict_report(self, capsys,
                                                   monkeypatch):
        # A NaN error is within no bound: both checks that read the filter
        # fail, and the report writes their measurement as null.
        monkeypatch.setattr(suite, "gscnet_filter", lambda g, X, alpha, beta:
                            np.full(np.shape(X), np.nan))
        assert main(["verify", "--quick"]) == 4
        report = strict_json(capsys.readouterr().out)
        assert report["passed"] is False
        assert {c["name"]: c["worst_relative_err"] for c in report["checks"]
                if not c["passed"]} == {"spectral_filter_agreement": None,
                                        "recurrence_vs_power": None}

    def test_quick_suite_passes(self, capsys):
        rc = main(["verify", "--quick"])
        assert rc == 0
        report = strict_json(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        # Each check reports the bound its measurement is held to.
        checks = {c["name"]: c for c in report["checks"]}
        assert {name: c["bound"] for name, c in checks.items()} == {
            "eigensystem": {"reconstruction_err": 1e-8,
                            "orthonormality_err": 1e-10,
                            "eigenvalue_range": [-1e-9, 2.0 + 1e-9]},
            "spectral_filter_agreement": 1e-8,
            "recurrence_vs_power": 1e-10,
            "rayleigh_monotonicity": 0,
            "shifted_combination_positivity": 0,
            "gradient_check": 1e-4}
        eig = checks.pop("eigensystem")
        for key in ("reconstruction_err", "orthonormality_err"):
            assert eig[key] <= eig["bound"][key]
        (lo, hi), (low, high) = (eig["eigenvalue_range"],
                                 eig["bound"]["eigenvalue_range"])
        assert low <= lo and hi <= high
        for c in checks.values():
            measured = c.get("worst_relative_err",
                             c.get("violations", c.get("failures")))
            assert measured <= c["bound"]
