import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from gscnet import experiments, model, train
from gscnet.data import (CsbmParams, csbm_generate, random_split,
                         save_dataset)
from gscnet.errors import ConfigError, GscnetError
from gscnet.experiments import (ExperimentConfig, cmd_ablate_activations,
                                cmd_bench, cmd_oversmooth, cmd_sweep_degrees,
                                cmd_train, make_dataset, mean_ci95,
                                summarize_records, t_critical_975)
from gscnet.model import TrainConfig

TINY_CSBM = {"kind": "csbm", "n": 80, "d": 6, "p_intra": 0.3,
             "p_inter": 0.05, "mu": 1.5, "sigma": 0.8}
FAST_TRAIN = dict(lr_linear=0.02, lr_prop=0.02, weight_decay=0.0,
                  dropout_linear=0.0, dropout_conv=0.0, epochs=30,
                  patience=30)


def tiny_config(**kw):
    base = dict(dataset=TINY_CSBM, arch="GSCNet", k1=1, k2=1,
                train=TrainConfig(**FAST_TRAIN), seeds=[0, 1], threads=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestStats:
    def test_t_table_values(self):
        assert t_critical_975(9) == pytest.approx(2.262)
        assert t_critical_975(1) == pytest.approx(12.706)
        assert t_critical_975(1000) == pytest.approx(1.980)

    def test_mean_ci(self):
        mean, ci = mean_ci95([0.5, 0.7])
        assert mean == pytest.approx(0.6)
        # half-width = t(1) * s / sqrt(2), s = 0.1*sqrt(2)
        assert ci == pytest.approx(12.706 * 0.1)

    def test_single_value_has_nan_ci(self):
        mean, ci = mean_ci95([0.4])
        assert mean == 0.4 and np.isnan(ci)


class TestConfig:
    def test_from_json_defaults(self):
        cfg = ExperimentConfig.from_json({})
        assert cfg.arch == "GSCNet" and cfg.seeds == [0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"archh": "GSCNet"})

    def test_out_dir_key_rejected(self):
        # The output directory is set by --out-dir only.
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"out_dir": "runs"})

    def test_bad_arch_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"arch": "GAT"})

    def test_train_seed_rejected(self):
        # Every run trains with its own seed from `seeds`, so a train.seed
        # would be silently replaced.
        with pytest.raises(ConfigError, match="train.seed"):
            ExperimentConfig.from_json({"train": {"seed": 7}})

    @pytest.mark.parametrize("seeds", [["a"], [1.5], [0, None], [True], [-1]])
    def test_non_integer_seed_rejected(self, seeds):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"seeds": seeds})


class TestMakeDataset:
    def test_file_dataset_reloads_after_rewrite(self, tmp_path):
        paths = [str(tmp_path / f)
                 for f in ("edges.txt", "features.csv", "labels.txt")]
        ds = csbm_generate(CsbmParams(n=30, d=3, seed=0))
        save_dataset(ds, *paths)
        spec = {"kind": "files", "edges": paths[0], "features": paths[1],
                "labels": paths[2]}
        make_dataset(spec, 0)

        flipped = 1 - ds.labels
        with open(paths[2], "w", encoding="utf-8") as f:
            f.write("".join(f"{y}\n" for y in flipped))
        assert np.array_equal(make_dataset(spec, 0).labels, flipped)


def write_files_spec(tmp_path, ds):
    paths = [str(tmp_path / f)
             for f in ("edges.txt", "features.csv", "labels.txt")]
    save_dataset(ds, *paths)
    return {"kind": "files", "edges": paths[0], "features": paths[1],
            "labels": paths[2]}


def spy_train_single(monkeypatch):
    """Record (seed, arch, k1, k2, labels, record) of every run the commands
    train."""
    real = experiments.train_single
    runs = []

    def spy(ds, split, arch, k1, k2, cfg):
        record = real(ds, split, arch, k1, k2, cfg)
        runs.append((cfg.seed, arch, k1, k2, ds.labels.copy(), record))
        return record

    monkeypatch.setattr(experiments, "train_single", spy)
    return runs


def record_bytes(record):
    return (record.seed, record.arch, record.k1, record.k2,
            record.best_epoch, record.best_val_acc, record.test_acc,
            record.alpha, record.beta, record.diverged,
            [(e.epoch, e.train_loss, e.val_acc, e.test_acc)
             for e in record.epochs])


class TestOneJobPerSeed:
    @pytest.mark.parametrize("command", [
        lambda c: cmd_sweep_degrees(c, [0, 2], [1, 3]),
        # Four architectures in each seed's job.
        lambda c: cmd_oversmooth(c, [1, 2]),
        # A family switched off in the positive and negative variants.
        lambda c: cmd_ablate_activations(c),
    ], ids=["sweep", "oversmooth", "ablate"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_equal_train_single(self, monkeypatch, command, threads):
        config = tiny_config(threads=threads)
        runs = spy_train_single(monkeypatch)
        command(config)
        monkeypatch.undo()
        assert {seed for seed, *_ in runs} == set(config.seeds)
        for seed, arch, k1, k2, _, record in runs:
            ds = make_dataset(config.dataset, seed)
            cfg = replace(config.train, seed=seed)
            alone = train.train_single(ds, random_split(ds.n, seed=seed),
                                       arch, k1, k2, cfg)
            assert record_bytes(record) == record_bytes(alone)

    def test_aggregates_are_the_records(self, monkeypatch):
        runs = spy_train_single(monkeypatch)
        table = cmd_ablate_activations(tiny_config(k1=2, k2=2))
        for variant, row in table["rows"].items():
            k1, k2 = row["degrees"]
            accs = [r.test_acc for seed, _, a, b, _, r in sorted(
                runs, key=lambda run: run[0]) if (a, b) == (k1, k2)]
            assert len(accs) == 2
            assert row["mean_test_acc"] == mean_ci95(accs)[0]

    def test_each_seed_draws_its_csbm_once(self, monkeypatch):
        calls = []
        real = experiments.csbm_generate

        def counted(params, cores):
            calls.append(params.seed)
            return real(params, cores)

        monkeypatch.setattr(experiments, "csbm_generate", counted)
        cmd_sweep_degrees(tiny_config(), [1, 2], [1, 2])
        assert sorted(calls) == [0, 1]

    @pytest.mark.parametrize("threads, cores", [(1, 2), (2, 1)])
    def test_each_draw_gets_its_workers_core_share(self, monkeypatch,
                                                   threads, cores):
        # On two cores a serial run draws on both and each of two workers
        # on one.
        monkeypatch.setattr(experiments, "usable_cores", lambda: 2)
        calls = []
        real = experiments.csbm_generate

        def spied(params, cores):
            calls.append(cores)
            return real(params, cores)

        monkeypatch.setattr(experiments, "csbm_generate", spied)
        cmd_train(tiny_config(threads=threads))
        assert calls == [cores, cores]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_file_dataset_loaded_once_per_command(self, tmp_path,
                                                  monkeypatch, threads):
        spec = write_files_spec(tmp_path,
                                csbm_generate(CsbmParams(n=40, d=3, seed=0)))
        calls = []
        real = experiments.load_dataset

        def counted(*paths):
            calls.append(paths)
            return real(*paths)

        monkeypatch.setattr(experiments, "load_dataset", counted)
        cmd_train(tiny_config(dataset=spec, threads=threads))
        assert len(calls) == 1

    def test_same_size_rewrite_seen_by_next_command(self, tmp_path,
                                                    monkeypatch):
        ds = csbm_generate(CsbmParams(n=40, d=3, seed=0))
        spec = write_files_spec(tmp_path, ds)
        config = tiny_config(dataset=spec)
        runs = spy_train_single(monkeypatch)
        cmd_train(config)
        flipped = 1 - ds.labels
        size = os.path.getsize(spec["labels"])
        with open(spec["labels"], "w", encoding="utf-8") as f:
            f.write("".join(f"{y}\n" for y in flipped))
        # No mtime change: nothing but the contents tells the runs apart.
        assert os.path.getsize(spec["labels"]) == size
        cmd_train(config)
        labels = [run[4] for run in runs]
        assert len(labels) == 4
        assert all(np.array_equal(y, ds.labels) for y in labels[:2])
        assert all(np.array_equal(y, flipped) for y in labels[2:])


class TestCmdTrain:
    def test_runs_and_summarizes(self):
        result = cmd_train(tiny_config())
        assert len(result["records"]) == 2
        s = result["summary"]
        assert s["schema"] and 0.0 <= s["mean_test_acc"] <= 1.0

    def test_deterministic_across_invocations(self):
        a = cmd_train(tiny_config())["summary"]
        b = cmd_train(tiny_config())["summary"]
        assert a == b

    def test_threaded_matches_serial(self):
        # Only the recorded BLAS count may differ: two workers get a share.
        serial = cmd_train(tiny_config(threads=1))["summary"]
        threaded = cmd_train(tiny_config(threads=3))["summary"]
        del serial["environment"], threaded["environment"]
        assert serial == threaded

    def test_diverged_run_stops_and_is_listed(self, nan_loss):
        nan_loss(seed=1, epoch=2)
        result = cmd_train(tiny_config())
        ok, bad = result["records"]
        assert result["summary"]["diverged_seeds"] == [1]
        assert not ok.diverged and len(ok.epochs) == FAST_TRAIN["epochs"]
        assert bad.diverged and bad.to_json()["diverged"] is True
        assert len(bad.epochs) == 2 and bad.best_epoch in (0, 1)
        assert bad.test_acc == bad.epochs[bad.best_epoch].test_acc

    def test_zero_epochs_chance_level(self):
        cfg = tiny_config(train=TrainConfig(**{**FAST_TRAIN, "epochs": 0}))
        result = cmd_train(cfg)
        for record in result["records"]:
            assert abs(record.test_acc - 0.5) <= 0.25


class TestCmdSweep:
    def test_single_cell_matches_train(self):
        config = tiny_config()
        sweep = cmd_sweep_degrees(config, [1], [1])
        train = cmd_train(config)["summary"]
        assert sweep["cells"][0]["mean_test_acc"] == \
            pytest.approx(train["mean_test_acc"])
        assert sweep["spread"] == 0.0

    def test_range_guard(self):
        with pytest.raises(ConfigError):
            cmd_sweep_degrees(tiny_config(), [0, 7], [0])

    @pytest.mark.parametrize("arch", ["GCN", "JKNet", "BernNet"])
    def test_single_degree_arch_takes_one_k2(self, no_draw, arch):
        # The baselines ignore k2, so a k2 range would train each k1 cell
        # once per k2 value; it fails before any dataset is drawn.
        with pytest.raises(ConfigError, match=f"{arch} has one degree"):
            cmd_sweep_degrees(tiny_config(arch=arch), [1, 2], [0, 3])


class TestCmdOversmooth:
    def test_rows_for_all_architectures(self):
        table = cmd_oversmooth(tiny_config(), [1, 2])
        assert set(table["accuracy"]) == {"GSCNet", "GCN", "JKNet", "BernNet"}
        for vals in table["accuracy"].values():
            assert set(vals) == {"1", "2"}

    def test_depth_guard(self, no_draw):
        # Depths must be >= 1 and strictly increasing, so the last one is
        # the deepest; a bad list fails before any dataset is drawn.
        for depths in ([0, 2], [4, 2], [2, 2]):
            with pytest.raises(ConfigError):
                cmd_oversmooth(tiny_config(), depths)


class TestCmdAblate:
    def test_three_variants(self):
        table = cmd_ablate_activations(tiny_config(k1=2, k2=2))
        assert set(table["rows"]) == {"positive", "negative", "mixed"}
        assert table["rows"]["positive"]["degrees"] == [2, -1]
        assert table["rows"]["negative"]["degrees"] == [-1, 2]


class TestCmdBench:
    def test_reports_window(self):
        report = cmd_bench(tiny_config(), warmup=5)
        assert report["epochs_measured"] == 25
        assert report["per_epoch_ms"] > 0
        assert len(report["series_ms"]) == 30

    def test_empty_window_rejected(self):
        cfg = tiny_config(train=TrainConfig(**{**FAST_TRAIN, "epochs": 1}))
        with pytest.raises(ConfigError):
            cmd_bench(cfg, warmup=1)

    def test_diverged_run_refused(self, nan_loss):
        nan_loss(seed=1, epoch=2)
        with pytest.raises(GscnetError, match="seed 1 diverged .* epoch 2"):
            cmd_bench(tiny_config(seeds=[1]), warmup=1)


class TestMeasureCacheBuild:
    def test_pairs_take_turns_in_each_repeat(self, monkeypatch):
        # It times GSCNet's blocks as training builds them, through model.
        degrees = []
        real = model.build_basis_cache

        def build(g, X, K):
            degrees.append(K)
            return real(g, X, K)
        monkeypatch.setattr(model, "build_basis_cache", build)
        ds = make_dataset(TINY_CSBM, 0)
        times = experiments.measure_cache_build(ds, [(1, 1), (2, 3)],
                                                repeats=3)
        assert degrees == [1, 3] * 3
        assert len(times) == 2 and all(t > 0 for t in times)


class TestCellSummaries:
    # Each command that trains a grid of cells, its cells' diverged seeds
    # and its number of cells.
    @pytest.mark.parametrize("command, diverged, cells", [
        (lambda c: cmd_sweep_degrees(c, [0, 2], [1]),
         lambda t: [cell["diverged_seeds"] for cell in t["cells"]], 2),
        (lambda c: cmd_oversmooth(c, [1, 2]),
         lambda t: [seeds for by_depth in t["diverged_seeds"].values()
                    for seeds in by_depth.values()], 8),
        (cmd_ablate_activations,
         lambda t: [row["diverged_seeds"] for row in t["rows"].values()], 3),
    ], ids=["sweep", "oversmooth", "ablate"])
    def test_every_cell_lists_the_diverged_seed(self, nan_loss, command,
                                                diverged, cells):
        nan_loss(seed=1, epoch=2)
        assert diverged(command(tiny_config(threads=2))) == [[1]] * cells

    def test_cells_are_summaries_of_their_records(self, monkeypatch):
        runs = spy_train_single(monkeypatch)
        table = cmd_sweep_degrees(tiny_config(), [0, 2], [1])
        for cell in table["cells"]:
            records = [r for _, _, k1, k2, _, r in sorted(
                runs, key=lambda run: run[0])
                if (k1, k2) == (cell["k1"], cell["k2"])]
            assert cell == {"k1": cell["k1"], "k2": cell["k2"],
                            **summarize_records(records)}
            assert set(cell["per_seed"]) == {"0", "1"}


class TestFanOut:
    @pytest.mark.parametrize("error", [GscnetError, KeyboardInterrupt])
    def test_failed_seed_cancels_seeds_not_started(self, monkeypatch, error):
        started = []

        def run_one_seed(config, source, seed, cells):
            started.append(seed)
            if seed == 1:
                raise error(f"seed {seed} failed")
            time.sleep(0.5 if seed == 0 else 0.05)
            return [None] * len(cells)

        monkeypatch.setattr(experiments, "_run_one_seed", run_one_seed)
        with pytest.raises(error, match="seed 1 failed"):
            cmd_train(tiny_config(seeds=list(range(8)), threads=2))
        # Seed 1 fails while seed 0 still runs; had the fan-out waited for
        # seed 0, the other worker would have started every seed.
        assert {0, 1} <= set(started) and len(started) < 8


# Heterophily CSBM at n=5000: big enough that OpenBLAS threads the MLP's
# GEMMs (Xd.T @ da1 is 16x5000 by 5000x64), which round differently at
# different thread counts.
BLAS_SIZED = ExperimentConfig(
    dataset={"kind": "csbm", "regime": "heterophily", "n": 5000},
    train=TrainConfig(epochs=3, patience=3), seeds=[0, 1], threads=2)


def fingerprints(result):
    return [(r.seed, r.test_acc, r.alpha, r.beta,
             [e.train_loss for e in r.epochs]) for r in result["records"]]


def needs_openblas():
    blas = experiments._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    return blas


def spy_blas_threads(monkeypatch, get):
    """The OpenBLAS count `get()` read at the start of each seed's job."""
    seen = []
    real = experiments._run_one_seed

    def run_one_seed(*args):
        seen.append(get())
        return real(*args)

    monkeypatch.setattr(experiments, "_run_one_seed", run_one_seed)
    return seen


class TestBlasThreadsPerWorker:
    def test_fan_out_repeats_bit_for_bit(self):
        assert fingerprints(cmd_train(BLAS_SIZED)) == \
            fingerprints(cmd_train(BLAS_SIZED))

    def test_fan_out_equals_serial_at_same_blas_threads(self):
        needs_openblas()
        fanned = cmd_train(BLAS_SIZED)
        with experiments.blas_threads_per_worker(2):
            serial = cmd_train(ExperimentConfig(
                **{**BLAS_SIZED.__dict__, "threads": 1}))
        assert fingerprints(fanned) == fingerprints(serial)
        assert fanned["summary"]["environment"] == \
            serial["summary"]["environment"]

    def test_count_capped_in_workers_and_restored_after_raise(
            self, monkeypatch):
        _, get, _ = needs_openblas()
        before = get()
        seen = []

        # Both jobs start before either fails: a failure cancels the jobs
        # that have not started.
        both_started = threading.Barrier(2, timeout=10)

        def run_one_seed(config, source, seed, cells):
            seen.append(get())
            both_started.wait()
            raise RuntimeError("job failed")

        monkeypatch.setattr(experiments, "_run_one_seed", run_one_seed)
        with pytest.raises(RuntimeError):
            cmd_train(tiny_config(threads=2))
        assert get() == before
        share = min(before, experiments.core_share(2))
        assert seen == [share, share]

    def test_environment_records_the_count_the_seeds_ran_under(
            self, monkeypatch):
        _, get, _ = needs_openblas()
        before = get()
        seen = spy_blas_threads(monkeypatch, get)
        threaded = cmd_train(tiny_config(threads=2))["summary"]
        serial = cmd_train(tiny_config(threads=1))["summary"]
        bench = cmd_bench(tiny_config(threads=2), warmup=5)
        share = min(before, experiments.core_share(2))
        # Two workers get the share each; serial seeds and bench's one seed
        # keep the full count.
        assert seen == [share, share, before, before, before]
        assert threaded["environment"]["blas_threads_per_worker"] == share
        for env in serial["environment"], bench["environment"]:
            assert env["blas_threads_per_worker"] == before
        assert get() == before

    def test_no_op_without_openblas(self, monkeypatch):
        blas = experiments._openblas()
        monkeypatch.setattr(experiments, "_openblas", lambda: None)
        with experiments.blas_threads_per_worker(4):
            pass
        if blas is not None:
            seen = spy_blas_threads(monkeypatch, blas[1])
        threaded = cmd_train(tiny_config(threads=2))["summary"]
        serial = cmd_train(tiny_config())["summary"]
        if blas is not None:
            # Nothing was capped: every seed ran under the full count.
            assert set(seen) == {blas[1]()}
        for env in threaded.pop("environment"), serial.pop("environment"):
            assert env["blas"] is None
            assert env["blas_threads_per_worker"] is None
        assert threaded == serial
