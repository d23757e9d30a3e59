"""The benchmark's workloads, written against gscnet's public API.

A workload turns the benchmark seed into inputs (`prepare`, untimed, and
`setup`, timed) and runs one repetition (`rep`): a fixed number of epochs
with patience equal to the epoch count, so every repetition does the same
work. Each repetition returns the program's `RunRecord`s. Epoch counts are
sized so that one repetition takes 9-13 s on a 2-core x86 VM (the wide
GSCNet 70-100 ms per epoch, the four-seed fan-out 9-13 s), so a 25 s run
is three repetitions.

The program modules are reached through their module objects
(`data.csbm_generate`, not a name imported from it), so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import gscnet
from gscnet import data, experiments, model, train

FILES = ("edges.txt", "features.csv", "labels.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    k1: int
    k2: int
    epochs: int
    # {"kind": "csbm", ...csbm_params_for arguments} or {"kind": "files",
    # ...csbm_params_for arguments of the CSBM written to files first}.
    dataset: dict
    fanout_seeds: int = 0      # > 0: one rep is experiments.cmd_train
    threads: int = 1
    min_acc: float = 0.5       # test_acc floor for seeds without a reference

    def run_seeds(self, seed: int) -> list:
        """Seeds of the training runs in one repetition."""
        if self.fanout_seeds:
            first = self.fanout_seeds * seed
            return list(range(first, first + self.fanout_seeds))
        return [seed]

    def train_config(self, seed: int) -> model.TrainConfig:
        return model.TrainConfig(epochs=self.epochs, patience=self.epochs,
                                 seed=seed)

    def csbm_params(self, seed: int) -> data.CsbmParams:
        opts = {k: v for k, v in self.dataset.items() if k != "kind"}
        return data.csbm_params_for(seed=seed, **opts)

    def prepare(self, seed: int, workdir: str) -> list:
        """Untimed: write the files a files workload loads. Runs in a child
        process so its memory does not count in the benchmark's peak RSS."""
        if self.dataset["kind"] != "files":
            return []
        os.makedirs(workdir, exist_ok=True)
        paths = [os.path.join(workdir, f) for f in FILES]
        params = self.csbm_params(seed).to_json()
        subprocess.run([sys.executable, "-c", _WRITE_FILES, json.dumps(params),
                        *paths], check=True, env=_child_env())
        return paths

    def setup(self, seed: int, paths: list):
        """Timed: the dataset(s) and split(s) the first epoch needs.

        A CSBM is drawn by `experiments.make_dataset`, the call `cmd_train`
        makes for each seed. The fan-out's repetition draws its CSBMs again
        inside its workers, so a change to that path moves `train_s` there
        as well as `setup_s`."""
        out = []
        for s in self.run_seeds(seed):
            if paths:
                ds = data.load_dataset(*paths)
            else:
                ds = experiments.make_dataset(self.dataset, s)
            out.append((ds, data.random_split(ds.n, seed=s)))
        return out

    def rep(self, seed: int, inputs) -> list:
        """One repetition; returns its RunRecords in run-seed order."""
        if self.fanout_seeds:
            config = experiments.ExperimentConfig(
                dataset=dict(self.dataset), arch=self.arch, k1=self.k1,
                k2=self.k2, train=self.train_config(0),
                seeds=self.run_seeds(seed),
                threads=self.threads)
            return experiments.cmd_train(config)["records"]
        (ds, split), = inputs
        return [train.train_single(ds, split, self.arch, self.k1, self.k2,
                                   self.train_config(seed))]


_WRITE_FILES = """
import json, sys
from gscnet import data
ds = data.csbm_generate(data.CsbmParams(**json.loads(sys.argv[1])))
data.save_dataset(ds, *sys.argv[2:5])
"""


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(gscnet.__file__)))
    return {**os.environ, "PYTHONPATH": src}


WORKLOADS = {w.name: w for w in (
    Workload("gsc-wide-files", "GSCNet", 3, 3, epochs=110,
             dataset={"kind": "files", "regime": "homophily", "n": 2708,
                      "d": 1433, "expected_degree": 3.9},
             min_acc=0.7),
    Workload("gsc-fanout", "GSCNet", 2, 2, epochs=75,
             dataset={"kind": "csbm", "regime": "heterophily", "n": 5000},
             fanout_seeds=4, threads=2, min_acc=0.8),
)}
