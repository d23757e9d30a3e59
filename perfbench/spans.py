"""In-memory spans around gscnet's public layer functions.

The tracer never edits the program: `Tracer.install` replaces each traced
function in every loaded ``gscnet`` module that holds it (its import sites),
and puts the originals back on exit. Each span records its name, start, end,
parent span, thread and the benchmark phase it ran in. The parent stack is
thread-local, so spans from two worker threads never nest into each other.

Self time of a span is its duration minus the durations of its child spans.
Children of one span run on its own thread, one after another, so their
durations never overlap and can simply be summed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

import numpy as np

# (span name, module that defines the function, function name). The layer
# of a span is the part of its name before the first dot.
TRACED = (
    ("graph.apply", "gscnet.graph", "adjacency_apply"),
    ("graph.apply", "gscnet.graph", "laplacian_apply"),
    ("graph.apply", "gscnet.graph", "shifted_apply"),
    ("graph.apply", "gscnet.graph", "gcn_norm_apply"),
    ("basis.build", "gscnet.basis", "build_basis_cache"),
    ("basis.combine", "gscnet.basis", "gsc_combine"),
    ("model.forward", "gscnet.model", "forward"),
    ("model.loss_and_grad", "gscnet.model", "loss_and_grad"),
    ("model.adam", "gscnet.model", "adam_step"),
    ("train.run", "gscnet.train", "train_single"),
    ("train.evaluate", "gscnet.train", "evaluate"),
    ("data.generate", "gscnet.data", "csbm_generate"),
    ("data.load", "gscnet.data", "load_dataset"),
    ("data.split", "gscnet.data", "random_split"),
    ("experiments.fan_out", "gscnet.experiments", "_fan_out"),
    ("experiments.run_one_seed", "gscnet.experiments", "_run_one_seed"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "phase", "work")

    def __init__(self, name, start, parent, thread, phase, work=0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.phase = phase
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nnz_times_width(g, X) -> int:
    """Work of one sparse apply: stored nonzeros times feature columns."""
    shape = np.shape(X)
    return g.nnz * (shape[1] if len(shape) > 1 else 1)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # Set by the benchmark's main thread ("setup" or "rep"); worker
        # threads only run inside a phase, so they read it unchanged.
        self.phase = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, work=0):
        stack = self._stack()
        s = Span(name, self.clock(), stack[-1] if stack else None,
                 threading.get_ident(), self.phase, work)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()
            # The only state threads share; list.append is atomic.
            self.spans.append(s)

    def wrap(self, name, fn):
        if name == "graph.apply":
            @functools.wraps(fn)
            def traced(g, X, *args, **kwargs):
                with self.span(name, _nnz_times_width(g, X)):
                    return fn(g, X, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap each TRACED function for a wrapper at every import site."""
        swapped = []
        try:
            for name, home, attr in TRACED:
                original = getattr(sys.modules[home], attr)
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "gscnet"
                                           or mod_name.startswith("gscnet.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(swapped):
                setattr(mod, key, original)


def self_times(spans) -> dict:
    """Map id(span) -> duration minus the durations of its direct children."""
    out = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in out:
            out[id(s.parent)] -= s.duration
    return out


def layer_metrics(spans, reps: int, setups: int, workers: int) -> dict:
    """Per-layer metrics: times and counts per repetition of the workload's
    training step, data times per set-up."""
    selfs = self_times(spans)
    rep = [s for s in spans if s.phase == "rep"]
    setup = [s for s in spans if s.phase == "setup"]

    def named(group, name):
        return [s for s in group if s.name == name]

    def self_s(name):
        return sum(selfs[id(s)] for s in named(rep, name)) / reps

    def total_s(group, name, per):
        return sum(s.duration for s in named(group, name)) / per

    applies = named(rep, "graph.apply")
    apply_s = self_s("graph.apply")
    nnz_d = sum(s.work for s in applies) / reps

    fan_outs = named(rep, "experiments.fan_out")
    if fan_outs:
        runs, walls = named(rep, "experiments.run_one_seed"), fan_outs
    else:
        runs, walls = named(rep, "train.run"), named(rep, "bench.rep")
        workers = 1
    wall = sum(s.duration for s in walls)

    return {
        "graph.apply_calls": len(applies) / reps,
        "graph.apply_s": apply_s,
        "graph.nnz_d": nnz_d,
        "graph.ns_per_nnz_d": apply_s * 1e9 / nnz_d if nnz_d else 0.0,
        "basis.build_calls": len(named(rep, "basis.build")) / reps,
        "basis.build_self_s": self_s("basis.build"),
        "basis.combine_s": self_s("basis.combine"),
        "model.forward_self_s": self_s("model.forward"),
        "model.backward_self_s": self_s("model.loss_and_grad"),
        "model.adam_s": self_s("model.adam"),
        "train.eval_s": total_s(rep, "train.evaluate", reps),
        "train.epochs": len(named(rep, "model.loss_and_grad")) / reps,
        "data.generate_s": total_s(setup, "data.generate", setups),
        "data.load_s": total_s(setup, "data.load", setups),
        "data.split_s": total_s(setup, "data.split", setups),
        "experiments.fanout_efficiency":
            sum(s.duration for s in runs) / (workers * wall) if wall else 0.0,
    }
