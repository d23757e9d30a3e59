"""The benchmark's entry points into the program.

`perfbench/spans.py` swaps each traced function for a wrapper it finds with
a bare getattr, and `perfbench/workloads.py` calls the program through its
module objects, so renaming one of those names breaks every benchmark run.
These tests only read `perfbench/`.
"""

import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)


def test_traced_functions_resolve(perfbench_path):
    from perfbench.spans import TRACED
    missing = [(home, attr) for _, home, attr in TRACED
               if not callable(getattr(importlib.import_module(home), attr,
                                       None))]
    assert missing == []


def test_workloads_import_and_reach_the_program(perfbench_path):
    from perfbench import workloads
    assert workloads.WORKLOADS
    with open(workloads.__file__, encoding="utf-8") as f:
        used = set(re.findall(r"\b(data|experiments|model|train)\.(\w+)",
                              f.read()))
    assert used
    missing = [(mod, name) for mod, name in sorted(used)
               if not hasattr(getattr(workloads, mod), name)]
    assert missing == []
    for w in workloads.WORKLOADS.values():
        assert w.train_config(3).seed == 3
