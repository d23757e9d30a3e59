"""The comparator of `tools/bytes_gate.py`: what it flags between two
directories of artifacts, and what it leaves out."""

import json

import numpy as np
import pytest

from gscnet.experiments import WALL_TIME_FIELDS

RECORD = {"schema": "gscnet-experiments/1", "seed": 0, "epoch": 3,
          "train_loss": 0.6931471805599453, "val_acc": 0.5, "ms": 1.25}


def write_sides(tmp_path, left: dict, right: dict):
    """Directories a and b, each holding the files it is given by name."""
    sides = []
    for name, files in (("a", left), ("b", right)):
        side = tmp_path / name
        side.mkdir()
        for path, text in files.items():
            (side / path).write_text(text)
        sides.append(side)
    return sides


def jsonl(*records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def test_one_ulp_is_flagged(tmp_path, bytes_gate):
    moved = {**RECORD, "train_loss": float(np.nextafter(
        RECORD["train_loss"], 1.0))}
    a, b = write_sides(tmp_path, {"run_0.jsonl": jsonl(RECORD, RECORD)},
                       {"run_0.jsonl": jsonl(RECORD, moved)})
    assert bytes_gate.differing_files(a, b) == [("run_0.jsonl", "differs")]


@pytest.mark.parametrize("field", WALL_TIME_FIELDS)
def test_wall_time_fields_are_left_out(tmp_path, bytes_gate, field):
    # At the top level and nested in a list of records alike.
    a, b = write_sides(
        tmp_path,
        {"x.json": json.dumps({field: 1.0, "runs": [{field: [1.0]}]})},
        {"x.json": json.dumps({field: 2.0, "runs": [{field: [3.0, 4.0]}]})})
    assert bytes_gate.differing_files(a, b) == []


def test_one_sided_and_non_strict_files_are_flagged(tmp_path, bytes_gate):
    a, b = write_sides(tmp_path,
                       {"sweep.csv": "k1,k2\n", "x.json": '{"ci95": NaN}'},
                       {"x.json": '{"ci95": NaN}'})
    assert bytes_gate.differing_files(a, b) == [
        ("sweep.csv", f"only in {a}"), ("x.json", "NaN is not strict JSON")]
