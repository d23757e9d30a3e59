"""The bytes gate: does the working tree write the same artifacts as a
revision, for every committed config?

    PYTHONPATH=src python tools/bytes_gate.py REV

Runs each `configs/<command>-<variant>.json` as `gscnet <command>` at
`--threads 1` and `--threads 2`, once in an export of REV and once in the
working tree, each tree on its own configs and `src/`. Then it compares
every file the two sides wrote. A file is reported when it exists on one
side only, when either side is not strict JSON (JSONL for `*.jsonl`: one
object a line, no NaN or Infinity), or when the two differ once every key
in `gscnet.experiments.WALL_TIME_FIELDS` is dropped, at any depth.

Exit status: 0 when nothing is reported, 1 listing each reported file,
2 when REV cannot be exported or a command fails. REV is exported with
`git archive` into a temporary directory, so the gate writes nothing into
the repository. The seven committed configs take about 7 min a side
on a 2-core machine.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

from gscnet.experiments import WALL_TIME_FIELDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = (1, 2)


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def load_strict(path):
    """A JSON file's value, or a JSONL file's list of line values, refusing
    the NaN and Infinity that strict JSON has not."""
    with open(path, encoding="utf-8") as f:
        if path.endswith(".jsonl"):
            return [json.loads(line, parse_constant=_refuse) for line in f]
        return json.load(f, parse_constant=_refuse)


def without_wall_times(value):
    """`value` with every WALL_TIME_FIELDS key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: without_wall_times(v) for k, v in value.items()
                if k not in WALL_TIME_FIELDS}
    if isinstance(value, list):
        return [without_wall_times(v) for v in value]
    return value


def _files(top) -> set:
    return {os.path.relpath(os.path.join(d, name), top)
            for d, _, names in os.walk(top) for name in names}


def differing_files(a, b) -> list:
    """(path, reason) for each file under directory `a` or `b`, by its path
    relative to them, that exists on one side only, is not strict JSON or
    JSONL, or differs from its other side apart from WALL_TIME_FIELDS."""
    in_a, in_b = _files(a), _files(b)
    found = []
    for path in sorted(in_a | in_b):
        if path not in in_b:
            found.append((path, f"only in {a}"))
        elif path not in in_a:
            found.append((path, f"only in {b}"))
        else:
            try:
                left, right = (without_wall_times(load_strict(
                    os.path.join(top, path))) for top in (a, b))
            except ValueError as exc:
                found.append((path, str(exc)))
                continue
            if left != right:
                found.append((path, "differs"))
    return found


def run_configs(tree, out):
    """Run every committed config of `tree` on `tree`'s own package, at each
    of THREADS, into out/<config>-t<threads>/."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    for config in sorted(glob.glob(os.path.join(tree, "configs", "*.json"))):
        name = os.path.splitext(os.path.basename(config))[0]
        for threads in THREADS:
            print(f"bytes gate: {tree}: {name} --threads {threads}",
                  file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, "-m", "gscnet", name.split("-")[0],
                 "--config", config, "--threads", str(threads),
                 "--out-dir", os.path.join(out, f"{name}-t{threads}")],
                cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytes-gate-") as tmp:
        tree, tar = os.path.join(tmp, "rev"), os.path.join(tmp, "rev.tar")
        outs = {args.rev: os.path.join(tmp, "out-rev"),
                "working tree": os.path.join(tmp, "out-work")}
        try:
            subprocess.run(["git", "-C", ROOT, "archive", "-o", tar,
                            args.rev], check=True)
            os.mkdir(tree)
            subprocess.run(["tar", "-x", "-f", tar, "-C", tree], check=True)
            run_configs(tree, outs[args.rev])
            run_configs(ROOT, outs["working tree"])
        except subprocess.CalledProcessError as exc:
            print(f"bytes gate: {exc}", file=sys.stderr)
            return 2
        found = differing_files(*outs.values())
    sides = {f"only in {out}": f"only in {side}"
             for side, out in outs.items()}
    for path, reason in found:
        print(f"{path}: {sides.get(reason, reason)}")
    if not found:
        print(f"bytes gate: every artifact equals {args.rev}'s apart from "
              f"{', '.join(WALL_TIME_FIELDS)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
