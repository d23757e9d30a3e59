"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 --trace-seeds 0-2 \\
        --out perfbench/trajectory/<point>.json

Each run is a fresh `perfbench/run.py` process, one per workload in
BENCHMARK.json, for its `run_seconds`. For every workload and end-to-end
metric this prints the median over seeds and the spread (the distance
between the first and third quartile, as a share of the median), next to
the metric's bound from BENCHMARK.json. Each trace seed is run twice more,
traced and untraced back to back, in alternating order; those pairs give
the per-layer medians and the tracing overhead (the median over pairs of
traced minus untraced `train_s`, as a share of the untraced). `--out`
writes all of it, with the first run's environment block, as one point of
the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if not text:
        return []
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details)["perfbench"], json.loads(result)


def summarise(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds, trace_seeds = parse_seeds(args.seeds), parse_seeds(args.trace_seeds)

    values = {w: {} for w in workloads}
    layer_values = {w: {} for w in workloads}
    overhead = {w: [] for w in workloads}
    accuracy = {w: {} for w in workloads}
    env = None
    failures = []

    def measure(w, seed, trace):
        nonlocal env
        details, result = run_once(w, seed, seconds, trace)
        env = env or details["env"]
        accuracy[w][str(seed)] = details["test_acc"]
        failures.extend({"workload": w, "seed": seed, "trace": trace, **f}
                        for f in details["failures"])
        print(f"{w} seed={seed} trace={trace} reps={details['reps']} "
              f"samples={details['epoch_samples_per_rep']} "
              f"correct={result['correct']}", file=sys.stderr)
        return {k: m["value"] for k, m in result["metrics"].items()}

    # Seeds outermost, so slow phases of the machine spread over workloads.
    for seed in seeds:
        for w in workloads:
            for name, v in measure(w, seed, 0).items():
                values[w].setdefault(name, []).append(v)
    for i, seed in enumerate(trace_seeds):
        for w in workloads:
            pair = {}
            for trace in ((1, 0) if i % 2 else (0, 1)):
                pair[trace] = measure(w, seed, trace)
            for name, v in pair[1].items():
                layer_values[w].setdefault(name, []).append(v)
            untraced = pair[0]["train_s"]
            overhead[w].append(
                (pair[1]["trace.train_s"] - untraced) / untraced)

    point = {"schema": "perfbench-point/2", "label": args.label,
             "seconds": seconds, "seeds": seeds, "trace_seeds": trace_seeds,
             "env": env, "failures": failures, "workloads": {}}
    for w in workloads:
        e2e = {k: summarise(v) for k, v in values[w].items()}
        layers = {k: summarise(v) for k, v in layer_values[w].items()}
        entry = {"end_to_end": e2e, "per_layer": layers,
                 "test_acc": accuracy[w]}
        if overhead[w]:
            shares = overhead[w]
            entry["tracing_overhead"] = {
                "share_per_pair": shares,
                "median": statistics.median(shares),
                "min": min(shares), "max": max(shares),
                # Resolved only if every pair agrees on the sign.
                "resolved": min(shares) > 0 or max(shares) < 0}
        point["workloads"][w] = entry
        for name, s in e2e.items():
            bound = bounds.get(name)
            spread = s.get("spread")
            flag = ("" if bound is None or spread is None
                    else "ok" if spread < bound / 3
                    else "within bound" if spread <= bound else "TOO WIDE")
            print(f"{w:16s} {name:14s} median={s['median']:.6g} "
                  f"spread={spread if spread is None else round(spread, 4)} "
                  f"bound={bound} {flag}")
        for name, s in layers.items():
            print(f"{w:16s} {name:30s} median={s['median']:.6g}")
        if overhead[w]:
            o = entry["tracing_overhead"]
            print(f"{w:16s} tracing overhead median={o['median']:+.4f} "
                  f"min={o['min']:+.4f} max={o['max']:+.4f} "
                  f"{'resolved' if o['resolved'] else 'UNRESOLVED'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
