"""Experiment CLI.

Subcommands: train, sweep, oversmooth, ablate, bench, csbm-gen, analyze,
verify. Each result is written once, as strict JSON or JSONL with a
schema field; re-running a command overwrites it with identical bytes
apart from `experiments.WALL_TIME_FIELDS`. Each training command warns on
stderr about every cell that diverged.

Exit codes: 0 success, 2 config error (or an output directory that cannot
be written), 3 data error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments, pnca, suite
from .data import csbm_generate, save_dataset
from .errors import ConfigError, DataError, GscnetError, InputError
from .experiments import ExperimentConfig, SCHEMA_VERSION


def _parse_ints(text: str, what: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, "
                          f"got {text!r}") from exc


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides merged in, validated
    once. The output directory is checked here too, before any work: its
    nearest existing ancestor (or itself) must be a directory."""
    nearest = os.path.abspath(args.out_dir)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise ConfigError(f"--out-dir {args.out_dir!r}: {nearest!r} is not a "
                          "directory")
    obj = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                obj = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
    if getattr(args, "threads", None) is not None:
        obj = {**obj, "threads": args.threads}
    return ExperimentConfig.from_json(obj)


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _warn_diverged(cell: str, seeds: list):
    if seeds:
        print(f"warning: {cell}: training diverged (non-finite loss or "
              f"logits) on seed(s) {seeds}", file=sys.stderr)


def _cmd_train(args) -> int:
    config = _load_config(args)
    result = experiments.cmd_train(config)
    out = _out_dir(args)
    for record in result["records"]:
        experiments.write_records_jsonl(
            os.path.join(out, f"run_{record.seed}.jsonl"), record)
    s = result["summary"]
    experiments.write_json(os.path.join(out, "summary.json"), s)
    cell = f"{config.arch} (k1={config.k1}, k2={config.k2})"
    print(f"{cell}: test acc {s['mean_test_acc']:.4f} +/- "
          f"{experiments.format_ci(s['ci95'])} over {len(config.seeds)} "
          "seed(s)")
    _warn_diverged(cell, s["diverged_seeds"])
    return 0


def _parse_range(text: str) -> list:
    if ":" not in text:
        return _parse_ints(text, "a degree range")
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"a degree range must be lo:hi or a comma list, "
                          f"got {text!r}") from exc
    return list(range(lo, hi + 1))


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    k1s, k2s = _parse_range(args.k1_range), _parse_range(args.k2_range)
    table = experiments.cmd_sweep_degrees(config, k1s, k2s)
    experiments.write_json(os.path.join(_out_dir(args), "sweep.json"), table)
    print(f"sweep spread (max-min mean acc): {table['spread']:.4f}")
    for c in table["cells"]:
        _warn_diverged(f"{config.arch} (k1={c['k1']}, k2={c['k2']})",
                       c["diverged_seeds"])
    return 0


def _cmd_oversmooth(args) -> int:
    config = _load_config(args)
    depths = _parse_ints(args.depths, "--depths")
    table = experiments.cmd_oversmooth(config, depths)
    experiments.write_json(os.path.join(_out_dir(args), "oversmooth.json"),
                           table)
    for arch, drop in table["drop_to_deepest"].items():
        print(f"{arch}: drop to depth {depths[-1]} = {drop:.4f}")
    for arch, by_depth in table["diverged_seeds"].items():
        for depth, seeds in by_depth.items():
            _warn_diverged(f"{arch} at depth {depth}", seeds)
    return 0


def _cmd_ablate(args) -> int:
    config = _load_config(args)
    table = experiments.cmd_ablate_activations(config)
    experiments.write_json(os.path.join(_out_dir(args), "ablate.json"), table)
    for variant, row in table["rows"].items():
        print(f"{variant}: {row['mean_test_acc']:.4f} +/- "
              f"{experiments.format_ci(row['ci95'])}")
        k1, k2 = row["degrees"]
        _warn_diverged(f"{variant} (k1={k1}, k2={k2})", row["diverged_seeds"])
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args)
    report = experiments.cmd_bench(config, warmup=args.warmup)
    experiments.write_json(os.path.join(_out_dir(args), "bench.json"), report)
    print(f"{config.arch}: {report['per_epoch_ms']:.2f} ms/epoch, "
          f"{report['total_s']:.2f} s total")
    return 0


def _cmd_csbm_gen(args) -> int:
    config = _load_config(args)
    params = experiments.csbm_params(config.dataset, config.seeds[0])
    ds = csbm_generate(params)
    out = _out_dir(args)
    save_dataset(ds, os.path.join(out, "edges.txt"),
                 os.path.join(out, "features.csv"),
                 os.path.join(out, "labels.txt"))
    sidecar = {"schema": SCHEMA_VERSION, "params": params.to_json(),
               "realized": pnca.dataset_stats(ds)}
    experiments.write_json(os.path.join(out, "csbm.json"), sidecar)
    smoothness = sidecar["realized"]["label_smoothness"]
    print(f"wrote {out}/: n={ds.n}, |E|={ds.graph.num_edges}, "
          "label_smoothness="
          + ("undefined (no edges)" if smoothness is None
             else f"{smoothness:.4f}"))
    return 0


def _cmd_analyze(args) -> int:
    config = _load_config(args)
    seed = config.seeds[0]
    ds = experiments.make_dataset(config.dataset, seed)
    report = {"schema": SCHEMA_VERSION, "command": "analyze",
              "dataset": config.dataset, "seed": seed,
              **pnca.dataset_stats(ds)}
    g = ds.graph
    deg = g.degrees
    report["degree"] = {"min": float(deg.min()) if g.n else 0.0,
                        "mean": float(deg.mean()) if g.n else 0.0,
                        "max": float(deg.max()) if g.n else 0.0}
    report["activation"] = {}
    for kind in ("shifted", "laplacian"):
        verdict = pnca.classify_graph_activation(pnca.transform(g, kind), g)
        report["activation"][kind] = {"label": verdict.label,
                                      "witness": verdict.witness}
    experiments.write_json(os.path.join(_out_dir(args), "analyze.json"),
                           report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    # A bad --seed is found before the suite runs, not after it.
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = suite.run_suite(seed=args.seed, quick=args.quick)
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    return 0 if report["passed"] else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gscnet",
        description="Sparse spectral graph-filter experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, threads=True):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out-dir", default="runs",
                       help="output directory (default: runs)")
        if threads:
            p.add_argument("--threads", type=int, help="worker threads")

    p = sub.add_parser("train", help="train one model over the seed list")
    add_common(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("sweep", help="degree-grid accuracy sweep")
    add_common(p)
    p.add_argument("--k1-range", default="0:6", help="lo:hi or comma list")
    p.add_argument("--k2-range", default="0:6")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("oversmooth", help="accuracy vs propagation depth")
    add_common(p)
    p.add_argument("--depths", default="2,4,8,16")
    p.set_defaults(fn=_cmd_oversmooth)

    p = sub.add_parser("ablate", help="positive/negative/mixed basis ablation")
    add_common(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("bench", help="per-epoch timing")
    add_common(p)
    p.add_argument("--warmup", type=int, default=5)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("csbm-gen", help="write the config's CSBM dataset "
                       "to files")
    add_common(p, threads=False)
    p.set_defaults(fn=_cmd_csbm_gen)

    p = sub.add_parser("analyze", help="graph/label diagnostics of the "
                       "config's dataset as JSON")
    add_common(p, threads=False)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="run the dense-oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GscnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
