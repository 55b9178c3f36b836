"""Command-line entry point for dataset generation and the experiment suite.

Subcommands:
    gen-data   synthesize the benchmark days and write their CSVs
    run-rq1    full combination sweep -> raw MSE CSV + ranking table
    run-rq2    feature-set comparison for one combination
    run-rq3    comparison against the regression-tree baseline
    rank       recompute the ranking table from an existing raw-results CSV
    report     regenerate all summary documents from stored results

Exit codes: 0 success, 2 configuration error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import elevator, harness
from .errors import ConfigurationError


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    return config


def _out_dir(config) -> str:   # called once the config and datasets load
    os.makedirs(config.output_dir, exist_ok=True)
    return config.output_dir


def _stored_results(out_dir):
    path = os.path.join(out_dir, harness.RESULTS_CSV)
    return harness.read_results_csv(path) if os.path.exists(path) else None


def _write_report(out, stem, payload: dict, text: str) -> list[str]:
    """Write `stem`.json and `stem`.txt into `out`; returns the two file names."""
    names = [f"{stem}.json", f"{stem}.txt"]
    with open(os.path.join(out, names[0]), "w") as fh:
        json.dump(payload, fh, indent=2)
    with open(os.path.join(out, names[1]), "w") as fh:
        fh.write(text + "\n")
    return names


def _rq1_report(out, ranking) -> tuple[list[str], str]:
    text = ranking.to_text()
    return _write_report(out, "rq1_ranking", ranking.to_dict(), text), text


def _rq2_report(out, config, combination, datasets, results) -> tuple[list[str], str]:
    reports = harness.run_rq2_comparison(config, combination, datasets, results=results)
    payload = {"combination": combination,
               "datasets": {day: report.to_dict() for day, report in reports.items()}}
    text = "\n\n".join(f"== {day} ==\n{report.to_text()}"
                       for day, report in reports.items())
    return _write_report(out, "rq2_report", payload, text), text


def _rq3_report(out, config, combination, datasets, results,
                baselines) -> tuple[list[str], str]:
    report = harness.run_rq3_baseline(config, combination, datasets, results=results,
                                      baselines=baselines)
    text = report.to_text()
    return _write_report(out, "rq3_report", report.to_dict(), text), text


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    if not isinstance(config.datasets, dict):
        raise ConfigurationError(
            "field 'datasets': gen-data needs a {'generate': ...} spec")
    days = harness.generate_days(config.datasets["generate"])
    out = _out_dir(config)
    files = []
    for day in days:
        name = f"{day.label}.csv"
        elevator.write_dataset_csv(os.path.join(out, name), day)
        files.append(name)
    harness.write_manifest(out, "gen-data", config, files)
    print(f"wrote {len(files)} dataset CSVs to {out}")
    return 0


def cmd_run_rq1(args) -> int:
    config = _load_config(args)
    datasets = harness.load_datasets(config)
    out = _out_dir(config)
    ranking, results = harness.run_rq1_sweep(config, datasets)
    harness.write_results_csv(os.path.join(out, harness.RESULTS_CSV), results)
    files, text = _rq1_report(out, ranking)
    harness.write_manifest(out, "run-rq1", config, [harness.RESULTS_CSV] + files)
    print(text)
    return 0


def cmd_run_rq2(args) -> int:
    config = _load_config(args)
    datasets = harness.load_datasets(config)
    out = _out_dir(config)
    files, text = _rq2_report(out, config, args.combination, datasets, _stored_results(out))
    harness.write_manifest(out, "run-rq2", config, files)
    print(text)
    return 0


def cmd_run_rq3(args) -> int:
    config = _load_config(args)
    datasets = harness.load_datasets(config)
    out = _out_dir(config)
    baselines = harness.baseline_tree_mse(datasets)
    files, text = _rq3_report(out, config, args.combination, datasets,
                              _stored_results(out), baselines)
    harness.write_baselines_csv(os.path.join(out, harness.BASELINES_CSV), baselines)
    harness.write_manifest(out, "run-rq3", config, [harness.BASELINES_CSV] + files)
    print(text)
    return 0


def cmd_rank(args) -> int:
    config = _load_config(args)
    path = args.results or os.path.join(config.output_dir, harness.RESULTS_CSV)
    if not os.path.exists(path):
        raise ConfigurationError(f"option '--results': no results CSV at {path}; "
                                 "run run-rq1 first or pass --results")
    out = _out_dir(config)
    _, text = _rq1_report(out, harness.build_ranking(harness.read_results_csv(path)))
    print(text)
    return 0


def cmd_report(args) -> int:
    config = _load_config(args)
    out = config.output_dir   # it holds results_raw.csv, so it exists
    results = _stored_results(out)
    if results is None:
        raise ConfigurationError(f"no {harness.RESULTS_CSV} in {out}; run run-rq1 first")
    written, _ = _rq1_report(out, harness.build_ranking(results))
    datasets = harness.load_datasets(config)
    covered = {r.combination for r in results}
    if args.combination in covered and len(config.feature_sets) >= 2:
        written += _rq2_report(out, config, args.combination, datasets, results)[0]
        baseline_path = os.path.join(out, harness.BASELINES_CSV)
        if os.path.exists(baseline_path):
            written += _rq3_report(out, config, args.combination, datasets, results,
                                   harness.read_baselines_csv(baseline_path))[0]
    harness.write_manifest(out, "report", config, written)
    print(f"regenerated: {', '.join(written)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelm-harness",
        description="Waiting-time prediction experiments with a quantum "
                    "extreme learning machine on synthetic elevator traffic.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gen-data", cmd_gen_data, "generate benchmark day CSVs"),
        ("run-rq1", cmd_run_rq1, "sweep all combinations and rank by AMSE"),
        ("run-rq2", cmd_run_rq2, "compare feature sets for one combination"),
        ("run-rq3", cmd_run_rq3, "compare against the regression-tree baseline"),
        ("rank", cmd_rank, "recompute the ranking from a raw-results CSV"),
        ("report", cmd_report, "regenerate summary documents from stored results"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="override master_seed")
        if name in ("run-rq2", "run-rq3", "report"):
            p.add_argument("--combination", default="DHE_ISING",
                           choices=harness.ALL_COMBINATIONS,
                           help="encoder_reservoir pair (default DHE_ISING)")
        if name == "rank":
            p.add_argument("--results", help="path to a raw-results CSV")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
