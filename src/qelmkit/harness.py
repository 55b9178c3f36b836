"""Experiment orchestration: leave-one-day-out cross-validation with seeded
repetitions, the encoder/reservoir ranking sweep, feature-set comparisons,
the regression-tree baseline comparison, and result-file emission.

Every run is a pure function of (config, master_seed): per-cell seeds are
derived with a stable hash over (master_seed, fold, combination, feature
set, repetition), so any cell can be reproduced in isolation and two full
runs emit byte-identical result payloads.

Because each cell is a pure function of its seeds, a fold's cells run in
the order of their encoder's axis assignment, and each run of equal
assignments shares one `qelm.encode_batch` of the fold's angles: all-X
(every DHE cell, and any RHE cell that drew it) is one batch per fold, the
other RHE draws at most 3^(M * depth) - 1 more. A batch is shared only
while `qelm.run_circuit_batch` runs it as one block, that is while it holds
at most `qelm.BLOCK_AMPLITUDES` amplitudes (rows * 2^M): an FS2-FS5 fold of
about 1,064 rows holds at most 34k. Larger ones, such as a 10-qubit fold of
about 1.09M, are encoded per cell so they never sit on top of a reservoir
build's memory peak. Results are still reported in (feature set, fold,
combination, repetition) order.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import combinations as iter_pairs

import numpy as np

from . import elevator, qelm, stats
from .elevator import BuildingConfig, Dataset, TrafficProfile
from .errors import ConfigurationError, DegenerateInputError, ValidationError, check_number
from .stats import ComparisonReport, PairwiseResult, RunResults

ALL_COMBINATIONS = tuple(f"{e}_{r}" for e in qelm.ENCODER_KINDS for r in qelm.RESERVOIR_KINDS)

RESULTS_CSV = "results_raw.csv"
BASELINES_CSV = "baselines.csv"


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of hashable labels."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    datasets: list | dict
    feature_sets: list[str]
    combinations: list[str]
    repetitions: int = 30
    fs10_repetitions: int | None = None   # optional cheaper 10-qubit cells
    encoder_depth: int = 1
    reservoir_depth: int = 10
    ridge_lambda: float = 0.0
    master_seed: int = 0
    output_dir: str = "results"
    config_dir: str = "."                 # anchor for relative dataset paths

    def __post_init__(self):
        for name, known in (("feature_sets", tuple(elevator.FEATURE_SETS)),
                            ("combinations", ALL_COMBINATIONS)):
            entries = getattr(self, name)
            if not entries:
                raise ConfigurationError(f"field '{name}' must list at least one entry")
            for i, entry in enumerate(entries):
                if entry not in known:
                    raise ConfigurationError(f"field '{name}' has unknown entry {entry!r} "
                                             f"(expected one of {', '.join(known)})")
                if entry in entries[:i]:
                    raise ConfigurationError(f"field '{name}' lists {entry!r} twice")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigurationError(
                f"field 'output_dir' must be a path string, got {self.output_dir!r}")
        if isinstance(self.datasets, list):
            if not self.datasets or not all(isinstance(p, (str, os.PathLike))
                                            for p in self.datasets):
                raise ConfigurationError("field 'datasets' must list CSV path strings, "
                                         f"got {self.datasets!r}")
        elif not (isinstance(self.datasets, dict) and "generate" in self.datasets):
            raise ConfigurationError(
                "field 'datasets' must be a list of CSV paths or a {'generate': ...} spec")
        elif len(self.datasets) > 1:
            raise ConfigurationError("unknown field(s) " + ", ".join(
                f"'datasets.{k}'" for k in sorted(self.datasets) if k != "generate"))
        for name in ("repetitions", "fs10_repetitions", "encoder_depth",
                     "reservoir_depth", "master_seed"):
            value = getattr(self, name)
            if value is None and name == "fs10_repetitions":
                continue
            if check_number(name, value, integer=True) < 1 and name != "master_seed":
                raise ConfigurationError(f"field '{name}' must be >= 1")
        if check_number("ridge_lambda", self.ridge_lambda) < 0:
            raise ConfigurationError("field 'ridge_lambda' must be >= 0")

    def repetitions_for(self, feature_set: str) -> int:
        if feature_set == "FS10" and self.fs10_repetitions is not None:
            return self.fs10_repetitions
        return self.repetitions

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(doc) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        for required in ("datasets", "feature_sets", "combinations"):
            if required not in doc:
                raise ConfigurationError(f"missing config field '{required}'")
        return cls(config_dir=os.path.dirname(os.path.abspath(path)), **doc)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_FIELDS}


# the fields a config file may set, in declaration order
_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "config_dir")


# ---------------------------------------------------------------------------
# dataset loading / generation
# ---------------------------------------------------------------------------

_GENERATE_KEYS = ("num_days", "seed", "building", "profile", "rate_jitter", "awt")


def generate_days(spec: dict) -> list[Dataset]:
    """Synthesize one dataset per day from the traffic simulator.

    Spec keys (any other is a ConfigurationError): num_days (integer >= 1,
    default 4), seed (integer), building (BuildingConfig overrides), profile
    ('office' or a segments dict), rate_jitter (number in [0, 1]), awt
    ('simulated' or 'nonlinear').
    """
    if not isinstance(spec, dict):
        raise ConfigurationError("field 'datasets.generate' must be an object")
    unknown = sorted(set(spec) - set(_GENERATE_KEYS))
    if unknown:
        raise ConfigurationError("unknown field(s) "
                                 + ", ".join(f"'datasets.generate.{k}'" for k in unknown))
    num_days = spec.get("num_days", 4)
    seed = spec.get("seed", 0)
    check_number("datasets.generate.seed", seed, integer=True)
    if check_number("datasets.generate.num_days", num_days, integer=True) < 1:
        raise ConfigurationError(
            f"field 'datasets.generate.num_days' must be >= 1, got {num_days}")
    jitter = spec.get("rate_jitter", 0.15)
    if not 0 <= check_number("datasets.generate.rate_jitter", jitter) <= 1:
        raise ConfigurationError(
            f"field 'datasets.generate.rate_jitter' must be in [0, 1], got {jitter!r}")
    try:
        building = BuildingConfig(**spec.get("building", {}))
    except TypeError as exc:   # an unknown key, or not an object
        raise ConfigurationError(f"field 'datasets.generate.building': {exc}") from None
    except ConfigurationError as exc:   # "field 'capacity' ..." names a building field
        raise ConfigurationError(str(exc).replace(
            "field '", "field 'datasets.generate.building.", 1)) from None
    profile_spec = spec.get("profile", "office")
    if profile_spec == "office":
        base = elevator.office_day_profile()
    elif isinstance(profile_spec, dict):
        try:
            base = TrafficProfile.from_dict(profile_spec)
        except (KeyError, TypeError, ValidationError) as exc:   # KeyError: no 'segments'
            raise ConfigurationError(f"field 'datasets.generate.profile' is invalid: "
                                     f"{type(exc).__name__} {exc}") from None
    else:
        raise ConfigurationError("field 'datasets.generate.profile' must be "
                                 "'office' or a segments object")
    awt_mode = spec.get("awt", "simulated")
    if awt_mode not in ("simulated", "nonlinear"):
        raise ConfigurationError("field 'datasets.generate.awt' must be "
                                 "'simulated' or 'nonlinear'")
    days = []
    for d in range(num_days):
        profile = elevator.vary_profile(base, derive_seed(seed, "profile", d), jitter)
        ds = elevator.simulate_day(building, profile, derive_seed(seed, "traffic", d),
                                   label=f"Day{d + 1}")
        if awt_mode == "nonlinear":
            ds = _overlay_nonlinear_awt(ds)
        days.append(ds)
    return days


def _overlay_nonlinear_awt(dataset: Dataset) -> Dataset:
    """Add a smooth saturating response of the aggregate down-call count on
    top of the simulated waiting times; feature columns stay untouched.

    The extra term rides on f12, whose per-tier components the 10-feature
    baseline view has to reassemble, so it sharpens the contrast between
    aggregate-feature models and the component-feature baseline while the
    queueing dynamics keep every feature informative.
    """
    bump = 4.0 * np.tanh(dataset.features[:, 11] / 12.0)
    return replace(dataset, awt=np.where(dataset.empty, 0.0, dataset.awt + bump))


def load_datasets(config: ExperimentConfig) -> list[Dataset]:
    """Read dataset CSVs (paths relative to the config file) or generate days."""
    if isinstance(config.datasets, dict):
        return generate_days(config.datasets["generate"])
    days = []
    for path in config.datasets:
        full = path if os.path.isabs(path) else os.path.join(config.config_dir, path)
        if not os.path.exists(full):
            raise ConfigurationError(f"field 'datasets': file not found: {path}")
        days.append(elevator.read_dataset_csv(full))
    return days


# ---------------------------------------------------------------------------
# leave-one-day-out sweep
# ---------------------------------------------------------------------------

@dataclass
class _FoldCache:
    """Everything about one (held-out day, feature set) that does not depend
    on the encoder/reservoir draw. `angles` holds the training rows first,
    then the test rows, so one circuit batch serves both."""

    fold_label: str
    feature_set: str
    angles: np.ndarray
    train_targets: np.ndarray
    test_targets: np.ndarray


def _fold_windows(train_days: list[Dataset], test_day: Dataset,
                  feature_set: str) -> tuple[np.ndarray, np.ndarray, Dataset]:
    """Training features and targets stacked over `train_days`, and the
    held-out day, all restricted to `feature_set` with empty windows dropped.
    The held-out day, and the training days together, must keep a window."""
    train_parts = [elevator.select_features(d, feature_set).drop_empty()
                   for d in train_days]
    test = elevator.select_features(test_day, feature_set).drop_empty()
    if not len(test):
        raise ValidationError(f"held-out day {test_day.label!r} has no non-empty window")
    if not any(len(p) for p in train_parts):
        labels = ", ".join(repr(d.label) for d in train_days)
        raise ValidationError(f"training days {labels} (held-out day {test_day.label!r}) "
                              "have no non-empty window")
    return (np.vstack([p.feature_matrix() for p in train_parts]),
            np.concatenate([p.awt_values() for p in train_parts]), test)


def _prepare_fold(train_days: list[Dataset], test_day: Dataset,
                  feature_set: str) -> _FoldCache:
    train_features, train_targets, test = _fold_windows(train_days, test_day, feature_set)
    norm = qelm.fit_normalization(train_features)
    return _FoldCache(
        fold_label=test_day.label,
        feature_set=feature_set,
        angles=np.vstack([qelm.apply_normalization(norm, train_features),
                          qelm.apply_normalization(norm, test.feature_matrix())]),
        train_targets=train_targets,
        test_targets=test.awt_values(),
    )


def _shares_encoded_batch(fold: _FoldCache) -> bool:
    """Whether a fold's cells may share one encoded batch: only while
    `qelm.run_circuit_batch` runs it as one block, so holding it across
    cells never stacks a large batch on a reservoir build's peak."""
    rows, width = fold.angles.shape
    return rows << width <= qelm.BLOCK_AMPLITUDES


def _cell_mse(fold: _FoldCache, encoder: qelm.EncoderSpec, reservoir_kind: str,
              config: ExperimentConfig, seed_parts: tuple,
              encoded: np.ndarray | None) -> float:
    reservoir = qelm.build_reservoir(qelm.ReservoirSpec(
        reservoir_kind, encoder.num_features, depth=config.reservoir_depth,
        seed=derive_seed(*seed_parts, "reservoir")))
    obs = qelm.run_circuit_batch(encoder, reservoir, fold.angles, encoded=encoded)
    num_train = len(fold.train_targets)
    readout = qelm.fit_readout(obs[:num_train], fold.train_targets, config.ridge_lambda)
    predictions = obs[num_train:] @ readout.weights + readout.intercept
    return stats.mse(predictions, fold.test_targets)


def _fold_mses(fold: _FoldCache, combinations: list[str], config: ExperimentConfig,
               reps: int) -> list[np.ndarray]:
    """Repetition MSEs of one fold for each combination, in order.

    Every cell is a pure function of its derived seeds, so the cells run in
    the order of their encoder's axis assignment, the only encoder field
    `qelm.encode_batch` reads: each run of equal assignments encodes the
    fold's angles once and shares the batch, which keeps one encoded batch
    alive at a time."""
    cells = []     # (combination index, reps covered, encoder, reservoir kind, seed parts)
    for index, combination in enumerate(combinations):
        enc, res = combination.split("_")
        # DHE + CNOT has no random parameters at all: one run covers every rep
        covers = [slice(None)] if combination == "DHE_CNOT" else range(reps)
        for rep, covered in enumerate(covers):
            seed_parts = (config.master_seed, fold.fold_label, combination,
                          fold.feature_set, rep)
            encoder = qelm.EncoderSpec(enc, fold.angles.shape[1],
                                       depth=config.encoder_depth,
                                       seed=derive_seed(*seed_parts, "encoder"))
            cells.append((index, covered, encoder, res, seed_parts))
    share = _shares_encoded_batch(fold)
    values = [np.empty(reps) for _ in combinations]
    key = encoded = None
    for index, covered, encoder, res, seed_parts in sorted(
            cells, key=lambda cell: cell[2].axis_assignment):
        if share and key != encoder.axis_assignment:
            key = encoder.axis_assignment
            encoded = qelm.encode_batch(encoder, fold.angles)
        values[index][covered] = _cell_mse(fold, encoder, res, config, seed_parts, encoded)
    return values


def _leave_one_day_out(datasets: list[Dataset]) -> list[tuple[list[Dataset], Dataset]]:
    """(training days, held-out day) per fold, holding out each day in order.
    Results are keyed by the held-out day's label, so labels must differ."""
    if len(datasets) < 2:
        raise ConfigurationError("leave-one-day-out needs at least 2 datasets")
    labels = [d.label for d in datasets]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigurationError(f"field 'datasets' holds two days labelled {label!r}; "
                                     "each fold needs its own label")
    return [([d for j, d in enumerate(datasets) if j != i], test_day)
            for i, test_day in enumerate(datasets)]


def _sweep(config: ExperimentConfig, datasets: list[Dataset],
           combinations: list[str]) -> list[RunResults]:
    """Repetition MSEs for every (feature set, fold, combination), in that order."""
    folds = _leave_one_day_out(datasets)
    results = []
    for feature_set in config.feature_sets:
        reps = config.repetitions_for(feature_set)
        for train_days, test_day in folds:
            fold = _prepare_fold(train_days, test_day, feature_set)
            mses = _fold_mses(fold, combinations, config, reps)
            for combination, values in zip(combinations, mses):
                enc, res = combination.split("_")
                results.append(RunResults(test_day.label, feature_set, enc, res, values))
    return results


# ---------------------------------------------------------------------------
# RQ1: combination ranking
# ---------------------------------------------------------------------------

@dataclass
class SettingRanking:
    feature_set: str
    dataset: str
    ranked: list[tuple[str, float]]   # (combination, AMSE), best first


@dataclass
class RankingTable:
    settings: list[SettingRanking]
    podium: dict[str, list[int]]      # combination -> [firsts, seconds, thirds]
    winner: str

    def to_dict(self) -> dict:
        return {
            "settings": [{"feature_set": s.feature_set, "dataset": s.dataset,
                          "ranking": [{"combination": c, "amse": a}
                                      for c, a in s.ranked]}
                         for s in self.settings],
            "podium": self.podium,
            "winner": self.winner,
        }

    def to_text(self) -> str:
        lines = ["RQ1 ranking by AMSE (best first)", ""]
        for s in self.settings:
            ranked = "  ".join(f"{i + 1}.{c}({a:.4g})"
                               for i, (c, a) in enumerate(s.ranked))
            lines.append(f"{s.feature_set:<5} {s.dataset:<8} {ranked}")
        lines.append("")
        lines.append(f"{'combination':<14} {'1st':>4} {'2nd':>4} {'3rd':>4}")
        for combo in sorted(self.podium):
            first, second, third = self.podium[combo]
            lines.append(f"{combo:<14} {first:>4} {second:>4} {third:>4}")
        lines.append("")
        lines.append(f"winner (most first places): {self.winner}")
        return "\n".join(lines)


def build_ranking(results: list[RunResults]) -> RankingTable:
    """Rank combinations by AMSE inside every (feature set, dataset) setting;
    ties break lexicographically on the combination name."""
    if not results:
        raise ValidationError("cannot rank an empty list of results")
    by_setting: dict[tuple[str, str], list[RunResults]] = {}
    for r in results:
        by_setting.setdefault((r.feature_set, r.dataset), []).append(r)
    settings = []
    podium: dict[str, list[int]] = {}
    for (fs, day), rs in by_setting.items():
        ranked = sorted(((r.combination, r.amse) for r in rs),
                        key=lambda item: (item[1], item[0]))
        settings.append(SettingRanking(fs, day, ranked))
        for place, (combo, _) in enumerate(ranked[:3]):
            podium.setdefault(combo, [0, 0, 0])[place] += 1
    for r in results:
        podium.setdefault(r.combination, [0, 0, 0])
    # most firsts, then seconds, then thirds; exact ties go to the first name
    winner = min(podium, key=lambda c: ([-n for n in podium[c]], c))
    return RankingTable(settings, podium, winner)


def run_rq1_sweep(config: ExperimentConfig,
                  datasets: list[Dataset] | None = None
                  ) -> tuple[RankingTable, list[RunResults]]:
    """AMSE for every (combination, feature set, fold) plus the ranking.

    A single-combination config degenerates to rank 1 everywhere."""
    if datasets is None:
        datasets = load_datasets(config)
    results = _sweep(config, datasets, config.combinations)
    return build_ranking(results), results


# ---------------------------------------------------------------------------
# RQ2: feature-set comparison for one combination
# ---------------------------------------------------------------------------

def _collect_results(config: ExperimentConfig, combination: str,
                     datasets: list[Dataset],
                     results: list[RunResults] | None) -> dict[tuple[str, str], np.ndarray]:
    """MSE samples keyed by (dataset, feature_set) for one combination,
    reusing precomputed results when they cover the request and running the
    sweep for that combination otherwise."""
    def by_setting(runs):
        return {(r.dataset, r.feature_set): r.mse_values for r in runs
                if r.combination == combination}

    table = by_setting(results or [])
    if not {(d.label, fs) for d in datasets for fs in config.feature_sets} <= set(table):
        table = by_setting(_sweep(config, datasets, [combination]))
    return table


def run_rq2_comparison(config: ExperimentConfig, combination: str,
                       datasets: list[Dataset] | None = None,
                       results: list[RunResults] | None = None
                       ) -> dict[str, ComparisonReport]:
    """Per dataset: Kruskal-Wallis over the feature sets, then (only when the
    omnibus fires) pairwise Mann-Whitney with Holm correction and A12."""
    if len(config.feature_sets) < 2:
        raise ConfigurationError("RQ2 needs at least 2 feature sets")
    if datasets is None:
        datasets = load_datasets(config)
    table = _collect_results(config, combination, datasets, results)
    reports = {}
    for day in datasets:
        groups = [table[(day.label, fs)] for fs in config.feature_sets]
        h, p = stats.kruskal_wallis(groups)
        report = ComparisonReport(list(config.feature_sets), h, p)
        if p < report.alpha:
            pairs = list(iter_pairs(range(len(config.feature_sets)), 2))
            raw = []
            details = []
            for i, j in pairs:
                u, p_raw = stats.mann_whitney_u(groups[i], groups[j])
                a12 = stats.vargha_delaney_a12(groups[i], groups[j])
                raw.append(p_raw)
                details.append((config.feature_sets[i], config.feature_sets[j],
                                u, p_raw, a12))
            corrected = stats.holm_bonferroni(raw)
            for (first, second, u, p_raw, a12), p_corr in zip(details, corrected):
                report.pairwise.append(PairwiseResult(
                    first, second, u, p_raw, p_corr, a12,
                    stats.a12_magnitude(a12), p_corr < report.alpha))
        reports[day.label] = report
    return reports


# ---------------------------------------------------------------------------
# RQ3: comparison against the regression-tree baseline
# ---------------------------------------------------------------------------

@dataclass
class BaselineCell:
    dataset: str
    feature_set: str
    baseline_mse: float
    wilcoxon_w: float | None
    p_value: float | None
    cohens_d: float | None
    d_magnitude: str
    runs_above_baseline: int
    n_runs: int


@dataclass
class Rq3Report:
    combination: str
    baseline: str
    cells: list[BaselineCell] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"combination": self.combination, "baseline": self.baseline,
                "cells": [vars(c) for c in self.cells]}

    def to_text(self) -> str:
        lines = [f"RQ3: {self.combination} vs {self.baseline}",
                 f"{'dataset':<8} {'fs':<5} {'baseline':>10} {'p':>10} "
                 f"{'d':>8} {'magnitude':<10} {'above':>5}"]
        for c in self.cells:
            p = "n/a" if c.p_value is None else f"{c.p_value:.3g}"
            d = "n/a" if c.cohens_d is None else f"{c.cohens_d:.3f}"
            lines.append(f"{c.dataset:<8} {c.feature_set:<5} {c.baseline_mse:>10.4g} "
                         f"{p:>10} {d:>8} {c.d_magnitude:<10} "
                         f"{c.runs_above_baseline:>3}/{c.n_runs}")
        lines.append("d < 0 means the quantum model has lower error than the baseline")
        return "\n".join(lines)


def baseline_tree_mse(datasets: list[Dataset], max_splits: int = 25) -> dict[str, float]:
    """Regression-tree baseline trained on the 10-feature set of the training
    days of each fold; one fixed MSE per held-out day."""
    out = {}
    for train_days, test_day in _leave_one_day_out(datasets):
        features, targets, test = _fold_windows(train_days, test_day, "FS10")
        tree = stats.fit_regression_tree(features, targets, max_splits=max_splits)
        predictions = stats.predict_tree_batch(tree, test.feature_matrix())
        out[test_day.label] = stats.mse(predictions, test.awt_values())
    return out


def run_rq3_baseline(config: ExperimentConfig, combination: str,
                     datasets: list[Dataset] | None = None,
                     results: list[RunResults] | None = None,
                     baselines: dict[str, float] | None = None) -> Rq3Report:
    """One-sample Wilcoxon of the repetition MSEs against the fixed baseline
    MSE of each fold, with Cohen's d and the count of runs above baseline."""
    if datasets is None:
        datasets = load_datasets(config)
    if baselines is None:
        baselines = baseline_tree_mse(datasets)
    table = _collect_results(config, combination, datasets, results)
    report = Rq3Report(combination, "regression tree (25 splits, FS10)")
    for fs in config.feature_sets:
        for day in datasets:
            sample = table[(day.label, fs)]
            base = baselines[day.label]
            try:
                w, p = stats.wilcoxon_one_sample(sample, base)
            except DegenerateInputError:
                w, p = None, None
            try:
                d = stats.cohens_d_one_sample(sample, base)
                magnitude = stats.cohens_d_magnitude(d)
            except (DegenerateInputError, ValidationError):
                d, magnitude = None, "n/a"
            report.cells.append(BaselineCell(
                day.label, fs, base, w, p, d, magnitude,
                int(np.sum(sample > base)), len(sample)))
    return report


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

_RESULTS_HEADER = ["dataset", "feature_set", "encoder", "reservoir", "repetition", "mse"]
_BASELINES_HEADER = ["dataset", "baseline_mse"]


def write_results_csv(path, results: list[RunResults]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULTS_HEADER)
        for r in results:
            for rep, value in enumerate(r.mse_values):
                writer.writerow([r.dataset, r.feature_set, r.encoder,
                                 r.reservoir, rep, repr(float(value))])


def read_results_csv(path) -> list[RunResults]:
    """The RunResults of a file `write_results_csv` wrote: within each
    (dataset, feature_set, encoder, reservoir), the rows' repetitions must
    count 0, 1, 2, ... in file order."""
    rows: dict[tuple[str, str, str, str], list[float]] = {}
    lines = elevator.read_csv_rows(path, _RESULTS_HEADER, 1)
    for line, (row, (value,)) in enumerate(lines, start=2):
        values = rows.setdefault(tuple(row[:4]), [])
        if row[4] != str(len(values)):
            raise ValidationError(f"{path}: row {line} has repetition {row[4]!r}; "
                                  f"expected {len(values)}")
        values.append(value)
    return [RunResults(day, fs, enc, res, np.array(values))
            for (day, fs, enc, res), values in rows.items()]


def write_baselines_csv(path, baselines: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BASELINES_HEADER)
        for day in baselines:
            writer.writerow([day, repr(float(baselines[day]))])


def read_baselines_csv(path) -> dict[str, float]:
    rows = elevator.read_csv_rows(path, _BASELINES_HEADER, 1)
    return {row[0]: value for row, (value,) in rows}


def write_manifest(out_dir, command: str, config: ExperimentConfig,
                   files: list[str]) -> None:
    doc = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config.to_dict(),
        "files": sorted(files),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
