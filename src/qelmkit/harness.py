"""Experiment orchestration: leave-one-day-out cross-validation with seeded
repetitions, the encoder/reservoir ranking sweep, feature-set comparisons,
the regression-tree baseline comparison, and result-file emission.

Every run is a pure function of (config, master_seed): per-cell seeds are
derived with a stable hash over (master_seed, fold, combination, feature
set, repetition), so any cell can be reproduced in isolation and two full
runs emit byte-identical result payloads.

A fold holds out one day under one feature set: `_folds` projects each day
once, drops its empty windows and stacks the other days' rows as training
rows, which the QELM sweep normalises into angles and the tree fits on.

Because each cell is a pure function of its seeds, a fold's cells run in
the order of their encoder's axis assignment, and each run of equal
assignments shares one `qelm.encode_batch` of the fold's angles: all-X
(every DHE cell, and any RHE cell that drew it) is one batch per fold, the
other RHE draws at most 3^(M * depth) - 1 more. A batch is shared only
while `qelm.run_circuit_batch` runs it as one block, that is while it holds
at most `qelm.BLOCK_AMPLITUDES` amplitudes (rows * 2^M). Such a batch holds
only the fold's distinct angle rows: the elevator features are small
counts, so an FS2-FS5 fold of about 1,064 rows holds about 265-886
distinct ones at seed 18, at most 28k amplitudes, and each cell gathers
every row's observations back from them before its fit. Larger folds,
such as a 10-qubit fold of about 1.09M amplitudes, keep all their rows and
are encoded per cell, so they never sit on top of a reservoir build's
memory peak, and their row blocks group the rows as they stand. Results
are still reported in (feature set, fold, combination, repetition) order.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import combinations as iter_pairs

import numpy as np

from . import elevator, qelm, stats
from .elevator import BuildingConfig, Dataset, TrafficProfile
from .errors import ConfigurationError, ValidationError, check_keys, check_number
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
        else:
            check_keys("datasets", self.datasets, ("generate",), error=ConfigurationError)
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
        check_keys("config", doc, _CONFIG_FIELDS, error=ConfigurationError)
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
    check_keys("datasets.generate", spec, _GENERATE_KEYS, error=ConfigurationError)
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

@dataclass(frozen=True)
class _Fold:
    """One leave-one-day-out split under one feature set, empty windows
    dropped: the training days' rows stacked in day order, and the held-out
    day's rows. Results are keyed by the held-out day's `label`."""

    label: str
    feature_set: str
    train_features: np.ndarray
    train_targets: np.ndarray
    test_features: np.ndarray
    test_targets: np.ndarray


def _folds(datasets: list[Dataset], feature_set: str) -> Iterator[_Fold]:
    """One fold per day, holding out each day in order, each built as the
    caller reaches it. Each day is projected onto `feature_set` once; the
    labels must differ, and the held-out day, and the training days
    together, must keep a window."""
    if len(datasets) < 2:
        raise ConfigurationError("leave-one-day-out needs at least 2 datasets")
    labels = [d.label for d in datasets]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigurationError(f"field 'datasets' holds two days labelled {label!r}; "
                                     "each fold needs its own label")
    days = [elevator.select_features(d, feature_set).drop_empty() for d in datasets]
    for i, test in enumerate(days):
        train = days[:i] + days[i + 1:]
        if not len(test):
            raise ValidationError(f"held-out day {test.label!r} has no non-empty window")
        if not any(len(d) for d in train):
            names = ", ".join(repr(d.label) for d in train)
            raise ValidationError(f"training days {names} (held-out day {test.label!r}) "
                                  "have no non-empty window")
        yield _Fold(test.label, feature_set, np.vstack([d.feature_matrix() for d in train]),
                    np.concatenate([d.awt_values() for d in train]),
                    test.feature_matrix(), test.awt_values())


def _shares_encoded_batch(angles: np.ndarray) -> bool:
    """Whether a fold's cells may share one encoded batch of its `angles`:
    only while `qelm.run_circuit_batch` runs it as one block, so holding it
    across cells never stacks a large batch on a reservoir build's peak."""
    rows, width = angles.shape
    return rows << width <= qelm.BLOCK_AMPLITUDES


def _cell_mse(fold: _Fold, batch: np.ndarray, inverse: np.ndarray,
              encoder: qelm.EncoderSpec, reservoir_kind: str, config: ExperimentConfig,
              seed_parts: tuple, encoded: np.ndarray | None) -> float:
    """One cell's test MSE: its circuit runs on the angle rows of `batch`,
    and `inverse` gathers each fold row's observations back from them."""
    reservoir = qelm.build_reservoir(qelm.ReservoirSpec(
        reservoir_kind, encoder.num_features, depth=config.reservoir_depth,
        seed=derive_seed(*seed_parts, "reservoir")))
    obs = qelm.run_circuit_batch(encoder, reservoir, batch, encoded=encoded)[inverse]
    num_train = len(fold.train_targets)
    readout = qelm.fit_readout(obs[:num_train], fold.train_targets, config.ridge_lambda)
    return stats.mse(obs[num_train:] @ readout.weights, fold.test_targets)


def _fold_mses(fold: _Fold, combinations: list[str], config: ExperimentConfig,
               reps: int) -> list[np.ndarray]:
    """Repetition MSEs of one fold for each combination, in order.

    The angles are the fold's features normalised by its training rows,
    the training rows first, so one circuit batch serves both. A circuit
    maps each row on its own, so where the fold's distinct angle rows fit
    one shared block every cell runs only those, and gathers each row's
    observations back before the fit; a wider fold keeps its rows as they
    stand, since regrouping the rows of its row blocks moves the last bits
    of their GEMMs. Every cell is a pure function of its derived seeds, so
    the cells run in the order of their encoder's axis assignment, the only
    encoder field `qelm.encode_batch` reads: each run of equal assignments
    encodes the shared batch once, which keeps one encoded batch alive at a
    time. A DHE encoder draws nothing, so one spec serves every DHE cell of
    the fold. A CNOT reservoir has no parameters, so one run per assignment
    covers every CNOT cell of the fold that drew it."""
    norm = qelm.fit_normalization(fold.train_features)
    angles = np.vstack([qelm.apply_normalization(norm, fold.train_features),
                        qelm.apply_normalization(norm, fold.test_features)])
    distinct, inverse = np.unique(angles, axis=0, return_inverse=True)
    share = _shares_encoded_batch(distinct)
    # ravelled: the inverse's shape differs across numpy 2.x releases
    batch, inverse = (distinct, inverse.ravel()) if share else (angles, np.arange(len(angles)))
    width = angles.shape[1]
    dhe = qelm.EncoderSpec("DHE", width, depth=config.encoder_depth)
    cells = {}   # key -> ([index * reps + rep covered], encoder, reservoir kind, seed parts)
    for index, combination in enumerate(combinations):
        enc, res = combination.split("_")
        for rep in range(reps):
            seed_parts = (config.master_seed, fold.label, combination, fold.feature_set, rep)
            encoder = dhe if enc == "DHE" else qelm.EncoderSpec(
                enc, width, depth=config.encoder_depth,
                seed=derive_seed(*seed_parts, "encoder"))
            key = (res, encoder.axis_assignment) if res == "CNOT" else seed_parts
            cells.setdefault(key, ([], encoder, res, seed_parts))[0].append(index * reps + rep)
    values = np.empty(len(combinations) * reps)
    key = encoded = None
    for covered, encoder, res, seed_parts in sorted(
            cells.values(), key=lambda cell: cell[1].axis_assignment):
        if share and key != encoder.axis_assignment:
            key = encoder.axis_assignment
            encoded = qelm.encode_batch(encoder, batch)
        values[covered] = _cell_mse(fold, batch, inverse, encoder, res, config,
                                    seed_parts, encoded)
    return list(values.reshape(-1, reps))


def _sweep(config: ExperimentConfig, datasets: list[Dataset],
           combinations: list[str]) -> list[RunResults]:
    """Repetition MSEs for every (feature set, fold, combination), in that order."""
    results = []
    for feature_set in config.feature_sets:
        reps = config.repetitions_for(feature_set)
        for fold in _folds(datasets, feature_set):
            mses = _fold_mses(fold, combinations, config, reps)
            for combination, values in zip(combinations, mses):
                enc, res = combination.split("_")
                results.append(RunResults(fold.label, feature_set, enc, res, values))
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
                  datasets: list[Dataset]) -> tuple[RankingTable, list[RunResults]]:
    """AMSE for every (combination, feature set, fold) plus the ranking.

    A single-combination config degenerates to rank 1 everywhere."""
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
                       datasets: list[Dataset],
                       results: list[RunResults] | None = None
                       ) -> dict[str, ComparisonReport]:
    """Per dataset: Kruskal-Wallis over the feature sets, then (only when the
    omnibus fires) pairwise Mann-Whitney with Holm correction and A12. A day
    where any feature set's repetitions hold one distinct value gets no test."""
    if len(config.feature_sets) < 2:
        raise ConfigurationError("RQ2 needs at least 2 feature sets")
    table = _collect_results(config, combination, datasets, results)
    reports = {}
    for day in datasets:
        groups = [table[(day.label, fs)] for fs in config.feature_sets]
        distinct = {fs: len(set(g.tolist())) for fs, g in zip(config.feature_sets, groups)}
        h = p = None
        if min(distinct.values()) > 1:   # a one-value sample is one draw: nothing to rank
            h, p = stats.kruskal_wallis(groups)
        report = ComparisonReport(list(config.feature_sets), h, p, distinct_values=distinct)
        if p is not None and p < stats.ALPHA:
            pairs = list(iter_pairs(zip(config.feature_sets, groups), 2))
            tests = [stats.mann_whitney_u(a, b) for (_, a), (_, b) in pairs]
            corrected = stats.holm_bonferroni([p_raw for _, p_raw in tests])
            for ((first, a), (second, b)), (u, p_raw), p_corr in zip(pairs, tests, corrected):
                a12 = stats.vargha_delaney_a12(a, b)
                report.pairwise.append(PairwiseResult(
                    first, second, u, p_raw, p_corr, a12,
                    stats.a12_magnitude(a12), p_corr < stats.ALPHA))
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
    distinct_values: int   # distinct repetition MSEs; one gets no W, p or d


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
                 f"{'d':>8} {'magnitude':<10} {'above':>5} {'distinct':>8}"]
        for c in self.cells:
            p = "n/a" if c.p_value is None else f"{c.p_value:.3g}"
            d = "n/a" if c.cohens_d is None else f"{c.cohens_d:.3f}"
            lines.append(f"{c.dataset:<8} {c.feature_set:<5} {c.baseline_mse:>10.4g} "
                         f"{p:>10} {d:>8} {c.d_magnitude:<10} "
                         f"{c.runs_above_baseline:>3}/{c.n_runs} {c.distinct_values:>8}")
        lines.append("d < 0 means the quantum model has lower error than the baseline")
        return "\n".join(lines)


BASELINE_SPLITS = 25
BASELINE_FEATURE_SET = "FS10"


def baseline_tree_mse(datasets: list[Dataset]) -> dict[str, float]:
    """Regression tree of BASELINE_SPLITS splits trained on the
    BASELINE_FEATURE_SET windows of the training days of each fold; one
    fixed MSE per held-out day."""
    out = {}
    for fold in _folds(datasets, BASELINE_FEATURE_SET):
        tree = stats.fit_regression_tree(fold.train_features, fold.train_targets,
                                         max_splits=BASELINE_SPLITS)
        predictions = stats.predict_tree_batch(tree, fold.test_features)
        out[fold.label] = stats.mse(predictions, fold.test_targets)
    return out


def run_rq3_baseline(config: ExperimentConfig, combination: str,
                     datasets: list[Dataset], results: list[RunResults] | None,
                     baselines: dict[str, float]) -> Rq3Report:
    """One-sample Wilcoxon of the repetition MSEs against the fixed baseline
    MSE of each fold (`baseline_tree_mse`), with Cohen's d and the count of
    runs above baseline. A setting whose repetitions hold one distinct value
    gets neither test nor effect size."""
    table = _collect_results(config, combination, datasets, results)
    report = Rq3Report(combination, f"regression tree ({BASELINE_SPLITS} splits, "
                                    f"{BASELINE_FEATURE_SET})")
    for fs in config.feature_sets:
        for day in datasets:
            sample = table[(day.label, fs)]
            base = baselines[day.label]
            distinct = len(set(sample.tolist()))
            w = p = d = None
            if distinct > 1:   # a one-value sample is one draw: nothing to test
                w, p = stats.wilcoxon_one_sample(sample, base)
                d = stats.cohens_d_one_sample(sample, base)
            report.cells.append(BaselineCell(
                day.label, fs, base, w, p, d,
                "n/a" if d is None else stats.cohens_d_magnitude(d),
                int(np.sum(sample > base)), len(sample), distinct))
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
