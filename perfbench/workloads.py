"""The benchmark's workloads, their correctness checks and their references.

Each workload drives qelmkit's public functions in-process:

- sweep-fs10: the RQ1 sweep at FS10 (10 qubits, 8 combinations, 4 folds,
  1 repetition), then RQ3 against the tree baseline and the result files.
  The dense `quantum`/`qelm` kernels dominate.
- sweep-small: the FS2-FS5 part of the frozen acceptance sweep (2-5 qubits,
  8 combinations, 4 folds, 30 repetitions), then RQ2 and RQ3 for every
  combination and the result files. Per-cell Python overhead dominates.
- serve-rows: four saved RHE FS10 pipelines are loaded from JSON, then one
  client scores held-out windows one row per request with all four
  (a closed loop). Dispatch at batch size 1 dominates.

A workload runs in whole passes: one sweep, or one round over the held-out
rows.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from qelmkit import elevator, harness, qelm  # noqa: E402

DEFAULT_SEED = 18            # frozen benchmark instance: day-generation seed
MASTER_SEED = 424242         # frozen benchmark instance: per-cell seed root
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerance against the recorded reference. Floating-point reordering may
# move observations by ~1e-12; MSEs and predictions derived from them
# through lstsq stay far inside this.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9
# Row-at-a-time predictions against predict_batch on the same rows.
ROW_TOL = 1e-9

SERVE_KINDS = ("CNOT", "HAAR", "ISING", "ROTATION")


@dataclass
class Run:
    """Everything one measurement collected."""

    setup_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)      # one per pass
    request_s: list[float] = field(default_factory=list)
    cells: int = 0
    cell_time_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(note)


def load_reference(name: str, seed: int) -> dict | None:
    """The recorded reference for the frozen seed; None for any other seed."""
    path = REFERENCE_DIR / f"{name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def _close(actual, expected) -> np.ndarray:
    return np.isclose(actual, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepContext:
    config: harness.ExperimentConfig
    reference: dict | None


@dataclass
class SweepWorkload:
    name: str
    feature_sets: tuple[str, ...]
    repetitions: int
    setup_repeats: int = 7

    def prepare(self, seed: int, out_dir: Path, reference: dict | None) -> SweepContext:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = harness.ExperimentConfig(
            datasets={"generate": days_spec(seed)},
            feature_sets=list(self.feature_sets),
            combinations=list(harness.ALL_COMBINATIONS),
            repetitions=self.repetitions,
            master_seed=MASTER_SEED,
            output_dir=str(out_dir))
        return SweepContext(config, reference)

    def setup(self, ctx: SweepContext):
        return harness.load_datasets(ctx.config)

    def run_pass(self, ctx: SweepContext, datasets, run: Run, tracer=None) -> None:
        config = ctx.config
        start = time.perf_counter()
        ranking, results = harness.run_rq1_sweep(config, datasets)
        run.request_s.append(time.perf_counter() - start)
        run.cell_time_s += run.request_s[-1]
        baselines = harness.baseline_tree_mse(datasets)
        rq2 = {}
        if len(config.feature_sets) >= 2:
            rq2 = {c: harness.run_rq2_comparison(config, c, datasets, results)
                   for c in config.combinations}
        rq3 = {c: harness.run_rq3_baseline(config, c, datasets, results, baselines)
               for c in config.combinations}
        _write_sweep_files(config, results, ranking, baselines, rq2, rq3)
        run.wall_s.append(time.perf_counter() - start)
        run.cells += sum(len(r.mse_values) for r in results)
        self.check(ctx, datasets, results, ranking.winner, run)

    def check(self, ctx: SweepContext, datasets, results, winner: str, run: Run) -> None:
        """One operation per expected cell MSE value, plus one for the winner.

        With a reference the values must match it; without one they must be
        finite and non-negative."""
        config, reference = ctx.config, ctx.reference
        got = {_cell_key(r.dataset, r.feature_set, r.combination): r.mse_values
               for r in results}
        for fs in config.feature_sets:
            reps = config.repetitions_for(fs)
            for day in datasets:
                for combination in config.combinations:
                    key = _cell_key(day.label, fs, combination)
                    values = np.asarray(got.get(key, []), dtype=float)
                    run.attempted += reps
                    if reference is None:
                        ok = np.isfinite(values) & (values >= 0)
                    else:
                        ref = np.asarray(reference["cells"].get(key, []), dtype=float)
                        ok = (_close(values, ref) if ref.shape == values.shape
                              else np.zeros(values.shape, bool))
                    bad = reps if values.shape != (reps,) else int(np.sum(~ok))
                    if bad:
                        run.fail(bad, f"cell {key}: {values.tolist()}")
        run.attempted += 1
        expected = reference["winner"] if reference else None
        if winner not in config.combinations or expected not in (None, winner):
            run.fail(1, f"ranking winner {winner!r}, expected {expected!r}")

    def reference_of(self, ctx: SweepContext, datasets) -> dict:
        """Run the sweep once and record its cell values and winner."""
        ranking, results = harness.run_rq1_sweep(ctx.config, datasets)
        return {"winner": ranking.winner,
                "cells": {_cell_key(r.dataset, r.feature_set, r.combination):
                          [float(v) for v in r.mse_values] for r in results}}


def days_spec(seed: int) -> dict:
    """The synthetic days of every workload: 4 days of office traffic with
    the nonlinear waiting-time response."""
    return {"num_days": 4, "seed": seed, "awt": "nonlinear"}


def _cell_key(dataset: str, feature_set: str, combination: str) -> str:
    return f"{dataset}|{feature_set}|{combination}"


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _write_sweep_files(config, results, ranking, baselines, rq2, rq3) -> None:
    out = config.output_dir
    harness.write_results_csv(os.path.join(out, harness.RESULTS_CSV), results)
    harness.write_baselines_csv(os.path.join(out, harness.BASELINES_CSV), baselines)
    _write_json(os.path.join(out, "rq1_ranking.json"), ranking.to_dict())
    texts = [ranking.to_text()]
    if rq2:
        _write_json(os.path.join(out, "rq2_report.json"),
                    {c: {day: report.to_dict() for day, report in reports.items()}
                     for c, reports in rq2.items()})
        texts += [f"== {c} {day} ==\n{report.to_text()}"
                  for c, reports in rq2.items() for day, report in reports.items()]
    _write_json(os.path.join(out, "rq3_report.json"),
                {c: report.to_dict() for c, report in rq3.items()})
    texts += [report.to_text() for report in rq3.values()]
    with open(os.path.join(out, "reports.txt"), "w") as fh:
        fh.write("\n\n".join(texts) + "\n")
    files = [harness.RESULTS_CSV, harness.BASELINES_CSV, "rq1_ranking.json",
             "rq3_report.json", "reports.txt"] + (["rq2_report.json"] if rq2 else [])
    harness.write_manifest(out, "perfbench", config, files)


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

def prepare_serve(seed: int, directory: Path, feature_set: str = "FS10") -> None:
    """Train one RHE pipeline per reservoir kind on all days but the last,
    save each as JSON and save the last day's feature rows as held-out
    requests. Not part of any measured time."""
    directory.mkdir(parents=True, exist_ok=True)
    days = harness.generate_days(days_spec(seed))
    parts = [elevator.select_features(d, feature_set).drop_empty() for d in days]
    features = np.vstack([p.feature_matrix() for p in parts[:-1]])
    targets = np.concatenate([p.awt_values() for p in parts[:-1]])
    width = features.shape[1]
    for kind in SERVE_KINDS:
        pipeline = qelm.qelm_train(
            (features, targets),
            qelm.EncoderSpec("RHE", width,
                             seed=harness.derive_seed(MASTER_SEED, "serve", kind, "encoder")),
            qelm.ReservoirSpec(kind, width,
                               seed=harness.derive_seed(MASTER_SEED, "serve", kind, "reservoir")))
        pipeline.save(directory / f"{kind}.json")
    np.save(directory / "heldout.npy", parts[-1].feature_matrix())


@dataclass
class ServeContext:
    directory: Path
    rows: np.ndarray
    reference: dict | None
    expected: np.ndarray | None = None     # (rows, kinds) from predict_batch
    row_ok: np.ndarray | None = None       # rows whose batch matches the reference


@dataclass
class ServeWorkload:
    name: str
    setup_repeats: int = 3

    def prepare(self, seed: int, out_dir: Path, reference: dict | None) -> ServeContext:
        """Expects `prepare_serve` to have filled `out_dir` already."""
        return ServeContext(out_dir, np.load(out_dir / "heldout.npy"), reference)

    def setup(self, ctx: ServeContext) -> list:
        return [qelm.Pipeline.load(ctx.directory / f"{kind}.json") for kind in SERVE_KINDS]

    def _expect(self, ctx: ServeContext, pipelines: list) -> None:
        """Batch predictions of every held-out row, and which rows of them
        match the reference (all rows when there is none)."""
        ctx.expected = np.column_stack([p.predict_batch(ctx.rows) for p in pipelines])
        ctx.row_ok = np.ones(len(ctx.rows), bool)
        if ctx.reference is not None:
            recorded = ctx.reference["predictions"]
            ref = np.column_stack([np.asarray(recorded.get(k, []), dtype=float)
                                   for k in SERVE_KINDS])
            if ref.shape != ctx.expected.shape:
                ctx.row_ok[:] = False
            else:
                ctx.row_ok = _close(ctx.expected, ref).all(axis=1)

    def run_pass(self, ctx: ServeContext, pipelines: list, run: Run, tracer=None) -> None:
        """One request per held-out row; a request fails when a prediction
        differs from predict_batch or the batch row from the reference."""
        if ctx.expected is None:
            self._expect(ctx, pipelines)
        out = np.empty(len(pipelines))
        start = time.perf_counter()
        for i, row in enumerate(ctx.rows):
            out[:] = np.nan
            note = f"row {i}: predictions differ from predict_batch or the reference"
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    for k, pipeline in enumerate(pipelines):
                        out[k] = pipeline.predict(row)
                else:
                    tracer.request = len(run.request_s)
                    with tracer.span("serve.request"):
                        for k, pipeline in enumerate(pipelines):
                            out[k] = pipeline.predict(row)
            except Exception as exc:  # noqa: BLE001 - a raising request has failed
                note = f"row {i} raised {exc!r}"
            run.request_s.append(time.perf_counter() - t0)
            run.attempted += 1
            if not (ctx.row_ok[i] and np.allclose(out, ctx.expected[i],
                                                  rtol=0.0, atol=ROW_TOL)):
                run.fail(1, note)
        run.wall_s.append(time.perf_counter() - start)
        run.cell_time_s += sum(run.request_s[-len(ctx.rows):])
        run.cells += len(ctx.rows) * len(pipelines)

    def reference_of(self, ctx: ServeContext, pipelines: list) -> dict:
        return {"predictions": {k: p.predict_batch(ctx.rows).tolist()
                                for k, p in zip(SERVE_KINDS, pipelines)}}


WORKLOADS = {
    "sweep-fs10": SweepWorkload("sweep-fs10", ("FS10",), repetitions=1),
    "sweep-small": SweepWorkload("sweep-small", ("FS2", "FS3a", "FS3b", "FS4", "FS5"),
                                 repetitions=30),
    "serve-rows": ServeWorkload("serve-rows"),
}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def run_passes(workload, ctx, state, seconds: float, run: Run, tracer=None) -> float:
    """Whole passes while the next, taking as long as the last one, would
    end within `seconds`; the first pass of a run always runs. Returns the
    time spent."""
    start = time.perf_counter()
    while not run.wall_s or time.perf_counter() - start + run.wall_s[-1] <= seconds:
        try:
            workload.run_pass(ctx, state, run, tracer)
        except Exception as exc:  # noqa: BLE001 - a raising pass is a failed operation
            run.attempted += 1
            run.fail(1, f"{workload.name} pass raised {exc!r}")
            break
    return time.perf_counter() - start


def measure(workload, ctx, seconds: float) -> Run:
    """Untraced: `setup_repeats` set-ups spread over the run. After set-up
    i of n, passes run until about (i + 1) / n of `seconds` is spent, so
    set-up times and passes both sample the whole run."""
    run = Run()
    spent = 0.0
    for i in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(ctx)
        run.setup_s.append(time.perf_counter() - t0)
        target = seconds * (i + 1) / workload.setup_repeats
        spent += run_passes(workload, ctx, state, target - spent, run)
    return run


def measure_traced(workload, ctx, seconds: float, tracer) -> tuple[Run, Run]:
    """Half the time untraced, then set-up and half the time traced.

    Returns (untraced, traced); the two give the tracing overhead."""
    base = Run()
    t0 = time.perf_counter()
    state = workload.setup(ctx)
    base.setup_s.append(time.perf_counter() - t0)
    run_passes(workload, ctx, state, seconds / 2, base)
    traced = Run()
    with tracer.installed():
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            state = workload.setup(ctx)
            traced.setup_s.append(time.perf_counter() - t0)
        run_passes(workload, ctx, state, seconds / 2, traced, tracer)
    return base, traced
