"""Harness tests: config parsing, seeded cross-validation, leakage guards,
the research-question flows, result files and the CLI contract."""
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from qelmkit import cli, elevator, harness, qelm, stats
from qelmkit.errors import ConfigurationError, ValidationError
from qelmkit.harness import ExperimentConfig
from qelmkit.stats import RunResults

TOY_GEN = {"generate": {"num_days": 2, "seed": 5, "rate_jitter": 0.1}}


def toy_config(**overrides):
    base = dict(datasets=TOY_GEN, feature_sets=["FS2"],
                combinations=["DHE_ISING", "DHE_CNOT"], repetitions=3,
                master_seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def toy_days():
    return harness.load_datasets(toy_config())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_and_file_loading(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "datasets": ["a.csv"], "feature_sets": ["FS2", "FS5"],
        "combinations": ["DHE_ISING"], "master_seed": 3}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.repetitions == 30
    assert cfg.encoder_depth == 1
    assert cfg.reservoir_depth == 10
    assert cfg.ridge_lambda == 0.0
    assert cfg.master_seed == 3
    assert cfg.config_dir == str(tmp_path)


@pytest.mark.parametrize("patch,fragment", [
    ({"feature_sets": []}, "feature_sets"),
    ({"feature_sets": ["FS9"]}, "feature_sets"),
    ({"combinations": ["DHE_FOO"]}, "combinations"),
    ({"repetitions": 0}, "repetitions"),
    ({"encoder_depth": 0}, "encoder_depth"),
    ({"ridge_lambda": -0.5}, "ridge_lambda"),
    ({"datasets": []}, "datasets"),
    ({"repetitions": "3"}, "repetitions"),
    ({"repetitions": True}, "repetitions"),
    ({"fs10_repetitions": 2.0}, "fs10_repetitions"),
    ({"encoder_depth": "1"}, "encoder_depth"),
    ({"reservoir_depth": False}, "reservoir_depth"),
    ({"master_seed": 1.5}, "master_seed"),
    ({"ridge_lambda": "0"}, "ridge_lambda"),
    ({"ridge_lambda": True}, "ridge_lambda"),
    ({"feature_sets": ["FS2", "FS3a", "FS2"]}, "feature_sets"),   # was two equal folds
    ({"combinations": ["DHE_ISING", "DHE_ISING"]}, "combinations"),
    ({"output_dir": 7}, "output_dir"),   # was "expected str, bytes or os.PathLike"
    ({"datasets": ["a.csv", 3]}, "datasets"),
])
def test_config_diagnostics_name_field(tmp_path, patch, fragment):
    doc = {"datasets": ["a.csv"], "feature_sets": ["FS2"],
           "combinations": ["DHE_ISING"]}
    doc.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=fragment):
        ExperimentConfig.from_file(path)


def test_config_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"datasets": ["a.csv"], "feature_sets": ["FS2"],
                                "combinations": ["DHE_ISING"], "bogus": 1}))
    with pytest.raises(ConfigurationError, match="bogus"):
        ExperimentConfig.from_file(path)
    path.write_text(json.dumps({"feature_sets": ["FS2"]}))
    with pytest.raises(ConfigurationError, match="datasets"):
        ExperimentConfig.from_file(path)
    with pytest.raises(ConfigurationError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "missing.json")


def test_derive_seed_stable_and_sensitive():
    a = harness.derive_seed(1, "Day1", "DHE_ISING", "FS2", 0)
    assert a == harness.derive_seed(1, "Day1", "DHE_ISING", "FS2", 0)
    others = {harness.derive_seed(1, "Day1", "DHE_ISING", "FS2", 1),
              harness.derive_seed(2, "Day1", "DHE_ISING", "FS2", 0),
              harness.derive_seed(1, "Day2", "DHE_ISING", "FS2", 0)}
    assert a not in others and len(others) == 3


# ---------------------------------------------------------------------------
# dataset generation / loading
# ---------------------------------------------------------------------------

def test_generate_days_deterministic(toy_days):
    again = harness.load_datasets(toy_config())
    assert [d.label for d in toy_days] == ["Day1", "Day2"]
    for a, b in zip(toy_days, again):
        np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())
        np.testing.assert_array_equal(a.awt_values(), b.awt_values())


def test_generate_days_nonlinear_mode_changes_awt_only():
    plain = harness.generate_days({"num_days": 1, "seed": 9})
    bumped = harness.generate_days({"num_days": 1, "seed": 9, "awt": "nonlinear"})
    np.testing.assert_array_equal(plain[0].feature_matrix(),
                                  bumped[0].feature_matrix())
    mask = ~plain[0].empty
    assert np.all(bumped[0].awt_values()[mask] >= plain[0].awt_values()[mask])
    assert np.any(bumped[0].awt_values()[mask] > plain[0].awt_values()[mask])


def test_load_datasets_from_csv(tmp_path, toy_days):
    for day in toy_days:
        elevator.write_dataset_csv(tmp_path / f"{day.label}.csv", day)
    cfg = toy_config(datasets=["Day1.csv", "Day2.csv"])
    cfg.config_dir = str(tmp_path)
    loaded = harness.load_datasets(cfg)
    np.testing.assert_array_equal(loaded[0].feature_matrix(),
                                  toy_days[0].feature_matrix())
    cfg_bad = toy_config(datasets=["nope.csv"])
    cfg_bad.config_dir = str(tmp_path)
    with pytest.raises(ConfigurationError, match="nope.csv"):
        harness.load_datasets(cfg_bad)


def test_generate_days_validates_spec():
    with pytest.raises(ConfigurationError, match="awt"):
        harness.generate_days({"num_days": 1, "seed": 0, "awt": "banana"})
    with pytest.raises(ConfigurationError, match="profile"):
        harness.generate_days({"num_days": 1, "seed": 0, "profile": 3})
    with pytest.raises(ConfigurationError, match="building"):
        harness.generate_days({"num_days": 1, "seed": 0,
                               "building": {"num_wheels": 3}})


def test_generate_days_rejects_unknown_key():
    # a misspelt "seed" used to run silently with seed 0
    with pytest.raises(ConfigurationError, match="datasets.generate.sede"):
        harness.generate_days({"num_days": 1, "sede": 3})


@pytest.mark.parametrize("value", ["2", 2.0, True, 0, -1])
def test_generate_days_rejects_bad_num_days(value):
    with pytest.raises(ConfigurationError, match="datasets.generate.num_days"):
        harness.generate_days({"num_days": value, "seed": 0})


@pytest.mark.parametrize("value", ["abc", 1.5, False, None])
def test_generate_days_rejects_bad_seed(value):
    with pytest.raises(ConfigurationError, match="datasets.generate.seed"):
        harness.generate_days({"num_days": 1, "seed": value})


@pytest.mark.parametrize("value", [-5, -0.1, 1.5, float("nan"), float("inf"), "0.1", True])
def test_generate_days_rejects_bad_rate_jitter(value):
    with pytest.raises(ConfigurationError, match="datasets.generate.rate_jitter"):
        harness.generate_days({"num_days": 1, "seed": 0, "rate_jitter": value})


@pytest.mark.parametrize("building,field", [
    ({"capacity": float("nan")}, "capacity"),
    ({"num_elevators": 2.5}, "num_elevators"),
    ({"num_floors": 4.5}, "num_floors"),
    ({"floor_height": float("inf")}, "floor_height")])
def test_generate_days_rejects_bad_building(building, field):
    # NaN capacity used to hang the simulation; fractional counts raised a raw TypeError
    with pytest.raises(ConfigurationError, match=f"datasets.generate.building.{field}"):
        harness.generate_days({"num_days": 1, "seed": 0, "building": building})


@pytest.mark.parametrize("profile", [
    {"segmnts": []},
    {"segments": [{"start_s": 0, "end_s": 100, "rate_per_min": float("nan"),
                   "up_fraction": 0.3, "down_fraction": 0.3, "interfloor_fraction": 0.4}]},
    {"segments": [{"start_s": 0, "end_s": 100}]},
    {"segments": 3},
    {"segments": [], "segmnts_extra": 1},   # used to be dropped silently
    {"segments": [{"start_s": 0, "end_s": 100, "rate_per_min": 1.0, "up_fraction": 0.3,
                   "down_fraction": 0.3, "interfloor_fraction": 0.4},
                  {"start_s": 50, "end_s": 200, "rate_per_min": 2.0, "up_fraction": 0.3,
                   "down_fraction": 0.3, "interfloor_fraction": 0.4}]}])   # overlap
def test_generate_days_rejects_bad_profile(profile):
    with pytest.raises(ConfigurationError, match="datasets.generate.profile"):
        harness.generate_days({"num_days": 1, "seed": 0, "profile": profile})


def test_config_rejects_unknown_datasets_key():
    # keys beside "generate" used to be dropped silently
    with pytest.raises(ConfigurationError, match="datasets.genrate_extra"):
        toy_config(datasets={"generate": TOY_GEN["generate"], "genrate_extra": 5})


# ---------------------------------------------------------------------------
# leave-one-day-out cross-validation
# ---------------------------------------------------------------------------

def sweep_one(days, cfg, combination):
    """The RQ1 sweep of a one-combination config, keyed by held-out day."""
    _, results = harness.run_rq1_sweep(replace(cfg, combinations=[combination]), days)
    return {r.dataset: r for r in results}


def test_cross_validate_fold_structure(toy_days):
    cfg = toy_config()
    runs = sweep_one(toy_days, cfg, "DHE_ISING")
    assert set(runs) == {"Day1", "Day2"}
    for label, run in runs.items():
        assert run.dataset == label
        assert run.feature_set == "FS2"
        assert len(run.mse_values) == cfg.repetitions
        assert np.all(run.mse_values >= 0)


def test_cross_validate_needs_two_datasets(toy_days):
    with pytest.raises(ConfigurationError, match="at least 2 datasets"):
        sweep_one(toy_days[:1], toy_config(), "DHE_ISING")
    # the RQ2/RQ3 recompute path and the tree baseline share the check
    with pytest.raises(ConfigurationError, match="at least 2 datasets"):
        harness.run_rq2_comparison(toy_config(feature_sets=["FS2", "FS3b"]),
                                   "DHE_ISING", toy_days[:1])
    with pytest.raises(ConfigurationError, match="at least 2 datasets"):
        harness.baseline_tree_mse(toy_days[:1])


def test_cross_validate_rejects_duplicate_labels(toy_days):
    # the two folds of one label used to merge into one ranked setting
    with pytest.raises(ConfigurationError, match="'datasets'.*'Day1'"):
        sweep_one([toy_days[0], toy_days[1], toy_days[0]], toy_config(), "DHE_CNOT")
    with pytest.raises(ConfigurationError, match="'datasets'"):
        harness.baseline_tree_mse([toy_days[1], toy_days[1]])


def test_cross_validate_deterministic(toy_days):
    cfg = toy_config()
    a = sweep_one(toy_days, cfg, "RHE_ROTATION")
    b = sweep_one(toy_days, cfg, "RHE_ROTATION")
    for label in a:
        np.testing.assert_array_equal(a[label].mse_values, b[label].mse_values)


def test_cross_validate_identical_datasets_reproduce_training_residual(toy_days):
    day = toy_days[0]
    twin = elevator.Dataset("Twin", day.starts, day.features, day.awt, day.empty,
                            day.feature_names)
    cfg = toy_config(repetitions=1)
    runs = sweep_one([day, twin], cfg, "DHE_ISING")
    # train == test, so the test MSE equals the training residual MSE
    projected = elevator.select_features(day, "FS2").drop_empty()
    pipe = qelm.qelm_train(
        projected,
        qelm.EncoderSpec("DHE", 2),
        qelm.ReservoirSpec("ISING", 2, seed=harness.derive_seed(
            cfg.master_seed, "Twin", "DHE_ISING", "FS2", 0, "reservoir")))
    expected = pipe.training_rss / len(projected)
    assert runs["Twin"].mse_values[0] == pytest.approx(expected, rel=1e-9)


def test_no_leakage_into_normalization(toy_days, monkeypatch):
    seen = []
    original = qelm.fit_normalization

    def spy(features):
        seen.append(np.asarray(features))
        return original(features)

    monkeypatch.setattr(qelm, "fit_normalization", spy)
    sweep_one(toy_days, toy_config(repetitions=1), "DHE_ISING")
    held_out = {label: elevator.select_features(day, "FS2").drop_empty().feature_matrix()
                for label, day in zip(["Day1", "Day2"], toy_days)}
    # fold order follows dataset order: fold 0 holds out Day1, fold 1 Day2
    for fold_label, captured in zip(["Day1", "Day2"], seen):
        other = "Day2" if fold_label == "Day1" else "Day1"
        np.testing.assert_array_equal(captured, held_out[other])


def test_no_leakage_into_baseline(toy_days, monkeypatch):
    seen = []
    original = stats.fit_regression_tree

    def spy(features, targets, max_splits=25):
        seen.append(len(np.asarray(features)))
        return original(features, targets, max_splits)

    monkeypatch.setattr(stats, "fit_regression_tree", spy)
    harness.baseline_tree_mse(toy_days)
    sizes = [len(elevator.select_features(d, "FS10").drop_empty()) for d in toy_days]
    assert seen == [sizes[1], sizes[0]]


def test_shared_encoding_sweep_matches_per_cell_circuits(monkeypatch):
    days = harness.generate_days({"num_days": 3, "seed": 5, "rate_jitter": 0.1})
    # 5 repetitions: an FS3a fold's stack of 5 draws runs in circuit chunks
    # of at most 3 (its 539 distinct rows * 2^3 amplitudes each)
    cfg = toy_config(feature_sets=["FS2", "FS3a", "FS4", "FS5"],
                     combinations=list(harness.ALL_COMBINATIONS), repetitions=5)
    encodings, cnot_runs, batches, runs, stacks = [], [], [], [], []
    original, run, build = qelm.encode_batch, qelm.run_circuit_batch, qelm.build_reservoir

    def spy_encode(enc, angles):
        encodings.append(enc)
        batches.append(angles)
        return original(enc, angles)
    monkeypatch.setattr(qelm, "encode_batch", spy_encode)

    def spy_run(enc, reservoir, angles, encoded=None):
        if reservoir.kind == "CNOT":
            cnot_runs.append(enc.axis_assignment)
        batches.append(angles)
        runs.append((angles.tobytes(), enc.axis_assignment, reservoir.draws, enc.num_features))
        return run(enc, reservoir, angles, encoded)
    monkeypatch.setattr(qelm, "run_circuit_batch", spy_run)

    def spy_build(spec):
        stacks.append((len(spec.seed) if isinstance(spec.seed, tuple) else 1, spec.num_qubits))
        return build(spec)
    monkeypatch.setattr(qelm, "build_reservoir", spy_build)
    _, results = harness.run_rq1_sweep(cfg, days)
    monkeypatch.undo()
    assert len(results) == 4 * 3 * 8
    distinct, distinct_cnot = set(), set()
    fold_rows = {}   # (day, feature set) -> (the fold's distinct angle rows, its row count)
    for r in results:
        test_day = next(d for d in days if d.label == r.dataset)
        train = [elevator.select_features(d, r.feature_set).drop_empty()
                 for d in days if d is not test_day]
        test = elevator.select_features(test_day, r.feature_set).drop_empty()
        features = np.vstack([p.feature_matrix() for p in train])
        norm = qelm.fit_normalization(features)
        angles = np.vstack([qelm.apply_normalization(norm, features),
                            qelm.apply_normalization(norm, test.feature_matrix())])
        fold_rows[r.dataset, r.feature_set] = np.unique(angles, axis=0), len(angles)
        expected = []
        for rep in range(cfg.repetitions):
            parts = (cfg.master_seed, r.dataset, r.combination, r.feature_set, rep)
            enc = qelm.EncoderSpec(r.encoder, angles.shape[1],
                                   seed=harness.derive_seed(*parts, "encoder"))
            res = qelm.build_reservoir(qelm.ReservoirSpec(
                r.reservoir, angles.shape[1], seed=harness.derive_seed(*parts, "reservoir")))
            obs = qelm.run_circuit_batch(enc, res, angles)
            readout = qelm.fit_readout(obs[:len(features)],
                                       np.concatenate([p.awt_values() for p in train]))
            expected.append(stats.mse(obs[len(features):] @ readout.weights,
                                      test.awt_values()))
            distinct.add((r.dataset, r.feature_set, enc.axis_assignment))
            if r.reservoir == "CNOT":
                distinct_cnot.add((r.dataset, r.feature_set, enc.axis_assignment))
        assert r.mse_values.tobytes() == np.array(expected).tobytes()
    # every encoding and circuit run gets only its fold's distinct angle
    # rows, in np.unique's order, and the folds hold repeated rows
    assert {a.tobytes() for a in batches} == {rows.tobytes() for rows, _ in fold_rows.values()}
    assert len(fold_rows) == 4 * 3 and all(len(rows) < n for rows, n in fold_rows.values())
    # FS3a draws are built as stacks of 5, each run in more than one circuit
    # chunk of stacked draws
    assert max(size for size, width in stacks if width == 3) == 5
    assert max(draws or 1 for *_, draws, width in runs if width == 3) == 3
    # one encoding per run of equal (fold, axis assignment) among the circuit
    # runs, not one per cell: at least one per distinct pair
    changes = sum(1 for before, after in zip([None] + runs, runs)
                  if before is None or before[:2] != after[:2])
    assert len(encodings) == changes >= len(distinct)
    # a CNOT reservoir has no parameters: one circuit run per distinct (fold,
    # axis assignment) covers every CNOT cell of both encoders that drew it
    assert len(cnot_runs) == len(distinct_cnot)


def test_unshared_fold_runs_all_its_rows(monkeypatch, toy_days):
    # a 10-qubit fold runs in row blocks, and regrouping its rows would move
    # the last bits of a block's GEMMs, so each cell gets the fold's rows as
    # they stand, repeats and all
    fold = next(harness._folds(toy_days, "FS10"))
    norm = qelm.fit_normalization(fold.train_features)
    angles = np.vstack([qelm.apply_normalization(norm, fold.train_features),
                        qelm.apply_normalization(norm, fold.test_features)])
    assert not harness._shares_encoded_batch(np.unique(angles, axis=0))
    batches, run = [], qelm.run_circuit_batch
    monkeypatch.setattr(qelm, "run_circuit_batch", lambda enc, res, a, encoded=None:
                        batches.append(a) or run(enc, res, a, encoded))
    cfg = toy_config(feature_sets=["FS10"], combinations=["DHE_CNOT"], repetitions=1)
    harness._fold_mses(fold, cfg.combinations, cfg, 1)
    assert len(batches) == 1 and batches[0].tobytes() == angles.tobytes()


def test_encoded_batch_sharing_rule(toy_days):
    # shared only while rows * 2^M fits one row block of run_circuit_batch
    for feature_set, shared in (("FS5", True), ("FS10", False)):
        fold = list(harness._folds(toy_days, feature_set))[1]
        angles = np.vstack([fold.train_features, fold.test_features])
        assert harness._shares_encoded_batch(angles) is shared
    limit = qelm.BLOCK_AMPLITUDES
    assert harness._shares_encoded_batch(np.zeros((limit >> 5, 5)))
    assert not harness._shares_encoded_batch(np.zeros(((limit >> 5) + 1, 5)))


def test_folds_project_each_day_once(monkeypatch):
    # each fold used to project every day again: 96 projections per
    # sweep-small pass for 24 distinct (day, feature set) pairs
    days = harness.generate_days({"num_days": 4, "seed": 5, "rate_jitter": 0.1})
    calls, original = [], elevator.select_features
    monkeypatch.setattr(elevator, "select_features",
                        lambda day, fs: calls.append((day.label, fs)) or original(day, fs))
    feature_sets = ["FS2", "FS3a", "FS3b", "FS4", "FS5"]
    cfg = toy_config(feature_sets=feature_sets, combinations=["DHE_CNOT"], repetitions=1)
    harness.run_rq1_sweep(cfg, days)
    harness.baseline_tree_mse(days)
    assert len(calls) == 24
    assert sorted(calls) == sorted((d.label, fs) for d in days
                                   for fs in feature_sets + ["FS10"])


# ---------------------------------------------------------------------------
# RQ1 ranking
# ---------------------------------------------------------------------------

def empty_day(label):
    """A day whose every window is empty, as an all-empty CSV or a rate-0
    generate profile gives."""
    return elevator.windowize(elevator.BuildingConfig(), [], label=label)


def test_fold_windows_skip_an_empty_training_day(toy_days):
    # a (0,)-shaped feature matrix used to break np.vstack with a raw ValueError
    plain = next(harness._folds([toy_days[0], toy_days[1]], "FS2"))
    padded = next(harness._folds([toy_days[0], empty_day("Empty"), toy_days[1]], "FS2"))
    assert padded.label == plain.label == "Day1"
    for name in ("train_features", "train_targets", "test_features", "test_targets"):
        np.testing.assert_array_equal(getattr(padded, name), getattr(plain, name))


@pytest.mark.parametrize("run", [
    lambda days: harness.run_rq1_sweep(toy_config(repetitions=1), days),
    harness.baseline_tree_mse])
@pytest.mark.parametrize("position,fragment", [
    (0, "held-out day 'Empty'"),          # was ShapeError "expected 2 features, got 0"
    (1, "training days 'Empty'")])        # was numpy's raw ValueError from np.vstack
def test_sweep_names_a_day_without_windows(toy_days, run, position, fragment):
    days = [toy_days[0]]
    days.insert(position, empty_day("Empty"))
    with pytest.raises(ValidationError, match=fragment):
        run(days)


def test_run_rq1_sweep_shape(toy_days):
    cfg = toy_config(feature_sets=["FS2", "FS3b"])
    ranking, results = harness.run_rq1_sweep(cfg, toy_days)
    assert len(ranking.settings) == 4  # 2 feature sets x 2 days
    assert len(results) == 4 * len(cfg.combinations)
    for setting in ranking.settings:
        combos = [c for c, _ in setting.ranked]
        assert sorted(combos) == sorted(cfg.combinations)
        amses = [a for _, a in setting.ranked]
        assert amses == sorted(amses)
    assert sum(v[0] for v in ranking.podium.values()) == len(ranking.settings)


def test_single_combination_ranks_first_everywhere(toy_days):
    ranking, _ = harness.run_rq1_sweep(toy_config(combinations=["DHE_CNOT"]),
                                       toy_days)
    assert ranking.winner == "DHE_CNOT"
    assert all(s.ranked[0][0] == "DHE_CNOT" for s in ranking.settings)


def test_build_ranking_tie_breaks_lexicographically():
    results = [
        RunResults("Day1", "FS2", "DHE", "ISING", np.array([2.0])),
        RunResults("Day1", "FS2", "DHE", "HAAR", np.array([2.0])),
        RunResults("Day1", "FS2", "RHE", "CNOT", np.array([9.0])),
    ]
    ranking = harness.build_ranking(results)
    assert [c for c, _ in ranking.settings[0].ranked] == \
        ["DHE_HAAR", "DHE_ISING", "RHE_CNOT"]
    assert ranking.winner == "DHE_HAAR"


def test_build_ranking_rejects_empty_results():
    with pytest.raises(ValidationError, match="empty"):
        harness.build_ranking([])


def test_ranking_text_and_dict():
    results = [RunResults("Day1", "FS2", "DHE", "ISING", np.array([1.0])),
               RunResults("Day1", "FS2", "DHE", "CNOT", np.array([2.0]))]
    ranking = harness.build_ranking(results)
    text = ranking.to_text()
    assert "DHE_ISING" in text and "winner" in text
    doc = ranking.to_dict()
    assert doc["winner"] == "DHE_ISING"
    assert doc["settings"][0]["ranking"][0]["combination"] == "DHE_ISING"


# ---------------------------------------------------------------------------
# RQ2: synthetic results exercise the gating logic without circuit runs
# ---------------------------------------------------------------------------

def fake_results(days, feature_sets, combination, spread):
    enc, res = combination.split("_")
    rng = np.random.default_rng(0)
    out = []
    for day in days:
        for i, fs in enumerate(feature_sets):
            values = rng.normal(10 + spread * i, 0.1, size=30)
            out.append(RunResults(day, fs, enc, res, values))
    return out


def two_fake_days():
    config = elevator.BuildingConfig()
    return [elevator.simulate_day(config, elevator.office_day_profile(), seed=s,
                                  label=f"Day{s}") for s in (1, 2)]


def test_rq2_gating_not_significant():
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2", "FS5"], combinations=["DHE_ISING"])
    results = fake_results(["Day1", "Day2"], ["FS2", "FS5"], "DHE_ISING", 0.0)
    reports = harness.run_rq2_comparison(cfg, "DHE_ISING", days, results)
    for report in reports.values():
        assert report.omnibus_p >= 0.05
        assert report.pairwise == []


def test_rq2_pairwise_count_and_holm_m():
    days = two_fake_days()
    feature_sets = ["FS2", "FS3a", "FS3b", "FS4", "FS5", "FS10"]
    cfg = toy_config(feature_sets=feature_sets, combinations=["DHE_ISING"])
    results = fake_results(["Day1", "Day2"], feature_sets, "DHE_ISING", 5.0)
    reports = harness.run_rq2_comparison(cfg, "DHE_ISING", days, results)
    for report in reports.values():
        assert report.omnibus_p < 0.05
        assert len(report.pairwise) == 15
        for pw in report.pairwise:
            assert pw.p_corrected >= pw.p_raw - 1e-15
            assert 0.0 <= pw.a12 <= 1.0
            assert pw.magnitude in ("negligible", "small", "medium", "large")
    # spread samples: corrected p still significant for extreme pairs
    extreme = [pw for pw in reports["Day1"].pairwise
               if pw.first == "FS2" and pw.second == "FS10"]
    assert extreme[0].significant and extreme[0].a12 == 0.0


def test_rq2_needs_two_feature_sets():
    with pytest.raises(ConfigurationError):
        harness.run_rq2_comparison(toy_config(), "DHE_ISING", two_fake_days(),
                                   fake_results(["Day1", "Day2"], ["FS2"],
                                                "DHE_ISING", 0.0))


# ---------------------------------------------------------------------------
# RQ3 baseline comparison
# ---------------------------------------------------------------------------

def test_rq3_sample_below_baseline():
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2"], combinations=["DHE_ISING"])
    results = fake_results(["Day1", "Day2"], ["FS2"], "DHE_ISING", 0.0)
    baselines = {"Day1": 100.0, "Day2": 100.0}
    report = harness.run_rq3_baseline(cfg, "DHE_ISING", days, results, baselines)
    for cell in report.cells:
        assert cell.runs_above_baseline == 0
        assert cell.cohens_d < 0
        assert cell.p_value < 0.001


def test_rq3_baseline_equal_to_sample_mean():
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2"], combinations=["DHE_ISING"])
    enc_res = [RunResults("Day1", "FS2", "DHE", "ISING",
                          np.array([9.0, 11.0] * 15)),
               RunResults("Day2", "FS2", "DHE", "ISING",
                          np.array([9.0, 11.0] * 15))]
    baselines = {"Day1": 10.0, "Day2": 10.0}
    report = harness.run_rq3_baseline(cfg, "DHE_ISING", days, enc_res, baselines)
    assert report.cells[0].cohens_d == pytest.approx(0.0)


def test_rq3_degenerate_sample_handled():
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2"], combinations=["DHE_CNOT"])
    constant = [RunResults(d, "FS2", "DHE", "CNOT", np.full(30, 5.0))
                for d in ("Day1", "Day2")]
    baselines = {"Day1": 5.0, "Day2": 7.0}
    report = harness.run_rq3_baseline(cfg, "DHE_CNOT", days, constant, baselines)
    day1 = [c for c in report.cells if c.dataset == "Day1"][0]
    assert day1.p_value is None and day1.cohens_d is None
    assert "n/a" in report.to_text()


def spy_on(monkeypatch, names):
    """Record each call of the named stats functions by name."""
    calls = []
    for name in names:
        original = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda *a, _n=name, _f=original:
                            calls.append(_n) or _f(*a))
    return calls


def test_rq3_one_value_setting_gets_no_test(monkeypatch):
    # 30 equal MSEs are one draw; they used to report p = 4.6e-8 (30 reps),
    # or W = 1 and p = 1 (1 rep), against any other baseline
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2", "FS5"], combinations=["DHE_CNOT"])
    results = [RunResults(day, fs, "DHE", "CNOT", np.full(reps, 5.0))
               for fs, reps in (("FS2", 30), ("FS5", 1)) for day in ("Day1", "Day2")]
    results[1] = replace(results[1], mse_values=np.array([5.0] * 29 + [6.0]))
    calls = spy_on(monkeypatch, ["wilcoxon_one_sample", "cohens_d_one_sample"])
    report = harness.run_rq3_baseline(cfg, "DHE_CNOT", days, results,
                                      {"Day1": 9.0, "Day2": 9.0})
    assert calls == ["wilcoxon_one_sample", "cohens_d_one_sample"]   # Day2 FS2 only
    assert [c.distinct_values for c in report.cells] == [1, 2, 1, 1]
    for cell in report.cells[:1] + report.cells[2:]:
        assert (cell.wilcoxon_w, cell.p_value, cell.cohens_d) == (None, None, None)
        assert cell.d_magnitude == "n/a"
    assert report.cells[1].p_value < 0.05 and report.cells[1].cohens_d < 0
    assert report.to_dict()["cells"][0]["distinct_values"] == 1
    rows = report.to_text().splitlines()[2:6]
    assert all(row.split()[-1] == str(n) for row, n in zip(rows, [1, 2, 1, 1]))
    assert rows[0].split()[3:6] == ["n/a", "n/a", "n/a"]


def test_rq3_reports_d_for_distinct_values_whose_std_underflows():
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2"], combinations=["DHE_HAAR"])
    results = [RunResults(day, "FS2", "DHE", "HAAR", np.array([0.0, 1e-170]))
               for day in ("Day1", "Day2")]
    report = harness.run_rq3_baseline(cfg, "DHE_HAAR", days, results,
                                      {"Day1": 0.0, "Day2": 0.0})
    for cell in report.cells:
        assert cell.distinct_values == 2 and cell.p_value is not None
        assert cell.cohens_d == pytest.approx(1 / np.sqrt(2), rel=1e-12)
        assert cell.d_magnitude == "medium"


def test_rq2_day_with_a_one_value_sample_gets_no_test(monkeypatch):
    # five equal-valued samples used to report H = 149, p = 3.3e-31
    days = two_fake_days()
    cfg = toy_config(feature_sets=["FS2", "FS5"], combinations=["DHE_CNOT"])
    results = fake_results(["Day1", "Day2"], ["FS2", "FS5"], "DHE_CNOT", 5.0)
    results[0] = replace(results[0], mse_values=np.full(30, 4.0))   # Day1, FS2
    calls = spy_on(monkeypatch, ["kruskal_wallis", "mann_whitney_u"])
    reports = harness.run_rq2_comparison(cfg, "DHE_CNOT", days, results)
    assert calls == ["kruskal_wallis", "mann_whitney_u"]   # Day2 only
    day1, day2 = reports["Day1"], reports["Day2"]
    assert (day1.omnibus_h, day1.omnibus_p, day1.pairwise) == (None, None, [])
    assert day1.to_dict()["distinct_values"] == {"FS2": 1, "FS5": 30}
    assert day1.to_dict()["omnibus"] == {"h": None, "p": None}
    assert "n/a" in day1.to_text() and "FS2=1 FS5=30" in day1.to_text()
    assert day2.omnibus_p < 0.05 and len(day2.pairwise) == 1
    assert day2.distinct_values == {"FS2": 30, "FS5": 30}


def test_baseline_tree_deterministic(toy_days):
    a = harness.baseline_tree_mse(toy_days)
    b = harness.baseline_tree_mse(toy_days)
    assert a == b
    assert set(a) == {"Day1", "Day2"}


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def test_results_csv_roundtrip(tmp_path, toy_days):
    cfg = toy_config()
    _, results = harness.run_rq1_sweep(cfg, toy_days)
    path = tmp_path / "results_raw.csv"
    harness.write_results_csv(path, results)
    header = path.read_text().splitlines()[0]
    assert header == "dataset,feature_set,encoder,reservoir,repetition,mse"
    loaded = harness.read_results_csv(path)
    key = lambda r: (r.dataset, r.feature_set, r.encoder, r.reservoir)
    by_key = {key(r): r for r in loaded}
    for r in results:
        np.testing.assert_array_equal(by_key[key(r)].mse_values, r.mse_values)


@pytest.mark.parametrize("bad", ["CNOT,1,nan", "CNOT,1,inf", "CNOT,1,-inf", "CNOT,1,oops",
                                 "CNOT,1", "CNOT,1,0.5,extra",
                                 # repetitions count 0, 1, 2, ... per combination;
                                 # these used to load as extra repetitions
                                 "CNOT,abc,0.5", "CNOT,0,0.5", "CNOT,2,0.5", "CNOT,01,0.5",
                                 "CNOT,-1,0.5"])
def test_read_results_csv_rejects_bad_rows(tmp_path, bad):
    # a NaN MSE read as "not significant" in the RQ2/RQ3 rank tests
    path = tmp_path / "results_raw.csv"
    path.write_text("dataset,feature_set,encoder,reservoir,repetition,mse\n"
                    "Day1,FS2,DHE,CNOT,0,1.5\n"
                    f"Day1,FS2,DHE,{bad}\n")
    with pytest.raises(ValidationError, match="row 3") as exc:
        harness.read_results_csv(path)
    assert "results_raw.csv" in str(exc.value)


def test_read_results_csv_counts_repetitions_per_combination(tmp_path):
    path = tmp_path / "results_raw.csv"
    path.write_text("dataset,feature_set,encoder,reservoir,repetition,mse\n"
                    "Day1,FS2,DHE,CNOT,0,1.5\n"
                    "Day2,FS2,DHE,CNOT,0,2.5\n"
                    "Day1,FS2,DHE,CNOT,1,3.5\n")
    loaded = {r.dataset: list(r.mse_values) for r in harness.read_results_csv(path)}
    assert loaded == {"Day1": [1.5, 3.5], "Day2": [2.5]}


def test_baselines_csv_roundtrip(tmp_path):
    path = tmp_path / "baselines.csv"
    harness.write_baselines_csv(path, {"Day1": 1.23456789012345, "Day2": 7.0})
    loaded = harness.read_baselines_csv(path)
    assert loaded == {"Day1": 1.23456789012345, "Day2": 7.0}


@pytest.mark.parametrize("text,fragment", [
    ("wrong,header\nDay1,1.0\n", "header"),
    ("dataset,baseline_mse\nDay1,1.0\nDay2,nan\n", "row 3"),
    ("dataset,baseline_mse\nDay1,inf\n", "row 2"),
    ("dataset,baseline_mse\nDay1,oops\n", "row 2"),
    ("dataset,baseline_mse\nDay1,1.0,7\n", "row 2"),
    ("dataset,baseline_mse\nDay1\n", "row 2"),
    ("", "header")])
def test_read_baselines_csv_rejects_bad_input(tmp_path, text, fragment):
    # "wrong,header / Day1,nan,7 / Day2,inf" used to read as {Day1: nan, Day2: inf}
    path = tmp_path / "baselines.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=fragment) as exc:
        harness.read_baselines_csv(path)
    assert "baselines.csv" in str(exc.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cli_config(tmp_path, **overrides):
    doc = {"datasets": TOY_GEN, "feature_sets": ["FS2"],
           "combinations": ["DHE_ISING", "DHE_CNOT"], "repetitions": 2,
           "master_seed": 11, "output_dir": str(tmp_path / "out")}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_gen_data_writes_csvs_and_manifest(tmp_path):
    path = write_cli_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.glob("*.csv")) == ["Day1.csv", "Day2.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["files"] == ["Day1.csv", "Day2.csv"]
    assert "created_utc" in manifest


def test_cli_run_rq1_and_rank_and_report(tmp_path, capsys):
    import time
    path = write_cli_config(tmp_path, feature_sets=["FS2", "FS3b"])
    start = time.time()
    assert cli.main(["run-rq1", "--config", str(path)]) == 0
    assert time.time() - start < 60.0  # toy-scale contract
    out = tmp_path / "out"
    assert (out / "results_raw.csv").exists()
    assert (out / "rq1_ranking.json").exists()
    assert "winner" in (out / "rq1_ranking.txt").read_text()
    # rank recomputes from the stored CSV
    (out / "rq1_ranking.json").unlink()
    assert cli.main(["rank", "--config", str(path)]) == 0
    assert (out / "rq1_ranking.json").exists()
    # report regenerates rq1 + rq2 from stored results
    assert cli.main(["report", "--config", str(path)]) == 0
    assert (out / "rq2_report.json").exists()
    capsys.readouterr()


def test_cli_run_rq2_and_rq3(tmp_path, capsys):
    path = write_cli_config(tmp_path, feature_sets=["FS2", "FS3b"])
    assert cli.main(["run-rq2", "--config", str(path),
                     "--combination", "DHE_ISING"]) == 0
    out = tmp_path / "out"
    assert (out / "rq2_report.json").exists()
    assert cli.main(["run-rq3", "--config", str(path),
                     "--combination", "DHE_ISING"]) == 0
    assert (out / "rq3_report.json").exists()
    assert (out / "baselines.csv").exists()
    doc = json.loads((out / "rq3_report.json").read_text())
    assert doc["combination"] == "DHE_ISING"
    assert len(doc["cells"]) == 4  # 2 feature sets x 2 days
    capsys.readouterr()


REPORT_FILES = [f"{stem}.{ext}" for stem in ("rq1_ranking", "rq2_report", "rq3_report")
                for ext in ("json", "txt")]


def test_cli_report_rewrites_every_report_byte_identically(tmp_path, capsys):
    path = write_cli_config(tmp_path, feature_sets=["FS2", "FS3b"])
    out = tmp_path / "out"
    for command in ("run-rq1", "run-rq2", "run-rq3"):
        assert cli.main([command, "--config", str(path)]) == 0
    before = {name: (out / name).read_bytes() for name in REPORT_FILES}
    for name in REPORT_FILES:
        (out / name).unlink()
    assert cli.main(["report", "--config", str(path)]) == 0
    assert {name: (out / name).read_bytes() for name in REPORT_FILES} == before
    capsys.readouterr()


@pytest.mark.parametrize("combination", ["RHE_ROTATION", "DHE_CNOT"])
def test_cli_rq2_rq3_recompute_matches_stored_results(tmp_path, capsys, combination):
    path = write_cli_config(tmp_path, feature_sets=["FS2", "FS3b"],
                            combinations=["DHE_CNOT", "RHE_ROTATION"])
    stored, empty = tmp_path / "stored", tmp_path / "empty"
    assert cli.main(["run-rq1", "--config", str(path), "--out", str(stored)]) == 0
    for out in (stored, empty):
        for command in ("run-rq2", "run-rq3"):
            assert cli.main([command, "--config", str(path), "--out", str(out),
                             "--combination", combination]) == 0
    assert not (empty / "results_raw.csv").exists()
    for name in REPORT_FILES[2:] + ["baselines.csv"]:
        assert (stored / name).read_bytes() == (empty / name).read_bytes()
    capsys.readouterr()


def test_cli_report_keeps_rq3_for_one_feature_set(tmp_path, capsys):
    # report used to drop RQ3 whenever the config listed one feature set
    path = write_cli_config(tmp_path, combinations=["DHE_CNOT"])
    out = tmp_path / "out"
    assert cli.main(["run-rq1", "--config", str(path)]) == 0
    for command in ("run-rq3", "report"):
        assert cli.main([command, "--config", str(path), "--combination", "DHE_CNOT"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "regenerated: rq1_ranking.json, rq1_ranking.txt, rq3_report.json, rq3_report.txt")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(REPORT_FILES[:2] + REPORT_FILES[4:])
    assert not (out / "rq2_report.json").exists()
    assert "n/a" in (out / "rq3_report.txt").read_text()   # DHE_CNOT repeats one value


def test_cli_exit_code_2_on_config_errors(tmp_path, capsys):
    assert cli.main(["run-rq1", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"datasets": TOY_GEN, "feature_sets": ["FS99"],
                               "combinations": ["DHE_ISING"]}))
    assert cli.main(["run-rq1", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "FS99" in err
    # gen-data on a path-list config cannot generate
    paths = write_cli_config(tmp_path, datasets=["a.csv", "b.csv"])
    assert cli.main(["gen-data", "--config", str(paths)]) == 2


@pytest.mark.parametrize("command", ["gen-data", "run-rq1"])
def test_cli_exit_code_2_on_bad_generate_spec(tmp_path, capsys, command):
    path = write_cli_config(tmp_path, datasets={"generate": {"num_days": 2, "sede": 3}})
    assert cli.main([command, "--config", str(path)]) == 2
    assert "datasets.generate.sede" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()   # no empty output directory is left


def test_cli_rank_reads_the_results_before_creating_the_output(tmp_path, capsys):
    # a NaN MSE exited 1 and left an empty output directory behind
    results = tmp_path / "results_raw.csv"
    results.write_text("dataset,feature_set,encoder,reservoir,repetition,mse\n"
                       "Day1,FS2,DHE,CNOT,0,nan\n")
    path = write_cli_config(tmp_path)
    assert cli.main(["rank", "--config", str(path), "--results", str(results)]) == 1
    assert "row 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run-rq1", "run-rq2", "run-rq3"])
@pytest.mark.parametrize("paths", [["a/Day1.csv", "b/Day1.csv"],   # one stem, two dirs
                                   ["a/Day1.csv", "a/Day1.csv"]])
def test_cli_exit_code_2_on_duplicate_dataset_labels(tmp_path, capsys, toy_days,
                                                     command, paths):
    # run-rq1 used to exit 0 with both days' folds ranked as one "Day1" setting
    for folder, day in zip("ab", toy_days):
        (tmp_path / folder).mkdir()
        elevator.write_dataset_csv(tmp_path / folder / "Day1.csv", day)
    path = write_cli_config(tmp_path, datasets=paths, feature_sets=["FS2", "FS3b"])
    assert cli.main([command, "--config", str(path)]) == 2
    assert "'datasets'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_2_on_nan_building_capacity(tmp_path, capsys):
    # json accepts NaN; the capacity passed "<= 0" and gen-data never returned
    spec = {"num_days": 1, "seed": 0, "building": {"capacity": float("nan")}}
    path = write_cli_config(tmp_path, datasets={"generate": spec})
    assert "NaN" in path.read_text()
    assert cli.main(["gen-data", "--config", str(path)]) == 2
    assert "datasets.generate.building.capacity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rank_without_results_names_results_option(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    assert cli.main(["rank", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "--results" in err and "datasets" not in err


@pytest.mark.parametrize("command", ["run-rq2", "run-rq3", "report"])
@pytest.mark.parametrize("combination", ["DHECNOT", "DHE_FOO"])
def test_cli_unknown_combination_names_option(tmp_path, capsys, command, combination):
    path = write_cli_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(path), "--combination", combination])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--combination" in err and combination in err
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_1_on_runtime_failure(tmp_path, capsys, monkeypatch):
    path = write_cli_config(tmp_path)
    monkeypatch.setattr(harness, "run_rq1_sweep",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
    assert cli.main(["run-rq1", "--config", str(path)]) == 1
    assert "boom" in capsys.readouterr().err


def test_cli_seed_and_out_overrides(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    alt = tmp_path / "alt"
    assert cli.main(["run-rq1", "--config", str(path), "--seed", "99",
                     "--out", str(alt)]) == 0
    manifest = json.loads((alt / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 99
    capsys.readouterr()


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    path = write_cli_config(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run-rq1", "--config", str(path), "--out", str(a_dir)]) == 0
    assert cli.main(["run-rq1", "--config", str(path), "--out", str(b_dir)]) == 0
    assert (a_dir / "results_raw.csv").read_bytes() == \
        (b_dir / "results_raw.csv").read_bytes()
    assert (a_dir / "rq1_ranking.json").read_bytes() == \
        (b_dir / "rq1_ranking.json").read_bytes()
    capsys.readouterr()
