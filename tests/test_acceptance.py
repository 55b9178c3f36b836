"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. The protocol-scale criteria (5 and 6) share one full sweep over
the frozen benchmark instance defined in BENCHMARK_* below; it takes a few
minutes.
"""
import time

import numpy as np
import pytest
import scipy.stats

from qelmkit import cli, elevator, harness, qelm, quantum, stats
from qelmkit.harness import ALL_COMBINATIONS, ExperimentConfig

from test_quantum import dense_gate, random_gate, random_state, zero_state

# frozen benchmark instance for the protocol criteria; see the test bodies
# for how each constant is used
BENCHMARK_GENERATION = {"num_days": 4, "seed": 18, "awt": "nonlinear"}
BENCHMARK_MASTER_SEED = 424242
FS10_REPETITIONS = 10          # criterion 5 allows >= 5 for the 10-qubit set
RATIO_LIMIT = 1.1              # criterion 6: DHE_ISING vs best at FS5
MIN_FOLD_WINS = 3              # criterion 6: folds beating the tree baseline
SWEEP_TIME_LIMIT_S = 1800.0


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. quantum kernel correctness
# ---------------------------------------------------------------------------

def test_criterion_1_quantum_kernels():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    kinds = set()
    for num_qubits in (1, 2, 3):
        for _ in range(60):
            gate = random_gate(num_qubits, rng)
            state = random_state(num_qubits, rng)
            fast = quantum.apply_gate_kernel(state, num_qubits, gate)
            slow = dense_gate(gate, num_qubits) @ state
            worst = max(worst, float(np.max(np.abs(fast - slow))))
            kinds.add(gate.kind)
    norm_drift = 0.0
    for _ in range(1000):
        num_qubits = int(rng.integers(1, 7))
        state = zero_state(num_qubits)
        for _ in range(30):
            state = quantum.apply_gate_kernel(state, num_qubits,
                                              random_gate(num_qubits, rng))
        norm_drift = max(norm_drift, abs(np.linalg.norm(state) - 1.0))
    elapsed = time.time() - start
    passed = (worst < 1e-12 and norm_drift < 1e-9 and elapsed < 10.0
              and kinds == set(quantum.GATE_KINDS))
    report(1, "quantum kernel correctness", passed,
           f"(kernel vs dense {worst:.2e} over {len(kinds)} gate kinds, "
           f"norm drift {norm_drift:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. reservoir constructions
# ---------------------------------------------------------------------------

def test_criterion_2_reservoir_constructions():
    worst_haar = 0.0
    for power in range(1, 11):
        u = quantum.haar_unitary(1 << power, seed=power)
        worst_haar = max(worst_haar, quantum.unitarity_defect(u))

    identity = quantum.ising_unitary(
        quantum.IsingParams(2, np.zeros((2, 2)), np.zeros(2), 1.0))
    err_identity = float(np.max(np.abs(identity - np.eye(4))))
    half_turn = quantum.ising_unitary(
        quantum.IsingParams(1, np.zeros((1, 1)), np.array([1.0]), np.pi / 2))
    err_field = float(np.max(np.abs(half_turn + 1j * quantum.PAULI_X)))
    t = 0.7
    zz = quantum.ising_unitary(quantum.IsingParams(
        2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), t))
    expected = np.diag(np.exp(-1j * t * np.array([1, -1, -1, 1])))
    err_zz = float(np.max(np.abs(zz - expected)))

    moment = np.mean([abs(quantum.haar_unitary(4, seed=s)[0, 0]) ** 2
                      for s in range(1000)])
    moment_err = abs(moment - 0.25)

    passed = (worst_haar < 1e-10 and err_identity < 1e-10
              and err_field < 1e-10 and err_zz < 1e-10 and moment_err < 0.02)
    report(2, "reservoir constructions", passed,
           f"(haar defect {worst_haar:.2e}, ising closed forms "
           f"{max(err_identity, err_field, err_zz):.2e}, "
           f"haar moment err {moment_err:.4f})")


# ---------------------------------------------------------------------------
# 3. readout optimality
# ---------------------------------------------------------------------------

def test_criterion_3_readout_optimality():
    rng = np.random.default_rng(303)
    worst_weight = 0.0
    optimal = True
    for _ in range(100):
        k = 3 * int(rng.integers(2, 11))             # 3M in [6, 30]
        p = int(rng.integers(max(20, k + 5), 201))   # tall, full column rank
        v = rng.normal(size=(p, k))
        t = rng.normal(size=p)
        model = qelm.fit_readout(v, t)
        oracle = np.linalg.solve(v.T @ v, v.T @ t)
        worst_weight = max(worst_weight, float(np.max(np.abs(model.weights - oracle))))
        residual = v @ model.weights - t
        best_rss = residual @ residual
        for _ in range(100):
            delta = rng.normal(size=k)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = v @ (model.weights + delta) - t
            if best_rss > perturbed @ perturbed + 1e-9:
                optimal = False
    passed = worst_weight < 1e-8 and optimal
    report(3, "readout optimality", passed,
           f"(max weight diff vs normal equations {worst_weight:.2e}, "
           f"local minimum: {optimal})")


# ---------------------------------------------------------------------------
# 4. statistics oracle suite
# ---------------------------------------------------------------------------

def test_criterion_4_statistics_oracles():
    checks = []

    u, _ = stats.mann_whitney_u([1, 2], [3, 4])
    checks.append(("mwu enumeration", abs(u - 0.0) < 1e-6))
    _, p_same = stats.mann_whitney_u([1, 2, 3], [1, 2, 3])
    checks.append(("mwu symmetry", p_same > 0.9))
    rng = np.random.default_rng(404)
    a = rng.integers(0, 10, size=25).astype(float)
    b = rng.integers(0, 10, size=30).astype(float)
    u_mine, p_mine = stats.mann_whitney_u(a, b)
    ref = scipy.stats.mannwhitneyu(a, b, use_continuity=True,
                                   alternative="two-sided", method="asymptotic")
    checks.append(("mwu vs scipy", abs(u_mine - ref.statistic) < 1e-6
                   and abs(p_mine - ref.pvalue) < 1e-3))

    h, p = stats.kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    h_ref, p_ref = scipy.stats.kruskal([1, 2, 3], [1, 2, 3])
    checks.append(("kw ties", abs(h - h_ref) < 1e-6 and abs(p - p_ref) < 1e-3
                   and p > 0.9))
    _, p_sep = stats.kruskal_wallis([[1, 2, 3], [100, 101, 102]])
    checks.append(("kw separation", p_sep < 0.05))

    sym_sample = [-1.0, 1.0, -2.0, 2.0]
    _, p_sym = stats.wilcoxon_one_sample(sym_sample, 0.0)
    checks.append(("wilcoxon symmetry", p_sym > 0.9))
    above = rng.uniform(1.0, 3.0, size=30)
    w, p_above = stats.wilcoxon_one_sample(above, 0.0)
    ref_w = scipy.stats.wilcoxon(above, zero_method="wilcox", correction=True,
                                 alternative="two-sided", method="approx")
    checks.append(("wilcoxon vs scipy", p_above < 0.001
                   and abs(p_above - ref_w.pvalue) < 1e-3))

    a12 = stats.vargha_delaney_a12([1, 2], [3, 4])
    checks.append(("a12 enumeration", abs(a12 - 0.0) < 1e-6
                   and stats.a12_magnitude(a12) == "large"))
    checks.append(("a12 ties", abs(stats.vargha_delaney_a12([1, 1], [1, 1]) - 0.5) < 1e-6))

    holm = stats.holm_bonferroni([0.01, 0.04])
    checks.append(("holm hand-worked", abs(holm[0] - 0.02) < 1e-6
                   and abs(holm[1] - 0.04) < 1e-6))

    d = stats.cohens_d_one_sample([1.0, 1.0, 1.0, 3.0], 2.5)
    checks.append(("cohens d hand-worked", abs(d - (-1.0)) < 1e-6))

    failed = [name for name, ok in checks if not ok]
    report(4, "statistics oracle suite", not failed,
           f"({len(checks)} oracle checks{', failed: ' + str(failed) if failed else ''})")


# ---------------------------------------------------------------------------
# 5 + 6. protocol reproduction and qualitative echo (shared sweep)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_sweep():
    config = ExperimentConfig(
        datasets={"generate": BENCHMARK_GENERATION},
        feature_sets=["FS2", "FS3a", "FS3b", "FS4", "FS5", "FS10"],
        combinations=list(ALL_COMBINATIONS),
        repetitions=30,
        fs10_repetitions=FS10_REPETITIONS,
        master_seed=BENCHMARK_MASTER_SEED,
    )
    datasets = harness.load_datasets(config)
    start = time.time()
    ranking, results = harness.run_rq1_sweep(config, datasets)
    elapsed = time.time() - start
    baselines = harness.baseline_tree_mse(datasets)
    return config, datasets, ranking, results, baselines, elapsed


def test_criterion_5_protocol_reproduction(benchmark_sweep, tmp_path):
    config, datasets, ranking, results, _, elapsed = benchmark_sweep
    settings_ok = len(ranking.settings) == 24
    reps_ok = all(
        len(r.mse_values) == (FS10_REPETITIONS if r.feature_set == "FS10" else 30)
        for r in results)
    cells_ok = len(results) == 8 * 6 * 4
    table_path = tmp_path / "rq1_ranking.txt"
    table_path.write_text(ranking.to_text())
    emitted_ok = table_path.read_text().count("FS") >= 24
    time_ok = elapsed < SWEEP_TIME_LIMIT_S
    passed = settings_ok and reps_ok and cells_ok and emitted_ok and time_ok
    report(5, "protocol reproduction", passed,
           f"({len(ranking.settings)} settings, {len(results)} cells, "
           f"sweep {elapsed:.0f}s < {SWEEP_TIME_LIMIT_S:.0f}s, winner "
           f"{ranking.winner})")


def test_criterion_6_qualitative_echo(benchmark_sweep):
    config, datasets, ranking, results, baselines, _ = benchmark_sweep
    # 6a: pooled mean MSE of DHE_ISING at FS5 within RATIO_LIMIT of the best
    pooled = {}
    for r in results:
        if r.feature_set == "FS5":
            pooled.setdefault(r.combination, []).append(r.mse_values)
    pooled = {c: float(np.mean(np.concatenate(v))) for c, v in pooled.items()}
    ratio = pooled["DHE_ISING"] / min(pooled.values())
    ratio_ok = ratio <= RATIO_LIMIT
    # 6b: some feature set where DHE_ISING's per-fold AMSE beats the
    # 25-split regression tree on >= MIN_FOLD_WINS of the 4 folds
    wins_by_fs = {}
    for r in results:
        if r.combination == "DHE_ISING":
            wins_by_fs.setdefault(r.feature_set, 0)
            if r.amse < baselines[r.dataset]:
                wins_by_fs[r.feature_set] += 1
    best_fs = max(wins_by_fs, key=wins_by_fs.get)
    baseline_ok = wins_by_fs[best_fs] >= MIN_FOLD_WINS
    passed = ratio_ok and baseline_ok
    report(6, "qualitative echo", passed,
           f"(FS5 ratio {ratio:.3f} <= {RATIO_LIMIT}; {best_fs} beats tree on "
           f"{wins_by_fs[best_fs]}/4 folds, need >= {MIN_FOLD_WINS}; "
           f"ranking winner {ranking.winner})")


# ---------------------------------------------------------------------------
# 7. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("""{
        "datasets": {"generate": {"num_days": 2, "seed": 5}},
        "feature_sets": ["FS2"],
        "combinations": ["DHE_ISING", "RHE_ROTATION"],
        "repetitions": 3,
        "master_seed": 77,
        "output_dir": "unused"
    }""")
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in dirs:
        code = cli.main(["run-rq1", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    raw_identical = ((dirs[0] / "results_raw.csv").read_bytes()
                     == (dirs[1] / "results_raw.csv").read_bytes())
    rank_identical = ((dirs[0] / "rq1_ranking.json").read_bytes()
                      == (dirs[1] / "rq1_ranking.json").read_bytes())
    report(7, "determinism", raw_identical and rank_identical,
           f"(results CSV identical: {raw_identical}, ranking identical: "
           f"{rank_identical})")


# ---------------------------------------------------------------------------
# 8. elevator simulator sanity
# ---------------------------------------------------------------------------

def test_criterion_8_simulator_sanity():
    config = elevator.BuildingConfig(num_elevators=1, floor_travel_time=1.0)
    served = elevator.simulate(config, [elevator.Passenger(0.0, 5, 0, 70.0)])
    closed_form_ok = served[0][1] == 5.0

    profile = elevator.TrafficProfile([
        elevator.TrafficSegment(0, 3600, 6.0, 0.4, 0.3, 0.3)])
    count = len(elevator.generate_traffic(elevator.BuildingConfig(), profile,
                                          seed=88))
    poisson_ok = abs(count - 360) <= 57

    paired_ok = True
    base_profile = elevator.TrafficProfile([
        elevator.TrafficSegment(0, 14400, 3.0, 0.35, 0.35, 0.3)])
    for trial in range(10):
        passengers = elevator.generate_traffic(elevator.BuildingConfig(),
                                               base_profile, seed=trial)
        one = elevator.simulate(elevator.BuildingConfig(num_elevators=1),
                                passengers)
        two = elevator.simulate(elevator.BuildingConfig(num_elevators=2),
                                passengers)
        if np.mean([w for _, w in two]) > np.mean([w for _, w in one]):
            paired_ok = False
    passed = closed_form_ok and poisson_ok and paired_ok
    report(8, "elevator simulator sanity", passed,
           f"(closed-form wait exact: {closed_form_ok}, poisson count {count} "
           f"within 3 sigma of 360: {poisson_ok}, second car never worse over "
           f"10 paired trials: {paired_ok})")
