"""QELM pipeline tests: normalization, encoder/reservoir structure, circuit
execution, least-squares readout against a normal-equation oracle, and
pipeline serialization."""
import json

import numpy as np
import pytest
import scipy.linalg

from qelmkit import qelm, quantum
from qelmkit.errors import ConfigurationError, ShapeError, ValidationError
from qelmkit.qelm import EncoderSpec, ParamRotation, ReservoirSpec

from test_quantum import dense_gate


def identity_reservoir(num_qubits: int) -> qelm.Reservoir:
    params = quantum.IsingParams(num_qubits, np.zeros((num_qubits, num_qubits)),
                                 np.zeros(num_qubits), 1.0)
    return qelm.build_reservoir(ReservoirSpec("ISING", num_qubits, ising=params))


# ---------------------------------------------------------------------------
# gate-level oracle for the compiled circuits
# ---------------------------------------------------------------------------

def reservoir_gates(res: qelm.Reservoir) -> list[quantum.GateOp]:
    """The CNOT or ROTATION reservoir as a gate list, rebuilt from its depth
    and sampled rotation layers (rotations, then the CNOT ring, per layer)."""
    ring = qelm.cyclic_ring(res.num_qubits, "CNOT")
    if res.kind == "CNOT":
        return ring * res.depth
    gates = []
    for layer in res.rotation_layers:
        gates += [quantum.GateOp("R" + axis, target=q, angle=angle)
                  for q, (axis, angle) in enumerate(layer)]
        gates += ring
    return gates


def reservoir_oracle(res: qelm.Reservoir, seed: int) -> np.ndarray:
    """Dense reservoir matrix built independently of the compiled stages:
    the Kronecker gate product, the seeded Haar draw, or expm(-i H dt)."""
    dim = 1 << res.num_qubits
    if res.kind == "HAAR":
        return quantum.haar_unitary(dim, seed)
    if res.kind == "ISING":
        h = quantum.ising_hamiltonian(res.ising)
        return scipy.linalg.expm(-1j * h * res.ising.time_step)
    u = np.eye(dim, dtype=complex)
    for gate in reservoir_gates(res):
        u = dense_gate(gate, res.num_qubits) @ u
    return u


def stages_matrix(res: qelm.Reservoir) -> np.ndarray:
    """Dense matrix of the compiled stages: row j of the batch starts as
    basis state j, so the result holds U's columns as rows."""
    amps = np.eye(1 << res.num_qubits, dtype=complex)
    for stage in res.stages:
        amps = stage.apply(amps)
    return amps.T


def gate_by_gate_observations(enc: EncoderSpec, res: qelm.Reservoir, seed: int,
                              angles: np.ndarray) -> np.ndarray:
    """One row at a time through quantum.apply_gate and expectation_pauli."""
    m = enc.num_features
    dense = None if res.kind in ("CNOT", "ROTATION") else reservoir_oracle(res, seed)
    rows = []
    for row in angles:
        state = quantum.new_state(m)
        for layer in qelm.build_encoder(enc):
            for op in layer:
                if isinstance(op, ParamRotation):
                    op = quantum.GateOp("R" + op.axis, op.qubit, angle=row[op.feature])
                state = quantum.apply_gate(state, op)
        if dense is None:
            for gate in reservoir_gates(res):
                state = quantum.apply_gate(state, gate)
        else:
            state = quantum.apply_dense_unitary(state, dense)
        rows.append([quantum.expectation_pauli(state, q, axis)
                     for q in range(m) for axis in "XYZ"])
    return np.array(rows)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_fit_normalization_examples():
    params = qelm.fit_normalization(np.array([[0.0], [10.0]]))
    assert params.mins[0] == 0.0 and params.maxs[0] == 10.0
    const = qelm.fit_normalization(np.array([[5.0], [5.0], [5.0]]))
    assert const.mins[0] == const.maxs[0] == 5.0
    two = qelm.fit_normalization(np.array([[1.0, 100.0], [3.0, 50.0]]))
    np.testing.assert_array_equal(two.mins, [1.0, 50.0])
    np.testing.assert_array_equal(two.maxs, [3.0, 100.0])


def test_fit_normalization_rejects_empty():
    with pytest.raises(ValidationError):
        qelm.fit_normalization(np.empty((0, 3)))


def test_apply_normalization_endpoints_and_clamp():
    params = qelm.fit_normalization(np.array([[0.0], [10.0]]))
    assert qelm.apply_normalization(params, [0.0])[0] == 0.0
    assert qelm.apply_normalization(params, [10.0])[0] == pytest.approx(np.pi)
    assert qelm.apply_normalization(params, [5.0])[0] == pytest.approx(np.pi / 2)
    assert qelm.apply_normalization(params, [25.0])[0] == pytest.approx(np.pi)
    assert qelm.apply_normalization(params, [-5.0])[0] == 0.0


def test_apply_normalization_degenerate_feature():
    params = qelm.fit_normalization(np.array([[5.0], [5.0]]))
    assert qelm.apply_normalization(params, [5.0])[0] == 0.0
    assert qelm.apply_normalization(params, [123.0])[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalization_rejects_non_finite(bad):
    train = np.array([[0.0, 1.0], [10.0, 3.0], [5.0, 2.0]])
    poisoned = train.copy()
    poisoned[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        qelm.fit_normalization(poisoned)
    with pytest.raises(ValidationError, match="finite"):
        qelm.apply_normalization(qelm.fit_normalization(train), [bad, 2.0])


def test_apply_normalization_shape_error():
    params = qelm.fit_normalization(np.array([[0.0, 1.0]]))
    with pytest.raises(ShapeError):
        qelm.apply_normalization(params, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_dhe_encoder_structure():
    layers = qelm.build_encoder(EncoderSpec("DHE", 3))
    assert len(layers) == 1
    layer = layers[0]
    assert [(g.axis, g.qubit, g.feature) for g in layer[:3]] == [
        ("X", 0, 0), ("X", 1, 1), ("X", 2, 2)]
    assert [(g.kind, g.control, g.target) for g in layer[3:]] == [
        ("CZ", 0, 1), ("CZ", 1, 2), ("CZ", 2, 0)]


def test_rhe_encoder_axes_seeded():
    a = EncoderSpec("RHE", 3, seed=5)
    b = EncoderSpec("RHE", 3, seed=5)
    assert a.axis_assignment == b.axis_assignment
    assert all(ax in "XYZ" for layer in a.axis_assignment for ax in layer)
    # some seed produces a non-all-X assignment
    assert any(EncoderSpec("RHE", 3, seed=s).axis_assignment[0] != ("X", "X", "X")
               for s in range(5))


def test_dhe_axes_seed_independent():
    # the literal stability invariant: DHE gate list ignores the seed
    specs = [EncoderSpec("DHE", 4, seed=s) for s in (None, 0, 1, 99)]
    assert all(s.axis_assignment == specs[0].axis_assignment for s in specs)
    gate_lists = [qelm.build_encoder(s) for s in specs]
    assert all(g == gate_lists[0] for g in gate_lists)


def test_encoder_depth_repeats_block():
    layers = qelm.build_encoder(EncoderSpec("DHE", 2, depth=2))
    assert len(layers) == 2
    assert layers[0] == layers[1]  # same angles rebound every layer


def test_encoder_rejects_single_qubit():
    with pytest.raises(ConfigurationError):
        qelm.build_encoder(EncoderSpec("DHE", 1))


def test_rhe_requires_seed():
    with pytest.raises(ConfigurationError):
        EncoderSpec("RHE", 3)


# ---------------------------------------------------------------------------
# reservoirs
# ---------------------------------------------------------------------------

def test_cnot_reservoir_structure():
    res = qelm.build_reservoir(ReservoirSpec("CNOT", 3, depth=1))
    assert [(g.kind, g.control, g.target) for g in reservoir_gates(res)] == [
        ("CNOT", 0, 1), ("CNOT", 1, 2), ("CNOT", 2, 0)]
    np.testing.assert_array_equal(stages_matrix(res), reservoir_oracle(res, 0))
    deep = qelm.build_reservoir(ReservoirSpec("CNOT", 3, depth=10))
    assert len(reservoir_gates(deep)) == 30
    # the whole ring stack is one gather
    assert len(deep.stages) == 1 and deep.stages[0].low is None
    np.testing.assert_array_equal(stages_matrix(deep), reservoir_oracle(deep, 0))


def test_rotation_reservoir_structure():
    res = qelm.build_reservoir(ReservoirSpec("ROTATION", 3, depth=2, seed=8))
    assert len(res.rotation_layers) == 2
    for layer in res.rotation_layers:
        assert len(layer) == 3
        for axis, angle in layer:
            assert axis in "XYZ" and 0.0 <= angle < 2 * np.pi
    assert len(reservoir_gates(res)) == 12   # per layer: 3 rotations + 3 ring CNOTs
    # 2^3 <= 2 * (4 + 2): the whole stack folds into one dense stage
    assert len(res.stages) == 1
    assert res.stages[0].high is None and res.stages[0].perm is None
    np.testing.assert_allclose(stages_matrix(res), reservoir_oracle(res, 8), atol=1e-12)
    again = qelm.build_reservoir(ReservoirSpec("ROTATION", 3, depth=2, seed=8))
    assert again.rotation_layers == res.rotation_layers
    # 2^3 > 1 * (4 + 2): one stage per layer, two Kronecker factors and the ring
    shallow = qelm.build_reservoir(ReservoirSpec("ROTATION", 3, depth=1, seed=8))
    assert len(shallow.stages) == 1
    assert shallow.stages[0].high is not None and shallow.stages[0].perm is not None
    np.testing.assert_allclose(stages_matrix(shallow), reservoir_oracle(shallow, 8),
                               atol=1e-12)


def test_haar_reservoir_unitary():
    res = qelm.build_reservoir(ReservoirSpec("HAAR", 3, seed=4))
    u = stages_matrix(res)
    assert u.shape == (8, 8)
    assert quantum.unitarity_defect(u) < 1e-10
    np.testing.assert_allclose(u, reservoir_oracle(res, 4), atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_ising_reservoir_stage_matches_expm(m):
    res = qelm.build_reservoir(ReservoirSpec("ISING", m, seed=m))
    np.testing.assert_allclose(stages_matrix(res), reservoir_oracle(res, m), atol=1e-10)


def test_identity_ising_reservoir_equals_encoder_only():
    enc = EncoderSpec("DHE", 3)
    angles = np.array([0.3, 1.0, 2.0])
    with_res = qelm.run_circuit_batch(enc, identity_reservoir(3), angles)[0]
    cnot_zero_depth = qelm.Reservoir("CNOT", 3, depth=0)  # no stages: encoder only
    without = qelm.run_circuit_batch(enc, cnot_zero_depth, angles)[0]
    np.testing.assert_allclose(with_res, without, atol=1e-12)


def test_reservoir_spec_field_validation():
    with pytest.raises(ConfigurationError):
        ReservoirSpec("CNOT", 3, ising=quantum.sample_ising_params(3, 0))
    with pytest.raises(ConfigurationError):
        ReservoirSpec("ISING", 3, rotation_layers=((("X", 0.1),),))
    with pytest.raises(ConfigurationError):
        ReservoirSpec("WEIRD", 3)
    with pytest.raises(ConfigurationError):
        qelm.build_reservoir(ReservoirSpec("HAAR", 3))  # no seed


# ---------------------------------------------------------------------------
# circuit execution
# ---------------------------------------------------------------------------

def test_run_circuit_zero_angles():
    obs = qelm.run_circuit_batch(EncoderSpec("DHE", 2), identity_reservoir(2),
                                 [0.0, 0.0])[0]
    np.testing.assert_allclose(obs, [0, 0, 1, 0, 0, 1], atol=1e-12)


def test_run_circuit_pi_angle_flips_first_qubit():
    obs = qelm.run_circuit_batch(EncoderSpec("DHE", 2), identity_reservoir(2),
                                 [np.pi, 0.0])[0]
    assert obs[2] == pytest.approx(-1.0)   # <Z^1>
    assert obs[5] == pytest.approx(1.0)    # <Z^2>


def test_observation_ordering_xyz_per_qubit():
    # identity reservoir, qubit 1 rotated by theta: its Y = -sin, Z = cos
    theta = 1.1
    obs = qelm.run_circuit_batch(EncoderSpec("DHE", 2), identity_reservoir(2),
                                 [0.0, theta])[0]
    assert obs[3] == pytest.approx(0.0, abs=1e-12)          # <X^2>
    assert obs[4] == pytest.approx(-np.sin(theta))          # <Y^2>
    assert obs[5] == pytest.approx(np.cos(theta))           # <Z^2>


@pytest.mark.parametrize("kind", ["CNOT", "HAAR", "ISING", "ROTATION"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_observation_bounds_property(kind, m):
    rng = np.random.default_rng(m * 100 + len(kind))
    enc = EncoderSpec("DHE", m)
    res = qelm.build_reservoir(ReservoirSpec(kind, m, seed=3))
    angles = rng.uniform(0, np.pi, size=(90, m))
    obs = qelm.run_circuit_batch(enc, res, angles)
    assert obs.shape == (90, 3 * m)
    assert np.all(obs >= -1.0) and np.all(obs <= 1.0)


def test_run_circuit_deterministic():
    enc = EncoderSpec("DHE", 3)
    res = qelm.build_reservoir(ReservoirSpec("ISING", 3, seed=21))
    angles = np.array([0.1, 0.9, 2.2])
    a = qelm.run_circuit_batch(enc, res, angles)[0]
    b = qelm.run_circuit_batch(enc, res, angles)[0]
    np.testing.assert_array_equal(a, b)


def test_run_circuit_batch_matches_single_state_path():
    rng = np.random.default_rng(17)
    enc = EncoderSpec("RHE", 3, seed=5, depth=2)
    res = qelm.build_reservoir(ReservoirSpec("ROTATION", 3, depth=2, seed=9))
    angles = rng.uniform(0, np.pi, size=3)
    fast = qelm.run_circuit_batch(enc, res, angles)[0]
    slow = gate_by_gate_observations(enc, res, 9, angles[None, :])[0]
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("kind", ["CNOT", "HAAR", "ISING", "ROTATION"])
@pytest.mark.parametrize("encoder_kind", ["DHE", "RHE"])
@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("encoder_depth", [1, 2])
def test_compiled_circuit_matches_gate_by_gate_oracle(kind, encoder_kind, m,
                                                      encoder_depth):
    seed = 10 * m + encoder_depth
    rng = np.random.default_rng(seed)
    enc = EncoderSpec(encoder_kind, m, depth=encoder_depth, seed=seed)
    res = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=seed))
    angles = rng.uniform(0, np.pi, size=(6, m))
    compiled = qelm.run_circuit_batch(enc, res, angles)
    oracle = gate_by_gate_observations(enc, res, seed, angles)
    np.testing.assert_allclose(compiled, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m,depth", [(3, 1), (9, 2)])
@pytest.mark.parametrize("encoder_kind", ["DHE", "RHE"])
@pytest.mark.parametrize("encoder_depth", [1, 2])
def test_staged_rotation_matches_gate_by_gate_oracle(m, depth, encoder_kind, encoder_depth):
    # below the fold rule's break-even the ROTATION stack keeps one stage per layer
    seed = 10 * m + depth + encoder_depth
    rng = np.random.default_rng(seed)
    enc = EncoderSpec(encoder_kind, m, depth=encoder_depth, seed=seed)
    res = qelm.build_reservoir(ReservoirSpec("ROTATION", m, depth=depth, seed=seed))
    assert len(res.stages) == depth
    assert all(s.high is not None and s.perm is not None for s in res.stages)
    angles = rng.uniform(0, np.pi, size=(6, m))
    compiled = qelm.run_circuit_batch(enc, res, angles)
    oracle = gate_by_gate_observations(enc, res, seed, angles)
    np.testing.assert_allclose(compiled, oracle, rtol=0, atol=1e-12)


def test_run_circuit_batch_width_guard():
    # one qubit past the cap: 2^17 amplitudes would still be cheap to allocate,
    # so a missing guard shows as a test failure, not a memory blow-up
    m = quantum.MAX_STATE_QUBITS + 1
    with pytest.raises(ConfigurationError, match="cap"):
        qelm.run_circuit_batch(EncoderSpec("DHE", m), qelm.Reservoir("CNOT", m, depth=0),
                               np.zeros((1, m)))
    with pytest.raises(ConfigurationError):
        qelm.qelm_train((np.zeros((4, m)), np.zeros(4)), EncoderSpec("DHE", m),
                        ReservoirSpec("ROTATION", m, seed=0))


def test_run_circuit_shape_errors():
    with pytest.raises(ShapeError):
        qelm.run_circuit_batch(EncoderSpec("DHE", 3), identity_reservoir(3), [0.1, 0.2])[0]
    with pytest.raises(ShapeError):
        qelm.run_circuit_batch(EncoderSpec("DHE", 2), identity_reservoir(3), [0.1, 0.2])[0]


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def test_fit_readout_identity_system():
    model = qelm.fit_readout(np.eye(2), [3.0, 5.0])
    np.testing.assert_allclose(model.weights, [3.0, 5.0], atol=1e-12)


def test_fit_readout_exact_recovery():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(40, 6))
    w_true = rng.normal(size=6)
    model = qelm.fit_readout(v, v @ w_true)
    np.testing.assert_allclose(model.weights, w_true, atol=1e-8)
    residual = v @ model.weights - v @ w_true
    assert residual @ residual < 1e-12


def test_fit_readout_matches_normal_equation_oracle():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(50, 6))
    t = rng.normal(size=50)
    model = qelm.fit_readout(v, t)
    oracle = np.linalg.solve(v.T @ v, v.T @ t)
    assert np.max(np.abs(model.weights - oracle)) < 1e-8


def test_fit_readout_ridge_matches_oracle():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(30, 5))
    t = rng.normal(size=30)
    lam = 0.7
    model = qelm.fit_readout(v, t, ridge_lambda=lam)
    oracle = np.linalg.solve(v.T @ v + lam * np.eye(5), v.T @ t)
    np.testing.assert_allclose(model.weights, oracle, atol=1e-10)


def test_fit_readout_rank_deficient_min_norm():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(20, 2))
    v = np.hstack([base, base[:, :1]])        # duplicated column
    t = rng.normal(size=20)
    model = qelm.fit_readout(v, t)
    min_norm = np.linalg.pinv(v) @ t
    np.testing.assert_allclose(model.weights, min_norm, atol=1e-10)


def test_fit_readout_optimality_under_perturbation():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(60, 9))
    t = rng.normal(size=60)
    model = qelm.fit_readout(v, t)
    def rss(w):
        r = v @ w - t
        return r @ r
    best = rss(model.weights)
    for _ in range(100):
        delta = rng.normal(size=9)
        delta /= np.linalg.norm(delta)
        assert best <= rss(model.weights + 1e-3 * delta) + 1e-9


def test_fit_readout_validation():
    with pytest.raises(ValidationError):
        qelm.fit_readout(np.array([[1.0, np.nan]]), [1.0])
    with pytest.raises(ValidationError):
        qelm.fit_readout(np.eye(2), [1.0, 2.0], ridge_lambda=-1.0)
    with pytest.raises(ShapeError):
        qelm.fit_readout(np.eye(2), [1.0, 2.0, 3.0])


def test_intercept_flag():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(30, 4))
    t = v @ rng.normal(size=4) + 7.0
    model = qelm.fit_readout(v, t, include_intercept=True)
    assert model.intercept == pytest.approx(7.0, abs=1e-8)


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def make_training_data(m=3, p=50, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 20, size=(p, m))
    targets = 5 + features.sum(axis=1) * 0.3 + rng.normal(0, 0.5, size=p)
    return features, targets


def test_qelm_train_self_consistency():
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec("ISING", 3, seed=1))
    fitted = pipe.predict_batch(features)
    rss = float(np.sum((fitted - targets) ** 2))
    assert rss == pytest.approx(pipe.training_rss, rel=1e-9)


def test_qelm_train_deterministic():
    features, targets = make_training_data()
    kwargs = dict(encoder=EncoderSpec("RHE", 3, seed=2),
                  reservoir=ReservoirSpec("ROTATION", 3, seed=3))
    a = qelm.qelm_train((features, targets), **kwargs)
    b = qelm.qelm_train((features, targets), **kwargs)
    np.testing.assert_array_equal(a.readout.weights, b.readout.weights)
    x = np.array([1.0, 2.0, 3.0])
    assert a.predict(x) == b.predict(x)


def test_qelm_predict_finite_and_matches_pipeline():
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec("CNOT", 3))
    x = np.array([25.0, -3.0, 7.0])   # outside training range: clamped
    value = pipe.predict(x)
    assert np.isfinite(value)
    assert value == pipe.predict_batch(x[None, :])[0]


def test_qelm_train_shape_guard():
    features, targets = make_training_data(m=3)
    with pytest.raises(ShapeError):
        qelm.qelm_train((features, targets), EncoderSpec("DHE", 4),
                        ReservoirSpec("CNOT", 4))


@pytest.mark.parametrize("kind", ["CNOT", "HAAR", "ISING", "ROTATION"])
def test_pipeline_roundtrip_bit_identical(tmp_path, kind):
    features, targets = make_training_data(seed=kind_seed(kind))
    pipe = qelm.qelm_train((features, targets), EncoderSpec("RHE", 3, seed=4),
                           ReservoirSpec(kind, 3, seed=5))
    path = tmp_path / f"pipeline_{kind}.json"
    pipe.save(path)
    loaded = qelm.Pipeline.load(path)
    probe = np.array([[0.0, 5.0, 20.0], [3.3, 1.1, 7.7], [19.0, 0.2, 14.0]])
    original = pipe.predict_batch(probe)
    restored = loaded.predict_batch(probe)
    assert original.tobytes() == restored.tobytes()


def kind_seed(kind: str) -> int:
    return sum(map(ord, kind))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_fail_loudly(bad):
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec("ISING", 3, seed=1))
    with pytest.raises(ValidationError):
        pipe.predict(np.array([1.0, bad, 3.0]))
    features[7, 1] = bad   # one bad training value would zero that feature's angle
    with pytest.raises(ValidationError):
        qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                        ReservoirSpec("ISING", 3, seed=1))


def pipeline_doc(kind: str) -> dict:
    features, targets = make_training_data()
    return json.loads(qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                                      ReservoirSpec(kind, 3, seed=5)).to_json())


def corrupt_weights(doc):
    doc["readout"]["weights"] = doc["readout"]["weights"][:-2]


def corrupt_normalization(doc):
    doc["normalization"]["mins"].append(0.0)


def corrupt_reservoir_width(doc):
    doc["reservoir"]["num_qubits"] = 4


def corrupt_haar_entry(doc):
    doc["reservoir"]["unitary_re"][2][5] += 0.5


def corrupt_haar_shape(doc):
    doc["reservoir"]["unitary_re"] = doc["reservoir"]["unitary_re"][:4]
    doc["reservoir"]["unitary_im"] = doc["reservoir"]["unitary_im"][:4]


def drop_ising_fields(doc):
    del doc["reservoir"]["ising"]["fields"]


def corrupt_normalization_value(doc):
    doc["normalization"]["mins"][1] = float("nan")


def truncate_rotation_layer(doc):
    doc["reservoir"]["rotation_layers"][0].pop()


def rename_reservoir_kind(doc):
    doc["reservoir"]["kind"] = "WEIRD"


@pytest.mark.parametrize("kind,corrupt,error,fragment", [
    ("CNOT", corrupt_weights, ValidationError, "weights"),
    ("ROTATION", corrupt_normalization, ValidationError, "normalization"),
    ("CNOT", corrupt_reservoir_width, ValidationError, "width"),
    ("HAAR", corrupt_haar_entry, ValidationError, "unitary"),
    ("HAAR", corrupt_haar_shape, ValidationError, "unitary"),
    ("ISING", drop_ising_fields, ValidationError, "'fields'"),
    ("ISING", corrupt_normalization_value, ValidationError, "finite"),
    ("ROTATION", truncate_rotation_layer, ConfigurationError, "every qubit"),
    ("CNOT", rename_reservoir_kind, ValidationError, "WEIRD"),
])
def test_pipeline_from_json_rejects_inconsistent_documents(kind, corrupt, error, fragment):
    doc = pipeline_doc(kind)
    qelm.Pipeline.from_json(json.dumps(doc))   # the untouched document loads
    corrupt(doc)
    with pytest.raises(error, match=fragment):
        qelm.Pipeline.from_json(json.dumps(doc))


def test_dhe_family_mse_spread_finite():
    # across seeds, DHE + ISING varies only through reservoir sampling
    features, targets = make_training_data(p=80)
    mses = []
    for seed in range(10):
        pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                               ReservoirSpec("ISING", 3, seed=seed))
        pred = pipe.predict_batch(features)
        mses.append(float(np.mean((pred - targets) ** 2)))
    assert np.isfinite(np.std(mses))


def test_training_completes_at_desk_scale_quickly():
    import time
    rng = np.random.default_rng(40)
    features = rng.uniform(0, 15, size=(200, 5))
    targets = rng.uniform(0, 20, size=200)
    start = time.time()
    qelm.qelm_train((features, targets), EncoderSpec("DHE", 5),
                    ReservoirSpec("ISING", 5, seed=6))
    assert time.time() - start < 5.0
