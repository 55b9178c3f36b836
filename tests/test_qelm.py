"""QELM pipeline tests: normalization, encoder/reservoir structure, circuit
execution, least-squares readout against a normal-equation oracle, and
pipeline serialization."""
import json
import math

import numpy as np
import pytest
import scipy.linalg

from qelmkit import qelm, quantum
from qelmkit.errors import ConfigurationError, ShapeError, ValidationError
from qelmkit.qelm import EncoderSpec, ReservoirSpec

from test_quantum import PAULI, dense_gate, embed, zero_state


def identity_reservoir(num_qubits: int) -> qelm.Reservoir:
    params = quantum.IsingParams(num_qubits, np.zeros((num_qubits, num_qubits)),
                                 np.zeros(num_qubits), 1.0)
    return qelm.build_reservoir(ReservoirSpec("ISING", num_qubits, ising=params))


# ---------------------------------------------------------------------------
# gate-level oracle for the compiled circuits
#
# The circuit layout is written out here, not taken from `qelm`: the
# entangling ring is (0, 1), (1, 2), ..., (M-1, 0) with the first qubit of
# each pair as control, each encoder layer rotates qubit k by feature k
# around its assigned axis before the CZ ring, and each CNOT or ROTATION
# reservoir layer is its rotations (ROTATION only) then the CNOT ring.
# ---------------------------------------------------------------------------

def ring_gates(num_qubits: int, kind: str) -> list[quantum.GateOp]:
    """The cyclic entangling ring of CZ or CNOT gates."""
    return [quantum.GateOp(kind, target=(i + 1) % num_qubits, control=i)
            for i in range(num_qubits)]


def encoder_gates(enc: EncoderSpec, row: np.ndarray) -> list[quantum.GateOp]:
    """The encoder with one row's angles bound: per layer of the axis
    assignment, R_axis(row[k]) on qubit k, then the CZ ring."""
    m = enc.num_features
    gates = []
    for layer_axes in enc.axis_assignment:
        gates += [quantum.GateOp("R" + axis, target=k, angle=row[k])
                  for k, axis in enumerate(layer_axes)]
        gates += ring_gates(m, "CZ")
    return gates


def reservoir_gates(res: qelm.Reservoir) -> list[quantum.GateOp]:
    """The CNOT or ROTATION reservoir as a gate list, rebuilt from its depth
    and sampled rotation layers (rotations, then the CNOT ring, per layer)."""
    ring = ring_gates(res.num_qubits, "CNOT")
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
    """One row at a time through Kronecker-embedded dense gates and the
    readout conj(a) @ embed(P, q, M) @ a: no `quantum` gate kernel, no
    `pauli_expectations` and no circuit layout from `qelm`, so it checks the
    compiled path's kernels and its ring and layer order."""
    m = enc.num_features
    if res.kind in ("CNOT", "ROTATION"):
        gates = reservoir_gates(res)
        embedded = {gate: dense_gate(gate, m) for gate in set(gates)}   # rings repeat
        reservoir = [embedded[gate] for gate in gates]
    else:
        reservoir = [reservoir_oracle(res, seed)]
    observables = [embed(PAULI[axis], q, m) for q in range(m) for axis in "XYZ"]
    rows = []
    for row in angles:
        amps = zero_state(m)
        for gate in encoder_gates(enc, row):
            amps = dense_gate(gate, m) @ amps
        for u in reservoir:
            amps = u @ amps
        rows.append([(amps.conj() @ p @ amps).real for p in observables])
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
    # one layer: RX(feature k) on qubit k, then CZ(0, 1), CZ(1, 2), CZ(2, 0)
    enc = EncoderSpec("DHE", 3)
    assert enc.axis_assignment == (("X", "X", "X"),)
    row = np.array([0.4, 1.3, 2.9])
    gates = [quantum.GateOp("RX", k, angle=t) for k, t in enumerate(row)]
    gates += [quantum.GateOp("CZ", 1, control=0), quantum.GateOp("CZ", 2, control=1),
              quantum.GateOp("CZ", 0, control=2)]
    expected = zero_state(3)
    for gate in gates:
        expected = dense_gate(gate, 3) @ expected
    np.testing.assert_allclose(qelm.encode_batch(enc, row)[0], expected,
                               rtol=0, atol=1e-15)


def test_rhe_encoder_axes_seeded():
    a = EncoderSpec("RHE", 3, seed=5)
    b = EncoderSpec("RHE", 3, seed=5)
    assert a.axis_assignment == b.axis_assignment
    assert all(ax in "XYZ" for layer in a.axis_assignment for ax in layer)
    # some seed produces a non-all-X assignment
    assert any(EncoderSpec("RHE", 3, seed=s).axis_assignment[0] != ("X", "X", "X")
               for s in range(5))


def test_dhe_axes_seed_independent():
    # the literal stability invariant: the DHE encoding ignores the seed
    specs = [EncoderSpec("DHE", 4, seed=s) for s in (None, 0, 1, 99)]
    assert all(s.axis_assignment == specs[0].axis_assignment for s in specs)
    angles = np.random.default_rng(4).uniform(0, np.pi, size=(3, 4))
    batches = [qelm.encode_batch(s, angles).tobytes() for s in specs]
    assert all(b == batches[0] for b in batches)


def test_encoder_depth_repeats_block():
    enc = EncoderSpec("DHE", 2, depth=2)
    assert enc.axis_assignment == (("X", "X"), ("X", "X"))
    # same angles rebound every layer: the depth-2 encoding is the one-layer
    # block applied twice
    row = np.array([0.7, 2.1])
    block = np.eye(4, dtype=complex)
    for gate in encoder_gates(EncoderSpec("DHE", 2), row):
        block = dense_gate(gate, 2) @ block
    np.testing.assert_allclose(qelm.encode_batch(enc, row)[0],
                               block @ block @ zero_state(2), rtol=0, atol=1e-15)


def test_encoder_rejects_single_qubit():
    enc = EncoderSpec("DHE", 1)
    with pytest.raises(ConfigurationError, match="2 qubits"):
        qelm.run_circuit_batch(enc, qelm.Reservoir("CNOT", 1, depth=0), [[0.1]])
    with pytest.raises(ConfigurationError, match="2 qubits"):
        qelm.encode_batch(enc, [[0.1]])


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


@pytest.mark.parametrize("build,field", [
    (lambda: ReservoirSpec("CNOT", 3, depth=True), "depth"),   # was a depth-1 CNOT
    (lambda: ReservoirSpec("ROTATION", 3, depth=1.5, seed=0), "depth"),
    (lambda: ReservoirSpec("HAAR", 2.5, seed=0), "num_qubits"),
    (lambda: ReservoirSpec("ROTATION", 2, depth=2,
                           rotation_layers=((("X", 0.1), ("Y", 0.2)),)), "rotation_layers"),
    (lambda: ReservoirSpec("ROTATION", 2, depth=1,
                           rotation_layers=((("X", 0.1), ("W", 0.2)),)), "rotation_layers"),
    (lambda: EncoderSpec("DHE", 3, depth=1.5), "depth"),   # was a raw TypeError
    (lambda: EncoderSpec("DHE", 0), "num_features"),
    (lambda: EncoderSpec("DHE", 2, depth=2, axis_assignment=(("X", "X"),)),
     "axis_assignment"),
])
def test_specs_reject_bad_fields(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


@pytest.mark.parametrize("kind", ["CNOT", "ROTATION"])
def test_ring_reservoirs_need_two_qubits(kind):
    # a one-qubit ring used to fail in build_reservoir with GateOp's
    # "control and target must differ"
    with pytest.raises(ConfigurationError, match="num_qubits"):
        ReservoirSpec(kind, 1, depth=1, seed=0)
    assert qelm.build_reservoir(ReservoirSpec(kind, 2, depth=1, seed=0)).num_qubits == 2


def test_rotation_spec_rejects_non_finite_angle():
    # a NaN angle made every entry of the compiled stage NaN
    with pytest.raises(ValidationError, match="rotation_layers"):
        ReservoirSpec("ROTATION", 2, depth=1,
                      rotation_layers=((("X", float("nan")), ("Y", 0.2)),))


def rotation_oracle(axis: str, angle: float) -> np.ndarray:
    """R_axis(t) = cos(t/2) I - i sin(t/2) P_axis written out entry by entry
    from math.cos and math.sin, independent of quantum.rotation_matrix."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return {"X": np.array([[c, -1j * s], [-1j * s, c]]),
            "Y": np.array([[c, -s], [s, c]], dtype=complex),
            "Z": np.array([[c - 1j * s, 0], [0, c + 1j * s]])}[axis]


def kron_rotations(layer) -> np.ndarray:
    """np.kron of the layer's rotations, the first entry on the least
    significant qubit."""
    mat = np.ones((1, 1), dtype=complex)
    for axis, angle in layer:
        mat = np.kron(rotation_oracle(axis, angle), mat)
    return mat


def cnot_ring_matrix(m: int) -> np.ndarray:
    """Permutation matrix of one CNOT ring from the gates' truth table: each
    CNOT(c, t) maps basis index i to i ^ (bit c of i) << t."""
    image = np.arange(1 << m)
    for gate in ring_gates(m, "CNOT"):
        image = image ^ (((image >> gate.control) & 1) << gate.target)
    perm = np.zeros((1 << m, 1 << m))
    perm[image, np.arange(1 << m)] = 1.0
    return perm


@pytest.mark.parametrize("depth", [1, 2, 10])
@pytest.mark.parametrize("m", range(1, 11))
def test_rotation_stages_match_kron_oracle(m, depth):
    seed = 100 * m + depth
    split = m - m // 2
    rng = np.random.default_rng(seed)
    layers = tuple(tuple((str(rng.choice(list("XYZ"))), float(rng.uniform(0, 2 * np.pi)))
                         for _ in range(m)) for _ in range(depth))
    low, high = qelm._rotation_factors(layers, split)
    assert (high is None) == (m == 1)
    for k, layer in enumerate(layers):
        np.testing.assert_allclose(low[k], kron_rotations(layer[:split]), rtol=0, atol=1e-15)
        if m > 1:
            np.testing.assert_allclose(high[k], kron_rotations(layer[split:]),
                                       rtol=0, atol=1e-15)
    if m == 1:
        return   # a one-qubit register has no CNOT ring, so no reservoir
    res = qelm.build_reservoir(ReservoirSpec("ROTATION", m, depth, rotation_layers=layers))
    dim = 1 << m
    if dim <= depth * ((1 << split) + (1 << (m - split))):
        assert len(res.stages) == 1 and res.stages[0].low.shape == (dim, dim)
        assert res.stages[0].high is None and res.stages[0].perm is None
    else:
        assert len(res.stages) == depth
        assert all(st.high is not None and st.perm is not None for st in res.stages)
    # compare on up to 64 basis columns, so M = 10 stays cheap
    cols = np.sort(np.random.default_rng(m).permutation(dim)[:64])
    expected = np.eye(dim, dtype=complex)[:, cols]
    ring = cnot_ring_matrix(m)
    for layer in layers:
        expected = ring @ (kron_rotations(layer) @ expected)
    amps = np.eye(dim, dtype=complex)[cols]
    for stage in res.stages:
        amps = stage.apply(amps)
    np.testing.assert_allclose(amps.T, expected, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("kind", ["CNOT", "HAAR", "ISING", "ROTATION"])
def test_run_circuit_batch_reads_a_shared_encoded_batch(kind):
    rng = np.random.default_rng(31)
    enc = EncoderSpec("RHE", 4, seed=3)
    angles = rng.uniform(0, np.pi, size=(5, 4))
    encoded = qelm.encode_batch(enc, angles)
    before = encoded.copy()
    encoded.flags.writeable = False   # any write into the shared batch raises
    for res in (qelm.build_reservoir(ReservoirSpec(kind, 4, depth=2, seed=7)),
                qelm.Reservoir("CNOT", 4, depth=0)):   # no stages at all
        shared = qelm.run_circuit_batch(enc, res, angles, encoded=encoded)
        assert shared.tobytes() == qelm.run_circuit_batch(enc, res, angles).tobytes()
    np.testing.assert_array_equal(encoded, before)


@pytest.mark.parametrize("shape", [(4, 16), (5, 8), (16,), (5, 16, 1)])
def test_run_circuit_batch_rejects_misshapen_encoded_batch(shape):
    enc = EncoderSpec("DHE", 4)
    with pytest.raises(ShapeError, match="encoded"):
        qelm.run_circuit_batch(enc, identity_reservoir(4), np.zeros((5, 4)),
                               encoded=np.zeros(shape, dtype=complex))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_fail_loudly(bad):
    # a NaN angle gave a row of NaN observations with no error
    enc = EncoderSpec("DHE", 2)
    res = qelm.build_reservoir(ReservoirSpec("HAAR", 2, seed=1))
    angles = np.array([[0.3, 0.1], [bad, 0.1]])
    with pytest.raises(ValidationError, match="finite"):
        qelm.run_circuit_batch(enc, res, angles)
    with pytest.raises(ValidationError, match="finite"):
        qelm.encode_batch(enc, angles)


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
    # NaN was stored silently; inf died in LAPACK with a raw LinAlgError
    for lam in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="ridge_lambda"):
            qelm.fit_readout(np.eye(2), [1.0, 2.0], ridge_lambda=lam)
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


def set_field(*path_and_value):
    *path, key, value = path_and_value

    def corrupt(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value
    corrupt.__name__ = f"set_{'_'.join(path + [key])}_{value}"   # the test id
    return corrupt


def nan_rotation_angle(doc):
    doc["reservoir"]["rotation_layers"][0][1][1] = float("nan")


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
    ("CNOT", set_field("reservoir", "depth", True), ConfigurationError, "depth"),
    ("ROTATION", set_field("reservoir", "depth", 1.5), ConfigurationError, "depth"),
    ("CNOT", set_field("encoder", "depth", 1.5), ConfigurationError, "depth"),
    ("CNOT", set_field("encoder", "num_features", 0), ConfigurationError, "num_features"),
    ("ROTATION", nan_rotation_angle, ValidationError, "rotation_layers"),
    ("ISING", set_field("reservoir", "ising", "time_step", float("inf")), ValidationError,
     "time_step"),
    ("HAAR", set_field("readout", "ridge_lambda", float("nan")), ValidationError,
     "ridge_lambda"),
    ("HAAR", set_field("readout", "ridge_lambda", float("inf")), ValidationError,
     "ridge_lambda"),
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
