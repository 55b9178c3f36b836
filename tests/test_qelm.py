"""QELM pipeline tests: normalization, encoder/reservoir structure, circuit
execution, least-squares readout against a normal-equation oracle, and
pipeline serialization."""
import json
import math
import pathlib

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
    return qelm.build_reservoir(ReservoirSpec("ISING", num_qubits, params=params))


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
    for layer in res.params:
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
        h = quantum.ising_hamiltonian(res.params)
        return scipy.linalg.expm(-1j * h * res.params.time_step)
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
    # the rings repeat across layers and rows: embed each of their gates once
    embedded = {gate: dense_gate(gate, m) for gate in ring_gates(m, "CZ")}
    if res.kind in ("CNOT", "ROTATION"):
        gates = reservoir_gates(res)
        embedded.update((gate, dense_gate(gate, m)) for gate in set(gates))
        reservoir = [embedded[gate] for gate in gates]
    else:
        reservoir = [reservoir_oracle(res, seed)]
    states = []
    for row in angles:
        amps = zero_state(m)
        for gate in encoder_gates(enc, row):
            amps = (embedded[gate] if gate in embedded else dense_gate(gate, m)) @ amps
        for u in reservoir:
            amps = u @ amps
        states.append(amps)
    states = np.array(states)
    # one dense observable at a time: at 10 qubits each takes 16 MB
    return np.column_stack([np.sum(states.conj() * (states @ embed(PAULI[axis], q, m).T),
                                   axis=1).real
                            for q in range(m) for axis in "XYZ"])


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


def row_major_encode(enc: EncoderSpec, angles: np.ndarray) -> np.ndarray:
    """Oracle: the product state grown in the (P, 2^M) batch itself, one
    qubit at a time, then the re-uploaded layers and the CZ ring signs."""
    m = enc.num_features
    bits = quantum.basis_bits(m)
    ring_signs = 1.0 - 2.0 * ((bits & np.roll(bits, -1, axis=1)).sum(axis=1) & 1)
    layers = [quantum.rotation_matrix(axes, angles) for axes in enc.axis_assignment]
    on_zero = layers[0][..., 0]
    amps = np.empty((len(angles), 1 << m), dtype=complex)
    amps[:, 0], amps[:, 1] = on_zero[:, 0, 0], on_zero[:, 0, 1]
    for q in range(1, m):
        half = 1 << q
        np.multiply(on_zero[:, q, 1, None], amps[:, :half], out=amps[:, half:2 * half])
        amps[:, :half] *= on_zero[:, q, 0, None]
    amps *= ring_signs
    for rot in layers[1:]:
        for k in range(m):
            amps = quantum.apply_single_qubit(amps, m, k, rot[:, k])
        amps *= ring_signs
    return amps


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("m", range(2, 11))
def test_encode_batch_matches_row_major_oracle(m, depth):
    # below LONG_SLICE_QUBITS the product state is built over all rows at
    # once and transposed: the same products, so the same bits
    for seed in (0, 7, 18):
        rows = 1 + (seed * 37) % 300 if m < 8 else 1 + seed % 40
        angles = np.random.default_rng(seed).uniform(0.0, np.pi, (rows, m))
        for enc in (EncoderSpec("RHE", m, depth=depth, seed=seed), EncoderSpec("DHE", m, depth)):
            batch = qelm.encode_batch(enc, angles)
            assert batch.flags.c_contiguous
            assert np.array_equal(batch, row_major_encode(enc, angles))
            assert batch.tobytes() == row_major_encode(enc, angles).tobytes()


@pytest.mark.parametrize("axis", quantum.PAULI_KINDS)
def test_first_encoder_column_is_the_rotation_column(axis):
    # R|0> built from the cosine and sine alone has the bytes of column 0 of
    # rotation_matrix, signed zeros included
    angles = np.array([[0.0, -0.0, np.pi, -np.pi, 1e-300, 2 * np.pi, -7.0, 0.3]]).T
    angles = np.hstack([angles, np.random.default_rng(1).uniform(-9.0, 9.0, (8, 1))])
    axes = (axis, "Y" if axis != "Y" else "Z")
    column = qelm._first_column(axes, angles)
    assert column.tobytes() == quantum.rotation_matrix(axes, angles)[..., 0].tobytes()


def test_encoder_rejects_single_qubit():
    # used to construct and fail only when run
    with pytest.raises(ConfigurationError, match="2 qubits"):
        EncoderSpec("DHE", 1)


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
    assert len(res.params) == 2
    for layer in res.params:
        assert len(layer) == 3
        for axis, angle in layer:
            assert axis in "XYZ" and 0.0 <= angle < 2 * np.pi
    assert len(reservoir_gates(res)) == 12   # per layer: 3 rotations + 3 ring CNOTs
    # one stage per layer, two Kronecker factors and the ring, at every width
    assert len(res.stages) == 2
    assert all(st.high is not None and st.perm is not None for st in res.stages)
    np.testing.assert_allclose(stages_matrix(res), reservoir_oracle(res, 8), atol=1e-12)
    again = qelm.build_reservoir(ReservoirSpec("ROTATION", 3, depth=2, seed=8))
    assert again.params == res.params
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


@pytest.mark.parametrize("m", [2, 3, 5, 7, 8])
def test_ising_reservoir_stage_matches_expm(m):
    res = qelm.build_reservoir(ReservoirSpec("ISING", m, seed=m))
    np.testing.assert_allclose(stages_matrix(res), reservoir_oracle(res, m), atol=1e-10)


def test_ising_reservoir_width_rule():
    # one dense stage below ISING_PARITY_QUBITS, the two parity blocks from there
    narrow = qelm.build_reservoir(ReservoirSpec("ISING", 6, seed=1))
    assert len(narrow.stages) == 1 and narrow.stages[0].parity is None
    assert narrow.stages[0].low.shape == (64, 64)
    assert narrow.stages[0].high is None and narrow.stages[0].perm is None
    wide = qelm.build_reservoir(ReservoirSpec("ISING", 7, seed=1))
    assert len(wide.stages) == 1 and wide.stages[0].low is None
    assert wide.stages[0].high is None and wide.stages[0].perm is None
    assert [u.shape for u in wide.stages[0].parity] == [(64, 64), (64, 64)]


def test_haar_reservoir_width_rule():
    # one dense stage below HAAR_REFLECTOR_QUBITS, the Householder reflectors from there
    narrow = qelm.build_reservoir(ReservoirSpec("HAAR", 8, seed=1))
    assert len(narrow.stages) == 1 and narrow.stages[0].reflectors is None
    assert narrow.stages[0].low is narrow.params and narrow.params.shape == (256, 256)
    wide = qelm.build_reservoir(ReservoirSpec("HAAR", 9, seed=1))
    assert len(wide.stages) == 1
    stage = wide.stages[0]
    assert stage.low is None and stage.high is None and stage.perm is None
    assert stage.parity is None
    phases, blocks = stage.reflectors
    assert phases.shape == (512,)
    assert [start for start, _, _ in blocks] == list(range(0, 512, qelm.WY_BLOCK))
    assert [u.shape for u in wide.params] == [(512, 512), (512,)]
    np.testing.assert_allclose(stages_matrix(wide), quantum.haar_unitary(512, 1),
                               rtol=0, atol=1e-12)


def test_identity_ising_reservoir_equals_encoder_only():
    enc = EncoderSpec("DHE", 3)
    angles = np.array([0.3, 1.0, 2.0])
    with_res = qelm.run_circuit_batch(enc, identity_reservoir(3), angles)[0]
    cnot_zero_depth = qelm.Reservoir("CNOT", 3, depth=0)  # no stages: encoder only
    without = qelm.run_circuit_batch(enc, cnot_zero_depth, angles)[0]
    np.testing.assert_allclose(with_res, without, atol=1e-12)


def test_reservoir_spec_field_validation():
    with pytest.raises(ConfigurationError):
        ReservoirSpec("CNOT", 3, params=quantum.sample_ising_params(3, 0))
    with pytest.raises(ConfigurationError):
        ReservoirSpec("ISING", 3, params=((("X", 0.1),),))
    with pytest.raises(ConfigurationError):
        ReservoirSpec("WEIRD", 3)
    with pytest.raises(ConfigurationError):
        qelm.build_reservoir(ReservoirSpec("HAAR", 3))  # no seed


PARAM_CASES = [("CNOT", 3), ("CNOT", 9), ("ROTATION", 3), ("ROTATION", 9),
               ("ISING", 3), ("ISING", 7), ("HAAR", 3), ("HAAR", 9)]


@pytest.mark.parametrize("kind,m", PARAM_CASES, ids=[f"{k}-{m}" for k, m in PARAM_CASES])
def test_reservoir_params_rebuild_the_same_stages(kind, m):
    # a reservoir is its params: a spec carrying them compiles the same stages
    res = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=m))
    again = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, params=res.params))
    assert again.params is res.params and len(again.stages) == len(res.stages)
    amps = qelm.encode_batch(EncoderSpec("RHE", m, seed=1),
                             np.random.default_rng(m).uniform(0, np.pi, size=(4, m)))
    original = rebuilt = amps
    for first, second in zip(res.stages, again.stages):
        original, rebuilt = first.apply(original), second.apply(rebuilt)
    assert original.tobytes() == rebuilt.tobytes()


def break_tau(qr, tau):
    tau = tau.copy()
    tau[0] = 0.5
    return qr, tau


def zero_r_diagonal(qr, tau):
    qr = qr.copy()
    qr[2, 2] = 0.0
    return qr, tau


@pytest.mark.parametrize("params,fragment", [
    (lambda: quantum.haar_unitary(8, 1) * 1.01, "must be a 8x8 unitary"),
    (lambda: quantum.haar_unitary(4, 1), "must be a 8x8 unitary"),
    (lambda: break_tau(*quantum.haar_reflectors(8, 1)), "make reflector 0 non-unitary"),
    (lambda: zero_r_diagonal(*quantum.haar_reflectors(8, 1)), "'reflectors' has a zero"),
    (lambda: quantum.haar_reflectors(4, 1), "'reflectors' and 'tau' must be 8x8"),
], ids=["non-unitary", "wrong-size", "tau", "zero-diagonal", "reflectors-size"])
def test_haar_spec_rejects_bad_params(params, fragment):
    # refused as a document with the same parameters is
    with pytest.raises(ValidationError, match=fragment):
        ReservoirSpec("HAAR", 3, params=params())


@pytest.mark.parametrize("build,field", [
    (lambda: ReservoirSpec("CNOT", 3, depth=True), "depth"),   # was a depth-1 CNOT
    (lambda: ReservoirSpec("ROTATION", 3, depth=1.5, seed=0), "depth"),
    (lambda: ReservoirSpec("HAAR", 2.5, seed=0), "num_qubits"),
    (lambda: ReservoirSpec("ROTATION", 2, depth=2,
                           params=((("X", 0.1), ("Y", 0.2)),)), "rotation_layers"),
    (lambda: ReservoirSpec("ROTATION", 2, depth=1,
                           params=((("X", 0.1), ("W", 0.2)),)), "rotation_layers"),
    (lambda: EncoderSpec("DHE", 3, depth=1.5), "depth"),   # was a raw TypeError
    (lambda: EncoderSpec("DHE", 0), "num_features"),
    (lambda: EncoderSpec("DHE", 2, depth=2, axis_assignment=(("X", "X"),)),
     "axis_assignment"),
    # each constructed and failed only when run, without naming a field
    pytest.param(lambda: EncoderSpec("DHE", 20), "num_features", id="encoder-20-qubits"),
    pytest.param(lambda: ReservoirSpec("HAAR", 13, seed=1), "num_qubits", id="haar-13-qubits"),
    pytest.param(lambda: ReservoirSpec("ISING", 13, seed=1), "num_qubits",
                 id="ising-13-qubits"),
    # -1 was numpy's raw ValueError, 1.5 and "a" a raw TypeError, True seed 1
    pytest.param(lambda: EncoderSpec("RHE", 3, seed=-1), "seed", id="encoder-seed-negative"),
    pytest.param(lambda: EncoderSpec("RHE", 3, seed=1.5), "seed", id="encoder-seed-float"),
    pytest.param(lambda: EncoderSpec("RHE", 3, seed="a"), "seed", id="encoder-seed-string"),
    pytest.param(lambda: EncoderSpec("DHE", 3, seed=True), "seed", id="encoder-seed-bool"),
    pytest.param(lambda: ReservoirSpec("HAAR", 3, seed=-1), "seed",
                 id="reservoir-seed-negative"),
    pytest.param(lambda: ReservoirSpec("ISING", 3, seed=1.5), "seed",
                 id="reservoir-seed-float"),
    pytest.param(lambda: ReservoirSpec("ROTATION", 3, seed="a"), "seed",
                 id="reservoir-seed-string"),
    pytest.param(lambda: ReservoirSpec("CNOT", 3, seed=True), "seed",
                 id="reservoir-seed-bool"),
    pytest.param(lambda: ReservoirSpec("CNOT", 3, params=()), "params", id="cnot-params"),
    # a tuple seed asks for a stack of draws
    pytest.param(lambda: ReservoirSpec("HAAR", 3, seed=()), "seed", id="stack-empty"),
    pytest.param(lambda: ReservoirSpec("HAAR", 3, seed=(1, -2)), "seed", id="stack-negative"),
    pytest.param(lambda: ReservoirSpec("ISING", 3, seed=(1, True)), "seed", id="stack-bool"),
    pytest.param(lambda: ReservoirSpec("ROTATION", 3, seed=(1, 2.5)), "seed",
                 id="stack-float"),
    pytest.param(lambda: ReservoirSpec("ROTATION", 3, seed=(1, "a")), "seed",
                 id="stack-string"),
    pytest.param(lambda: ReservoirSpec("HAAR", 3, seed=(1, None)), "seed", id="stack-none"),
    # nothing to draw, or stages that hold one draw each
    pytest.param(lambda: ReservoirSpec("CNOT", 3, seed=(1, 2)), "seed", id="stack-cnot"),
    pytest.param(lambda: ReservoirSpec("HAAR", qelm.HAAR_REFLECTOR_QUBITS, seed=(1, 2)),
                 "seed", id="stack-haar-reflectors"),
    pytest.param(lambda: ReservoirSpec("ISING", qelm.ISING_PARITY_QUBITS, seed=(1, 2)),
                 "seed", id="stack-ising-parity"),
    pytest.param(lambda: ReservoirSpec("ISING", 3, seed=(1, 2),
                                       params=quantum.sample_ising_params(3, 1)),
                 "params", id="stack-params"),
    pytest.param(lambda: ReservoirSpec("ISING", 3, params=quantum.sample_ising_params(4, 0)),
                 "params", id="ising-params-width"),
])
def test_specs_reject_bad_fields(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


@pytest.mark.parametrize("build,field", [
    (lambda: ReservoirSpec("ROTATION", 3, depth=1, params=5), "'rotation_layers'"),
    (lambda: ReservoirSpec("ROTATION", 3, depth=1, params=((("X", 0.1, 7),) * 3,)),
     "'rotation_layers'"),
    (lambda: EncoderSpec("RHE", 3, axis_assignment=(5,)), "'axis_assignment'"),
], ids=["rotation-layers-not-a-list", "rotation-entry-not-a-pair", "axes-not-nested"])
def test_specs_reject_malformed_nesting(build, field):
    # len() or unpacking of these was a raw TypeError or ValueError
    with pytest.raises(ValidationError, match=field):
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
                      params=((("X", float("nan")), ("Y", 0.2)),))


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
    for k, layer in enumerate(layers):   # at m = 1, high holds 1x1 identities
        np.testing.assert_allclose(low[k], kron_rotations(layer[:split]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(high[k], kron_rotations(layer[split:]), rtol=0, atol=1e-15)
    if m == 1:
        return   # a one-qubit register has no CNOT ring, so no reservoir
    res = qelm.build_reservoir(ReservoirSpec("ROTATION", m, depth, params=layers))
    dim = 1 << m
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


ORACLE_CASES = ([(depth, m, enc, kind) for depth in (1, 2) for m in (2, 3, 5)
                 for enc in ("DHE", "RHE") for kind in qelm.RESERVOIR_KINDS]
                # 7 qubits: ISING runs as its two parity blocks
                + [(depth, 7, enc, "ISING") for depth in (1, 2) for enc in ("DHE", "RHE")]
                # 9 and 10 qubits: HAAR runs as its Householder reflectors
                + [(1, m, enc, "HAAR") for m in (9, 10) for enc in ("DHE", "RHE")])


@pytest.mark.parametrize("encoder_depth,m,encoder_kind,kind", ORACLE_CASES,
                         ids=["-".join(map(str, case)) for case in ORACLE_CASES])
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


@pytest.mark.parametrize("kind,m", [("CNOT", 4), ("HAAR", 4), ("ISING", 4), ("ROTATION", 4),
                                    ("ISING", 7)],   # the parity-block stage
                         ids=["CNOT", "HAAR", "ISING", "ROTATION", "ISING-7"])
def test_run_circuit_batch_reads_a_shared_encoded_batch(kind, m):
    rng = np.random.default_rng(31)
    enc = EncoderSpec("RHE", m, seed=3)
    angles = rng.uniform(0, np.pi, size=(5, m))
    encoded = qelm.encode_batch(enc, angles)
    before = encoded.copy()
    encoded.flags.writeable = False   # any write into the shared batch raises
    for res in (qelm.build_reservoir(ReservoirSpec(kind, m, depth=2, seed=7)),
                qelm.Reservoir("CNOT", m, depth=0)):   # no stages at all
        shared = qelm.run_circuit_batch(enc, res, angles, encoded=encoded)
        assert shared.tobytes() == qelm.run_circuit_batch(enc, res, angles).tobytes()
    np.testing.assert_array_equal(encoded, before)


@pytest.mark.parametrize("kind", qelm.RESERVOIR_KINDS)
def test_run_circuit_batch_row_blocks_match_one_block(monkeypatch, kind):
    # 9 qubits, two full row blocks and a remainder; HAAR runs as reflectors
    m = 9
    rows = 2 * (qelm.BLOCK_AMPLITUDES >> m) + 37
    rng = np.random.default_rng(41)
    enc = EncoderSpec("RHE", m, seed=2)
    res = qelm.build_reservoir(ReservoirSpec(kind, m, depth=2, seed=6))
    angles = rng.uniform(0, np.pi, size=(rows, m))
    encoded = qelm.encode_batch(enc, angles)
    assert encoded.size > qelm.BLOCK_AMPLITUDES
    before = encoded.copy()
    encoded.flags.writeable = False   # any write into the shared batch raises
    blocked = qelm.run_circuit_batch(enc, res, angles)
    shared = qelm.run_circuit_batch(enc, res, angles, encoded=encoded)
    assert encoded.tobytes() == before.tobytes()
    assert shared.tobytes() == blocked.tobytes()
    monkeypatch.setattr(qelm, "BLOCK_AMPLITUDES", encoded.size)
    whole = qelm.run_circuit_batch(enc, res, angles)
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-13)


def frozen_encoder(m: int, frozen: int, depth: int = 1) -> EncoderSpec:
    """An RHE encoder whose first `frozen` qubits are Z in every layer and
    whose others cycle through X and Y."""
    return EncoderSpec("RHE", m, depth=depth, axis_assignment=tuple(
        tuple("Z" if q < frozen else "XY"[(q + k) % 2] for q in range(m))
        for k in range(depth)))


def stage_path_observations(enc: EncoderSpec, res: qelm.Reservoir,
                            angles: np.ndarray) -> np.ndarray:
    """The full-width path: every encoded row through each stage, then the
    readout."""
    amps = qelm.encode_batch(enc, angles)
    for stage in res.stages:
        amps = stage.apply(amps)
    return quantum.pauli_expectations(amps, enc.num_features)


def stage_bytes(reservoir: qelm.Reservoir) -> list:
    return [None if a is None else a.tobytes() for stage in reservoir.stages
            for a in (stage.low, stage.high, stage.perm, stage.parity, stage.reflectors)]


@pytest.mark.parametrize("kind", ["HAAR", "ISING", "ROTATION"])
@pytest.mark.parametrize("m", range(2, 7))
def test_stacked_reservoir_slices_equal_single_builds(kind, m):
    # a tuple of seeds builds one stack of draws through one stacked QR,
    # eigh or broadcast; each draw of it is its seed's reservoir bit for bit
    seeds = (5, 6, 7)
    stack = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=seeds))
    assert stack.draws == 3 and stack[1:].draws == 2
    assert stack.stages[0].low.shape[0] == 3
    for i, seed in enumerate(seeds):
        single = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=seed))
        draw, part = stack[i], stack[i:i + 1]
        assert single.draws is None and draw.draws is None and part.draws == 1
        assert stage_bytes(draw) == stage_bytes(single)
        assert stage_bytes(part[0]) == stage_bytes(single)
        if kind == "HAAR":
            assert draw.params.tobytes() == single.params.tobytes()
        elif kind == "ISING":
            assert draw.params.couplings.tobytes() == single.params.couplings.tobytes()
            assert draw.params.fields.tobytes() == single.params.fields.tobytes()
        else:
            assert draw.params == single.params


def test_only_a_stack_is_indexed():
    with pytest.raises(ShapeError, match="stack"):
        qelm.build_reservoir(ReservoirSpec("HAAR", 3, seed=1))[0]


@pytest.mark.parametrize("kind", ["HAAR", "ISING", "ROTATION"])
def test_stacked_circuit_run_equals_per_draw_runs(kind):
    # with and without frozen Z qubits, on the stages and through the
    # transfer matrix: each slice of a stacked run is its draw's run
    m, seeds = 4, (11, 12, 13)
    stack = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=seeds))
    singles = [qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=s)) for s in seeds]
    rng = np.random.default_rng(4)
    paths = set()
    for axes in (("X", "Y", "X", "X"), ("Z", "X", "Z", "Y")):   # none frozen, two frozen
        enc = EncoderSpec("RHE", m, axis_assignment=(axes,))
        for rows in (1, 300):
            angles = rng.uniform(0.0, np.pi, (rows, m))
            paths.add(qelm._support_transfer(enc, stack, rows) is None)
            obs = qelm.run_circuit_batch(enc, stack, angles)
            shared = qelm.run_circuit_batch(enc, stack, angles, qelm.encode_batch(enc, angles))
            assert obs.shape == (3, rows, 3 * m) and obs.tobytes() == shared.tobytes()
            for single, draw_obs in zip(singles, obs):
                assert draw_obs.tobytes() == qelm.run_circuit_batch(enc, single, angles).tobytes()
    assert paths == {True, False}


def test_pipeline_and_training_refuse_a_stack(monkeypatch):
    stack = qelm.build_reservoir(ReservoirSpec("HAAR", 2, seed=(1, 2)))
    enc = EncoderSpec("DHE", 2)
    norm = qelm.NormalizationParams([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValidationError, match="stack of 2 draws"):
        qelm.Pipeline(norm, enc, stack, qelm.ReadoutModel(np.zeros(6)))
    # refused before any reservoir is built
    monkeypatch.setattr(qelm, "build_reservoir", lambda spec: pytest.fail("built"))
    features = np.random.default_rng(0).uniform(size=(20, 2))
    with pytest.raises(ConfigurationError, match="seed"):
        qelm.qelm_train((features, features.sum(axis=1)), enc,
                        ReservoirSpec("HAAR", 2, seed=(1, 2)))


def test_stage_multiply_adds():
    # per row of a (P, 2^M) batch: each GEMM's inner dimension times its output width
    dim = 512
    low, high, perm = np.eye(32), np.eye(16), np.arange(dim)
    assert qelm.Stage(low, high, perm).multiply_adds(dim) == dim * (32 + 16)
    assert qelm.Stage(perm=perm).multiply_adds(dim) == 0
    assert qelm.Stage(np.eye(dim)).multiply_adds(dim) == dim * dim
    ising = qelm.build_reservoir(ReservoirSpec("ISING", 9, seed=1)).stages[0]
    assert ising.multiply_adds(dim) == 2 * (dim // 2) ** 2
    haar = qelm.build_reservoir(ReservoirSpec("HAAR", 9, seed=1)).stages[0]
    # block b of 64 reflectors: W is (dim - 64 b, 64), applied then its V^T
    assert haar.multiply_adds(dim) == sum(2 * (dim - start) * qelm.WY_BLOCK
                                          for start in range(0, dim, qelm.WY_BLOCK))


# id: (kind, qubits, reservoir depth, frozen qubits, rows, the compiled form);
# with no qubit frozen the support is every index, which a narrow ROTATION
# batch takes from 44 rows on at M = 5 and depth 10
SUBSPACE_CASES = {
    "dense": ("HAAR", 4, 1, 2, 40, "dense"),
    "parity": ("ISING", 7, 1, 3, 64, "parity"),
    "reflectors": ("HAAR", 9, 1, 3, 200, "reflectors"),
    "staged": ("ROTATION", 9, 2, 4, 120, "staged"),
    "unfrozen": ("ROTATION", 5, 10, 0, 64, "staged"),
}


def is_dense(stage: qelm.Stage) -> bool:
    return stage.low is not None and stage.high is None and stage.perm is None


FORMS = {"dense": is_dense,
         "parity": lambda stage: stage.parity is not None,
         "reflectors": lambda stage: stage.reflectors is not None,
         "staged": lambda stage: stage.high is not None and stage.perm is not None}


@pytest.mark.parametrize("kind,m,depth,frozen,rows,form", list(SUBSPACE_CASES.values()),
                         ids=list(SUBSPACE_CASES))
def test_subspace_rule_matches_the_stage_path(kind, m, depth, frozen, rows, form):
    res = qelm.build_reservoir(ReservoirSpec(kind, m, depth=depth, seed=m))
    assert all(FORMS[form](stage) for stage in res.stages)
    enc = frozen_encoder(m, frozen)
    support, transfer = qelm._support_transfer(enc, res, rows)
    assert transfer.shape == (1 << (m - frozen), 1 << m)
    np.testing.assert_array_equal(support, [i for i in range(1 << m) if i % (1 << frozen) == 0])
    angles = np.random.default_rng(m).uniform(0, np.pi, size=(rows, m))
    encoded = qelm.encode_batch(enc, angles)
    # the rule rests on exact zeros: every amplitude with a frozen bit set is 0
    assert not np.any(np.delete(encoded, support, axis=1))
    before = encoded.copy()
    encoded.flags.writeable = False   # any write into the shared batch raises
    observed = qelm.run_circuit_batch(enc, res, angles)
    np.testing.assert_allclose(observed, stage_path_observations(enc, res, angles),
                               rtol=0, atol=1e-12)
    shared = qelm.run_circuit_batch(enc, res, angles, encoded=encoded)
    assert shared.tobytes() == observed.tobytes()
    assert encoded.tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["HAAR", "ISING", "ROTATION"])
@pytest.mark.parametrize("encoder_depth", [1, 2])
def test_subspace_rule_matches_gate_by_gate_oracle(kind, encoder_depth):
    m, rows, seed = 5, 40, 50 + encoder_depth
    enc = frozen_encoder(m, 2, depth=encoder_depth)
    res = qelm.build_reservoir(ReservoirSpec(kind, m, depth=3, seed=seed))
    assert qelm._support_transfer(enc, res, rows) is not None
    angles = np.random.default_rng(seed).uniform(0, np.pi, size=(rows, m))
    np.testing.assert_allclose(qelm.run_circuit_batch(enc, res, angles),
                               gate_by_gate_observations(enc, res, seed, angles),
                               rtol=0, atol=1e-12)


def test_a_qubit_that_is_z_in_one_layer_only_is_not_frozen():
    # qubit 0 is Z in both layers; qubit 1 is Z in the first only, and the
    # second layer's X rotation moves it out of |0>
    m, rows = 5, 40
    enc = EncoderSpec("RHE", m, depth=2, axis_assignment=(("Z", "Z", "X", "Y", "X"),
                                                          ("Z", "X", "Y", "X", "Y")))
    res = qelm.build_reservoir(ReservoirSpec("HAAR", m, seed=3))
    support, transfer = qelm._support_transfer(enc, res, rows)
    np.testing.assert_array_equal(support, np.arange(0, 1 << m, 2))
    angles = np.random.default_rng(3).uniform(0.5, 2.5, size=(rows, m))
    assert np.any(qelm.encode_batch(enc, angles)[:, 2::4])   # bit 1 set, bit 0 clear
    np.testing.assert_allclose(qelm.run_circuit_batch(enc, res, angles),
                               stage_path_observations(enc, res, angles),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(qelm.run_circuit_batch(enc, res, angles),
                               gate_by_gate_observations(enc, res, 3, angles),
                               rtol=0, atol=1e-12)


def test_subspace_rule_declines_where_it_saves_nothing(monkeypatch):
    m, frozen = 7, 3
    enc = frozen_encoder(m, frozen)
    res = qelm.build_reservoir(ReservoirSpec("ISING", m, seed=2))
    size, dim, cost = 1 << (m - frozen), 1 << m, 2 * (1 << (m - 1)) ** 2
    # size * (cost + rows * dim) < rows * cost from 22 rows on
    assert qelm._support_transfer(enc, res, 21) is None
    assert qelm._support_transfer(enc, res, 22) is not None
    assert qelm._support_transfer(enc, res, 1) is None
    assert qelm._support_transfer(frozen_encoder(m, 0), res, 10 ** 6) is None
    cnot = qelm.build_reservoir(ReservoirSpec("CNOT", m))   # a permutation costs nothing
    assert qelm._support_transfer(enc, cnot, 10 ** 6) is None
    # the transfer matrix must fit one row block
    monkeypatch.setattr(qelm, "BLOCK_AMPLITUDES", size * dim - 1)
    assert qelm._support_transfer(enc, res, 10 ** 6) is None
    monkeypatch.setattr(qelm, "BLOCK_AMPLITUDES", size * dim)
    assert qelm._support_transfer(enc, res, 10 ** 6) is not None
    assert cost == res.stages[0].multiply_adds(dim)


@pytest.mark.parametrize("kind", qelm.ENCODER_KINDS)
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_narrow_rotation_rows_and_batches_agree(m, kind, monkeypatch):
    # one row runs the ten staged layers; a batch past the break-even (44
    # rows at M = 5) runs as one GEMM through the transfer on the support
    features, targets = make_training_data(m=m, p=60, seed=m)
    pipeline = qelm.qelm_train((features, targets), EncoderSpec(kind, m, seed=m),
                               ReservoirSpec("ROTATION", m, seed=m))
    assert len(pipeline.reservoir.stages) == 10
    rule, decisions = qelm._support_transfer, []
    monkeypatch.setattr(qelm, "_support_transfer",
                        lambda *args: decisions.append(rule(*args)) or decisions[-1])
    rows = [pipeline.predict(row) for row in features]
    batch = pipeline.predict_batch(features)
    assert all(d is None for d in decisions[:-1]) and decisions[-1] is not None
    np.testing.assert_allclose(rows, batch, rtol=0, atol=1e-12)


def test_one_row_prediction_takes_the_stage_path(monkeypatch):
    features, targets = make_training_data(m=4, p=60)
    pipeline = qelm.qelm_train((features, targets), frozen_encoder(4, 2),
                               ReservoirSpec("HAAR", 4, seed=5))
    rule, decisions = qelm._support_transfer, []
    monkeypatch.setattr(qelm, "_support_transfer",
                        lambda *args: decisions.append(rule(*args)) or decisions[-1])
    pipeline.predict(features[0])
    pipeline.predict_batch(features)
    assert decisions[0] is None and decisions[1] is not None


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
        EncoderSpec("DHE", m)
    with pytest.raises(ConfigurationError):
        ReservoirSpec("ROTATION", m, seed=0)


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


def test_batches_of_more_than_two_dimensions_are_refused():
    # each was numpy's raw "could not broadcast" ValueError
    enc = EncoderSpec("DHE", 3)
    with pytest.raises(ShapeError, match=r"shape \(4, 3, 1\)"):
        qelm.run_circuit_batch(enc, identity_reservoir(3), np.zeros((4, 3, 1)))
    with pytest.raises(ShapeError, match=r"shape \(4, 3, 1\)"):
        qelm.encode_batch(enc, np.zeros((4, 3, 1)))


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
    # True was stored as 1.0 and "1" died in np.sqrt with a raw TypeError
    for lam in (np.nan, np.inf, True, "1"):
        with pytest.raises(ValidationError, match="ridge_lambda"):
            qelm.fit_readout(np.eye(2), [1.0, 2.0], ridge_lambda=lam)
    with pytest.raises(ShapeError):
        qelm.fit_readout(np.eye(2), [1.0, 2.0, 3.0])


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


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (1, 3)])
def test_predict_takes_one_row(shape):
    # a 3x3 array was numpy's raw broadcast error, a 5x3 one "expected 3 angles
    # per row, got 5"
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec("CNOT", 3))
    with pytest.raises(ShapeError, match="predict_batch"):
        pipe.predict(np.ones(shape))


def test_qelm_train_shape_guard():
    features, targets = make_training_data(m=3)
    with pytest.raises(ShapeError):
        qelm.qelm_train((features, targets), EncoderSpec("DHE", 4),
                        ReservoirSpec("CNOT", 4))


@pytest.mark.parametrize("features,targets,error,fragment", [
    # a raw IndexError "tuple index out of range"
    (np.arange(4.0), np.arange(4.0), ShapeError, "2-D"),
    (np.ones((2, 2, 3)), np.arange(2.0), ShapeError, "2-D"),
    (np.empty((0, 3)), np.empty(0), ValidationError, "at least one row"),
    # numpy's raw ValueError "could not convert string to float"
    (np.ones((3, 3)), ["1.0", "2.0", "x"], ValidationError, "'targets'"),
    ([[1.0, 2.0, "a"]] * 3, np.arange(3.0), ValidationError, "'features'"),
    (np.ones((3, 3)), [1.0, np.nan, 2.0], ValidationError, "'targets'"),
], ids=["1-D", "3-D", "no-rows", "string-targets", "string-features", "nan-target"])
def test_qelm_train_checks_its_inputs(features, targets, error, fragment):
    with pytest.raises(error, match=fragment):
        qelm.qelm_train((features, targets), EncoderSpec("DHE", 3), ReservoirSpec("CNOT", 3))


def test_qelm_train_checks_target_length_before_the_circuit(monkeypatch):
    # the check sat in fit_readout, after the reservoir was built and the circuit run
    built = []
    monkeypatch.setattr(qelm, "build_reservoir", lambda spec: built.append(spec))
    features, targets = make_training_data()
    for short in (targets[:-1], targets[:, None]):
        with pytest.raises(ShapeError, match="one entry per feature row"):
            qelm.qelm_train((features, short), EncoderSpec("DHE", 3),
                            ReservoirSpec("HAAR", 3, seed=1))
    assert built == []


@pytest.mark.parametrize("lam,spec,error,fragment", [
    (-1.0, ReservoirSpec("HAAR", 3, seed=1), ValidationError, "ridge_lambda"),
    (0.0, ReservoirSpec("HAAR", 4, seed=1), ShapeError, "reservoir size")])
def test_qelm_train_checks_lambda_and_width_before_the_build(monkeypatch, lam, spec,
                                                             error, fragment):
    # both were refused only after one reservoir build
    built = []
    monkeypatch.setattr(qelm, "build_reservoir", lambda spec: built.append(spec))
    with pytest.raises(error, match=fragment):
        qelm.qelm_train(make_training_data(), EncoderSpec("DHE", 3), spec, ridge_lambda=lam)
    assert built == []


@pytest.mark.parametrize("kind", ["ISING", "HAAR", "ROTATION"])
def test_trained_pipelines_are_frozen(kind):
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec(kind, 3, seed=2))
    probe = pipe.predict_batch(features)
    arrays = [pipe.normalization.mins, pipe.normalization.maxs, pipe.readout.weights]
    arrays += [a for stage in pipe.reservoir.stages for a in (stage.low, stage.high, stage.perm)
               if a is not None]
    arrays += ([pipe.reservoir.params.couplings, pipe.reservoir.params.fields]
               if kind == "ISING" else [pipe.reservoir.params] if kind == "HAAR" else [])
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 99
    for part, name in [(pipe, "training_rss"), (pipe, "readout"), (pipe.encoder, "depth"),
                       (pipe.reservoir, "params"), (pipe.normalization, "mins"),
                       (pipe.readout, "ridge_lambda"), (pipe.reservoir.stages[0], "low")]:
        with pytest.raises(AttributeError):
            setattr(part, name, None)
    assert pipe.predict_batch(features).tobytes() == probe.tobytes()


def test_frozen_arrays_are_views_of_the_callers():
    # read-only views, not copies; the caller's arrays stay writeable
    mins, maxs, weights = np.zeros(3), np.ones(3), np.arange(9.0)
    norm = qelm.NormalizationParams(mins, maxs)
    readout = qelm.ReadoutModel(weights)
    for given, held in ((mins, norm.mins), (maxs, norm.maxs), (weights, readout.weights)):
        assert np.shares_memory(given, held) and not held.flags.writeable
        assert given.flags.writeable


def test_pipeline_checks_that_its_parts_fit():
    features, targets = make_training_data()
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", 3),
                           ReservoirSpec("CNOT", 3))
    parts = dict(normalization=pipe.normalization, encoder=pipe.encoder,
                 reservoir=pipe.reservoir, readout=pipe.readout)
    for change, fragment in [
            (dict(encoder=EncoderSpec("DHE", 2)), "width"),
            (dict(normalization=qelm.NormalizationParams([0.0, 0.0], [1.0, 1.0])), "width"),
            (dict(reservoir=qelm.build_reservoir(ReservoirSpec("CNOT", 4))), "width"),
            (dict(readout=qelm.ReadoutModel(np.zeros(8))), "needs 9 weights"),
            (dict(training_rss=-5.0), "'training_rss' must be >= 0"),
            (dict(training_rss=float("inf")), "'training_rss'"),
            (dict(training_rss="x"), "'training_rss'")]:
        with pytest.raises(ValidationError, match=fragment):
            qelm.Pipeline(**{**parts, **change})
    assert math.isnan(qelm.Pipeline(**parts).training_rss)   # NaN: unknown


@pytest.mark.parametrize("build,fragment", [
    (lambda: qelm.NormalizationParams([0.0, 2.0], [1.0, 1.0]), "min above its max"),
    (lambda: qelm.NormalizationParams([0.0, 0.0], [1.0]), "equal length"),
    (lambda: qelm.NormalizationParams([[0.0]], [[1.0]]), "1-D"),
    (lambda: qelm.NormalizationParams([0.0, np.nan], [1.0, 1.0]), "'normalization.mins'"),
    (lambda: qelm.ReadoutModel(np.zeros(3), ridge_lambda=-1.0), "'ridge_lambda' must be >= 0"),
    (lambda: qelm.ReadoutModel(np.zeros(3), ridge_lambda=np.nan), "'ridge_lambda'"),
    (lambda: qelm.ReadoutModel(np.zeros((3, 1))), "1-D"),
    (lambda: qelm.ReadoutModel([0.0, np.inf]), "'readout.weights'"),
    # each was a ShapeError "couplings must be 3x3" or "TruexTrue"
    (lambda: quantum.IsingParams("3", np.zeros((3, 3)), np.zeros(3)), "'num_qubits'"),
    (lambda: quantum.IsingParams(True, np.zeros((1, 1)), np.zeros(1)), "'num_qubits'"),
], ids=["min-above-max", "lengths", "2-D-bounds", "nan-bound", "negative-lambda",
        "nan-lambda", "2-D-weights", "inf-weight", "ising-width-string", "ising-width-bool"])
def test_parts_check_their_own_fields(build, fragment):
    with pytest.raises(ValidationError, match=fragment):
        build()


@pytest.mark.parametrize("kind,m", [("CNOT", 3), ("HAAR", 3), ("ISING", 3), ("ROTATION", 3),
                                    ("ISING", 7),   # the parity-block stage
                                    ("HAAR", 9)],   # the reflector stage
                         ids=["CNOT", "HAAR", "ISING", "ROTATION", "ISING-7", "HAAR-9"])
def test_pipeline_roundtrip_bit_identical(tmp_path, kind, m):
    features, targets = make_training_data(m=m, seed=kind_seed(kind))
    pipe = qelm.qelm_train((features, targets), EncoderSpec("RHE", m, seed=4),
                           ReservoirSpec(kind, m, seed=5))
    path = tmp_path / f"pipeline_{kind}.json"
    pipe.save(path)
    loaded = qelm.Pipeline.load(path)
    probe = np.resize([0.0, 5.0, 20.0, 3.3, 1.1, 7.7, 19.0, 0.2, 14.0], (3, m))
    original = pipe.predict_batch(probe)
    restored = loaded.predict_batch(probe)
    assert original.tobytes() == restored.tobytes()
    assert loaded.training_rss == pipe.training_rss


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
    corrupt.__name__ = f"set_{'_'.join(map(str, path + [key]))}_{value}"   # the test id
    return corrupt


def invert_normalization(doc):
    # used to load, and that feature's angle was then 0 for every row
    norm = doc["normalization"]
    norm["mins"][0], norm["maxs"][0] = norm["maxs"][0] + 1.0, norm["mins"][0]


def nan_rotation_angle(doc):
    doc["reservoir"]["rotation_layers"][0][1][1] = float("nan")


def string_entry(*path):
    """Replace the first number of the (possibly nested) list at `path` by "a"."""
    def corrupt(doc):
        for part in path:
            doc = doc[part]
        while isinstance(doc[0], list):
            doc = doc[0]
        doc[0] = "a"
    corrupt.__name__ = f"string_in_{'_'.join(path)}"   # the test id
    return corrupt


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
    ("ROTATION", invert_normalization, ValidationError, "normalization"),
    # earlier documents hold "include_intercept": false and "intercept": 0.0;
    # the readout has no intercept, so any other value is refused
    ("CNOT", set_field("readout", "include_intercept", "yes"), ValidationError,
     "include_intercept"),
    ("CNOT", set_field("readout", "intercept", True), ValidationError, "intercept"),
    ("CNOT", set_field("readout", "include_intercept", True), ValidationError,
     "'include_intercept' must be false"),
    ("CNOT", set_field("readout", "include_intercept", 0), ValidationError,
     "'include_intercept' must be false"),
    ("CNOT", set_field("readout", "intercept", 0.5), ValidationError, "'intercept' must be 0"),
    ("CNOT", set_field("readout", "intercept", False), ValidationError, "'intercept'"),
    ("CNOT", set_field("readout", "intercept", "0"), ValidationError, "'intercept'"),
    # "x" was a raw TypeError and true read as 1.0
    ("ISING", set_field("reservoir", "ising", "time_step", "x"), ValidationError,
     "time_step"),
    ("ISING", set_field("reservoir", "ising", "time_step", True), ValidationError,
     "time_step"),
    # both loaded as depth 10: the depth of these kinds was never read
    ("ISING", set_field("reservoir", "depth", -3), ConfigurationError, "depth"),
    ("HAAR", set_field("reservoir", "depth", -3), ConfigurationError, "depth"),
    # each was numpy's raw ValueError "could not convert string to float: 'a'"
    ("CNOT", string_entry("normalization", "mins"), ValidationError, "'normalization.mins'"),
    ("CNOT", string_entry("normalization", "maxs"), ValidationError, "'normalization.maxs'"),
    ("ROTATION", string_entry("readout", "weights"), ValidationError, "'readout.weights'"),
    ("ISING", string_entry("reservoir", "ising", "couplings"), ValidationError, "'couplings'"),
    ("ISING", string_entry("reservoir", "ising", "fields"), ValidationError, "'fields'"),
    ("HAAR", string_entry("reservoir", "unitary_im"), ValidationError, "'unitary_im'"),
    ("CNOT", set_field("readout", "weights", [[0.5]] * 9), ValidationError, "weights"),
    ("CNOT", set_field("normalization", "maxs", [1.0, [2.0], 3.0]), ValidationError,
     "'normalization.maxs'"),
    # raw ValueError "too many values to unpack" and TypeErrors on non-lists
    ("ROTATION", set_field("reservoir", "rotation_layers", 0, 0, ["X", 0.1, 7]),
     ValidationError, "'rotation_layers'"),
    ("ROTATION", set_field("reservoir", "rotation_layers", 0, 0, 5), ValidationError,
     "'rotation_layers'"),
    ("ROTATION", set_field("reservoir", "rotation_layers", 5), ValidationError,
     "'rotation_layers'"),
    ("CNOT", set_field("encoder", "axis_assignment", [5]), ValidationError,
     "'axis_assignment'"),
    # "x" loaded, and the pipeline held the string
    ("ROTATION", set_field("training_rss", "x"), ValidationError, "'training_rss'"),
    ("ROTATION", set_field("training_rss", float("nan")), ValidationError, "'training_rss'"),
    ("ROTATION", set_field("training_rss", -1.0), ValidationError, "'training_rss' must be >= 0"),
    # a key the writer does not emit, one per section: each was ignored, and
    # a misspelled training_rss left the RSS NaN
    ("CNOT", set_field("training_rs", 1.0), ValidationError, "unknown key 'training_rs'"),
    ("CNOT", set_field("encoder", "seed", 1), ValidationError, "unknown key 'seed'"),
    ("CNOT", set_field("reservoir", "seed", 1), ValidationError, "unknown key 'seed'"),
    ("CNOT", set_field("reservoir", "ising", {}), ValidationError, "unknown key 'ising'"),
    ("HAAR", set_field("reservoir", "tau_re", [1.0]), ValidationError, "unknown key 'tau_re'"),
    ("ISING", set_field("reservoir", "ising", "seed", 1), ValidationError, "unknown key 'seed'"),
    ("CNOT", set_field("normalization", "means", [0.0]), ValidationError,
     "unknown key 'means'"),
    ("CNOT", set_field("readout", "wieghts", [0.0]), ValidationError, "unknown key 'wieghts'"),
])
def test_pipeline_from_json_rejects_inconsistent_documents(kind, corrupt, error, fragment):
    doc = pipeline_doc(kind)
    qelm.Pipeline.from_json(json.dumps(doc))   # the untouched document loads
    corrupt(doc)
    with pytest.raises(error, match=fragment):
        qelm.Pipeline.from_json(json.dumps(doc))


@pytest.mark.parametrize("section,value", [
    ("document", []), ("encoder", 5), ("reservoir", []), ("reservoir.ising", 5),
    ("readout", "x"), ("normalization", 3)])
def test_pipeline_from_json_rejects_non_object_sections(section, value):
    # each was a raw AttributeError or TypeError
    doc = pipeline_doc("ISING")
    if section == "document":
        doc = value
    else:
        set_field(*section.split("."), value)(doc)
    with pytest.raises(ValidationError, match=f"pipeline {section} must be a JSON object"):
        qelm.Pipeline.from_json(json.dumps(doc))


@pytest.mark.parametrize("intercept", [0.0, 0, -0.0])
def test_documents_with_the_earlier_readout_keys_load(intercept):
    # documents written while the readout could hold an intercept carry
    # "include_intercept": false and "intercept": 0.0; they predict as before
    doc = pipeline_doc("ROTATION")
    current = qelm.Pipeline.from_json(json.dumps(doc))
    doc["readout"].update(include_intercept=False, intercept=intercept)
    earlier = qelm.Pipeline.from_json(json.dumps(doc))
    probe = np.array([[0.0, 5.0, 20.0], [3.3, 1.1, 7.7]])
    assert earlier.predict_batch(probe).tobytes() == current.predict_batch(probe).tobytes()
    assert set(json.loads(earlier.to_json())["readout"]) == {"weights", "ridge_lambda"}


def test_pipeline_documents_without_training_rss_load():
    doc = pipeline_doc("CNOT")
    del doc["training_rss"]
    loaded = qelm.Pipeline.from_json(json.dumps(doc))
    assert math.isnan(loaded.training_rss)
    # and an unknown RSS is saved by leaving it out, so the document loads again
    assert json.loads(loaded.to_json()) == doc


def reflector_doc(monkeypatch) -> dict:
    """A 3-qubit HAAR pipeline document in the reflector form that wide
    reservoirs are saved in."""
    monkeypatch.setattr(qelm, "HAAR_REFLECTOR_QUBITS", 3)
    doc = pipeline_doc("HAAR")
    assert "reflectors_re" in doc["reservoir"] and "unitary_re" not in doc["reservoir"]
    return doc


def drop_reflector_row(doc):
    for part in ("re", "im"):
        doc["reservoir"][f"reflectors_{part}"].pop()


def truncate_tau(doc):
    for part in ("re", "im"):
        doc["reservoir"][f"tau_{part}"].pop()


def stretch_reflector(doc):
    doc["reservoir"]["reflectors_re"][1][5] += 0.5   # v_1 changes, tau_1 does not


def zero_diagonal(doc):
    for part in ("re", "im"):
        doc["reservoir"][f"reflectors_{part}"][2][2] = 0.0


@pytest.mark.parametrize("corrupt,fragment", [
    (drop_reflector_row, "'reflectors'"),
    (truncate_tau, "'tau'"),
    (set_field("reservoir", "tau_im", [[0.0]] * 8), "'tau_re' and 'tau_im'"),
    (set_field("reservoir", "tau_re", [0.5] + [1.0] * 7), "make reflector 0 non-unitary"),
    (stretch_reflector, "reflector 1 non-unitary"),
    (zero_diagonal, "'reflectors' has a zero"),
    (string_entry("reservoir", "reflectors_im"), "'reflectors_im'"),
    (string_entry("reservoir", "tau_re"), "'tau_re'"),
    (set_field("reservoir", "tau_im", [float("nan")] * 8), "'tau_im' must be finite"),
])
def test_pipeline_from_json_rejects_bad_reflectors(monkeypatch, corrupt, fragment):
    doc = reflector_doc(monkeypatch)
    qelm.Pipeline.from_json(json.dumps(doc))   # the untouched document loads
    corrupt(doc)
    with pytest.raises(ValidationError, match=fragment):
        qelm.Pipeline.from_json(json.dumps(doc))


def test_pipeline_from_json_needs_every_reflector_field(monkeypatch):
    for key in ("reflectors_im", "tau_re", "tau_im"):
        doc = reflector_doc(monkeypatch)
        del doc["reservoir"][key]
        with pytest.raises(ValidationError, match=f"missing key '{key}'"):
            qelm.Pipeline.from_json(json.dumps(doc))


def test_wide_dense_haar_documents_still_load():
    # a wide HAAR pipeline saved as one dense unitary loads as a dense stage
    # and predicts what the reflector form does
    m = 9
    features, targets = make_training_data(m=m, seed=3)
    pipe = qelm.qelm_train((features, targets), EncoderSpec("DHE", m),
                           ReservoirSpec("HAAR", m, seed=5))
    doc = json.loads(pipe.to_json())
    for part in ("re", "im"):
        del doc["reservoir"][f"reflectors_{part}"], doc["reservoir"][f"tau_{part}"]
    unitary = quantum.haar_unitary(1 << m, 5)
    doc["reservoir"].update(unitary_re=unitary.real.tolist(), unitary_im=unitary.imag.tolist())
    dense = qelm.Pipeline.from_json(json.dumps(doc))
    assert dense.reservoir.params.shape == (512, 512)
    assert dense.reservoir.stages[0].low.shape == (512, 512)
    np.testing.assert_allclose(dense.predict_batch(features), pipe.predict_batch(features),
                               rtol=1e-12)
    assert json.loads(dense.to_json())["reservoir"].keys() == doc["reservoir"].keys()


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["cnot", "haar_dense", "haar_reflectors", "ising", "rotation"])
def test_golden_documents_predict_as_recorded(name):
    # committed qelm-pipeline-v1 documents and the bytes of their predictions on
    # fixed probe rows, recorded when they were written: a writer and a loader
    # that change together still have to read these
    recorded = json.loads((GOLDEN / "predictions.json").read_text())
    pipe = qelm.Pipeline.load(GOLDEN / f"pipeline_{name}.json")
    got = pipe.predict_batch(np.array(recorded["probe"]))
    assert got.tobytes().hex() == recorded["predictions"][name]
    assert ("reflectors_re" in pipe.to_json()) == (name == "haar_reflectors")


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
