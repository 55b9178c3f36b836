"""Quantum-core tests: gate kernels on plain amplitude arrays against a
Kronecker-product oracle, Pauli expectations, Haar and Ising unitary
constructions."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qelmkit import quantum as q
from qelmkit.errors import ConfigurationError, ValidationError

# ---------------------------------------------------------------------------
# independent dense oracle: embed gates via Kronecker products, rotations via
# the matrix exponential (different construction path than the kernels)
# ---------------------------------------------------------------------------

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PAULI = {"X": q.PAULI_X, "Y": q.PAULI_Y, "Z": q.PAULI_Z}


def embed(u2: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    # qubit 0 is the least-significant index bit
    return np.kron(np.eye(1 << (num_qubits - qubit - 1)),
                   np.kron(u2, np.eye(1 << qubit)))


def dense_gate(gate: q.GateOp, num_qubits: int) -> np.ndarray:
    if gate.kind in q.ROTATION_KINDS:
        u2 = scipy.linalg.expm(-0.5j * gate.angle * PAULI[gate.kind[1]])
        return embed(u2, gate.target, num_qubits)
    if gate.kind in q.PAULI_KINDS:
        return embed(PAULI[gate.kind], gate.target, num_qubits)
    flip = PAULI["X"] if gate.kind == "CNOT" else PAULI["Z"]
    return (embed(P0, gate.control, num_qubits) @ np.eye(1 << num_qubits)
            + embed(P1, gate.control, num_qubits) @ embed(flip, gate.target, num_qubits))


def zero_state(num_qubits: int) -> np.ndarray:
    """Amplitudes of |0...0>."""
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def random_state(num_qubits: int, rng) -> np.ndarray:
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return amps / np.linalg.norm(amps)


def expectation(amps: np.ndarray, num_qubits: int, qubit: int, axis: str) -> float:
    """<P_qubit> of one state, read from the batched readout of a one-row batch."""
    obs = q.pauli_expectations(amps[None, :], num_qubits)
    return float(obs[0, 3 * qubit + "XYZ".index(axis)])


def random_gate(num_qubits: int, rng) -> q.GateOp:
    kinds = q.GATE_KINDS if num_qubits > 1 else q.ROTATION_KINDS + q.PAULI_KINDS
    kind = kinds[rng.integers(len(kinds))]
    target = int(rng.integers(num_qubits))
    control = None
    if kind in q.CONTROLLED_KINDS:
        control = int(rng.integers(num_qubits - 1))
        if control >= target:
            control += 1
    angle = float(rng.uniform(0, 2 * np.pi)) if kind in q.ROTATION_KINDS else None
    return q.GateOp(kind, target, control, angle)


# ---------------------------------------------------------------------------
# gate construction
# ---------------------------------------------------------------------------

def test_gateop_validation():
    with pytest.raises(ConfigurationError):
        q.GateOp("RX", 0)                      # missing angle
    with pytest.raises(ConfigurationError):
        q.GateOp("X", 0, angle=1.0)            # angle on a non-rotation
    with pytest.raises(ConfigurationError):
        q.GateOp("CNOT", 1, control=1)         # control == target
    with pytest.raises(ConfigurationError):
        q.GateOp("CNOT", 1)                    # missing control
    with pytest.raises(ConfigurationError):
        q.GateOp("HADAMARD", 0)


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

def test_rx_pi_flips_zero():
    out = q.apply_gate_kernel(zero_state(1), 1, q.GateOp("RX", 0, angle=np.pi))
    np.testing.assert_allclose(out, [0, -1j], atol=1e-12)


def test_rx_zero_is_identity():
    rng = np.random.default_rng(0)
    s = random_state(3, rng)
    out = q.apply_gate_kernel(s, 3, q.GateOp("RX", 1, angle=0.0))
    np.testing.assert_allclose(out, s, atol=1e-15)


def test_cz_flips_sign_of_11():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = q.apply_gate_kernel(bell, 2, q.GateOp("CZ", 1, control=0))
    np.testing.assert_allclose(out, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)


def test_cnot_on_10():
    s = np.array([0, 1, 0, 0], dtype=complex)  # qubit 0 = 1
    out = q.apply_gate_kernel(s, 2, q.GateOp("CNOT", 1, control=0))
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


def test_invalid_qubit_index():
    with pytest.raises(IndexError):
        q.apply_gate_kernel(zero_state(2), 2, q.GateOp("X", 2))
    with pytest.raises(IndexError):
        q.apply_gate_kernel(zero_state(2), 2, q.GateOp("CNOT", 0, control=5))


def test_kernel_matches_kronecker_oracle():
    """Every gate kind on D <= 3 qubits, random states: kernel == dense."""
    rng = np.random.default_rng(7)
    for num_qubits in (1, 2, 3):
        for _ in range(40):
            gate = random_gate(num_qubits, rng)
            s = random_state(num_qubits, rng)
            fast = q.apply_gate_kernel(s, num_qubits, gate)
            slow = dense_gate(gate, num_qubits) @ s
            assert np.max(np.abs(fast - slow)) < 1e-12, gate


def test_rotation_matrix_stack_matches_expm():
    """rotation_matrix broadcasts: one axis or an (L, M) grid of axes over an
    (L, M) grid of angles, and a per-qubit axis row over (P, M) angles, each
    slot equal to expm(-i t P / 2)."""
    rng = np.random.default_rng(12)
    angles = rng.uniform(0, 2 * np.pi, size=(4, 5))
    mixed = rng.choice(list("XYZ"), size=(4, 5))
    for axes in ("X", "Y", "Z", mixed):
        stack = q.rotation_matrix(axes, angles)
        assert stack.shape == (4, 5, 2, 2)
        for (l, k), t in np.ndenumerate(angles):
            axis = np.broadcast_to(axes, angles.shape)[l, k]
            np.testing.assert_allclose(stack[l, k], scipy.linalg.expm(-0.5j * t * PAULI[axis]),
                                       rtol=0, atol=1e-14)
    row, batch = mixed[0], rng.uniform(0, np.pi, size=(3, 5))
    per_row = q.rotation_matrix(row, batch)
    assert per_row.shape == (3, 5, 2, 2)
    for (p, k), t in np.ndenumerate(batch):
        np.testing.assert_allclose(per_row[p, k], scipy.linalg.expm(-0.5j * t * PAULI[row[k]]),
                                   rtol=0, atol=1e-14)


def test_rotation_matrix_rejects_unknown_axis_in_array():
    with pytest.raises(ConfigurationError, match="'W'"):
        q.rotation_matrix([["X", "Y"], ["W", "Z"]], np.zeros((2, 2)))
    with pytest.raises(ConfigurationError, match="'RX'"):
        q.rotation_matrix("RX", 0.5)


def test_apply_single_qubit_takes_one_matrix_per_state():
    rng = np.random.default_rng(13)
    states = np.array([random_state(3, rng) for _ in range(4)])
    mats = q.rotation_matrix(["X", "Y", "Z", "Y"], rng.uniform(0, np.pi, size=4))
    out = q.apply_single_qubit(states, 3, 1, mats)
    for state, mat, got in zip(states, mats, out):
        np.testing.assert_allclose(got, embed(mat, 1, 3) @ state, rtol=0, atol=1e-15)


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(11)
    for num_qubits in (2, 4, 6):
        s = zero_state(num_qubits)
        for _ in range(100):
            s = q.apply_gate_kernel(s, num_qubits, random_gate(num_qubits, rng))
        assert abs(np.linalg.norm(s) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def test_expectation_examples():
    assert expectation(zero_state(1), 1, 0, "Z") == pytest.approx(1.0)
    s = q.apply_gate_kernel(zero_state(1), 1, q.GateOp("RX", 0, angle=np.pi / 2))
    assert expectation(s, 1, 0, "Z") == pytest.approx(0.0, abs=1e-12)
    assert expectation(s, 1, 0, "Y") == pytest.approx(-1.0)


@pytest.mark.parametrize("theta", np.linspace(0, np.pi, 7))
def test_expectation_closed_form_rx(theta):
    s = q.apply_gate_kernel(zero_state(1), 1, q.GateOp("RX", 0, angle=theta))
    assert expectation(s, 1, 0, "Y") == pytest.approx(-np.sin(theta), abs=1e-12)
    assert expectation(s, 1, 0, "Z") == pytest.approx(np.cos(theta), abs=1e-12)
    assert expectation(s, 1, 0, "X") == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_dense_operator():
    rng = np.random.default_rng(23)
    for _ in range(25):
        s = random_state(3, rng)
        qubit = int(rng.integers(3))
        axis = "XYZ"[rng.integers(3)]
        dense = embed(PAULI[axis], qubit, 3)
        expected = np.real(s.conj() @ dense @ s)
        assert expectation(s, 3, qubit, axis) == pytest.approx(expected, abs=1e-12)
    # the batched all-qubit readout, every column against the dense operator
    for d in range(1, 6):
        amps = np.array([random_state(d, rng) for _ in range(7)])
        obs = q.pauli_expectations(amps, d)
        assert obs.shape == (7, 3 * d)
        for qubit in range(d):
            for k, axis in enumerate("XYZ"):
                dense = embed(PAULI[axis], qubit, d)
                expected = np.real(np.einsum("pi,ij,pj->p", amps.conj(), dense, amps))
                np.testing.assert_allclose(obs[:, 3 * qubit + k], expected,
                                           rtol=0, atol=1e-12)


def test_expectation_bounds_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_state(4, rng)
        for _ in range(10):
            s = q.apply_gate_kernel(s, 4, random_gate(4, rng))
        obs = q.pauli_expectations(s[None, :], 4)
        assert np.all(obs >= -1.0) and np.all(obs <= 1.0)


# ---------------------------------------------------------------------------
# Haar unitaries
# ---------------------------------------------------------------------------

def test_haar_unitarity_and_determinism():
    for dim in (1, 2, 4, 8, 32):
        u = q.haar_unitary(dim, seed=dim)
        assert q.unitarity_defect(u) < 1e-10
    a = q.haar_unitary(16, seed=99)
    b = q.haar_unitary(16, seed=99)
    assert a.tobytes() == b.tobytes()
    assert not np.allclose(a, q.haar_unitary(16, seed=100))


def test_haar_dim_one_is_phase():
    u = q.haar_unitary(1, seed=0)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_haar_reflectors_multiply_out_to_haar_unitary(dim):
    # H_0 H_1 ... H_{dim-1} D, one explicit reflector at a time
    qr, tau = q.haar_reflectors(dim, seed=dim + 3)
    u = np.eye(dim, dtype=complex)
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        v[i + 1:] = qr[i, i + 1:]
        u = u @ (np.eye(dim) - tau[i] * np.outer(v, v.conj()))
    diag = np.diagonal(qr)
    np.testing.assert_allclose(u * (diag / np.abs(diag)), q.haar_unitary(dim, seed=dim + 3),
                               rtol=0, atol=1e-13)


def test_haar_rejects_non_power_of_two():
    for build in (q.haar_unitary, q.haar_reflectors):
        with pytest.raises(ConfigurationError):
            build(3, seed=0)
        with pytest.raises(ConfigurationError):
            build(1 << 13, seed=0)


def test_haar_first_entry_moment():
    # E|U_00|^2 = 1/dim for Haar; Monte-Carlo estimate at dim 4
    values = [abs(q.haar_unitary(4, seed=s)[0, 0]) ** 2 for s in range(1000)]
    assert abs(np.mean(values) - 0.25) < 0.02


# ---------------------------------------------------------------------------
# Ising unitaries
# ---------------------------------------------------------------------------

def test_ising_zero_params_is_identity():
    params = q.IsingParams(2, np.zeros((2, 2)), np.zeros(2), 1.0)
    np.testing.assert_allclose(q.ising_unitary(params), np.eye(4), atol=1e-12)


def test_ising_single_qubit_field_half_turn():
    # exp(-i (pi/2) X) = -i X
    params = q.IsingParams(1, np.zeros((1, 1)), np.array([1.0]), np.pi / 2)
    np.testing.assert_allclose(q.ising_unitary(params),
                               -1j * q.PAULI_X, atol=1e-12)


def test_ising_zz_diagonal_phases():
    t = 0.7
    coupling = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = q.IsingParams(2, coupling, np.zeros(2), t)
    u = q.ising_unitary(params)
    expected = np.diag(np.exp(-1j * t * np.array([1, -1, -1, 1])))
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_ising_random_unitarity():
    for seed in range(5):
        params = q.sample_ising_params(4, seed)
        assert q.unitarity_defect(q.ising_unitary(params)) < 1e-9


def test_ising_matches_expm_oracle():
    params = replace(q.sample_ising_params(3, seed=12), time_step=0.9)
    h = q.ising_hamiltonian(params)
    oracle = scipy.linalg.expm(-1j * h * 0.9)
    np.testing.assert_allclose(q.ising_unitary(params), oracle, atol=1e-10)


def test_ising_matches_expm_at_eight_qubits():
    params = replace(q.sample_ising_params(8, seed=5), time_step=0.8)
    oracle = scipy.linalg.expm(-1j * q.ising_hamiltonian(params) * params.time_step)
    np.testing.assert_allclose(q.ising_unitary(params), oracle, atol=1e-10)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_ising_commutes_with_global_flip(num_qubits):
    u = q.ising_unitary(q.sample_ising_params(num_qubits, seed=num_qubits))
    # conjugating by X on every qubit reverses the basis order
    np.testing.assert_allclose(u[::-1, ::-1], u, atol=1e-12)


def test_ising_unitary_at_ten_qubits():
    u = q.ising_unitary(q.sample_ising_params(10, seed=3))
    assert q.unitarity_defect(u) < 1e-12


def test_basis_bits_is_read_only():
    bits = q.basis_bits(3)
    assert bits is q.basis_bits(3)
    with pytest.raises(ValueError):
        bits[0, 0] = 1


def test_ising_rejects_bad_couplings():
    with pytest.raises(ValidationError):
        q.IsingParams(2, np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))
    with pytest.raises(ValidationError):
        q.IsingParams(2, np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValidationError):
        q.IsingParams(2, np.zeros((2, 2)), np.zeros(2), time_step=0.0)
    # inf would make ising_unitary all NaN, True read as 1.0, "x" was a raw TypeError
    for step in (np.inf, np.nan, True, "x"):
        with pytest.raises(ValidationError, match="time_step"):
            q.IsingParams(2, np.zeros((2, 2)), np.zeros(2), time_step=step)


def test_ising_symmetry_check_is_absolute():
    # np.allclose's default rtol=1e-5 let this through, and the Hamiltonian,
    # which reads the upper triangle, then differed from its transpose's
    with pytest.raises(ValidationError, match="symmetric"):
        q.IsingParams(2, np.array([[0.0, 1.0], [1.000005, 0.0]]), np.zeros(2))
    with pytest.raises(ValidationError, match="symmetric"):
        q.IsingParams(2, np.array([[0.0, 1e6], [1e6 + 1e-9, 0.0]]), np.zeros(2))
    q.IsingParams(2, np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]), np.zeros(2))
    exact = q.sample_ising_params(4, seed=9).couplings
    assert q.IsingParams(4, exact, np.zeros(4)).couplings.tobytes() == exact.tobytes()


def loop_ising_hamiltonian(params: q.IsingParams) -> np.ndarray:
    """Oracle: the Hamiltonian summed pair by pair, then field by field."""
    d = params.num_qubits
    idx = np.arange(1 << d)
    signs = 1.0 - 2.0 * q.basis_bits(d)
    diag = np.zeros(1 << d)
    for k in range(d):
        for j in range(k + 1, d):
            diag += params.couplings[k, j] * signs[:, k] * signs[:, j]
    h = np.diag(diag)
    for j in range(d):
        h[idx ^ (1 << j), idx] += params.fields[j]
    return h


def triu_ising_params(num_qubits: int, seed: int) -> q.IsingParams:
    """Oracle: the draw that fills the couplings through np.triu_indices."""
    rng = np.random.default_rng(seed)
    couplings = np.zeros((num_qubits, num_qubits))
    upper = np.triu_indices(num_qubits, k=1)
    couplings[upper] = rng.uniform(-1.0, 1.0, size=len(upper[0]))
    couplings = couplings + couplings.T
    return q.IsingParams(num_qubits, couplings, rng.uniform(-1.0, 1.0, size=num_qubits))


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_ising_draw_and_hamiltonian_match_their_loop_oracles(num_qubits):
    for seed in (0, 1, 18, 424242):
        params = q.sample_ising_params(num_qubits, seed)
        expected = triu_ising_params(num_qubits, seed)
        assert params.couplings.tobytes() == expected.couplings.tobytes()
        assert params.fields.tobytes() == expected.fields.tobytes()
        h = q.ising_hamiltonian(params)
        assert np.array_equal(h, loop_ising_hamiltonian(params))
        assert h.tobytes() == loop_ising_hamiltonian(params).tobytes()
    # zero couplings and a -0.0 field: the sums start from +0.0, as `+=` does
    fields = np.full(num_qubits, -0.0)
    params = q.IsingParams(num_qubits, np.zeros((num_qubits, num_qubits)), fields)
    assert q.ising_hamiltonian(params).tobytes() == loop_ising_hamiltonian(params).tobytes()


def test_sample_ising_params_contract():
    a = q.sample_ising_params(3, seed=4)
    b = q.sample_ising_params(3, seed=4)
    np.testing.assert_array_equal(a.couplings, b.couplings)
    np.testing.assert_array_equal(a.fields, b.fields)
    assert np.all(np.abs(a.couplings) <= 1.0) and np.all(np.abs(a.fields) <= 1.0)
    upper = a.couplings[np.triu_indices(3, k=1)]
    assert len(upper) == 3 and len(a.fields) == 3
    np.testing.assert_array_equal(a.couplings, a.couplings.T)
    assert a.time_step == 1.0
