"""Dense state-vector simulation of small qubit registers.

Conventions used throughout:

- Qubit 0 is the least-significant bit of the amplitude index, so the basis
  state |q_{D-1} ... q_1 q_0> lives at index sum_b q_b * 2^b.
- Rotations use the half-angle convention R_axis(t) = cos(t/2) I -
  i sin(t/2) P_axis; `rotation_matrix` builds every one in the package.
- Global phase is never normalized away; compare expectations or moduli.

States are plain complex amplitude arrays. All gate kernels operate on the
last axis, so a batch of states with shape (batch, 2^D) goes through the
same code path as a single state. The compiled circuits of `qelm` call
`rotation_matrix`, `apply_single_qubit`, `apply_gate_kernel`,
`pauli_expectations`, `haar_reflectors` or `ising_parity_blocks` (wide
registers), `haar_unitary` or `ising_unitary` (narrow ones) and
`basis_bits`; the dense Kronecker oracle in the tests is their independent
reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ConfigurationError, ShapeError, ValidationError, check_number,
                     number_array)

MAX_STATE_QUBITS = 16    # 2^16 amplitudes ~ 1 MB
MAX_DENSE_QUBITS = 12    # 2^12-dim dense matrix ~ 256 MB is the ceiling

ROTATION_KINDS = ("RX", "RY", "RZ")
PAULI_KINDS = ("X", "Y", "Z")
CONTROLLED_KINDS = ("CNOT", "CZ")
GATE_KINDS = ROTATION_KINDS + PAULI_KINDS + CONTROLLED_KINDS

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_PAULI_STACK = np.array([PAULI_X, PAULI_Y, PAULI_Z])   # in PAULI_KINDS order


def rotation_matrix(axis, angle) -> np.ndarray:
    """cos(t/2) I - i sin(t/2) P_axis for t = `angle` radians; `axis` ("X",
    "Y" or "Z") and `angle` may be arrays, broadcast into a (..., 2, 2) stack."""
    axis = np.asarray(axis)
    names = axis.ravel().tolist()
    unknown = [name for name in names if name not in PAULI]
    if unknown:
        raise ConfigurationError(f"unknown rotation axis {unknown[0]!r}")
    paulis = _PAULI_STACK[[PAULI_KINDS.index(name) for name in names]].reshape(axis.shape + (2, 2))
    half = np.asarray(angle, dtype=float) / 2.0
    minus_i_sin = -1j * np.sin(half)
    rot = np.empty(np.broadcast_shapes(half.shape, axis.shape) + (2, 2), dtype=complex)
    for r in (0, 1):
        for c in (0, 1):
            np.multiply(minus_i_sin, paulis[..., r, c], out=rot[..., r, c])
    cos = np.cos(half)
    rot[..., 0, 0] += cos
    rot[..., 1, 1] += cos
    return rot


@dataclass(frozen=True)
class GateOp:
    """One gate: a rotation, a Pauli, or a controlled two-qubit gate."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        needs_angle = self.kind in ROTATION_KINDS
        if needs_angle != (self.angle is not None):
            raise ConfigurationError(
                f"{self.kind} gate {'requires' if needs_angle else 'takes no'} angle"
            )
        needs_control = self.kind in CONTROLLED_KINDS
        if needs_control != (self.control is not None):
            raise ConfigurationError(
                f"{self.kind} gate {'requires' if needs_control else 'takes no'} control"
            )
        if self.control is not None and self.control == self.target:
            raise ConfigurationError("control and target must differ")


def unitarity_defect(entries: np.ndarray) -> float:
    """max |U^dag U - I|, zero (to precision) for a unitary matrix."""
    dim = entries.shape[0]
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(dim))))


@dataclass(frozen=True, eq=False)
class IsingParams:
    """Couplings J (symmetric, zero diagonal), transverse fields a, step dt
    for the Hamiltonian H = sum_{k<j} J[k,j] Z_k Z_j + sum_j a[j] X_j.
    Frozen, with read-only arrays."""

    num_qubits: int
    couplings: np.ndarray
    fields: np.ndarray
    time_step: float = 1.0

    def __post_init__(self):
        d = check_number("num_qubits", self.num_qubits, integer=True, error=ValidationError)
        object.__setattr__(self, "couplings", number_array("couplings", self.couplings))
        object.__setattr__(self, "fields", number_array("fields", self.fields))
        if self.couplings.shape != (d, d):
            raise ShapeError(f"couplings must be {d}x{d}")
        if self.fields.shape != (d,):
            raise ShapeError(f"fields must have length {d}")
        if not (np.abs(self.couplings - self.couplings.T) <= 1e-12).all():
            raise ValidationError("couplings matrix must be symmetric (|J - J^T| <= 1e-12)")
        if np.any(np.abs(np.diagonal(self.couplings)) > 1e-12):
            raise ValidationError("couplings diagonal must be zero")
        if check_number("time_step", self.time_step, error=ValidationError) <= 0:
            raise ValidationError(f"field 'time_step' must be > 0, got {self.time_step!r}")


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

def apply_single_qubit(amps: np.ndarray, num_qubits: int, qubit: int,
                       u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a (..., 2^D) amplitude array: one
    (2, 2) matrix for every state, or a (..., 2, 2) stack of one per state."""
    dim = 1 << num_qubits
    lead = amps.shape[:-1]
    arr = amps.reshape(*lead, dim >> (qubit + 1), 2, 1 << qubit)
    out = np.einsum("...ab,...hbl->...hal", u, arr)
    return out.reshape(*lead, dim)


def apply_gate_kernel(amps: np.ndarray, num_qubits: int, gate: GateOp) -> np.ndarray:
    """Dispatch one GateOp over the last axis of an amplitude array."""
    for q in (gate.target, gate.control):
        if q is not None and not 0 <= q < num_qubits:
            raise IndexError(f"qubit {q} out of range for {num_qubits}-qubit state")
    if gate.kind in ROTATION_KINDS:
        return apply_single_qubit(amps, num_qubits, gate.target,
                                  rotation_matrix(gate.kind[1], gate.angle))
    if gate.kind in PAULI_KINDS:
        return apply_single_qubit(amps, num_qubits, gate.target, PAULI[gate.kind])
    idx = np.arange(1 << num_qubits)
    if gate.kind == "CZ":   # sign flip where both qubits are 1
        return np.where((idx >> gate.control) & (idx >> gate.target) & 1, -amps, amps)
    # CNOT: swap the target-bit amplitude pairs wherever the control bit is 1
    return amps[..., np.where((idx >> gate.control) & 1, idx ^ (1 << gate.target), idx)]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def pauli_expectations(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """Columns [<X^0>, <Y^0>, <Z^0>, ..., <X^{D-1}>, <Y^{D-1}>, <Z^{D-1}>] of a
    (batch, 2^D) amplitude array, clipped to [-1, 1].

    <Z> of every qubit is one product |a|^2 @ signs; <X> and <Y> are 2 Re c
    and 2 Im c with c = sum conj(a0) a1 over the qubit's two half-slices.
    Never materializes a 2^D x 2^D operator.
    """
    rows, dim = amps.shape
    obs = np.empty((rows, 3 * num_qubits))
    obs[:, 2::3] = (amps.real ** 2 + amps.imag ** 2) @ (1.0 - 2.0 * basis_bits(num_qubits))
    conj = amps.conj()
    for q in range(num_qubits):
        shape = (rows, dim >> (q + 1), 2, 1 << q)
        cross = np.einsum("phl,phl->p", conj.reshape(shape)[:, :, 0, :],
                          amps.reshape(shape)[:, :, 1, :])
        obs[:, 3 * q], obs[:, 3 * q + 1] = 2.0 * cross.real, 2.0 * cross.imag
    return np.clip(obs, -1.0, 1.0, out=obs)


# ---------------------------------------------------------------------------
# random unitary construction
# ---------------------------------------------------------------------------

def _ginibre(dim: int, seed: int) -> np.ndarray:
    """The seeded complex Ginibre matrix that both Haar constructions factor."""
    if dim < 1 or (dim & (dim - 1)) != 0:
        raise ConfigurationError(f"dim must be a power of two, got {dim}")
    if dim > (1 << MAX_DENSE_QUBITS):
        raise ConfigurationError(f"dim {dim} exceeds dense cap 2^{MAX_DENSE_QUBITS}")
    rng = np.random.default_rng(seed)
    z = np.empty((dim, dim), dtype=complex)   # filled in place: no complex temporaries
    z.real = rng.standard_normal((dim, dim))
    z.imag = rng.standard_normal((dim, dim))
    z /= np.sqrt(2.0)
    return z


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix.

    The QR phases are fixed by rescaling Q's columns with R_ii / |R_ii|,
    which makes the distribution exactly Haar rather than QR-convention
    dependent (Mezzadri 2007). Deterministic for a fixed seed.
    """
    q, r = np.linalg.qr(_ginibre(dim, seed))
    diag = np.diagonal(r)
    q *= diag / np.abs(diag)
    return q


def haar_reflectors(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The unitary `haar_unitary` draws for the same seed, as the raw QR of
    the same Ginibre matrix, without forming Q: (qr, tau).

    Row i of `qr` holds Householder vector v_i beyond its unit entry i
    (qr[i, i + 1:]; v_i is zero before i), and qr's diagonal is R's. With
    H_i = I - tau_i v_i v_i^H and D = diag(R_ii / |R_ii|), the unitary is
    H_0 H_1 ... H_{dim-1} D. Skipping Q saves LAPACK's `ungqr`, about half
    the factorization's time.
    """
    return np.linalg.qr(_ginibre(dim, seed), mode="raw")


@lru_cache(maxsize=None)
def basis_bits(num_qubits: int) -> np.ndarray:
    """(2^D, D) table of 0/1 ints: entry [i, b] is bit b of basis index i.
    Built once per width and shared, so it is read-only."""
    idx = np.arange(1 << num_qubits)
    bits = (idx[:, None] >> np.arange(num_qubits)[None, :]) & 1
    bits.flags.writeable = False
    return bits


def _strict_upper(num_qubits: int) -> np.ndarray:
    """(D, D) boolean mask of the pairs k < j."""
    idx = np.arange(num_qubits)
    return idx[:, None] < idx


def ising_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense real 2^D x 2^D matrix of H = sum_{k<j} J[k,j] Z_k Z_j + sum_j a[j] X_j.

    ZZ terms are diagonal (products of the +-1 bit signs); each X_j adds 1s
    on the bit-j flip off-diagonals. Both are real, so H is real symmetric.
    """
    d = params.num_qubits
    idx = np.arange(1 << d)
    signs = 1.0 - 2.0 * basis_bits(d)
    k, j = np.nonzero(_strict_upper(d))   # the pairs k < j in the pair loop's order
    # a zero column, then one per pair: the running sum adds them left to
    # right from 0.0, as the pair loop's `+=` does
    terms = np.zeros((len(idx), len(k) + 1))
    np.multiply(params.couplings[k, j] * signs[:, k], signs[:, j], out=terms[:, 1:])
    h = np.diag(np.cumsum(terms, axis=1)[:, -1])
    # each X_j fills its own off-diagonal entries: the flips never collide
    h[idx ^ (1 << np.arange(d))[:, None], idx] += params.fields[:, None]
    return h


def _real_symmetric_exponential(h: np.ndarray, time_step: float) -> np.ndarray:
    """exp(-i h t) = (V cos(l t)) V^T - i (V sin(l t)) V^T for h = V diag(l) V^T."""
    eigvals, eigvecs = np.linalg.eigh(h)
    phase = eigvals * time_step
    entries = np.empty(h.shape, dtype=complex)
    entries.real = (eigvecs * np.cos(phase)) @ eigvecs.T
    entries.imag = (eigvecs * -np.sin(phase)) @ eigvecs.T
    return entries


def ising_parity_blocks(params: IsingParams) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H dt) on H's two spin-flip parity blocks: U+ and U-, each
    2^(D-1) x 2^(D-1), exact (no Trotter error).

    H commutes with the global flip X^D, which maps |i> to |~i> with
    ~i = 2^D - 1 - i, i.e. reverses the basis: H[::-1, ::-1] == H. With
    n = 2^(D-1), R the n x n reversal, A = H[:n, :n] and B = H[:n, n:], that
    makes H = [[A, B], [R B R, R A R]]. The states (|i> +- |~i>)/sqrt(2) for
    i < n split the space into the flip's +1 and -1 eigenspaces, on which H
    acts as the real symmetric n x n blocks A + B R and A - B R. Each block
    is exponentiated through its own real `eigh`: two half-size
    eigendecompositions and GEMMs in place of one of the full size.
    """
    if not 1 <= params.num_qubits <= MAX_DENSE_QUBITS:
        raise ConfigurationError(
            f"dense exponential needs 1 to {MAX_DENSE_QUBITS} qubits"
        )
    h = ising_hamiltonian(params)   # symmetric by construction, so exactly
    n = h.shape[0] // 2
    a_block, b_reversed = h[:n, :n], h[:n, ::-1][:, :n]
    return (_real_symmetric_exponential(a_block + b_reversed, params.time_step),
            _real_symmetric_exponential(a_block - b_reversed, params.time_step))


def ising_unitary(params: IsingParams) -> np.ndarray:
    """Dense exp(-i H dt) assembled from `ising_parity_blocks`: with
    a = (U+ + U-)/2 and b = (U+ - U-)/2, U = [[a, b R], [R b, R a R]]."""
    plus, minus = ising_parity_blocks(params)
    n = len(plus)
    a, b = (plus + minus) / 2.0, (plus - minus) / 2.0
    entries = np.empty((2 * n, 2 * n), dtype=complex)
    entries[:n, :n], entries[:n, n:] = a, b[:, ::-1]
    entries[n:, :n], entries[n:, n:] = b[::-1], a[::-1, ::-1]
    return entries


def sample_ising_params(num_qubits: int, seed: int) -> IsingParams:
    """Couplings and fields drawn i.i.d. uniform on [-1, 1], J symmetrized; dt = 1."""
    if num_qubits < 1:
        raise ConfigurationError("num_qubits must be >= 1")
    rng = np.random.default_rng(seed)
    couplings = np.zeros((num_qubits, num_qubits))
    upper = _strict_upper(num_qubits)   # filled in row-major order, as np.triu_indices
    couplings[upper] = rng.uniform(-1.0, 1.0, size=num_qubits * (num_qubits - 1) // 2)
    couplings = couplings + couplings.T
    fields = rng.uniform(-1.0, 1.0, size=num_qubits)
    return IsingParams(num_qubits, couplings, fields)
