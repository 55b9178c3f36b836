"""Quantum extreme learning machine pipeline.

Feature vectors are min-max normalized to rotation angles in [0, pi],
injected by a hardware-efficient encoder (one qubit per feature), evolved
through a fixed randomly-parameterized reservoir, and measured as the
3M-vector of per-qubit X/Y/Z expectations. Only the linear readout on top
of those expectations is trained, by plain (optionally ridge) least squares.

Execution is batched and compiled: a dataset of angle vectors runs through
the circuit as (rows, 2^M) amplitude arrays of at most BLOCK_AMPLITUDES
amplitudes each (one block for FS2-FS5 batches, 128 rows at 10 qubits),
each block through the whole circuit before the next, and no gate is
applied one at a time.

- Encoder: `encode_batch`. The first rotation layer acts on |0...0>, so it
  is built as a product state by M outer products, the first
  LONG_SLICE_QUBITS of them in a (2^q, P) array whose every step runs over
  all P rows, transposed once into the (P, 2^M) batch; the CZ ring is one
  +-1 sign vector. Re-uploading layers (depth > 1) rotate each qubit with
  its row's matrix. The batch depends only on the angles and the encoder's
  axis assignment, so `run_circuit_batch` accepts a precomputed one
  (`encoded`) and only reads it: the sweep encodes each fold's distinct
  angle rows once per distinct assignment and shares the batch among that
  assignment's cells, while the batch holds at most BLOCK_AMPLITUDES
  amplitudes (see `harness`). A qubit whose axis is Z in every layer stays
  exactly in |0>, so every encoded row is exactly 0 off the 2^(M-f)
  indices where those f frozen qubits are 0.
- Reservoir: `build_reservoir` compiles the reservoir into `Stage`s, each an
  optional pair of spin-flip parity blocks, set of Householder reflectors,
  low-qubit matrix, high-qubit matrix and index permutation. HAAR is one
  dense stage below HAAR_REFLECTOR_QUBITS qubits and, from there, one stage
  of the Householder reflectors of the same draw (`quantum.haar_reflectors`)
  in compact-WY blocks, so Q is never formed. ISING is one dense
  stage below ISING_PARITY_QUBITS qubits and, from there, one stage of its
  two half-size parity blocks (`quantum.ising_parity_blocks`), so the dense
  2^M matrix is never assembled or applied. CNOT is its whole ring stack
  composed into one permutation. ROTATION is one stage per layer, at every
  width: two Kronecker factors of 2^ceil(M/2) and 2^floor(M/2) for its
  rotations, built for every layer in one broadcast, then the layer's ring
  permutation.
- Subspace rule, the one place stages collapse into a matrix: with S the
  support above (every index when no qubit is frozen), `run_circuit_batch`
  may push S's unit rows through the stages once, giving their (|S|, 2^M)
  transfer matrix, and evolve each row block as one GEMM, block[:, S] @
  transfer, the same up to floating-point order. It does so when the
  transfer fits one row block (|S| * 2^M <= BLOCK_AMPLITUDES) and costs
  fewer multiply-adds than the stages for the batch's P rows: |S| * (c + P
  * 2^M) < P * c, with c the stages' cost per row (`Stage.multiply_adds`).
  A single row or a CNOT reservoir (a pure permutation) never qualifies.
- Readout: `quantum.pauli_expectations`, one GEMM for every qubit's <Z>.

The compiled forms call `quantum`'s kernels: `rotation_matrix` for every
rotation and `apply_single_qubit` for re-uploaded ones, `apply_gate_kernel`
for composing the CNOT rings, `pauli_expectations` for the readout,
`haar_unitary`, `haar_reflectors`, `ising_unitary` and `ising_parity_blocks`
for the reservoir matrices. The dense Kronecker oracle in the tests is their
independent reference.

A reservoir is its sampled parameters, `params`, carried unchanged from the
`ReservoirSpec` through the built `Reservoir` to the saved pipeline: the
Ising couplings, fields and time step, the rotation layers, or for HAAR the
dense unitary (`unitary_re`/`unitary_im`) below HAAR_REFLECTOR_QUBITS qubits
and the raw QR and tau (`reflectors_re`/`reflectors_im`, `tau_re`/`tau_im`)
from there. The loader only maps a document's keys to constructor
arguments: `ReservoirSpec` checks the parameters and `build_reservoir`
compiles them as the build did, so predictions round-trip bit-identically.
Every object here that holds arrays is a frozen dataclass whose arrays are
read-only views, and its constructor checks the invariants it holds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import quantum
from .errors import (ConfigurationError, ShapeError, ValidationError, check_keys, check_number,
                     number_array, read_only, require_finite)
from .quantum import GateOp, IsingParams

ENCODER_KINDS = ("DHE", "RHE")
RESERVOIR_KINDS = ("CNOT", "HAAR", "ISING", "ROTATION")
# From this width ISING runs as its two parity blocks rather than one dense
# matrix. Build + apply of 1,064 rows, dense vs parity (x86-64, OpenBLAS at
# 1 thread): 6 qubits 1.5 vs 1.9 ms, 7 qubits 4.8 vs 4.9 ms (even), 8 qubits
# 18.8 vs 15.2 ms, 10 qubits 295 vs 220 ms.
ISING_PARITY_QUBITS = 7
# From this width HAAR runs as its Householder reflectors, WY_BLOCK at a time
# in compact-WY form, rather than one dense matrix, so Q is never formed.
# Build + run of 1,064 rows, dense vs reflectors (x86-64, OpenBLAS at 1
# thread): 8 qubits 39 vs 48 ms, 9 qubits 158 vs 149 ms, 10 qubits 758 vs
# 618 ms. At 10 qubits a WY block of 32/64/128/256 reflectors takes 30/35/57/91
# ms to build and 363/322/307/305 ms to run.
HAAR_REFLECTOR_QUBITS = 9
WY_BLOCK = 64
# `run_circuit_batch` runs the whole circuit on at most this many amplitudes
# (rows * 2^M) at a time, so each block's intermediates stay in cache.
# Encode + reservoir + readout of 1,064 rows at 10 qubits, whole batch vs
# 2^16/2^17/2^18-amplitude blocks (x86-64, OpenBLAS at 1 thread): ROTATION
# 382 vs 242/252/238 ms, ISING 175 vs 168/154/154 ms, CNOT 79 vs 45/44/44 ms,
# HAAR reflectors 354 vs 356/329/315 ms.
BLOCK_AMPLITUDES = 1 << 17
# `encode_batch` builds the product state's first qubits over all rows at
# once: a row-major step over 2^q-amplitude slices pays a loop per row.
# Product state of 886 rows at 5 qubits (x86-64): 136 us against 354 us
# row-major. At 10 qubits and 128 rows a whole (2^M, P) build and its
# transpose took about 2x the row-major time, so the qubits from here on,
# whose slices hold at least 32 amplitudes, stay row-major (as fast as before).
LONG_SLICE_QUBITS = 5


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalizationParams:
    """Per-feature training min/max defining the linear map onto [0, pi]:
    finite, read-only, equal-length 1-D bounds with no min above its max."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", number_array("normalization.mins", self.mins))
        object.__setattr__(self, "maxs", number_array("normalization.maxs", self.maxs))
        if self.mins.ndim != 1 or self.mins.shape != self.maxs.shape:
            raise ValidationError("field 'normalization' needs 1-D mins and maxs of equal "
                                  f"length, got shapes {self.mins.shape} and {self.maxs.shape}")
        if np.any(self.mins > self.maxs):
            raise ValidationError("field 'normalization' has a min above its max")

    @property
    def num_features(self) -> int:
        return len(self.mins)


def fit_normalization(training_features: np.ndarray) -> NormalizationParams:
    """Column-wise extrema of a (P, M) training matrix."""
    feats = np.asarray(training_features, dtype=float)
    if feats.ndim != 2:
        raise ShapeError("training features must be a 2-D (windows x features) matrix")
    if feats.shape[0] < 1:
        raise ValidationError("training features must contain at least one row")
    # a NaN or infinite feature gives a bound that NormalizationParams refuses
    return NormalizationParams(feats.min(axis=0), feats.max(axis=0))


def apply_normalization(params: NormalizationParams, features: np.ndarray) -> np.ndarray:
    """Map features linearly so the training min is 0 and the training max
    is pi; finite values outside the training range are clamped, and a
    constant training feature maps to 0 (its rotation becomes a no-op)."""
    feats = np.asarray(features, dtype=float)
    if feats.shape[-1] != params.num_features:
        raise ShapeError(
            f"expected {params.num_features} features, got {feats.shape[-1]}"
        )
    require_finite("features", feats)
    span = params.maxs - params.mins
    safe_span = np.where(span > 0, span, 1.0)
    angles = (feats - params.mins) / safe_span * np.pi
    angles = np.where(span > 0, angles, 0.0)
    return np.clip(angles, 0.0, np.pi)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def _tuples(name: str, value, levels: int):
    """`value`, lists or tuples nested `levels` deep (as a pipeline document
    holds them), as tuples nested alike (`value` itself if it is so already);
    anything else where a list belongs raises ValidationError naming `name`."""
    if levels == 0:
        return value
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"field '{name}' needs a list where it holds {value!r}")
    items = tuple(_tuples(name, item, levels - 1) for item in value)
    return value if items == value else items


def _check_seed(seed) -> None:
    """A spec's `seed`: None or an integer >= 0, as numpy's SeedSequence takes."""
    if seed is not None and check_number("seed", seed, integer=True) < 0:
        raise ConfigurationError(f"field 'seed' must be >= 0, got {seed}")


@dataclass(frozen=True)
class EncoderSpec:
    """Hardware-efficient encoder: per-qubit rotations then a cyclic CZ ring.

    DHE rotates every qubit around X; RHE draws each qubit's axis uniformly
    from {X, Y, Z} (per layer, from `seed`). One qubit per feature. Frozen,
    with the axis assignment as nested tuples.
    """

    kind: str
    num_features: int
    depth: int = 1
    seed: int | None = None
    axis_assignment: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ConfigurationError(f"unknown encoder kind {self.kind!r}")
        width, cap = self.num_features, quantum.MAX_STATE_QUBITS
        if not 2 <= check_number("num_features", width, integer=True) <= cap:
            raise ConfigurationError(f"field 'num_features' must be in [2, {cap}] (the ring "
                                     f"needs 2 qubits, the state cap is {cap}), got {width}")
        if check_number("depth", self.depth, integer=True) < 1:
            raise ConfigurationError("field 'depth' must be >= 1")
        _check_seed(self.seed)
        axes = self.axis_assignment
        if axes is None:
            if self.kind == "DHE":
                axes = (("X",) * width,) * self.depth
            elif self.seed is None:
                raise ConfigurationError("RHE encoder requires a seed")
            else:
                rng = np.random.default_rng(self.seed)
                axes = tuple(tuple(quantum.PAULI_KINDS[i]
                                   for i in rng.integers(0, 3, size=width).tolist())
                             for _ in range(self.depth))
        object.__setattr__(self, "axis_assignment", _tuples("axis_assignment", axes, 2))
        if len(self.axis_assignment) != self.depth:
            raise ConfigurationError(
                f"field 'axis_assignment' must hold {self.depth} layers (the depth), "
                f"got {len(self.axis_assignment)}")
        for layer in self.axis_assignment:
            if len(layer) != self.num_features:
                raise ConfigurationError("axis assignment must cover every qubit")
            if any(a not in quantum.PAULI_KINDS for a in layer):
                raise ConfigurationError("axes must be X, Y or Z")
        if self.kind == "DHE" and any(a != "X" for layer in self.axis_assignment
                                      for a in layer):
            raise ConfigurationError("DHE axes must all be X")


# ---------------------------------------------------------------------------
# reservoirs
# ---------------------------------------------------------------------------

# one (axis, angle) per qubit, per layer
RotationLayers = tuple[tuple[tuple[str, float], ...], ...]
# a reservoir's sampled parameters, per kind as in ReservoirSpec
ReservoirParams = IsingParams | RotationLayers | np.ndarray | tuple[np.ndarray, ...] | None


@dataclass(frozen=True)
class ReservoirSpec:
    """Which fixed reservoir to build. `params` holds its sampled parameters
    when they are known, and `build_reservoir` draws them from `seed`
    otherwise: for ISING an `IsingParams`, for ROTATION one rotation layer
    per unit of depth (held as nested tuples), for HAAR one dense unitary
    or the (qr, tau) of `quantum.haar_reflectors` (checked in O(4^M), and
    held as read-only arrays), and for CNOT none. Frozen."""

    kind: str
    num_qubits: int
    depth: int = 10
    seed: int | None = None
    params: ReservoirParams = None

    def __post_init__(self):
        if self.kind not in RESERVOIR_KINDS:
            raise ConfigurationError(f"unknown reservoir kind {self.kind!r}")
        ring = int(self.kind in ("CNOT", "ROTATION"))   # layers end in a CNOT ring
        cap = quantum.MAX_STATE_QUBITS if ring else quantum.MAX_DENSE_QUBITS   # dense 2^M
        width = check_number("num_qubits", self.num_qubits, integer=True)
        if not 1 + ring <= width <= cap:
            raise ConfigurationError(f"field 'num_qubits' must be in [{1 + ring}, {cap}] "
                                     f"for {self.kind}, got {width}")
        # only the ring kinds stack layers, but every kind records its depth
        if check_number("depth", self.depth, integer=True) < ring:
            raise ConfigurationError(f"field 'depth' must be >= {ring}, got {self.depth}")
        _check_seed(self.seed)
        if self.params is None:
            if self.seed is None and self.kind != "CNOT":
                raise ConfigurationError(f"{self.kind} reservoir requires a seed or params")
        elif self.kind == "CNOT":
            raise ConfigurationError("field 'params' must be None for CNOT: it has no "
                                     "random parameters")
        elif self.kind == "ISING":
            if not (isinstance(self.params, IsingParams) and self.params.num_qubits == width):
                raise ConfigurationError(f"field 'params' must be IsingParams over {width} "
                                         "qubits for ISING")
        elif self.kind == "ROTATION":
            self._check_rotation_layers()
        else:
            self._check_haar()
            object.__setattr__(self, "params", read_only(self.params))

    def _check_rotation_layers(self) -> None:
        object.__setattr__(self, "params", _tuples("rotation_layers", self.params, 3))
        layers = self.params
        if len(layers) != self.depth:
            raise ConfigurationError(
                f"field 'rotation_layers' must hold {self.depth} layers (the depth), "
                f"got {len(layers)}")
        for layer in layers:
            if len(layer) != self.num_qubits:
                raise ConfigurationError("each rotation layer must cover every qubit")
            for entry in layer:
                if len(entry) != 2:
                    raise ValidationError("field 'rotation_layers' must hold [axis, angle] "
                                          f"pairs, got {list(entry)!r}")
                axis, angle = entry
                if axis not in quantum.PAULI_KINDS:
                    raise ConfigurationError(
                        f"field 'rotation_layers' has axis {axis!r}; axes must be X, Y or Z")
                check_number("rotation_layers", angle, error=ValidationError)

    def _check_haar(self) -> None:
        """A dense unitary, or (qr, tau) checked in O(dim^2): H_i = I - tau_i
        v_i v_i^H is unitary exactly when 2 Re tau_i = |tau_i|^2 |v_i|^2, and
        every phase R_ii / |R_ii| needs R_ii != 0."""
        dim, u = 1 << self.num_qubits, self.params
        if not (isinstance(u, tuple) and len(u) == 2):
            if not (isinstance(u, np.ndarray) and u.shape == (dim, dim)
                    and quantum.unitarity_defect(u) < 1e-10):
                raise ValidationError(f"HAAR matrix must be a {dim}x{dim} unitary")
            return
        qr, tau = u
        if np.shape(qr) != (dim, dim) or np.shape(tau) != (dim,):
            raise ValidationError(f"fields 'reflectors' and 'tau' must be {dim}x{dim} "
                                  f"and {dim} long, got {np.shape(qr)} and {np.shape(tau)}")
        norms = 1.0 + np.sum(np.abs(np.triu(qr, 1)) ** 2, axis=1)
        bad = np.flatnonzero(np.abs(2.0 * tau.real - np.abs(tau) ** 2 * norms) > 1e-10)
        if len(bad):
            raise ValidationError(f"fields 'reflectors' and 'tau' make reflector {bad[0]} "
                                  "non-unitary")
        if np.any(np.diagonal(qr) == 0):
            raise ValidationError("field 'reflectors' has a zero on R's diagonal")


@dataclass(frozen=True, eq=False)
class Stage:
    """One compiled step of a reservoir acting on a (P, 2^M) batch.

    Applied in this order, each part optional: `parity` is (U+/2, U-/2), the
    halved spin-flip parity blocks of a matrix U = [[a, b R], [R b, R a R]]
    with a = (U+ + U-)/2, b = (U+ - U-)/2 and R the 2^(M-1) reversal (see
    `quantum.ising_parity_blocks`); `reflectors` is (phases, blocks), the
    unitary H_0 ... H_{n-1} D of `quantum.haar_reflectors` with D =
    diag(phases), each block (start, W, V^T) the compact-WY form I - V T V^H
    of WY_BLOCK consecutive reflectors from `start` on, restricted to the
    columns from `start` (V's rows before it are zero) and W = conj(V) T^T
    (see `_reflector_stage`); `low` acts on the low qubits (the last axis of
    the amplitudes reshaped to (..., len(low))), `high` on the remaining
    high qubits, and `perm` gathers amplitude i from index perm[i]. A dense
    stage is a `low` matrix over all M qubits. Every array is read-only.
    """

    low: np.ndarray | None = None
    high: np.ndarray | None = None
    perm: np.ndarray | None = None
    parity: tuple[np.ndarray, np.ndarray] | None = None
    # (phases, ((start, W, V^T), ...))
    reflectors: tuple[np.ndarray, tuple[tuple, ...]] | None = None

    def __post_init__(self):
        for name in ("low", "high", "perm", "parity", "reflectors"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        rows, dim = amps.shape
        if self.parity is not None:
            # with lo, hi the halves of a row and p = U+/2 (lo + R hi),
            # m = U-/2 (lo - R hi): U [lo; hi] = [p + m; R (p - m)]. The GEMMs
            # write p and m straight into the halves of the fresh output, and
            # one half-size work array serves every intermediate: fresh pages
            # cost as much as the arithmetic at 7-9 qubits.
            half_plus, half_minus = self.parity
            n = dim // 2
            lo, hi_reversed = amps[:, :n], amps[:, :n - 1:-1]
            amps = np.empty((rows, dim), dtype=complex)   # never the caller's array
            p, m = amps[:, :n], amps[:, n:]
            work = lo + hi_reversed
            np.matmul(work, half_plus.T, out=p)
            np.subtract(lo, hi_reversed, out=work)
            np.matmul(work, half_minus.T, out=m)
            np.subtract(p, m, out=work)
            p += m
            m[...] = work[:, ::-1]
        if self.reflectors is not None:
            # a row x becomes x D Q^T, and Q^T is the blocks' I - conj(V) T^T
            # V^T in reverse order; each touches only the columns from its start
            phases, blocks = self.reflectors
            amps = amps * phases   # fresh: never the caller's array
            for start, w, vt in reversed(blocks):
                tail = amps[:, start:]
                tail -= (tail @ w) @ vt
        if self.low is not None:
            amps = (amps.reshape(-1, len(self.low)) @ self.low.T).reshape(rows, dim)
        if self.high is not None:
            amps = (self.high @ amps.reshape(rows, len(self.high), -1)).reshape(rows, dim)
        if self.perm is not None:
            amps = np.take(amps, self.perm, axis=1)
        return amps

    def multiply_adds(self, dim: int) -> int:
        """Complex multiply-adds `apply` spends per row of a (P, dim) batch:
        the permutation costs none."""
        cost = 0 if self.parity is None else 2 * len(self.parity[0]) ** 2
        if self.reflectors is not None:
            cost += sum(2 * w.size for _, w, _ in self.reflectors[1])
        return cost + sum(dim * len(mat) for mat in (self.low, self.high) if mat is not None)


@dataclass(frozen=True, eq=False)
class Reservoir:
    """Built reservoir: its compiled stages, and the sampled `params` they
    were compiled from (as in `ReservoirSpec`, and not checked again), so it
    serializes without the seed. Frozen; HAAR params are read-only arrays."""

    kind: str
    num_qubits: int
    depth: int = 10
    stages: tuple[Stage, ...] = ()
    params: ReservoirParams = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.kind == "HAAR":   # the one kind whose params are arrays
            object.__setattr__(self, "params", read_only(self.params))


def _sample_rotation_layers(num_qubits: int, depth: int, seed: int) -> RotationLayers:
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        axes = [quantum.PAULI_KINDS[i] for i in rng.integers(0, 3, size=num_qubits).tolist()]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=num_qubits).tolist()
        layers.append(tuple(zip(axes, angles)))
    return tuple(layers)


def _ring_permutation(num_qubits: int, depth: int) -> np.ndarray:
    """Gather indices of `depth` CNOT rings (0, 1), (1, 2), ..., (M-1, 0)
    applied in order: each gate's kernel is itself a gather a -> a[src], so
    applying one ring's gates to the identity index array composes them, and
    gathering that ring through itself adds a ring."""
    ring = np.arange(1 << num_qubits)
    for i in range(num_qubits):
        gate = GateOp("CNOT", target=(i + 1) % num_qubits, control=i)
        ring = quantum.apply_gate_kernel(ring, num_qubits, gate)
    perm = ring
    for _ in range(depth - 1):
        perm = perm[ring]
    return perm


def _rotation_factors(layers: RotationLayers, split: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors of every layer's rotations: (L, 2^split, 2^split) for
    qubits below `split` and (L, 2^(M-split), 2^(M-split)) for the rest (1x1
    identities when no qubit is left), the first qubit of each factor on its
    least significant index bit.

    One `quantum.rotation_matrix` call gives every slot's 2x2 matrix, and
    each factor grows one qubit at a time as u (x) mat by a broadcast outer
    product over all L layers at once."""
    rot = quantum.rotation_matrix([[axis for axis, _ in layer] for layer in layers],
                                  [[angle for _, angle in layer] for layer in layers])
    num_layers = len(rot)   # rot is (L, M, 2, 2)

    def kron(qubits: np.ndarray) -> np.ndarray:
        mat = np.ones((num_layers, 1, 1), dtype=complex)
        for q in range(qubits.shape[1]):
            dim = mat.shape[1]
            mat = (qubits[:, q, :, None, :, None] * mat[:, None, :, None, :]
                   ).reshape(num_layers, 2 * dim, 2 * dim)
        return mat

    return kron(rot[:, :split]), kron(rot[:, split:])


def _reflector_stage(qr: np.ndarray, tau: np.ndarray) -> Stage:
    """The `reflectors` stage of `quantum.haar_reflectors`' (qr, tau): per
    block of WY_BLOCK reflectors from `start`, V^T holds their vectors over
    the columns from `start` (unit diagonal, zeros before it) and the
    upper-triangular T follows LAPACK's `larft`: T[i, i] = tau_i and
    T[:i, i] = -tau_i T[:i, :i] (V^H v_i)[:i]."""
    qr = np.ascontiguousarray(qr)   # one layout, whichever path made it
    diag = np.diagonal(qr)
    blocks = []
    for start in range(0, len(tau), WY_BLOCK):
        stop = min(start + WY_BLOCK, len(tau))
        vt = np.triu(qr[start:stop, start:], 1)
        np.fill_diagonal(vt, 1.0)
        gram = vt.conj() @ vt.T
        t = np.zeros((stop - start, stop - start), dtype=complex)
        for i, tau_i in enumerate(tau[start:stop]):
            t[i, i] = tau_i
            t[:i, i] = -tau_i * (t[:i, :i] @ gram[:i, i])
        blocks.append((start, vt.T.conj() @ t.T, vt))
    return Stage(reflectors=(diag / np.abs(diag), tuple(blocks)))


def build_reservoir(spec: ReservoirSpec) -> Reservoir:
    """Materialize and compile a reservoir; deterministic for a fixed spec and seed.

    Without `spec.params` the parameters are drawn from the seed first: HAAR
    as one dense unitary below HAAR_REFLECTOR_QUBITS qubits and as its
    Householder reflectors from there. The stages are then compiled from the
    parameters alone, so a spec carrying a built reservoir's `params`
    rebuilds its stages exactly."""
    kind, d, params = spec.kind, spec.num_qubits, spec.params
    if kind == "CNOT":
        stages = (Stage(perm=_ring_permutation(d, spec.depth)),)
    elif kind == "HAAR":
        if params is None:   # read-only here, so a dense stage shares the array
            params = read_only((quantum.haar_unitary if d < HAAR_REFLECTOR_QUBITS
                                else quantum.haar_reflectors)(1 << d, spec.seed))
        stages = (_reflector_stage(*params) if isinstance(params, tuple) else Stage(params),)
    elif kind == "ISING":
        if params is None:
            params = quantum.sample_ising_params(d, spec.seed)
        if d < ISING_PARITY_QUBITS:
            stages = (Stage(quantum.ising_unitary(params)),)
        else:
            halves = tuple(u / 2.0 for u in quantum.ising_parity_blocks(params))
            stages = (Stage(parity=halves),)
    else:
        if params is None:
            params = _sample_rotation_layers(d, spec.depth, spec.seed)
        # frozen here once: each layer's slice of a read-only array is read-only
        ring = read_only(_ring_permutation(d, 1))
        low, high = read_only(_rotation_factors(params, d - d // 2))
        stages = tuple(Stage(low[k], high[k], ring) for k in range(spec.depth))
    return Reservoir(kind, d, spec.depth, stages, params)


# ---------------------------------------------------------------------------
# circuit execution
# ---------------------------------------------------------------------------

def _angle_batch(encoder: EncoderSpec, angles) -> np.ndarray:
    """`angles` as a finite (P, M) float array for the encoder's M qubits."""
    m = encoder.num_features
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.ndim != 2 or angles.shape[1] != m:
        raise ShapeError(f"expected one row or a (rows, {m}) batch of angles, "
                         f"got shape {angles.shape}")
    require_finite("angles", angles)
    return angles


def encode_batch(encoder: EncoderSpec, angles: np.ndarray) -> np.ndarray:
    """Encoded (P, 2^M) batch for a batch of angle vectors (P, M).

    One `quantum.rotation_matrix` call per layer gives every row's and
    qubit's rotation. The first layer acts on |0...0>, so it is built as
    the product of each qubit's R|0> (column 0), one qubit at a time: qubit
    q doubles the 2^q amplitudes built so far. A row-major step runs over
    P slices of 2^q amplitudes, too short below LONG_SLICE_QUBITS qubits, so
    those first qubits are built in a (2^q, P) array whose steps each run
    over all P rows, transposed once into the batch; the later qubits double
    it in place. Re-uploaded layers go through `quantum.apply_single_qubit`
    with one matrix per row. The CZ ring on the pairs (k, k + 1 mod M) is one
    +-1 sign vector. The batch depends only on the angles and the axis
    assignment (see `harness`)."""
    angles = _angle_batch(encoder, angles)
    m = encoder.num_features
    bits = quantum.basis_bits(m)
    ring_signs = 1.0 - 2.0 * ((bits & np.roll(bits, -1, axis=1)).sum(axis=1) & 1)
    layers = [quantum.rotation_matrix(axes, angles) for axes in encoder.axis_assignment]
    on_zero = layers[0][..., 0]   # (P, M, 2): each qubit's R|0>
    low = min(m, LONG_SLICE_QUBITS)
    by_qubit = np.ascontiguousarray(on_zero[:, :low].transpose(1, 2, 0))   # (low, 2, P)
    columns = np.empty((1 << low, len(angles)), dtype=complex)
    columns[:2] = by_qubit[0]
    for q in range(1, low):
        half = 1 << q
        np.multiply(by_qubit[q, 1], columns[:half], out=columns[half:2 * half])
        columns[:half] *= by_qubit[q, 0]
    amps = np.empty((len(angles), 1 << m), dtype=complex)
    amps[:, :1 << low] = columns.T
    for q in range(low, m):
        half = 1 << q
        np.multiply(on_zero[:, q, 1, None], amps[:, :half], out=amps[:, half:2 * half])
        amps[:, :half] *= on_zero[:, q, 0, None]
    amps *= ring_signs
    for rot in layers[1:]:
        for k in range(m):
            amps = quantum.apply_single_qubit(amps, m, k, rot[:, k])
        amps *= ring_signs
    return amps


def _support_transfer(encoder: EncoderSpec, reservoir: Reservoir,
                      rows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(S, T) for running `rows` encoded rows through the reservoir as
    x[:, S] @ T, or None where the stages should run instead (the subspace
    rule of the module docstring). S is the support the frozen qubits leave
    (every index when none is frozen) and T the (|S|, 2^M) transfer matrix,
    S's unit rows pushed through the stages. R_Z has an exact 0 below its
    diagonal, and R_Z and the CZ signs are diagonal, so an encoded amplitude
    with a frozen bit set is an exact 0 and x[:, S] @ T differs from the
    stages only in floating-point order."""
    m = encoder.num_features
    dim = 1 << m
    frozen = sum(1 << q for q in range(m)
                 if all(layer[q] == "Z" for layer in encoder.axis_assignment))
    size = dim >> bin(frozen).count("1")
    cost = sum(stage.multiply_adds(dim) for stage in reservoir.stages)
    if size * dim > BLOCK_AMPLITUDES or size * (cost + rows * dim) >= rows * cost:
        return None
    support = np.flatnonzero((np.arange(dim) & frozen) == 0)
    transfer = np.zeros((size, dim), dtype=complex)   # np.eye(dim)[support], unformed
    transfer[np.arange(size), support] = 1.0
    for stage in reservoir.stages:
        transfer = stage.apply(transfer)
    return support, transfer


def run_circuit_batch(encoder: EncoderSpec, reservoir: Reservoir,
                      angles: np.ndarray, encoded: np.ndarray | None = None) -> np.ndarray:
    """Observation matrix (P, 3M) for a batch of angle vectors (P, M).

    Rows start in |0...0>, go through the encoder with each row's angles
    bound, then through the reservoir's compiled stages; columns are ordered
    [<X^1>, <Y^1>, <Z^1>, ..., <X^M>, <Y^M>, <Z^M>]. `encoded`, when given,
    is `encode_batch(encoder, angles)` computed earlier; it must be (P, 2^M)
    and is only read, so one batch can serve many reservoirs.

    The rows go through the whole circuit in blocks of at most
    BLOCK_AMPLITUDES amplitudes, each written into one preallocated
    observation matrix; a batch within the budget is a single block. Each
    block may instead run as one GEMM on the support that the encoder's
    frozen qubits (axis Z in every layer) leave occupied, every index when
    none is, through the stages' transfer matrix on it (`_support_transfer`
    says when); only the floating-point order differs.
    """
    angles = _angle_batch(encoder, angles)
    m = encoder.num_features
    if reservoir.num_qubits != m:
        raise ShapeError("reservoir size does not match encoder width")
    if encoded is not None and np.shape(encoded) != (len(angles), 1 << m):
        raise ShapeError(f"encoded batch must be {(len(angles), 1 << m)}, "
                         f"got {np.shape(encoded)}")
    obs = np.empty((len(angles), 3 * m))
    subspace = _support_transfer(encoder, reservoir, len(angles))
    step = max(1, BLOCK_AMPLITUDES >> m)
    for start in range(0, len(angles), step):
        rows = slice(start, start + step)
        amps = encode_batch(encoder, angles[rows]) if encoded is None else encoded[rows]
        if subspace is not None:
            support, transfer = subspace
            amps = amps[:, support] @ transfer
        else:
            for stage in reservoir.stages:   # each stage returns a new array
                amps = stage.apply(amps)
        obs[rows] = quantum.pauli_expectations(amps, m)
    return obs


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def _check_ridge_lambda(value) -> None:
    """A readout's `ridge_lambda`: a finite number >= 0."""
    if check_number("ridge_lambda", value, error=ValidationError) < 0:
        raise ValidationError(f"field 'ridge_lambda' must be >= 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Linear readout t_pre = W . V on the 3M expectations V, with no
    intercept: finite, read-only 1-D weights and the finite ridge_lambda >= 0
    they were fit with."""

    weights: np.ndarray
    ridge_lambda: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", number_array("readout.weights", self.weights))
        if self.weights.ndim != 1:
            raise ValidationError(f"field 'readout.weights' must be 1-D, got {self.weights.shape}")
        _check_ridge_lambda(self.ridge_lambda)


def fit_readout(observations: np.ndarray, targets: np.ndarray,
                ridge_lambda: float = 0.0) -> ReadoutModel:
    """Least-squares weights minimizing sum (W.V_j - t_j)^2 (+ lambda |W|^2).

    One SVD-based lstsq on the observations themselves, stacked over
    sqrt(lambda) I with zero targets when lambda > 0; it returns the
    minimum-norm solution for rank-deficient matrices.
    """
    obs = np.asarray(observations, dtype=float)
    t = np.asarray(targets, dtype=float)
    if obs.ndim != 2:
        raise ShapeError("observations must be a 2-D matrix")
    if t.shape != (obs.shape[0],):
        raise ShapeError("targets length does not match observation rows")
    if obs.shape[0] < 1:
        raise ValidationError("need at least one training row")
    require_finite("observations/targets", obs, t)
    _check_ridge_lambda(ridge_lambda)   # before np.sqrt
    if ridge_lambda > 0:
        k = obs.shape[1]
        obs = np.vstack([obs, np.sqrt(ridge_lambda) * np.eye(k)])
        t = np.concatenate([t, np.zeros(k)])
    weights, *_ = np.linalg.lstsq(obs, t, rcond=None)
    return ReadoutModel(weights, float(ridge_lambda))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Pipeline:
    """Trained QELM: normalization + encoder + built reservoir + readout.

    Frozen, with frozen parts and read-only arrays, so it predicts as it was
    trained; prediction is pure. The parts must fit: reservoir and
    normalization as wide as the encoder, 3M readout weights, and a training
    RSS that is NaN (unknown) or >= 0."""

    normalization: NormalizationParams
    encoder: EncoderSpec
    reservoir: Reservoir
    readout: ReadoutModel
    training_rss: float = float("nan")

    def __post_init__(self):
        m, rss = self.encoder.num_features, self.training_rss
        widths = (self.reservoir.num_qubits, self.normalization.num_features)
        if widths != (m, m):
            raise ValidationError(f"reservoir and normalization widths {widths} must match "
                                  f"the encoder's width {m}")
        if self.readout.weights.shape != (3 * m,):
            raise ValidationError(f"readout needs {3 * m} weights, got "
                                  f"{len(self.readout.weights)}")
        # NaN (rss != rss) is an unknown RSS
        if rss == rss and check_number("training_rss", rss, error=ValidationError) < 0:
            raise ValidationError(f"field 'training_rss' must be >= 0, got {rss!r}")

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        feats = np.atleast_2d(np.asarray(features, dtype=float))
        angles = apply_normalization(self.normalization, feats)
        obs = run_circuit_batch(self.encoder, self.reservoir, angles)
        return obs @ self.readout.weights

    def predict(self, features: np.ndarray) -> float:
        row = np.asarray(features)
        if row.ndim != 1:
            raise ShapeError(f"predict takes one feature row, got shape {row.shape}; "
                             "use predict_batch for a batch")
        return float(self.predict_batch(row[None, :])[0])

    def to_json(self) -> str:
        return json.dumps(_pipeline_to_dict(self))

    @classmethod
    def from_json(cls, text: str) -> "Pipeline":
        try:
            return _pipeline_from_dict(json.loads(text))
        except KeyError as exc:
            raise ValidationError(f"pipeline document is missing key {exc.args[0]!r}") from None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Pipeline":
        with open(path) as fh:
            return cls.from_json(fh.read())


def qelm_train(train, encoder: EncoderSpec, reservoir: ReservoirSpec,
               ridge_lambda: float = 0.0) -> Pipeline:
    """Fit the full pipeline on training windows.

    `train` is either a dataset object exposing feature_matrix()/awt_values()
    or a (features, targets) pair: a 2-D matrix of at least one row and its
    targets, finite real numbers only (else a ValidationError naming the
    field). Normalization is fit on the training data only.
    """
    if hasattr(train, "feature_matrix"):
        train = train.feature_matrix(), train.awt_values()
    features, targets = train
    features, targets = number_array("features", features), number_array("targets", targets)
    norm = fit_normalization(features)   # a 2-D matrix of at least one row
    if features.shape[1] != encoder.num_features:
        raise ShapeError("encoder width does not match dataset feature count")
    if targets.shape != (len(features),):   # checked before the reservoir is built
        raise ShapeError(f"targets must hold one entry per feature row, got {targets.shape}")
    if reservoir.num_qubits != encoder.num_features:
        raise ShapeError("reservoir size does not match encoder width")
    _check_ridge_lambda(ridge_lambda)
    built = build_reservoir(reservoir)
    angles = apply_normalization(norm, features)
    observations = run_circuit_batch(encoder, built, angles)
    readout = fit_readout(observations, targets, ridge_lambda)
    residuals = observations @ readout.weights - targets
    return Pipeline(norm, encoder, built, readout,
                    training_rss=float(residuals @ residuals))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _pipeline_to_dict(p: Pipeline) -> dict:
    kind, params = p.reservoir.kind, p.reservoir.params
    reservoir: dict = {"kind": kind, "num_qubits": p.reservoir.num_qubits,
                       "depth": p.reservoir.depth}
    if kind == "ISING":
        reservoir["ising"] = {"couplings": params.couplings.tolist(),
                              "fields": params.fields.tolist(),
                              "time_step": params.time_step}
    elif kind == "ROTATION":
        reservoir["rotation_layers"] = [[[axis, angle] for axis, angle in layer]
                                        for layer in params]
    elif kind == "HAAR" and isinstance(params, tuple):
        qr, tau = params
        reservoir.update(reflectors_re=qr.real.tolist(), reflectors_im=qr.imag.tolist(),
                         tau_re=tau.real.tolist(), tau_im=tau.imag.tolist())
    elif kind == "HAAR":
        reservoir.update(unitary_re=params.real.tolist(), unitary_im=params.imag.tolist())
    doc = {
        "format": "qelm-pipeline-v1",
        "encoder": {
            "kind": p.encoder.kind,
            "num_features": p.encoder.num_features,
            "depth": p.encoder.depth,
            "axis_assignment": [list(layer) for layer in p.encoder.axis_assignment],
        },
        "reservoir": reservoir,
        "normalization": {"mins": p.normalization.mins.tolist(),
                          "maxs": p.normalization.maxs.tolist()},
        "readout": {"weights": p.readout.weights.tolist(),
                    "ridge_lambda": p.readout.ridge_lambda},
    }
    if not np.isnan(p.training_rss):   # an unknown RSS is left out, as the loader reads it
        doc["training_rss"] = p.training_rss
    return doc


# the keys the writer emits: per section, and in a reservoir per kind (HAAR per form)
_DOCUMENT_KEYS = ("format", "encoder", "reservoir", "normalization", "readout", "training_rss")
_RESERVOIR_KEYS = {"CNOT": (), "ISING": ("ising",), "ROTATION": ("rotation_layers",),
                   "HAAR": ("unitary_re", "unitary_im"),
                   "reflectors": ("reflectors_re", "reflectors_im", "tau_re", "tau_im")}
_ANY_RESERVOIR_KEYS = ("kind", "num_qubits", "depth") + sum(_RESERVOIR_KEYS.values(), ())


def _complex_field(res: dict, name: str) -> np.ndarray:
    """The complex array stored as `name`_re and `name`_im."""
    real = number_array(f"{name}_re", res[f"{name}_re"])
    imag = number_array(f"{name}_im", res[f"{name}_im"])
    if real.shape != imag.shape:
        raise ValidationError(f"fields '{name}_re' and '{name}_im' differ in shape")
    values = np.empty(real.shape, dtype=complex)
    values.real, values.imag = real, imag
    return values


def _pipeline_from_dict(doc: dict) -> Pipeline:
    """The pipeline a document holds. The constructors check every field and
    how the parts fit; this reader checks only the document's own format: its
    tag, its keys, the readout keys of earlier documents, the HAAR form and a
    present `training_rss`, which must be a number."""
    if check_keys("pipeline document", doc, _DOCUMENT_KEYS).get("format") != "qelm-pipeline-v1":
        raise ConfigurationError("unrecognized pipeline document format")
    enc = check_keys("pipeline encoder", doc["encoder"],
                     ("kind", "num_features", "depth", "axis_assignment"))
    encoder = EncoderSpec(enc["kind"], enc["num_features"], enc["depth"],
                          axis_assignment=enc["axis_assignment"])
    res = check_keys("pipeline reservoir", doc["reservoir"], _ANY_RESERVOIR_KEYS)
    kind, d, params = res["kind"], res["num_qubits"], None
    if kind not in RESERVOIR_KINDS:
        raise ValidationError(f"unknown reservoir kind {kind!r}")
    form = "reflectors" if kind == "HAAR" and "reflectors_re" in res else kind
    check_keys("pipeline reservoir", res, ("kind", "num_qubits", "depth") + _RESERVOIR_KEYS[form])
    if kind == "ISING":
        ising = check_keys("pipeline reservoir.ising", res["ising"],
                           ("couplings", "fields", "time_step"))
        params = IsingParams(d, ising["couplings"], ising["fields"], ising["time_step"])
    elif kind == "ROTATION":
        params = res["rotation_layers"]
    elif form == "reflectors":
        params = (_complex_field(res, "reflectors"), _complex_field(res, "tau"))
    elif kind == "HAAR":
        params = _complex_field(res, "unitary")
    reservoir = build_reservoir(ReservoirSpec(kind, d, res["depth"], params=params))
    bounds = check_keys("pipeline normalization", doc["normalization"], ("mins", "maxs"))
    ro = check_keys("pipeline readout", doc["readout"],
                    ("weights", "ridge_lambda", "include_intercept", "intercept"))
    # keys written while the readout could hold an intercept
    if ro.get("include_intercept", False) is not False:
        raise ValidationError("field 'include_intercept' must be false (the readout has no "
                              f"intercept), got {ro['include_intercept']!r}")
    if check_number("intercept", ro.get("intercept", 0), error=ValidationError) != 0:
        raise ValidationError("field 'intercept' must be 0 (the readout has no intercept), "
                              f"got {ro['intercept']!r}")
    rss = (check_number("training_rss", doc["training_rss"], error=ValidationError)
           if "training_rss" in doc else float("nan"))   # left out: unknown
    return Pipeline(NormalizationParams(bounds["mins"], bounds["maxs"]), encoder, reservoir,
                    ReadoutModel(ro["weights"], ro["ridge_lambda"]), rss)
