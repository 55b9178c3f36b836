"""Quantum extreme learning machine pipeline.

Feature vectors are min-max normalized to rotation angles in [0, pi],
injected by a hardware-efficient encoder (one qubit per feature), evolved
through a fixed randomly-parameterized reservoir, and measured as the
3M-vector of per-qubit X/Y/Z expectations. Only the linear readout on top
of those expectations is trained, by plain (optionally ridge) least squares.

Execution is batched and compiled: a whole dataset of angle vectors runs
through the circuit as one (P, 2^M) amplitude array, and no gate is applied
one at a time.

- Encoder: `encode_batch`. The first rotation layer acts on |0...0>, so it
  is built as a product state by M outer products; the CZ ring is one +-1
  sign vector. Re-uploading layers (depth > 1) rotate each qubit with its
  row's matrix. The batch depends only on the angles and the encoder's axis
  assignment, so `run_circuit_batch` accepts a precomputed one (`encoded`)
  and only reads it: the sweep encodes each fold's angles once per distinct
  assignment and shares the batch among that assignment's cells, while the
  batch holds at most 2^MAX_STATE_QUBITS amplitudes (see `harness`).
- Reservoir: `build_reservoir` compiles the reservoir into `Stage`s, each an
  optional low-qubit matrix, high-qubit matrix and index permutation. HAAR
  and ISING are one dense stage; CNOT is its whole ring stack composed into
  one permutation. ROTATION takes the cheaper of two exact forms: one stage
  per layer (two Kronecker factors of 2^ceil(M/2) and 2^floor(M/2) for its
  rotations, built for every layer in one broadcast, plus the layer's ring
  permutation), or, where 2^M <= L * (2^ceil(M/2) + 2^floor(M/2)) for L
  layers, the whole stack folded into one dense stage.
- Readout: `quantum.pauli_expectations`, one GEMM for every qubit's <Z>.

The compiled forms call `quantum`'s kernels: `rotation_matrix` for every
rotation and `apply_single_qubit` for re-uploaded ones, `apply_gate_kernel`
for composing the CNOT rings, `pauli_expectations` for the readout,
`haar_unitary` and `ising_unitary` for the reservoir matrices. The dense
Kronecker oracle in the tests is their independent reference.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .errors import ConfigurationError, ShapeError, ValidationError
from .quantum import GateOp, IsingParams

ENCODER_KINDS = ("DHE", "RHE")
RESERVOIR_KINDS = ("CNOT", "HAAR", "ISING", "ROTATION")


def _require_count(name: str, value, minimum: int) -> None:
    """Reject a spec field that is not an integer (bools included) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"field '{name}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"field '{name}' must be >= {minimum}, got {value}")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass
class NormalizationParams:
    """Per-feature training min/max defining the linear map onto [0, pi]."""

    mins: np.ndarray
    maxs: np.ndarray

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
    if not np.all(np.isfinite(feats)):
        raise ValidationError("training features must be finite (no NaN or infinity)")
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
    if not np.all(np.isfinite(feats)):
        raise ValidationError("features must be finite (no NaN or infinity)")
    span = params.maxs - params.mins
    safe_span = np.where(span > 0, span, 1.0)
    angles = (feats - params.mins) / safe_span * np.pi
    angles = np.where(span > 0, angles, 0.0)
    return np.clip(angles, 0.0, np.pi)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@dataclass
class EncoderSpec:
    """Hardware-efficient encoder: per-qubit rotations then a cyclic CZ ring.

    DHE rotates every qubit around X; RHE draws each qubit's axis uniformly
    from {X, Y, Z} (per layer, from `seed`). One qubit per feature.
    """

    kind: str
    num_features: int
    depth: int = 1
    seed: int | None = None
    axis_assignment: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ConfigurationError(f"unknown encoder kind {self.kind!r}")
        _require_count("num_features", self.num_features, 1)
        _require_count("depth", self.depth, 1)
        if self.axis_assignment is None:
            if self.kind == "DHE":
                axes = tuple(tuple("X" for _ in range(self.num_features))
                             for _ in range(self.depth))
            else:
                if self.seed is None:
                    raise ConfigurationError("RHE encoder requires a seed")
                rng = np.random.default_rng(self.seed)
                axes = tuple(
                    tuple(quantum.PAULI_KINDS[i]
                          for i in rng.integers(0, 3, size=self.num_features))
                    for _ in range(self.depth)
                )
            self.axis_assignment = axes
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


def cyclic_ring(num_qubits: int, kind: str) -> list[GateOp]:
    """Entangling ring (0,1), (1,2), ..., (D-1, 0) of CZ or CNOT gates."""
    return [GateOp(kind, target=(i + 1) % num_qubits, control=i)
            for i in range(num_qubits)]


# ---------------------------------------------------------------------------
# reservoirs
# ---------------------------------------------------------------------------

@dataclass
class ReservoirSpec:
    """Which fixed reservoir to build; random parameters come from `seed`
    unless given explicitly (`ising`, `rotation_layers`)."""

    kind: str
    num_qubits: int
    depth: int = 10
    seed: int | None = None
    ising: IsingParams | None = None
    rotation_layers: tuple[tuple[tuple[str, float], ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in RESERVOIR_KINDS:
            raise ConfigurationError(f"unknown reservoir kind {self.kind!r}")
        ring = self.kind in ("CNOT", "ROTATION")   # layers end in a CNOT ring
        _require_count("num_qubits", self.num_qubits, 2 if ring else 1)
        if self.num_qubits > quantum.MAX_STATE_QUBITS:
            raise ConfigurationError(
                f"num_qubits must be in [1, {quantum.MAX_STATE_QUBITS}], got {self.num_qubits}")
        # only CNOT and ROTATION stack layers, but every kind records its depth
        _require_count("depth", self.depth, 1 if self.kind in ("CNOT", "ROTATION") else 0)
        if self.ising is not None and self.kind != "ISING":
            raise ConfigurationError("ising parameters only apply to the ISING kind")
        if self.rotation_layers is not None:
            self._check_rotation_layers()

    def _check_rotation_layers(self) -> None:
        if self.kind != "ROTATION":
            raise ConfigurationError("rotation_layers only apply to the ROTATION kind")
        if len(self.rotation_layers) != self.depth:
            raise ConfigurationError(
                f"field 'rotation_layers' must hold {self.depth} layers (the depth), "
                f"got {len(self.rotation_layers)}")
        for layer in self.rotation_layers:
            if len(layer) != self.num_qubits:
                raise ConfigurationError("each rotation layer must cover every qubit")
            for axis, angle in layer:
                if axis not in quantum.PAULI_KINDS:
                    raise ConfigurationError(
                        f"field 'rotation_layers' has axis {axis!r}; axes must be X, Y or Z")
                if isinstance(angle, bool) or not isinstance(angle, numbers.Real):
                    raise ConfigurationError(
                        f"field 'rotation_layers' has angle {angle!r}; angles must be numbers")
                if not math.isfinite(angle):
                    raise ValidationError(
                        f"field 'rotation_layers' has angle {angle!r}; angles must be finite")


@dataclass(frozen=True, eq=False)
class Stage:
    """One compiled step of a reservoir acting on a (P, 2^M) batch.

    Applied in this order, each part optional: `low` acts on the low qubits
    (the last axis of the amplitudes reshaped to (..., len(low))), `high` on
    the remaining high qubits, and `perm` gathers amplitude i from index
    perm[i]. A dense stage is a `low` matrix over all M qubits.
    """

    low: np.ndarray | None = None
    high: np.ndarray | None = None
    perm: np.ndarray | None = None

    def apply(self, amps: np.ndarray) -> np.ndarray:
        rows, dim = amps.shape
        if self.low is not None:
            amps = (amps.reshape(-1, len(self.low)) @ self.low.T).reshape(rows, dim)
        if self.high is not None:
            amps = (self.high @ amps.reshape(rows, len(self.high), -1)).reshape(rows, dim)
        if self.perm is not None:
            amps = np.take(amps, self.perm, axis=1)
        return amps


@dataclass
class Reservoir:
    """Built reservoir: its compiled stages, plus the sampled parameters
    retained so it serializes without the seed (a HAAR reservoir's
    parameter is its single dense stage)."""

    kind: str
    num_qubits: int
    depth: int = 10
    stages: tuple[Stage, ...] = ()
    ising: IsingParams | None = None
    rotation_layers: tuple[tuple[tuple[str, float], ...], ...] | None = None


def _sample_rotation_layers(num_qubits: int, depth: int,
                            seed: int) -> tuple[tuple[tuple[str, float], ...], ...]:
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        axes = [quantum.PAULI_KINDS[i] for i in rng.integers(0, 3, size=num_qubits)]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=num_qubits)
        layers.append(tuple((a, float(t)) for a, t in zip(axes, angles)))
    return tuple(layers)


def _ring_permutation(num_qubits: int, depth: int) -> np.ndarray:
    """Gather indices of `depth` CNOT rings applied in order: each gate's
    kernel is itself a gather a -> a[src], so applying one ring's gates to
    the identity index array composes them, and gathering that ring through
    itself adds a ring."""
    ring = np.arange(1 << num_qubits)
    for gate in cyclic_ring(num_qubits, "CNOT"):
        ring = quantum.apply_gate_kernel(ring, num_qubits, gate)
    perm = ring
    for _ in range(depth - 1):
        perm = perm[ring]
    return perm


def _rotation_factors(layers: tuple[tuple[tuple[str, float], ...], ...],
                      split: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Kronecker factors of every layer's rotations: (L, 2^split, 2^split) for
    qubits below `split` and (L, 2^(M-split), 2^(M-split)) for the rest (None
    when no qubit is left), the first qubit of each factor on its least
    significant index bit.

    One `quantum.rotation_matrix` call gives every slot's 2x2 matrix, and
    each factor grows one qubit at a time as u (x) mat by a broadcast outer
    product over all L layers at once."""
    rot = quantum.rotation_matrix([[axis for axis, _ in layer] for layer in layers],
                                  [[angle for _, angle in layer] for layer in layers])
    num_layers = len(rot)   # rot is (L, M, 2, 2)

    def kron(qubits: np.ndarray) -> np.ndarray | None:
        if qubits.shape[1] == 0:
            return None
        mat = qubits[:, 0]
        for q in range(1, qubits.shape[1]):
            dim = mat.shape[1]
            mat = (qubits[:, q, :, None, :, None] * mat[:, None, :, None, :]
                   ).reshape(num_layers, 2 * dim, 2 * dim)
        return mat

    return kron(rot[:, :split]), kron(rot[:, split:])


def _rotation_stages(num_qubits: int,
                     layers: tuple[tuple[tuple[str, float], ...], ...]) -> tuple[Stage, ...]:
    """Per layer: rotations split into Kronecker factors of 2^ceil(M/2) and
    2^floor(M/2) (`_rotation_factors`, built for all layers in one
    broadcast), then the layer's CNOT ring as one permutation. That costs
    L * (2^ceil(M/2) + 2^floor(M/2)) multiply-adds per amplitude for L
    layers, against 2^M for one dense matrix of the whole stack; where the
    dense matrix costs no more, the stack is folded into it by pushing the
    identity through the staged form. Wider registers stay staged, which
    also keeps them clear of the dense-matrix cap."""
    split = num_qubits - num_qubits // 2
    ring = _ring_permutation(num_qubits, 1)
    low, high = _rotation_factors(layers, split)
    stages = tuple(Stage(low[k], None if high is None else high[k], ring)
                   for k in range(len(layers)))
    if 1 << num_qubits > len(layers) * ((1 << split) + (1 << (num_qubits - split))):
        return stages
    amps = np.eye(1 << num_qubits, dtype=complex)
    for stage in stages:
        amps = stage.apply(amps)
    return (Stage(amps.T),)   # row j of amps is column j of the stack's matrix


def build_reservoir(spec: ReservoirSpec) -> Reservoir:
    """Materialize and compile a reservoir; deterministic for a fixed spec and seed."""
    d = spec.num_qubits
    if spec.kind == "CNOT":
        return Reservoir("CNOT", d, spec.depth,
                         stages=(Stage(perm=_ring_permutation(d, spec.depth)),))
    if spec.kind == "HAAR":
        if spec.seed is None:
            raise ConfigurationError("HAAR reservoir requires a seed")
        return Reservoir("HAAR", d, stages=(Stage(quantum.haar_unitary(1 << d, spec.seed)),))
    if spec.kind == "ISING":
        params = spec.ising
        if params is None:
            if spec.seed is None:
                raise ConfigurationError("ISING reservoir requires a seed or parameters")
            params = quantum.sample_ising_params(d, spec.seed)
        if params.num_qubits != d:
            raise ConfigurationError("Ising parameter size does not match num_qubits")
        return Reservoir("ISING", d, stages=(Stage(quantum.ising_unitary(params)),),
                         ising=params)
    layers = spec.rotation_layers
    if layers is None:
        if spec.seed is None:
            raise ConfigurationError("ROTATION reservoir requires a seed or layers")
        layers = _sample_rotation_layers(d, spec.depth, spec.seed)
    return Reservoir("ROTATION", d, spec.depth, stages=_rotation_stages(d, layers),
                     rotation_layers=layers)


# ---------------------------------------------------------------------------
# circuit execution
# ---------------------------------------------------------------------------

def _angle_batch(encoder: EncoderSpec, angles) -> np.ndarray:
    """`angles` as a finite (P, M) float array, checked against the encoder's width."""
    m = encoder.num_features
    if m > quantum.MAX_STATE_QUBITS:
        raise ConfigurationError(
            f"{m} qubits exceed the state-vector cap of {quantum.MAX_STATE_QUBITS}")
    if m < 2:
        raise ConfigurationError("cyclic entanglement needs at least 2 qubits")
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != m:
        raise ShapeError(f"expected {m} angles per row, got {angles.shape[1]}")
    if not np.all(np.isfinite(angles)):
        raise ValidationError("angles must be finite (no NaN or infinity)")
    return angles


def encode_batch(encoder: EncoderSpec, angles: np.ndarray) -> np.ndarray:
    """Encoded (P, 2^M) batch for a batch of angle vectors (P, M).

    One `quantum.rotation_matrix` call per layer gives every row's and
    qubit's rotation. The first layer acts on |0...0>, so it is built in
    place as the product of each qubit's R|0> (column 0); re-uploaded layers
    go through `quantum.apply_single_qubit` with one matrix per row. The CZ
    ring on the pairs (k, k + 1 mod M) is one +-1 sign vector. The batch
    depends only on the angles and the axis assignment (see `harness`)."""
    angles = _angle_batch(encoder, angles)
    m = encoder.num_features
    bits = quantum.basis_bits(m)
    ring_signs = 1.0 - 2.0 * ((bits & np.roll(bits, -1, axis=1)).sum(axis=1) & 1)
    layers = [quantum.rotation_matrix(axes, angles) for axes in encoder.axis_assignment]
    on_zero = layers[0][..., 0]   # (P, M, 2): each qubit's R|0>
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


def run_circuit_batch(encoder: EncoderSpec, reservoir: Reservoir,
                      angles: np.ndarray, encoded: np.ndarray | None = None) -> np.ndarray:
    """Observation matrix (P, 3M) for a batch of angle vectors (P, M).

    Rows start in |0...0>, go through the encoder with each row's angles
    bound, then through the reservoir's compiled stages; columns are ordered
    [<X^1>, <Y^1>, <Z^1>, ..., <X^M>, <Y^M>, <Z^M>]. `encoded`, when given,
    is `encode_batch(encoder, angles)` computed earlier; it must be (P, 2^M)
    and is only read, so one batch can serve many reservoirs.
    """
    angles = _angle_batch(encoder, angles)
    m = encoder.num_features
    if reservoir.num_qubits != m:
        raise ShapeError("reservoir size does not match encoder width")
    if encoded is None:
        amps = encode_batch(encoder, angles)
    elif np.shape(encoded) != (len(angles), 1 << m):
        raise ShapeError(f"encoded batch must be {(len(angles), 1 << m)}, "
                         f"got {np.shape(encoded)}")
    else:
        amps = encoded
    for stage in reservoir.stages:   # each stage returns a new array
        amps = stage.apply(amps)
    return quantum.pauli_expectations(amps, m)


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

@dataclass
class ReadoutModel:
    """Linear readout t_pre = W . V (+ optional intercept)."""

    weights: np.ndarray
    include_intercept: bool = False
    intercept: float = 0.0
    ridge_lambda: float = 0.0


def fit_readout(observations: np.ndarray, targets: np.ndarray,
                ridge_lambda: float = 0.0,
                include_intercept: bool = False) -> ReadoutModel:
    """Least-squares weights minimizing sum (W.V_j - t_j)^2 (+ lambda |W|^2).

    Solved by SVD-based lstsq on the (optionally ridge-augmented) system,
    which returns the minimum-norm solution for rank-deficient matrices.
    The intercept column, when enabled, is never penalized.
    """
    obs = np.asarray(observations, dtype=float)
    t = np.asarray(targets, dtype=float)
    if obs.ndim != 2:
        raise ShapeError("observations must be a 2-D matrix")
    if t.shape != (obs.shape[0],):
        raise ShapeError("targets length does not match observation rows")
    if obs.shape[0] < 1:
        raise ValidationError("need at least one training row")
    if not np.all(np.isfinite(obs)) or not np.all(np.isfinite(t)):
        raise ValidationError("observations and targets must be finite")
    if not 0 <= ridge_lambda < math.inf:   # also rejects NaN
        raise ValidationError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda!r}")
    k = obs.shape[1]
    design = np.hstack([obs, np.ones((obs.shape[0], 1))]) if include_intercept else obs
    rhs = t
    if ridge_lambda > 0:
        penalty = np.sqrt(ridge_lambda) * np.eye(k)
        if include_intercept:
            penalty = np.hstack([penalty, np.zeros((k, 1))])
        design = np.vstack([design, penalty])
        rhs = np.concatenate([t, np.zeros(k)])
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    intercept = float(solution[-1]) if include_intercept else 0.0
    weights = solution[:k]
    return ReadoutModel(weights, include_intercept, intercept, float(ridge_lambda))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass
class Pipeline:
    """Trained QELM: normalization + encoder + built reservoir + readout.

    Immutable after training; prediction is pure."""

    normalization: NormalizationParams
    encoder: EncoderSpec
    reservoir: Reservoir
    readout: ReadoutModel
    training_rss: float = field(default=float("nan"))

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        feats = np.atleast_2d(np.asarray(features, dtype=float))
        angles = apply_normalization(self.normalization, feats)
        obs = run_circuit_batch(self.encoder, self.reservoir, angles)
        return obs @ self.readout.weights + self.readout.intercept

    def predict(self, features: np.ndarray) -> float:
        return float(self.predict_batch(np.asarray(features)[None, :])[0])

    def to_json(self) -> str:
        return json.dumps(_pipeline_to_dict(self))

    @classmethod
    def from_json(cls, text: str) -> "Pipeline":
        return _pipeline_from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Pipeline":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _as_training_arrays(train) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(train, "feature_matrix"):
        return (np.asarray(train.feature_matrix(), dtype=float),
                np.asarray(train.awt_values(), dtype=float))
    features, targets = train
    return np.asarray(features, dtype=float), np.asarray(targets, dtype=float)


def qelm_train(train, encoder: EncoderSpec, reservoir: ReservoirSpec | Reservoir,
               ridge_lambda: float = 0.0, include_intercept: bool = False) -> Pipeline:
    """Fit the full pipeline on training windows.

    `train` is either a dataset object exposing feature_matrix()/awt_values()
    or a (features, targets) pair. Normalization is fit on the training data
    only.
    """
    features, targets = _as_training_arrays(train)
    if features.shape[0] < 1:
        raise ValidationError("training set is empty")
    if features.shape[1] != encoder.num_features:
        raise ShapeError("encoder width does not match dataset feature count")
    norm = fit_normalization(features)
    built = build_reservoir(reservoir) if isinstance(reservoir, ReservoirSpec) else reservoir
    angles = apply_normalization(norm, features)
    observations = run_circuit_batch(encoder, built, angles)
    readout = fit_readout(observations, targets, ridge_lambda, include_intercept)
    residuals = observations @ readout.weights + readout.intercept - targets
    return Pipeline(norm, encoder, built, readout,
                    training_rss=float(residuals @ residuals))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _pipeline_to_dict(p: Pipeline) -> dict:
    reservoir: dict = {"kind": p.reservoir.kind, "num_qubits": p.reservoir.num_qubits,
                       "depth": p.reservoir.depth}
    if p.reservoir.kind == "ISING":
        reservoir["ising"] = {
            "couplings": p.reservoir.ising.couplings.tolist(),
            "fields": p.reservoir.ising.fields.tolist(),
            "time_step": p.reservoir.ising.time_step,
        }
    elif p.reservoir.kind == "ROTATION":
        reservoir["rotation_layers"] = [
            [[axis, angle] for axis, angle in layer] for layer in p.reservoir.rotation_layers
        ]
    elif p.reservoir.kind == "HAAR":
        entries = p.reservoir.stages[0].low
        reservoir["unitary_re"] = entries.real.tolist()
        reservoir["unitary_im"] = entries.imag.tolist()
    return {
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
                    "include_intercept": p.readout.include_intercept,
                    "intercept": p.readout.intercept,
                    "ridge_lambda": p.readout.ridge_lambda},
        "training_rss": p.training_rss,
    }


def _pipeline_from_dict(doc: dict) -> Pipeline:
    if doc.get("format") != "qelm-pipeline-v1":
        raise ConfigurationError("unrecognized pipeline document format")
    try:
        pipeline = _pipeline_fields(doc)
    except KeyError as exc:
        raise ValidationError(f"pipeline document is missing key {exc.args[0]!r}") from None
    m = pipeline.encoder.num_features
    if pipeline.reservoir.num_qubits != m:
        raise ValidationError(f"reservoir width {pipeline.reservoir.num_qubits} "
                              f"does not match encoder width {m}")
    norm = pipeline.normalization
    if not (len(norm.mins) == len(norm.maxs) == m
            and np.all(np.isfinite(norm.mins)) and np.all(np.isfinite(norm.maxs))):
        raise ValidationError(f"normalization must hold {m} finite mins and maxs")
    readout = pipeline.readout
    if readout.weights.shape != (3 * m,) or not np.all(np.isfinite(readout.weights)):
        raise ValidationError(f"readout needs {3 * m} finite weights, "
                              f"got {readout.weights.shape}")
    finite = [isinstance(v, numbers.Real) and math.isfinite(v)
              for v in (readout.intercept, readout.ridge_lambda)]
    if not (all(finite) and readout.ridge_lambda >= 0):
        raise ValidationError("readout intercept must be a finite number and "
                              "ridge_lambda a finite number >= 0")
    if pipeline.reservoir.kind == "HAAR":
        u = pipeline.reservoir.stages[0].low
        if u.shape != (1 << m, 1 << m) or not quantum.unitarity_defect(u) < 1e-10:
            raise ValidationError(f"HAAR matrix must be a {1 << m}x{1 << m} unitary")
    return pipeline


def _pipeline_fields(doc: dict) -> Pipeline:
    enc = doc["encoder"]
    encoder = EncoderSpec(enc["kind"], enc["num_features"], enc["depth"],
                          axis_assignment=tuple(tuple(layer)
                                                for layer in enc["axis_assignment"]))
    res = doc["reservoir"]
    kind, d, depth = res["kind"], res["num_qubits"], res["depth"]
    if kind == "CNOT":
        reservoir = build_reservoir(ReservoirSpec("CNOT", d, depth))
    elif kind == "ISING":
        params = IsingParams(d, np.array(res["ising"]["couplings"]),
                             np.array(res["ising"]["fields"]),
                             res["ising"]["time_step"])
        reservoir = build_reservoir(ReservoirSpec("ISING", d, ising=params))
    elif kind == "ROTATION":
        layers = tuple(tuple((axis, angle) for axis, angle in layer)
                       for layer in res["rotation_layers"])
        reservoir = build_reservoir(ReservoirSpec("ROTATION", d, depth,
                                                  rotation_layers=layers))
    elif kind == "HAAR":
        entries = np.array(res["unitary_re"]) + 1j * np.array(res["unitary_im"])
        reservoir = Reservoir("HAAR", d, stages=(Stage(entries),))
    else:
        raise ValidationError(f"unknown reservoir kind {kind!r}")
    norm = NormalizationParams(np.array(doc["normalization"]["mins"], dtype=float),
                               np.array(doc["normalization"]["maxs"], dtype=float))
    ro = doc["readout"]
    readout = ReadoutModel(np.array(ro["weights"], dtype=float),
                           ro["include_intercept"], ro["intercept"],
                           ro["ridge_lambda"])
    return Pipeline(norm, encoder, reservoir, readout,
                    training_rss=doc.get("training_rss", float("nan")))
