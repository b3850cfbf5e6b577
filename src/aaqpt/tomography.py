"""End-to-end simulation of the three-qubit bit-flip experiment: density
matrix circuit evolution with optional depolarizing noise, seeded Pauli-basis
shot sampling, linear-inversion state tomography, and the batched fidelity
report.

Qubit 0 is the most significant tensor factor, so the two-qubit register
(q0, q1) maps onto the (A, B) convention of the rest of the package with the
channel acting on q0.  The circuit pair produced by
:func:`experiment_circuits` prepares the maximally entangled input on
(q0, q1); appending a Hadamard on the ancilla q2 and a CNOT from q2 onto q0
realizes, after tracing out q2, the bit-flip channel with Kraus operators
{I, X}/sqrt(2), whose superoperator is (I (x) I + X (x) X) / 2.

Randomness comes exclusively from numpy's PCG64 generator with explicit
64-bit seeds; batch b of an experiment uses seed + b, which makes reports
bit-identical across reruns and batches exchangeable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import PAULIS, PAULI_X, PROBE_NAMES_QUBIT, probe_states
from .channel import Superoperator, make_channel, propagate, superoperator
from .errors import (
    AaqptError,
    DimensionMismatchError,
    MissingBasisError,
    ParameterOutOfRangeError,
)
from .extraction import extract
from .qstate import BipartiteState, DensityMatrix, fidelity, validate_density

RNG_NAME = "pcg64"

_GATE_KINDS = ("H", "I", "CNOT")

BASIS_SETTINGS = tuple(itertools.product("XYZ", repeat=2))

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# +1 / -1 eigenvectors of each Pauli, in outcome order.
_PAULI_EIGENVECTORS = {
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2),
          np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2),
          np.array([1, -1j], dtype=complex) / np.sqrt(2)),
    "Z": (np.array([1, 0], dtype=complex),
          np.array([0, 1], dtype=complex)),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """An ordered list of H, I and CNOT gates on a fixed register."""

    qubit_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for gate in self.gates:
            if gate.kind not in _GATE_KINDS:
                raise ParameterOutOfRangeError(f"unknown gate kind {gate.kind!r}")
            if any(q < 0 or q >= self.qubit_count for q in gate.qubits):
                raise ParameterOutOfRangeError(
                    f"gate {gate} touches a qubit outside 0..{self.qubit_count - 1}"
                )
            want = 2 if gate.kind == "CNOT" else 1
            if len(gate.qubits) != want:
                raise ParameterOutOfRangeError(f"gate {gate} needs {want} qubit(s)")
            if gate.kind == "CNOT" and gate.qubits[0] == gate.qubits[1]:
                raise ParameterOutOfRangeError("CNOT control and target must differ")


@dataclass(frozen=True)
class NoiseModel:
    """Gate-local depolarizing noise: after every gate, each touched qubit
    set is depolarized with the corresponding probability."""

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0

    def __post_init__(self):
        for name, lam in (("depolarizing_1q", self.depolarizing_1q),
                          ("depolarizing_2q", self.depolarizing_2q)):
            if not 0.0 <= lam <= 1.0:
                raise ParameterOutOfRangeError(f"{name} must lie in [0, 1], got {lam}")


@dataclass(frozen=True)
class MeanBand:
    """Mean over batches with a three-standard-deviation error band."""

    mean: float
    band: float


@dataclass(frozen=True)
class BatchDetail:
    batch: int
    seed: int | None
    fidelity_in: float
    fidelity_out: float
    probe_fidelities: dict[str, float]
    rho_in: DensityMatrix | None
    rho_out: DensityMatrix | None
    status: str = "ok"


@dataclass(frozen=True)
class ExperimentReport:
    shots: int
    batches: int
    seed: int
    exact: bool
    noise: NoiseModel
    rng_name: str
    fidelity_in: MeanBand
    fidelity_out: MeanBand
    probe_fidelities: dict[str, MeanBand]
    batch_details: tuple[BatchDetail, ...] = field(repr=False)

    @property
    def shots_per_batch(self) -> int:
        return self.shots // self.batches if self.batches else 0

    @property
    def rho_in_estimates(self) -> tuple[DensityMatrix, ...]:
        return tuple(b.rho_in for b in self.batch_details)

    @property
    def rho_out_estimates(self) -> tuple[DensityMatrix, ...]:
        return tuple(b.rho_out for b in self.batch_details)


def experiment_circuits() -> tuple[Circuit, Circuit]:
    """The input-preparation circuit and the full channel circuit.

    The input circuit entangles (q0, q1) and then idles them through
    identity gates for the two layers the channel part of the full circuit
    occupies; ideal no-ops, they are where 1-qubit noise accumulates on the
    input register when a noise model is switched on.
    """
    prep = (
        Gate("H", (0,)),
        Gate("CNOT", (0, 1)),
        Gate("I", (0,)),
        Gate("I", (1,)),
        Gate("I", (0,)),
        Gate("I", (1,)),
    )
    channel_part = (
        Gate("H", (2,)),
        Gate("CNOT", (2, 0)),
    )
    return Circuit(3, prep), Circuit(3, prep + channel_part)


def _bit(index: int, qubit: int, n: int) -> int:
    return (index >> (n - 1 - qubit)) & 1


def _single_qubit_unitary(u2: np.ndarray, qubit: int, n: int) -> np.ndarray:
    factors = [u2 if q == qubit else np.eye(2) for q in range(n)]
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    return full


def _cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    u = np.zeros((dim, dim))
    for col in range(dim):
        row = col ^ (1 << (n - 1 - target)) if _bit(col, control, n) else col
        u[row, col] = 1.0
    return u


def _gate_unitary(gate: Gate, n: int) -> np.ndarray:
    if gate.kind == "H":
        return _single_qubit_unitary(_HADAMARD, gate.qubits[0], n)
    if gate.kind == "I":
        return np.eye(2**n)
    return _cnot_unitary(gate.qubits[0], gate.qubits[1], n)


def _partial_trace_keep(rho: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    letters = "abcdefghijkl"
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(letters[n + q] for q in keep)
    subscripts = "".join(row) + "".join(col) + "->" + out
    dim = 2 ** len(keep)
    return np.einsum(subscripts, rho.reshape([2] * (2 * n))).reshape(dim, dim)


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], lam: float, n: int) -> np.ndarray:
    if lam == 0.0:
        return rho
    touched = tuple(sorted(qubits))
    rest = tuple(q for q in range(n) if q not in touched)
    k, m = len(touched), len(rest)
    mixed_part = (np.eye(2**k) / 2**k).reshape([2] * (2 * k))
    if m:
        sigma = _partial_trace_keep(rho, rest, n)
        full = np.multiply.outer(mixed_part, sigma.reshape([2] * (2 * m)))
    else:
        full = mixed_part * complex(np.trace(rho))
    # full axes: touched rows, touched cols, rest rows, rest cols; permute
    # into global (row q0..qn-1, col q0..qn-1) order.
    row_pos, col_pos = {}, {}
    for i, q in enumerate(touched):
        row_pos[q] = i
        col_pos[q] = k + i
    for j, q in enumerate(rest):
        row_pos[q] = 2 * k + j
        col_pos[q] = 2 * k + m + j
    perm = [row_pos[q] for q in range(n)] + [col_pos[q] for q in range(n)]
    mixed = full.transpose(perm).reshape(2**n, 2**n)
    return (1 - lam) * rho + lam * mixed


def run_exact(circuit: Circuit, noise: NoiseModel, keep: tuple[int, ...]) -> DensityMatrix:
    """Evolve |0...0> through the circuit and trace down to ``keep``.

    Unitaries act exactly; after each gate the touched qubits are
    depolarized per the noise model (1-qubit strength for H and I, 2-qubit
    strength for CNOT).
    """
    n = circuit.qubit_count
    keep = tuple(sorted(keep))
    if not keep or any(q < 0 or q >= n for q in keep):
        raise ParameterOutOfRangeError(f"keep={keep} is not a valid qubit subset")
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = _gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        lam = noise.depolarizing_2q if gate.kind == "CNOT" else noise.depolarizing_1q
        rho = _depolarize(rho, gate.qubits, lam, n)
    return validate_density(_partial_trace_keep(rho, keep, n))


def _setting_projectors(basis: tuple[str, str]) -> list[np.ndarray]:
    pro = []
    for v0 in _PAULI_EIGENVECTORS[basis[0]]:
        for v1 in _PAULI_EIGENVECTORS[basis[1]]:
            v = np.kron(v0, v1)
            pro.append(np.outer(v, v.conj()))
    return pro


def exact_pauli_probabilities(rho: DensityMatrix, basis: tuple[str, str]) -> np.ndarray:
    """Born probabilities of the four joint outcomes (++, +-, -+, --)."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"need a two-qubit state, got dim {rho.dim}")
    p = np.array([np.real(np.trace(proj @ rho.matrix)) for proj in _setting_projectors(basis)])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_pauli_counts(
    rho: DensityMatrix, basis: tuple[str, str], shots: int, seed: int
) -> np.ndarray:
    """Multinomial counts over the four joint eigenvalue outcomes.

    Deterministic for a fixed (state, basis, shots, seed) quadruple.
    """
    if shots < 1:
        raise ParameterOutOfRangeError(f"need shots >= 1, got {shots}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.multinomial(shots, exact_pauli_probabilities(rho, basis))


def project_to_state(matrix: np.ndarray) -> DensityMatrix:
    """Nearest-in-spirit physical state: hermitize, clip negative
    eigenvalues to zero, renormalize the trace to one."""
    sym = (matrix + np.asarray(matrix).conj().T) / 2
    w, v = np.linalg.eigh(sym)
    w = np.where(w > 0.0, w, 0.0)
    return validate_density((v * w) @ v.conj().T / w.sum())


def linear_inversion(counts: dict[tuple[str, str], np.ndarray]) -> DensityMatrix:
    """Two-qubit state from counts in all nine Pauli basis settings.

    Correlators come from the matching setting; single-qubit expectations
    marginalize every compatible setting and average the three of them, so
    all collected data is used.  The raw inversion is projected onto the
    physical set afterwards (negative eigenvalues clipped, trace restored).
    """
    missing = [s for s in BASIS_SETTINGS if s not in counts]
    if missing:
        raise MissingBasisError(f"missing basis settings: {missing}")
    freqs = {}
    for setting in BASIS_SETTINGS:
        c = np.asarray(counts[setting], dtype=float)
        if c.shape != (4,) or c.sum() <= 0:
            raise MissingBasisError(f"setting {setting} needs four nonnegative counts")
        freqs[setting] = c / c.sum()
    signs_first = np.array([1.0, 1.0, -1.0, -1.0])
    signs_second = np.array([1.0, -1.0, 1.0, -1.0])
    expectations = {("I", "I"): 1.0}
    for b0, b1 in BASIS_SETTINGS:
        expectations[(b0, b1)] = float(freqs[(b0, b1)] @ (signs_first * signs_second))
    for b0 in "XYZ":
        expectations[(b0, "I")] = float(
            np.mean([freqs[(b0, b1)] @ signs_first for b1 in "XYZ"])
        )
    for b1 in "XYZ":
        expectations[("I", b1)] = float(
            np.mean([freqs[(b0, b1)] @ signs_second for b0 in "XYZ"])
        )
    rho = np.zeros((4, 4), dtype=complex)
    for (b0, b1), value in expectations.items():
        rho += value * np.kron(PAULIS[b0], PAULIS[b1])
    return project_to_state(rho / 4)


def reference_channel_superoperator() -> Superoperator:
    """Superoperator of the bit-flip channel realized by the full circuit."""
    return superoperator(make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)]))


def _tomograph(rho: DensityMatrix, shots: int, rng: np.random.Generator | None) -> DensityMatrix:
    counts = {}
    for setting in BASIS_SETTINGS:
        probs = exact_pauli_probabilities(rho, setting)
        counts[setting] = probs if rng is None else rng.multinomial(shots, probs)
    return linear_inversion(counts)


def run_experiment(
    shots: int,
    batches: int,
    seed: int,
    noise: NoiseModel | None = None,
    exact: bool = False,
) -> ExperimentReport:
    """Simulate the full batched experiment and score it against theory.

    Per batch: tomograph the input and output registers (``shots/batches``
    shots per basis setting, from generator PCG64(seed + batch)), extract the
    channel superoperator from the reconstructed pair (pseudo mode -- the
    data is noisy), and compute fidelities of both states against their
    noiseless targets plus, for each single-qubit probe, the fidelity between
    the outputs predicted by the extracted and the reference superoperator.
    Aggregates are means with three-sigma bands over batches.  With
    ``exact=True`` the sampler is bypassed and tomography runs on exact Born
    probabilities; every batch is then the same, so the first is computed
    once and repeated.
    """
    noise = noise or NoiseModel()
    if batches < 1:
        raise ParameterOutOfRangeError(f"need batches >= 1, got {batches}")
    if not exact:
        if shots < batches or shots % batches:
            raise ParameterOutOfRangeError(
                f"shots ({shots}) must be a positive multiple of batches ({batches})"
            )
    shots_per_batch = shots // batches if not exact else 0

    input_circuit, full_circuit = experiment_circuits()
    rho_in_target = run_exact(input_circuit, NoiseModel(), (0, 1))
    rho_out_target = run_exact(full_circuit, NoiseModel(), (0, 1))
    rho_in_actual = run_exact(input_circuit, noise, (0, 1))
    rho_out_actual = run_exact(full_circuit, noise, (0, 1))

    m_reference = reference_channel_superoperator()
    probes = probe_states(2)
    reference_outputs = [
        project_to_state(propagate(m_reference, p.matrix)) for p in probes
    ]

    details = []
    for b in range(batches):
        if exact and details:
            details.append(replace(details[0], batch=b))
            continue
        batch_seed = None if exact else seed + b
        rng = None if exact else np.random.Generator(np.random.PCG64(batch_seed))
        try:
            rho_in_est = _tomograph(rho_in_actual, shots_per_batch, rng)
            rho_out_est = _tomograph(rho_out_actual, shots_per_batch, rng)
            result = extract(
                BipartiteState(2, 2, rho_in_est),
                BipartiteState(2, 2, rho_out_est),
                mode="pseudo",
            )
            probe_fids = {}
            for name, probe, ref_out in zip(PROBE_NAMES_QUBIT, probes, reference_outputs):
                predicted = project_to_state(propagate(result.m, probe.matrix))
                probe_fids[name] = fidelity(predicted, ref_out)
            details.append(
                BatchDetail(
                    batch=b,
                    seed=batch_seed,
                    fidelity_in=fidelity(rho_in_target, rho_in_est),
                    fidelity_out=fidelity(rho_out_target, rho_out_est),
                    probe_fidelities=probe_fids,
                    rho_in=rho_in_est,
                    rho_out=rho_out_est,
                )
            )
        except AaqptError as exc:
            details.append(
                BatchDetail(
                    batch=b,
                    seed=batch_seed,
                    fidelity_in=float("nan"),
                    fidelity_out=float("nan"),
                    probe_fidelities={},
                    rho_in=None,
                    rho_out=None,
                    status=f"failed: {exc}",
                )
            )

    ok = [d for d in details if d.status == "ok"]
    if not ok:
        raise AaqptError(f"every batch failed; first error: {details[0].status}")

    def aggregate(values: list[float]) -> MeanBand:
        arr = np.asarray(values, dtype=float)
        band = 3.0 * float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        return MeanBand(mean=float(arr.mean()), band=band)

    return ExperimentReport(
        shots=shots if not exact else 0,
        batches=batches,
        seed=seed,
        exact=exact,
        noise=noise,
        rng_name=RNG_NAME,
        fidelity_in=aggregate([d.fidelity_in for d in ok]),
        fidelity_out=aggregate([d.fidelity_out for d in ok]),
        probe_fidelities={
            name: aggregate([d.probe_fidelities[name] for d in ok])
            for name in PROBE_NAMES_QUBIT
        },
        batch_details=tuple(details),
    )
