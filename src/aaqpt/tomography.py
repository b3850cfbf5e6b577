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

Every register operator is one tensor product of small matrices on their
qubits (``_outer``): a gate's ``_GATES`` matrix with the identity on the
other qubits, or the noise's I/2^k on a gate's k qubits with the partial
trace over them (``qstate._partial_trace_keep``) on the rest.

Randomness comes exclusively from numpy's PCG64 generator: batch b of an
experiment draws from the b-th stream that ``SeedSequence(seed)`` spawns, so
reports are bit-identical across reruns, batches are exchangeable, and runs
at different seeds share no draw.

Tomography replaces each linear-inversion estimate by its nearest state in
Frobenius norm, the eigenvalue-simplex projection of Smolin, Gambetta and
Smith (PRL 108, 070502, 2012), which exists for every Hermitian matrix.  The
outcome projectors and the inversion tensor come from one signed sum of
Pauli products (``_pauli_table``), so every projector is exact.

An experiment draws its counts batch by batch and then runs everything else
once, on stacks that hold every batch.  Its extraction is
``extraction._solve`` on the correlation matrices of the stacked pairs:
each batch's M is that of :func:`extract` in pseudo mode on the batch's two
states, bit for bit, from the one real solve both run.  The per-matrix
entry points (:func:`linear_inversion`, :func:`project_to_state`) are the
same kernels on a stack of one, with the boundary checks of a public
function around them.  What no argument
changes (the scoring constants, the two circuits, each gate's unitary and
each noise plan) is built once per process, on first use, and kept
read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .catalog import PAULI_I, PAULIS, PAULI_X, PROBE_NAMES_QUBIT, probe_states
from .channel import Superoperator, make_channel, superoperator
from .errors import (
    DimensionMismatchError,
    MissingBasisError,
    ParameterOutOfRangeError,
)
# extract stays importable from this module
from .extraction import _solve, extract  # noqa: F401
from .qstate import (
    DensityMatrix,
    _dagger,
    _eigen_root,
    _eigh,
    _fidelity,
    _frozen,
    _integer_in,
    _items,
    _numbers,
    _partial_trace_keep,
    _real,
    _root,
    require_square,
    validate_density,
)
from .realignment import _correlations, _reshuffle

BASIS_SETTINGS = tuple(itertools.product("XYZ", repeat=2))

# Each gate kind's matrix on its own qubits, in the order a Gate lists them
# (control, then target, for CNOT).
_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "I": np.eye(2),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
}


def _pauli_table(a: int, b: int) -> np.ndarray:
    """``(I/a + s0 s1 P0 P1 + (s0 P0 I + s1 I P1)/b) / 4`` for each setting
    (P0, P1) of ``BASIS_SETTINGS`` and each joint outcome (s0, s1) in the
    order (++, +-, -+, --): shape (9, 4, 4, 4)."""
    # (9, 1, 2, 2) stacks of each setting's P0 and P1, (4, 1, 1) of each
    # outcome's s0 and s1
    p0 = np.array([PAULIS[b0] for b0, _ in BASIS_SETTINGS])[:, None]
    p1 = np.array([PAULIS[b1] for _, b1 in BASIS_SETTINGS])[:, None]
    s0, s1 = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])[..., None, None]

    def kron(x, y):
        # np.kron's product of every pair of entries, over stacks of 2 x 2
        product = x[..., :, None, :, None] * y[..., None, :, None, :]
        return product.reshape(product.shape[:-4] + (4, 4))

    return (np.eye(4) / a + s0 * s1 * kron(p0, p1)
            + (s0 * kron(p0, PAULI_I) + s1 * kron(PAULI_I, p1)) / b) / 4


# Projector onto each joint outcome of each setting, exact in every entry; a
# state's Born table is trace(P @ rho) over the last two axes.
_OUTCOME_PROJECTORS = _pauli_table(1, 1)

# Linear inversion as one tensor: rho = sum over settings and outcomes of
# frequency * entry.  The correlator <P_a P_b> reads only its own setting,
# <P_a I> and <I P_b> average the three settings that measure them, and I/9
# summed over the nine normalized rows restores the identity.
_INVERSION = _pauli_table(9, 3)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        # a tuple keeps the gate hashable, the key of its cached unitary
        qubits = _items(self.qubits)
        if qubits is None:
            raise ParameterOutOfRangeError(f"gate qubits must be a sequence, got {self.qubits!r}")
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of H, I and CNOT gates on a register of
    ``qubit_count >= 1`` qubits, each gate on integer qubit indices (not
    bools) inside it."""

    qubit_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not _integer_in(self.qubit_count, 1):
            raise ParameterOutOfRangeError(
                f"qubit_count must be a positive integer, got {self.qubit_count!r}"
            )
        for gate in self.gates:
            if gate.kind not in _GATES:
                raise ParameterOutOfRangeError(f"unknown gate kind {gate.kind!r}")
            if not all(_integer_in(q, 0, self.qubit_count) for q in gate.qubits):
                raise ParameterOutOfRangeError(
                    f"gate {gate} needs integer qubits in 0..{self.qubit_count - 1}"
                )
            dim = len(_GATES[gate.kind])
            if 2 ** len(gate.qubits) != dim:
                want = dim.bit_length() - 1
                raise ParameterOutOfRangeError(f"gate {gate} needs {want} qubit(s)")
            if len(set(gate.qubits)) < len(gate.qubits):
                raise ParameterOutOfRangeError("CNOT control and target must differ")


@dataclass(frozen=True)
class NoiseModel:
    """Gate-local depolarizing noise: after every gate, each touched qubit
    set is depolarized with the corresponding probability, a real number
    (not a bool) in [0, 1]."""

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0

    def __post_init__(self):
        for name, lam in (("depolarizing_1q", self.depolarizing_1q),
                          ("depolarizing_2q", self.depolarizing_2q)):
            if not (_real(lam) and 0 <= lam <= 1):
                raise ParameterOutOfRangeError(f"{name} must lie in [0, 1], got {lam!r}")
            # a Fraction or float32 counts as its float
            object.__setattr__(self, name, float(lam))


@dataclass(frozen=True)
class MeanBand:
    """Mean over batches with a three-standard-deviation error band."""

    mean: float
    band: float


@dataclass(frozen=True)
class BatchDetail:
    """One batch of an experiment.  ``seed`` is the run's seed, from which
    the batch's stream is derived (batch b draws from
    ``PCG64(SeedSequence(seed).spawn(batches)[b])``, the same stream as
    ``SeedSequence(seed, spawn_key=(b,))``), or None when the run used exact
    Born probabilities and drew nothing.  Every batch scores, so ``status``
    is a class constant, "ok"."""

    batch: int
    seed: int | None
    fidelity_in: float
    fidelity_out: float
    probe_fidelities: dict[str, float]
    rho_in: DensityMatrix
    rho_out: DensityMatrix
    status: ClassVar[str] = "ok"


@dataclass(frozen=True)
class ExperimentReport:
    shots: int
    batches: int
    seed: int
    exact: bool
    noise: NoiseModel
    rng_name: ClassVar[str] = "pcg64"
    fidelity_in: MeanBand
    fidelity_out: MeanBand
    probe_fidelities: dict[str, MeanBand]
    batch_details: tuple[BatchDetail, ...] = field(repr=False)


@functools.cache
def experiment_circuits() -> tuple[Circuit, Circuit]:
    """The input-preparation circuit and the full channel circuit, built and
    validated once and shared (both are immutable).

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


def _outer(parts, n: int) -> np.ndarray:
    """The n-qubit operator that is the tensor product of ``parts``, pairs of
    a (2^k, 2^k) matrix and the k qubits it acts on (in its own factor
    order), which together name every qubit once."""
    factors = [m.reshape([2] * (2 * len(q))) for m, q in parts]
    tensor = functools.reduce(np.multiply.outer, factors)
    # an axis is labelled by its qubit q as a row index, n + q as a column
    # index; sorting the labels puts the axes in global qubit order
    labels = [q + n * column for _, qs in parts for column in (0, 1) for q in qs]
    return tensor.transpose(sorted(range(2 * n), key=labels.__getitem__)).reshape(2**n, 2**n)


@functools.cache
def _gate_unitary(gate: Gate, n: int) -> np.ndarray:
    """The n-qubit unitary of ``gate``, built once per gate and register
    size and shared read-only."""
    rest = tuple(q for q in range(n) if q not in gate.qubits)
    return _frozen(_outer(((_GATES[gate.kind], gate.qubits), (np.eye(2 ** len(rest)), rest)), n))


@functools.cache
def _noise_plan(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """What depolarizing ``qubits`` of an n-qubit register takes besides the
    state and the strength: the other qubits, and I/2^k on the k qubits.
    Built once per (qubits, n) and shared read-only."""
    rest = tuple(q for q in range(n) if q not in qubits)
    return rest, _frozen(np.eye(2 ** len(qubits)) / 2 ** len(qubits))


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], lam: float, n: int) -> np.ndarray:
    if lam == 0.0:
        return rho
    rest, mixed = _noise_plan(qubits, n)
    # with no qubit left, the trace: np.trace adds the diagonal in order,
    # an einsum over every axis in another order, with other last bits
    sigma = _partial_trace_keep(rho, (2,) * n, rest) if rest else np.trace(rho)
    return (1 - lam) * rho + lam * _outer(((mixed, qubits), (sigma, rest)), n)


def _evolve(rho: np.ndarray, gates: tuple[Gate, ...], noise: NoiseModel, n: int) -> np.ndarray:
    """Apply ``gates`` to the n-qubit density matrix ``rho``: unitaries act
    exactly; after each gate the touched qubits are depolarized per the
    noise model (1-qubit strength for H and I, 2-qubit strength for CNOT)."""
    for gate in gates:
        # an identity gate's product would give back rho's values (a zero's
        # sign aside), so only its noise acts
        if gate.kind != "I":
            u = _gate_unitary(gate, n)
            rho = u @ rho @ u.conj().T
        lam = noise.depolarizing_2q if gate.kind == "CNOT" else noise.depolarizing_1q
        rho = _depolarize(rho, gate.qubits, lam, n)
    return rho


def _ground_state(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def run_exact(circuit: Circuit, noise: NoiseModel, keep: tuple[int, ...]) -> DensityMatrix:
    """Evolve |0...0> through the circuit and trace down to ``keep``.

    Unitaries act exactly; after each gate the touched qubits are
    depolarized per the noise model (1-qubit strength for H and I, 2-qubit
    strength for CNOT).  ``keep`` is an iterable of distinct integer qubits
    (not bools), in any order, else ParameterOutOfRangeError; the result is
    in ascending qubit order.
    """
    n = circuit.qubit_count
    qubits = _items(keep) or ()
    valid = all(_integer_in(q, 0, n) for q in qubits) and len(set(qubits)) == len(qubits)
    if not (qubits and valid):
        raise ParameterOutOfRangeError(f"keep={keep!r} is not a valid qubit subset")
    rho = _evolve(_ground_state(n), circuit.gates, noise, n)
    return validate_density(_partial_trace_keep(rho, (2,) * n, tuple(sorted(qubits))))


def _register_states(noise: NoiseModel) -> tuple[DensityMatrix, DensityMatrix]:
    """The (q0, q1) states after the input circuit and after the full
    circuit, as :func:`run_exact` gives them.  The full circuit is the input
    circuit followed by the channel part, so one evolution yields both."""
    input_circuit, full_circuit = experiment_circuits()
    n = full_circuit.qubit_count
    prefix = len(input_circuit.gates)
    after_input = _evolve(_ground_state(n), input_circuit.gates, noise, n)
    after_full = _evolve(after_input, full_circuit.gates[prefix:], noise, n)
    return tuple(
        validate_density(_partial_trace_keep(rho, (2,) * n, (0, 1)))
        for rho in (after_input, after_full)
    )


def exact_pauli_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Born table of a two-qubit state: one row per setting of
    ``BASIS_SETTINGS``, one column per joint outcome (++, +-, -+, --)."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"need a two-qubit state, got dim {rho.dim}")
    p = np.clip(np.trace(_OUTCOME_PROJECTORS @ rho.matrix, axis1=2, axis2=3).real, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)


def _nearest_eigen(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigen-step of :func:`_project`: the eigenvalues of the nearest
    states, on the probability simplex, and their eigenvectors, from one
    stacked ``eigh`` of the Hermitian parts of the (..., d, d) ``raw``.

    The eigenvectors stay and the eigenvalues move to the nearest point of
    the probability simplex: each drops by one shift and clips at 0.  With
    the eigenvalues in descending order, the shift is ``(cumsum_k - 1) / k``
    at the largest support k whose k-th eigenvalue exceeds it, which is the
    largest of these values over every k; taking that maximum needs no
    support count, so nothing divides by zero.
    """
    w, v = _eigh(raw)
    with np.errstate(over="ignore", invalid="ignore"):
        shifts = (np.cumsum(w[..., ::-1], axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
        return np.maximum(w - shifts.max(axis=-1, keepdims=True), 0.0), v


def _eigen_state(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v w v^dag`` for each eigenpair stack of :func:`_nearest_eigen`.
    Eigenvalues beyond the float range give a non-finite result, for the
    caller's validation to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * w[..., None, :]) @ _dagger(v)


def _project(raw: np.ndarray) -> np.ndarray:
    """Stacked kernel of :func:`project_to_state` on (..., d, d) matrices:
    each Hermitian part's Frobenius-nearest state (Smolin, Gambetta and
    Smith, PRL 108, 070502, 2012), from one stacked ``eigh``."""
    return _eigen_state(*_nearest_eigen(raw))


def project_to_state(matrix: np.ndarray) -> DensityMatrix:
    """The state nearest to ``matrix`` in Frobenius norm: its Hermitian
    part with the eigenvalues moved onto the probability simplex (Smolin,
    Gambetta and Smith, PRL 108, 070502, 2012).  ``matrix`` is a square
    matrix of finite numbers, projected in double precision (real input
    stays real); the result is checked by :func:`validate_density`, so one
    whose eigenvalues overflow raises a typed AaqptError."""
    a = _numbers(matrix, None, two_d=True)
    require_square(a)
    return validate_density(_project(a.astype(np.result_type(a, float), copy=False)))


def _invert(counts: np.ndarray) -> np.ndarray:
    """Stacked kernel of :func:`linear_inversion` on (..., 9, 4) tables of
    counts with no empty row: the projected states."""
    c = np.asarray(counts, dtype=float)
    return _project(np.tensordot(c / c.sum(axis=-1, keepdims=True), _INVERSION, 2))


def linear_inversion(counts: np.ndarray) -> DensityMatrix:
    """Two-qubit state from a (9, 4) table of counts (or frequencies), rows
    in ``BASIS_SETTINGS`` order, columns as in :func:`exact_pauli_probabilities`.

    Correlators come from the matching setting; single-qubit expectations
    marginalize every compatible setting and average the three of them, so
    all collected data is used.  The raw inversion is then replaced by the
    nearest state (:func:`project_to_state`).  Counts that are not finite
    and nonnegative, that leave a row empty or whose row sum overflows raise
    MissingBasisError.
    """
    try:
        c = np.asarray(counts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MissingBasisError(f"counts are not a numeric table: {exc}") from None
    if c.shape != (9, 4):
        raise MissingBasisError(f"need a (9, 4) table of counts, got shape {c.shape}")
    with np.errstate(over="ignore"):
        totals = c.sum(axis=-1)
    if not ((np.isfinite(c) & (c >= 0)).all() and ((totals > 0) & (totals < np.inf)).all()):
        raise MissingBasisError("counts must be finite and >= 0, each row's sum finite and > 0")
    return validate_density(_invert(c))


def reference_channel_superoperator() -> Superoperator:
    """Superoperator of the bit-flip channel realized by the full circuit."""
    return superoperator(make_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)]))


def _tomograph(tables: np.ndarray, shots: int, rng: np.random.Generator | None) -> np.ndarray:
    """One batch's (2, 9, 4) counts of the input and the output register
    from their stacked (2, 9, 4) Born tables: one multinomial draw of
    ``shots`` per setting, or the tables themselves when there is no
    generator.  numpy draws the rows in C order, so the counts are those of
    a draw on the input table followed by one on the output table."""
    return tables if rng is None else rng.multinomial(shots, tables)


def _predict(m: np.ndarray, probe_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's output under each superoperator of a stack (B, d^2, d^2),
    propagated as :func:`channel.propagate` does and projected as
    :func:`_project` does, for P row-vectorized probes: the eigenpairs
    (B, P, d) and (B, P, d, d) of the projected states."""
    d = math.isqrt(probe_vectors.shape[-1])
    raw = np.einsum("bij,pj->bpi", m, probe_vectors)
    return _nearest_eigen(raw.reshape(raw.shape[:2] + (d, d)))


@functools.cache
def _scoring() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every experiment is scored against, whatever its arguments: the
    square roots of the noiseless (input, output) targets (2, 4, 4), the
    row-vectorized qubit probes (6, 16) and their outputs under the
    reference map (6, 4, 4).  Built on first use, then kept read-only for
    the life of the process."""
    targets = _register_states(NoiseModel())
    probe_vectors = np.array([p.matrix.reshape(-1) for p in probe_states(2)])
    (reference_outputs,) = _eigen_state(
        *_predict(reference_channel_superoperator().matrix[None], probe_vectors)
    )
    target_roots = _root(np.array([t.matrix for t in targets]))
    return _frozen(target_roots), _frozen(probe_vectors), _frozen(reference_outputs)


def run_experiment(
    shots: int,
    batches: int,
    seed: int,
    noise: NoiseModel | None = None,
    exact: bool = False,
) -> ExperimentReport:
    """Simulate the full batched experiment and score it against theory.

    Per batch: tomograph the input and output registers (``shots/batches``
    shots per basis setting, batch b from generator
    ``PCG64(SeedSequence(seed).spawn(batches)[b])``), extract the channel
    superoperator from the reconstructed pair (pseudo mode -- the data is
    noisy), and compute fidelities of both states against their noiseless
    targets plus, for each single-qubit probe, the fidelity between the
    outputs predicted by the extracted and the reference superoperator.
    Aggregates are means with three-sigma bands over batches.  With
    ``exact=True`` every batch reads the exact Born tables, not a draw, and
    runs through the same stacks, so all batches are equal bit for bit
    (3.5 ms at 100 batches, 31 ms at 1000; 2-core Xeon, one BLAS thread).

    Only the draws run batch by batch.  Inversion, projection, extraction
    and scoring then run once on the stacked counts of all batches.  Every
    estimate and every predicted probe output is projected onto its nearest
    state (Smolin, Gambetta and Smith, PRL 108, 070502, 2012), which exists
    for any Hermitian matrix, so every batch scores: a batch whose map
    predicts nonsense scores a low fidelity rather than dropping out of the
    means.  An error on the stacks (a decomposition that fails) raises.

    The noiseless targets, the probes and the reference outputs are built
    by the first call in a process and reused by every later one; each
    call evolves the circuit under ``noise`` and validates the two noisy
    register states itself.  ``shots``, ``batches`` and ``seed`` must be
    integers (not bools), ``batches >= 1`` and ``seed >= 0``, else
    ParameterOutOfRangeError, with or without ``exact``.
    """
    noise = noise or NoiseModel()
    if not _integer_in(shots, -math.inf):
        raise ParameterOutOfRangeError(f"shots must be an integer, got {shots!r}")
    if not _integer_in(batches, 1):
        raise ParameterOutOfRangeError(f"batches must be an integer >= 1, got {batches!r}")
    if not exact and (shots < batches or shots % batches):
        raise ParameterOutOfRangeError(
            f"shots ({shots}) must be a positive multiple of batches ({batches})"
        )
    if not _integer_in(seed, 0):
        raise ParameterOutOfRangeError(f"seed must be a non-negative integer, got {seed!r}")
    shots, batches, seed = int(shots), int(batches), int(seed)  # numpy integers too

    target_roots, probe_vectors, reference_outputs = _scoring()
    # the input register's Born table, then the output register's
    tables = np.array([exact_pauli_probabilities(rho) for rho in _register_states(noise)])

    # batch b draws from its own stream spawned from the seed (none if exact)
    rngs = [None] * batches if exact else [
        np.random.Generator(np.random.PCG64(stream))
        for stream in np.random.SeedSequence(seed).spawn(batches)
    ]
    counts = np.swapaxes([_tomograph(tables, shots // batches, rng) for rng in rngs], 0, 1)

    rho = _invert(counts)
    # extraction in pseudo mode, as extract(..., mode="pseudo") does it, from
    # one correlation stack (register, batch, 4, 4) of the realigned states
    m, _ = _solve(*_correlations(_reshuffle(rho, 2, 2), 2, 2))
    predicted = _predict(m, probe_vectors)

    # one row per score (input, output, then each probe), one column per
    # batch; a predicted output's root comes from its projection's eigenpairs
    scores = np.concatenate([_fidelity(target_roots[:, None], rho),
                             _fidelity(_eigen_root(*predicted), reference_outputs).T])
    details = [
        BatchDetail(
            b, None if exact else seed, float(scores[0, b]), float(scores[1, b]),
            {name: float(f) for name, f in zip(PROBE_NAMES_QUBIT, scores[2:, b])},
            DensityMatrix(dim=4, matrix=_frozen(rho[0, b])),
            DensityMatrix(dim=4, matrix=_frozen(rho[1, b])),
        )
        for b in range(batches)
    ]
    means = scores.mean(axis=1)
    bands = 3.0 * scores.std(axis=1, ddof=1) if batches > 1 else np.zeros(len(scores))
    aggregates = [MeanBand(mean=float(m), band=float(b)) for m, b in zip(means, bands)]

    return ExperimentReport(
        shots=shots if not exact else 0,
        batches=batches,
        seed=seed,
        exact=exact,
        noise=noise,
        fidelity_in=aggregates[0],
        fidelity_out=aggregates[1],
        probe_fidelities=dict(zip(PROBE_NAMES_QUBIT, aggregates[2:])),
        batch_details=tuple(details),
    )
