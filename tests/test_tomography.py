import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import aaqpt.tomography as tomo
from aaqpt.catalog import PAULI_X, PAULIS, PROBE_NAMES_QUBIT, max_entangled, probe_states
from aaqpt.channel import propagate
from aaqpt.cli import main
from aaqpt.errors import (
    MissingBasisError,
    NotSquareError,
    ParameterOutOfRangeError,
    SvdFailureError,
)
from aaqpt.extraction import extract
from aaqpt.qstate import (
    _eigen_root,
    _fidelity,
    _partial_trace_keep,
    _root,
    bipartite,
    fidelity,
    tensor,
    validate_density,
)
from aaqpt.realignment import _correlations, realign_matrix
from aaqpt.serialize import report_to_json
from aaqpt.tomography import (
    BASIS_SETTINGS,
    Circuit,
    Gate,
    NoiseModel,
    exact_pauli_probabilities,
    experiment_circuits,
    linear_inversion,
    project_to_state,
    reference_channel_superoperator,
    run_exact,
    run_experiment,
    _nearest_eigen,
    _project,
    _register_states,
)

NOISELESS = NoiseModel()

BELL = max_entangled(2).state


def expected_channel_output():
    # closed form: half the input projector, half its image under X on q0
    flip = tensor(PAULI_X, np.eye(2))
    return 0.5 * BELL.matrix + 0.5 * flip @ BELL.matrix @ flip


class TestCircuitValidation:
    def test_gate_index_bounds(self):
        with pytest.raises(ParameterOutOfRangeError):
            Circuit(2, (Gate("H", (2,)),))

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ParameterOutOfRangeError):
            Circuit(2, (Gate("CNOT", (1, 1)),))

    def test_unknown_gate(self):
        with pytest.raises(ParameterOutOfRangeError):
            Circuit(2, (Gate("T", (0,)),))

    def test_noise_model_bounds(self):
        with pytest.raises(ParameterOutOfRangeError):
            NoiseModel(depolarizing_1q=1.5)
        with pytest.raises(ParameterOutOfRangeError):
            NoiseModel(depolarizing_2q=-0.1)

    @pytest.mark.parametrize("qubit", [0.5, 1.0, True, False, "0", None])
    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(0.01, 0.03)])
    def test_qubit_indices_must_be_integers(self, qubit, noise):
        with pytest.raises(ParameterOutOfRangeError, match="needs integer qubits"):
            Circuit(2, (Gate("H", (qubit,)),))
        with pytest.raises(ParameterOutOfRangeError, match="needs integer qubits"):
            Circuit(2, (Gate("CNOT", (0, qubit)),))

    def test_numpy_integer_qubits_accepted(self):
        circuit = Circuit(np.int64(2), (Gate("H", (np.int64(0),)), Gate("CNOT", (0, np.int32(1)))))
        rho = run_exact(circuit, NoiseModel(0.01, 0.03), (0, 1))
        assert np.array_equal(rho.matrix, run_exact(
            Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))), NoiseModel(0.01, 0.03), (0, 1)
        ).matrix)

    @pytest.mark.parametrize("count", [0, -1, 2.0, True, "2", None])
    def test_qubit_count_must_be_positive_integer(self, count):
        with pytest.raises(ParameterOutOfRangeError, match="qubit_count must be a positive"):
            Circuit(count, ())

    @pytest.mark.parametrize("lam", ["a", None, True, 1j, float("nan"), float("inf")])
    def test_noise_probabilities_must_be_real(self, lam):
        with pytest.raises(ParameterOutOfRangeError, match="must lie in"):
            NoiseModel(lam, 0.0)
        with pytest.raises(ParameterOutOfRangeError, match="must lie in"):
            NoiseModel(0.0, lam)


class TestExperimentCircuits:
    def test_input_circuit_prepares_maximally_entangled_pair(self):
        input_circuit, _ = experiment_circuits()
        rho = run_exact(input_circuit, NOISELESS, keep=(0, 1))
        assert np.abs(rho.matrix - BELL.matrix).max() < 1e-12

    def test_full_circuit_realizes_bitflip_channel(self):
        _, full_circuit = experiment_circuits()
        rho = run_exact(full_circuit, NOISELESS, keep=(0, 1))
        assert np.abs(rho.matrix - expected_channel_output()).max() < 1e-12

    def test_channel_output_marginal_is_maximally_mixed(self):
        _, full_circuit = experiment_circuits()
        rho = run_exact(full_circuit, NOISELESS, keep=(0,))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


class TestRunExact:
    def test_full_two_qubit_depolarization(self):
        # lambda_2 = 1 on the only 2-qubit gate of the input circuit wipes
        # the entangling step: the kept pair ends maximally mixed
        input_circuit, _ = experiment_circuits()
        noise = NoiseModel(depolarizing_2q=1.0)
        rho = run_exact(input_circuit, noise, keep=(0, 1))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_single_qubit_noise_reduces_purity(self):
        input_circuit, _ = experiment_circuits()
        noisy = run_exact(input_circuit, NoiseModel(depolarizing_1q=0.05), keep=(0, 1))
        clean = run_exact(input_circuit, NOISELESS, keep=(0, 1))
        assert fidelity(clean, noisy) < 1.0 - 1e-4
        assert np.trace(noisy.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_keep(self):
        input_circuit, _ = experiment_circuits()
        with pytest.raises(ParameterOutOfRangeError):
            run_exact(input_circuit, NOISELESS, keep=(5,))

    @pytest.mark.parametrize(
        "keep", [(1, 1), (0, 1, 0), (0.0,), (True,), (0, "1"), (None,), (), 0, None]
    )
    def test_keep_must_be_distinct_integers(self, keep):
        input_circuit, _ = experiment_circuits()
        with pytest.raises(ParameterOutOfRangeError, match="not a valid qubit subset"):
            run_exact(input_circuit, NoiseModel(0.01, 0.03), keep)

    def test_keep_order_does_not_matter(self):
        _, full_circuit = experiment_circuits()
        noise = NoiseModel(0.01, 0.03)
        a = run_exact(full_circuit, noise, (2, 0)).matrix
        assert np.array_equal(a, run_exact(full_circuit, noise, (0, 2)).matrix)

    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(0.01, 0.03)])
    def test_one_evolution_gives_both_registers_bit_for_bit(self, noise):
        for state, circuit in zip(_register_states(noise), experiment_circuits()):
            assert np.array_equal(state.matrix, run_exact(circuit, noise, (0, 1)).matrix)

    def test_gate_qubits_given_as_list(self):
        # the gate is the key of its cached unitary, so a list must not
        # leave it unhashable
        circuit = Circuit(2, (Gate("H", [0]), Gate("CNOT", [0, 1])))
        assert circuit.gates[1] == Gate("CNOT", (0, 1))
        rho = run_exact(circuit, NOISELESS, (0, 1))
        assert np.abs(rho.matrix - BELL.matrix).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_more_qubits_than_letters(self, lam):
        # H on qubit 0 of seven, traced down to qubit 0: |+><+|, depolarized
        # with strength lam by the noise after the gate
        circuit = Circuit(7, (Gate("H", (0,)),))
        rho = run_exact(circuit, NoiseModel(depolarizing_1q=lam), (0,))
        plus = np.full((2, 2), 0.5)
        assert np.abs(rho.matrix - ((1 - lam) * plus + lam * np.eye(2) / 2)).max() <= 1e-12


def placed(n, first, second):
    """Basis index of |a>|t>, with a's bits on the qubits ``first`` and t's
    on the qubits ``second`` (qubit 0 most significant), as an array
    [a, t]."""
    index = np.zeros((2 ** len(first), 2 ** len(second)), dtype=int)
    for a, t in np.ndindex(index.shape):
        for value, qubits in ((a, first), (t, second)):
            for j, q in enumerate(qubits):
                index[a, t] |= ((value >> (len(qubits) - 1 - j)) & 1) << (n - 1 - q)
    return index


def reference_reduce(rho, n, keep):
    """Tr over the qubits outside ``keep`` by summing basis entries."""
    index = placed(n, keep, [q for q in range(n) if q not in keep])
    return sum(rho[np.ix_(column, column)] for column in index.T)


def reference_unitary(gate, n):
    """The gate as a dense Kronecker product over the n qubits."""
    def kron(factor_of):
        return functools.reduce(np.kron, [factor_of.get(q, np.eye(2)) for q in range(n)])

    if gate.kind == "CNOT":
        control, target = gate.qubits
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        return kron({control: p0}) + kron({control: p1, target: PAULI_X})
    if gate.kind == "H":
        return kron({gate.qubits[0]: np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
    return np.eye(2**n)


def reference_run_exact(circuit, noise, keep):
    """run_exact from dense unitaries and depolarizing noise written as
    (1 - lam) rho + lam (I/2^k on the touched qubits T, Tr_T rho on the rest)."""
    n = circuit.qubit_count
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = reference_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        lam = noise.depolarizing_2q if gate.kind == "CNOT" else noise.depolarizing_1q
        touched = list(gate.qubits)
        rest = [q for q in range(n) if q not in touched]
        sigma = reference_reduce(rho, n, rest)
        mixed = np.zeros_like(rho)
        for column in placed(n, rest, touched).T:
            mixed[np.ix_(column, column)] = sigma / 2 ** len(touched)
        rho = (1 - lam) * rho + lam * mixed
    return reference_reduce(rho, n, sorted(keep))


def random_circuit(rng, n, length):
    gates = []
    for _ in range(length):
        kind = rng.choice(["H", "I", "CNOT"] if n > 1 else ["H", "I"])
        if kind == "CNOT":
            gates.append(Gate("CNOT", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
        else:
            gates.append(Gate(str(kind), (int(rng.integers(n)),)))
    return Circuit(n, tuple(gates))


class TestRunExactReference:
    """run_exact against a simulator written apart from it: dense np.kron
    unitaries, and the depolarizing channel's mixed part assembled entry by
    entry from a partial trace taken by summing basis entries."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        circuit = random_circuit(rng, n, 8 if n == 7 else 12)
        noise = NoiseModel(*rng.uniform(0.0, 0.5, size=2))
        keeps = [tuple(range(n)), (int(rng.integers(n)),),
                 tuple(int(q) for q in sorted(rng.choice(n, min(n, 2), replace=False)))]
        for keep in keeps:
            got = run_exact(circuit, noise, keep).matrix
            assert np.abs(got - reference_run_exact(circuit, noise, keep)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_cnot_with_control_above_and_below_target(self, n):
        # H then CNOT in both directions, under noise that depolarizes every
        # touched qubit set (all qubits at n = 2)
        noise = NoiseModel(0.1, 0.25)
        for control, target in ((0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1)):
            circuit = Circuit(n, (Gate("H", (control,)), Gate("CNOT", (control, target)),
                                  Gate("H", (target,)), Gate("CNOT", (target, control))))
            for keep in (tuple(range(n)), (control, target)):
                got = run_exact(circuit, noise, keep).matrix
                assert np.abs(got - reference_run_exact(circuit, noise, keep)).max() <= 1e-12

    def test_reference_knows_the_bell_state(self):
        circuit = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        assert np.abs(reference_run_exact(circuit, NOISELESS, (0, 1)) - BELL.matrix).max() <= 1e-15


def per_gate_evolve(rho, gates, noise, n):
    """_evolve by the per-gate formula: every gate's product, the
    identities' too, and the noise's other qubits and I/2^k built at every
    gate, through _partial_trace_keep and _outer."""
    for gate in gates:
        rest = tuple(q for q in range(n) if q not in gate.qubits)
        u = tomo._outer(((tomo._GATES[gate.kind], gate.qubits), (np.eye(2 ** len(rest)), rest)), n)
        rho = u @ rho @ u.conj().T
        lam = noise.depolarizing_2q if gate.kind == "CNOT" else noise.depolarizing_1q
        if lam != 0.0:
            mixed = np.eye(2 ** len(gate.qubits)) / 2 ** len(gate.qubits)
            sigma = _partial_trace_keep(rho, (2,) * n, rest) if rest else np.trace(rho)
            rho = (1 - lam) * rho + lam * tomo._outer(((mixed, gate.qubits), (sigma, rest)), n)
    return rho


class TestPerGateFormula:
    """The cached plans and the skipped identity products leave every bit
    of the evolved states as the per-gate formula gives them."""

    def test_register_states(self):
        rng = np.random.default_rng(25)
        noises = [NOISELESS, NoiseModel(0.01, 0.03), NoiseModel(0.2, 0.3), NoiseModel(1.0, 1.0)]
        noises += [NoiseModel(*rng.uniform(0.0, 1.0, size=2)) for _ in range(20)]
        input_circuit, full_circuit = experiment_circuits()
        for noise in noises:
            after_input = per_gate_evolve(tomo._ground_state(3), input_circuit.gates, noise, 3)
            after_full = per_gate_evolve(after_input, full_circuit.gates[6:], noise, 3)
            for got, rho in zip(_register_states(noise), (after_input, after_full)):
                assert np.array_equal(got.matrix, _partial_trace_keep(rho, (2,) * 3, (0, 1)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_circuits(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(4):
            circuit = random_circuit(rng, n, 8 if n == 7 else 12)
            noise = NoiseModel(*rng.uniform(0.0, 0.5, size=2)) if rng.random() < 0.75 else NOISELESS
            keep = tuple(sorted(int(q) for q in rng.choice(n, rng.integers(1, n + 1), replace=False)))
            rho = per_gate_evolve(tomo._ground_state(n), circuit.gates, noise, n)
            want = _partial_trace_keep(rho, (2,) * n, keep)
            assert np.array_equal(run_exact(circuit, noise, keep).matrix, want)


def sample_counts(rho, shots, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.multinomial(shots, exact_pauli_probabilities(rho))


ROW = {setting: i for i, setting in enumerate(BASIS_SETTINGS)}


class TestSamplePauliCounts:
    def test_zero_state_z_basis(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]))
        counts = sample_counts(rho, shots=1000, seed=1)[ROW["Z", "Z"]]
        assert counts[0] == 1000
        assert counts[1:].sum() == 0

    def test_bell_state_xx_correlations(self):
        counts = sample_counts(BELL, shots=2000, seed=2)[ROW["X", "X"]]
        assert counts[1] == 0 and counts[2] == 0
        assert counts[0] + counts[3] == 2000

    def test_deterministic_for_fixed_seed(self):
        rho = validate_density(np.eye(4) / 4)
        a = sample_counts(rho, shots=500, seed=3)
        b = sample_counts(rho, shots=500, seed=3)
        assert np.array_equal(a, b)
        c = sample_counts(rho, shots=500, seed=4)
        assert not np.array_equal(a, c)

    def test_frequencies_converge_to_born_probabilities(self):
        rng = np.random.default_rng(81)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = validate_density((g @ g.conj().T) / np.trace(g @ g.conj().T))
        shots = 10**6
        probs = exact_pauli_probabilities(rho)
        freqs = sample_counts(rho, shots=shots, seed=5) / shots
        sigma = np.sqrt(probs * (1 - probs) / shots)
        assert np.all(np.abs(freqs - probs) <= 5 * sigma + 1e-9)

    def test_two_qubit_states_only(self):
        from aaqpt.errors import DimensionMismatchError

        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError):
            sample_counts(rho, shots=10, seed=1)

    def test_one_table_draw_equals_row_by_row_draws(self):
        # run_experiment draws a batch's (2, 9, 4) counts in one call; this
        # is what keeps its counts equal to per-setting draws
        _, full_circuit = experiment_circuits()
        table = exact_pauli_probabilities(
            run_exact(full_circuit, NoiseModel(0.01, 0.03), keep=(0, 1))
        )
        one = np.random.Generator(np.random.PCG64(9)).multinomial(1024, table)
        rows = np.random.Generator(np.random.PCG64(9))
        assert np.array_equal(one, [rows.multinomial(1024, p) for p in table])


class TestOutcomeProjectors:
    def test_each_setting_resolves_the_identity_exactly(self):
        for projectors in tomo._OUTCOME_PROJECTORS:
            assert np.array_equal(projectors.sum(axis=0), np.eye(4))

    def test_each_projector_is_the_product_of_its_eigenprojectors(self):
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for (b0, b1), projectors in zip(BASIS_SETTINGS, tomo._OUTCOME_PROJECTORS):
            for (s0, s1), p in zip(signs, projectors):
                local = [(np.eye(2) + s * PAULIS[b]) / 2 for s, b in ((s0, b0), (s1, b1))]
                assert np.array_equal(p, np.kron(*local))

    def test_tables_are_the_kron_built_tables_byte_for_byte(self):
        def kron_table(a, b):
            return np.array([
                [(np.eye(4) / a + s0 * s1 * np.kron(PAULIS[b0], PAULIS[b1])
                  + (s0 * np.kron(PAULIS[b0], PAULIS["I"])
                     + s1 * np.kron(PAULIS["I"], PAULIS[b1])) / b) / 4
                 for s0 in (1, -1) for s1 in (1, -1)]
                for b0, b1 in BASIS_SETTINGS
            ])

        for table, (a, b) in ((tomo._OUTCOME_PROJECTORS, (1, 1)), (tomo._INVERSION, (9, 3))):
            want = kron_table(a, b)
            assert table.shape == want.shape and table.dtype == want.dtype
            assert table.tobytes() == want.tobytes()


def reference_inversion(counts):
    # the per-setting Pauli-expectation estimator written out term by term
    freqs = {s: np.asarray(c, dtype=float) / np.sum(c) for s, c in zip(BASIS_SETTINGS, counts)}
    first, second = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    expectations = {("I", "I"): 1.0}
    for b0, b1 in BASIS_SETTINGS:
        expectations[b0, b1] = freqs[b0, b1] @ (first * second)
    for b in "XYZ":
        expectations[b, "I"] = np.mean([freqs[b, other] @ first for other in "XYZ"])
        expectations["I", b] = np.mean([freqs[other, b] @ second for other in "XYZ"])
    return sum(v * np.kron(PAULIS[a], PAULIS[b]) for (a, b), v in expectations.items()) / 4


class TestLinearInversion:
    def test_identity_on_exact_bell_expectations(self):
        rho = linear_inversion(exact_pauli_probabilities(BELL))
        assert np.abs(rho.matrix - BELL.matrix).max() < 1e-12

    def test_identity_on_exact_channel_output(self):
        _, full_circuit = experiment_circuits()
        target = run_exact(full_circuit, NOISELESS, keep=(0, 1))
        rho = linear_inversion(exact_pauli_probabilities(target))
        assert np.abs(rho.matrix - target.matrix).max() < 1e-12

    def test_sampled_bell_reconstruction(self):
        rho = linear_inversion(sample_counts(BELL, shots=10240, seed=100))
        assert fidelity(rho, BELL) >= 0.99

    def test_missing_basis_rejected(self):
        with pytest.raises(MissingBasisError):
            linear_inversion(exact_pauli_probabilities(BELL)[:-1])

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda t: t[:, :3], id="three-outcomes"),
            pytest.param(lambda t: t.reshape(-1), id="flat"),
            pytest.param(lambda t: {s: row for s, row in zip(BASIS_SETTINGS, t)}, id="dict"),
            pytest.param(lambda t: [list(row) for row in t[:-1]] + [[1, 2]], id="ragged"),
            pytest.param(lambda t: np.vstack([[5, -1, 0, 0], t[1:]]), id="negative"),
            pytest.param(lambda t: np.vstack([[np.inf, 1, 0, 0], t[1:]]), id="inf"),
            pytest.param(lambda t: np.vstack([[np.nan, 1, 0, 0], t[1:]]), id="nan"),
            pytest.param(lambda t: np.vstack([t[:-1], [0, 0, 0, 0]]), id="empty-row"),
        ],
    )
    def test_bad_counts_rejected(self, bad):
        with pytest.raises(MissingBasisError):
            linear_inversion(bad(sample_counts(BELL, shots=64, seed=6)))

    def test_result_is_physical(self):
        rng = np.random.default_rng(82)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = validate_density((g @ g.conj().T) / np.trace(g @ g.conj().T))
        est = linear_inversion(sample_counts(rho, shots=64, seed=200))  # validates inside
        assert np.trace(est.matrix) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_setting_estimator(self, seed):
        counts = sample_counts(BELL, shots=64, seed=seed)
        expected = project_to_state(reference_inversion(counts)).matrix
        assert np.abs(linear_inversion(counts).matrix - expected).max() < 1e-12


class TestProjectToState:
    def test_clips_and_renormalizes(self):
        # the shift 0.2 leaves one eigenvalue in the support
        raw = np.diag([1.2, -0.1, 0.0, 0.0])
        rho = project_to_state(raw)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_no_positive_eigenvalue_projects_to_nearest_state(self):
        # every eigenvalue stays in the support, each raised by 0.275
        rho = project_to_state(np.diag([-0.1, 0.0, 0.0, 0.0]))
        assert np.abs(rho.matrix - np.diag([0.175, 0.275, 0.275, 0.275])).max() <= 1e-15

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(4)])
    def test_non_square_or_empty_rejected(self, bad):
        with pytest.raises(NotSquareError):
            project_to_state(bad)

    def test_single_precision_projects_as_double(self):
        # the projection runs in double precision, so its result passes the
        # validation tolerance
        rng = np.random.default_rng(84)
        for _ in range(20):
            real = rng.normal(size=(4, 4))
            complex_ = real + 1j * rng.normal(size=(4, 4))
            for m in (real.astype(np.float32), complex_.astype(np.complex64)):
                double = m.astype(np.result_type(m, float))
                assert np.array_equal(project_to_state(m).matrix, project_to_state(double).matrix)

    def test_fixes_nothing_on_valid_states(self):
        rng = np.random.default_rng(83)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (g @ g.conj().T) / np.trace(g @ g.conj().T)
        assert np.abs(project_to_state(m).matrix - m).max() < 1e-12


class TestExactPipelineRecoversReferenceMap:
    def test_noiseless_exact_tomography_extraction(self):
        # full pipeline on exact expectations: tomograph both registers,
        # extract, compare with the reference bit-flip superoperator
        input_circuit, full_circuit = experiment_circuits()
        rho_in = run_exact(input_circuit, NOISELESS, keep=(0, 1))
        rho_out = run_exact(full_circuit, NOISELESS, keep=(0, 1))
        est_in = linear_inversion(exact_pauli_probabilities(rho_in))
        est_out = linear_inversion(exact_pauli_probabilities(rho_out))
        result = extract(
            bipartite(est_in.matrix, 2, 2), bipartite(est_out.matrix, 2, 2), mode="pseudo"
        )
        reference = reference_channel_superoperator()
        assert np.abs(result.m.matrix - reference.matrix).max() < 1e-9


class TestRunExperiment:
    def test_exact_mode_all_fidelities_one(self):
        report = run_experiment(shots=0, batches=1, seed=7, exact=True)
        assert report.fidelity_in.mean == pytest.approx(1.0, abs=1e-9)
        assert report.fidelity_out.mean == pytest.approx(1.0, abs=1e-9)
        for mb in report.probe_fidelities.values():
            assert mb.mean == pytest.approx(1.0, abs=1e-9)

    def test_seeded_run_meets_noise_floor(self):
        report = run_experiment(shots=10240, batches=10, seed=7)
        assert report.fidelity_in.mean >= 0.99
        assert report.fidelity_out.mean >= 0.99
        for mb in report.probe_fidelities.values():
            assert mb.mean >= 0.98

    def test_bit_identical_reruns(self):
        a = run_experiment(shots=2560, batches=5, seed=11)
        b = run_experiment(shots=2560, batches=5, seed=11)
        assert report_to_json(a) == report_to_json(b)

    def test_batch_seeds_derived_from_run_seed(self, monkeypatch):
        # every batch records the run's seed, and runs at seeds s and s + 1
        # share no batch draw
        real_tomograph = tomo._tomograph
        drawn = []

        def recording_tomograph(*args):
            drawn.append(real_tomograph(*args))
            return drawn[-1]

        monkeypatch.setattr(tomo, "_tomograph", recording_tomograph)
        draws = []
        for seed in (20, 21):
            drawn.clear()
            report = tomo.run_experiment(shots=1280, batches=4, seed=seed)
            assert [d.seed for d in report.batch_details] == [seed] * 4
            # each entry is one batch's draw of both registers
            draws.append(list(drawn))
        assert not any(np.array_equal(a, b) for a in draws[0] for b in draws[1])

    def test_aggregation_is_order_independent(self):
        report = run_experiment(shots=2560, batches=5, seed=12)
        values = [d.fidelity_in for d in report.batch_details]
        shuffled = [values[i] for i in (3, 0, 4, 1, 2)]
        assert np.mean(shuffled) == pytest.approx(report.fidelity_in.mean, abs=1e-12)
        assert 3 * np.std(shuffled, ddof=1) == pytest.approx(
            report.fidelity_in.band, abs=1e-12
        )

    def test_two_qubit_noise_lowers_input_fidelity(self):
        clean = run_experiment(shots=2560, batches=5, seed=13)
        noisy = run_experiment(
            shots=2560, batches=5, seed=13, noise=NoiseModel(depolarizing_2q=0.03)
        )
        assert noisy.fidelity_in.mean < clean.fidelity_in.mean

    def test_divisibility_enforced(self):
        with pytest.raises(ParameterOutOfRangeError):
            run_experiment(shots=100, batches=7, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    @pytest.mark.parametrize("exact", [False, True])
    def test_seed_must_be_non_negative_integer(self, seed, exact):
        with pytest.raises(ParameterOutOfRangeError, match="seed must be a non-negative integer"):
            run_experiment(shots=1280, batches=4, seed=seed, exact=exact)

    @pytest.mark.parametrize("shots", [1280.0, True, "1280", None])
    @pytest.mark.parametrize("exact", [False, True])
    def test_shots_must_be_integer(self, shots, exact):
        with pytest.raises(ParameterOutOfRangeError, match="shots must be an integer"):
            run_experiment(shots=shots, batches=4, seed=7, exact=exact)

    @pytest.mark.parametrize("batches", [4.0, True, "4", None])
    @pytest.mark.parametrize("exact", [False, True])
    def test_batches_must_be_integer(self, batches, exact):
        with pytest.raises(ParameterOutOfRangeError, match="batches must be an integer"):
            run_experiment(shots=1280, batches=batches, seed=7, exact=exact)

    def test_numpy_integer_arguments_accepted(self):
        a = report_text(np.int64(1280), np.int32(4), np.uint16(9))
        assert a == report_text(1280, 4, 9)

    def test_numpy_integer_seed_accepted(self):
        a = run_experiment(shots=1280, batches=4, seed=np.int64(9))
        assert report_to_json(a) == report_to_json(run_experiment(shots=1280, batches=4, seed=9))

    def test_error_bars_are_three_sigma(self):
        report = run_experiment(shots=2560, batches=5, seed=14)
        values = [d.fidelity_in for d in report.batch_details]
        assert report.fidelity_in.band == pytest.approx(
            3 * float(np.std(values, ddof=1)), abs=1e-12
        )

    def test_estimates_exposed(self):
        report = run_experiment(shots=1280, batches=2, seed=15)
        assert len(report.rho_in_estimates) == 2
        assert len(report.rho_out_estimates) == 2
        assert report.shots_per_batch == 640
        for rho in report.rho_in_estimates:
            assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_exact_batches_computed_once(self, monkeypatch):
        import aaqpt.tomography as tomo

        real_solve = tomo._solve
        calls = []

        def recording_solve(c_in, c_out, *args):
            calls.append((c_in.shape, c_out.shape))
            return real_solve(c_in, c_out, *args)

        monkeypatch.setattr(tomo, "_solve", recording_solve)
        report = tomo.run_experiment(shots=0, batches=5, seed=3, exact=True)
        # one solve, on a stack of one batch
        assert calls == [((1, 4, 4), (1, 4, 4))]
        single = tomo.run_experiment(shots=0, batches=1, seed=3, exact=True)
        assert [d.batch for d in report.batch_details] == [0, 1, 2, 3, 4]
        assert report.fidelity_in.mean == pytest.approx(single.fidelity_in.mean, rel=0, abs=1e-15)
        assert report.fidelity_out.mean == pytest.approx(single.fidelity_out.mean, rel=0, abs=1e-15)
        for name, mb in report.probe_fidelities.items():
            assert mb.mean == pytest.approx(single.probe_fidelities[name].mean, rel=0, abs=1e-15)

    def test_unphysical_probe_prediction_still_scores(self, monkeypatch):
        # batch 2 of this one-shot run extracts a map whose prediction for
        # probe L has no positive eigenvalue; its nearest state still
        # scores, as do the batch's other fidelities
        real_predict = tomo._predict
        maps = []

        def recording_predict(m, probe_vectors):
            maps.append(m)
            return real_predict(m, probe_vectors)

        monkeypatch.setattr(tomo, "_predict", recording_predict)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = tomo.run_experiment(shots=8, batches=8, seed=2, noise=NoiseModel(0.01, 0.03))
        [m] = maps
        probe = probe_states(2)[PROBE_NAMES_QUBIT.index("L")].matrix
        raw = (m[2] @ probe.reshape(-1)).reshape(2, 2)
        assert np.linalg.eigvalsh((raw + raw.conj().T) / 2).max() <= 0.0
        reference = project_to_state(propagate(reference_channel_superoperator(), probe))
        detail = report.batch_details[2]
        assert detail.status == "ok"
        assert abs(detail.probe_fidelities["L"] - fidelity(project_to_state(raw), reference)) <= 1e-12
        scores = [detail.fidelity_in, detail.fidelity_out, *detail.probe_fidelities.values()]
        assert all(np.isfinite(scores))
        assert [d.status for d in report.batch_details] == ["ok"] * 8

    def test_batch_ranks_are_the_spectrum_ranks(self, monkeypatch):
        # every batch's rank comes from one stacked call, decided as
        # _spectrum decides it batch by batch
        import aaqpt.extraction as extraction
        from aaqpt.realignment import _spectrum

        real_ranks = extraction._ranks
        seen = []

        def recording_ranks(values, rows, threshold=None):
            ranks, tau = real_ranks(values, rows, threshold)
            seen.append((values.copy(), ranks))
            return ranks, tau

        monkeypatch.setattr(extraction, "_ranks", recording_ranks)
        run_experiment(shots=8, batches=8, seed=5)
        [(values, ranks)] = seen
        assert values.shape == (8, 4)
        assert ranks.tolist() == [_spectrum(v.copy(), 4, None).rank for v in values]

    def test_svd_failure_raises_from_run_experiment(self, monkeypatch, capsys):
        # an error on the stacks fails the whole run, and the CLI exits 2
        def failing_solve(c_in, c_out, *args):
            raise SvdFailureError("injected failure")

        monkeypatch.setattr(tomo, "_solve", failing_solve)
        with pytest.raises(SvdFailureError, match="injected failure"):
            tomo.run_experiment(shots=1280, batches=4, seed=16)
        assert main(["experiment", "--shots", "1280", "--batches", "4", "--seed", "16"]) == 2
        assert "error: injected failure" in capsys.readouterr().err

    def test_no_batch_fails_over_the_grid(self):
        # seeds x shots/batches x noise, 1020 batches, a twentieth of them
        # predicting some probe output with no positive eigenvalue
        noises = [NOISELESS, NoiseModel(0.01, 0.03), NoiseModel(0.2, 0.3)]
        details = [
            d
            for seed in range(10)
            for shots, batches in [(8, 8), (16, 8), (64, 4), (128, 4), (80, 10)]
            for noise in noises
            for d in run_experiment(shots, batches, seed, noise).batch_details
        ]
        assert len(details) == 1020
        assert {d.status for d in details} == {"ok"}
        for d in details:
            assert np.isfinite([d.fidelity_in, d.fidelity_out, *d.probe_fidelities.values()]).all()


class TestReportConstants:
    """A batch's status and the report's generator name are class
    constants: no field holds them and no constructor takes them."""

    def test_constants_are_not_fields(self):
        assert "status" not in {f.name for f in dataclasses.fields(tomo.BatchDetail)}
        assert "rng_name" not in {f.name for f in dataclasses.fields(tomo.ExperimentReport)}

    def test_constructors_refuse_the_constants(self):
        report = run_experiment(shots=8, batches=2, seed=3)
        detail = report.batch_details[0]
        batch_args, report_args = (
            {f.name: getattr(x, f.name) for f in dataclasses.fields(x)
             if f.name not in ("status", "rng_name")}
            for x in (detail, report)
        )
        assert tomo.BatchDetail(**batch_args) == detail
        assert tomo.ExperimentReport(**report_args).rng_name == "pcg64"
        with pytest.raises(TypeError):
            tomo.BatchDetail(**batch_args, status="ok")
        with pytest.raises(TypeError):
            tomo.ExperimentReport(**report_args, rng_name="pcg64")

    def test_instances_and_documents_read_the_constants(self):
        report = run_experiment(shots=8, batches=2, seed=3)
        assert report.rng_name == "pcg64"
        assert [d.status for d in report.batch_details] == ["ok", "ok"]
        doc = report_to_json(report)
        assert doc["rng"] == "pcg64"
        assert [d["status"] for d in doc["batch_details"]] == ["ok", "ok"]


def clear_caches():
    tomo._scoring.cache_clear()
    tomo._gate_unitary.cache_clear()
    tomo._noise_plan.cache_clear()


def report_text(*args):
    return json.dumps(report_to_json(run_experiment(*args)), sort_keys=True)


class TestProcessConstants:
    """What run_experiment builds once per process: the scoring constants,
    the gate unitaries and the noise plans."""

    def test_targets_are_noiseless_even_if_first_call_is_noisy(self):
        clear_caches()
        run_experiment(1280, 4, 9, NoiseModel(0.2, 0.3))
        targets = [run_exact(c, NOISELESS, (0, 1)).matrix for c in experiment_circuits()]
        assert np.array_equal(tomo._scoring()[0], _root(np.array(targets)))

    def test_interleaved_noise_matches_cold_runs(self):
        noises = [NoiseModel(0.01, 0.03), NoiseModel(0.05, 0.0), NoiseModel(0.01, 0.03)]
        cold = []
        for noise in noises:
            clear_caches()
            cold.append((report_text(2560, 5, 4, noise), report_text(0, 3, 4, noise, True)))
        clear_caches()
        warm = [(report_text(2560, 5, 4, noise), report_text(0, 3, 4, noise, True))
                for noise in noises]
        assert warm == cold

    def test_cached_arrays_are_read_only(self):
        arrays = list(tomo._scoring())
        circuit = experiment_circuits()[1]
        n = circuit.qubit_count
        arrays += [tomo._gate_unitary(g, n) for g in circuit.gates if g.kind != "I"]
        arrays += [tomo._noise_plan(g.qubits, n)[1] for g in circuit.gates]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.5

    def test_gate_unitaries_built_once(self):
        clear_caches()
        run_experiment(1280, 4, 9, NoiseModel(0.01, 0.03))
        run_experiment(1280, 4, 10, NoiseModel(0.02, 0.04))
        gates = experiment_circuits()[1].gates
        # no unitary is built for an identity gate; the four other gates
        # each build theirs once, over both runs and both noise models
        unitaries = tomo._gate_unitary.cache_info()
        assert unitaries.currsize == unitaries.misses == len({g for g in gates if g.kind != "I"}) == 4
        # one noise plan per touched qubit set: (0,), (0, 1), (1,), (2,), (2, 0)
        plans = tomo._noise_plan.cache_info()
        assert plans.currsize == plans.misses == len({g.qubits for g in gates}) == 5

    def test_only_register_states_validated_per_call(self, monkeypatch):
        import aaqpt.catalog

        run_experiment(1280, 4, 9)  # the constants exist from here on
        calls = []
        for module in (tomo, aaqpt.catalog):
            real = module.validate_density
            monkeypatch.setattr(
                module, "validate_density",
                lambda *a, real=real, **k: (calls.append(1), real(*a, **k))[1],
            )
        run_experiment(10240, 10, 7, NoiseModel(0.01, 0.03))
        assert len(calls) == 2


def per_batch_report(shots, batches, seed, noise):
    """The experiment rebuilt batch by batch from the public per-matrix
    primitives: one generator per batch, inversion, pseudo-mode extraction,
    projected probe predictions and fidelities."""
    input_circuit, full_circuit = experiment_circuits()
    circuits = (input_circuit, full_circuit)
    targets = [run_exact(c, NOISELESS, (0, 1)) for c in circuits]
    tables = [exact_pauli_probabilities(run_exact(c, noise, (0, 1))) for c in circuits]
    m_reference = reference_channel_superoperator()
    probes = probe_states(2)
    reference_outputs = [project_to_state(propagate(m_reference, p.matrix)) for p in probes]
    rows = []
    for b in range(batches):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        rho_in, rho_out = (linear_inversion(rng.multinomial(shots // batches, t)) for t in tables)
        result = extract(
            bipartite(rho_in.matrix, 2, 2), bipartite(rho_out.matrix, 2, 2), mode="pseudo"
        )
        rows.append({
            "fidelity_in": fidelity(targets[0], rho_in),
            "fidelity_out": fidelity(targets[1], rho_out),
            "probes": {
                name: fidelity(project_to_state(propagate(result.m, p.matrix)), ref)
                for name, p, ref in zip(PROBE_NAMES_QUBIT, probes, reference_outputs)
            },
            "rho_in": rho_in.matrix,
            "rho_out": rho_out.matrix,
        })
    return rows


def mean_band(values):
    values = np.asarray(values)
    return values.mean(), 3 * np.std(values, ddof=1) if values.size > 1 else 0.0


class TestStackedExperiment:
    """run_experiment against the same experiment done one batch and one
    matrix at a time."""

    @pytest.mark.parametrize(
        "shots, batches, seed, noise",
        [(10240, 10, s, NOISELESS) for s in range(10)]
        + [(10240, 10, s, NoiseModel(0.01, 0.03)) for s in range(10)]
        + [(64, 4, 3, NOISELESS), (8, 8, 5, NOISELESS)],
    )
    def test_matches_per_batch_primitives(self, shots, batches, seed, noise):
        report = run_experiment(shots, batches, seed, noise)
        rows = per_batch_report(shots, batches, seed, noise)
        assert [d.status for d in report.batch_details] == ["ok"] * batches
        for d, r in zip(report.batch_details, rows):
            assert abs(d.fidelity_in - r["fidelity_in"]) <= 1e-12
            assert abs(d.fidelity_out - r["fidelity_out"]) <= 1e-12
            assert d.probe_fidelities.keys() == r["probes"].keys()
            for name, f in r["probes"].items():
                assert abs(d.probe_fidelities[name] - f) <= 1e-12
            assert np.abs(d.rho_in.matrix - r["rho_in"]).max() <= 1e-12
            assert np.abs(d.rho_out.matrix - r["rho_out"]).max() <= 1e-12
        aggregates = [(report.fidelity_in, [r["fidelity_in"] for r in rows]),
                      (report.fidelity_out, [r["fidelity_out"] for r in rows])]
        aggregates += [(mb, [r["probes"][name] for r in rows])
                       for name, mb in report.probe_fidelities.items()]
        for mb, values in aggregates:
            mean, band = mean_band(values)
            assert abs(mb.mean - mean) <= 1e-12 and abs(mb.band - band) <= 1e-12

    @pytest.mark.parametrize(
        "shots, batches, seed, noise, exact",
        [(10240, 10, 7, NoiseModel(0.01, 0.03), False), (1280, 4, 16, NOISELESS, False),
         (12800, 100, 2, NoiseModel(0.05, 0.1), False), (8, 8, 5, NOISELESS, False),
         (8, 8, 3, NoiseModel(0.01, 0.03), False), (0, 3, 0, NoiseModel(0.01, 0.03), True)],
    )
    def test_batch_maps_are_pseudo_extractions(self, monkeypatch, shots, batches, seed, noise, exact):
        # one extraction pipeline: each batch's M is extract's in pseudo
        # mode on the batch's two states, bit for bit, also at one shot per
        # setting, where every estimate has rank 1 or 2
        import aaqpt.tomography as tomo

        real_solve = tomo._solve
        calls = []

        def recording_solve(c_in, c_out, *args):
            result = real_solve(c_in, c_out, *args)
            calls.append((c_in, c_out, result[0]))
            return result

        monkeypatch.setattr(tomo, "_solve", recording_solve)
        report = tomo.run_experiment(shots, batches, seed, noise, exact=exact)
        [(c_in, c_out, m)] = calls
        assert len(m) == (1 if exact else batches)
        for d in report.batch_details:
            b = 0 if exact else d.batch
            # the stacks solved are the reported states' correlation matrices
            for c, rho in ((c_in, d.rho_in), (c_out, d.rho_out)):
                assert np.array_equal(c[b], _correlations(realign_matrix(rho.matrix, 2, 2), 2, 2))
            states = (bipartite(rho.matrix, 2, 2) for rho in (d.rho_in, d.rho_out))
            assert np.array_equal(m[b], extract(*states, mode="pseudo").m.matrix)

    def test_counts_are_the_per_batch_draws(self, monkeypatch):
        # one draw per batch on the stacked (2, 9, 4) tables, whose halves
        # are the input table's draw and then the output table's
        import aaqpt.tomography as tomo

        real_tomograph = tomo._tomograph
        drawn = []

        def recording_tomograph(tables, *args):
            drawn.append((tables, real_tomograph(tables, *args)))
            return drawn[-1][1]

        monkeypatch.setattr(tomo, "_tomograph", recording_tomograph)
        noise = NoiseModel(0.01, 0.03)
        tomo.run_experiment(1280, 4, 9, noise)
        input_circuit, full_circuit = experiment_circuits()
        tables = [exact_pauli_probabilities(run_exact(c, noise, (0, 1)))
                  for c in (input_circuit, full_circuit)]
        assert len(drawn) == 4
        for b, (stacked, counts) in enumerate(drawn):
            assert stacked.shape == counts.shape == (2, 9, 4)
            assert np.array_equal(stacked, tables)
            # the b-th of the streams SeedSequence(9) spawns
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9, spawn_key=(b,))))
            for half, table in zip(counts, tables):
                assert np.array_equal(half, rng.multinomial(320, table))


def random_hermitian_stack(rng, batch, dim):
    g = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    return (g + g.conj().swapaxes(-1, -2)) / 2


def random_state_stack(rng, batch, dim):
    g = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


@given(batch=st.integers(min_value=1, max_value=6), dim=st.sampled_from([2, 4]),
       seed=st.integers(0, 2**32 - 1))
def test_root_from_projection_pairs_is_root_of_projection(batch, dim, seed):
    # the experiment takes a predicted output's square root from the
    # eigenpairs of its projection
    rng = np.random.default_rng(seed)
    raw = random_hermitian_stack(rng, batch, dim) - rng.uniform(0, 3) * np.eye(dim)
    # the square root magnifies round-off where a projected eigenvalue is
    # small: over 20000 seeded draws the largest gap was 2.4e-14
    assert np.abs(_eigen_root(*_nearest_eigen(raw)) - _root(_project(raw))).max() <= 1e-13


@given(batch=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_match_per_matrix_calls(batch, seed):
    rng = np.random.default_rng(seed)
    # shifted so that some matrices have no positive eigenvalue
    raw = random_hermitian_stack(rng, batch, 4) - rng.uniform(0, 3) * np.eye(4)
    for m, rho in zip(raw, _project(raw)):
        assert np.abs(rho - project_to_state(m).matrix).max() <= 1e-12
    rhos, sigmas = random_state_stack(rng, batch, 4), random_state_stack(rng, batch, 4)
    stacked = _fidelity(_root(rhos), sigmas)
    for f, rho, sigma in zip(stacked, rhos, sigmas):
        assert abs(f - fidelity(validate_density(rho), validate_density(sigma))) <= 1e-12
