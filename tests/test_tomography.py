import numpy as np
import pytest

from aaqpt.catalog import PAULI_X, max_entangled
from aaqpt.errors import (
    MissingBasisError,
    ParameterOutOfRangeError,
)
from aaqpt.qstate import fidelity, tensor, validate_density
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
    run_exact,
    run_experiment,
    sample_pauli_counts,
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


class TestSamplePauliCounts:
    def test_zero_state_z_basis(self):
        rho = validate_density(np.diag([1.0, 0.0, 0.0, 0.0]))
        counts = sample_pauli_counts(rho, ("Z", "Z"), shots=1000, seed=1)
        assert counts[0] == 1000
        assert counts[1:].sum() == 0

    def test_bell_state_xx_correlations(self):
        counts = sample_pauli_counts(BELL, ("X", "X"), shots=2000, seed=2)
        assert counts[1] == 0 and counts[2] == 0
        assert counts[0] + counts[3] == 2000

    def test_deterministic_for_fixed_seed(self):
        rho = validate_density(np.eye(4) / 4)
        a = sample_pauli_counts(rho, ("X", "Y"), shots=500, seed=3)
        b = sample_pauli_counts(rho, ("X", "Y"), shots=500, seed=3)
        assert np.array_equal(a, b)
        c = sample_pauli_counts(rho, ("X", "Y"), shots=500, seed=4)
        assert not np.array_equal(a, c)

    def test_frequencies_converge_to_born_probabilities(self):
        rng = np.random.default_rng(81)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = validate_density((g @ g.conj().T) / np.trace(g @ g.conj().T))
        shots = 10**6
        for basis in (("X", "Z"), ("Y", "Y")):
            probs = exact_pauli_probabilities(rho, basis)
            counts = sample_pauli_counts(rho, basis, shots=shots, seed=5)
            freqs = counts / shots
            sigma = np.sqrt(probs * (1 - probs) / shots)
            assert np.all(np.abs(freqs - probs) <= 5 * sigma + 1e-9)

    def test_shots_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            sample_pauli_counts(BELL, ("Z", "Z"), shots=0, seed=1)

    def test_two_qubit_states_only(self):
        from aaqpt.errors import DimensionMismatchError

        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError):
            sample_pauli_counts(rho, ("Z", "Z"), shots=10, seed=1)


class TestLinearInversion:
    def test_identity_on_exact_bell_expectations(self):
        counts = {s: exact_pauli_probabilities(BELL, s) for s in BASIS_SETTINGS}
        rho = linear_inversion(counts)
        assert np.abs(rho.matrix - BELL.matrix).max() < 1e-12

    def test_identity_on_exact_channel_output(self):
        _, full_circuit = experiment_circuits()
        target = run_exact(full_circuit, NOISELESS, keep=(0, 1))
        counts = {s: exact_pauli_probabilities(target, s) for s in BASIS_SETTINGS}
        rho = linear_inversion(counts)
        assert np.abs(rho.matrix - target.matrix).max() < 1e-12

    def test_sampled_bell_reconstruction(self):
        counts = {
            s: sample_pauli_counts(BELL, s, shots=10240, seed=100 + i)
            for i, s in enumerate(BASIS_SETTINGS)
        }
        rho = linear_inversion(counts)
        assert fidelity(rho, BELL) >= 0.99

    def test_missing_basis_rejected(self):
        counts = {s: exact_pauli_probabilities(BELL, s) for s in BASIS_SETTINGS[:-1]}
        with pytest.raises(MissingBasisError):
            linear_inversion(counts)

    def test_result_is_physical(self):
        rng = np.random.default_rng(82)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = validate_density((g @ g.conj().T) / np.trace(g @ g.conj().T))
        counts = {
            s: sample_pauli_counts(rho, s, shots=64, seed=200 + i)
            for i, s in enumerate(BASIS_SETTINGS)
        }
        est = linear_inversion(counts)  # validation inside would raise if not
        assert np.trace(est.matrix) == pytest.approx(1.0, abs=1e-12)


class TestProjectToState:
    def test_clips_and_renormalizes(self):
        raw = np.diag([1.2, -0.1, 0.0, 0.0])
        rho = project_to_state(raw)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_fixes_nothing_on_valid_states(self):
        rng = np.random.default_rng(83)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (g @ g.conj().T) / np.trace(g @ g.conj().T)
        assert np.abs(project_to_state(m).matrix - m).max() < 1e-12


class TestExactPipelineRecoversReferenceMap:
    def test_noiseless_exact_tomography_extraction(self):
        # full pipeline on exact expectations: tomograph both registers,
        # extract, compare with the reference bit-flip superoperator
        from aaqpt.extraction import extract
        from aaqpt.qstate import bipartite
        from aaqpt.tomography import reference_channel_superoperator

        input_circuit, full_circuit = experiment_circuits()
        rho_in = run_exact(input_circuit, NOISELESS, keep=(0, 1))
        rho_out = run_exact(full_circuit, NOISELESS, keep=(0, 1))
        est_in = linear_inversion(
            {s: exact_pauli_probabilities(rho_in, s) for s in BASIS_SETTINGS}
        )
        est_out = linear_inversion(
            {s: exact_pauli_probabilities(rho_out, s) for s in BASIS_SETTINGS}
        )
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

    def test_batch_seeds_derived_from_run_seed(self):
        report = run_experiment(shots=1280, batches=4, seed=20)
        assert [d.seed for d in report.batch_details] == [20, 21, 22, 23]

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

        real_extract = tomo.extract
        calls = []

        def counting_extract(*args, **kwargs):
            calls.append(1)
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(tomo, "extract", counting_extract)
        report = tomo.run_experiment(shots=0, batches=5, seed=3, exact=True)
        assert len(calls) == 1
        single = tomo.run_experiment(shots=0, batches=1, seed=3, exact=True)
        assert [d.batch for d in report.batch_details] == [0, 1, 2, 3, 4]
        assert report.fidelity_in.mean == pytest.approx(single.fidelity_in.mean, rel=0, abs=1e-15)
        assert report.fidelity_out.mean == pytest.approx(single.fidelity_out.mean, rel=0, abs=1e-15)
        for name, mb in report.probe_fidelities.items():
            assert mb.mean == pytest.approx(single.probe_fidelities[name].mean, rel=0, abs=1e-15)

    def test_failed_batches_are_marked_not_fatal(self, monkeypatch):
        import aaqpt.tomography as tomo
        from aaqpt.errors import SvdFailureError

        real_extract = tomo.extract
        calls = {"n": 0}

        def flaky_extract(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SvdFailureError("injected failure")
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(tomo, "extract", flaky_extract)
        report = tomo.run_experiment(shots=1280, batches=4, seed=16)
        statuses = [d.status for d in report.batch_details]
        assert statuses.count("ok") == 3
        assert any(s.startswith("failed") for s in statuses)
        # aggregates come from the surviving batches only
        assert np.isfinite(report.fidelity_in.mean)
