import numpy as np
import pytest

from aaqpt.catalog import PAULI_X, PAULI_Y, PAULI_Z, max_entangled
from aaqpt.channel import (
    Superoperator,
    apply,
    apply_extended,
    apply_via_choi,
    choi_state,
    devectorize,
    kraus_from_choi,
    make_channel,
    make_choi,
    predict_output,
    propagate,
    superop_to_choi,
    superoperator,
    vectorize,
)
from aaqpt.errors import (
    DimensionMismatchError,
    MixedDimensionsError,
    NotHermitianError,
    NotPhysicalError,
    NotPositiveError,
    NotTracePreservingError,
    ParameterOutOfRangeError,
)
from aaqpt.qstate import bipartite, tensor, validate_density
from aaqpt.realignment import realign
from aaqpt.sampling import random_bipartite, random_channel, random_density, random_unitary

I2 = np.eye(2, dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET0 + KET1) / np.sqrt(2)
KET_L = (KET0 + 1j * KET1) / np.sqrt(2)


def bitflip_channel():
    return make_channel([I2 / np.sqrt(2), PAULI_X / np.sqrt(2)])


def oracle_choi(kraus, d):
    # explicit Eq-style construction: sum over the channel images of |a><b|
    c = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            image = sum(k[:, [a]] @ k[:, [b]].conj().T for k in kraus)
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            c += np.kron(image, unit)
    return c


class TestMakeChannel:
    def test_identity_channel(self):
        ch = make_channel([I2])
        assert ch.dim == 2
        assert len(ch.kraus) == 1

    def test_bitflip_channel_valid(self):
        ch = bitflip_channel()
        assert ch.dim == 2
        comp = sum(k.conj().T @ k for k in ch.kraus)
        assert np.abs(comp - I2).max() < 1e-12

    def test_scaled_identity_rejected(self):
        with pytest.raises(NotTracePreservingError) as excinfo:
            make_channel([0.9 * I2])
        assert excinfo.value.deviation == pytest.approx(1 - 0.81, abs=1e-12)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(MixedDimensionsError):
            make_channel([I2 / np.sqrt(2), np.eye(3) / np.sqrt(2)])

    def test_empty_rejected(self):
        with pytest.raises(MixedDimensionsError):
            make_channel([])


class TestApply:
    def test_identity_channel_fixes_everything(self):
        rng = np.random.default_rng(41)
        ch = make_channel([I2])
        rho = random_density(2, rng)
        assert np.abs(apply(ch, rho).matrix - rho.matrix).max() < 1e-15

    def test_bitflip_mixes_zero(self):
        # direct Kraus sums: (|0><0| + |1><1|)/2
        rho = validate_density(np.outer(KET0, KET0))
        out = apply(bitflip_channel(), rho)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_bitflip_fixes_plus(self):
        rho = validate_density(np.outer(KET_PLUS, KET_PLUS.conj()))
        out = apply(bitflip_channel(), rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(bitflip_channel(), validate_density(np.eye(3) / 3))


class TestApplyExtended:
    def test_identity(self):
        rng = np.random.default_rng(42)
        s = random_bipartite(2, 3, rng)
        out = apply_extended(make_channel([I2]), s)
        assert np.abs(out.matrix - s.matrix).max() < 1e-15

    def test_bitflip_on_bell(self):
        bell = max_entangled(2)
        out = apply_extended(bitflip_channel(), bell)
        flip = tensor(PAULI_X, I2)
        expected = 0.5 * bell.matrix + 0.5 * flip @ bell.matrix @ flip
        assert np.abs(out.matrix - expected).max() < 1e-15

    def test_factorizes_on_product_states(self):
        rng = np.random.default_rng(43)
        ch = random_channel(2, 3, rng)
        rho = random_density(2, rng)
        sigma = random_density(3, rng)
        out = apply_extended(ch, bipartite(tensor(rho.matrix, sigma.matrix), 2, 3))
        expected = tensor(apply(ch, rho).matrix, sigma.matrix)
        assert np.abs(out.matrix - expected).max() < 1e-12


class TestChoi:
    def test_identity_choi_is_unnormalized_bell(self):
        choi = choi_state(make_channel([I2]))
        assert np.allclose(choi.matrix, max_entangled(2, normalized=False), atol=1e-14)
        assert np.trace(choi.matrix) == pytest.approx(2.0)
        assert np.allclose(choi.matrix / choi.dim, max_entangled(2).matrix, atol=1e-14)

    def test_bitflip_choi_rank_two(self):
        ch = bitflip_channel()
        choi = choi_state(ch)
        assert np.allclose(choi.matrix, oracle_choi(ch.kraus, 2), atol=1e-14)
        eigs = np.sort(np.linalg.eigvalsh(choi.matrix))
        assert np.allclose(eigs, [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_full_depolarization_choi(self):
        kraus = [p / 2 for p in (I2, PAULI_X, PAULI_Y, PAULI_Z)]
        choi = choi_state(make_channel(kraus))
        assert np.allclose(choi.matrix, np.eye(4) / 2, atol=1e-14)

    def test_invariants(self):
        rng = np.random.default_rng(44)
        for d in (2, 3):
            ch = random_channel(d, 2, rng)
            choi = choi_state(ch)
            assert abs(np.trace(choi.matrix) - d) < 1e-9
            marginal = np.einsum("ikil->kl", choi.matrix.reshape(d, d, d, d))
            assert np.abs(marginal - np.eye(d)).max() < 1e-9

    def test_make_choi_rejects_non_tp(self):
        with pytest.raises(NotTracePreservingError):
            make_choi(np.eye(4))  # trace 4 != 2

    @pytest.mark.parametrize("c, message", [
        # a qubit Choi matrix of twice the trace, and one beyond the float range
        (np.eye(4), r"Choi matrix is not trace preserving: \|tr C - d\| = 2\.000e\+00"),
        (np.diag([1e308] * 4), r"Choi matrix is not trace preserving: \|tr C - d\| = inf"),
        # trace d, but the input marginal is diag(2, 0)
        (np.diag([2.0, 0, 0, 0]),
         r"Choi matrix is not trace preserving: max\|Tr_out C - I\| = 1\.000e\+00"),
    ], ids=["trace", "trace-overflow", "marginal"])
    def test_make_choi_names_the_check_that_failed(self, c, message):
        with pytest.raises(NotTracePreservingError, match=f"^{message}$"):
            make_choi(c)

    def test_make_channel_message_unchanged(self):
        with pytest.raises(NotTracePreservingError) as excinfo:
            make_channel([0.9 * I2])
        assert str(excinfo.value) == (
            "Kraus set is not trace preserving: max|sum K^dag K - I| = 1.900e-01"
        )


class TestApplyViaChoi:
    def test_identity(self):
        choi = choi_state(make_channel([I2]))
        rho = validate_density(np.outer(KET1, KET1))
        out = apply_via_choi(choi, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_bitflip_agrees_with_apply(self):
        ch = bitflip_channel()
        rho = validate_density(np.outer(KET0, KET0))
        via_choi = apply_via_choi(choi_state(ch), rho)
        direct = apply(ch, rho)
        assert np.abs(via_choi.matrix - direct.matrix).max() < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(45)
        for d in (2, 3):
            for _ in range(10):
                ch = random_channel(d, int(rng.integers(1, 4)), rng)
                choi = choi_state(ch)
                rho = random_density(d, rng)
                assert np.abs(
                    apply_via_choi(choi, rho).matrix - apply(ch, rho).matrix
                ).max() < 1e-10


class TestSuperoperator:
    def test_identity(self):
        m = superoperator(make_channel([I2]))
        assert np.allclose(m.matrix, np.eye(4), atol=1e-14)

    def test_bitflip(self):
        m = superoperator(bitflip_channel())
        expected = (tensor(I2, I2) + tensor(PAULI_X, PAULI_X)) / 2
        assert np.abs(m.matrix - expected).max() < 1e-14

    def test_complex_kraus_conjugated_on_second_factor(self):
        # entrywise Kronecker oracle; Y* = -Y
        m = superoperator(make_channel([I2 / np.sqrt(2), PAULI_Y / np.sqrt(2)]))
        expected = (tensor(I2, I2) + tensor(PAULI_Y, PAULI_Y.conj())) / 2
        assert np.abs(m.matrix - expected).max() < 1e-14
        assert np.abs(m.matrix - (tensor(I2, I2) - tensor(PAULI_Y, PAULI_Y)) / 2).max() < 1e-14

    def test_vectorized_action_matches_apply(self):
        rng = np.random.default_rng(46)
        for d in (2, 3):
            ch = random_channel(d, 2, rng)
            m = superoperator(ch)
            for _ in range(5):
                sigma = random_density(d, rng)
                lhs = vectorize(apply(ch, sigma).matrix)
                rhs = m.matrix @ vectorize(sigma.matrix)
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_realignment_intertwines_channel_action(self):
        rng = np.random.default_rng(47)
        for d in (2, 3):
            for _ in range(5):
                ch = random_channel(d, 2, rng)
                s = random_bipartite(d, d, rng)
                lhs = realign(apply_extended(ch, s))
                rhs = superoperator(ch).matrix @ realign(s)
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_kraus_non_uniqueness(self):
        rng = np.random.default_rng(48)
        for d in (2, 3):
            ch = random_channel(d, 3, rng)
            u = random_unitary(3, rng)
            rotated = make_channel(
                [sum(u[n, m] * ch.kraus[m] for m in range(3)) for n in range(3)]
            )
            assert np.abs(
                superoperator(ch).matrix - superoperator(rotated).matrix
            ).max() < 1e-10
            assert np.abs(
                choi_state(ch).matrix - choi_state(rotated).matrix
            ).max() < 1e-10

    def test_trace_defect(self):
        m = superoperator(bitflip_channel())
        assert m.trace_defect() < 1e-12
        bad = Superoperator(dim=2, matrix=np.eye(4) * 1.1)
        assert bad.trace_defect() == pytest.approx(0.1, abs=1e-12)


class TestVectorize:
    def test_identity(self):
        assert np.array_equal(vectorize(I2), np.array([1, 0, 0, 1], dtype=complex))

    def test_zero_one_projector(self):
        # oracle: (sigma (x) I) sum_i |ii> with sigma = |0><1|
        sigma = np.outer(KET0, KET1)
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0
        oracle = tensor(sigma, I2) @ phi
        assert np.array_equal(oracle, np.array([0, 1, 0, 0], dtype=complex))
        assert np.array_equal(vectorize(sigma), oracle)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(49)
        for d in (2, 3, 4):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert np.array_equal(devectorize(vectorize(m)), m)

    def test_devectorize_rejects_non_square_length(self):
        from aaqpt.errors import NotSquareError

        with pytest.raises(NotSquareError):
            devectorize(np.zeros(5))

    def test_recovery_via_partial_trace(self):
        # sigma = Tr_B(|sigma> sum_i <ii|)
        from aaqpt.qstate import partial_trace_matrix

        rng = np.random.default_rng(50)
        d = 3
        sigma = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0
        recovered = partial_trace_matrix(
            np.outer(vectorize(sigma), phi.conj()), d, d, "B"
        )
        assert np.abs(recovered - sigma).max() < 1e-14


class TestPredictOutput:
    def test_identity_map(self):
        rng = np.random.default_rng(51)
        m = superoperator(make_channel([I2]))
        sigma = random_density(2, rng)
        assert np.abs(predict_output(m, sigma).matrix - sigma.matrix).max() < 1e-12

    def test_bitflip_map_on_zero(self):
        m = superoperator(bitflip_channel())
        sigma = validate_density(np.outer(KET0, KET0))
        expected = apply(bitflip_channel(), sigma).matrix
        assert np.abs(predict_output(m, sigma).matrix - expected).max() < 1e-12
        assert np.allclose(expected, np.eye(2) / 2, atol=1e-15)

    def test_bitflip_map_dephases_y_eigenstate(self):
        m = superoperator(bitflip_channel())
        sigma = validate_density(np.outer(KET_L, KET_L.conj()))
        expected = apply(bitflip_channel(), sigma).matrix
        assert np.allclose(expected, np.eye(2) / 2, atol=1e-15)
        assert np.abs(predict_output(m, sigma).matrix - expected).max() < 1e-12

    def test_unphysical_map_rejected(self):
        bad = Superoperator(dim=2, matrix=np.diag([3.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NotPhysicalError):
            predict_output(bad, validate_density(np.eye(2) / 2))

    def test_default_tolerance_rejects_a_negative_eigenvalue_of_1e_6(self):
        # M moves 1e-6 of |0><0| into a negative |1><1| weight: the probe
        # "0" predicts diag(1 + 1e-6, -1e-6), which the default 1e-7 rejects
        v00, v11 = vectorize(np.diag([1.0, 0.0])), vectorize(np.diag([0.0, 1.0]))
        m = Superoperator(dim=2, matrix=np.eye(4) + 1e-6 * np.outer(v00 - v11, v00))
        probe = validate_density(np.outer(KET0, KET0))
        assert np.abs(propagate(m, probe.matrix) - np.diag([1 + 1e-6, -1e-6])).max() < 1e-15
        with pytest.raises(NotPhysicalError, match="min eigenvalue = -1.000e-06"):
            predict_output(m, probe)
        accepted = predict_output(m, probe, tol=1e-5)
        assert np.abs(accepted.matrix - np.diag([1 + 1e-6, -1e-6])).max() < 1e-15

    def test_propagate_matches_apply(self):
        rng = np.random.default_rng(52)
        ch = random_channel(3, 2, rng)
        m = superoperator(ch)
        sigma = random_density(3, rng)
        assert np.abs(propagate(m, sigma.matrix) - apply(ch, sigma).matrix).max() < 1e-10


class TestKrausFromChoi:
    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for d in (2, 3):
            ch = random_channel(d, 2, rng)
            rebuilt = kraus_from_choi(choi_state(ch).matrix)
            assert np.abs(
                superoperator(ch).matrix - superoperator(rebuilt).matrix
            ).max() < 1e-10

    def test_keeps_a_weak_kraus_operator(self):
        # a Kraus weight of 1e-12 of the largest lies above the relative
        # cutoff 1e-14 and is kept, so the channel comes back whole
        weak = 1e-12
        ch = make_channel([np.sqrt(1 - weak) * np.eye(2), np.sqrt(weak) * PAULI_Z])
        rebuilt = kraus_from_choi(choi_state(ch).matrix)
        assert len(rebuilt.kraus) == 2
        assert np.abs(superoperator(rebuilt).matrix - superoperator(ch).matrix).max() < 1e-14


class TestSuperopToChoi:
    def test_reshuffle_matches_choi_state(self):
        rng = np.random.default_rng(54)
        for d in (2, 3):
            ch = random_channel(d, 2, rng)
            assert np.abs(
                superop_to_choi(superoperator(ch)) - choi_state(ch).matrix
            ).max() < 1e-12


class TestChoiPositivity:
    def test_checks_run_in_order(self):
        # Hermitian, then positive, then trace d, then the input marginal:
        # each matrix fails its own check and every later one
        skew = np.zeros((4, 4))
        skew[0, 1] = 1e-3
        cases = [
            (np.diag([3.0, -1.0, 0.0, 1.0]) + skew, NotHermitianError, 1e-3),
            (np.diag([3.0, -1.0, 0.0, 1.0]), NotPositiveError, -1.0),
            (np.diag([4.0, 0.0, 0.0, 0.0]), NotTracePreservingError, 2.0),  # marginal: 3
            (np.diag([2.0, 0.0, 0.0, 0.0]), NotTracePreservingError, 1.0),
        ]
        for c, error, value in cases:
            with pytest.raises(error) as excinfo:
                make_choi(c)
            assert list(vars(excinfo.value).values()) == [value]

    def test_min_eigenvalue_is_eigvalsh_bit_for_bit(self):
        # Hermitian, trace 2 and trace preserving, but not positive
        c = choi_state(bitflip_channel()).matrix + 0.1 * (
            tensor(PAULI_Z, I2) + tensor(PAULI_X, PAULI_Y)
        )
        with pytest.raises(NotPositiveError) as excinfo:
            make_choi(c)
        assert excinfo.value.min_eigenvalue == np.linalg.eigvalsh((c + c.conj().T) / 2)[0]

    def test_zero_tolerance_accepts_exact_choi(self):
        c = oracle_choi([I2], 2)
        assert np.array_equal(make_choi(c, tol=0.0).matrix, c)
        assert len(kraus_from_choi(c, tol=0.0).kraus) == 1
        assert make_channel([I2], tol=0.0).dim == 2


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
class TestToleranceRange:
    def test_make_channel_rejects(self, tol):
        with pytest.raises(ParameterOutOfRangeError, match="tol must be a finite number >= 0"):
            make_channel([3 * I2], tol=tol)
        with pytest.raises(ParameterOutOfRangeError):
            make_channel([I2], tol=tol)

    def test_make_choi_and_kraus_from_choi_reject(self, tol):
        c = oracle_choi([I2], 2)
        with pytest.raises(ParameterOutOfRangeError):
            make_choi(c, tol=tol)
        with pytest.raises(ParameterOutOfRangeError):
            kraus_from_choi(c, tol=tol)

    def test_channel_actions_reject(self, tol):
        ch = bitflip_channel()
        rho = validate_density(np.outer(KET0, KET0.conj()))
        with pytest.raises(ParameterOutOfRangeError):
            apply(ch, rho, tol=tol)
        with pytest.raises(ParameterOutOfRangeError):
            apply_extended(ch, max_entangled(2), tol=tol)
        with pytest.raises(ParameterOutOfRangeError):
            apply_via_choi(choi_state(ch), rho, tol=tol)

    def test_predict_output_rejects_before_checking_the_prediction(self, tol):
        rho = validate_density(np.outer(KET0, KET0.conj()))
        with pytest.raises(ParameterOutOfRangeError) as excinfo:
            predict_output(superoperator(bitflip_channel()), rho, tol=tol)
        assert not isinstance(excinfo.value, NotPhysicalError)
        assert excinfo.value.__cause__ is None
