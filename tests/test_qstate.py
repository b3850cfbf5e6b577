import numpy as np
import pytest

from aaqpt.errors import (
    AaqptError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotUnitTraceError,
)
from aaqpt.qstate import (
    bipartite,
    fidelity,
    partial_trace,
    partial_trace_matrix,
    partial_transpose,
    partial_transpose_matrix,
    purity,
    tensor,
    trace_distance,
    validate_density,
)
from aaqpt.sampling import random_pure

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET0 + KET1) / np.sqrt(2)

BELL = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL[_i, _j] = 0.5


def random_density_matrix(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


# Independent index-level oracles: four explicit loops, no reshapes.

def oracle_partial_trace(m, da, db, subsystem):
    if subsystem == "B":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for k in range(db):
                    out[i, j] += m[i * db + k, j * db + k]
    else:
        out = np.zeros((db, db), dtype=complex)
        for k in range(db):
            for l in range(db):
                for i in range(da):
                    out[k, l] += m[i * db + k, i * db + l]
    return out


def oracle_partial_transpose(m, da, db, subsystem):
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    if subsystem == "B":
                        out[i * db + k, j * db + l] = m[i * db + l, j * db + k]
                    else:
                        out[i * db + k, j * db + l] = m[j * db + k, i * db + l]
    return out


class TestValidateDensity:
    def test_maximally_mixed_qubit_is_valid(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert np.array_equal(rho.matrix, np.eye(2) / 2)

    def test_trace_two_rejected(self):
        with pytest.raises(NotUnitTraceError):
            validate_density(np.diag([1.0, 1.0]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveError) as excinfo:
            validate_density(np.diag([1.5, -0.5]))
        assert excinfo.value.min_eigenvalue == pytest.approx(-0.5)

    def test_non_hermitian_rejected_with_deviation(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(NotHermitianError) as excinfo:
            validate_density(m)
        assert excinfo.value.deviation == pytest.approx(0.1)

    def test_non_square_rejected(self):
        with pytest.raises(NotSquareError):
            validate_density(np.ones((2, 3)) / 6)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.diag([np.nan, 1.0]), id="nan-diagonal"),
            pytest.param(np.full((2, 2), np.nan), id="all-nan"),
            pytest.param(np.diag([np.inf, 0.0]), id="inf"),
        ],
    )
    def test_non_finite_rejected(self, bad):
        with pytest.raises(AaqptError, match="non-finite"):
            validate_density(bad)

    def test_original_entries_preserved(self):
        # a skew part below tolerance passes but must not be symmetrized away
        m = np.eye(2) / 2 + np.array([[0, 1e-12], [0, 0]])
        rho = validate_density(m)
        assert np.array_equal(rho.matrix, m)

    def test_result_is_readonly(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_squared_is_antidiagonal(self):
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, 3 - i] = 1.0
        assert np.array_equal(tensor(X, X), expected)

    def test_projector_product(self):
        p0 = np.outer(KET0, KET0)
        p1 = np.outer(KET1, KET1)
        assert np.array_equal(tensor(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_composite_index_convention(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                for r in range(3):
                    for c in range(3):
                        assert abs(t[i * 3 + r, j * 3 + c] - a[i, j] * b[r, c]) < 1e-14

    def test_associative(self):
        rng = np.random.default_rng(12)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        left = tensor(tensor(mats[0], mats[1]), mats[2])
        right = tensor(mats[0], tensor(mats[1], mats[2]))
        assert np.allclose(left, right, atol=1e-15)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        sigma = 2.5 * random_density_matrix(3, rng)  # unnormalized on purpose
        reduced = partial_trace_matrix(tensor(rho, sigma), 2, 3, "B")
        assert np.allclose(reduced, rho * np.trace(sigma), atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        state = bipartite(BELL, 2, 2)
        assert np.allclose(partial_trace(state, "B").matrix, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(partial_trace(state, "A").matrix, np.eye(2) / 2, atol=1e-12)

    def test_two_qutrit_mixture_marginal(self):
        # independent construction of the two-projector mixture at p = 1/2,
        # summed with the loop oracle; expected marginal frozen from it
        v1 = np.zeros(9, dtype=complex)
        v1[0] = v1[4] = 1.0
        v2 = np.zeros(9, dtype=complex)
        v2[0] = v2[8] = 1.0
        m = 0.25 * np.outer(v1, v1.conj()) + 0.25 * np.outer(v2, v2.conj())
        oracle = oracle_partial_trace(m, 3, 3, "A")
        expected = np.diag([0.5, 0.25, 0.25])
        assert np.allclose(oracle, expected, atol=1e-15)
        state = bipartite(m, 3, 3)
        assert np.allclose(partial_trace(state, "A").matrix, expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for subsystem in ("A", "B"):
            assert np.allclose(
                partial_trace_matrix(m, 2, 3, subsystem),
                oracle_partial_trace(m, 2, 3, subsystem),
                atol=1e-14,
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for subsystem in ("A", "B"):
            out = partial_trace_matrix(m, 2, 3, subsystem)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_matrix(np.eye(6) / 6, 2, 2, "B")


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        pt = partial_transpose_matrix(tensor(rho, sigma), 2, 2, "B")
        assert np.allclose(pt, tensor(rho, sigma.T), atol=1e-14)

    def test_bell_partial_transpose_is_half_swap(self):
        state = bipartite(BELL, 2, 2)
        pt = partial_transpose(state, "B")
        oracle = oracle_partial_transpose(BELL, 2, 2, "B")
        assert np.array_equal(pt, oracle)
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(pt, swap / 2, atol=1e-15)
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for subsystem in ("A", "B"):
            twice = partial_transpose_matrix(
                partial_transpose_matrix(m, 2, 3, subsystem), 2, 3, subsystem
            )
            assert np.array_equal(twice, m)

    def test_hermitian_result(self):
        rng = np.random.default_rng(8)
        m = random_density_matrix(6, rng)
        pt = partial_transpose_matrix(m, 2, 3, "B")
        assert np.abs(pt - pt.conj().T).max() < 1e-14

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for subsystem in ("A", "B"):
            assert np.array_equal(
                partial_transpose_matrix(m, 2, 3, subsystem),
                oracle_partial_transpose(m, 2, 3, subsystem),
            )


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(10)
        rho = validate_density(random_density_matrix(3, rng))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        rho = validate_density(np.outer(KET0, KET0))
        sigma = validate_density(np.outer(KET1, KET1))
        assert fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_zero_against_plus(self):
        rho = validate_density(np.outer(KET0, KET0))
        sigma = validate_density(np.outer(KET_PLUS, KET_PLUS.conj()))
        assert fidelity(rho, sigma) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = validate_density(random_density_matrix(3, rng))
            sigma = validate_density(random_density_matrix(3, rng))
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = validate_density(random_density_matrix(2, rng))
            sigma = validate_density(random_density_matrix(2, rng))
            f = fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0 + 1e-9

    def test_pure_self_fidelity_not_above_one(self):
        for d in (2, 3, 4):
            for seed in range(20):
                v = random_pure(d, seed)
                rho = validate_density(np.outer(v, v.conj()))
                assert fidelity(rho, rho) <= 1 + 1e-12

    def test_dimension_mismatch(self):
        rho = validate_density(np.eye(2) / 2)
        sigma = validate_density(np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            fidelity(rho, sigma)


class TestPurity:
    def test_pure_state(self):
        rho = validate_density(np.outer(KET_PLUS, KET_PLUS.conj()))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(validate_density(np.eye(2) / 2)) == pytest.approx(0.5)

    def test_diagonal_example(self):
        assert purity(validate_density(np.diag([0.75, 0.25]))) == pytest.approx(0.625)

    def test_bounds(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 4):
            rho = validate_density(random_density_matrix(d, rng))
            assert 1 / d - 1e-12 <= purity(rho) <= 1 + 1e-12


class TestTraceDistance:
    def test_identical(self):
        assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)

    def test_orthogonal_pure(self):
        a = np.outer(KET0, KET0)
        b = np.outer(KET1, KET1)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


class TestBipartite:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            bipartite(np.eye(4) / 4, 2, 3)

    def test_matrix_accessor(self):
        s = bipartite(BELL, 2, 2)
        assert np.array_equal(s.matrix, BELL)
