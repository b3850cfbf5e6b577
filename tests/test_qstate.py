import functools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from aaqpt.catalog import horodecki, sigma_e
from aaqpt.errors import (
    AaqptError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotUnitTraceError,
    ParameterOutOfRangeError,
)
from aaqpt.qstate import (
    DEFAULT_TOL,
    _hermitian,
    _partial_trace_keep,
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

    def test_empty_rejected(self):
        with pytest.raises(NotSquareError):
            validate_density(np.zeros((0, 0)))

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


def eigvalsh_failure(m, tol):
    """The first density check ``m`` fails, decided with eigvalsh alone:
    the reference the Cholesky-first positivity test must agree with."""
    herm_dev = np.abs(m - m.conj().T).max()
    if herm_dev > tol:
        return NotHermitianError(herm_dev)
    tr = np.trace(m)
    if abs(tr - 1.0) > tol:
        return NotUnitTraceError(tr)
    min_eig = np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
    if min_eig < -tol:
        return NotPositiveError(min_eig)
    return None


def same_failure(got, want):
    if want is None:
        return got is None
    return type(got) is type(want) and vars(got) == vars(want)


def unit_trace_hermitian(d, min_eig, seed):
    """A Hermitian unit-trace matrix with smallest eigenvalue ``min_eig``,
    the rest spread over [0, 1] in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    w = rng.uniform(0.0, 1.0, d)
    w[0] = 0.0
    w *= (1.0 - min_eig) / w.sum()
    w[0] = min_eig
    h = (q * w) @ q.conj().T
    return (h + h.conj().T) / 2


class TestPositivityTest:
    @given(
        d=st.sampled_from([2, 3, 4, 9]),
        log_tol=st.floats(min_value=-9, max_value=-3),
        log_gap=st.floats(min_value=-6, max_value=-2),
        below=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cholesky_verdict_is_the_eigenvalue_verdict(self, d, log_tol, log_gap, below, seed):
        tol = 10.0**log_tol
        gap = 10.0**log_gap
        m = unit_trace_hermitian(d, -tol * (1 + gap if below else 1 - gap), seed)
        assume(abs(np.linalg.eigvalsh(m)[0] + tol) >= 1e-6 * tol)
        want = eigvalsh_failure(m, tol)
        try:
            validate_density(m, tol=tol)
        except AaqptError as exc:
            assert same_failure(exc, want)
        else:
            assert want is None

    def test_min_eigenvalue_is_eigvalsh_bit_for_bit(self):
        for d, seed in ((2, 1), (4, 2), (9, 3), (16, 4)):
            m = unit_trace_hermitian(d, -0.05, seed)
            with pytest.raises(NotPositiveError) as excinfo:
                validate_density(m)
            assert excinfo.value.min_eigenvalue == np.linalg.eigvalsh((m + m.conj().T) / 2)[0]

    def test_mixed_stack_reports_each_first_failure(self):
        rng = np.random.default_rng(5)
        valid = random_density_matrix(4, rng)
        negative = valid - 0.5 * np.diag([1.0, 0.0, 0.0, 0.0])
        negative /= np.trace(negative)
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1e-3
        stack = np.array(
            [
                valid,
                valid + skew,  # not Hermitian
                negative + skew,  # not Hermitian, not positive
                2 * valid,  # trace two
                2 * negative,  # trace two, not positive
                negative,  # not positive
            ]
        )
        failures = []
        for m in stack:
            try:
                validate_density(m)
            except AaqptError as exc:
                failures.append(exc)
            else:
                failures.append(None)
        kinds = [type(f).__name__ if f is not None else None for f in failures]
        assert kinds == [
            None,
            "NotHermitianError",
            "NotHermitianError",
            "NotUnitTraceError",
            "NotUnitTraceError",
            "NotPositiveError",
        ]
        for got, m in zip(failures, stack):
            assert same_failure(got, eigvalsh_failure(m, DEFAULT_TOL))

    @pytest.mark.parametrize(
        "m",
        [np.diag([1.0, 0.0]), sigma_e(0.5).matrix, horodecki(0.5).matrix],
        ids=["ket0", "sigmaE", "horodecki"],
    )
    def test_zero_tolerance_decides_as_eigenvalues_do(self, m):
        # a singular state has no Cholesky factor at tol = 0, so its
        # eigenvalues, round-off and all, decide
        want = eigvalsh_failure(m, 0.0)
        try:
            validate_density(m, tol=0.0)
        except AaqptError as exc:
            assert same_failure(exc, want)
        else:
            assert want is None

    def test_valid_large_state_runs_no_eigensolver(self, monkeypatch):
        m = random_density_matrix(144, np.random.default_rng(3))

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called on a valid state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert validate_density(m).dim == 144


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
class TestToleranceRange:
    def test_validate_density_rejects(self, tol):
        with pytest.raises(ParameterOutOfRangeError, match="tol must be a finite number >= 0"):
            validate_density(np.diag([1.5, -0.5]), tol=tol)
        with pytest.raises(ParameterOutOfRangeError):
            validate_density(np.eye(2) / 2, tol=tol)

    def test_bipartite_rejects(self, tol):
        with pytest.raises(ParameterOutOfRangeError):
            bipartite(BELL, 2, 2, tol=tol)

    def test_partial_trace_rejects(self, tol):
        with pytest.raises(ParameterOutOfRangeError):
            partial_trace(bipartite(BELL, 2, 2), "B", tol=tol)


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

    @pytest.mark.parametrize("dim_a", range(1, 5))
    @pytest.mark.parametrize("dim_b", range(1, 5))
    def test_every_factor_size_matches_loop_oracle(self, dim_a, dim_b):
        rng = np.random.default_rng(10 * dim_a + dim_b)
        d = dim_a * dim_b
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for subsystem in ("A", "B"):
            assert np.allclose(
                partial_trace_matrix(m, dim_a, dim_b, subsystem),
                oracle_partial_trace(m, dim_a, dim_b, subsystem),
                atol=1e-13,
            )

    @pytest.mark.parametrize(
        "dims, keep", [((2, 3, 2), (0, 2)), ((3, 1, 2), (1,)), ((2, 2, 2, 2), (1, 3)),
                       ((2, 3), (0, 1)), ((2, 2), ())],
    )
    def test_any_factors_of_a_product(self, dims, keep):
        # Tr over the other factors of a product of unnormalized factors:
        # the product of the kept factors times the other factors' traces
        rng = np.random.default_rng(sum(dims))
        factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
        kept = functools.reduce(np.kron, [factors[i] for i in keep], np.eye(1))
        scale = np.prod([np.trace(f) for i, f in enumerate(factors) if i not in keep])
        got = _partial_trace_keep(functools.reduce(np.kron, factors), dims, keep)
        assert np.allclose(got, scale * kept, atol=1e-12)


@pytest.mark.parametrize("partial", [partial_trace_matrix, partial_transpose_matrix])
def test_unknown_subsystem_rejected(partial):
    with pytest.raises(ParameterOutOfRangeError, match="subsystem must be 'A' or 'B'"):
        partial(np.eye(4) / 4, 2, 2, "C")


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

    def test_eigenvalue_just_above_round_off_counts(self):
        # the round-off floor is dim * eps: an eigenvalue of twice that is
        # data, and its root sets the fidelity with the state it overlaps
        small = 2 * 2 * np.finfo(float).eps
        rho = validate_density(np.diag([1 - small, small]))
        sigma = validate_density(np.diag([0.0, 1.0]))
        assert fidelity(rho, sigma) == pytest.approx(np.sqrt(small), rel=1e-12)
        assert fidelity(sigma, rho) == pytest.approx(np.sqrt(small), rel=1e-12)

    def test_dimension_mismatch(self):
        rho = validate_density(np.eye(2) / 2)
        sigma = validate_density(np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            fidelity(rho, sigma)

    def test_reads_both_triangles(self):
        # the square root of rho is that of its Hermitian part, so an upper
        # triangle perturbed within tol counts, where an eigensolver reading
        # one triangle would ignore it
        rng = np.random.default_rng(16)
        for d in (2, 3, 4):
            m = random_density_matrix(d, rng)
            m[np.triu_indices(d, 1)] += 1e-10 * (1 + 1j)
            rho = validate_density(m)
            sigma = validate_density(random_density_matrix(d, rng))
            hermitian = validate_density(_hermitian(rho.matrix)[0])
            assert fidelity(rho, sigma) == fidelity(hermitian, sigma)


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((0, 0))])
    def test_non_square_or_empty_rejected(self, bad):
        with pytest.raises(NotSquareError):
            trace_distance(bad, bad)


class TestBipartite:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            bipartite(np.eye(4) / 4, 2, 3)

    @pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (4, 0)])
    def test_dimensions_below_one_rejected(self, dims):
        # (-2) * (-2) matches a 4 x 4 matrix, so the product check alone
        # would let it through
        with pytest.raises(DimensionMismatchError):
            bipartite(np.eye(4) / 4, *dims)

    @pytest.mark.parametrize("dims", [(2.0, 2.0), (True, 4), (4, True), (2, "2"), (None, 4)])
    def test_dimensions_must_be_integers(self, dims):
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            bipartite(np.eye(4) / 4, *dims)

    def test_numpy_integer_dimensions_accepted(self):
        s = bipartite(np.eye(4) / 4, np.int64(2), np.uint8(2))
        assert (s.dim_a, s.dim_b) == (2, 2)
        assert type(s.dim_a) is int and type(s.dim_b) is int

    def test_matrix_accessor(self):
        s = bipartite(BELL, 2, 2)
        assert np.array_equal(s.matrix, BELL)
