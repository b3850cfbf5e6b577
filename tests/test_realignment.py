import numpy as np
import pytest
from hypothesis import given, strategies as st

from aaqpt.catalog import horodecki, max_entangled, sigma_e
from aaqpt.channel import apply_extended, devectorize, superoperator, vectorize
from aaqpt.errors import ParameterOutOfRangeError, UnequalDimensionsError
from aaqpt.extraction import extract
from aaqpt.qstate import (
    bipartite,
    partial_transpose_matrix,
    tensor,
)
from aaqpt.realignment import (
    ccnr_sum,
    default_threshold,
    is_faithful,
    operator_schmidt,
    ppt_min_eigenvalue,
    realign,
    realign_check,
    realign_check_matrix,
    realign_matrix,
    singular_spectrum,
    swap_operator,
    _ranks,
    _spectrum,
)
from aaqpt.sampling import (
    random_bipartite,
    random_channel,
    random_density,
    random_product_state,
    random_separable,
    random_unitary,
)


def oracle_realign(m, da, db):
    # direct index shuffle, four explicit loops
    out = np.zeros((da * da, db * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * da + j, k * db + l] = m[i * db + k, j * db + l]
    return out


def oracle_realign_check(m, d):
    # literal composition: partial transpose over B, swap multiply,
    # partial transpose over A
    step = partial_transpose_matrix(m, d, d, "B") @ swap_operator(d)
    return partial_transpose_matrix(step, d, d, "A")


class TestRealign:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for da, db in ((2, 2), (2, 3), (3, 3)):
            m = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
            assert np.array_equal(realign_matrix(m, da, db), oracle_realign(m, da, db))

    def test_product_state_is_rank_one_outer(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            a = random_density(3, rng).matrix
            b = random_density(3, rng).matrix
            r = realign_matrix(tensor(a, b), 3, 3)
            outer = np.outer(a.reshape(-1), b.reshape(-1))
            assert np.abs(r - outer).max() < 1e-12
            values = np.linalg.svd(r, compute_uv=False)
            assert np.count_nonzero(values > 1e-10) == 1

    def test_bell_realignment_is_scaled_identity(self):
        bell = max_entangled(2)
        r = realign(bell)
        assert np.array_equal(r, oracle_realign(bell.matrix, 2, 2))
        assert np.allclose(r, np.eye(4) / 2, atol=1e-15)

    def test_two_projector_mixture_is_diagonal(self):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            r = realign(sigma_e(p))
            expected = np.diag(
                [0.5, p / 2, (1 - p) / 2, p / 2, p / 2, 0.0, (1 - p) / 2, 0.0, (1 - p) / 2]
            )
            assert np.abs(r - expected).max() < 1e-15


class TestRealignCheck:
    def test_full_transpose_equals_realign_exactly(self):
        rng = np.random.default_rng(23)
        for d in (2, 3):
            for _ in range(10):
                s = random_bipartite(d, d, rng)
                assert np.array_equal(realign_check(s).T, realign(s))

    def test_matches_swap_composition_oracle(self):
        rng = np.random.default_rng(24)
        for d in (2, 3):
            m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            assert np.allclose(realign_check_matrix(m, d), oracle_realign_check(m, d), atol=1e-14)

    def test_bell_value(self):
        assert np.allclose(realign_check(max_entangled(2)), np.eye(4) / 2, atol=1e-15)

    def test_singular_values_match_realign(self):
        rng = np.random.default_rng(25)
        for d in (2, 3):
            for _ in range(20):
                s = random_bipartite(d, d, rng)
                sv_r = np.sort(np.linalg.svd(realign(s), compute_uv=False))
                sv_c = np.sort(np.linalg.svd(realign_check(s), compute_uv=False))
                assert np.abs(sv_r - sv_c).max() < 1e-10

    def test_unequal_dimensions_rejected(self):
        rng = np.random.default_rng(26)
        with pytest.raises(UnequalDimensionsError):
            realign_check(random_bipartite(2, 3, rng))


class TestSwapOperator:
    def test_d1(self):
        assert np.array_equal(swap_operator(1), np.array([[1.0]]))

    def test_d2_rows(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(swap_operator(2), expected)

    def test_involution(self):
        for d in (2, 3, 4):
            e = swap_operator(d)
            assert np.array_equal(e @ e, np.eye(d * d))

    def test_swaps_product_vectors(self):
        rng = np.random.default_rng(27)
        for d in (2, 3):
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            b = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert np.allclose(
                swap_operator(d) @ np.kron(a, b), np.kron(b, a), atol=1e-14
            )


class TestSingularSpectrum:
    def test_identity(self):
        sp = singular_spectrum(np.eye(4))
        assert np.allclose(sp.values, np.ones(4))
        assert sp.rank == 4
        assert sp.sum == pytest.approx(4.0)

    def test_zero_matrix(self):
        sp = singular_spectrum(np.zeros((3, 3)))
        assert sp.rank == 0
        assert np.allclose(sp.values, 0.0)

    def test_two_projector_mixture_multiset(self):
        sp = singular_spectrum(realign(sigma_e(0.5)))
        expected = np.sort([0.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
        assert np.allclose(np.sort(sp.values), expected, atol=1e-15)
        assert sp.rank == 7

    def test_descending_order_and_sum(self):
        rng = np.random.default_rng(28)
        m = rng.normal(size=(5, 5))
        sp = singular_spectrum(m)
        assert np.all(np.diff(sp.values) <= 0)
        assert sp.sum == pytest.approx(float(sp.values.sum()), abs=1e-12)

    def test_explicit_threshold(self):
        sp = singular_spectrum(np.diag([1.0, 1e-6]), threshold=1e-3)
        assert sp.rank == 1
        assert sp.threshold == 1e-3


class TestOperatorSchmidt:
    def test_product_state_single_coefficient(self):
        rng = np.random.default_rng(29)
        a = random_density(2, rng).matrix
        b = random_density(2, rng).matrix
        osd = operator_schmidt(bipartite(tensor(a, b), 2, 2))
        expected = np.linalg.norm(a) * np.linalg.norm(b)
        assert osd.coefficients[0] == pytest.approx(expected, abs=1e-12)
        assert np.count_nonzero(osd.coefficients > 1e-10) == 1

    def test_bell_coefficients_and_reconstruction(self):
        bell = max_entangled(2)
        osd = operator_schmidt(bell)
        assert np.allclose(osd.coefficients, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
        rebuilt = sum(
            c * tensor(ga, gb)
            for c, ga, gb in zip(osd.coefficients, osd.ops_a, osd.ops_b)
        )
        assert np.abs(rebuilt - bell.matrix).max() < 1e-10

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(30)
        s = random_bipartite(3, 3, rng)
        osd = operator_schmidt(s)
        for ops in (osd.ops_a, osd.ops_b):
            gram = np.array(
                [[np.trace(g1 @ g2.conj().T) for g2 in ops] for g1 in ops]
            )
            assert np.abs(gram - np.eye(len(ops))).max() < 1e-10

    def test_reconstruction_random(self):
        rng = np.random.default_rng(31)
        for da, db in ((2, 2), (2, 3), (3, 3)):
            s = random_bipartite(da, db, rng)
            osd = operator_schmidt(s)
            rebuilt = sum(
                c * tensor(ga, gb)
                for c, ga, gb in zip(osd.coefficients, osd.ops_a, osd.ops_b)
            )
            assert np.abs(rebuilt - s.matrix).max() < 1e-10

    def test_two_projector_mixture_has_seven_terms(self):
        osd = operator_schmidt(sigma_e(0.5))
        assert np.count_nonzero(osd.coefficients > 1e-10) == 7


class TestIsFaithful:
    def test_bell_state(self):
        verdict = is_faithful(max_entangled(2))
        assert verdict.faithful
        assert verdict.spectrum.rank == 4
        assert verdict.kernel_dimension == 0
        assert np.allclose(verdict.spectrum.values, 0.5)

    def test_two_projector_mixture_never_faithful(self):
        for p in np.linspace(0.0, 1.0, 6):
            verdict = is_faithful(sigma_e(float(p)))
            assert not verdict.faithful
            assert verdict.kernel_dimension >= 2

    def test_bound_entangled_kernel_one(self):
        for a in (0.2, 0.5, 0.8):
            verdict = is_faithful(horodecki(a))
            assert not verdict.faithful
            assert verdict.kernel_dimension == 1

    def test_unequal_dimensions_flagged(self):
        # one rule for every shape: faithful iff rank == dA^2.  An ancilla
        # larger than the system can reach it, and strict extract then
        # recovers the channel through the right inverse of realign(s)
        rng = np.random.default_rng(32)
        wide = random_bipartite(2, 3, rng)
        verdict = is_faithful(wide)
        assert verdict.faithful
        assert verdict.kernel_dimension == 0
        assert not verdict.dims_equal
        ch = random_channel(2, 2, rng)
        result = extract(wide, apply_extended(ch, wide), mode="strict")
        assert np.abs(result.m.matrix - superoperator(ch).matrix).max() < 1e-9
        # a smaller ancilla never is: the rank is at most dB^2 = 4 < 9
        narrow = random_bipartite(3, 2, rng)
        verdict = is_faithful(narrow)
        assert not verdict.faithful
        assert verdict.kernel_dimension == 9 - verdict.spectrum.rank == 5
        assert not verdict.dims_equal

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(33)
        for d in (2, 3):
            for _ in range(5):
                s = random_bipartite(d, d, rng)
                u = tensor(random_unitary(d, rng), random_unitary(d, rng))
                rotated = bipartite(u @ s.matrix @ u.conj().T, d, d)
                v1, v2 = is_faithful(s), is_faithful(rotated)
                assert v1.faithful == v2.faithful
                assert np.abs(np.sort(v1.spectrum.values) - np.sort(v2.spectrum.values)).max() < 1e-10


class TestCcnrSum:
    def test_pure_product_state_is_one(self):
        rng = np.random.default_rng(34)
        for d in (2, 3):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            w = rng.normal(size=d) + 1j * rng.normal(size=d)
            v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
            state = bipartite(np.outer(np.kron(v, w), np.kron(v, w).conj()), d, d)
            assert ccnr_sum(state) == pytest.approx(1.0, abs=1e-10)

    def test_two_projector_mixture_is_two(self):
        # oracle: 1/2 + 3p/2 + 3(1-p)/2 = 2 for every p
        for p in (0.0, 0.3, 0.5, 1.0):
            assert ccnr_sum(sigma_e(p)) == pytest.approx(2.0, abs=1e-10)

    def test_bell_state_is_two(self):
        assert ccnr_sum(max_entangled(2)) == pytest.approx(2.0, abs=1e-10)

    def test_separable_mixtures_bounded(self):
        rng = np.random.default_rng(35)
        for d in (2, 3):
            for _ in range(25):
                s = random_separable(d, d, terms=int(rng.integers(1, 9)), seed=rng)
                assert ccnr_sum(s) <= 1 + 1e-9

    def test_equals_spectrum_sum(self):
        for s in (sigma_e(0.3), horodecki(0.4), random_bipartite(3, 3, 83)):
            assert ccnr_sum(s) == singular_spectrum(realign(s)).sum


class TestPptMinEigenvalue:
    def test_bell_state(self):
        assert ppt_min_eigenvalue(max_entangled(2)) == pytest.approx(-0.5, abs=1e-12)

    def test_separable_states_ppt(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            s = random_separable(2, 2, terms=4, seed=rng)
            assert ppt_min_eigenvalue(s) >= -1e-10

    def test_bound_entangled_is_ppt(self):
        for a in (0.2, 0.5, 0.8):
            assert ppt_min_eigenvalue(horodecki(a)) >= -1e-10

    def test_product_states_unaffected(self):
        rng = np.random.default_rng(37)
        s = random_product_state(2, 2, rng)
        assert ppt_min_eigenvalue(s) >= -1e-10


class TestFreshRealignment:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (2, 1), (1, 3)])
    def test_public_realignments_are_fresh_and_writable(self, dims):
        da, db = dims
        s = random_bipartite(da, db, np.random.default_rng(da * 10 + db))
        for r in (realign(s), realign_matrix(s.matrix, da, db)):
            assert r.flags.writeable
            assert not np.shares_memory(r, s.matrix)
            np.testing.assert_array_equal(r, oracle_realign(s.matrix, da, db))
            r[...] = 0.0
        assert np.array_equal(realign(s), oracle_realign(s.matrix, da, db))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (2, 1), (1, 3), (1, 1)])
    def test_other_reshapes_are_fresh_and_writable(self, dims):
        # the input rules copy the input once, so each result owns its
        # entries even where the reshape that makes it is a view
        da, db = dims
        m = random_bipartite(da, db, np.random.default_rng(da * 10 + db)).matrix
        results = [
            partial_transpose_matrix(m, da, db, "A"),
            partial_transpose_matrix(m, da, db, "B"),
            vectorize(m),
            devectorize(m.reshape(-1)),
        ]
        if da == db:
            results.append(realign_check_matrix(m, da))
        for r in results:
            assert r.flags.writeable
            assert not np.shares_memory(r, m)
        assert np.array_equal(results[2], m.reshape(-1))
        assert np.array_equal(results[3], m)


@pytest.mark.parametrize("threshold", [-1.0, -1e-300, float("nan"), float("inf")])
def test_threshold_must_be_finite_and_nonnegative(threshold):
    with pytest.raises(ParameterOutOfRangeError, match="threshold must be a finite number >= 0"):
        is_faithful(sigma_e(0.5), threshold=threshold)
    with pytest.raises(ParameterOutOfRangeError):
        singular_spectrum(np.eye(2), threshold=threshold)


def test_zero_threshold_is_valid():
    verdict = is_faithful(max_entangled(3), threshold=0.0)
    assert verdict.spectrum.threshold == 0.0
    assert verdict.faithful


def test_zero_threshold_keeps_exact_zeros_out_of_the_rank():
    # sigma_e(1/2)'s two kernel values come out exactly 0.0: only a value
    # strictly above the cutoff counts
    verdict = is_faithful(sigma_e(0.5), threshold=0)
    assert np.count_nonzero(verdict.spectrum.values == 0.0) == 2
    assert verdict.kernel_dimension == 2 and not verdict.faithful


@pytest.mark.parametrize(
    "state",
    [sigma_e(0.5), bipartite(np.eye(32) / 32, 2, 16)],
    ids=["sigmaE", "floor"],
)
def test_default_threshold_formula(state):
    # the maximally mixed 2 x 16 state has s_max * rows = 4 / sqrt(32) < 1,
    # so the floor applies there
    spectrum = is_faithful(state).spectrum
    rows = state.dim_a**2
    assert spectrum.threshold == max(spectrum.values[0] * rows * 1e-12, 1e-12)


@given(
    batch=st.integers(1, 6),
    rows=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_ranks_are_the_spectrum_ranks(batch, rows, seed):
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-14, 1, size=(batch, rows))
    # one value of each spectrum on its cutoff or one ulp either side of it
    s_max = values.max(axis=-1)
    edge = default_threshold(s_max, rows) * rng.choice([1.0, 1 + 2**-52, 1 - 2**-53], batch)
    values[:, -1] = np.minimum(edge, s_max)
    values = -np.sort(-values, axis=-1)
    ranks, cut = _ranks(values, rows)
    for v, rank, tau in zip(values, ranks, cut):
        spectrum = _spectrum(v.copy(), rows, None)
        assert rank == spectrum.rank
        assert tau == spectrum.threshold == default_threshold(float(v[0]), rows)
