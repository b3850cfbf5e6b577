import contextlib
from unittest import mock

import numpy as np
import pytest

from aaqpt import extraction, realignment, tomography
from aaqpt.catalog import PAULI_X, horodecki, max_entangled, probe_states, sigma_e
from aaqpt.channel import apply, apply_extended, make_channel, propagate, superoperator
from aaqpt.errors import DimensionMismatchError, NotFaithfulError, ParameterOutOfRangeError
from aaqpt.extraction import (
    _right_solve,
    _solve,
    demonstrate_unfaithfulness,
    extract,
    kernel_witness_pair,
    reachable_report,
)
from aaqpt.qstate import _eigh, bipartite, tensor, trace_distance
from aaqpt.realignment import (
    _correlation,
    _correlations,
    _natural,
    _reshuffle,
    ccnr_sum,
    is_faithful,
    operator_schmidt,
    realign,
    singular_spectrum,
)
from aaqpt.sampling import random_bipartite, random_channel, random_unitary
from aaqpt.tomography import run_experiment

I2 = np.eye(2, dtype=complex)


def bitflip_channel():
    return make_channel([I2 / np.sqrt(2), PAULI_X / np.sqrt(2)])


def faithful_random_state(d, rng):
    # Ginibre states are full realignment rank almost surely; guard anyway.
    while True:
        s = random_bipartite(d, d, rng)
        if np.linalg.svd(realign(s), compute_uv=False).min() > 1e-6:
            return s


class TestExtract:
    def test_bitflip_reproduces_reference_map(self):
        bell = max_entangled(2)
        out = apply_extended(bitflip_channel(), bell)
        result = extract(bell, out, mode="strict")
        expected = (tensor(I2, I2) + tensor(PAULI_X, PAULI_X)) / 2
        assert np.abs(result.m.matrix - expected).max() < 1e-10
        assert result.truncated_count == 0
        assert result.residual < 1e-12

    def test_pseudo_truncated_count_at_larger_system(self):
        # at dA > dB the realignment has dB^2 < dA^2 singular values: those
        # the pseudo-inverse drops, not the missing rank dA^2 - rank
        rng = np.random.default_rng(79)
        product = bipartite(np.kron(random_bipartite(3, 1, rng).matrix,
                                    random_bipartite(2, 1, rng).matrix), 3, 2)
        for s, dropped in ((random_bipartite(3, 2, rng), 0), (product, 3)):
            result = extract(s, s, mode="pseudo")
            assert result.input_spectrum.values.size == 4
            assert result.truncated_count == dropped

    def test_strict_rejects_rank_deficient_input(self):
        s = sigma_e(0.5)
        with pytest.raises(NotFaithfulError) as excinfo:
            extract(s, s, mode="strict")
        assert excinfo.value.kernel_dimension == 2

    def test_round_trip_random(self):
        rng = np.random.default_rng(71)
        for d in (2, 3):
            for _ in range(5):
                s = faithful_random_state(d, rng)
                ch = random_channel(d, 2, rng)
                out = apply_extended(ch, s)
                result = extract(s, out, mode="strict")
                assert np.abs(result.m.matrix - superoperator(ch).matrix).max() < 1e-9
                assert result.residual < 1e-10
                for probe in probe_states(d):
                    predicted = propagate(result.m, probe.matrix)
                    direct = apply(ch, probe).matrix
                    assert trace_distance(predicted, direct) < 1e-9

    def test_pseudo_equals_strict_on_faithful_inputs(self):
        rng = np.random.default_rng(72)
        s = faithful_random_state(3, rng)
        out = apply_extended(random_channel(3, 2, rng), s)
        strict = extract(s, out, mode="strict")
        pseudo = extract(s, out, mode="pseudo")
        assert np.abs(strict.m.matrix - pseudo.m.matrix).max() < 1e-9
        assert pseudo.truncated_count == 0

    def test_pseudo_on_unfaithful_input(self):
        rng = np.random.default_rng(73)
        s = sigma_e(0.5)
        ch = random_channel(3, 2, rng)
        out = apply_extended(ch, s)
        result = extract(s, out, mode="pseudo")
        assert result.truncated_count == 2
        assert result.residual < 1e-10
        # predictions are exact on probe operators inside the probed
        # subspace: the span of the nonzero-singular-value directions of
        # realign(s), here everything built on |0>, plus |1><1| and |2><2|
        v01 = np.zeros(3, dtype=complex)
        v01[0] = v01[1] = 1 / np.sqrt(2)
        probed = [
            np.diag([1.0, 0.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0, 0.0]).astype(complex),
            np.outer(v01, v01.conj()),
        ]
        for sigma in probed:
            predicted = propagate(result.m, sigma)
            direct = sum(k @ sigma @ k.conj().T for k in ch.kraus)
            assert np.abs(predicted - direct).max() < 1e-10

    def test_residual_is_the_largest_entry_of_the_misfit(self):
        # an output no channel reaches from sigma_e(1/2): the residual is
        # max |realign(out) - M @ realign(in)|, computed here apart from
        # the solve
        state = sigma_e(0.5)
        out = random_bipartite(3, 3, np.random.default_rng(75))
        result = extract(state, out, mode="pseudo")
        misfit = realign(out) - result.m.matrix @ realign(state)
        assert np.abs(misfit).max() > 1e-3
        assert abs(result.residual - np.abs(misfit).max()) <= 1e-12

    def test_extraction_commutes_with_ancilla_rotation(self):
        rng = np.random.default_rng(74)
        d = 3
        s = faithful_random_state(d, rng)
        ch = random_channel(d, 2, rng)
        out = apply_extended(ch, s)
        u = tensor(np.eye(d), random_unitary(d, rng))
        s_rot = bipartite(u @ s.matrix @ u.conj().T, d, d)
        out_rot = bipartite(u @ out.matrix @ u.conj().T, d, d)
        m_plain = extract(s, out, mode="strict").m.matrix
        m_rot = extract(s_rot, out_rot, mode="strict").m.matrix
        assert np.abs(m_plain - m_rot).max() < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(75)
        with pytest.raises(DimensionMismatchError):
            extract(random_bipartite(2, 2, rng), random_bipartite(3, 3, rng))

    def test_unequal_factors_with_full_row_rank(self):
        # a generic 2x3 state has realignment rank 4 = dim_a^2, which is
        # enough for an exact unique solve even though the matrix is 4x9
        rng = np.random.default_rng(78)
        s = random_bipartite(2, 3, rng)
        ch = random_channel(2, 2, rng)
        out = apply_extended(ch, s)
        result = extract(s, out, mode="strict")
        assert result.m.matrix.shape == (4, 4)
        assert result.residual < 1e-10
        assert np.abs(result.m.matrix - superoperator(ch).matrix).max() < 1e-9

    def test_unequal_factors_rank_deficient(self):
        # a pure product 2x3 state probes only one operator direction
        rng = np.random.default_rng(79)
        from aaqpt.sampling import random_product_state

        s = random_product_state(2, 3, rng)
        ch = random_channel(2, 2, rng)
        out = apply_extended(ch, s)
        with pytest.raises(NotFaithfulError):
            extract(s, out, mode="strict")
        result = extract(s, out, mode="pseudo")
        assert result.residual < 1e-10

    def test_invalid_mode(self):
        rng = np.random.default_rng(76)
        s = random_bipartite(2, 2, rng)
        with pytest.raises(ParameterOutOfRangeError, match="mode must be"):
            extract(s, s, mode="sloppy")

    def test_choi_eigenvalue_diagnostics(self):
        bell = max_entangled(2)
        out = apply_extended(bitflip_channel(), bell)
        result = extract(bell, out, mode="strict")
        # the reference map is completely positive: Choi eigenvalues {0,0,1,1}
        assert np.allclose(np.sort(result.choi_eigenvalues), [0, 0, 1, 1], atol=1e-10)

    def test_choi_spectrum_is_computed_on_first_read(self):
        rng = np.random.default_rng(86)
        s = faithful_random_state(3, rng)
        out = apply_extended(random_channel(3, 2, rng), s)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            result = extract(s, out)
            assert eigvalsh.call_count == 0
            values = result.choi_eigenvalues
            assert eigvalsh.call_count == 1
            assert result.choi_eigenvalues is values
            assert eigvalsh.call_count == 1
        assert not values.flags.writeable

    @pytest.mark.parametrize("branch", ["stacked-lu", "zero-pivot", "reduced-svd"])
    def test_choi_spectrum_is_that_of_the_extracted_map(self, branch):
        # each branch of _right_solve, told apart by its LU and SVD calls:
        # the spectrum read later is the one extract used to compute
        rng = np.random.default_rng(87)
        s, mode, threshold, lu, svd = {
            "stacked-lu": (faithful_random_state(3, rng), "strict", None, 1, 0),
            "zero-pivot": (horodecki(0.4), "strict", 0.0, 1, 1),
            "reduced-svd": (random_bipartite(3, 2, rng), "pseudo", None, 0, 1),
        }[branch]
        out = apply_extended(random_channel(3, 2, rng), s)
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
                mock.patch.object(extraction, "_svd", wraps=extraction._svd) as reduced:
            result = extract(s, out, mode, threshold)
        assert (solve.call_count, reduced.call_count) == (lu, svd)
        fresh = _eigh(_reshuffle(result.m.matrix, 3, 3), vectors=False)
        assert result.choi_eigenvalues.tobytes() == fresh.tobytes()


    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("mode", ["strict", "pseudo"])
    def test_threshold_must_be_finite_and_nonnegative(self, mode, threshold):
        # a negative threshold used to pass sigma_E(0.5) as full rank in
        # strict mode and invert its zero singular values
        s = sigma_e(0.5)
        with pytest.raises(ParameterOutOfRangeError):
            extract(s, s, mode=mode, threshold=threshold)
        with pytest.raises(ParameterOutOfRangeError):
            reachable_report(s, threshold=threshold)


class TestReachableReport:
    def test_bell_state_full_rank(self):
        rep = reachable_report(max_entangled(2))
        assert rep.kernel_dimension == 0
        assert rep.kernel_basis == ()

    def test_two_projector_mixture_kernel(self):
        for p in (0.25, 0.5, 0.75):
            rep = reachable_report(sigma_e(p))
            assert rep.kernel_dimension == 2

    def test_bound_entangled_kernel(self):
        rep = reachable_report(horodecki(0.5))
        assert rep.kernel_dimension == 1

    def test_kernel_basis_orthonormal_and_unprobed(self):
        s = sigma_e(0.5)
        rep = reachable_report(s)
        r = realign(s)
        for i, b1 in enumerate(rep.kernel_basis):
            for j, b2 in enumerate(rep.kernel_basis):
                inner = np.trace(b1.conj().T @ b2)
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12
            # kernel directions annihilate the realigned data from the left:
            # channels differing only there produce identical outputs
            assert np.abs(b1.reshape(-1).conj() @ r).max() < 1e-12


class TestDemonstrateUnfaithfulness:
    def test_identical_channels(self):
        ch = make_channel([np.eye(3)])
        rep = demonstrate_unfaithfulness(sigma_e(0.5), ch, ch)
        assert rep.output_gap == pytest.approx(0.0, abs=1e-15)
        assert rep.channel_gap == pytest.approx(0.0, abs=1e-15)
        assert not rep.witnessed

    def test_witness_pair_on_two_projector_mixture(self):
        s = sigma_e(0.5)
        ch_a, ch_b = kernel_witness_pair(s)
        rep = demonstrate_unfaithfulness(s, ch_a, ch_b)
        assert rep.output_gap < 1e-9
        assert rep.channel_gap > 0.01
        assert rep.witnessed

    def test_an_output_gap_above_round_off_is_no_witness(self):
        # a weight of coherence between A's levels 1 and 2, the directions
        # sigma_e(0.5) cannot see, lets its witness pair's outputs differ far
        # above round-off (eps / 100 here) and far below the channel gap
        ch_a, ch_b = kernel_witness_pair(sigma_e(0.5))
        plus = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        coherent = np.kron(np.outer(plus, plus), np.eye(3) / 3)
        eps = 3e-6
        s = bipartite((1 - eps) * sigma_e(0.5).matrix + eps * coherent, 3, 3)
        rep = demonstrate_unfaithfulness(s, ch_a, ch_b)
        assert 1e-9 < rep.output_gap < 1e-6 and rep.channel_gap > 0.01
        assert not rep.witnessed

    def test_a_channel_gap_between_the_bounds_is_no_witness(self):
        # strength 0.015 opens a channel gap of 0.005 on sigma_e(0.5): the
        # channels differ, but by less than the 1e-2 a witness needs
        s = sigma_e(0.5)
        rep = demonstrate_unfaithfulness(s, *kernel_witness_pair(s, strength=0.015))
        assert rep.output_gap < 1e-9
        assert rep.channel_gap == pytest.approx(0.005, rel=1e-12)
        assert not rep.witnessed

    def test_faithful_state_separates_distinct_channels(self):
        rng = np.random.default_rng(77)
        bell = max_entangled(2)
        ch_a = make_channel([I2])
        ch_b = bitflip_channel()
        rep = demonstrate_unfaithfulness(bell, ch_a, ch_b)
        assert rep.output_gap > 0.01
        assert not rep.witnessed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            demonstrate_unfaithfulness(sigma_e(0.5), make_channel([I2]), make_channel([I2]))


class TestKernelWitnessPair:
    def test_channels_are_genuinely_different(self):
        s = sigma_e(0.5)
        ch_a, ch_b = kernel_witness_pair(s)
        m_a = superoperator(ch_a).matrix
        m_b = superoperator(ch_b).matrix
        assert np.abs(m_a - m_b).max() > 0.01

    def test_difference_is_kernel_supported(self):
        s = sigma_e(0.5)
        ch_a, ch_b = kernel_witness_pair(s)
        delta = superoperator(ch_a).matrix - superoperator(ch_b).matrix
        assert np.abs(delta @ realign(s)).max() < 1e-12

    def test_rejects_faithful_input(self):
        with pytest.raises(ParameterOutOfRangeError, match="faithful"):
            kernel_witness_pair(max_entangled(2))

    def test_rejects_bad_strength(self):
        with pytest.raises(ParameterOutOfRangeError, match="strength"):
            kernel_witness_pair(sigma_e(0.5), mixing=0.2, strength=0.5)

    @pytest.mark.parametrize("mixing", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("state, divisor", [
        pytest.param(sigma_e(0.5), 3, id="sigma_e"), pytest.param(horodecki(0.5), 2, id="horodecki")
    ])
    def test_default_strength_sets_the_channel_gap(self, state, divisor, mixing):
        # the default strength is 0.9 mixing / d, and the pair's channel gap
        # is that strength over 3 on sigma_e(0.5), over 2 on horodecki(0.5)
        rep = demonstrate_unfaithfulness(state, *kernel_witness_pair(state, mixing=mixing))
        assert rep.channel_gap == pytest.approx(0.9 * mixing / 3 / divisor, rel=1e-12)
        assert rep.witnessed

    @pytest.mark.parametrize("mixing", [0.2, 0.6, 0.9])
    def test_strength_is_bounded_by_mixing_over_d(self, mixing):
        s = sigma_e(0.5)
        rep = demonstrate_unfaithfulness(s, *kernel_witness_pair(s, mixing, mixing / 3))
        assert rep.witnessed
        with pytest.raises(ParameterOutOfRangeError, match="strength"):
            kernel_witness_pair(s, mixing=mixing, strength=1.01 * mixing / 3)

    def test_works_on_bound_entangled_family(self):
        s = horodecki(0.5)
        ch_a, ch_b = kernel_witness_pair(s)
        rep = demonstrate_unfaithfulness(s, ch_a, ch_b)
        assert rep.output_gap < 1e-9
        assert rep.channel_gap > 0.0


class TestSpectralCore:
    @pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
    def test_kernel_basis_on_unequal_dimensions(self, dims):
        d_a, d_b = dims
        s = random_bipartite(d_a, d_b, 81)
        r = realign(s)
        report = reachable_report(s)
        assert report.kernel_dimension == d_a**2 - report.spectrum.rank
        vecs = np.array([b.reshape(-1) for b in report.kernel_basis]).reshape(-1, d_a**2)
        assert np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max(initial=0.0) < 1e-12
        assert np.abs(vecs.conj() @ r).max(initial=0.0) < 1e-12

    def test_realignment_decomposed_once_per_state(self):
        s = faithful_random_state(3, np.random.default_rng(83))
        with mock.patch.object(realignment, "_svd", wraps=realignment._svd) as svd:
            verdict = is_faithful(s)
            total = ccnr_sum(s)
            result = extract(s, apply_extended(random_channel(3, 2, 84), s))
        assert svd.call_count == 1
        assert result.input_spectrum.values is verdict.spectrum.values
        assert total == verdict.spectrum.sum

    def test_correlation_matrix_built_once_per_state(self):
        # every reader of a fresh pair's correlation matrices shares the two
        # that the states store, in whichever module imports the builder
        rng = np.random.default_rng(87)
        s = faithful_random_state(3, rng)
        out = apply_extended(random_channel(3, 2, rng), s)
        holders = [m for m in (realignment, extraction, tomography) if hasattr(m, "_correlations")]
        with contextlib.ExitStack() as stack:
            builds = [stack.enter_context(mock.patch.object(m, "_correlations", wraps=m._correlations))
                      for m in holders]
            is_faithful(s)
            extract(s, out)
            reachable_report(s)
            operator_schmidt(s)
        assert sum(build.call_count for build in builds) == 2

    def test_spectrum_and_solve_run_in_real_arithmetic(self):
        rng = np.random.default_rng(86)
        for s, mode in ((faithful_random_state(3, rng), "strict"), (sigma_e(0.3), "pseudo")):
            out = apply_extended(random_channel(3, 2, rng), s)
            with mock.patch.object(realignment, "_svd", wraps=realignment._svd) as values, \
                    mock.patch.object(extraction, "_svd", wraps=extraction._svd) as reduced, \
                    mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
                result = extract(s, out, mode=mode)
            kernels = values.call_args_list + reduced.call_args_list + solve.call_args_list
            assert len(kernels) == 2
            assert all(call.args[0].dtype == np.float64 for call in kernels)
            assert result.m.matrix.dtype == complex
        # the experiment solves through the same real pipeline, stacked,
        # from one correlation stack of its input and output registers
        for shots, batches, seed in ((10240, 10, 7), (8, 8, 5)):
            with mock.patch.object(extraction, "_svd", wraps=extraction._svd) as values, \
                    mock.patch.object(realignment, "_svd", wraps=realignment._svd) as direct, \
                    mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
                    mock.patch.object(tomography, "_correlations",
                                      wraps=tomography._correlations) as correlations:
                run_experiment(shots, batches, seed)
            assert values.call_count == 1 and solve.call_count == 1 and direct.call_count == 0
            [call] = correlations.call_args_list
            assert call.args[0].shape == (2, batches, 4, 4)
            for call in values.call_args_list + solve.call_args_list:
                assert call.args[0].dtype == np.float64 and call.args[0].shape[0] == batches
        # the operator Schmidt decomposition and an unfaithful state's kernel
        # basis come from one full real SVD, after the values-only one of a
        # fresh state; a faithful state's empty basis takes no full SVD
        for make in (operator_schmidt, reachable_report):
            states = (faithful_random_state(3, rng), sigma_e(0.3), random_bipartite(3, 2, rng))
            for s, full in zip(states, (make is operator_schmidt, True, True)):
                with mock.patch.object(realignment, "_svd", wraps=realignment._svd) as svd, \
                        mock.patch.object(extraction, "_svd", wraps=extraction._svd) as reduced:
                    make(s)
                assert reduced.call_count == 0 and svd.call_count == 1 + full
                assert all(call.args[0].dtype == np.float64 for call in svd.call_args_list)
                assert svd.call_args_list[0].kwargs == {"compute_uv": False}

    def test_zero_threshold_keeps_round_off_singular_value(self):
        # horodecki's zero singular value comes out of the SVD as ~1e-17, so
        # threshold 0 counts full rank while the realignment is exactly
        # singular and LU meets a zero pivot
        h = horodecki(0.4)
        result = extract(h, h, mode="strict", threshold=0.0)
        assert result.truncated_count == 0
        assert result.residual < 1e-10

    def test_zero_pivot_pair_runs_lu_once(self):
        h = horodecki(0.4)
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            extract(h, h, mode="strict", threshold=0.0)
        assert solve.call_count == 1

    @pytest.mark.parametrize("with_deficient", [False, True])
    def test_mixed_stack_solves_each_pair_as_alone(self, with_deficient):
        # a full-rank pair, a zero-pivot pair (horodecki kept at full rank by
        # threshold 0) and, optionally, a rank-deficient pair: the stacked
        # LU fails or is skipped, and every pair of real correlation
        # matrices must come out as it does when it is solved on its own,
        # and as extract solves it
        rng = np.random.default_rng(85)
        states = [faithful_random_state(3, rng), horodecki(0.4)]
        thresholds = [None, 0.0]
        if with_deficient:
            states.append(sigma_e(0.5))  # rank 7 of 9
            thresholds.append(None)
        outputs = [apply_extended(random_channel(3, 2, rng), s) for s in states]
        results = [extract(s, o, mode="pseudo", threshold=t)
                   for s, o, t in zip(states, outputs, thresholds)]
        c_in = _correlations(np.array([realign(s) for s in states]), 3, 3)
        c_out = _correlations(np.array([realign(o) for o in outputs]), 3, 3)
        ranks = np.array([r.input_spectrum.rank for r in results])
        assert ranks.tolist() == [9, 9, 7][: len(states)]
        stacked = _right_solve(c_in, c_out, ranks)
        assert stacked.dtype == np.float64
        for b, result in enumerate(results):
            alone = _right_solve(c_in[b : b + 1], c_out[b : b + 1], ranks[b : b + 1])
            assert np.array_equal(stacked[b], alone[0])
            assert np.array_equal(_natural(stacked[b], 3, 3), result.m.matrix)

    def test_mixed_rank_stack_solves_each_pair_at_its_own_rank(self):
        # two faithful pairs, the second truncated to rank 8 by an explicit
        # rank: no exact zero pivot sends the stack to the per-pair path, so
        # only the rank test keeps the stacked LU off the truncated pair
        ch = random_channel(3, seed=7)
        states = [random_bipartite(3, 3, seed=seed) for seed in (6, 8)]
        pairs = [(_correlation(s), _correlation(apply_extended(ch, s))) for s in states]
        c_in, c_out = (np.array(c) for c in zip(*pairs))
        ranks = np.array([9, 8])
        stacked, _ = _solve(c_in, c_out, ranks)
        for b, (pair_in, pair_out) in enumerate(pairs):
            (alone,), _ = _solve(pair_in[None], pair_out[None], ranks[b : b + 1])
            assert np.array_equal(stacked[b], alone)

    @pytest.mark.parametrize("threshold", [None, 1e-3])
    def test_one_rank_decision(self, threshold):
        rng = np.random.default_rng(82)
        states = [sigma_e(0.3), horodecki(0.4)] + [faithful_random_state(d, rng) for d in (2, 3)]
        for s in states:
            # an equal state built separately, asked in the opposite order
            twin = bipartite(np.array(s.matrix), s.dim_a, s.dim_b)
            spectra = [
                is_faithful(s, threshold=threshold).spectrum,
                extract(s, s, mode="pseudo", threshold=threshold).input_spectrum,
                reachable_report(s, threshold=threshold).spectrum,
                reachable_report(twin, threshold=threshold).spectrum,
                extract(twin, twin, mode="pseudo", threshold=threshold).input_spectrum,
            ]
            # one set of singular values per state, so the default threshold
            # scales with the same s_max, bit for bit
            for sp in spectra[1:]:
                assert np.array_equal(sp.values, spectra[0].values)
                assert sp.threshold == spectra[0].threshold
                assert sp.rank == spectra[0].rank
            # the state's values come from a real SVD of the same spectrum,
            # so a bare complex SVD of its realignment agrees to round-off
            bare = singular_spectrum(realign(s), threshold=threshold)
            scale = spectra[0].values[0]
            assert np.abs(bare.values - spectra[0].values).max() <= 1e-14 * scale
            assert bare.rank == spectra[0].rank
