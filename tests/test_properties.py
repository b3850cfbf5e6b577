"""Property tests for extraction, the Kraus action on A, the realignment
spectrum and the real Hermitian basis both run in, the operator Schmidt
decomposition, CCNR soundness, the Hermitian part every eigensolver reads
and the nearest-state projection of tomography, over hypothesis-drawn
dimensions, states, channels and matrices."""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, strategies as st

from aaqpt import extraction
from aaqpt.catalog import horodecki, sigma_e
from aaqpt.channel import apply_extended, superop_to_choi
from aaqpt.extraction import extract, reachable_report
from aaqpt.qstate import DEFAULT_TOL, _dagger, _hermitian, bipartite, validate_density
from aaqpt.realignment import (
    _correlations,
    _natural,
    ccnr_sum,
    is_faithful,
    operator_schmidt,
    realign,
    realign_matrix,
    swap_operator,
)
from aaqpt.sampling import (
    random_bipartite,
    random_channel,
    random_density,
    random_separable,
    random_unitary,
)
from aaqpt.tomography import _INVERSION, _project, exact_pauli_probabilities, linear_inversion

seeds = st.integers(min_value=0, max_value=2**32 - 1)
kraus_counts = st.integers(min_value=1, max_value=4)


def kraus_superop(ch) -> np.ndarray:
    return sum(np.kron(k, k.conj()) for k in ch.kraus)


def extract_counting_svd(state_in, state_out, **kwargs):
    """``extract`` plus the number of SVDs with vectors it ran."""
    with mock.patch.object(extraction, "_svd", wraps=extraction._svd) as svd:
        result = extract(state_in, state_out, **kwargs)
    return result, svd.call_count


@given(d=st.sampled_from([2, 3, 4]), n=kraus_counts, seed=seeds)
def test_square_round_trip_by_lu(d, n, seed):
    rng = np.random.default_rng(seed)
    s = random_bipartite(d, d, rng)
    assume(is_faithful(s).faithful)
    ch = random_channel(d, n, rng)
    result, svd_calls = extract_counting_svd(s, apply_extended(ch, s), mode="strict")
    assert svd_calls == 0
    assert np.abs(result.m.matrix - kraus_superop(ch)).max() < 1e-9
    assert result.truncated_count == 0


@given(n=kraus_counts, seed=seeds)
def test_unequal_round_trip_by_svd_right_inverse(n, seed):
    rng = np.random.default_rng(seed)
    s = random_bipartite(2, 3, rng)
    ch = random_channel(2, n, rng)
    result, svd_calls = extract_counting_svd(s, apply_extended(ch, s), mode="strict")
    assert svd_calls == 1
    assert np.abs(result.m.matrix - kraus_superop(ch)).max() < 1e-9
    assert result.truncated_count == 0


@given(
    state=st.one_of(
        st.floats(min_value=0.05, max_value=0.95).map(sigma_e),
        st.floats(min_value=0.05, max_value=0.95).map(horodecki),
    ),
    n=kraus_counts,
    seed=seeds,
)
def test_pseudo_mode_truncates_the_kernel(state, n, seed):
    ch = random_channel(3, n, seed)
    result, svd_calls = extract_counting_svd(state, apply_extended(ch, state), mode="pseudo")
    kernel = reachable_report(state).kernel_dimension
    assert kernel > 0 and svd_calls == 1
    assert result.truncated_count == kernel
    assert result.residual <= 1e-10


@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), n=kraus_counts, seed=seeds)
def test_apply_extended_matches_kron_products(dims, n, seed):
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    s = random_bipartite(d_a, d_b, rng)
    ch = random_channel(d_a, n, rng)
    eye_b = np.eye(d_b)
    expected = sum(np.kron(k, eye_b) @ s.matrix @ np.kron(k, eye_b).conj().T for k in ch.kraus)
    assert np.abs(apply_extended(ch, s).matrix - expected).max() < 1e-12


@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), seed=seeds)
def test_spectrum_invariant_under_local_unitaries(dims, seed):
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    s = random_bipartite(d_a, d_b, rng)
    u = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
    rotated = bipartite(u @ s.matrix @ u.conj().T, d_a, d_b)
    before = is_faithful(s).spectrum.values
    after = is_faithful(rotated).spectrum.values
    assert np.abs(before - after).max() < 1e-12
    # and the stored values are those of the realignment itself
    assert np.abs(after - np.linalg.svd(realign(rotated), compute_uv=False)).max() < 1e-12


# ------------------------------------------- the real Hermitian basis

dims_123 = st.sampled_from([1, 2, 3])


def basis_change(d: int) -> np.ndarray:
    """``U_d = ((1+i) I + (1-i) P_d) / 2`` as a dense matrix, P_d the swap
    of the pair index (i, j) -> (j, i)."""
    return ((1 + 1j) * np.eye(d * d) + (1 - 1j) * swap_operator(d)) / 2


def swapped_conjugate(m: np.ndarray, d: int) -> np.ndarray:
    """``P m* P`` by index permutation, so that no round-off enters."""
    perm = np.arange(d * d).reshape(d, d).T.ravel()
    return m.conj()[perm][:, perm]


@given(d_a=dims_123, d_b=dims_123, lead=st.sampled_from([(), (1,), (3,)]), seed=seeds)
def test_correlations_match_the_dense_basis_change(d_a, d_b, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (d_a * d_a, d_b * d_b)
    r = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u_a, u_b = basis_change(d_a), basis_change(d_b)
    assert np.abs(u_a @ u_a.conj().T - np.eye(d_a * d_a)).max() < 1e-15
    dense = (u_a.conj().T @ r @ u_b).real
    c = _correlations(r, d_a, d_b)
    assert c.dtype == np.float64 and c.shape == shape
    assert np.abs(c - dense).max() < 1e-14
    x = rng.normal(size=shape)
    assert np.abs(_natural(x, d_a, d_b) - u_a @ x @ u_b.conj().T).max() < 1e-14


@given(d_a=dims_123, d_b=dims_123, seed=seeds)
def test_correlations_and_natural_round_trip(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d_a * d_a, d_b * d_b))
    assert np.abs(_correlations(_natural(x, d_a, d_b), d_a, d_b) - x).max() < 1e-15
    # a Hermitian matrix loses nothing to the real part
    r = realign_matrix(random_bipartite(d_a, d_b, rng).matrix, d_a, d_b)
    assert np.abs(_natural(_correlations(r, d_a, d_b), d_a, d_b) - r).max() < 1e-15


@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), seed=seeds)
def test_spectrum_is_that_of_the_hermitian_part(dims, seed):
    d_a, d_b = dims
    n = d_a * d_b
    rng = np.random.default_rng(seed)
    # a state with an anti-Hermitian part i*S, S real symmetric with zero
    # diagonal, that validation lets through at tol
    tol = 1e-3
    s = rng.uniform(-tol / 2, tol / 2, size=(n, n))
    s = np.triu(s, 1) + np.triu(s, 1).T
    h = random_bipartite(d_a, d_b, rng).matrix
    rho = bipartite(h + 1j * s, d_a, d_b, tol=tol)
    values = is_faithful(rho).spectrum.values
    scale = values[0]
    hermitian = np.linalg.svd(realign_matrix(h, d_a, d_b), compute_uv=False)
    assert np.abs(values - hermitian).max() <= 1e-14 * scale
    # Weyl: the values of realign(rho) lie within ||rho - h||_F
    raw = np.linalg.svd(realign(rho), compute_uv=False)
    assert np.abs(values - raw).max() <= np.linalg.norm(s) + 1e-14 * scale


@given(
    case=st.one_of(
        st.tuples(st.sampled_from([(2, 2), (3, 3), (2, 3)]), st.just(None)),
        st.tuples(
            st.just((3, 3)),
            st.one_of(
                st.floats(min_value=0.05, max_value=0.95).map(sigma_e),
                st.floats(min_value=0.05, max_value=0.95).map(horodecki),
            ),
        ),
    ),
    n=kraus_counts,
    seed=seeds,
)
def test_extracted_map_preserves_hermiticity_exactly(case, n, seed):
    (d_a, d_b), state = case
    rng = np.random.default_rng(seed)
    if state is None:
        state = random_bipartite(d_a, d_b, rng)
    ch = random_channel(d_a, n, rng)
    result = extract(state, apply_extended(ch, state), mode="pseudo")
    m = result.m.matrix
    assert np.array_equal(m, swapped_conjugate(m, d_a))
    choi = superop_to_choi(result.m)
    assert np.array_equal(choi, choi.conj().T)


# ------------------------------------------- the operator Schmidt decomposition

schmidt_states = st.one_of(
    st.tuples(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), seeds).map(
        lambda case: random_bipartite(*case[0], case[1])
    ),
    st.floats(min_value=0.05, max_value=0.95).map(sigma_e),
    st.floats(min_value=0.05, max_value=0.95).map(horodecki),
)


def exactly_hermitian(op: np.ndarray) -> bool:
    return bool(np.all(op - op.conj().T == 0.0))


@given(state=schmidt_states)
def test_operator_schmidt_factors_are_hermitian_and_rebuild_the_state(state):
    osd = operator_schmidt(state)
    assert np.array_equal(osd.coefficients, is_faithful(state).spectrum.values)
    assert len(osd.ops_a) == len(osd.ops_b) == len(osd.coefficients)
    assert all(exactly_hermitian(op) for op in osd.ops_a + osd.ops_b)
    rebuilt = sum(c * np.kron(a, b) for c, a, b in zip(osd.coefficients, osd.ops_a, osd.ops_b))
    assert np.abs(rebuilt - state.matrix).max() < 1e-12


@given(state=schmidt_states, threshold=st.sampled_from([None, 0.0]))
def test_kernel_basis_is_hermitian_and_spans_the_complex_svd_kernel(state, threshold):
    d_a = state.dim_a
    report = reachable_report(state, threshold=threshold)
    verdict = is_faithful(state, threshold=threshold)
    assert np.array_equal(report.spectrum.values, verdict.spectrum.values)
    assert report.kernel_dimension == verdict.kernel_dimension == len(report.kernel_basis)
    assert all(exactly_hermitian(op) for op in report.kernel_basis)
    vecs = np.array([op.reshape(-1) for op in report.kernel_basis]).reshape(-1, d_a * d_a)
    # reference: the left singular vectors of a dense complex SVD past the rank
    u, _, _ = np.linalg.svd(realign(state))
    kernel = u[:, verdict.spectrum.rank :]
    assert np.abs(vecs.T @ vecs.conj() - kernel @ kernel.conj().T).max() < 1e-12


@given(d=st.sampled_from([2, 3]), terms=st.integers(min_value=1, max_value=8), seed=seeds)
def test_ccnr_sum_is_sound_on_separable_states(d, terms, seed):
    assert ccnr_sum(random_separable(d, d, terms, seed)) <= 1 + 1e-9


# ------------------------------------------- the nearest-state projection


def hermitian_stack(rng, batch: int, d: int) -> np.ndarray:
    """Random Hermitian matrices, shifted so that some have no positive
    eigenvalue and some more than unit trace."""
    g = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    shifts = rng.uniform(-2.0, 1.0, size=(batch, 1, 1))
    return (g + g.conj().swapaxes(-1, -2)) / 2 + shifts * np.eye(d)


def simplex_by_bisection(h: np.ndarray) -> np.ndarray:
    """The nearest state to the Hermitian ``h``: its eigenvalues minus the
    shift theta at which their positive parts sum to one, found by
    bisection on theta, with its eigenvectors."""
    w, v = np.linalg.eigh(h)
    low, high = w[0] - 1.0, w[-1]  # positive parts sum to >= d and to 0
    for _ in range(200):
        theta = (low + high) / 2
        low, high = (theta, high) if np.maximum(w - theta, 0.0).sum() > 1.0 else (low, theta)
    return (v * np.maximum(w - (low + high) / 2, 0.0)) @ v.conj().T


@st.composite
def finite_stacks(draw):
    """Real or complex stacks (..., d, d), d <= 4, of finite entries of any
    size, those near the float limit included."""
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 4)),) * 2
    parts = draw(st.sampled_from([1, 2]))
    values = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=parts * math.prod(shape), max_size=parts * math.prod(shape))
    x = np.array(draw(values), dtype=float).reshape((parts,) + shape)
    return x[0] if parts == 1 else x[0] + 1j * x[1]


@given(a=finite_stacks())
def test_hermitian_part_is_exact_and_finite(a):
    h, finite = _hermitian(a)
    assert finite and h.shape == a.shape and np.isfinite(h).all()
    assert np.array_equal(h, _dagger(h))
    if np.abs(a.view(float)).max() <= 1e307:
        # the values of (a + a^dag)/2 exactly; a zero may differ in sign
        assert np.array_equal(h, (a + _dagger(a)) / 2)


@given(d=st.sampled_from([2, 4]), batch=st.integers(1, 5), seed=seeds)
def test_projection_is_the_simplex_projection(d, batch, seed):
    h = hermitian_stack(np.random.default_rng(seed), batch, d)
    for got, m in zip(_project(h), h):
        assert np.abs(got - simplex_by_bisection(m)).max() <= 1e-12


@given(d=st.sampled_from([2, 4]), batch=st.integers(1, 5), seed=seeds)
def test_no_state_is_nearer_than_the_projection(d, batch, seed):
    rng = np.random.default_rng(seed)
    h = hermitian_stack(rng, batch, d)
    for got, m in zip(_project(h), h):
        validate_density(got, tol=DEFAULT_TOL)
        nearest = np.linalg.norm(got - m)
        # random states of every rank, and the result moved towards them
        for rank in [*range(1, d + 1)] * 2:
            sigma = random_density(d, rng, rank=rank).matrix
            assert np.linalg.norm(sigma - m) >= nearest - 1e-12
            assert np.linalg.norm(got + 0.01 * (sigma - got) - m) >= nearest - 1e-12


@given(shots=st.sampled_from([1, 8, 64, 1024]), seed=seeds)
def test_projected_estimate_is_never_farther_than_the_raw_one(shots, seed):
    # the state set is convex and holds the true state, so the projection
    # cannot move the estimate away from it
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng).matrix
    counts = rng.multinomial(shots, exact_pauli_probabilities(validate_density(rho)))
    raw = np.tensordot(counts / shots, _INVERSION, 2)
    projected = linear_inversion(counts).matrix
    assert np.linalg.norm(projected - rho) <= np.linalg.norm(raw - rho) + 1e-12
