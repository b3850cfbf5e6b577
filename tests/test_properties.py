"""Property tests for extraction, the Kraus action on A and the
realignment spectrum, over hypothesis-drawn dimensions, states and
channels."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, strategies as st

from aaqpt import extraction
from aaqpt.catalog import horodecki, sigma_e
from aaqpt.channel import apply_extended
from aaqpt.extraction import extract, reachable_report
from aaqpt.qstate import bipartite
from aaqpt.realignment import is_faithful, realign
from aaqpt.sampling import random_bipartite, random_channel, random_unitary

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
