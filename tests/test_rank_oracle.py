"""The rank rule against an exact oracle that uses no LAPACK.

The realignments of sigma_e(p), horodecki(a) and the maximally entangled
states are rational at rational parameters (horodecki's ``sqrt(1 - a^2)``
too, for a Pythagorean ``a``), so their exact ranks follow from Gaussian
elimination over ``fractions.Fraction``.  Each matrix is built here from
its formula, apart from ``catalog``; the float catalog entries and the
``is_faithful`` verdicts are then checked against it.  The boundary test
mixes a kernel into a state by ``(1 - eps) rho_r + eps rho_full`` and finds
the verdict change exactly where the smallest singular value crosses the
threshold.  The known-rank family ``sum_{k<=r} w_k A_k (x) B_k`` of random
states has realignment rank r by construction, before and after local
unitaries.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aaqpt.catalog import horodecki, max_entangled, sigma_e
from aaqpt.qstate import bipartite
from aaqpt.realignment import is_faithful
from aaqpt.sampling import random_density, random_unitary


def exact_sigma_e(p: Fraction) -> list[list[Fraction]]:
    # p proj(|00> + |11>)/2 + (1 - p) proj(|00> + |22>)/2
    m = [[Fraction(0)] * 9 for _ in range(9)]
    for weight, support in ((p, (0, 4)), (1 - p, (0, 8))):
        for i in support:
            for j in support:
                m[i][j] += weight / 2
    return m


def exact_horodecki(a: Fraction, c: Fraction) -> list[list[Fraction]]:
    # c = sqrt(1 - a^2) / 2, rational for the a used here
    assert 4 * c * c == 1 - a * a
    b = (1 + a) / 2
    m = [[a if i == j else Fraction(0) for j in range(9)] for i in range(9)]
    m[6][6] = m[8][8] = b
    for i, j in ((0, 4), (0, 8), (4, 8)):
        m[i][j] = m[j][i] = a
    m[6][8] = m[8][6] = c
    return [[x / (8 * a + 1) for x in row] for row in m]


def exact_max_entangled(d: int) -> list[list[Fraction]]:
    # |Phi><Phi| / d with Phi = sum_i |ii>: entry 1/d at rows and columns (i, i)
    diagonal = {i * d + i for i in range(d)}
    return [[Fraction(1, d) if i in diagonal and j in diagonal else Fraction(0)
             for j in range(d * d)] for i in range(d * d)]


def exact_realign(m, d: int) -> list[list[Fraction]]:
    # out[(i, j), (k, l)] = in[(i, k), (j, l)]
    return [[m[i * d + k][j * d + l] for k in range(d) for l in range(d)]
            for i in range(d) for j in range(d)]


def exact_rank(m) -> int:
    rows = [list(row) for row in m]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def as_float(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


F = Fraction
CASES = [
    *(pytest.param(exact_sigma_e(p), lambda p=p: sigma_e(p), 3, rank, id=f"sigma_e({p})")
      for p, rank in ((F(0), 4), (F(1, 4), 7), (F(1, 2), 7), (F(3, 4), 7), (F(1), 4))),
    *(pytest.param(exact_horodecki(a, c), lambda a=a: horodecki(a), 3, 8, id=f"horodecki({a})")
      for a, c in ((F(3, 5), F(2, 5)), (F(5, 13), F(6, 13)),
                   (F(8, 17), F(15, 34)), (F(7, 25), F(12, 25)))),
    *(pytest.param(exact_max_entangled(d), lambda d=d: max_entangled(d), d, d * d,
                   id=f"max_entangled({d})") for d in (2, 3, 4)),
]


@pytest.mark.parametrize("exact, make, d, rank", CASES)
def test_catalog_rank_is_the_exact_rank(exact, make, d, rank):
    assert exact_rank(exact_realign(exact, d)) == rank
    state = make()
    # the catalog's floats are the formula's rationals to round-off
    assert not state.matrix.imag.any()
    expected = as_float(exact)
    assert np.array_equal(state.matrix.real == 0, expected == 0)
    assert np.allclose(state.matrix.real, expected, rtol=4 * np.finfo(float).eps, atol=0)
    verdict = is_faithful(state)
    assert verdict.spectrum.rank == rank
    assert verdict.kernel_dimension == d * d - rank
    assert verdict.faithful == (rank == d * d)


# sigma_e's realignment is real symmetric and that of max_entangled(3) is
# I/3, so on (1 - eps) sigma_e(p) + eps max_entangled(3) its two kernel
# directions carry the singular value eps/3 exactly, far below the others;
# the largest stays 1/2 to within eps
@given(p=st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
       factor=st.floats(0.2, 0.98) | st.floats(1.02, 5.0))
def test_verdict_flips_where_s_min_crosses_the_threshold(p, factor):
    tau = max(0.5 * 9 * 1e-12, 1e-12)  # the documented default threshold
    eps = 3 * factor * tau
    mixed = (1 - eps) * as_float(exact_sigma_e(p)) + eps * as_float(exact_max_entangled(3))
    verdict = is_faithful(bipartite(mixed, 3, 3))
    values = verdict.spectrum.values
    assert values[0] == pytest.approx(0.5, rel=1e-9)
    assert verdict.spectrum.threshold == pytest.approx(tau, rel=1e-9)
    assert values[-2:] == pytest.approx([eps / 3] * 2, rel=1e-3)
    assert verdict.faithful == (factor > 1)
    assert verdict.kernel_dimension == (0 if factor > 1 else 2)


@pytest.mark.parametrize("p", [F(1, 4), F(1, 2)])
def test_a_value_at_the_threshold_is_not_above_it(p):
    eps = 1e-8
    mixed = (1 - eps) * as_float(exact_sigma_e(p)) + eps * as_float(exact_max_entangled(3))
    state = bipartite(mixed, 3, 3)
    s_min = float(is_faithful(state).spectrum.values[-1])
    at = is_faithful(state, threshold=s_min)
    assert not at.faithful and at.kernel_dimension >= 1
    assert is_faithful(state, threshold=float(np.nextafter(s_min, 0.0))).faithful


@st.composite
def known_rank_states(draw):
    """``(rho, r, U (x) V)`` for dA <= dB <= 6: ``rho = sum_{k<=r} w_k A_k (x)
    B_k`` of random states and Dirichlet weights, whose realignment
    ``sum_k w_k vec(A_k) vec(B_k)^T`` has rank r (the A_k, and the B_k, are
    linearly independent almost surely), and a random local unitary."""
    d_b = draw(st.integers(2, 6))
    d_a = draw(st.integers(2, d_b))
    r = draw(st.integers(1, d_a * d_a))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = [np.kron(random_density(d_a, rng).matrix, random_density(d_b, rng).matrix)
             for _ in range(r)]
    rho = bipartite(sum(w * t for w, t in zip(rng.dirichlet(np.ones(r)), terms)), d_a, d_b)
    return rho, r, np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))


@given(known_rank_states())
def test_known_rank_family_reads_its_rank(case):
    rho, r, local = case
    turned = bipartite(local @ rho.matrix @ local.conj().T, rho.dim_a, rho.dim_b)
    for state in (rho, turned):
        verdict = is_faithful(state)
        assert verdict.spectrum.rank == r
        assert verdict.kernel_dimension == rho.dim_a**2 - r
        assert verdict.faithful == (r == rho.dim_a**2)
