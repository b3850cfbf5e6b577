"""The realignment map, its swap-composed variant, and everything derived
from their singular spectra: the faithfulness verdict, the operator Schmidt
decomposition and the CCNR/PPT entanglement tests.

Writing a bipartite matrix as ``rho = sum rho_{ij,kl} |i><j| (x) |k><l|``
(indices i, j on A and k, l on B), the two reshuffles implemented here are

* ``realign``:        ``R[(i,j),(k,l)] = rho_{ij,kl}``, shape dA^2 x dB^2;
* ``realign_check``:  ``Rc[(k,l),(i,j)] = rho_{ij,kl}``, defined for
  dA == dB, equal to ``(rho^{T_B} E)^{T_A}`` with E the swap operator.

``Rc`` is the full transpose of ``R`` entrywise, so both carry the same
singular values.  A state is *faithful* -- its output under any channel on A
determines that channel completely -- iff R has rank dA^2, its row count
(:func:`is_faithful` owns this rule).  That needs dA <= dB: an ancilla at
least as large as the system can be faithful (Altepeter et al., PRL 90,
193601, 2003), a smaller one never is.  The singular values are invariant
under local unitaries, and their sum above 1 certifies entanglement (CCNR).

Written in orthonormal bases of Hermitian operators, ``R`` of a Hermitian
matrix is the real correlation matrix ``C_mn = Tr(rho G_m (x) H_n)``, with
the same singular values (the Bloch form of the realignment criterion).
:func:`_correlations` takes ``R`` there through the unitary
``X -> Re X + Im X`` on each factor and :func:`_natural` takes a real matrix
back, so the spectrum, the operator Schmidt decomposition and the
extraction solve run in real arithmetic, on the Hermitian part of a state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRangeError, UnequalDimensionsError
from .qstate import (
    BipartiteState,
    as_matrix,
    partial_transpose,
    _bipartite_matrix,
    _check_tol,
    _eigh,
    _frozen,
    _integer_in,
    _svd,
)


@dataclass(frozen=True)
class SingularSpectrum:
    """Full singular value list of a matrix, sorted descending.

    ``rank`` counts the values strictly above ``threshold``; ``sum`` is the
    trace norm (the CCNR quantity when the matrix is a realignment).
    """

    values: np.ndarray
    sum: float
    rank: int
    threshold: float


@dataclass(frozen=True)
class FaithfulnessVerdict:
    """Outcome of the faithfulness test.

    ``faithful`` holds iff the realigned matrix has rank
    ``required_rank = dim_a**2``, for every pair of factor dimensions.
    ``kernel_dimension = required_rank - rank`` counts the missing rank: the
    dimension of the operator subspace on A whose image under a channel the
    state cannot reveal.  ``dims_equal`` records whether dA == dB; it is
    informational and does not enter the verdict.
    """

    faithful: bool
    spectrum: SingularSpectrum
    required_rank: int
    kernel_dimension: int
    dims_equal: bool


@dataclass(frozen=True)
class OperatorSchmidtDecomposition:
    """Expansion ``rho = sum_k c_k A_k (x) B_k`` with Hilbert-Schmidt
    orthonormal Hermitian factors and nonnegative coefficients (descending).

    The coefficients are exactly the singular values of ``realign(rho)``.
    Within degenerate coefficient groups the factors are only fixed up to a
    joint orthogonal remix, so the contractual properties are Hermiticity,
    orthonormality and reconstruction, not specific factor matrices.
    """

    coefficients: np.ndarray
    ops_a: tuple[np.ndarray, ...]
    ops_b: tuple[np.ndarray, ...]


def default_threshold(max_singular_value, rows: int):
    """Scale-aware rank cutoff: ``max(s_max * rows * 1e-12, 1e-12)``.

    A float for one ``s_max``, an array of cutoffs for an array of them.
    """
    tau = np.maximum(np.multiply(max_singular_value, rows) * 1e-12, 1e-12)
    return float(tau) if tau.ndim == 0 else tau


def _ranks(values: np.ndarray, rows: int, threshold: float | None = None):
    """The rank rule on one descending spectrum or a stack of them along the
    last axis: ``(ranks, tau)``, how many values exceed each cutoff ``tau``,
    which is ``threshold`` if given (finite and >= 0, else
    ParameterOutOfRangeError), else the :func:`default_threshold` of each
    spectrum's largest value for ``rows`` rows.  LAPACK sorts the values
    descending, so the ``rank`` largest are exactly those above the cutoff."""
    if threshold is None:
        tau = default_threshold(values[..., 0] if values.shape[-1] else 0.0, rows)
    else:
        tau = _check_tol(threshold, "threshold")
    return (values > np.asarray(tau)[..., None]).sum(-1), tau


def _spectrum(values: np.ndarray, rows: int, threshold: float | None) -> SingularSpectrum:
    rank, tau = _ranks(values, rows, threshold)
    return SingularSpectrum(_frozen(values), float(values.sum()), int(rank), tau)


def singular_spectrum(m, threshold: float | None = None) -> SingularSpectrum:
    """All singular values of ``m``, with a rank decision.

    ``threshold`` overrides the default scale-aware cutoff; pass an explicit
    value when working with data whose noise floor is known.  It must be a
    finite number >= 0, else ParameterOutOfRangeError.
    """
    a = as_matrix(m)
    return _spectrum(_svd(a, compute_uv=False), a.shape[0], threshold)


def realign_matrix(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Reshuffle a bare bipartite matrix: out[(i,j),(k,l)] = in[(i,k),(j,l)].

    Accepts unnormalized input; the result has shape dA^2 x dB^2.
    """
    return _reshuffle(_bipartite_matrix(m, dim_a, dim_b), dim_a, dim_b)


def _reshuffle(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Realign a stack (..., dA*dB, dA*dB) of bipartite matrices: the
    (..., dA^2, dB^2) matrices of :func:`realign_matrix`."""
    lead = m.shape[:-2]
    t = m.reshape(lead + (dim_a, dim_b, dim_a, dim_b))
    return t.swapaxes(-3, -2).reshape(lead + (dim_a * dim_a, dim_b * dim_b))


def realign(s: BipartiteState) -> np.ndarray:
    return realign_matrix(s.matrix, s.dim_a, s.dim_b)


def _pair_swaps(t: np.ndarray):
    # the views P t, t Q and P t Q of a stack (..., dA, dA, dB, dB), where P
    # swaps the row pair index (i, j) -> (j, i) and Q the column pair index
    pt = t.swapaxes(-4, -3)
    return pt, t.swapaxes(-2, -1), pt.swapaxes(-2, -1)


def _correlations(r: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """The real matrices ``Re(U_A^dag r U_B)`` of a stack (..., dA^2, dB^2)
    of realigned matrices, where ``U_d = ((1+i) I + (1-i) P_d) / 2`` is
    unitary and ``P_d`` swaps the pair index (i, j) -> (j, i).

    ``U_d^dag`` takes the vectorization of a Hermitian X to that of the real
    ``Re X + Im X``, so for the realignment of a Hermitian matrix nothing is
    dropped: the result is its correlation matrix ``Tr(rho G_m (x) H_n)`` in
    orthonormal bases of Hermitian operators G on A and H on B, with the
    same singular values.  For any other matrix it is that of the Hermitian
    part.  Written out, ``(Re R + Re PRQ + Im RQ - Im PR) / 2`` on four
    strided views.
    """
    lead = r.shape[:-2]
    t = r.reshape(lead + (dim_a, dim_a, dim_b, dim_b))
    pr, rq, prq = _pair_swaps(t)
    c = np.add(t.real, prq.real)
    c += rq.imag
    c -= pr.imag
    c *= 0.5
    return c.reshape(lead + (dim_a * dim_a, dim_b * dim_b))


def _natural(x: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """``U_A x U_B^dag``, the inverse of :func:`_correlations`, for a stack
    (..., dA^2, dB^2) of real matrices: ``((x + PxQ) + i (xQ - Px)) / 2``.
    Swapping both pair indices of the result conjugates it entrywise, bit
    for bit."""
    lead = x.shape[:-2]
    t = x.reshape(lead + (dim_a, dim_a, dim_b, dim_b))
    px, xq, pxq = _pair_swaps(t)
    out = np.empty(t.shape, dtype=complex)
    np.add(t, pxq, out=out.real)
    np.subtract(xq, px, out=out.imag)
    out *= 0.5
    return out.reshape(lead + (dim_a * dim_a, dim_b * dim_b))


def _correlation(s: BipartiteState) -> np.ndarray:
    # built once per state (it is immutable) for every SVD and solve about it
    # and stored on it; being once per state, it keeps the public realign
    if s._correlation is None:
        c = _frozen(_correlations(realign(s), s.dim_a, s.dim_b))
        object.__setattr__(s, "_correlation", c)
    return s._correlation


def _realignment_values(s: BipartiteState) -> np.ndarray:
    # so are its singular values: every rank decision about the state
    # scales its threshold by the same s_max, bit for bit
    if s._realignment_values is None:
        values = _frozen(_svd(_correlation(s), compute_uv=False))
        object.__setattr__(s, "_realignment_values", values)
    return s._realignment_values


def realign_check_matrix(m, dim: int) -> np.ndarray:
    """Swap-composed reshuffle: out[(k,l),(i,j)] = in[(i,k),(j,l)].

    Equals ``(m^{T_B} E)^{T_A}`` and the full transpose of
    :func:`realign_matrix`; needs equal factor dimensions because the swap
    operator does.
    """
    return realign_matrix(m, dim, dim).T


def realign_check(s: BipartiteState) -> np.ndarray:
    if s.dim_a != s.dim_b:
        raise UnequalDimensionsError(
            f"swap-composed realignment needs dim_a == dim_b, got {s.dim_a} x {s.dim_b}"
        )
    return realign_check_matrix(s.matrix, s.dim_a)


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 permutation E with E (|a> (x) |b>) = |b> (x) |a>, for
    an integer d >= 1 (else ParameterOutOfRangeError)."""
    if not _integer_in(d, 1):
        raise ParameterOutOfRangeError(f"need d >= 1, got {d!r}")
    e = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            e[a * d + b, b * d + a] = 1.0
    return e


def _schmidt_factors(s: BipartiteState, keep: slice):
    """From one full SVD ``W diag(c) V^T`` of the state's correlation matrix:
    the A factors ``U_A w`` of the columns of W in ``keep`` and the B factors
    ``v^T U_B^dag`` of those rows of V^T, as stacks (k, d, d).
    :func:`_natural` maps each with the other dimension 1 (``U_1 = I``), so
    every factor is Hermitian bit for bit."""
    d_a, d_b = s.dim_a, s.dim_b
    w, _, vt = _svd(_correlation(s))
    ops_a = _natural(w[:, keep].T[:, :, None], d_a, 1).reshape(-1, d_a, d_a)
    return _frozen(ops_a), _frozen(_natural(vt[keep, None, :], 1, d_b).reshape(-1, d_b, d_b))


def operator_schmidt(s: BipartiteState) -> OperatorSchmidtDecomposition:
    """Operator Schmidt decomposition of the state's Hermitian part, from
    the real SVD of its correlation matrix: exactly Hermitian factors, and
    the coefficients of :func:`is_faithful`'s spectrum, bit for bit."""
    values = _realignment_values(s)
    ops_a, ops_b = _schmidt_factors(s, slice(values.size))
    return OperatorSchmidtDecomposition(values, tuple(ops_a), tuple(ops_b))


def is_faithful(s: BipartiteState, threshold: float | None = None) -> FaithfulnessVerdict:
    """Decide whether the state pins down channels on A completely: whether
    ``realign(s)`` has rank dA^2, at any dimensions (never when dA > dB).
    ``extract`` and ``reachable_report`` take their rank from this verdict."""
    required = s.dim_a * s.dim_a
    spectrum = _spectrum(_realignment_values(s), required, threshold)
    return FaithfulnessVerdict(
        faithful=spectrum.rank == required,
        spectrum=spectrum,
        required_rank=required,
        kernel_dimension=required - spectrum.rank,
        dims_equal=s.dim_a == s.dim_b,
    )


def ccnr_sum(s: BipartiteState) -> float:
    """Sum of the realignment singular values.

    A value above 1 certifies entanglement; at or below 1 the test is
    inconclusive.  Only meaningful for unit-trace states, which the
    :class:`BipartiteState` type guarantees.
    """
    return float(_realignment_values(s).sum())


def ppt_min_eigenvalue(s: BipartiteState) -> float:
    """Minimum eigenvalue of the partial transpose over B.

    Negative certifies entanglement; nonnegative states (PPT) may still be
    bound entangled.
    """
    return float(_eigh(partial_transpose(s, "B"), vectors=False).min())
