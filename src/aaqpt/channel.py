"""Kraus channels, their Choi and natural-superoperator representations, and
the row-vectorization calculus connecting them.

Vectorization is row-major: ``vectorize(s)[j*d + i] = s[j, i]``, equivalently
``|s> = (s (x) I) sum_i |ii>``.  Under it a channel with Kraus operators
``{K_n}`` acts linearly as the d^2 x d^2 matrix ``M = sum_n K_n (x) K_n*``:
``vectorize(channel(s)) = M @ vectorize(s)``.  M is the "complete channel
information" that extraction recovers from faithful states, tied to the
realignment map by ``realign(channel (x) id (rho)) = M @ realign(rho)``.

The Choi matrix keeps the unnormalized convention
``C = sum_n (K_n (x) I) |phi><phi| (K_n (x) I)^dag`` with
``|phi> = sum_i |ii>``, so tr C = d and the inverse action reads
``channel(rho) = Tr_B[(I (x) rho^T) C]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AaqptError,
    DimensionMismatchError,
    MixedDimensionsError,
    NotPhysicalError,
    NotSquareError,
    NotTracePreservingError,
)
from .qstate import (
    DEFAULT_TOL,
    BipartiteState,
    DensityMatrix,
    as_matrix,
    bipartite,
    require_square,
    tensor,
    validate_density,
    _check_hermitian,
    _check_positive,
    _check_tol,
    _eigh,
    _frozen,
    _items,
    _numbers,
    _partial_trace_keep,
)
from .realignment import _reshuffle


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving channel as a tuple of d x d Kraus operators."""

    dim: int
    kraus: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ChoiMatrix:
    """Channel-state dual on output (x) input, trace d, Hermitian, PSD."""

    dim: int
    matrix: np.ndarray

    def normalized(self) -> np.ndarray:
        """The trace-one variant ``matrix / dim``."""
        return self.matrix / self.dim


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on row-vectorized states.

    Extraction from noisy data produces matrices that preserve the trace only
    approximately, so trace preservation is *not* enforced here; use
    :meth:`trace_defect` to quantify it.
    """

    dim: int
    matrix: np.ndarray

    def trace_defect(self) -> float:
        """max deviation of the trace functional from invariance under M."""
        ivec = vectorize(np.eye(self.dim))
        return float(np.abs(self.matrix.conj().T @ ivec - ivec).max())


def make_channel(kraus, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Validate a Kraus set: square operators of one dimension satisfying
    the completeness condition ``sum K^dag K = I`` within ``tol``, which
    must be a finite number >= 0 (else ParameterOutOfRangeError)."""
    tol = _check_tol(tol)
    items = _items(kraus)
    if items is None:
        raise MixedDimensionsError(f"Kraus operators must come as a sequence, got {kraus!r}")
    ops = [as_matrix(k) for k in items]
    if not ops:
        raise MixedDimensionsError("at least one Kraus operator is required")
    dims = {require_square(op) for op in ops}
    if len(dims) > 1:
        raise MixedDimensionsError(f"Kraus operators mix dimensions {sorted(dims)}")
    d = dims.pop()
    with np.errstate(over="ignore", invalid="ignore"):
        completeness = sum(op.conj().T @ op for op in ops)
        deviation = float(np.abs(completeness - np.eye(d)).max())
    # a product beyond the float range deviates by inf, or NaN from inf - inf
    if not deviation <= tol:
        raise NotTracePreservingError(deviation)
    return KrausChannel(dim=d, kraus=tuple(_frozen(op) for op in ops))


def apply(ch: KrausChannel, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """sum_n K_n rho K_n^dag."""
    if ch.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {ch.dim} != state dim {rho.dim}")
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
    return validate_density(out, tol=tol)


def apply_extended(ch: KrausChannel, s: BipartiteState, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Act with the channel on the A factor only: sum (K_n (x) I) rho (...)^dag."""
    if ch.dim != s.dim_a:
        raise DimensionMismatchError(f"channel dim {ch.dim} != dim_a {s.dim_a}")
    a, b = s.dim_a, s.dim_b
    k = np.stack(ch.kraus)
    # contract on the A index only, never building K (x) I_B: the 2n
    # products of (dA dB)-square matrices become one contraction, whose
    # pairwise order einsum picks from the operand sizes
    out = np.einsum(
        "nia,akbl,njb->ikjl", k, s.matrix.reshape(a, b, a, b), k.conj(), optimize=True
    )
    return bipartite(out.reshape(a * b, a * b), a, b, tol=tol)


def make_choi(matrix, tol: float = DEFAULT_TOL) -> ChoiMatrix:
    """Validate a raw matrix as a Choi matrix: Hermitian, PSD, trace d,
    and with identity marginal on the input factor (trace preservation).

    The checks run in that order, the first two being those of
    :func:`qstate.validate_density`.  ``tol`` must be a finite number >= 0,
    else ParameterOutOfRangeError.
    """
    tol = _check_tol(tol)
    c = as_matrix(matrix)
    d2 = require_square(c)
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionMismatchError(f"Choi matrix side {d2} is not a perfect square")
    _check_hermitian(c, tol)
    _check_positive(c, tol)
    # a trace or marginal beyond the float range deviates by inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        tr_dev = float(abs(complex(np.trace(c)) - d))
        tp_dev = float(np.abs(_partial_trace_keep(c, (d, d), (1,)) - np.eye(d)).max())
    for deviation, measured in ((tr_dev, "|tr C - d|"), (tp_dev, "max|Tr_out C - I|")):
        if not deviation <= tol:
            raise NotTracePreservingError(deviation, "Choi matrix", measured)
    return ChoiMatrix(dim=d, matrix=_frozen(c))


def choi_state(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix of a channel (unnormalized, trace d): its reshuffled superoperator."""
    return make_choi(superop_to_choi(superoperator(ch)))


def apply_via_choi(choi: ChoiMatrix, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Recover the channel action from its Choi matrix:
    ``Tr_B[(I (x) rho^T) C]``."""
    if choi.dim != rho.dim:
        raise DimensionMismatchError(f"Choi dim {choi.dim} != state dim {rho.dim}")
    d = choi.dim
    out = np.einsum("imjk,mk->ij", choi.matrix.reshape(d, d, d, d), rho.matrix)
    return validate_density(out, tol=tol)


def kraus_from_choi(matrix, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Extract a canonical Kraus set from a Choi matrix by eigendecomposition.

    Eigenvalues below the PSD round-off floor are dropped; a genuinely
    negative eigenvalue (beyond ``tol``) raises :class:`NotPositiveError`.
    """
    choi = make_choi(matrix, tol=tol)
    d = choi.dim
    w, v = _eigh(choi.matrix)
    cutoff = max(w.max(), 0.0) * 1e-14 + 1e-15
    kraus = [
        np.sqrt(w[i]) * v[:, i].reshape(d, d)
        for i in range(len(w))
        if w[i] > cutoff
    ]
    return make_channel(kraus, tol=tol)


def superoperator(ch: KrausChannel) -> Superoperator:
    """The natural matrix ``sum_n K_n (x) K_n*`` on row-vectorized states."""
    m = sum(tensor(k, k.conj()) for k in ch.kraus)
    return Superoperator(dim=ch.dim, matrix=_frozen(np.asarray(m)))


def vectorize(sigma) -> np.ndarray:
    """Row-major vectorization: element ``j*d + i`` is ``sigma[j, i]``."""
    a = as_matrix(sigma)
    require_square(a)
    return a.reshape(-1)


def devectorize(vector) -> np.ndarray:
    """Inverse of :func:`vectorize`: the entries of ``vector`` are finite
    numbers, and their count a nonzero perfect square (else NotSquareError)."""
    v = _numbers(vector, complex, two_d=False).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size or not d:
        raise NotSquareError(f"vector of length {v.size} does not devectorize to a square matrix")
    return v.reshape(d, d)


def propagate(m: Superoperator, sigma) -> np.ndarray:
    """Raw output matrix ``devectorize(M @ vectorize(sigma))``, unvalidated.

    This is the workhorse for noisy extracted maps, whose outputs may be
    slightly unphysical and must still be scored downstream.
    """
    a = as_matrix(sigma)
    if a.shape != (m.dim, m.dim):
        raise DimensionMismatchError(
            f"superoperator dim {m.dim} does not match state shape {a.shape}"
        )
    return devectorize(m.matrix @ vectorize(a))


def predict_output(m: Superoperator, sigma: DensityMatrix, tol: float = 1e-7) -> DensityMatrix:
    """Predicted channel output for a probe state.

    The default tolerance is deliberately looser than the validation default:
    an extracted M carries numerical noise.  Failing the density-matrix
    checks beyond ``tol`` raises :class:`NotPhysicalError`, which signals a
    bad or partial M rather than a bad probe.  ``tol`` must be a finite
    number >= 0, else ParameterOutOfRangeError.
    """
    tol = _check_tol(tol)
    out = propagate(m, sigma.matrix)
    try:
        return validate_density(out, tol=tol)
    except AaqptError as exc:
        raise NotPhysicalError(f"predicted output is not a physical state: {exc}") from exc


def superop_to_choi(m: Superoperator) -> np.ndarray:
    """Reshuffle M into the (possibly unphysical) Choi matrix of the same map.

    For a Hermiticity-preserving map the result is Hermitian; its eigenvalues
    diagnose how far an extracted M is from a completely positive channel.
    """
    return _reshuffle(m.matrix, m.dim, m.dim).copy()
