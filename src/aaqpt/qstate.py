"""Validated density-matrix containers and the matrix primitives everything
else builds on.

Index convention, shared across the whole package: the composite basis index
of ``|i>_A |k>_B`` is ``i * dim_b + k`` (row-major, A index major).  This is
the ordering :func:`numpy.kron` produces, so ``tensor(a, b)`` and all
reshape-based subsystem manipulations agree with it.

Matrices travel as dense complex ``numpy`` arrays.  Operations that are well
defined for unnormalized Hermitian matrices (needed when manipulating raw
vectorized objects) have ``*_matrix`` entry points working on bare arrays;
the typed entry points take and return validated containers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AaqptError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotUnitTraceError,
)

#: Default absolute tolerance for validation (entrywise and eigenvalue
#: checks).  Well above double-precision linear-algebra noise at the matrix
#: sizes this package targets, well below any physical signal.
DEFAULT_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(m) -> np.ndarray:
    """Copy ``m`` into a fresh complex 2-D array of finite entries."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquareError(f"expected a 2-D matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise AaqptError("matrix has non-finite (NaN or infinite) entries")
    return a


def require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive-semidefinite, unit-trace complex matrix.

    Instances are produced by :func:`validate_density` and are immutable;
    ``matrix`` is a read-only array.
    """

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on A tensor B together with the factor dimensions."""

    dim_a: int
    dim_b: int
    state: DensityMatrix

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


def validate_density(m, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap ``m``.

    The Hermiticity check runs on the raw entries; the eigenvalue check runs
    on the symmetrized matrix ``(m + m^dag)/2`` so that round-off in the
    skew part cannot masquerade as negativity.  The stored entries are the
    originals.

    Raises :class:`NotSquareError`, :class:`NotHermitianError`,
    :class:`NotUnitTraceError` or :class:`NotPositiveError`.
    """
    a = as_matrix(m)
    dim = require_square(a)
    herm_dev = float(np.abs(a - a.conj().T).max())
    if herm_dev > tol:
        raise NotHermitianError(herm_dev)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise NotUnitTraceError(tr)
    sym = (a + a.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(sym).min())
    if min_eig < -tol:
        raise NotPositiveError(min_eig)
    return DensityMatrix(dim=dim, matrix=_frozen(a))


def bipartite(m, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Validate ``m`` as a density matrix on A tensor B."""
    rho = validate_density(m, tol=tol)
    if rho.dim != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix dimension {rho.dim} != dim_a * dim_b = {dim_a * dim_b}"
        )
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, state=rho)


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the shared index convention.

    The entry at composite row ``i*rows_b + r``, column ``j*cols_b + c``
    equals ``a[i, j] * b[r, c]``.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _split(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    d = require_square(m)
    if d != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix dimension {d} != dim_a * dim_b = {dim_a * dim_b}"
        )
    return m.reshape(dim_a, dim_b, dim_a, dim_b)


def partial_trace_matrix(m, dim_a: int, dim_b: int, subsystem: str) -> np.ndarray:
    """Trace out one factor of a bare bipartite matrix.

    Accepts unnormalized (even non-Hermitian) input; preserves the total
    trace exactly.  ``subsystem`` names the factor that is traced out.
    """
    t = _split(as_matrix(m), dim_a, dim_b)
    if subsystem == "B":
        return np.einsum("ikjk->ij", t)
    if subsystem == "A":
        return np.einsum("ikil->kl", t)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def partial_trace(s: BipartiteState, subsystem: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Reduced state of the factor that is kept."""
    reduced = partial_trace_matrix(s.matrix, s.dim_a, s.dim_b, subsystem)
    return validate_density(reduced, tol=tol)


def partial_transpose_matrix(m, dim_a: int, dim_b: int, subsystem: str) -> np.ndarray:
    """Transpose the indices of one factor of a bare bipartite matrix."""
    t = _split(as_matrix(m), dim_a, dim_b)
    if subsystem == "B":
        out = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return out.reshape(dim_a * dim_b, dim_a * dim_b).copy()


def partial_transpose(s: BipartiteState, subsystem: str) -> np.ndarray:
    """Partial transpose of a bipartite state.

    The result is Hermitian but in general not positive, so it is returned
    as a bare matrix.  Applying the same partial transpose twice restores
    the input entrywise exactly.
    """
    return partial_transpose_matrix(s.matrix, s.dim_a, s.dim_b, subsystem)


def _drop_round_off(w: np.ndarray) -> np.ndarray:
    # eigenvalues of a nominally-PSD unit-trace matrix at or below dim * eps
    # are round-off, possibly negative; zero them before any square root,
    # which would turn 1e-17 into 3e-9 and push fidelities above 1
    return np.where(w > w.size * np.finfo(float).eps, w, 0.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Equals 1 iff the states coincide and |<psi|phi>| for pure states.
    Symmetric in its arguments to ~1e-10 despite the asymmetric formula.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    root = (v * np.sqrt(_drop_round_off(w))) @ v.conj().T
    inner = root @ sigma.matrix @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sqrt(_drop_round_off(w)).sum())


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    diff = as_matrix(a) - as_matrix(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
