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

Every public entry point of the package checks what a caller passes in
through the owners of the input rules here: :func:`_numbers` (behind
:func:`as_matrix`) for arrays of finite numbers, :func:`_items` for
sequences of operators or qubits, :func:`_integer_in` for
dimensions and indices, :func:`_real` for real parameters and
:func:`_check_tol` for tolerances and thresholds, finite reals >= 0, which
it hands back as floats.  No bool passes the last three.  Every LAPACK call
runs in one of four owners: :func:`_check_positive`, :func:`_svd`,
:func:`_eigh` and :func:`_linear_solve`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AaqptError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotUnitTraceError,
    ParameterOutOfRangeError,
    SvdFailureError,
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
    return _numbers(m, complex, two_d=True)


def _numbers(m, dtype, two_d: bool) -> np.ndarray:
    """A fresh copy of ``m`` of ``dtype`` (None: the numeric dtype numpy
    infers), 2-D if ``two_d``, whose entries are finite numbers; else
    NotSquareError for the axes and AaqptError for the entries."""
    try:
        a = np.array(m, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AaqptError(f"entries must be numbers: {exc}") from None
    if two_d and a.ndim != 2:
        raise NotSquareError(f"expected a 2-D matrix, got array of shape {a.shape}")
    if a.dtype.kind not in "biufc":
        raise AaqptError(f"entries must be numbers, got dtype {a.dtype}")
    if not np.isfinite(a).all():
        raise AaqptError("matrix has non-finite (NaN or infinite) entries")
    return a


def _integer_in(value, low: int, high: float = math.inf) -> bool:
    """Whether ``value`` is an integer, not a bool, with low <= value < high."""
    # a plain int first: an isinstance check against the ABC takes about a
    # microsecond, as long as the rest of a gate's validation
    integer = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    return integer and low <= value < high


def _real(value) -> bool:
    """Whether ``value`` is a real number (integers included), not a bool."""
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _items(value) -> tuple | None:
    """The items of ``value`` as a tuple, or None when it cannot be iterated
    (a scalar, None or a 0-d array), for the caller to reject."""
    try:
        return tuple(value)
    except TypeError:
        return None


def _check_tol(tol: float, name: str = "tol") -> float:
    """``tol`` as a float, rejecting a tolerance or threshold that is not a
    finite real >= 0 (an int or Fraction beyond the float range included).
    The float keeps a Fraction out of numpy, which would compute with object
    arrays."""
    if not (_real(tol) and 0.0 <= tol <= sys.float_info.max):
        raise ParameterOutOfRangeError(f"{name} must be a finite number >= 0, got {tol!r}")
    return float(tol)


def require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1] or not m.shape[0]:
        raise NotSquareError(f"expected a non-empty square matrix, got shape {m.shape}")
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
    """A density matrix on A tensor B together with the factor dimensions.

    The state's real correlation matrix (its realignment in a Hermitian
    basis, ``dim_a**2 x dim_b**2`` doubles) and its singular values are
    computed once per state: the first test, extraction or decomposition
    that needs them stores them here, read-only, for every later use.
    """

    dim_a: int
    dim_b: int
    state: DensityMatrix
    _correlation: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _realignment_values: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def _hermitian(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(h, finite)``: ``(a + a^dag)/2`` of each matrix of a stack, the input
    of every Hermitian eigensolver, and whether it is finite.  a is added into
    a C-ordered copy of ``a^dag`` and halved in place (one new array, in a
    quarter of the time, a zero's sign aside), or halved first on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.conjugate(a.swapaxes(-1, -2), order="C")
        h += a
        h *= 0.5
        if np.isfinite(h).all():
            return h, True
        h = a * 0.5 + _dagger(a) * 0.5
        return h, np.isfinite(h).all()


def _check_hermitian(a: np.ndarray, tol: float) -> None:
    """The Hermiticity check of every density and Choi check:
    NotHermitianError when an entry of ``a - a^dag`` exceeds ``tol`` in
    modulus (a deviation beyond the float range reads inf)."""
    with np.errstate(over="ignore"):
        herm_dev = float(np.abs(a - _dagger(a)).max())
    if herm_dev > tol:
        raise NotHermitianError(herm_dev)


# --- the LAPACK owners ------------------------------------------------------
def _check_positive(a: np.ndarray, tol: float) -> None:
    """The positivity check of every density and Choi check: NotPositiveError
    when the Hermitian part h of ``a`` has an eigenvalue below ``-tol``.  A
    finite Cholesky factor of h with its diagonal shifted by tol (``h +
    tol*I``, a zero's sign aside) passes h at once; only without one do the
    eigenvalues decide, so the verdict differs from theirs only within
    round-off of ``-tol``.  A shift beyond the float range proves nothing."""
    h = _hermitian(a)[0]
    with np.errstate(over="ignore"):
        np.fill_diagonal(h, h.diagonal() + tol)
    try:
        factored = np.isfinite(np.linalg.cholesky(h).diagonal()).all()
    except np.linalg.LinAlgError:
        factored = False
    if not factored:
        # of the unshifted Hermitian part, ascending: the first is the smallest
        min_eig = float(_eigh(a, vectors=False)[0])
        if min_eig < -tol:
            raise NotPositiveError(min_eig)


def _svd(m: np.ndarray, **options):
    """``np.linalg.svd(m, **options)``, raising SvdFailureError when it fails
    or a singular value lies beyond the float range."""
    try:
        out = np.linalg.svd(m, **options)
    except np.linalg.LinAlgError as exc:
        raise SvdFailureError(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(out[1] if isinstance(out, tuple) else out).all():
        raise SvdFailureError("singular values beyond the float range")
    return out


def _eigh(a: np.ndarray, vectors: bool = True):
    """Eigenvalues (ascending) and, if ``vectors``, eigenvectors of the
    Hermitian part of each matrix of a stack; AaqptError naming the routine
    when LAPACK fails or the input (a NaN may yield finite values) or an
    eigenvalue is not finite."""
    routine = "eigh" if vectors else "eigvalsh"
    h, finite = _hermitian(a)
    try:
        out = np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise AaqptError(f"{routine} did not converge: {exc}") from exc
    if not (finite and np.isfinite(out[0] if vectors else out).all()):
        raise AaqptError(f"{routine}: input or eigenvalues beyond the float range")
    return out


def _linear_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``np.linalg.solve(a, b)``, or None where LU meets an exactly zero pivot."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def validate_density(m, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap ``m``.

    The first check that fails raises.  Hermiticity is checked on the raw
    entries, then the trace (one beyond the float range fails), then
    positivity on the Hermitian part ``h`` of ``m`` (:func:`_hermitian`), so that
    round-off in the skew part cannot masquerade as negativity: ``h`` passes
    at once when the Cholesky factorization of ``h + tol*I`` exists, and
    otherwise its eigenvalues decide.  The stored entries are the originals.

    ``tol`` must be a finite number >= 0, else ParameterOutOfRangeError.
    Raises :class:`NotSquareError`, :class:`NotHermitianError`,
    :class:`NotUnitTraceError` or :class:`NotPositiveError`.
    """
    tol = _check_tol(tol)
    a = as_matrix(m)
    dim = require_square(a)
    _check_hermitian(a, tol)
    with np.errstate(over="ignore"):
        tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise NotUnitTraceError(tr)
    _check_positive(a, tol)
    return DensityMatrix(dim=dim, matrix=_frozen(a))


def bipartite(m, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Validate ``m`` as a density matrix on A tensor B, with factor
    dimensions as :func:`_bipartite_matrix` takes them (stored as ``int``)."""
    a = _bipartite_matrix(m, dim_a, dim_b, lambda m: validate_density(m, tol=tol).matrix)
    return BipartiteState(int(dim_a), int(dim_b), DensityMatrix(dim=len(a), matrix=a))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices in the shared index convention.

    The entry at composite row ``i*rows_b + r``, column ``j*cols_b + c``
    equals ``a[i, j] * b[r, c]``.  A product beyond the float range raises
    AaqptError, as a non-finite input does.
    """
    a, b = as_matrix(a), as_matrix(b)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(a, b)
    if not np.isfinite(out).all():
        raise AaqptError("tensor product has entries beyond the float range")
    return out


def _bipartite_matrix(m, dim_a: int, dim_b: int, convert=None) -> np.ndarray:
    """``convert(m)`` (:func:`bipartite` validates a density there) or else
    :func:`as_matrix` of ``m``, square of side dim_a * dim_b.  The factor
    dimensions are integers >= 1 (numpy ones too), else DimensionMismatchError."""
    if not (_integer_in(dim_a, 1) and _integer_in(dim_b, 1)):
        raise DimensionMismatchError(
            f"factor dimensions must be integers >= 1, got {dim_a!r} x {dim_b!r}"
        )
    a = as_matrix(m) if convert is None else convert(m)
    if require_square(a) != dim_a * dim_b:
        raise DimensionMismatchError(
            f"matrix dimension {a.shape[0]} != dim_a * dim_b = {dim_a * dim_b}"
        )
    return a


def _check_subsystem(subsystem: str) -> None:
    if subsystem not in ("A", "B"):
        raise ParameterOutOfRangeError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def _partial_trace_keep(m: np.ndarray, dims: tuple, keep: tuple) -> np.ndarray:
    """The reduced matrix of ``m`` on the subsystems ``keep`` (ascending
    positions in ``dims``, the dimensions of the tensor factors)."""
    # axis i of the reshaped m is factor i's row index, axis n + i its column
    # index; a traced factor's column takes its row's label, so einsum sums
    # over it.  Integer labels serve any number of factors.
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    d = math.prod([dims[i] for i in keep])
    return np.einsum(m.reshape(dims + dims), list(range(n)) + cols, out).reshape(d, d)


def partial_trace_matrix(m, dim_a: int, dim_b: int, subsystem: str) -> np.ndarray:
    """Trace out one factor of a bare bipartite matrix.

    Accepts unnormalized (even non-Hermitian) input; preserves the total
    trace exactly.  ``subsystem`` names the factor that is traced out: "A"
    or "B", else ParameterOutOfRangeError.
    """
    a = _bipartite_matrix(m, dim_a, dim_b)
    _check_subsystem(subsystem)
    return _partial_trace_keep(a, (dim_a, dim_b), (0,) if subsystem == "B" else (1,))


def partial_trace(s: BipartiteState, subsystem: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Reduced state of the factor that is kept."""
    reduced = partial_trace_matrix(s.matrix, s.dim_a, s.dim_b, subsystem)
    return validate_density(reduced, tol=tol)


def partial_transpose_matrix(m, dim_a: int, dim_b: int, subsystem: str) -> np.ndarray:
    """Transpose the indices of one factor ("A" or "B", else
    ParameterOutOfRangeError) of a bare bipartite matrix."""
    t = _bipartite_matrix(m, dim_a, dim_b).reshape(dim_a, dim_b, dim_a, dim_b)
    _check_subsystem(subsystem)
    out = t.transpose(0, 3, 2, 1) if subsystem == "B" else t.transpose(2, 1, 0, 3)
    return out.reshape(dim_a * dim_b, dim_a * dim_b)


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
    return np.where(w > w.shape[-1] * np.finfo(float).eps, w, 0.0)


def _eigen_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v sqrt(w) v^dag`` for each eigenpair stack (..., d) and (..., d, d)
    of a state, its round-off eigenvalues taken as zero."""
    return (v * np.sqrt(_drop_round_off(w))[..., None, :]) @ _dagger(v)


def _root(rho: np.ndarray) -> np.ndarray:
    """Principal square root of each state's Hermitian part, for a stack (..., d, d)."""
    return _eigen_root(*_eigh(rho))


def _fidelity(root: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Root fidelities from ``_root(rho)`` and ``sigma``, both stacks that
    broadcast against each other; a product beyond the float range fails
    in :func:`_eigh`."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = root @ sigma @ root
    return np.sqrt(_drop_round_off(_eigh(inner, vectors=False))).sum(axis=-1)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), sqrt(rho) being
    that of rho's Hermitian part.  Equals 1 iff the states coincide and
    |<psi|phi>| for pure states; symmetric in its arguments to ~1e-10.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    return float(_fidelity(_root(rho.matrix), sigma.matrix))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def trace_distance(a, b) -> float:
    """Half the trace norm of the Hermitian part of ``a - b``; a difference
    or a norm beyond the float range raises AaqptError."""
    a, b = as_matrix(a), as_matrix(b)
    if require_square(a) != require_square(b):
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        norm = np.abs(_eigh(a - b, vectors=False)).sum()
    if not np.isfinite(norm):
        raise AaqptError("trace distance beyond the float range")
    return float(0.5 * norm)
