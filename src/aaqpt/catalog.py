"""Named states, probe frames and operator bases used throughout the tests
and the CLI.

The two 9 x 9 families here are the stock counterexamples showing that
entanglement does not guarantee faithfulness: ``sigma_e`` is entangled for
every parameter value yet its realignment always has (at least) two zero
singular values, and ``horodecki`` is bound entangled (PPT) with exactly one
zero singular value.  Neither admits channel extraction.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterOutOfRangeError, UnsupportedDimensionError
from .qstate import BipartiteState, DensityMatrix, bipartite, validate_density, _integer_in, _real

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def max_entangled(d: int, normalized: bool = True):
    """Maximally entangled state on two d-level systems.

    Normalized, returns a valid :class:`BipartiteState` with trace one;
    unnormalized, returns the raw projector ``sum_{ij} |ii><jj|`` of trace d.
    ``d`` is an integer >= 2.
    """
    if not _integer_in(d, 2):
        raise ParameterOutOfRangeError(f"need d >= 2, got {d!r}")
    phi = np.eye(d, dtype=complex).reshape(-1)
    if not normalized:
        return _projector(phi)
    return bipartite(_projector(phi) / d, d, d)


def sigma_e(p: float) -> BipartiteState:
    """Two-qutrit mixture of two maximally entangled qubit-like pairs that
    share the |00> component:

        p * proj(|00> + |11>)/2  +  (1-p) * proj(|00> + |22>)/2.

    Entangled for every p in [0, 1], but its realignment spectrum
    {1/2, p/2, (1-p)/2, p/2, p/2, 0, (1-p)/2, 0, (1-p)/2} always contains
    two zeros, so the state is never faithful.  ``p`` is a real in [0, 1].
    """
    if not (_real(p) and 0.0 <= p <= 1.0):
        raise ParameterOutOfRangeError(f"need 0 <= p <= 1, got {p!r}")
    p = float(p)  # a Fraction counts as its float
    v1 = np.zeros(9, dtype=complex)
    v1[0] = v1[4] = 1.0  # |00> + |11>
    v2 = np.zeros(9, dtype=complex)
    v2[0] = v2[8] = 1.0  # |00> + |22>
    m = p * _projector(v1) / 2 + (1 - p) * _projector(v2) / 2
    return bipartite(m, 3, 3)


def horodecki(a: float) -> BipartiteState:
    """The 3 x 3 bound entangled family, real parameter 0 < a < 1.

    PPT (so undetectable by partial transposition) yet entangled; its
    realignment has exactly one zero singular value, so it is unfaithful.
    """
    if not (_real(a) and 0.0 < a < 1.0):
        raise ParameterOutOfRangeError(f"need 0 < a < 1, got {a!r}")
    a = float(a)  # a Fraction counts as its float; np.sqrt takes none
    b = (1 + a) / 2
    c = np.sqrt(1 - a * a) / 2
    m = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        m[i, i] = a
    m[6, 6] = b
    m[8, 8] = b
    m[0, 4] = m[4, 0] = a
    m[0, 8] = m[8, 0] = a
    m[4, 8] = m[8, 4] = a
    m[6, 8] = m[8, 6] = c
    return bipartite(m / (8 * a + 1), 3, 3)


_KET0 = np.array([1, 0], dtype=complex)
_KET1 = np.array([0, 1], dtype=complex)
_QUBIT_PROBES = (
    ("0", _KET0),
    ("1", _KET1),
    ("plus", (_KET0 + _KET1) / np.sqrt(2)),
    ("minus", (_KET0 - _KET1) / np.sqrt(2)),
    ("L", (_KET0 + 1j * _KET1) / np.sqrt(2)),
    ("R", (_KET0 - 1j * _KET1) / np.sqrt(2)),
)

PROBE_NAMES_QUBIT = tuple(name for name, _ in _QUBIT_PROBES)


def _qutrit_mub_vectors() -> list[np.ndarray]:
    # Computational basis plus the three Fourier-type bases
    # v[j] = omega^(m j^2 + k j)/sqrt(3); the four bases are mutually
    # unbiased and their 12 projectors span the full operator space.
    omega = np.exp(2j * np.pi / 3)
    vectors = [np.eye(3, dtype=complex)[:, k] for k in range(3)]
    for m in range(3):
        for k in range(3):
            v = np.array([omega ** ((m * j * j + k * j) % 3) for j in range(3)])
            vectors.append(v / np.sqrt(3))
    return vectors


def probe_states(d: int) -> list[DensityMatrix]:
    """Informationally complete pure probe frames.

    d=2: the six Pauli eigenstates in the order 0, 1, plus, minus, L, R
    (L and R are the +1 and -1 eigenstates of Y).  d=3: the 12 states of the
    four mutually unbiased qutrit bases.
    """
    if d == 2:
        return [validate_density(_projector(v)) for _, v in _QUBIT_PROBES]
    if d == 3:
        return [validate_density(_projector(v)) for v in _qutrit_mub_vectors()]
    raise UnsupportedDimensionError(f"probe frames exist for d in {{2, 3}}, got {d}")


def loo_basis(d: int) -> list[np.ndarray]:
    """Hermitian operator basis orthonormal under <A, B> = tr(A B).

    Normalized identity, then for each index pair the symmetric and
    antisymmetric off-diagonal generators, then the diagonal ones (the
    generalized Gell-Mann construction).  For d=2 this is exactly
    {I, X, Y, Z} / sqrt(2).  ``d`` is an integer >= 2.
    """
    if not _integer_in(d, 2):
        raise ParameterOutOfRangeError(f"need d >= 2, got {d!r}")
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / np.sqrt(2)
            ops.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j / np.sqrt(2)
            anti[k, j] = 1j / np.sqrt(2)
            ops.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        ops.append(diag / np.sqrt(l * (l + 1)))
    return ops
