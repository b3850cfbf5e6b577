"""Independent references and output checkers for the benchmark.

Everything here is plain numpy, written apart from the ``aaqpt`` package:
a reference built from the package's own code could not catch its faults.
Each checker raises :class:`CheckError` naming the first violation it finds.

Conventions match the package's documented ones, re-derived here: the
composite index of ``|i>_A |k>_B`` is ``i * dB + k``, and a channel with
Kraus operators ``K_n`` acts on row-vectorized matrices as
``M = sum_n K_n (x) conj(K_n)``.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULIS = (I2, X, Y, Z)

#: Floor for every per-batch probe fidelity of the noisy experiment.  With
#: 1024 shots per setting and batch the fidelities centre near 0.99 with a
#: spread of about 0.01; 0.9 lies many spreads below anything shot noise
#: produces, yet far above what a wrong map gives (0.5 and below).
PROBE_FIDELITY_FLOOR = 0.9

#: How far above 1 a computed root fidelity may lie.  The root fidelity is
#: a sum of square roots of eigenvalues; for a near-pure predicted state
#: three of them vanish, and eigvalsh leaves each with round-off of order
#: 1e-15, whose square root is about 3e-8.  Values up to 1 + 5.9e-9 were
#: seen (2 of 150000 probe fidelities above 1); 1e-6 still rejects every
#: fidelity a wrong map or a wrong formula gives.
FIDELITY_ROUNDOFF = 1e-6


class CheckError(AssertionError):
    """An operation's output disagrees with its reference or property."""


# ---------------------------------------------------------------- builders


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr from a Ginibre G."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_kraus(d: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators sliced from a random (d*count) x d isometry."""
    g = rng.normal(size=(d * count, d)) + 1j * rng.normal(size=(d * count, d))
    q, _ = np.linalg.qr(g)
    return [q[n * d : (n + 1) * d, :] for n in range(count)]


def kraus_superop(kraus) -> np.ndarray:
    """sum_n K_n (x) conj(K_n)."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def apply_on_a(kraus, rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """sum_n (K_n (x) I) rho (K_n (x) I)^dag, contracted on the A index."""
    t = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    out = sum(
        np.einsum("akjl,bj->akbl", np.einsum("ai,ikjl->akjl", k, t), k.conj())
        for k in kraus
    )
    return out.reshape(dim_a * dim_b, dim_a * dim_b)


def realign(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """R[(i,j),(k,l)] = rho[(i,k),(j,l)]."""
    t = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return t.transpose(0, 2, 1, 3).reshape(dim_a * dim_a, dim_b * dim_b)


def bitflip_superop() -> np.ndarray:
    """The analytic superoperator (I (x) I + X (x) X) / 2 of the bit flip."""
    return (np.kron(I2, I2) + np.kron(X, X)) / 2


def sigma_e_matrix(p: float) -> np.ndarray:
    """p proj(|00>+|11>)/2 + (1-p) proj(|00>+|22>)/2 on two qutrits."""
    e = np.eye(3)
    v1 = np.kron(e[0], e[0]) + np.kron(e[1], e[1])
    v2 = np.kron(e[0], e[0]) + np.kron(e[2], e[2])
    return (p * np.outer(v1, v1) + (1 - p) * np.outer(v2, v2)) / 2


def sigma_e_spectrum(p: float) -> np.ndarray:
    """The paper's realignment spectrum of sigma_E, sorted descending:
    {1/2, p/2 x3, (1-p)/2 x3, 0, 0}."""
    values = [0.5] + [p / 2] * 3 + [(1 - p) / 2] * 3 + [0.0, 0.0]
    return np.sort(np.array(values))[::-1]


def state_document(rho: np.ndarray, dim_a: int, dim_b: int) -> dict:
    """The bipartite-state wire format: dims plus rows of [re, im] pairs."""
    return {
        "dims": [dim_a, dim_b],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


def matrix_from_document(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


# ------------------------------------------------------ experiment circuit


def _on_qubits(ops: dict[int, np.ndarray], n: int = 3) -> np.ndarray:
    """Kronecker product with ops[q] on qubit q (q0 most significant)."""
    full = np.eye(1, dtype=complex)
    for q in range(n):
        full = np.kron(full, ops.get(q, I2))
    return full


def _cnot(control: int, target: int) -> np.ndarray:
    p0 = np.diag([1, 0]).astype(complex)
    p1 = np.diag([0, 1]).astype(complex)
    return _on_qubits({control: p0}) + _on_qubits({control: p1, target: X})


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], lam: float) -> np.ndarray:
    """(1 - lam) rho + lam * (Pauli twirl over the qubits), the twirl being
    the average of P rho P over all 4^k Pauli strings on them."""
    if lam == 0.0:
        return rho
    twirl = np.zeros_like(rho)
    strings = [{}]
    for q in qubits:
        strings = [{**s, q: p} for s in strings for p in PAULIS]
    for s in strings:
        u = _on_qubits(s)
        twirl += u @ rho @ u.conj().T
    return (1 - lam) * rho + lam * twirl / len(strings)


def register_states(lam_1q: float, lam_2q: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact noisy states of the register (q0, q1) at the end of the input
    circuit and of the full circuit.

    Input circuit: H q0, CNOT q0->q1, then identity gates on q0, q1, q0, q1.
    The full circuit appends H q2 and CNOT q2->q0.  After every gate its
    qubits are depolarized: with lam_1q after H and I, jointly with lam_2q
    after a CNOT.  q2 is traced out at the end.
    """
    prep = [("H", (0,)), ("CNOT", (0, 1))] + [("I", (q,)) for q in (0, 1, 0, 1)]
    full = prep + [("H", (2,)), ("CNOT", (2, 0))]

    def run(gates) -> np.ndarray:
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        for kind, qubits in gates:
            if kind == "CNOT":
                u, lam = _cnot(*qubits), lam_2q
            else:
                u, lam = _on_qubits({qubits[0]: H if kind == "H" else I2}), lam_1q
            rho = _depolarize(u @ rho @ u.conj().T, qubits, lam)
        return np.einsum("aibi->ab", rho.reshape(4, 2, 4, 2))

    return run(prep), run(full)


def shot_noise_bound(shots_per_setting: int, z: float = 5.0) -> float:
    """z times the rms Frobenius error of two-qubit linear inversion.

    Each of the 9 correlators comes from one setting (variance <= 1/N), each
    of the 6 local expectations averages three settings (<= 1/(3N)); with
    rho = sum c_P P / 4 and |P|_F^2 = 4 the squared Frobenius error has mean
    at most (9/N + 6/(3N)) / 4 = 11 / (4N).  Measured deviations after the
    physical projection stay below 2 rms over 6000 batches.
    """
    return z * float(np.sqrt(11.0 / (4.0 * shots_per_setting)))


# ---------------------------------------------------------------- checkers


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_close(name: str, got, want, tol: float) -> None:
    got, want = np.asarray(got), np.asarray(want)
    check(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    dev = float(np.abs(got - want).max()) if got.size else 0.0
    check(dev <= tol, f"{name}: max deviation {dev:.3g} > {tol:.3g}")


def check_density(name: str, m: np.ndarray, tol: float = 1e-9) -> None:
    """Hermitian, unit trace and PSD within tol."""
    m = np.asarray(m)
    herm = float(np.abs(m - m.conj().T).max())
    check(herm <= tol, f"{name}: not Hermitian ({herm:.3g})")
    tr = complex(np.trace(m))
    check(abs(tr - 1) <= tol, f"{name}: trace {tr} != 1")
    low = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    check(low >= -tol, f"{name}: negative eigenvalue {low:.3g}")
