"""Recovering complete channel information from an input/output state pair.

If ``rho_out = (channel (x) id)(rho_in)``, the realigned matrices satisfy
``realign(rho_out) = M @ realign(rho_in)`` with ``M = sum_n K_n (x) K_n*``,
so M follows from a linear solve whenever ``realign(rho_in)`` has a right
inverse, i.e. whenever the input is faithful.  One routine, :func:`_solve`,
runs it for :func:`extract`, at the rank of ``realignment.is_faithful``, and
for the experiment, at its batches' ranks by the same rule, so each batch's
M is that of ``extract`` in pseudo mode, bit for bit.  It solves in real
arithmetic, on the pairs' ``realignment._correlation`` (the realignments
in a Hermitian basis, real matrices with the same singular values), and
takes M back with
``realignment._natural``: M and the residual are those of the Hermitian
parts of the two states, and M maps Hermitian operators to Hermitian ones
bit for bit.  A square input of full rank is solved by LU, any other
(truncated singular values, or dA != dB) through the reduced SVD restricted
to the singular values above the threshold, which keeps the tiny singular
values of near-unfaithful inputs from amplifying tomography noise; on an
invertible input both give the same M up to round-off.

For unfaithful inputs, strict mode refuses; pseudo mode truncates the small
singular values and returns the Moore-Penrose solution, which still predicts
outputs correctly for probe operators inside the *probed subspace* -- the
span of the de-vectorized left singular vectors with nonzero singular value.
The orthogonal complement of that span (:func:`reachable_report`) holds the
directions of channel action the state cannot reveal, and
:func:`kernel_witness_pair` turns it into two genuinely different channels
with identical outputs on the state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    KrausChannel,
    Superoperator,
    apply,
    apply_extended,
    kraus_from_choi,
)
from .errors import AaqptError, DimensionMismatchError, NotFaithfulError, ParameterOutOfRangeError
from .catalog import max_entangled, probe_states
from .qstate import BipartiteState, trace_distance, _eigh, _frozen, _linear_solve, _real, _svd
from .realignment import (
    SingularSpectrum,
    is_faithful,
    _correlation,
    _natural,
    _ranks,
    _reshuffle,
    _schmidt_factors,
)


@dataclass(frozen=True)
class ExtractionResult:
    """Extracted superoperator plus diagnostics.

    ``residual`` is ``max|realign(out) - m @ realign(in)|`` on the Hermitian
    parts of the two states -- how well the data is explained;
    ``truncated_count`` is the number of singular values dropped by the
    pseudo-inverse (always 0 in strict mode).  ``choi_eigenvalues``, the
    eigenvalues of the reshuffled Choi matrix, quantify how far the raw map
    is from a completely positive one; the map is reported raw, not
    projected.  They are computed on first read and cached, read-only.
    """

    m: Superoperator
    mode: str
    input_spectrum: SingularSpectrum
    residual: float
    truncated_count: int

    @functools.cached_property
    def choi_eigenvalues(self) -> np.ndarray:
        d = self.m.dim
        return _frozen(_eigh(_reshuffle(self.m.matrix, d, d), vectors=False))


@dataclass(frozen=True)
class ReachableReport:
    """What a given input state can and cannot reveal about a channel.

    ``kernel_basis`` contains Hermitian dim_a x dim_a matrices, orthonormal
    in the Hilbert-Schmidt inner product, spanning the unprobed operator
    subspace.
    """

    spectrum: SingularSpectrum
    kernel_dimension: int
    kernel_basis: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class UnfaithfulnessReport:
    """Distances produced by :func:`demonstrate_unfaithfulness`.

    ``witnessed`` holds when the outputs agree to 1e-9 while the channels
    differ by more than 0.01 on some probe state: two operationally distinct
    channels the input state cannot tell apart.
    """

    output_gap: float
    channel_gap: float
    witnessed: bool


def _right_solve(c_in: np.ndarray, c_out: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """M with ``M @ c_in = c_out`` on the ``ranks[b]`` leading singular
    directions of each pair of float64 stacks (B, rows, cols): one stacked
    LU when every pair is square and of full rank, as faithful inputs are;
    else each pair alone, by the reduced SVD if LU cannot take it
    (rank-deficient, not square, or an exactly zero pivot where an explicit
    threshold kept a round-off singular value)."""
    rows, cols = c_in.shape[-2:]
    if rows == cols and (ranks == rows).all():
        m = _linear_solve(c_in.swapaxes(-1, -2), c_out.swapaxes(-1, -2))
        if m is not None:
            return m.swapaxes(-1, -2)
    if len(c_in) > 1:
        pairs = zip(c_in[:, None], c_out[:, None], ranks[:, None])
        return np.concatenate([_right_solve(*pair) for pair in pairs])
    (rank,) = ranks
    u, s, vt = _svd(c_in[0], full_matrices=False)
    return ((c_out[0] @ (vt[:rank].T / s[:rank])) @ u[:, :rank].T)[None]


def _solve(c_in: np.ndarray, c_out: np.ndarray, ranks: np.ndarray | None = None):
    """``(M, residual)`` of ``realign(out) = M @ realign(in)`` from stacks
    (B, dA^2, dB^2) of the pairs' real correlation matrices, solved as the
    module docstring says; the residual ``c_out - M_r @ c_in`` stays real.
    Without ``ranks``, the rank rule at the default threshold sets them from
    one stacked SVD of ``c_in``, as pseudo-mode :func:`extract` would.
    AaqptError when M is beyond the float range."""
    rows = c_in.shape[-2]
    if ranks is None:
        ranks, _ = _ranks(_svd(c_in, compute_uv=False), rows)
    m = _right_solve(c_in, c_out, ranks)
    d_a = math.isqrt(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        m_natural, residual = _natural(m, d_a, d_a), c_out - m @ c_in
    if not np.isfinite(m_natural).all():
        raise AaqptError("extracted map beyond the float range")
    return m_natural, residual


def extract(
    input_state: BipartiteState,
    output_state: BipartiteState,
    mode: str = "strict",
    threshold: float | None = None,
) -> ExtractionResult:
    """Solve ``realign(out) = M @ realign(in)`` for M.

    ``mode="strict"`` demands a full-rank (faithful) input and raises
    :class:`NotFaithfulError` otherwise; ``mode="pseudo"`` truncates singular
    values at the threshold (the realignment module's default policy unless
    overridden) and reports how many were dropped; any other ``mode`` raises
    ParameterOutOfRangeError.  The solve is :func:`_solve`, LU or the
    reduced SVD in real arithmetic, as the module docstring says.
    """
    if mode not in ("strict", "pseudo"):
        raise ParameterOutOfRangeError(f"mode must be 'strict' or 'pseudo', got {mode!r}")
    if (input_state.dim_a, input_state.dim_b) != (output_state.dim_a, output_state.dim_b):
        raise DimensionMismatchError(
            f"input is {input_state.dim_a} x {input_state.dim_b}, "
            f"output is {output_state.dim_a} x {output_state.dim_b}"
        )
    verdict = is_faithful(input_state, threshold)
    spectrum, rank = verdict.spectrum, verdict.spectrum.rank
    if mode == "strict" and not verdict.faithful:
        raise NotFaithfulError(verdict.kernel_dimension)
    d, d_b = input_state.dim_a, input_state.dim_b
    pairs = (_correlation(s)[None] for s in (input_state, output_state))
    (m,), (residual,) = _solve(*pairs, np.array([rank]))
    return ExtractionResult(
        m=Superoperator(dim=d, matrix=_frozen(m)),
        mode=mode,
        input_spectrum=spectrum,
        residual=float(np.abs(_natural(residual, d, d_b)).max()),
        truncated_count=spectrum.values.size - rank,
    )


def reachable_report(
    input_state: BipartiteState, threshold: float | None = None
) -> ReachableReport:
    """Spectrum, kernel dimension, and an orthonormal basis of the unprobed
    operator subspace of the A factor.

    Spectrum, rank and kernel dimension are those of ``is_faithful``.  The
    basis holds the Hermitian A factors of ``operator_schmidt`` past that
    rank, whose singular values vanish: exactly the operator directions on
    which two channels may differ while producing the same output on this
    state.  A faithful state's basis is empty, and takes no factor SVD.
    """
    verdict = is_faithful(input_state, threshold)
    kernel = slice(verdict.spectrum.rank, None)
    basis = _schmidt_factors(input_state, kernel)[0] if verdict.kernel_dimension else ()
    return ReachableReport(
        spectrum=verdict.spectrum,
        kernel_dimension=verdict.kernel_dimension,
        kernel_basis=tuple(basis),
    )


def demonstrate_unfaithfulness(
    input_state: BipartiteState, ch_a: KrausChannel, ch_b: KrausChannel
) -> UnfaithfulnessReport:
    """Compare two channels through a shared input state and head-on.

    Reports ``max|(ch_a (x) id)(rho) - (ch_b (x) id)(rho)|`` (can the state
    tell the channels apart?) and the maximum trace distance between channel
    outputs over the probe frame (are the channels actually different?).
    """
    if ch_a.dim != input_state.dim_a or ch_b.dim != input_state.dim_a:
        raise DimensionMismatchError(
            f"channels of dim {ch_a.dim}, {ch_b.dim} do not act on dim_a = {input_state.dim_a}"
        )
    out_a = apply_extended(ch_a, input_state)
    out_b = apply_extended(ch_b, input_state)
    output_gap = float(np.abs(out_a.matrix - out_b.matrix).max())
    channel_gap = max(
        trace_distance(apply(ch_a, probe).matrix, apply(ch_b, probe).matrix)
        for probe in probe_states(input_state.dim_a)
    )
    return UnfaithfulnessReport(
        output_gap=output_gap,
        channel_gap=float(channel_gap),
        witnessed=bool(output_gap < 1e-9 and channel_gap > 1e-2),
    )


def kernel_witness_pair(
    input_state: BipartiteState, mixing: float = 0.2, strength: float | None = None
) -> tuple[KrausChannel, KrausChannel]:
    """Construct two distinct channels the input state cannot distinguish.

    The base channel mixes the identity with ``mixing`` worth of complete
    depolarization; its partner additionally damps the unprobed operator
    directions by ``strength``.  The base cannot be the identity channel
    itself: the identity is an extreme point of the channel set, so *no*
    distinct channel agrees with it on the probed subspace -- depolarizing
    admixture opens exactly the slack (``strength <= mixing / d``) that the
    kernel-supported perturbation needs to stay completely positive.

    Raises :class:`ParameterOutOfRangeError` for faithful inputs, which
    distinguish every pair, and for ``mixing`` or ``strength`` not a real in range.
    """
    report = reachable_report(input_state)
    if report.kernel_dimension == 0:
        raise ParameterOutOfRangeError(
            "input state is faithful: every pair of distinct channels is distinguishable"
        )
    d = input_state.dim_a
    if not (_real(mixing) and 0.0 < mixing <= 1.0):
        raise ParameterOutOfRangeError(f"need 0 < mixing <= 1, got {mixing!r}")
    if strength is None:
        strength = 0.9 * float(mixing) / d
    if not (_real(strength) and 0.0 < strength <= mixing / d):
        raise ParameterOutOfRangeError(
            f"need 0 < strength <= mixing/d = {mixing / d:.4g}, got {strength!r}"
        )
    # a Fraction or float32 counts as its float
    mixing, strength = float(mixing), float(strength)
    phi = max_entangled(d, normalized=False)
    choi_base = (1 - mixing) * phi + (mixing / d) * np.eye(d * d)
    # sum_m B (x) B* is invariant under unitary remixes of the kernel basis,
    # and Hermitian because each basis operator B is.
    perturbation = sum(np.kron(b, b.conj()) for b in report.kernel_basis)
    ch_a = kraus_from_choi(choi_base)
    ch_b = kraus_from_choi(choi_base - strength * perturbation)
    return ch_a, ch_b
