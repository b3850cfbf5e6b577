"""Every public entry point checks what a caller passes in through the
input-rule owners of ``aaqpt.qstate``: bad matrices, dimensions, parameters
and tolerances raise a typed AaqptError, never a bare numpy or Python
exception, and never come back as a wrong or empty result."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aaqpt import serialize
from aaqpt.catalog import horodecki, loo_basis, max_entangled, sigma_e
from aaqpt.channel import (
    devectorize,
    kraus_from_choi,
    make_channel,
    make_choi,
    vectorize,
)
from aaqpt.errors import (
    AaqptError,
    DimensionMismatchError,
    MissingBasisError,
    MixedDimensionsError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotTracePreservingError,
    NotUnitTraceError,
    ParameterOutOfRangeError,
)
from aaqpt.extraction import extract, kernel_witness_pair, reachable_report
from aaqpt.qstate import (
    as_matrix,
    bipartite,
    fidelity,
    partial_trace,
    partial_trace_matrix,
    partial_transpose_matrix,
    tensor,
    trace_distance,
    validate_density,
)
from aaqpt.realignment import (
    is_faithful,
    realign_check_matrix,
    realign_matrix,
    singular_spectrum,
    swap_operator,
)
from aaqpt.tomography import (
    Circuit,
    Gate,
    NoiseModel,
    linear_inversion,
    project_to_state,
    run_exact,
    run_experiment,
)

MIXED = np.eye(4) / 4
BELL = max_entangled(2)

# Calls outside their function's domain that a missing check would let
# through as a bare TypeError or ValueError, or as a wrong or empty matrix.
ESCAPES = [
    (lambda: realign_matrix(np.eye(4), 2.0, 2.0), DimensionMismatchError),
    (lambda: realign_matrix(np.eye(4), True, 4), DimensionMismatchError),
    (lambda: realign_check_matrix(np.eye(4), 2.0), DimensionMismatchError),
    (lambda: partial_trace_matrix(np.eye(4), -2, -2, "A"), DimensionMismatchError),
    (lambda: partial_trace_matrix(np.eye(4), 2.0, 2.0, "A"), DimensionMismatchError),
    (lambda: partial_transpose_matrix(np.eye(4), -2, -2, "B"), DimensionMismatchError),
    (lambda: partial_transpose_matrix(np.eye(4), 2.0, 2.0, "B"), DimensionMismatchError),
    (lambda: swap_operator(-1), ParameterOutOfRangeError),
    (lambda: swap_operator(0), ParameterOutOfRangeError),
    (lambda: swap_operator(2.5), ParameterOutOfRangeError),
    (lambda: max_entangled(2.5), ParameterOutOfRangeError),
    (lambda: loo_basis(2.5), ParameterOutOfRangeError),
    (lambda: sigma_e("0.5"), ParameterOutOfRangeError),
    (lambda: sigma_e(True), ParameterOutOfRangeError),
    (lambda: horodecki(None), ParameterOutOfRangeError),
    (lambda: kernel_witness_pair(sigma_e(0.5), mixing="0.2"), ParameterOutOfRangeError),
    (lambda: kernel_witness_pair(sigma_e(0.5), mixing=True), ParameterOutOfRangeError),
    (lambda: kernel_witness_pair(sigma_e(0.5), strength="x"), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol=None), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol="1e-3"), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol=True), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol=10**400), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol=Fraction(10**400, 3)), ParameterOutOfRangeError),
    (lambda: validate_density(MIXED, tol=Fraction(-1, 10**400)), ParameterOutOfRangeError),
    (lambda: make_choi(np.eye(4) / 2, tol=None), ParameterOutOfRangeError),
    (lambda: is_faithful(BELL, threshold="x"), ParameterOutOfRangeError),
    (lambda: singular_spectrum(MIXED, threshold=[1]), ParameterOutOfRangeError),
    (lambda: extract(BELL, BELL, threshold="x"), ParameterOutOfRangeError),
    (lambda: validate_density([["a"]]), AaqptError),
    (lambda: validate_density([[1, 0], [0]]), AaqptError),
    (lambda: make_channel([[["a"]]]), AaqptError),
    (lambda: make_channel([np.zeros((0, 0))]), NotSquareError),
    (lambda: make_channel(5), MixedDimensionsError),
    (lambda: make_channel(np.array(5)), MixedDimensionsError),
    (lambda: make_channel(None), MixedDimensionsError),
    (lambda: Gate("H", 5), ParameterOutOfRangeError),
    (lambda: Gate("H", np.array(0)), ParameterOutOfRangeError),
    (lambda: run_exact(Circuit(1, ()), NoiseModel(), np.array(0)), ParameterOutOfRangeError),
    (lambda: project_to_state(np.array([["a", "b"], ["c", "d"]])), AaqptError),
    (lambda: devectorize([np.nan] * 4), AaqptError),
    (lambda: devectorize([]), NotSquareError),
    (lambda: tensor("a", 1), AaqptError),
    (lambda: tensor([[np.nan]], np.eye(2)), AaqptError),
    (lambda: tensor([[1e42]], [[1e267]]), AaqptError),
    (lambda: serialize.matrix_to_json("ab"), AaqptError),
    # sums and differences beyond the float range
    (lambda: linear_inversion(np.full((9, 4), 1e308)), MissingBasisError),
    (lambda: validate_density(np.diag([1e308, 1e308])), NotUnitTraceError),
    (lambda: validate_density([[1e308, 0], [0, -1e308]]), NotUnitTraceError),
    (lambda: validate_density([[0, 1e308], [-1e308, 0]]), NotHermitianError),
    (lambda: validate_density(np.diag([1e308, -1e308, 1.0])), NotPositiveError),
    (lambda: make_choi(np.diag([1e308, -1e308, 1, 1])), NotPositiveError),
    (lambda: make_choi(np.diag([1e308] * 4)), NotTracePreservingError),
    (lambda: kraus_from_choi(np.diag([1e308] * 4)), NotTracePreservingError),
    (lambda: make_channel([np.full((2, 2), 1e200)]), NotTracePreservingError),
    (lambda: trace_distance(np.diag([1e308, 0]), np.diag([-1e308, 0])), AaqptError),
    (lambda: trace_distance([[1e308, 1e308], [1e308, 1e308]], np.zeros((2, 2))), AaqptError),
    # singular values beyond the float range
    (lambda: singular_spectrum(np.full((3, 3), 1e308)), AaqptError),
    # a Cholesky shift beyond the float range, once read as positive
    (lambda: validate_density([[1.7e308, 1.7e308], [1.7e308, -1.6e308]], tol=1.7e308), AaqptError),
    # a product of the roots beyond the float range, once read as fidelity 0
    (lambda: fidelity(*[validate_density([[0.5, 1e200], [1e200, 0.5]], tol=1e300)] * 2), AaqptError),
]


@pytest.mark.parametrize("call, error", ESCAPES)
def test_bad_input_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_a_fraction_counts_as_its_float():
    assert np.array_equal(horodecki(Fraction(1, 2)).matrix, horodecki(0.5).matrix)
    assert np.array_equal(sigma_e(Fraction(1, 3)).matrix, sigma_e(1 / 3).matrix)
    tol = Fraction(1, 10**9)
    assert np.array_equal(validate_density(MIXED, tol=tol).matrix, MIXED)
    assert make_choi(np.eye(4) / 2, tol=tol).dim == 2
    assert make_channel([np.eye(2)], tol=tol).dim == 2
    assert is_faithful(BELL, threshold=Fraction(1, 4)).spectrum.threshold == 0.25


def report_text(shots, noise):
    return json.dumps(serialize.report_to_json(run_experiment(shots, 2, 0, noise)))


def test_noise_and_witness_parameters_count_as_their_floats():
    # a Fraction kept in the model would reach the report, which json cannot encode
    assert NoiseModel(Fraction(1, 100), 0.03) == NoiseModel(0.01, 0.03)
    assert report_text(64, NoiseModel(Fraction(1, 100), 0.03)) == report_text(
        64, NoiseModel(0.01, 0.03)
    )
    # float32 weights would fail the unit-trace check
    single = np.float32(0.01)
    assert report_text(1024, NoiseModel(single, 0.03)) == report_text(
        1024, NoiseModel(float(single), 0.03)
    )
    # a float32 mixing would fail the trace-preservation check
    pair = kernel_witness_pair(sigma_e(0.5), np.float32(0.2))
    twin = kernel_witness_pair(sigma_e(0.5), float(np.float32(0.2)))
    for ch, ref in zip(pair, twin):
        assert all(np.array_equal(k, r) for k, r in zip(ch.kraus, ref.kraus))


# ------------------------------------------------------------------ fuzz

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.integers(-3, 6).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.fractions(),
    st.fractions(0, 1),
    st.complex_numbers(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
)

# matrices up to 6 x 6 of numbers (NaN and infinities included) or of junk,
# square or not, plus ragged rows and bare scalars
ENTRY = st.one_of(st.floats(), st.complex_numbers(), st.integers(-(2**70), 2**70))
MATRICES = st.one_of(
    SCALARS,
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=1, max_size=6)
    ),
    st.lists(st.lists(st.one_of(ENTRY, SCALARS), max_size=4), max_size=4),
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d),
            min_size=d * d,
            max_size=d * d,
        )
    ),
)


def typed_or_returns(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except AaqptError:
        pass


@given(m=MATRICES, dim_a=SCALARS, dim_b=SCALARS, subsystem=st.sampled_from(["A", "B", "C"]))
def test_bipartite_matrix_entry_points(m, dim_a, dim_b, subsystem):
    typed_or_returns(realign_matrix, m, dim_a, dim_b)
    typed_or_returns(realign_check_matrix, m, dim_a)
    typed_or_returns(partial_trace_matrix, m, dim_a, dim_b, subsystem)
    typed_or_returns(partial_transpose_matrix, m, dim_a, dim_b, subsystem)
    typed_or_returns(bipartite, m, dim_a, dim_b)


@given(m=MATRICES, other=MATRICES, tol=SCALARS)
def test_matrix_entry_points(m, other, tol):
    typed_or_returns(as_matrix, m)
    typed_or_returns(validate_density, m, tol=tol)
    typed_or_returns(singular_spectrum, m, threshold=tol)
    typed_or_returns(make_channel, [m], tol=tol)
    typed_or_returns(make_choi, m, tol=tol)
    typed_or_returns(kraus_from_choi, m, tol=tol)
    typed_or_returns(project_to_state, m)
    typed_or_returns(vectorize, m)
    typed_or_returns(devectorize, m)
    typed_or_returns(tensor, m, other)
    typed_or_returns(trace_distance, m, other)
    typed_or_returns(serialize.matrix_to_json, m)


@given(value=SCALARS)
def test_scalar_entry_points(value):
    typed_or_returns(swap_operator, value)
    typed_or_returns(max_entangled, value)
    typed_or_returns(loo_basis, value)
    typed_or_returns(sigma_e, value)
    typed_or_returns(horodecki, value)
    typed_or_returns(kernel_witness_pair, sigma_e(0.5), mixing=value)
    typed_or_returns(kernel_witness_pair, sigma_e(0.5), strength=value)
    typed_or_returns(is_faithful, BELL, threshold=value)
    typed_or_returns(reachable_report, BELL, threshold=value)
    typed_or_returns(extract, BELL, BELL, mode="pseudo", threshold=value)
    typed_or_returns(partial_trace, BELL, "A", tol=value)
    typed_or_returns(validate_density, MIXED, tol=value)


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=4), children, max_size=3)
    ),
    max_leaves=20,
)
WIRE_MATRIX = st.one_of(
    JSON,
    st.lists(st.lists(st.lists(JSON, min_size=2, max_size=2), max_size=4), max_size=4),
)
DOCUMENTS = st.one_of(
    JSON,
    st.fixed_dictionaries({"dims": JSON, "matrix": WIRE_MATRIX}),
    st.fixed_dictionaries({"dims": st.lists(JSON, min_size=2, max_size=2), "matrix": WIRE_MATRIX}),
    st.fixed_dictionaries({"dim": JSON, "matrix": WIRE_MATRIX}),
    st.fixed_dictionaries({"dim": JSON, "kraus": st.lists(WIRE_MATRIX, max_size=3)}),
)


@given(doc=DOCUMENTS)
def test_json_loaders(doc):
    # through a JSON round trip, as the loaders meet their documents
    doc = json.loads(json.dumps(doc))
    typed_or_returns(serialize.state_from_json, doc)
    typed_or_returns(serialize.density_from_json, doc)
    typed_or_returns(serialize.channel_from_json, doc)
    typed_or_returns(serialize.superop_from_json, doc)
