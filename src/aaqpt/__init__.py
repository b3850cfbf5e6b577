"""Faithfulness tests, realignment-based channel extraction and a
shot-noise tomography simulator for ancilla-assisted process tomography."""

from .qstate import (
    DEFAULT_TOL,
    BipartiteState,
    DensityMatrix,
    bipartite,
    fidelity,
    partial_trace,
    partial_trace_matrix,
    partial_transpose,
    partial_transpose_matrix,
    purity,
    tensor,
    trace_distance,
    validate_density,
)
from .realignment import (
    FaithfulnessVerdict,
    OperatorSchmidtDecomposition,
    SingularSpectrum,
    ccnr_sum,
    is_faithful,
    operator_schmidt,
    ppt_min_eigenvalue,
    realign,
    realign_check,
    realign_check_matrix,
    realign_matrix,
    singular_spectrum,
    swap_operator,
)
from .channel import (
    ChoiMatrix,
    KrausChannel,
    Superoperator,
    apply,
    apply_extended,
    apply_via_choi,
    choi_state,
    devectorize,
    kraus_from_choi,
    make_channel,
    make_choi,
    predict_output,
    propagate,
    superop_to_choi,
    superoperator,
    vectorize,
)
from .extraction import (
    ExtractionResult,
    ReachableReport,
    UnfaithfulnessReport,
    demonstrate_unfaithfulness,
    extract,
    kernel_witness_pair,
    reachable_report,
)
from .catalog import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    horodecki,
    loo_basis,
    max_entangled,
    probe_states,
    sigma_e,
)
from .tomography import (
    Circuit,
    ExperimentReport,
    Gate,
    NoiseModel,
    experiment_circuits,
    linear_inversion,
    run_exact,
    run_experiment,
)

__version__ = "0.1.0"
