"""Three-qubit squeezed thermal damping channels with memory, and genuine
multipartite entanglement quantification for their outputs."""

from .channel import (
    CpViolationError,
    LindbladSpec,
    SgadParams,
    apply_correlated,
    apply_memory,
    apply_uncorrelated,
    asymptotic_state,
    choi_matrix,
    integrate_master,
    kraus_single,
)
from .linalg import (
    BIPARTITIONS,
    CUT_A,
    CUT_B,
    CUT_C,
    Bipartition,
    hermitian_eigenvalues,
    partial_transpose,
    tensor,
    trace_norm,
)
from .sdp import SdpProblem, SdpSolution, solve
from .states import (
    FAMILIES,
    StateValidationError,
    load_state,
    make_noisy,
    make_pure,
    save_state,
    validate,
)
from .witness import (
    CriterionReport,
    GmnReport,
    ScanResult,
    asymptotic_ghz1_criterion,
    gmn,
    is_ppt,
    negativity,
    threshold_scan,
    xstate_criterion,
)

__version__ = "0.1.0"
