"""Quantum pipeline for the 1D Poisson equation on a statevector simulator.

The package builds the full solver circuit - state preparation, phase
estimation against an eigenvalue-amplified fixed-point encoding, the
ancilla rotation that loads reciprocal eigenvalues, and uncomputation -
then executes it exactly or by sampling, and reports solution vectors,
success probabilities, and hardware resource estimates.
"""

from .analytics import (
    ResourceReport,
    SolveRecord,
    analytic_success_probability,
    empirical_success_probability,
    expected_success_probability,
    relative_error,
    resource_report,
    solve,
    sweep_record,
)
from .circuit import (
    Circuit,
    Gate,
    RegisterLayout,
    build_phase_verification,
    build_pipeline,
)
from .encoding import (
    AngleTable,
    FixedPointFormat,
    amplify_encode,
    angle_coefficient,
    build_angle_table,
    decode_fraction,
    default_format,
    distinguishing_prefix,
    effective_lambda,
    encode_angle,
    prune_zero_columns,
)
from .errors import (
    CollisionError,
    EncodingError,
    PostselectionError,
    QPoissonError,
    ResourceError,
)
from .model import (
    EigenData,
    PoissonSystem,
    build_matrix,
    eigenpairs,
    exact_solve,
    load_system,
)
from .noise import (
    ReadoutModel,
    calibration_matrix,
    corrupt,
    fidelity_estimate,
    mitigate,
)
from .simulator import (
    RunResult,
    Statevector,
    postselect,
    register_probabilities,
    run_exact,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AngleTable",
    "Circuit",
    "CollisionError",
    "EigenData",
    "EncodingError",
    "FixedPointFormat",
    "Gate",
    "PoissonSystem",
    "PostselectionError",
    "QPoissonError",
    "ReadoutModel",
    "RegisterLayout",
    "ResourceError",
    "ResourceReport",
    "RunResult",
    "SolveRecord",
    "Statevector",
    "amplify_encode",
    "analytic_success_probability",
    "angle_coefficient",
    "build_angle_table",
    "build_matrix",
    "build_phase_verification",
    "build_pipeline",
    "calibration_matrix",
    "corrupt",
    "decode_fraction",
    "default_format",
    "distinguishing_prefix",
    "effective_lambda",
    "eigenpairs",
    "empirical_success_probability",
    "encode_angle",
    "exact_solve",
    "expected_success_probability",
    "fidelity_estimate",
    "load_system",
    "mitigate",
    "postselect",
    "prune_zero_columns",
    "register_probabilities",
    "relative_error",
    "resource_report",
    "run_exact",
    "sample",
    "solve",
    "sweep_record",
]
