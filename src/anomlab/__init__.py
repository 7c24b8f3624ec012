"""Regularized determinants, determinant lines, CAR/Fock quantization,
groupoid central extensions, and nerve cohomology over finite models.

The finite-dimensional setting keeps every Schatten class trivial as a set,
so the point of the package is the structure carried along: regularization
order bookkeeping for det_p, the multiplicativity cocycle omega_p twisting
the determinant line, exact-arithmetic phase cocycles over action
groupoids, and Smith-normal-form cohomology that compares extension
classes. See the cli module for the command-line entry points.
"""

from .errors import (
    AnomlabError,
    CapacityError,
    ChartSingularityError,
    CocycleError,
    CoverMembershipError,
    DescentError,
    DivergenceError,
    DomainError,
    ExtensionError,
    FloatOverflowError,
    FormatError,
    FrameError,
    GapError,
    GroupoidAxiomError,
    InternalConsistencyError,
    InvalidOrderError,
    MissingValueError,
    ShapeError,
    SingularDeterminantError,
    SingularTransformError,
    SizeError,
    SymmetryError,
    UnsupportedCoefficientsError,
)
from .fock import (
    FockOperator,
    FockSpace,
    SpectralBackground,
    VacuumLine,
    apply_creation,
    bogoliubov_implement,
    build_car,
    creation,
    d_gamma,
    gerbe_triple_check,
    schwinger_over_backgrounds,
    schwinger_term,
    vacuum,
    vacuum_at_level,
    vacuum_line,
)
from .grassmann import (
    DetLineElement,
    Frame,
    alpha_ratio,
    canonical_section,
    detline_act,
    frame_act,
    standard_frame,
    w_plus,
)
from .groupoid import (
    CentralExtension,
    FiniteGroup,
    FiniteGroupoid,
    LocalExtensionData,
    PhaseCocycle,
    action_groupoid,
    axioms_check,
    central_extend,
    centrality_check,
    coboundary_twist,
    cocycle_check,
    glue_local_data,
    groupoid_from_compose,
    validate_local_data,
    zero_cocycle,
)
from .linalg import (
    Polarization,
    hermitian_eigensystem,
    matrix_exponential,
    sign_commutator,
)
from .nerve import (
    CohomologyClass,
    CohomologyGroup,
    Nerve,
    coboundary_matrix,
    cohomology_group,
    extension_class,
    nerve,
)
from .regdet import (
    RegDet,
    det_p,
    dual_route_gap,
    gamma_p,
    log_det_p_series,
    omega_p,
)
from .suites import Report, run_suite, run_suites

__version__ = "0.1.0"
