"""Two-grid P1 finite elements for semilinear elliptic interface problems."""

from .mesh import (
    InterfaceNotResolved,
    InvalidSubdivision,
    Mesh,
    MeshError,
    ValidationError,
    generate_interface_mesh,
    refine_uniform,
    validate_mesh,
)
from .assembly import (
    DegenerateTriangle,
    FemFunction,
    NotAVertex,
    apply_dirichlet,
    assemble_interface_flux,
    assemble_load,
    assemble_point_load,
    assemble_reaction_jacobian,
    assemble_semilinear_residual,
    assemble_stiffness,
)
from .problems import (
    BUILTIN_PROBLEMS,
    ManufacturedSolution,
    NoFiniteBarrier,
    Nonlinearity,
    PointSource,
    Problem,
    UnknownProblem,
    builtin_problem,
    compute_barriers,
    manufactured_interface_problem,
)
from .solvers import (
    CoarseHierarchy,
    LineSearchStall,
    NewtonOptions,
    NoConvergence,
    SolveReport,
    VCycle,
    make_initial_guess,
    newton_solve,
    newton_step,
    pcg_solve,
)
from .twogrid import (
    InvalidRegularity,
    NotNested,
    TwoGridResult,
    linearized_solve,
    nested_newton_solve,
    newton_levels,
    prolongate,
    select_coarse_size,
    two_grid_solve,
)
from .analysis import (
    AngleReport,
    BoundaryNotZero,
    ConvergenceReport,
    DegenerateDenominator,
    ErrorRecord,
    LinfReport,
    ZeroError,
    check_angle_condition,
    convergence_report,
    energy_norm,
    error_norms,
    estimate_eoc,
    grad_l2_norm,
    ladyzhenskaya_margin,
    ladyzhenskaya_margin_formula,
    linf_check,
    lp_norm,
    twogrid_bound_ratio,
)

__version__ = "0.1.0"
