"""P1 finite elements for an obstacle-type elliptic variational inequality,
the quadratic cost over distributed controls, and convergence experiments."""

from .assembly import (
    assemble_boundary_flux,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    boundary_l2_norm,
    coercivity_constant,
    h1_norm,
    l2_norm,
)
from .control import ControlProblem, CostParams, CostReport, OptimizerResult
from .mesh import (
    Mesh,
    build_rectangle_mesh,
    interpolate,
    prolongate,
    refine_uniform,
)
from .vi import (
    ObstacleProblem,
    SolverError,
    VISolution,
    solve_pdas,
    solve_psor,
)

__version__ = "0.1.0"
