"""Mixed-precision two-grid/multigrid solvers with certified rounding-error bounds.

The package has three layers: :mod:`mixedmg.precision` emulates reduced
floating-point formats with kernels that return their rounded values;
:mod:`mixedmg.linops`, :mod:`mixedmg.hierarchy` and :mod:`mixedmg.cycles`
provide the instrumented two-grid/V-cycle solvers on normalized
model-problem hierarchies; :mod:`mixedmg.bounds` states each kernel's error
model and evaluates the closed-form error constants, and
:mod:`mixedmg.harness` validates them empirically on randomized trials.
"""

from .bounds import (BoundInputs, BoundReport, PROOF_LINES, compute_constants,
                     gamma_constants, per_line_bounds, progressive_epsilon)
from .cycles import (ContractionError, CoarseSolver, CycleTrace, RelaxationOp,
                     make_exact_coarse, make_jacobi, make_perturbed_coarse,
                     make_recursive_coarse, make_richardson, rho_star, tg_cycle,
                     v_cycle)
from .harness import (ExperimentConfig, TrialRecord, load_config, progressive_study,
                      run_experiment, validate_csv, write_csv)
from .hierarchy import GridLevel, StructureError, build_multilevel, condition_number
from .linops import SparseSpd, SpdError, energy_norm, solve_spd
from .precision import (CARRIER, CARRIER_BITS, PrecisionFormat, PrecisionTooLowError,
                        PrecisionUnachievableError, RoundedResult, mdot_plus_eps,
                        quantize_vector, rounded_add_sub, rounded_matvec,
                        rounded_residual)

# the public names; the submodules stay out of ``from mixedmg import *``
__all__ = [
    "BoundInputs", "BoundReport", "CARRIER", "CARRIER_BITS", "CoarseSolver",
    "ContractionError", "CycleTrace", "ExperimentConfig", "GridLevel", "PROOF_LINES",
    "PrecisionFormat", "PrecisionTooLowError", "PrecisionUnachievableError",
    "RelaxationOp", "RoundedResult", "SparseSpd", "SpdError", "StructureError",
    "TrialRecord", "build_multilevel", "compute_constants",
    "condition_number", "energy_norm", "gamma_constants", "load_config",
    "make_exact_coarse", "make_jacobi", "make_perturbed_coarse", "make_recursive_coarse",
    "make_richardson", "mdot_plus_eps", "per_line_bounds", "progressive_epsilon",
    "progressive_study", "quantize_vector", "rho_star", "rounded_add_sub",
    "rounded_matvec", "rounded_residual", "run_experiment", "solve_spd",
    "tg_cycle", "v_cycle", "validate_csv", "write_csv",
]
__version__ = "0.1.0"
