"""Plane-strain perfect plasticity and its stiff-elasticity rigid-plastic limit."""

from .benchmarks import (
    Benchmark,
    Example41Params,
    NonUniquenessWitness,
    PiecewiseConstant,
    benchmark_catalog,
    default_example41_params,
    example41_stress,
    example41_verify,
)
from .config import ConfigError, RunConfig, parse_config
from .evolution import (
    BalanceReport,
    ConvergenceError,
    EnergyLedger,
    FEState,
    LoadProgram,
    duality_pairing,
    energy_report,
    evolve,
    incremental_step,
    run_evolution,
)
from .fem import ElasticSystem, SolverError, divergence_check, strain_of
from .mesh import Mesh, build_square_mesh
from .safeload import SafeLoadCertificate, max_safety_margin, verify_safe_load
from .sweep import (
    RateFit,
    ResidualReport,
    SweepConfig,
    SweepReport,
    UniquenessReport,
    compare_limits,
    fit_rate,
    rigid_residuals,
    run_sweep,
)
from .tensors import (
    HookeTensor,
    NonDeviatoricError,
    YieldSet,
    dev_decompose,
    radial_return,
    sym_outer,
)
from .vtkio import write_vtk

__version__ = "0.1.0"
