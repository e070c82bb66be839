"""satgp: a CDCL SAT solver whose variable-activity initialization is
computed by small evolvable programs, plus the genetic-programming engine
that evolves them and the experiment harness that measures them."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .cnf import (
    Cnf,
    DimacsError,
    ReorderMapping,
    VarStats,
    compute_var_stats,
    parse_dimacs,
    preprocess_bcp,
    random_3sat,
    read_dimacs,
    reorder,
    write_dimacs,
    write_mapping,
)
from .gp import (
    FitnessCase,
    FitnessCaseSet,
    GenerationRecord,
    GpConfig,
    Individual,
    create_initial_population,
    crossover,
    evaluate,
    fitness,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
    step_steady_state,
)
from .harness import (
    HistogramReport,
    ValidationReport,
    bundled_cnf,
    compare_reordered,
    config_hash,
    replay_sample,
    run_histogram,
    run_validation,
)
from .lang import (
    InitProgram,
    Node,
    PRESETS,
    ProgramSyntaxError,
    compute_activities,
    eval_node,
    normalize,
    parse_program,
    preset_program,
    print_program,
    reference_compute_activities,
)
from .rng import SplitMix64, spawn_seeds
from .solver import SolveOutcome, SolverConfig, solve, solve_with_baseline

# Every public name the imports above bound, less the submodules they bound.
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + ["__version__"]
