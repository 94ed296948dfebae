"""Hierarchical graph modeling and decomposition for linear optimization.

Models are graphs of nodes (each carrying variables, constraints, and an
objective) tied together by edges holding linking constraints; subgraphs
nest to arbitrary depth.  The same model can be flattened and solved
monolithically, decomposed over the subgraph tree with cutting planes, or
walked subgraph-by-subgraph in a fixed order.
"""

from .benders import (
    BendersConfig,
    BendersResult,
    BendersTree,
    IterationRecord,
    run_decomposition,
    validate_structure,
)
from .errors import *  # noqa: F401,F403 -- the exception vocabulary is the API
from .fixtures import FIXTURE_NAMES, generate_fixture, storage_membership
from .model import (
    Constraint,
    Edge,
    Graph,
    LinearExpression,
    Node,
    VariableRef,
    linear,
    validate_graph,
)
from .sequential import SequentialResult, relaxed_parallel_bound, sequential_solve
from .serialize import (
    RunReport,
    load_instance,
    parse_membership,
    save_instance,
    solution_by_name,
    write_report,
)
from .simplex import SolveResult
from .solvers import SimplexSolver, default_solver, solve, solve_lp, solve_milp
from .standard_form import Basis, StandardFormProblem, check_solution, flatten, lp_relaxation
from .subproblem import CutData, StageProblem
from .transform import (
    CondensedTopology,
    Partition,
    PartitionBlock,
    aggregate,
    aggregate_to_depth,
    apply_partition,
    condensed_topology,
    reroute_link,
    validate_partition,
)

__version__ = "0.1.0"
