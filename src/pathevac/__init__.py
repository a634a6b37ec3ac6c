"""Minsum evacuation scheduling for weighted groups on path networks.

Groups of evacuees sit on the nodes of a path and must reach one facility
node over edges with integer travel times and a shared per-epoch capacity;
the objective is the weighted sum of arrival epochs. The solver reduces
each side of the facility to bin packing with ready times, packs greedily
(with a proven factor-2 guarantee against the fractional relaxation), and
expands the packing back into a full movement schedule. Exact oracles
certify small instances.
"""

__version__ = "0.1.0"

from .evac import (NonUniformCapacityError, SideReduction,
                   SimulationInfeasible, SimulationTrace, SolveReport,
                   assemble_schedule, fractional_lower_bound, reduce_side,
                   render_table, schedule_objective, simulate, solve_report,
                   validate_schedule)
from .instances import (GenParams, PackParams, SplitMix64, bundled_examples,
                        gen_from_partition, gen_random, gen_random_packing)
from .model import (FractionalPacking, Group, InstanceError, Move, Packing,
                    PackingInstance, PackingItem, PathInstance, Schedule,
                    parse_instance, parse_packing_instance, parse_schedule,
                    serialize_instance, serialize_packing_instance,
                    serialize_schedule)
from .oracles import (OracleBudgetExceeded, exact_dwsf_opt,
                      exact_fractional_opt_mcf, exact_packing_opt,
                      horizon_bound)
from .packing import (GreedyTrace, eligibility_threshold, packing_objective,
                      solve_greedy)
from .relax import (fractional_bound, fractional_objective,
                    reduced_ready_times, solve_fractional_greedy)

__all__ = [
    "__version__",
    # model
    "Group", "PathInstance", "PackingItem", "PackingInstance", "Packing",
    "Move", "Schedule", "FractionalPacking", "InstanceError",
    "parse_instance", "serialize_instance",
    "parse_packing_instance", "serialize_packing_instance",
    "parse_schedule", "serialize_schedule",
    # packing
    "eligibility_threshold", "solve_greedy", "GreedyTrace",
    "packing_objective",
    # relaxation
    "reduced_ready_times", "solve_fractional_greedy", "fractional_objective",
    "fractional_bound",
    # evacuation
    "reduce_side", "fractional_lower_bound", "assemble_schedule",
    "solve_report",
    "SolveReport", "SideReduction", "simulate", "SimulationTrace",
    "render_table", "schedule_objective", "validate_schedule",
    "NonUniformCapacityError", "SimulationInfeasible",
    # oracles
    "horizon_bound", "exact_packing_opt", "exact_dwsf_opt",
    "exact_fractional_opt_mcf", "OracleBudgetExceeded",
    # generators
    "SplitMix64", "GenParams", "PackParams", "gen_random",
    "gen_random_packing", "gen_from_partition", "bundled_examples",
]
