"""Multi-queue multi-server scheduling under random connectivity.

Exact maximum weight matching with an enumeration oracle, discrete-time
queue evolution on coupled random streams, balancing-order verifiers, and a
coupled Monte Carlo harness for comparing server assignment policies.
"""

from .balance import (
    COST_FUNCTIONS,
    OrderStep,
    balancing_condition,
    preceq_one,
    preceq_p,
    reachable_below,
    register_cost_function,
    sweep_lemmas,
    total_occupancy,
)
from .harness import (
    DominanceReport,
    PreceqAuditReport,
    SimConfig,
    TraceRecord,
    per_slot_preceq_audit,
    run_experiment,
    run_replication,
)
from .matching import (
    enumerate_matchings,
    matching_weight,
    max_weight_matching,
    validate_matching,
    weight_matrix,
)
from .policies import (
    POLICY_NAMES,
    decide_fixed_order,
    decide_greedy_lcq,
    decide_mwm,
)
from .queueing import (
    SamplePath,
    SystemParams,
    serve,
)

__version__ = "0.1.0"

__all__ = [
    "COST_FUNCTIONS",
    "DominanceReport",
    "OrderStep",
    "POLICY_NAMES",
    "PreceqAuditReport",
    "SamplePath",
    "SimConfig",
    "SystemParams",
    "TraceRecord",
    "balancing_condition",
    "decide_fixed_order",
    "decide_greedy_lcq",
    "decide_mwm",
    "enumerate_matchings",
    "matching_weight",
    "max_weight_matching",
    "per_slot_preceq_audit",
    "preceq_one",
    "preceq_p",
    "reachable_below",
    "register_cost_function",
    "run_experiment",
    "run_replication",
    "serve",
    "sweep_lemmas",
    "total_occupancy",
    "validate_matching",
    "weight_matrix",
]
