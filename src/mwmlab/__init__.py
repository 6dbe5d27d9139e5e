"""Multi-queue multi-server scheduling under random connectivity.

Exact maximum weight matching with an enumeration oracle, discrete-time
queue evolution on coupled random streams, balancing-order verifiers, and a
coupled Monte Carlo harness for comparing server assignment policies.
"""

from .balance import COST_FUNCTIONS, preceq_p, sweep_lemmas, total_occupancy
from .engine import POLICY_NAMES, Block, SystemParams
from .harness import DominanceReport, SimConfig, run_experiment
from .matching import enumerate_matchings, max_weight_matching

__version__ = "0.1.0"

__all__ = [
    "Block",
    "COST_FUNCTIONS",
    "DominanceReport",
    "POLICY_NAMES",
    "SimConfig",
    "SystemParams",
    "enumerate_matchings",
    "max_weight_matching",
    "preceq_p",
    "run_experiment",
    "sweep_lemmas",
    "total_occupancy",
]
