"""nh3econ: a deterministic techno-economic toolkit for green ammonia.

Four analyses over bundled, provenance-tracked datasets: regional green
productivity scoring (input-oriented DEA), hydrogen carrier chain
delivery/storage costs, coal/ammonia co-firing economics, and the 2030
green-ammonia supply/demand balance.
"""

from .carriers import (
    CarrierChain,
    CostBreakdown,
    CostQuery,
    StageSpec,
    builtin_chains,
    delivery_cost,
    levelized_cost,
    storage_cost,
)
from .cofiring import CofiringParams, CofiringResult, evaluate
from .errors import InputError, Nh3EconError, SolverError
from .gtfp import RegionRecord, build_dea_lp, gtfp_scores, intensities
from .lp import LinearProgram, LpSolution, LpStatus, solve

__version__ = "0.1.0"
