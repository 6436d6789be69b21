"""Open-loop Nash equilibrium solver and simulator for opinion games on
influence networks."""

from .analytic import (complete_limit, complete_params, complete_trajectory,
                       epsilon_consensus_time, gamma, leader_distance,
                       leader_limit, leader_params, leader_trajectory)
from .network import (CompleteUniform, Diagnostic, InfluenceNetwork,
                      SingleLeader, build_matrices, classify_topology,
                      network_from_dict, network_to_dict, validate)
from .solver import EquilibriumTrajectory, solve_equilibrium, spectral_data
from .verify import (BestResponseResult, CostBreakdown, StationarityReport,
                     best_response, certify, deviation_test, evaluate_cost,
                     nash_residual, quadratic_cost, stationarity_check)

__version__ = "0.1.0"
