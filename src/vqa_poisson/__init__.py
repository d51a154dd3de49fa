"""Minimum-potential-energy variational quantum solver for the Poisson equation."""

from .classical import ClassicalSolution, SolverError, solve, trace_distance
from .cost import (BaselineCostReport, CostReport, SingularOperatorError, ancilla_x_term,
                   baseline_cost, cost, cost_from_state, denominator, expectation,
                   measured_circuit_count, numerator_hadamard)
from .gradient import (GradientReport, finite_difference_gradient, grad_cost, grad_numerator,
                       shifted_state, term_gradient)
from .operators import (DEFAULT_EPSILON, Bands, BoundaryCondition, Mesh2D, ObservableTerm,
                        PoissonOperator, assemble_fem_2d_dense, build_bands, build_fem_2d,
                        build_matrix, decompose, reassemble_dense, shift_amplitudes)
from .optimize import (GradNorm, OptimizationConfig, OptimizationTrace, PoissonProblem,
                       TraceDistance, TrialsResult, make_problem, minimize, run_trials)
from .resources import (ResourceReport, ShiftResourceCounts, StatePrepDepth, ansatz_depth,
                        count_baseline_circuits, count_cost_circuits,
                        count_gradient_circuits, count_sampled_gradient_circuits,
                        count_shift_resources, resource_report)
from .sampling import (MsePrediction, ShotEstimate, UnstableEstimateError, derive_seed,
                       predict_mse, sample_cost, sample_cost_estimates, sample_term,
                       sampled_gradient, term_shot_moments)
from .states import (AnsatzCircuit, Statevector, prepare_ansatz_state, prepare_source_state,
                     prepare_superposition_state)

__version__ = "0.1.0"
