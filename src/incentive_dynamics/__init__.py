"""Adaptive incentive design as a two-timescale coupled dynamical system.

Strategies adjust quickly under a pluggable learning rule while incentives
track the externality of the current strategy profile on a slower timescale;
at the joint fixed point the incentive equals the externality of the induced
equilibrium, which is then socially optimal. The package bundles atomic and
non-atomic game primitives, the coupled dynamics, closed-form aggregative
and routing applications, verification utilities, and a CLI runner.
"""
from .aggregative import (QuadraticAggregativeSpec, check_global_conditions,
                          check_local_conditions, lyapunov_decrement,
                          lyapunov_value, nash_closed_form, optimal_incentive)
from .analysis import (OdeProbeConfig, multistart_uniqueness_probe,
                       ode_probe_slow_dynamics, reproduce_counterexample,
                       run_gradient_baseline, verify_fixed_point_optimality)
from .dynamics import (RunConfig, StepSchedule, StrategyUpdateRule,
                       TrajectoryRecord, run_coupled)
from .errors import (ConvergenceError, EvaluationError, GameError,
                     InconsistencyError, InvalidArgumentError, SpecError)
from .games import (AtomicGame, NonAtomicGame, certify_nash_atomic,
                    certify_nash_nonatomic, certify_social_optimum)
from .routing import (LatencyFunction, OdPair, RoutingNetwork,
                      edge_externality, optimal_edge_tolls,
                      run_toll_adaptation, system_optimum,
                      wardrop_equilibrium)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
