"""Sampling toolkit for implicit theta-method Langevin chains.

Targets (Gaussian and logistic-regression posteriors), exact and inexact
implicit samplers, closed-form theory (contraction rates, Wasserstein bounds,
large-step asymptotics, step-size heuristic), discrepancy diagnostics
(MMTV, MMD), and a CLI experiment harness.
"""

from .diagnostics import Reference, SampleSet, median_bandwidth, mmd2, mmtv
from .errors import (
    DegenerateBandwidthError,
    NumericalError,
    OutOfRegimeError,
)
from .matrixgen import SpectralModel, exp_decay_spectrum, random_correlation
from .optim import SolveProblem, SolveResult, newton_solve
from .samplers import (
    NoiseStream,
    SamplerConfig,
    StabilityWarning,
    Trajectory,
    iila_step,
    ila_step_gaussian,
    run_chain,
    run_chains,
    transition_log_density,
    ula_step,
)
from .targets import (
    GaussianTarget,
    LogisticRegressionTarget,
    TargetDensity,
    load_dataset,
    mode,
    standardize_design,
)
from .theory import (
    ContractionParams,
    asymptotic_covariance,
    condition_number_kappa,
    contraction,
    gaussian_stationary_covariance,
    h_star,
    heuristic_objective,
    step_size_heuristic,
    theta_map,
    w2_bound,
)

__version__ = "0.1.0"
