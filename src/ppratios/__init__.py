"""Simulation and verification of ratios of ordered heavy-tailed Poisson points.

Modules:

* :mod:`ppratios.tail_models` -- parametric intensity tails, evaluation and
  right-continuous inversion
* :mod:`ppratios.samplers` -- exact samplers (ordered points, ratio
  patterns, the limiting point process), single-trial and batch forms
* :mod:`ppratios.limit_laws` -- closed-form limit densities, CDFs and
  Laplace functionals
* :mod:`ppratios.verify` -- KS/chi-square harness, tail-index estimator,
  variation classifier
* :mod:`ppratios.cli` -- the ``ppratios`` experiment runner
"""

from .rng import RngStream
from .tail_models import (
    InversionError,
    TailModel,
    eval_inverse_tail,
    eval_tail,
    pareto,
    pareto_log,
    pareto_perturbed,
    rapid_zero,
    rv_limit_table,
    slow_zero,
)
from .samplers import (
    OrderedSample,
    RatioConfiguration,
    TruncationError,
    sample_gamma_arrivals,
    sample_negbin_process,
    sample_ordered_points,
    sample_ratio_configuration,
)
from .limit_laws import (
    LaplaceProbe,
    conditional_gamma_cdf,
    j_law,
    k_orderstat_cdf,
    l_law,
    limit_laplace_full,
    nb_count_pmf,
    nb_laplace,
    phi_conditional,
    ratio_tail_n1,
    successive_ratio_cdf,
    time_scale_cdf,
    w_cdf,
    w_law,
)
from .verify import (
    ClassificationError,
    EmpiricalDistribution,
    TailClassification,
    VerifyReport,
    classify_tail,
    convergence_sweep,
    estimate_alpha,
    identity_checks,
    independence_check,
    ks_distance,
    nb_functional_check,
)

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "InversionError", "TailModel",
    "eval_inverse_tail", "eval_tail", "pareto", "pareto_log",
    "pareto_perturbed", "rapid_zero", "rv_limit_table", "slow_zero",
    "OrderedSample", "RatioConfiguration", "TruncationError",
    "sample_gamma_arrivals", "sample_negbin_process", "sample_ordered_points",
    "sample_ratio_configuration",
    "LaplaceProbe", "conditional_gamma_cdf",
    "j_law", "k_orderstat_cdf", "l_law",
    "limit_laplace_full", "nb_count_pmf", "nb_laplace", "phi_conditional",
    "ratio_tail_n1", "successive_ratio_cdf", "time_scale_cdf", "w_cdf", "w_law",
    "ClassificationError", "EmpiricalDistribution", "TailClassification",
    "VerifyReport", "classify_tail", "convergence_sweep", "estimate_alpha",
    "identity_checks", "independence_check", "ks_distance",
    "nb_functional_check",
    "__version__",
]
