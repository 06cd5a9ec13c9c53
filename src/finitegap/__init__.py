"""Finite gap Jacobi matrices: potential theory, isospectral tori, sum rules."""

__version__ = "0.1.0"

from .bandset import (EquilibriumData, FiniteGapSet, dist_to_complement,
                      dist_to_set, equilibrium_density, green, make_band_set,
                      potential, rational_harmonic_period, solve_equilibrium)
from .errors import AccuracyError, DomainError, FiniteGapError, MeasureError
from .jacobi import (JacobiParams, SpectralMeasure, arcsine_measure,
                     equilibrium_measure, free_jacobi,
                     measure_from_theta_density, oprl_eval, oprl_log_abs,
                     oprl_scaled_last, semicircle_measure, strip_coefficients,
                     truncation_eigenvalues_outside)
from .isotorus import (DirichletData, MinimalHerglotz, TorusPoint, d_m,
                       dirichlet_data, dirichlet_from_angles, dist_to_torus,
                       minimal_herglotz, random_dirichlet,
                       reflectionless_residual, torus_jacobi, torus_measure)
from .sumrules import (ExperimentReport, L1Decay, Oscillatory, PerturbationSpec,
                       RandomDecay, SingleSite, SlowDecay, apply_perturbation,
                       a_product, b_sum, cesaro_distance, ks_l2, lt_c0,
                       lt_free_bound, lt_sum, oscillatory_spec, szego_integral,
                       szego_ratio, three_condition_experiment)
