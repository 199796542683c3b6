"""Exact localized-wave solutions of a two-component (2+1)-dimensional
Fokas-Lenells system via determinant-form Darboux transformations, with
built-in residual verification and figure-style rendering."""

from .dt_engine import (DtConfig, FieldSample, evaluate_solution,
                        solution_sampler)
from .errors import (ConfigError, FlwaveError, NumericError,
                     SingularPointError)
from .grid_render import (FieldGrid, evaluate_grid, export_field,
                          load_binary_field, render_heatmap)
from .model import (DeformationProfile, GridSpec, PlaneWaveSeed,
                    SeedBackground, ZeroBackground, background_field,
                    dispersion_relation, plane_wave_field, profile_eval)
from .numerics import Jet, SquareMatrix, det
from .spectral import (BreatherChart, EigenTriple, RogueChart, SpectralChart,
                       ZeroSeedChart, breather_eigenfunction, critical_lambda,
                       discriminant_S, is_critical, rogue_R,
                       rogue_eigenfunction_jet, zero_seed_eigenfunction)
from .verify import (ResidualReport, closed_form_rw1, count_local_maxima,
                     lax_residual, pde_residual, peak_search,
                     zero_curvature_residual)

__version__ = "0.1.0"
