"""Prescribed-mean-curvature Killing graphs over 2D base domains.

Local-model metrics (lambda, mu, a, b), a conservative flux-form Newton
solver for the divergence-form mean-curvature equation, radial ODE
families, and Collin-Krust growth-rate functionals.
"""

from .expressions import (ExprDomainError, ExprError, ExprSyntaxError,
                          eval_field, grad_field, parse_expr, to_source)
from .fields import ScalarField, as_field, callable_field, const_field, expr_field
from .grids import BOUNDARY, BRIDGE, EXCLUDED, INTERIOR, GridDomain, ScalarGrid
from .models import (JsPolygon, JsVerdict, MetricModel, Polyline, Rect,
                     builtin_model, gauge_change, js_check, mu_length,
                     tau_of_model)
from .operator import (AssemblyCache, NodeFields, angle_function, area_element,
                       factorization_gap, factorization_identity_rhs,
                       generalized_gradient, mean_curvature_residual)
from .solver import (ExhaustionReport, MaxPrincipleVerdict, SolveConfig,
                     SolveReport, check_max_principle, exhaustion_solve,
                     solve_dirichlet)
from .radial import (BoundednessVerdict, PenafielSample, RadialProfile,
                     VerticalSlopeError, boundedness_classify, penafiel_h,
                     penafiel_slope, penafiel_slope_disk, radial_profile,
                     radial_slope)
from .growth import (ChartExitError, CollinKrustFit, E1TauSample, GeodesicArc,
                     GrowthProfile, WedgeBound, L_plain, L_weighted,
                     collin_krust_rate, e1tau_g, e1tau_growth, g_of_r,
                     geodesic_circle, iterated_log, sol3_wedge_bound,
                     sol3_wedge_divergence, window_verdict)
from .nil import (NilIsometry, StripUniquenessReport, apply_isometry_to_graph,
                  invariant_barrier, strip_truncation_domain,
                  strip_uniqueness_experiment)
from .experiments import (RemovableSingularityReport, disk_sin2theta_domain,
                          removable_singularity_experiment, run_disk_puncture,
                          run_sol3_puncture, sol3_exact_domain)

__version__ = "0.1.0"
