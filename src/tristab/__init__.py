"""Standing-wave existence and stability for the 1D triple-power NLS.

The nonlinearity is a1 |u|^{p-1} u + a2 |u|^{q-1} u + a3 |u|^{r-1} u with
1 < p < q < r.  After scaling, only the signs of a1 and a3 and the reduced
middle coefficient gamma = -a2 remain.  The package computes the standing
wave profile amplitude a(omega, gamma), the nonexistence curve, the slope
stability functional J(omega, gamma), checked by two further routes, its
limit classifications, and exportable stability diagrams.
"""

from .errors import (DivergingIntegral, NoStandingWave, NotOnCurve,
                     UnsupportedRegime)
from .model import (NonlinearityParams, ScalingReduction, classify_case,
                    normalize)
from .landscape import LandscapeEval, eval_F1, eval_U
from .quadrature import QuadratureResult, integrate, integrate_many
from .special import (BetaDerivBounds, beta_deriv_bounds, beta_fn, dbeta_dx,
                      digamma, h_fn, two_power_integral)
from .signs import (GeneralizedPolynomial, count_positive_roots_sampled,
                    sign_changes)
from .profile import ProfileResult, find_a, find_a0
from .boundary import (BoundaryCurve, endpoints, gamma_omega_ne, omega_star,
                       sample_curve)
from .stability import (StabilityValue, eval_J, eval_J0, eval_J_mass_fd,
                        eval_J_raw, eval_J_rows, mass_Q)
from .asymptotics import (Direction, GuaranteeStatement, LimitClass,
                          LimitKind, SignGuarantee, asymptotic_exponent,
                          classify_limit, sign_guarantees)
from .diagram import (ContourSet, DiagramGrid, export_contours_json,
                      export_curve_csv, export_grid_csv, extract_contours,
                      import_contours_json, import_grid_csv, sweep_grid)

__version__ = "0.1.0"

__all__ = [
    "DivergingIntegral", "NoStandingWave", "NotOnCurve", "UnsupportedRegime",
    "NonlinearityParams", "ScalingReduction", "classify_case", "normalize",
    "LandscapeEval", "eval_F1", "eval_U",
    "QuadratureResult", "integrate", "integrate_many",
    "BetaDerivBounds", "beta_deriv_bounds", "beta_fn", "dbeta_dx", "digamma",
    "h_fn", "two_power_integral",
    "GeneralizedPolynomial", "count_positive_roots_sampled", "sign_changes",
    "ProfileResult", "find_a", "find_a0",
    "BoundaryCurve", "endpoints", "gamma_omega_ne", "omega_star",
    "sample_curve",
    "StabilityValue", "eval_J", "eval_J0", "eval_J_mass_fd", "eval_J_raw",
    "eval_J_rows", "mass_Q",
    "Direction", "GuaranteeStatement", "LimitClass", "LimitKind",
    "SignGuarantee", "asymptotic_exponent", "classify_limit",
    "sign_guarantees",
    "ContourSet", "DiagramGrid", "export_contours_json", "export_curve_csv",
    "export_grid_csv", "extract_contours", "import_contours_json",
    "import_grid_csv", "sweep_grid",
]
