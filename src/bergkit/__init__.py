"""bergkit: numerics for composition operators on weighted Bergman spaces
of the right half-plane.

The toolkit evaluates the reproducing kernels, certifies kernel positivity
with a self-contained Hermitian eigensolver, estimates angular derivatives
and operator norms, verifies the Laplace-transform isometry against
Gamma-function closed forms, and checks the dyadic interpolation algebra
behind the norm formula  ||C_phi|| = lambda^((2+alpha)/2).
"""

from .interp import (InterpolationData, dw_density, exponent_identity_check,
                     interp_params, norm_rescaling_check)
from .kernels import (PsdVerdict, Weight, bergman_kernel, defect_kernel,
                      defect_kernel_matrix, factorization_residual,
                      gram_matrix, kernel_function, nevanlinna_kernel,
                      psd_check)
from .laplace import (ExpMonomial, HalfLineFunction, IsometryResult,
                      isometry_check, kernel_preimage, laplace_eval,
                      mu_alpha_density, mu_alpha_norm, weighted_norm_squared)
from .opnorm import (BoundednessReport, NormEstimate, SpectralRadiusEstimate,
                     boundedness_verdict, essential_norm_lower_bound,
                     gram_norm_estimate, kernel_ratio_bound, norm_theoretical,
                     psd_boundedness_certificate, spectral_radius_estimate)
from .space import (KernelCombination, QuadratureScheme, ReproducingResult,
                    default_scheme, inner_product, reproducing_check)
from .symbols import (DEFAULT_GRID, Affine, AngularDerivativeEstimate,
                      CayleyMap, CoefficientOverflow, Compose, HalfPlaneError,
                      Moebius, PowerMap, SampleGrid, Symbol,
                      angular_derivative_estimate, cayley_conjugate, compose,
                      identity, require_half_plane, symbol_from_dict,
                      validate_self_map)

__version__ = "0.1.0"
