"""Fractional heat semigroups of discretized Schrodinger operators.

One multiplier on one eigenbasis: the kernels of e^{-t L^alpha} and of its
time derivatives t^beta d_t^beta e^{-t L^alpha} for L = -Delta_h + V with a
nonnegative potential V, the subordination and time-quadrature routes to
them, the critical radius rho of V, pointwise-estimate certificates, and the
Campanato/Carleson function-space functionals. Gradients are the
central-difference stencil of `grid.gradient_values`.
"""

from .grid import Ball, Grid, GridFunction, build_grid, grid_integrate, ball_points
from .potentials import (PotentialSpec, compute_rho, constant, eval_potential,
                         power, well, zero)
from .spectral import (DiscreteOperator, KernelSlice, SpectralDecomposition,
                       apply_kernel, assemble, eigendecompose,
                       fractional_heat_kernel, heat_kernel, multiplier_kernel,
                       poisson_kernel)
from .subordinator import (density, density_selftest, laplace_transform,
                           subordinate_kernel)
from .fracderiv import d_operator, frac_time_derivative
from .estimates import (BoundCertificate, EstimateParams, build_backend, certify,
                        decay_exponent_fit)
from .spaces import (Atom, SpaceTimeField, area_function, ball_family, bmo_norm,
                     carleson_boxes, carleson_norm, default_time_grid,
                     duality_pairing_check, equivalence_experiment, g_function,
                     lipschitz_norm, make_atom, reproducing_check)
from .cli import RunConfig, parse_config, run

__version__ = "0.1.0"
