"""Discrete curves, semi-discrete surfaces and discrete K-surfaces built from
Jacobi-elliptic-function solutions of the sine-Gordon lattice equations."""

__version__ = "0.1.0"

from .elliptic import EllipticModulus, jacobi, jacobi_epsilon, make_modulus, sn2_integral
from .errors import (DegenerateFrameError, DomainError, PoleError,
                     ThetaOverflowError, ValidationError)
from .frames import (Frame, FrameGeometry, adjoint_vector, extract_geometry,
                     phi_iso, transfer_so3, transfer_su2, vector_from_su2)
from .ksurf import KGrid, KParams, compat_matrices, k_edge_residuals, k_grid, k_periodicity, k_point
from .sg import (DiscreteParams, HalfAngle, SemiDiscreteParams, discrete_sample,
                 discrete_sg_coeff, discrete_sg_residual, semi_residuals,
                 semi_sample, semi_sg_coeffs)
from .surfaces import (CurveSnapshot, SurfaceParams, b_point, flow_velocity,
                       frame_at, gamma_point, half_angles, kaleidocycle_params, snapshot)
from .tau import TauContext, TauSample, bilinear_checks, gamma_from_tau, tau_sample
from .theta import (ThetaParams, WeierstrassConstants, jacobi_complex, theta_j,
                    theta_j_prime, weierstrass_constants, weierstrass_p)

__all__ = [name for name in dir() if not name.startswith("_")]
