"""Convergence laboratory for dimension truncation of parametric elliptic PDEs.

Estimates the L2 parameter-space truncation error of FEM solutions (and a
nonlinear functional of them) by randomly shifted rank-1 lattice cubature,
fits empirical convergence rates, and checks them against closed-form
theoretical bounds, for both affine and periodically transformed
parameterizations.
"""

__version__ = "0.1.0"
