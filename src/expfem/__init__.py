"""Exponential-integrator finite element solver for semilinear parabolic
equations u_t = D*lap(u) + f(t, u) on rectangular tensor-product grids.

The spatial mass/stiffness pairs diagonalize simultaneously in sine or
Fourier bases, so each time step costs a handful of fast transforms plus
entrywise work.  See the README for the CLI and config format.
"""

__version__ = "0.1.0"
