"""ssm-resolve: exact 2-D reduction of forced mechanical vibrations.

Reduces an n-DOF mechanical system with periodic forcing to two ordinary
differential equations on an attracting invariant manifold of the slowest
mode pair, then reads forced response curves, fold points, stability, and
detached response branches (isolas) directly off the reduced coefficients.
A brute-force time integrator is included to verify every prediction.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
