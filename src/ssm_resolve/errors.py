"""Exception types shared across the package.

Each maps to a CLI exit code (see cli.EXIT_CODES): input/validation problems,
spectral-structure problems (defective or resonant spectra), chart breakdowns,
and time-integration failures are kept distinct so callers can react.
"""


class SsmResolveError(Exception):
    """Base class for all package errors."""


class ValidationError(SsmResolveError):
    """Malformed input: bad matrices, bad files, inconsistent arguments."""


class SemisimplicityError(SsmResolveError):
    """The linear part is (numerically) defective; diagonal coordinates fail."""


class NonResonanceError(SsmResolveError):
    """A low-order real-part resonance blocks the manifold construction."""


class InternalResonanceError(SsmResolveError):
    """A recursion denominator fell below the safety threshold."""


class SingularChartError(SsmResolveError):
    """Polar coordinates are singular (rho = 0); the phase is undefined."""


class DivergenceError(SsmResolveError):
    """Time integration failed: the integrated state escaped, non-finite or
    beyond 1e50 in size.  The fixed-step stepper has no step to underflow,
    so this is its one failure."""
