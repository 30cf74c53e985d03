"""Cantilever beam discretization with a cubic spring-damper at the free tip.

Classic Euler-Bernoulli finite elements: two nodes per element, two DOFs per
node (transverse deflection w and rotation theta), Hermite cubic shape
functions, consistent mass matrix.  The clamped end removes the first node's
DOFs, so ``m_elements`` elements give n = 2*m_elements mechanical DOFs.
Damping is proportional: C = alpha*M + beta*K.  The tip carries a cubic spring
(kappa * w_tip**3), a cubic damper (gamma * wdot_tip**3), and the periodic
point force (amplitude tip_force).

Units are whatever consistent system the parameters are given in; the numbers
in docs/formats.md use mm, kg, s (so modulus is in kPa and forces in mN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ValidationError
from .model import MechanicalSystem, PolyTerm
from .sysio import Lines, write_artifacts


@dataclass
class BeamSpec:
    """Geometry, material, damping, and tip attachments for the cantilever."""
    length: float          # beam length L
    height: float          # cross-section height h (bending direction)
    width: float           # cross-section width b
    density: float         # mass density rho
    modulus: float         # Young's modulus E
    cubic_spring: float    # kappa, tip force per w_tip**3
    cubic_damper: float    # gamma, tip force per wdot_tip**3
    mass_damping: float    # alpha in C = alpha*M + beta*K
    stiffness_damping: float  # beta in C = alpha*M + beta*K
    tip_force: float       # point-force amplitude at the tip (times eps*cos)
    elements: int = 25

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValidationError(f"beam parameter {name} must be finite")
        for name in ("length", "height", "width", "density", "modulus"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"beam parameter {name} must be positive")
        if self.elements < 1:
            raise ValidationError("beam needs at least one element")

    @property
    def area(self) -> float:
        return self.height * self.width

    @property
    def inertia(self) -> float:
        return self.width * self.height ** 3 / 12.0


def element_matrices(EI: float, rhoA: float, Le: float) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and consistent mass matrix of one Hermite-cubic element."""
    L = Le
    k = EI / L ** 3 * np.array([
        [12, 6 * L, -12, 6 * L],
        [6 * L, 4 * L ** 2, -6 * L, 2 * L ** 2],
        [-12, -6 * L, 12, -6 * L],
        [6 * L, 2 * L ** 2, -6 * L, 4 * L ** 2]])
    m = rhoA * L / 420.0 * np.array([
        [156, 22 * L, 54, -13 * L],
        [22 * L, 4 * L ** 2, 13 * L, -3 * L ** 2],
        [54, 13 * L, 156, -22 * L],
        [-13 * L, -3 * L ** 2, -22 * L, 4 * L ** 2]])
    return k, m


def build_beam(spec: BeamSpec) -> MechanicalSystem:
    """Assemble the clamped-free beam as a MechanicalSystem.

    The returned system requests the "largest" eigenvector normalization:
    reduced-model coefficients for this family are conventionally quoted in
    that scaling (unit-norm mode shapes), and the tip observable is the
    largest-magnitude component, which the policy pins to the real axis.
    """
    m_el = spec.elements
    EI = spec.modulus * spec.inertia
    rhoA = spec.density * spec.area
    Le = spec.length / m_el
    ke, me = element_matrices(EI, rhoA, Le)

    ndof = 2 * (m_el + 1)
    K = np.zeros((ndof, ndof))
    M = np.zeros((ndof, ndof))
    for e in range(m_el):
        sl = slice(2 * e, 2 * e + 4)
        K[sl, sl] += ke
        M[sl, sl] += me
    # clamp: remove deflection and rotation of node 0
    K = K[2:, 2:]
    M = M[2:, 2:]
    n = K.shape[0]
    C = spec.mass_damping * M + spec.stiffness_damping * K

    tip = n - 2  # deflection DOF of the last node (free numbering)
    g = []
    if spec.cubic_spring:
        exps = [0] * (2 * n)
        exps[tip] = 3
        g.append(PolyTerm(tip, spec.cubic_spring, tuple(exps)))
    if spec.cubic_damper:
        exps = [0] * (2 * n)
        exps[n + tip] = 3
        g.append(PolyTerm(tip, spec.cubic_damper, tuple(exps)))
    f = np.zeros(n)
    f[tip] = spec.tip_force
    return MechanicalSystem(M=M, C=C, K=K, g=g, f=f, normalization="largest")


def tip_index(sys: MechanicalSystem) -> int:
    """Position-coordinate index of the tip deflection for a built beam."""
    return sys.n - 2


# ---------------------------------------------------------------------------
# parameter files: "key value" lines, '#' comments; keys are BeamSpec fields
# ---------------------------------------------------------------------------

def read_beam_params(path) -> BeamSpec:
    values: dict = {}
    for no, line in Lines(path).items:
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {no}: expected 'key value', got {line!r}")
        key, val = parts
        cast, kind = (int, "integer") if key == "elements" else (float, "number")
        try:
            values[key] = cast(val)
        except ValueError as exc:
            raise ValidationError(f"line {no}: bad {kind} {val!r}") from exc
    try:
        return BeamSpec(**values)
    except TypeError as exc:
        known = ", ".join(BeamSpec.__dataclass_fields__)
        raise ValidationError(
            f"beam parameter file must define exactly the fields: {known}") from exc


def write_beam_params(spec: BeamSpec, path) -> None:
    """Write a parameter file atomically, one "key value" line per field."""
    write_artifacts([(path, "".join(f"{key} {val!r}\n"
                                    for key, val in asdict(spec).items()))])
