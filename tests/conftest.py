"""Shared builders and closed-form oracles for the test suite.

The two-mass benchmark (equal masses, symmetric springs, proportional dampers,
cubic spring + cubic damper on the first mass) has closed-form modal data:

* undamped modes u = (1, 1) and (1, -1) with stiffness k and 3k,
* modal dampers c1 and c1 + 2*c2,
* lambda = (-c_mode + i*sqrt(4*m*k_mode - c_mode**2)) / (2*m).

Those closed forms (not the package's own eigensolver) are the oracles here.
"""

import numpy as np
import pytest

from ssm_resolve.model import (MechanicalSystem, PolyTerm, to_first_order,
                               modal_decompose)

# two-mass benchmark parameters
SP = dict(m=1.0, c1=0.03, c2=np.sqrt(3) * 0.03, k=3.0,
          kappa=0.4, alpha=-0.6, P=3.0)


# cantilever reference parameters used throughout the docs (mm / kg / s)
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)


def two_mass_system(kappa=SP["kappa"], alpha=SP["alpha"], quintic=0.0,
                    P=SP["P"], c2=SP["c2"]) -> MechanicalSystem:
    m, c1, k = SP["m"], SP["c1"], SP["k"]
    M = np.eye(2) * m
    C = np.array([[c1 + c2, -c2], [-c2, c1 + c2]])
    K = np.array([[2 * k, -k], [-k, 2 * k]])
    g = []
    if kappa:
        g.append(PolyTerm(0, kappa, (3, 0, 0, 0)))
    if alpha:
        g.append(PolyTerm(0, alpha, (0, 0, 3, 0)))
    if quintic:
        g.append(PolyTerm(0, quintic, (0, 0, 5, 0)))
    return MechanicalSystem(M=M, C=C, K=K, g=g, f=np.array([P, 0.0]))


#: even and mixed-variable terms on the two-mass system: the only test
#: nonlinearity whose terms read several variables and have even degree
MIXED_TERMS = [PolyTerm(0, 0.5, (2, 0, 0, 0)), PolyTerm(1, -0.3, (1, 1, 0, 0)),
               PolyTerm(0, 0.2, (1, 0, 1, 0)), PolyTerm(1, 0.4, (2, 0, 0, 1))]


def with_terms(g) -> MechanicalSystem:
    """The two-mass benchmark's linear part and forcing with nonlinearity g."""
    base = two_mass_system()
    return MechanicalSystem(M=base.M, C=base.C, K=base.K, g=g, f=base.f)


def two_mass_lambda(mode: int, c2=SP["c2"]) -> complex:
    """Closed-form eigenvalue of mode 1 or 2 (positive-imag member)."""
    m, c1, k = SP["m"], SP["c1"], SP["k"]
    c_mode = c1 if mode == 1 else c1 + 2 * c2
    k_mode = k if mode == 1 else 3 * k
    return (-c_mode + 1j * np.sqrt(4 * m * k_mode - c_mode ** 2)) / (2 * m)


def two_mass_gamma1() -> complex:
    """Closed-form leading reduced coefficient for the cubic two-mass system."""
    m, kappa, alpha = SP["m"], SP["kappa"], SP["alpha"]
    lam = two_mass_lambda(1)
    return -3 * (alpha * lam ** 2 * np.conj(lam) + kappa) / (2 * m * (lam - np.conj(lam)))


@pytest.fixture(scope="session")
def sp_system():
    return two_mass_system()


@pytest.fixture(scope="session")
def sp_modal(sp_system):
    return modal_decompose(to_first_order(sp_system))
