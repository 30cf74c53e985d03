"""Beam builder: analytic cantilever oracles and structural invariants."""

import numpy as np
import pytest

from ssm_resolve.beam import BeamSpec, build_beam, read_beam_params
from ssm_resolve.errors import ValidationError
from ssm_resolve.model import to_first_order, modal_decompose

from conftest import BEAM, tip_index, write_beam_params


def ref_spec(elements=25) -> BeamSpec:
    return BeamSpec(elements=elements, **BEAM)


def analytic_omega1(spec: BeamSpec) -> float:
    """First clamped-free natural frequency: (beta1 L)^2 sqrt(EI/(rho A L^4))."""
    beta1L = 1.8751040687119611
    EI = spec.modulus * spec.inertia
    rhoA = spec.density * spec.area
    return beta1L ** 2 * np.sqrt(EI / (rhoA * spec.length ** 4))


def undamped_frequencies(sys) -> np.ndarray:
    w2 = np.linalg.eigvals(np.linalg.solve(sys.M, sys.K))
    return np.sqrt(np.sort(w2.real))


def test_static_tip_deflection_is_exact():
    """Hermite cubics solve an end-loaded cantilever exactly: w = P L^3/(3EI)."""
    spec = ref_spec()
    sys = build_beam(spec)
    P = 0.1
    rhs = np.zeros(sys.n)
    rhs[tip_index(sys)] = P
    w = np.linalg.solve(sys.K, rhs)
    EI = spec.modulus * spec.inertia
    assert w[tip_index(sys)] == pytest.approx(P * spec.length ** 3 / (3 * EI),
                                              rel=1e-12)


def test_first_frequency_matches_analytic():
    spec = ref_spec()
    sys = build_beam(spec)
    w1 = undamped_frequencies(sys)[0]
    assert w1 == pytest.approx(analytic_omega1(spec), rel=1e-5)


def test_mesh_convergence():
    spec = ref_spec()
    target = analytic_omega1(spec)
    errs = []
    for m_el in (5, 10, 20):
        w1 = undamped_frequencies(build_beam(ref_spec(elements=m_el)))[0]
        errs.append(abs(w1 - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_proportional_damping_identity():
    """Every undamped mode must satisfy 2 zeta_j omega_j = alpha + beta omega_j^2."""
    spec = ref_spec(elements=8)
    sys = build_beam(spec)
    w2, phi = np.linalg.eig(np.linalg.solve(sys.M, sys.K))
    order = np.argsort(w2.real)
    for j in order[:5]:
        u = np.real(phi[:, j])
        wj = np.sqrt(w2[j].real)
        mj = u @ sys.M @ u
        cj = u @ sys.C @ u
        assert cj / mj == pytest.approx(spec.mass_damping
                                        + spec.stiffness_damping * wj ** 2,
                                        rel=1e-10)


def test_structure_of_nonlinearity_and_forcing():
    sys = build_beam(ref_spec())
    n = sys.n
    tip = tip_index(sys)
    assert n == 2 * 25
    assert len(sys.g) == 2
    spring, damper = sys.g
    assert spring.row == tip and damper.row == tip
    assert spring.exponents[tip] == 3 and sum(spring.exponents) == 3
    assert damper.exponents[n + tip] == 3 and sum(damper.exponents) == 3
    assert sys.f[tip] == BEAM["tip_force"]
    assert np.count_nonzero(sys.f) == 1
    assert sys.normalization == "largest"


def test_modal_pipeline_reference_eigenvalue():
    """25-element build: slowest pair -0.0061884 +/- 7.0005i (0.1% both parts)."""
    sys = build_beam(ref_spec())
    mm = modal_decompose(to_first_order(sys), normalization="largest")
    lam1 = mm.eigenvalues[0]
    assert lam1.real == pytest.approx(-0.0061884, rel=1e-3)
    assert lam1.imag == pytest.approx(7.0005, rel=1e-3)
    # Rayleigh damping ties the decay rate to the frequency:
    alpha, beta = BEAM["mass_damping"], BEAM["stiffness_damping"]
    w1 = undamped_frequencies(sys)[0]
    assert lam1.real == pytest.approx(-(alpha + beta * w1 ** 2) / 2, rel=1e-9)


def test_high_modes_can_be_overdamped():
    """Stiffness-proportional damping overdamps the top FE modes; the modal
    pipeline must survive the real eigenvalues."""
    sys = build_beam(ref_spec())
    mm = modal_decompose(to_first_order(sys), normalization="largest")
    assert np.any(mm.eigenvalues.imag == 0)
    assert np.all(np.isfinite(mm.T_inv))


def test_params_file_round_trip(tmp_path):
    spec = ref_spec(elements=7)
    path = tmp_path / "beam.txt"
    write_beam_params(spec, path)
    back = read_beam_params(path)
    assert back == spec


def test_params_file_errors(tmp_path):
    path = tmp_path / "beam.txt"
    path.write_text("length 2700\nheight\n")
    with pytest.raises(ValidationError):
        read_beam_params(path)
    path.write_text("length 2700\n")
    with pytest.raises(ValidationError):
        read_beam_params(path)
    path.write_text("length 2700\n# again\nlength 1\n")
    with pytest.raises(ValidationError,
                       match=r"line 3: repeated key 'length' \(first on line 1\)"):
        read_beam_params(path)
    with pytest.raises(ValidationError):
        BeamSpec(elements=0, **BEAM)
