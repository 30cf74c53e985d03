"""Model layer: first-order embedding, modal coordinates, resonance checks."""

from pathlib import Path

import numpy as np
import pytest

from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import (NonResonanceError, SemisimplicityError,
                                ValidationError)
from ssm_resolve.isola import leading_isola
from ssm_resolve.model import (COND_LIMIT, NORMALIZATIONS, FirstOrderSystem,
                               MechanicalSystem, PolyTerm, to_first_order,
                               modal_decompose, spectral_quotient,
                               check_nonresonance)
from ssm_resolve.polyalg import Monomials
from ssm_resolve.ssm_auto import compute_autonomous_ssm

from conftest import (MIXED_TERMS, SP, two_mass_lambda, two_mass_system,
                      with_terms)

# cantilever reference parameters (mm / kg / s), as in test_beam
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)

#: modal models of modal_golden_systems() under both normalizations,
#: recorded before the conditioning gate stopped computing an SVD: keys
#: "<system>_<policy>_<field>" for the fields of modal_fields(). They are
#: compared bit for bit, as recorded on x86-64 with NumPy 2.4 and OpenBLAS.
MODAL_GOLDEN = Path(__file__).parent / "data" / "modal_golden.npz"


def overdamped_system():
    """Two DOF, the second overdamped: real eigenvalue singletons."""
    return MechanicalSystem(M=np.eye(2), C=np.diag([0.1, 5.0]),
                            K=np.eye(2), g=[PolyTerm(1, 0.3, (0, 3, 0, 0))],
                            f=np.array([1.0, 0.0]))


def modal_golden_systems():
    """System name -> first-order system pinned by MODAL_GOLDEN."""
    return {"two_mass": to_first_order(two_mass_system()),
            "beam25": to_first_order(build_beam(BeamSpec(elements=25, **BEAM))),
            "overdamped": to_first_order(overdamped_system())}


def modal_fields(mm):
    """The arrays of a modal model that MODAL_GOLDEN pins, by name."""
    return {"eigenvalues": mm.eigenvalues, "T": mm.T, "T_inv": mm.T_inv,
            "F_m": mm.F_m, "inject": mm.monomials.inject}


def test_first_order_blocks(sp_system):
    fos = to_first_order(sp_system)
    n = 2
    assert np.allclose(fos.A[:n, :n], 0)
    assert np.allclose(fos.A[:n, n:], np.eye(n))
    assert np.allclose(fos.A[n:, :n], -np.linalg.solve(sp_system.M, sp_system.K))
    assert np.allclose(fos.A[n:, n:], -np.linalg.solve(sp_system.M, sp_system.C))
    # forcing and injections live in the velocity block only
    assert np.allclose(fos.F[:n], 0)
    assert np.allclose(fos.F[n:], sp_system.f / SP["m"])
    assert np.allclose(fos.monomials.inject[:n], 0)


def test_first_order_nonlinearity_eval(sp_system):
    fos = to_first_order(sp_system)
    x = np.array([0.2, -0.1, 0.4, 0.05])
    val = fos.nonlinearity(x)
    expected = np.zeros(4)
    expected[2] = -(SP["kappa"] * x[0] ** 3 + SP["alpha"] * x[2] ** 3) / SP["m"]
    assert np.allclose(val, expected, atol=1e-15)


def test_batch_nonlinearity_equals_columns_exactly():
    fos = to_first_order(build_beam(BeamSpec(elements=2, **BEAM)))
    X = np.random.default_rng(7).standard_normal((8, 64))
    batch = fos.nonlinearity(X)
    cols = np.column_stack([fos.nonlinearity(c) for c in X.T])
    assert batch.shape == (8, 64)
    assert batch.tobytes() == cols.tobytes()


def test_eigenvalues_match_closed_form(sp_modal):
    lam = sp_modal.eigenvalues
    l1, l2 = two_mass_lambda(1), two_mass_lambda(2)
    assert lam[0] == pytest.approx(l1, rel=1e-12)
    assert lam[1] == np.conj(lam[0])  # exactly conjugate by construction
    assert lam[2] == pytest.approx(l2, rel=1e-12)
    assert lam[3] == np.conj(lam[2])
    # decreasing real part
    assert lam[0].real > lam[2].real


def test_first_position_transform_structure(sp_modal):
    """Position parts of the mode shapes are (1, 1) and (1, -1); velocity rows
    are the eigenvalue times the position rows."""
    T = sp_modal.T
    lam = sp_modal.eigenvalues
    assert np.allclose(T[0], np.ones(4), atol=1e-10)
    assert np.allclose(T[1], [1, 1, -1, -1], atol=1e-10)
    assert np.allclose(T[2], T[0] * lam, atol=1e-10)
    assert np.allclose(T[3], T[1] * lam, atol=1e-10)
    assert np.allclose(sp_modal.T_inv @ T, np.eye(4), atol=1e-12)


def test_modal_field_matches_physical_field(sp_system, sp_modal):
    """T*(Lambda q + G_m(q)) must equal A x + G_p(x) at x = T q."""
    rng = np.random.default_rng(3)
    fos = to_first_order(sp_system)
    for _ in range(10):
        qr = rng.standard_normal(4) * 0.1
        q = sp_modal.T_inv @ (fos.A @ np.zeros(4) + qr)  # arbitrary complex-ish q
        lhs = sp_modal.T @ (sp_modal.eigenvalues * q + sp_modal.nonlinearity(q))
        x = sp_modal.T @ q
        rhs = fos.A @ x + fos.nonlinearity(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.fixture(scope="module")
def mixed_modal():
    return modal_decompose(to_first_order(with_terms(MIXED_TERMS)))


def test_mixed_modal_nonlinearity_is_projected_physical_one(mixed_modal):
    """G_m(q) = T^-1 G_p(T q), one state and a batch, for terms that read
    several variables and have even degree."""
    fos = to_first_order(with_terms(MIXED_TERMS))
    rng = np.random.default_rng(11)
    Q = mixed_modal.T_inv @ (0.2 * rng.standard_normal((4, 6)))
    want = mixed_modal.T_inv @ fos.nonlinearity(mixed_modal.T @ Q)
    got = mixed_modal.nonlinearity(Q)
    assert got.shape == (4, 6)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a batch is evaluated column by column
    X = mixed_modal.T @ Q
    assert np.array_equal(mixed_modal.monomials.value(X[:, 2]), got[:, 2])


@pytest.mark.parametrize("space", ["physical", "modal"])
def test_mixed_jacobian_apply_matches_central_difference(mixed_modal, space):
    rng = np.random.default_rng(13)
    x = 0.3 * rng.standard_normal((4, 5))
    u = rng.standard_normal((4, 5))
    mono = to_first_order(with_terms(MIXED_TERMS)).monomials
    if space == "modal":
        # the modal injections act on complex physical states x = T q
        mono = mixed_modal.monomials
        x, u = x + 0.1j * u, u - 0.5j * x
    h = 1e-5
    want = (mono.value(x + h * u) - mono.value(x - h * u)) / (2 * h)
    got = mono.jacobian_apply(x, u)
    assert got.shape == (4, 5)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    # one point at a time gives the batch columns
    assert np.allclose(mono.jacobian_apply(x[:, 1], u[:, 1]), got[:, 1],
                       rtol=1e-14, atol=0)


def test_forcing_transform(sp_system, sp_modal):
    assert np.allclose(sp_modal.T @ sp_modal.F_m, to_first_order(sp_system).F,
                       atol=1e-12)


def test_largest_normalization(sp_system):
    mm = modal_decompose(to_first_order(sp_system), normalization="largest")
    for col in range(4):
        v = mm.T[:, col]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        z = v[np.argmax(np.abs(v))]
        assert z.imag == pytest.approx(0.0, abs=1e-12)
        assert z.real > 0
    # spectrum is normalization-independent
    assert mm.eigenvalues[0] == pytest.approx(two_mass_lambda(1), rel=1e-12)


@pytest.mark.parametrize("system", ["two_mass", "beam25"])
def test_merger_forcing_is_independent_of_normalization(system):
    # first-position scaling makes the beam's eigenvector matrix look
    # near-defective (cond ~ 1e14) although the spectrum is semisimple
    sys_ = (two_mass_system() if system == "two_mass"
            else build_beam(BeamSpec(elements=25, **BEAM)))
    fos = to_first_order(sys_)
    eps_m = []
    for policy in ("first-position", "largest"):
        mm = modal_decompose(fos, normalization=policy)
        iso = leading_isola(compute_autonomous_ssm(mm, 3), eps=0.002)
        eps_m.append(iso.eps_m)
    assert eps_m[0] == pytest.approx(eps_m[1], rel=1e-9)


def test_master_selection(sp_system):
    mm = modal_decompose(to_first_order(sp_system), master=1)
    assert mm.eigenvalues[0] == pytest.approx(two_mass_lambda(2), rel=1e-12)
    with pytest.raises(ValidationError):
        modal_decompose(to_first_order(sp_system), master=5)


def test_spectral_quotient(sp_modal):
    # ratio = Re(lam_2)/Re(lam_1) = (c1 + 2 c2)/c1 = 4.46... -> integer part 4
    ratio = (SP["c1"] + 2 * SP["c2"]) / SP["c1"]
    assert int(ratio) == 4
    assert spectral_quotient(sp_modal) == 4


def test_nonresonance_returns_the_smallest_relative_margin(sp_modal):
    # the closest integer multiple is q = 4 on both slots of the enslaved
    # pair: margin |4*r - Re(lam_2)| / |Re(lam_2)|
    r = sp_modal.eigenvalues[0].real
    re2 = sp_modal.eigenvalues[2].real
    margin = check_nonresonance(sp_modal, spectral_quotient(sp_modal))
    assert margin == pytest.approx(abs(4 * r - re2) / abs(re2), rel=1e-12)


def test_nonresonance_raises_for_an_exact_violation():
    # c2 = c1/2 makes the second modal damper exactly 2*c1, so
    # Re(lam_2) = 2*Re(lam_1) exactly: a 2nd-order real-part resonance,
    # reported for the first violating slot
    sys = two_mass_system(c2=SP["c1"] / 2)
    mm = modal_decompose(to_first_order(sys))
    with pytest.raises(NonResonanceError) as info:
        check_nonresonance(mm, sigma=4)
    assert str(info.value) == (
        "real-part resonance up to order 4: Re(lam_2) = 2*Re(lam_0) + "
        "0*Re(lam_1) within tolerance; pass check=False to override")
    # below order 2 nothing is refused, however small the margin
    assert check_nonresonance(mm, sigma=1) < 1e-8


def test_semisimplicity_error_on_critical_damping():
    sys = MechanicalSystem(M=np.eye(1), C=np.array([[2.0]]), K=np.eye(1),
                           g=[], f=np.zeros(1))
    with pytest.raises(SemisimplicityError):
        modal_decompose(to_first_order(sys))


def test_overdamped_modes_are_handled():
    fos = to_first_order(overdamped_system())
    mm = modal_decompose(fos)
    lam = mm.eigenvalues
    assert lam[0].imag > 0 and lam[1] == np.conj(lam[0])
    assert lam[2].imag == 0 and lam[3].imag == 0
    assert lam[2].real >= lam[3].real
    # field consistency still holds with real columns present
    rng = np.random.default_rng(5)
    q = mm.T_inv @ rng.standard_normal(4)
    lhs = mm.T @ (lam * q + mm.nonlinearity(q))
    x = mm.T @ q
    rhs = fos.A @ x + fos.nonlinearity(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("system", ["two_mass", "beam25", "overdamped"])
def test_modal_model_matches_golden_bit_for_bit(system):
    fos = modal_golden_systems()[system]
    with np.load(MODAL_GOLDEN) as npz:
        for policy in NORMALIZATIONS:
            mm = modal_decompose(fos, normalization=policy)
            for name, got in modal_fields(mm).items():
                want = npz[f"{system}_{policy}_{name}"]
                assert got.dtype == want.dtype, (policy, name)
                assert got.shape == want.shape, (policy, name)
                assert got.tobytes() == want.tobytes(), (policy, name)


def _refuse(*args, **kwargs):
    raise AssertionError("the conditioning gate computed an SVD")


@pytest.mark.parametrize("system", ["two_mass", "beam25"])
@pytest.mark.parametrize("policy", NORMALIZATIONS)
def test_well_conditioned_models_need_no_svd(monkeypatch, system, policy):
    """The Frobenius bound settles the gate on the benchmark systems."""
    fos = modal_golden_systems()[system]
    monkeypatch.setattr(np.linalg, "cond", _refuse)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    mm = modal_decompose(fos, normalization=policy)
    assert len(mm.eigenvalues) == len(fos.A)


def synthetic_system(spread, n=4, seed=1):
    """x' = A x with A = W B W^-1: B holds n decaying rotation blocks and W
    has n singular values 1 and n equal to 1 / spread, so the eigenvector
    matrix's conditioning is tuned by spread; no nonlinearity, no forcing."""
    rng = np.random.default_rng(seed)
    R1, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    R2, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    W = R1 @ np.diag([1.0] * n + [1.0 / spread] * n) @ R2
    B = np.zeros((2 * n, 2 * n))
    for k in range(n):
        a, b = -0.01 * (k + 1), 1.0 + k
        B[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, a]]
    return FirstOrderSystem(A=W @ B @ np.linalg.inv(W),
                            monomials=Monomials([], [], np.zeros((2 * n, 0))),
                            F=np.zeros(2 * n))


def _unit_column_cond_and_bound(A):
    """The exact gate's number and the Frobenius bound, from eig directly."""
    V = np.linalg.eig(A)[1]
    norms = np.linalg.norm(V, axis=0)
    s = np.linalg.svd(V / norms, compute_uv=False)
    return (s[0] / s[-1],
            np.sqrt(len(A)) * np.linalg.norm(norms[:, None] * np.linalg.inv(V)))


@pytest.fixture
def svd_conds(monkeypatch):
    """Every condition number the code under test computes, in order."""
    seen, cond = [], np.linalg.cond

    def record(*args, **kwargs):
        seen.append(cond(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(np.linalg, "cond", record)
    return seen


def test_bound_above_limit_falls_back_to_the_svd_and_passes(svd_conds):
    fos = synthetic_system(6e7)
    cond, bound = _unit_column_cond_and_bound(fos.A)
    assert 0.5 * COND_LIMIT < cond < COND_LIMIT < bound
    mm = modal_decompose(fos)
    assert len(svd_conds) == 1
    assert svd_conds[0] == pytest.approx(cond, rel=1e-4)
    assert np.allclose(mm.T @ np.diag(mm.eigenvalues) @ mm.T_inv, fos.A,
                       rtol=0, atol=1e-6 * np.abs(fos.A).max())


def test_condition_just_above_limit_raises_with_the_svd_number(svd_conds):
    fos = synthetic_system(7e7)
    cond, _ = _unit_column_cond_and_bound(fos.A)
    assert COND_LIMIT < cond < 2 * COND_LIMIT
    with pytest.raises(SemisimplicityError) as err:
        modal_decompose(fos)
    assert len(svd_conds) == 1 and svd_conds[0] >= COND_LIMIT
    assert f"condition number {svd_conds[0]:.3g} >= 1e8" in str(err.value)


@pytest.mark.parametrize("master", [0, 5])
def test_defective_spectrum_is_reported_before_a_bad_master(master):
    # the second DOF is critically damped: a double eigenvalue -1 with one
    # eigenvector; master 5 does not exist, master 0 does
    sys = MechanicalSystem(M=np.eye(2), C=np.diag([0.1, 2.0]), K=np.eye(2),
                           g=[], f=np.ones(2))
    with pytest.raises(SemisimplicityError):
        modal_decompose(to_first_order(sys), master=master)


def test_single_dof_is_vacuously_nonresonant():
    sys = MechanicalSystem(M=np.eye(1), C=np.array([[0.1]]), K=np.eye(1),
                           g=[], f=np.ones(1))
    mm = modal_decompose(to_first_order(sys))
    assert spectral_quotient(mm) == 1
    assert check_nonresonance(mm, sigma=3) == np.inf


def test_validation_rejects_bad_inputs():
    good = two_mass_system()
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.array([[1.0, 0.2], [0.0, 1.0]]), C=good.C,
                         K=good.K, g=[], f=good.f)  # asymmetric M
    with pytest.raises(ValidationError):
        MechanicalSystem(M=-np.eye(2), C=good.C, K=good.K, g=[], f=good.f)
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(0, 1.0, (1, 0, 0))], f=good.f)  # arity
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(0, 1.0, (1, 0, 0, 0))], f=good.f)  # degree 1
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(7, 1.0, (3, 0, 0, 0))], f=good.f)  # row
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K, g=[], f=good.f,
                         normalization="fancy")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["M", "C", "K", "f",
                                  "the coefficients of g"])
def test_non_finite_system_data_is_refused_by_name(name, value):
    """Checked before symmetry and the mass matrix's Cholesky factor, which
    would misread a NaN or an infinity on the diagonal."""
    base = two_mass_system()
    data = {"M": base.M.copy(), "C": base.C.copy(), "K": base.K.copy(),
            "f": base.f.copy(), "g": list(base.g)}
    if name == "f":
        data["f"][1] = value
    elif name in data:
        data[name][1, 1] = value
    else:
        data["g"][0] = PolyTerm(0, value, data["g"][0].exponents)
    with pytest.raises(ValidationError,
                       match=f"^non-finite entry in {name}$"):
        MechanicalSystem(**data)
