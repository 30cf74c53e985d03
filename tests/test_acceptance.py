"""Acceptance suite: every headline number the package promises, checked
end to end at its stated tolerance.

Each test covers one deliverable: closed-form drift coefficients, the
isola merger forcing, the cantilever reference values, quintic root
structure, invariance-defect scaling, brute-force cross-validation, and
stability-label agreement with finite differences.  Runtime budgets are
asserted where the deliverable includes one.
"""

import time

import numpy as np
import pytest

from ssm_resolve.beam import BeamSpec, build_beam, tip_index
from ssm_resolve.frc import trace_frc, physical_amplitude
from ssm_resolve.isola import (roots_of_a, classify_roots,
                               nonspurious_positive_roots, leading_isola)
from ssm_resolve.model import to_first_order, modal_decompose
from ssm_resolve.oracle import sweep, linear_frc_closed_form
from ssm_resolve.reduced import assemble_polar, fixed_point_stability, \
    polar_field
from ssm_resolve.ssm_auto import (compute_autonomous_ssm,
                                  invariance_residual, residual_slope)
from ssm_resolve.ssm_forced import (compute_nonautonomous_ssm,
                                    leading_forcing_coefficient,
                                    forced_residual)

from conftest import BEAM, SP, two_mass_system

#: finite-difference Jacobian eigenvalues inside this band of zero are
#: treated as fold-degenerate (well above the O(h^2) differencing error,
#: well below the smallest genuine decay rate on the traced grids)
FD_DEGENERATE = 1e-7

#: the quintic system's positive order-2 root pair as computed when the
#: acceptance suite was anchored (check 5's references are 0.13 / 0.17)
QUINTIC_ORDER2_ROOTS = (0.13055724509546118, 0.17864995430975372)


# ---------------------------------------------------------------------------
# shared fixtures (module scope: computed once, timed where a budget applies)


@pytest.fixture(scope="module")
def sp_mm():
    return modal_decompose(to_first_order(two_mass_system()))


@pytest.fixture(scope="module")
def sp_ssm3(sp_mm):
    return compute_autonomous_ssm(sp_mm, 3)


@pytest.fixture(scope="module")
def merger_data(sp_mm, sp_ssm3):
    """Closed-form merger forcing plus traced curves just below and just
    above it, with the wall time of the whole computation."""
    t0 = time.perf_counter()
    iso = leading_isola(sp_ssm3, eps=0.0027)
    below = trace_frc(sp_ssm3, sp_mm, 0.0027, rho_max=0.13, n_rho=260)
    above = trace_frc(sp_ssm3, sp_mm, 0.0029, rho_max=0.13, n_rho=260)
    seconds = time.perf_counter() - t0
    return dict(isola=iso, below=below, above=above, seconds=seconds)


@pytest.fixture(scope="module")
def beam25():
    t0 = time.perf_counter()
    sys_ = build_beam(BeamSpec(elements=25, **BEAM))
    mm = modal_decompose(to_first_order(sys_), normalization="largest")
    seconds = time.perf_counter() - t0
    return dict(sys=sys_, mm=mm, seconds=seconds)


@pytest.fixture(scope="module")
def quintic_data():
    """Root track, classification, and traced curves for the two-mass
    system with the added degree-five damper nonlinearity."""
    t0 = time.perf_counter()
    mm = modal_decompose(to_first_order(two_mass_system(quintic=1.2)))
    rt = roots_of_a(compute_autonomous_ssm(mm, 25), range(1, 13))
    labels = classify_roots(rt)
    roots = nonspurious_positive_roots(rt, labels)
    ssm5 = compute_autonomous_ssm(mm, 5)
    traces = {eps: trace_frc(ssm5, mm, eps, rho_max=0.26, n_rho=400,
                             omega_window=(1.58, 1.82))
              for eps in (0.001, 0.0025, 0.003)}
    seconds = time.perf_counter() - t0
    return dict(mm=mm, rt=rt, labels=labels, roots=roots, ssm5=ssm5,
                traces=traces, seconds=seconds)


# ---------------------------------------------------------------------------
# 1. cubic drift coefficient against the closed form


def test_cubic_drift_real_part_matches_closed_form(sp_mm):
    t0 = time.perf_counter()
    ssm = compute_autonomous_ssm(sp_mm, 3)
    seconds = time.perf_counter() - t0
    m, k, alpha = SP["m"], SP["k"], SP["alpha"]
    expected = -3 * alpha * k / (4 * m ** 2)
    got = float(ssm.gamma[0].real)
    assert got == pytest.approx(expected, rel=1e-6)
    assert seconds < 1.0
    print(f"PASS cubic drift: Re gamma_1 = {got:.9f} vs closed form "
          f"{expected} (rel {abs(got - expected) / expected:.1e}), "
          f"{seconds * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. merger forcing amplitude and branch counts across it


def test_merger_forcing_and_branch_counts(merger_data):
    iso = merger_data["isola"]
    assert iso.exists
    assert iso.eps_m == pytest.approx(0.0028, rel=0.02)
    assert iso.disconnected_at_eps  # 0.0027 sits below the merger
    n_below = len(merger_data["below"].components)
    n_above = len(merger_data["above"].components)
    assert n_below == 2
    assert n_above == 1
    assert merger_data["seconds"] < 30.0
    print(f"PASS merger forcing: eps_m = {iso.eps_m:.7f} vs 0.0028 "
          f"(rel {abs(iso.eps_m - 0.0028) / 0.0028:.2%}); components "
          f"{n_below} below, {n_above} above; "
          f"{merger_data['seconds']:.1f} s")


# ---------------------------------------------------------------------------
# 3. cantilever master pair


def test_beam_linear_mode_reference(beam25):
    lam = beam25["mm"].lambda_master
    assert lam.real == pytest.approx(-0.0061884, rel=1e-3)
    assert lam.imag == pytest.approx(7.0005, rel=1e-3)
    assert beam25["seconds"] < 5.0
    print(f"PASS beam master pair: lambda = {lam:.7g} vs "
          f"-0.0061884 + 7.0005i, {beam25['seconds']:.2f} s")


# ---------------------------------------------------------------------------
# 4. cantilever reduced coefficients, rest radius, merger forcing


def test_beam_reduced_coefficients_and_isola_reference(beam25):
    mm = beam25["mm"]
    ssm = compute_autonomous_ssm(mm, 3)
    lam, g1 = mm.lambda_master, complex(ssm.gamma[0])
    assert lam.real == pytest.approx(-0.0061884, rel=0.01)
    assert g1.real == pytest.approx(0.036202, rel=0.01)
    assert lam.imag == pytest.approx(7.0005, rel=0.01)
    assert g1.imag == pytest.approx(0.031689, rel=0.01)
    c10 = leading_forcing_coefficient(mm)
    assert c10.real == pytest.approx(0.54645, rel=0.01)
    assert c10.imag == pytest.approx(0.00048, rel=0.01)
    iso = leading_isola(ssm, eps=0.002)
    assert iso.exists
    assert iso.rho1 == pytest.approx(0.413, rel=0.01)
    assert iso.eps_m == pytest.approx(0.0018, rel=0.05)
    print(f"PASS beam reduced model: gamma_1 = {g1:.6g}, "
          f"c10 = {c10:.6g}, rho_1 = {iso.rho1:.6f} vs 0.413, "
          f"eps_m = {iso.eps_m:.7f} vs 0.0018")


# ---------------------------------------------------------------------------
# 5. quintic system: double-root pair and branch counts


def test_quintic_double_root_pair_and_branch_counts(quintic_data):
    rt = quintic_data["rt"]
    pos = sorted(float(z.real) for z in rt.roots[2]
                 if z.real > 1e-12 and abs(z.imag) <= 1e-9 * abs(z))
    assert len(pos) == 2
    for ref, got in zip((0.13, 0.17), pos):
        assert abs(ref - got) / got <= 0.05
    # regression anchor on the computed pair: the upper root sits 4.8 % from
    # its two-digit reference, so a real drift must fail here long before
    # it reaches the 5 % edge above
    assert pos == pytest.approx(QUINTIC_ORDER2_ROOTS, rel=1e-8)
    # the converged track confirms both roots are genuine: exactly two
    # non-spurious positive trajectories, passing through the order-2 pair
    assert len(quintic_data["roots"]) == 2
    through = sorted(
        t[2].real for t, lab in zip(rt.trajectories, quintic_data["labels"])
        if lab == "non-spurious")
    assert through == pytest.approx(pos, rel=1e-12)
    counts = {eps: len(curve.components)
              for eps, curve in quintic_data["traces"].items()}
    assert counts == {0.001: 3, 0.0025: 2, 0.003: 1}
    assert quintic_data["seconds"] < 120.0
    print(f"PASS quintic roots: rho = {pos[0]:.5f}, {pos[1]:.5f} vs "
          f"0.13, 0.17; components {counts}; "
          f"{quintic_data['seconds']:.1f} s")


# ---------------------------------------------------------------------------
# 6. invariance defects: magnitude and order scaling


def test_invariance_residuals_scale_with_order(sp_mm):
    details = []
    for order in (3, 5, 7):
        ssm = compute_autonomous_ssm(sp_mm, order)
        rng = np.random.default_rng(20 + order)
        pts = 1e-3 * np.exp(2j * np.pi * rng.uniform(size=12))
        res0 = invariance_residual(ssm, pts)
        assert res0["max_relative"] <= 1e-9
        slope0 = residual_slope(lambda s: invariance_residual(ssm, s))
        assert slope0 >= order - 0.2
        fr = compute_nonautonomous_ssm(ssm, sp_mm.lambda_master.imag)
        res1 = forced_residual(ssm, fr, pts)
        assert res1["max_relative"] <= 1e-9
        slope1 = residual_slope(lambda s: forced_residual(ssm, fr, s))
        assert slope1 >= order - 0.2
        details.append(f"order {order}: defects {res0['max_relative']:.1e}/"
                       f"{res1['max_relative']:.1e}, slopes {slope0:.2f}/"
                       f"{slope1:.2f}")
    print("PASS invariance scaling: " + "; ".join(details))


# ---------------------------------------------------------------------------
# 7. brute-force integration cross-checks


@pytest.mark.slow
def test_brute_force_integration_cross_checks(sp_mm, sp_ssm3, merger_data):
    # (a) a linear system: the traced curve must equal the closed form
    lin_mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0,
                                                            alpha=0.0)))
    lin_ssm = compute_autonomous_ssm(lin_mm, 3)
    lin = trace_frc(lin_ssm, lin_mm, 0.001, rho_max=0.0145, n_rho=220)
    errs = [abs(p.rho - linear_frc_closed_form(lin_mm, 0.001, p.omega))
            for p in lin.points]
    assert len(errs) >= 200
    assert max(errs) <= 1e-10

    # (b) predicted attached-branch amplitudes against full integration
    below = merger_data["below"]
    i_tail = min(range(len(below.points)), key=lambda i: below.points[i].rho)
    main = below.components[below.component_of(i_tail)]
    main_pts = [below.points[i] for i in main]
    stable = sorted((p for p in main_pts if p.stability == "stable"),
                    key=lambda p: p.omega)
    uns_om = [p.omega for p in main_pts if p.stability == "unstable"]
    picks = [stable[i] for i in
             sorted(set(np.linspace(0, len(stable) - 1, 28).astype(int)))]
    picks = [p for p in picks
             if all(abs(p.omega - u) > 4e-3 for u in uns_om)][:20]
    assert len(picks) == 20
    picks.sort(key=lambda p: p.omega)
    predicted = []
    for p in picks:
        fr = compute_nonautonomous_ssm(sp_ssm3, p.omega)
        predicted.append(physical_amplitude(sp_ssm3, fr, p, 0, eps=0.0027))
    fos = to_first_order(two_mass_system())
    res = sweep(fos, 0.0027, np.array([p.omega for p in picks]), [0],
                warm_start=False, settle_rel=1e-4, max_measure_periods=900)
    assert bool(res.converged.all())
    rel = np.abs(np.asarray(predicted) - res.amplitude[:, 0]) \
        / res.amplitude[:, 0]
    assert float(rel.max()) <= 0.02

    # (c) the cantilever's no-attractor window: where the traced curve has
    # unstable sheets and no stable point, full integration must fail to
    # settle.  A coarse mesh keeps explicit integration affordable; the
    # predicted instability window is mesh-stable, and reproducing the
    # full-dimension continuation is out of scope here.
    bsys = build_beam(BeamSpec(elements=3, **BEAM))
    bmm = modal_decompose(to_first_order(bsys), normalization="largest")
    bssm = compute_autonomous_ssm(bmm, 3)
    bcurve = trace_frc(bssm, bmm, 0.002, rho_max=0.5, n_rho=300)
    uns = sorted(p.omega for p in bcurve.points
                 if p.stability == "unstable")
    assert uns, "expected an unstable stretch on the traced curve"
    i_lo, i_hi = uns[0], uns[-1]
    inside = [p.omega for p in bcurve.points
              if p.stability == "stable" and i_lo < p.omega < i_hi]
    edges = sorted([i_lo, i_hi] + inside)
    g_lo, g_hi = max(zip(edges, edges[1:]), key=lambda e: e[1] - e[0])
    mid, w = 0.5 * (g_lo + g_hi), 0.5 * (g_hi - g_lo)
    grid = np.round([mid - 3 * w, mid - 1.5 * w, mid - 0.3 * w,
                     mid + 0.3 * w, mid + 1.5 * w, mid + 3 * w], 6)
    bres = sweep(to_first_order(bsys), 0.002, grid, [tip_index(bsys)],
                 warm_start=True, transient_time=450.0,
                 max_measure_periods=900, settle_rel=1e-4)
    bad = [float(om) for om, ok in zip(bres.omega, bres.converged)
           if not ok]
    assert bad, "expected a non-convergent window inside the sweep"
    assert not bres.converged[2] and not bres.converged[3]
    assert min(bad) <= i_hi and max(bad) >= i_lo  # windows overlap
    print(f"PASS brute-force cross-checks: linear max defect "
          f"{max(errs):.2e} over {len(errs)} points; amplitude match "
          f"max rel {float(rel.max()):.2%} over 20 points; beam "
          f"no-settle window [{min(bad):.5f}, {max(bad):.5f}] overlaps "
          f"predicted unstable [{i_lo:.5f}, {i_hi:.5f}]")


# ---------------------------------------------------------------------------
# 8. stability labels against finite-difference Jacobians


def _finite_difference_label(rd, p, eps: float) -> str:
    h_r = 1e-6 * max(1.0, p.rho)
    h_p = 1e-6

    def field(rho, psi):
        return np.array(polar_field(rd, (rho, p.omega, psi), eps=eps))

    col_r = (field(p.rho + h_r, p.psi)
             - field(p.rho - h_r, p.psi)) / (2 * h_r)
    col_p = (field(p.rho, p.psi + h_p)
             - field(p.rho, p.psi - h_p)) / (2 * h_p)
    re = np.linalg.eigvals(np.column_stack([col_r, col_p])).real
    if np.any(np.abs(re) < FD_DEGENERATE):
        return "fold-degenerate"
    return "stable" if np.all(re < 0) else "unstable"


def test_stability_labels_match_finite_difference_jacobian(sp_ssm3,
                                                           merger_data,
                                                           quintic_data):
    curves = [(sp_ssm3, merger_data["below"]),
              (sp_ssm3, merger_data["above"])]
    curves += [(quintic_data["ssm5"], curve)
               for curve in quintic_data["traces"].values()]
    compared = 0
    disagreements = []
    for ssm, curve in curves:
        for p in curve.points:
            fr = compute_nonautonomous_ssm(ssm, p.omega)
            rd = assemble_polar(ssm, fr)
            analytic = fixed_point_stability(
                rd, (p.rho, p.omega, p.psi), curve.eps).label
            assert analytic == p.stability  # the traced tag is reproducible
            fd = _finite_difference_label(rd, p, curve.eps)
            if "fold-degenerate" in (analytic, fd):
                continue
            compared += 1
            if fd != analytic:
                disagreements.append((curve.eps, p.omega, analytic, fd))
    assert compared >= 500
    assert disagreements == []
    print(f"PASS stability agreement: {compared} points compared, "
          f"0 disagreements")
