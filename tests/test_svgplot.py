"""Rendering: deterministic output, stability styling, order grading."""

import numpy as np
import pytest

from ssm_resolve.errors import ValidationError
from ssm_resolve.frc import FrcCurve
from ssm_resolve.isola import RootTrack
from ssm_resolve.reduced import FixedPointU
from ssm_resolve.svgplot import PALETTE, _px, _ticks, frc_svg, roots_svg


def _curve():
    pts, comps = [], [[], []]
    for i, rho in enumerate(np.linspace(0.01, 0.05, 9)):
        pts.append(FixedPointU(rho=rho, omega=1.7 + 0.01 * i, psi=0.3,
                               stability="stable", branch="K-"))
        comps[0].append(len(pts) - 1)
    for i, rho in enumerate(np.linspace(0.08, 0.12, 9)):
        stab = "fold-degenerate" if i == 4 else "unstable"
        pts.append(FixedPointU(rho=rho, omega=1.73 + 0.002 * i, psi=1.1,
                               stability=stab, branch="K+"))
        comps[1].append(len(pts) - 1)
    return FrcCurve(eps=1e-3, points=pts, folds=np.array([0.05]),
                    components=comps, rho_max=0.13, n_rho=9)


def _svg(curve=None, **kw):
    """frc_svg of ``curve`` (the default ``_curve()``) with each point's
    reduced amplitude rho as its y value."""
    curve = curve or _curve()
    return frc_svg(curve, [p.rho for p in curve.points], **kw)


def _track():
    orders = [1, 3, 5]
    roots = {1: np.array([0.0 + 0j]),
             3: np.array([0.0 + 0j, 0.105 + 0j]),
             5: np.array([0.0 + 0j, 0.104 + 0j, 0.3 + 0.2j])}
    trajectories = [{3: 0.105 + 0j, 5: 0.104 + 0j}, {5: 0.3 + 0.2j}]
    radius = {1: np.inf, 3: 0.4, 5: 0.35}
    return RootTrack(orders=orders, roots=roots, trajectories=trajectories,
                     radius=radius, radial=np.array([-0.015, 1.35]))


class TestHelpers:
    def test_pixel_format_is_short_and_stable(self):
        assert _px(120.004) == "120"
        assert _px(3.456) == "3.46"
        assert _px(10.0) == "10"

    def test_ticks_cover_range_with_round_steps(self):
        t = _ticks(0.0, 1.0)
        assert t[0] >= 0.0 and t[-1] <= 1.0 and len(t) >= 4
        steps = np.diff(t)
        assert np.allclose(steps, steps[0])

    def test_ticks_reject_empty_range(self):
        with pytest.raises(ValidationError):
            _ticks(1.0, 1.0)


class TestFrcSvg:
    def test_document_structure(self):
        svg = _svg(header=["tool x", "hash y"])
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "<!-- tool x -->" in svg
        assert svg.count("<polyline") >= 2

    def test_unstable_runs_are_dashed(self):
        svg = _svg()
        dashed = [ln for ln in svg.splitlines()
                  if "polyline" in ln and "stroke-dasharray" in ln]
        solid = [ln for ln in svg.splitlines()
                 if "polyline" in ln and "stroke-dasharray" not in ln
                 and "#404040" not in ln]
        assert dashed and solid

    def test_fold_degenerate_points_are_open_circles(self):
        svg = _svg()
        assert 'fill="white"' in svg

    def test_deterministic(self):
        assert _svg() == _svg()

    def test_one_point_run_is_a_dot_in_its_component_colour(self):
        """A branch of one point has no line to draw: it is a filled dot,
        and a single point cut off by a stability change is one too."""
        pts = [FixedPointU(rho=0.01, omega=1.7, psi=0.3, stability="stable",
                           branch="K+"),
               FixedPointU(rho=0.1, omega=1.72, psi=0.3, stability="stable",
                           branch="K+"),
               FixedPointU(rho=0.11, omega=1.73, psi=0.3,
                           stability="unstable", branch="K+"),
               FixedPointU(rho=0.12, omega=1.74, psi=0.3,
                           stability="unstable", branch="K+")]
        curve = FrcCurve(eps=1e-3, points=pts, folds=np.array([]),
                         components=[[0], [1, 2, 3]], rho_max=0.13, n_rho=13)
        svg = _svg(curve)
        assert svg.count('r="2.5"') == 2
        assert f'r="2.5" fill="{PALETTE[0]}"' in svg
        assert f'r="2.5" fill="{PALETTE[1]}"' in svg
        assert svg.count("<polyline") == 1

    def test_amplitude_override_changes_geometry(self):
        ys = np.linspace(1.0, 2.0, 18)
        assert frc_svg(_curve(), ys) != _svg()

    def test_empty_curve_draws_a_note(self):
        empty = FrcCurve(eps=1e-3, points=[], folds=np.array([]),
                         components=[], rho_max=0.1, n_rho=5)
        svg = _svg(empty, header=["tool x"])
        assert svg.endswith("</svg>\n")
        assert "<!-- tool x -->" in svg
        assert "response curve, forcing amplitude 0.001" in svg
        assert ">no accepted points</text>" in svg
        assert "<rect x=" not in svg and "<polyline" not in svg


class TestRootsSvg:
    def test_one_marker_per_root(self):
        svg = roots_svg(_track())
        # 6 roots across the three orders plus 2 legend swatches
        assert svg.count("<circle") == 8

    def test_order_grading_uses_both_endpoints(self):
        svg = roots_svg(_track())
        assert "#c6dbef" in svg and "#08306b" in svg

    def test_trajectory_polyline_present(self):
        svg = roots_svg(_track())
        assert any("polyline" in ln and "#b0b0b0" in ln
                   for ln in svg.splitlines())

    def test_deterministic(self):
        assert roots_svg(_track()) == roots_svg(_track())

    def test_empty_track_rejected(self):
        bad = RootTrack(orders=[], roots={}, trajectories=[], radius={},
                        radial=np.array([]))
        with pytest.raises(ValidationError):
            roots_svg(bad)
