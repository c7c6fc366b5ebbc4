"""Gaussian curvature of the rescaled plane and orbit classification."""

import numpy as np
import pytest

from jacobiflow import (
    PoleAtZeroDenominator,
    TurningPoint,
    classify_eccentricity,
    classify_orbit,
    gaussian_curvature_numeric,
    kepler_curvature,
    kepler_eccentricity,
    kepler_profile,
    profile_from_potential,
)


def test_closed_form_reference_values():
    # -kE / (2 (rE + k)^3)
    assert kepler_curvature(1.0, -0.5, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert kepler_curvature(1.0, 0.5, 1.0) == pytest.approx(-0.5 / 6.75, rel=1e-15)


def test_closed_form_zero_energy_is_flat():
    for r in (0.5, 1.0, 3.7, 5.0):
        assert kepler_curvature(1.0, 0.0, r) == 0.0


def test_closed_form_pole():
    # rE + k = 0 at r=2 for E=-0.5, k=1
    with pytest.raises(PoleAtZeroDenominator):
        kepler_curvature(1.0, -0.5, 2.0)


def test_constant_profile_is_flat():
    prof = lambda r: 2.0
    for r in (0.7, 1.0, 4.0):
        assert abs(gaussian_curvature_numeric(prof, r)) < 1e-6


def test_numeric_matches_closed_form_on_grid():
    rs = np.linspace(0.5, 5.0, 100)
    for E in (-0.5, -0.1, 0.1, 0.5):
        prof = kepler_profile(1.0, E)
        worst = 0.0
        valid = 0
        for r in rs:
            try:
                kn = gaussian_curvature_numeric(prof, r)
            except TurningPoint:
                continue
            kc = kepler_curvature(1.0, E, r)
            valid += 1
            worst = max(worst, abs(kn - kc) / max(1.0, abs(kc)))
        assert valid >= 30
        assert worst < 1e-6


def test_extrapolated_difference_resolves_flat_case():
    # extrapolating from a truncation-dominated step resolves a zero curvature
    prof = kepler_profile(1.0, 0.0)
    for r in (0.5, 1.3, 5.0):
        assert abs(gaussian_curvature_numeric(prof, r)) < 1e-9
    # and it stays consistent with the closed form away from zero
    bound = kepler_profile(1.0, -0.5)
    assert abs(gaussian_curvature_numeric(bound, 1.0) - 2.0) < 1e-9


def test_oscillator_profile_matches_ong_closed_form():
    # U = lam r^2 / 2 has Laplacian 2 lam and |grad U|^2 = lam^2 r^2, so
    # K = [2 lam (E - U) + lam^2 r^2] / (2 (E - U)^3) = lam E / (E - U)^3
    for lam, E in ((1.0, 0.5), (2.0, 1.5), (0.5, 2.0)):
        prof = profile_from_potential(lambda r: 0.5 * lam * r * r, E)
        for r in np.linspace(0.05, 0.9 * np.sqrt(2.0 * E / lam), 200):
            kc = lam * E / (E - 0.5 * lam * r * r) ** 3
            kn = gaussian_curvature_numeric(prof, r)
            assert abs(kn - kc) / max(1.0, abs(kc)) < 1e-7, (lam, E, r)


def test_numeric_sign_tracks_energy():
    rs = np.linspace(0.6, 5.0, 40)
    for E, sign in ((-0.4, 1.0), (0.4, -1.0)):
        prof = kepler_profile(1.0, E)
        for r in rs:
            try:
                kn = gaussian_curvature_numeric(prof, r)
            except TurningPoint:
                continue
            kc = kepler_curvature(1.0, E, r)
            if abs(kc) > 1e-10:
                assert np.sign(kn) == sign


def test_curvature_grows_toward_turning_boundary():
    # for E=-0.5 the rescaled plane ends at r=2 and curvature blows up there
    prof = kepler_profile(1.0, -0.5)
    rs = np.linspace(0.5, 5.0, 100)
    magnitudes = []
    for r in rs:
        try:
            magnitudes.append(abs(gaussian_curvature_numeric(prof, r)))
        except TurningPoint:
            break
    tail = magnitudes[-10:]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_numeric_raises_on_stencil_exit():
    prof = kepler_profile(1.0, -0.5)
    with pytest.raises(TurningPoint):
        gaussian_curvature_numeric(prof, 2.0)
    with pytest.raises(TurningPoint):
        gaussian_curvature_numeric(prof, 1.99999)
    # the stencil must also stay right of the origin
    with pytest.raises(TurningPoint):
        gaussian_curvature_numeric(prof, 1e-6)


def test_profile_from_potential_matches_kepler_profile():
    prof_u = profile_from_potential(lambda r: -1.0 / r, E=-0.5)
    prof_k = kepler_profile(1.0, -0.5)
    for r in (0.5, 1.0, 1.9):
        assert prof_u(r) == pytest.approx(prof_k(r), rel=1e-15)
    with pytest.raises(TurningPoint):
        prof_u(2.5)


def test_classify_orbit_regimes():
    assert classify_orbit(-0.5) == "ellipse"
    assert classify_orbit(0.0) == "parabola"
    assert classify_orbit(0.5) == "hyperbola"


def test_eccentricity_oracle():
    # e^2 = 1 + 2 E L^2 / (m k^2)
    e = kepler_eccentricity(-0.5, np.sqrt(0.75))
    assert e == pytest.approx(0.5, rel=1e-14)
    assert kepler_eccentricity(0.0, 1.3) == 1.0
    assert kepler_eccentricity(0.5, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        kepler_eccentricity(-0.5, 2.0)  # radicand negative: no such orbit


def test_classify_eccentricity_bands():
    assert classify_eccentricity(0.4) == "ellipse"
    assert classify_eccentricity(1.0) == "parabola"
    assert classify_eccentricity(1.0 + 5e-7) == "parabola"
    assert classify_eccentricity(1.0 - 5e-7) == "parabola"
    assert classify_eccentricity(1.0 + 5e-6) == "hyperbola"
    assert classify_eccentricity(1.7) == "hyperbola"
