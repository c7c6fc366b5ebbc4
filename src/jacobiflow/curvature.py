"""Gaussian curvature of conformally flat planar metrics.

A planar system at fixed energy carries the metric f^2(r)(dr^2 + r^2 dphi^2)
with f^2 = E - U(r).  Its Gaussian curvature

    K = -(1 / (r f^2)) d/dr [ (1/f) d(r f)/dr ]

decides the orbit geometry; for the inverse-distance potential the closed
form is K = -kE / (2 (rE + k)^3), positive for bound motion, zero for the
marginal case, negative for escape orbits.  A radial profile is the
conformal scale itself, a callable f(r).
"""

import numpy as np

from .errors import DomainViolation, PoleAtZeroDenominator, TurningPoint

# Step scale for the nested central differences (outer and inner alike).
CURVATURE_STEP = 1e-5


def profile_from_potential(U, E):
    """The profile f(r) = sqrt(E - U(r)), raising TurningPoint where E <= U."""

    def f(r):
        gap = E - U(r)
        if gap <= 0.0:
            raise TurningPoint(f"E - U = {gap:.6g} at r = {r:.6g}")
        return np.sqrt(gap)

    return f


def kepler_profile(k, E):
    """Profile for U = -k/r at energy E."""
    return profile_from_potential(lambda r: -k / r, E)


def _curvature_at_step(profile, r, h):
    if r - 2.0 * h <= 0.0:
        raise TurningPoint(f"stencil around r = {r:.6g} leaves the chart")
    try:
        fm2 = profile(r - 2.0 * h)
        fm1 = profile(r - h)
        f0 = profile(r)
        fp1 = profile(r + h)
        fp2 = profile(r + 2.0 * h)
    except (TurningPoint, DomainViolation) as exc:
        raise TurningPoint(f"stencil around r = {r:.6g} exits validity: {exc}")
    for v in (fm2, fm1, f0, fp1, fp2):
        if not np.isfinite(v) or v <= 0.0:
            raise TurningPoint(f"stencil around r = {r:.6g} exits validity")
    # w(r) = (1/f) d(rf)/dr, sampled at r +- h with the inner difference.
    w_plus = ((r + 2.0 * h) * fp2 - r * f0) / (2.0 * h) / fp1
    w_minus = (r * f0 - (r - 2.0 * h) * fm2) / (2.0 * h) / fm1
    return float(-(w_plus - w_minus) / (2.0 * h) / (r * f0 * f0))


def gaussian_curvature_numeric(profile, r, h_scale=None, richardson=False):
    """Evaluate the curvature formula with nested central differences.

    Both the inner derivative d(rf)/dr and the outer derivative use step
    h = h_scale * max(1, r) (default scale 1e-5), so the value draws on the
    five stencil points r - 2h .. r + 2h.  Raises TurningPoint when the
    stencil leaves the region where f is real and positive.

    The plain scheme carries two error terms: truncation O(h^2) and a
    roundoff floor O(eps / h^2) from differencing nearly equal products.
    No single step beats ~1e-8 absolute on both counts at radii of order
    one.  With richardson=True the value is extrapolated from steps h and
    h/2, cancelling the deterministic h^2 term; pair it with a larger
    truncation-dominated scale such as 1e-3 to resolve curvatures near
    zero down to ~1e-10.
    """
    r = float(r)
    if h_scale is None:
        h_scale = CURVATURE_STEP
    h = h_scale * max(1.0, abs(r))
    coarse = _curvature_at_step(profile, r, h)
    if not richardson:
        return coarse
    fine = _curvature_at_step(profile, r, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def kepler_curvature(k, E, r):
    """Closed-form curvature -kE / (2 (rE + k)^3) for U = -k/r."""
    den = r * E + k
    if den == 0.0:
        raise PoleAtZeroDenominator(
            f"rE + k vanishes at r = {r:.6g} (E = {E:.6g}, k = {k:.6g})"
        )
    return -k * E / (2.0 * den ** 3)


def classify_orbit(E):
    """Orbit regime from the energy sign: bound, marginal, or escape."""
    if E < 0.0:
        return "ellipse"
    if E == 0.0:
        return "parabola"
    return "hyperbola"


def kepler_eccentricity(E, L, m=1.0, k=1.0):
    """Two-body eccentricity e = sqrt(1 + 2 E L^2 / (m k^2))."""
    radicand = 1.0 + 2.0 * E * L * L / (m * k * k)
    if radicand < 0.0:
        raise ValueError(f"eccentricity undefined: radicand = {radicand:.6g}")
    return float(np.sqrt(radicand))


def classify_eccentricity(e):
    """Regime of an eccentricity value, with a tolerance band of 1e-6 at e = 1."""
    if abs(e - 1.0) <= 1e-6:
        return "parabola"
    return "ellipse" if e < 1.0 else "hyperbola"
