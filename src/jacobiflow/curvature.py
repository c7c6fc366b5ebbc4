"""Gaussian curvature of conformally flat planar metrics.

A planar system at fixed energy carries the metric f^2(r)(dr^2 + r^2 dphi^2)
with f^2 = E - U(r).  Its Gaussian curvature

    K = -(1 / (r f^2)) d/dr [ (1/f) d(r f)/dr ]

decides the orbit geometry; for the inverse-distance potential the closed
form is K = -kE / (2 (rE + k)^3), positive for bound motion, zero for the
marginal case, negative for escape orbits.  A radial profile is the
conformal scale itself, a callable f(r).  The numeric curvature is one
scheme: nested central differences at steps h and h/2, extrapolated to
cancel their h^2 truncation term.  Its stencil spans r - 2h .. r + 2h with
h = CURVATURE_STEP * max(1, |r|), so radii within 2h (0.12% of max(1, r))
of a turning radius are refused.  It takes one radius; a scan calls it once
per radius, while the closed form takes the scan's radii as one array.
"""

import math

import numpy as np

from .errors import DomainViolation, PoleAtZeroDenominator, TurningPoint

# Step scale h / max(1, |r|) of the coarse nested difference; the fine one takes h/2.
CURVATURE_STEP = 6e-4


def profile_from_potential(U, E):
    """The profile f(r) = sqrt(E - U(r)), raising TurningPoint where E <= U."""

    def f(r):
        gap = E - U(r)
        if gap <= 0.0:
            raise TurningPoint(f"E - U = {gap:.6g} at r = {r:.6g}")
        return math.sqrt(gap)

    return f


def kepler_profile(k, E):
    """Profile for U = -k/r at energy E."""
    return profile_from_potential(lambda r: -k / r, E)


def _curvature_at_step(r, h, fm2, fm1, f0, fp1, fp2):
    """The nested difference at step h from f at r - 2h, r - h, r, r + h, r + 2h."""
    # w(r) = (1/f) d(rf)/dr, sampled at r +- h with the inner difference.
    w_plus = ((r + 2.0 * h) * fp2 - r * f0) / (2.0 * h) / fp1
    w_minus = (r * f0 - (r - 2.0 * h) * fm2) / (2.0 * h) / fm1
    return -(w_plus - w_minus) / (2.0 * h) / (r * f0 * f0)


def gaussian_curvature_numeric(profile, r):
    """The curvature formula by nested central differences, each sharing its
    step between d(rf)/dr and the outer derivative, as (4 K(h/2) - K(h)) / 3.
    Raises TurningPoint when the seven-point stencil leaves r > 0 or the
    region where f is finite and positive, and ValueError for a complex or
    non-finite radius."""
    if isinstance(r, (complex, np.complexfloating)) or not -math.inf < r < math.inf:
        raise ValueError(f"the radius must be real and finite, got {r!r}")
    r = float(r)
    h = CURVATURE_STEP * max(1.0, abs(r))
    if r - 2.0 * h <= 0.0:
        raise TurningPoint(f"stencil around r = {r:.6g} leaves the chart")
    try:
        fm4 = profile(r - 2.0 * h)
        fm2 = profile(r - h)
        fm1 = profile(r - 0.5 * h)
        f0 = profile(r)
        fp1 = profile(r + 0.5 * h)
        fp2 = profile(r + h)
        fp4 = profile(r + 2.0 * h)
    except (TurningPoint, DomainViolation) as exc:
        raise TurningPoint(f"stencil around r = {r:.6g} exits validity: {exc}")
    # each test fails on NaN as well
    if not (0.0 < fm4 < math.inf and 0.0 < fm2 < math.inf and 0.0 < fm1 < math.inf
            and 0.0 < f0 < math.inf and 0.0 < fp1 < math.inf and 0.0 < fp2 < math.inf
            and 0.0 < fp4 < math.inf):
        raise TurningPoint(f"stencil around r = {r:.6g} exits validity")
    coarse = _curvature_at_step(r, h, fm4, fm2, f0, fp2, fp4)
    fine = _curvature_at_step(r, 0.5 * h, fm2, fm1, f0, fp1, fp2)
    return float((4.0 * fine - coarse) / 3.0)


def kepler_curvature(k, E, r):
    """Closed-form curvature -kE / (2 (rE + k)^3) for U = -k/r, at one radius
    (a float) or over an array of radii (an array of their shape), each value
    with the bits of its one-radius call.  A complex or non-finite radius
    raises ValueError and a radius at rE + k = 0 PoleAtZeroDenominator, each
    naming the first such radius."""
    r = np.asarray(r)
    bad = ~np.isfinite(r) if r.dtype.kind in "biuf" else np.ones(r.shape, bool)
    if bad.any():
        first = r.ravel().tolist()[np.argmax(bad)]
        raise ValueError(f"the radius must be real and finite, got {first!r}")
    den = r * E + k
    pole = den == 0.0
    if pole.any():
        raise PoleAtZeroDenominator(f"rE + k vanishes at r = {r.flat[np.argmax(pole)]:.6g} "
                                    f"(E = {E:.6g}, k = {k:.6g})")
    # np.float_power rounds a cube as Python's den ** 3 does; numpy's ** does not
    K = -k * E / (2.0 * np.float_power(den, 3))
    return float(K) if K.ndim == 0 else K


def classify_orbit(E):
    """Orbit regime from the energy sign: bound, marginal, or escape."""
    if not math.isfinite(E):
        raise ValueError(f"the energy must be finite, got {E!r}")
    if E < 0.0:
        return "ellipse"
    if E == 0.0:
        return "parabola"
    return "hyperbola"


def kepler_eccentricity(E, L, m=1.0, k=1.0):
    """Two-body eccentricity e = sqrt(1 + 2 E L^2 / (m k^2)), for m > 0 and k != 0."""
    if not all(map(math.isfinite, (E, L, m, k))):
        raise ValueError(f"E, L, m and k must be finite, got {E!r}, {L!r}, {m!r}, {k!r}")
    if not m > 0 or k == 0:
        raise ValueError(f"the eccentricity needs m > 0 and k != 0, got m = {m!r}, k = {k!r}")
    radicand = 1.0 + 2.0 * E * L * L / (m * k * k)
    if radicand < 0.0:
        raise ValueError(f"eccentricity undefined: radicand = {radicand:.6g}")
    return math.sqrt(radicand)


def classify_eccentricity(e):
    """Regime of an eccentricity value, with a tolerance band of 1e-6 at e = 1."""
    if not 0.0 <= e < math.inf:
        raise ValueError(f"an eccentricity must be finite and nonnegative, got {e!r}")
    if abs(e - 1.0) <= 1e-6:
        return "parabola"
    return "ellipse" if e < 1.0 else "hyperbola"
