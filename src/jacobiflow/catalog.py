"""Built-in stationary metric families with hand-coded reference forms.

Each entry pairs the raw ingredients (spatial metric, redshift-squared
profile, equivalent potential) with independently coded closures for the
geodesic-form metric as printed in standard references.  The closures are
deliberately not routed through the generic transform machinery: comparing
the two is the catalog's whole point.

Conventions per entry (checked by the test suite):

* ``rel_ratio``: generic relativistic matrix == rel_ratio * reference matrix.
  1 for Schwarzschild, Bertrand, Kerr; -1 for the Euclidean-signature entry.
* ``nonrel_ratio``: generic matrix == nonrel_ratio * reference matrix for the
  fixed-energy form.  1 where the reference already carries the 2m scale
  (Schwarzschild), 2m where the reference omits it (Bertrand, Kerr).
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .flow import _is_count
from .metric import MetricField, _valid
from .transforms import MechanicalSystem, StationarySpacetime

POLE_MARGIN = 1e-9  # sin(theta) floor shared by all spherical-type charts

# Draws per requested point after which sample_points gives up on a sample box
SAMPLE_DRAWS = 1000


def _square(v):
    """v * v: numpy's array ** 2 rounds unlike its scalar one, a product does not."""
    return v * v


@dataclass(frozen=True)
class CatalogEntry:
    """One parameterized metric family.

    reference_jacobi(x, E_rel) returns the printed relativistic matrix;
    reference_jacobi_nonrel(x, E) the printed fixed-energy matrix where one
    exists; reference_jacobi_weak(x, Q) the weak-potential variant (only the
    Euclidean entry has one).  grad_U is the analytic gradient of U where
    the entry has one.  sample_ranges bounds a box of valid chart points for
    property tests and grid scans.
    """

    name: str
    params: Dict[str, float]
    spatial: MetricField
    Vsq: Callable
    U: Optional[Callable] = None
    grad_U: Optional[Callable] = None
    reference_jacobi: Optional[Callable] = None
    reference_jacobi_nonrel: Optional[Callable] = None
    reference_jacobi_weak: Optional[Callable] = None
    rel_ratio: float = 1.0
    nonrel_ratio: float = 1.0
    sample_ranges: tuple = ()


def spacetime_from_entry(entry):
    """The stationary-spacetime view used by the generic relativistic route."""
    return StationarySpacetime(
        g=entry.spatial,
        Vsq=entry.Vsq,
        m=entry.params["m"],
        c=entry.params.get("c", 1.0),
    )


def mechanical_system_from_entry(entry, E=None):
    """MechanicalSystem over the entry's spatial chart with its equivalent
    potential and its gradient (for orbit-level cross checks)."""
    if entry.U is None:
        raise ValueError(f"entry '{entry.name}' has no equivalent potential")
    return MechanicalSystem(g=entry.spatial, U=entry.U, m=entry.params["m"], E=E,
                            grad_U=entry.grad_U, name=entry.name)


# ======================================================================
# Entries
# ======================================================================

def _spherical_chart(name, radial_ok, diagonal, gradient=None):
    """Diagonal spatial metric '<name>_spatial' on (r, theta, phi) with
    components diagonal(r, theta), valid where radial_ok(r) and
    |sin theta| > POLE_MARGIN, each taking numbers or one array entry per
    point.  gradient(r, theta), when given, returns the r and theta
    derivatives of the diagonal, which become the chart's analytic partials
    (phi is cyclic); without it they are complex steps of diagonal."""
    partials = None
    if gradient is not None:
        def partials(x):
            return [*gradient(x[0], x[1]), [0.0, 0.0, 0.0]]

    def components(x):
        d = np.empty_like(x)
        d[0], d[1], d[2] = diagonal(x[0], x[1])
        return d
    return MetricField(dim=3, components=components, partials=partials,
                       guard=lambda x: (abs(np.sin(x[1])) > POLE_MARGIN) & radial_ok(x[0]),
                       name=f"{name}_spatial", diagonal=True)


def schwarzschild(M, m, c=1.0):
    """Static spherically symmetric vacuum family.

    Chart (r, theta, phi) valid for r > 2M (and r > 0 when M = 0, which is
    allowed and reproduces flat space exactly).
    """
    if not M >= 0:
        raise ValueError("M must be nonnegative")
    if not m > 0:
        raise ValueError("m must be positive")
    M = float(M)
    m = float(m)
    c = float(c)

    def gradient(r, th):
        w = 1.0 - 2.0 * M / r
        s2 = np.sin(th) ** 2
        return ([-2.0 * M / (r * r * w * w), 2.0 * r, 2.0 * r * s2],
                [0.0, 0.0, r * r * np.sin(2.0 * th)])

    spatial = _spherical_chart("schwarzschild", lambda r: r > 2.0 * M, lambda r, th: [
        1.0 / (1.0 - 2.0 * M / r), r * r, r * r * _square(np.sin(th))], gradient)

    def Vsq(x):
        return 1.0 - 2.0 * M / x[0]

    def U(x):
        return -m * M / x[0]

    def grad_U(x):
        return [m * M / (x[0] * x[0]), 0.0, 0.0]

    def reference_jacobi(x, E_rel):
        r, th = x[0], x[1]
        w = 1.0 - 2.0 * M / r
        bracket = (E_rel ** 2 - m * m * c ** 4 * w) / (c * c)
        return bracket * np.diag([
            1.0 / (w * w),
            r * r / w,
            r * r * np.sin(th) ** 2 / w,
        ])

    def reference_jacobi_nonrel(x, E):
        r, th = x[0], x[1]
        w = 1.0 - 2.0 * M / r
        factor = 2.0 * m * (E + m * M / r)
        return factor * np.diag([1.0 / w, r * r, r * r * np.sin(th) ** 2])

    r_lo = 2.2 * M if M > 0 else 0.5
    return CatalogEntry(
        name="schwarzschild",
        params={"M": M, "m": m, "c": c},
        spatial=spatial,
        Vsq=Vsq,
        U=U,
        grad_U=grad_U,
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=1.0,
        sample_ranges=((r_lo, r_lo + 10.0), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
    )


def taub_nut(M, m):
    """Euclidean-signature self-dual family on the chart r > M.

    The dummy angle plays the role of time.  The redshift profile vanishes
    (rather than tending to 1) as M -> 0, so the weak-potential form uses its
    own conserved constant Q.  Because the signature is Euclidean, the printed
    geodesic-form matrix is the negative of the generic transform's output
    (rel_ratio = -1).
    """
    if not M > 0:
        raise ValueError("M must be positive")
    if not m > 0:
        raise ValueError("m must be positive")
    M = float(M)
    m = float(m)

    def gradient(r, th):
        return ([-2.0 * M / (r - M) ** 2, 2.0 * r, 2.0 * r * np.sin(th) ** 2],
                [0.0, 0.0, (r * r - M * M) * np.sin(2.0 * th)])

    spatial = _spherical_chart("taub_nut", lambda r: r > M, lambda r, th: [
        (r + M) / (r - M), r * r - M * M, (r * r - M * M) * _square(np.sin(th))], gradient)

    def Vsq(x):
        r = x[0]
        return 4.0 * M * M * (r - M) / (r + M)

    def reference_jacobi(x, Q_rel):
        r, th = x[0], x[1]
        pref = (r + M) ** 2 / (4.0 * M * M) * (
            4.0 * m * m * M * M * (r - M) / (r + M) - Q_rel ** 2
        )
        return pref * np.diag([1.0 / (r - M) ** 2, 1.0, np.sin(th) ** 2])

    def reference_jacobi_weak(x, Q):
        r, th = x[0], x[1]
        pref = -Q * Q * (r + M) ** 2 / (4.0 * M * M)
        return pref * np.diag([1.0 / (r - M) ** 2, 1.0, np.sin(th) ** 2])

    return CatalogEntry(
        name="taub_nut",
        params={"M": M, "m": m, "c": 1.0},
        spatial=spatial,
        Vsq=Vsq,
        reference_jacobi=reference_jacobi,
        reference_jacobi_weak=reference_jacobi_weak,
        rel_ratio=-1.0,
        sample_ranges=((1.1 * M, 1.1 * M + 8.0 * M), (0.3, np.pi - 0.3),
                       (0.0, 2.0 * np.pi)),
    )


def bertrand(Gamma, h, m, c=1.0, r_range=(0.5, 5.0), name="bertrand", dGamma=None, dh=None):
    """Closed-orbit family: spatial metric diag(h^2, r^2, r^2 sin^2) with
    redshift c^2 V^2 = 1/Gamma(r) and equivalent potential (m/2)(1/Gamma - 1).

    The spatial chart only requires r > 0 and h^2 > 0; where Gamma <= 0 the
    relativistic factor itself reports the domain violation, so fixed-energy
    orbits may run inside the region the relativistic form excludes.

    dh, the derivative of h, gives the chart analytic partials, and dGamma,
    the derivative of Gamma, gives the entry an analytic grad_U; without
    them these are complex steps, and h and Gamma must take complex r.
    """
    if not m > 0:
        raise ValueError("m must be positive")
    m = float(m)
    c = float(c)

    def radial_ok(r):  # r > 0 with h(r) finite and nonzero
        # h is read only at r > 0: its formula need not hold elsewhere
        hv = h(np.where(r > 0.0, r, 1.0))
        return (r > 0.0) & np.isfinite(hv) & (hv * hv > 0.0)

    gradient = None
    if dh is not None:
        def gradient(r, th):
            return ([2.0 * h(r) * dh(r), 2.0 * r, 2.0 * r * np.sin(th) ** 2],
                    [0.0, 0.0, r * r * np.sin(2.0 * th)])

    spatial = _spherical_chart(
        name, radial_ok, lambda r, th: [_square(h(r)), r * r, r * r * _square(np.sin(th))],
        gradient)

    def Vsq(x):
        return 1.0 / (c * c * Gamma(x[0]))

    def U(x):
        return 0.5 * m * (1.0 / Gamma(x[0]) - 1.0)

    grad_U = None
    if dGamma is not None:
        def grad_U(x):
            G = Gamma(x[0])
            return [-0.5 * m * dGamma(x[0]) / (G * G), 0.0, 0.0]

    def reference_jacobi(x, E_rel):
        r, th = x[0], x[1]
        factor = E_rel ** 2 * Gamma(r) - m * m * c * c
        h2 = h(r) ** 2
        return factor * np.diag([h2, r * r, r * r * np.sin(th) ** 2])

    def reference_jacobi_nonrel(x, E):
        r, th = x[0], x[1]
        factor = E + 0.5 * m * (1.0 - 1.0 / Gamma(r))
        h2 = h(r) ** 2
        return factor * np.diag([h2, r * r, r * r * np.sin(th) ** 2])

    return CatalogEntry(
        name=name,
        params={"m": m, "c": c},
        spatial=spatial,
        Vsq=Vsq,
        U=U,
        grad_U=grad_U,
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=2.0 * m,
        sample_ranges=(tuple(r_range), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
    )


def bertrand_kepler(k, m, c=1.0):
    """Inverse-distance specialization: U = -k/r, h = 1, so 1/Gamma =
    1 - 2k/(m r).  The relativistic form needs r > 2k/m."""
    k = float(k)

    def Gamma(r):
        return m * r / (m * r - 2.0 * k)

    def dGamma(r):
        return -2.0 * k * m / (m * r - 2.0 * k) ** 2

    r_lo = 2.0 * k / m
    entry = bertrand(Gamma, lambda r: 1.0, m, c=c,
                     r_range=(1.1 * r_lo + 0.5, 1.1 * r_lo + 8.0),
                     name="bertrand_kepler", dGamma=dGamma, dh=lambda r: 0.0)
    entry.params["k"] = k
    return entry


def bertrand_hooke(lam, m, c=1.0):
    """Oscillator specialization: U = (m/2) lam r^2, h = 1, 1/Gamma =
    1 + lam r^2; Gamma stays positive on the whole half-line."""
    lam = float(lam)

    def Gamma(r):
        return 1.0 / (1.0 + lam * r * r)

    def dGamma(r):
        return -2.0 * lam * r / (1.0 + lam * r * r) ** 2

    entry = bertrand(Gamma, lambda r: 1.0, m, c=c, r_range=(0.3, 6.0),
                     name="bertrand_hooke", dGamma=dGamma, dh=lambda r: 0.0)
    entry.params["lam"] = lam
    return entry


def kerr(M, a, m, c=1.0):
    """Rotating family in Boyer-Lindquist-type coordinates (r, theta, phi).

    Delta = r^2 - 2Mr + a^2, rho^2 = r^2 + a^2 cos^2(theta), in units with
    G = 1 (GM enters only as M).  The chart excludes Delta <= 0; the
    redshift-zero surface rho^2 = 2Mr is rejected by the relativistic
    factor.  The phi-t cross term takes no part in the conformal factor.
    """
    if not m > 0:
        raise ValueError("m must be positive")
    if not M >= 0:
        raise ValueError("M must be nonnegative")
    M = float(M)
    a = float(a)
    m = float(m)
    c = float(c)

    def delta(r):
        return r * r - 2.0 * M * r + a * a

    def rho2(r, th):
        return r * r + a * a * _square(np.cos(th))

    def diagonal(r, th):
        d = delta(r)
        p2 = rho2(r, th)
        s2 = _square(np.sin(th))
        gphph = s2 / p2 * (_square(r * r + a * a) - a * a * d * s2)
        return [p2 / d, p2, gphph]

    def gradient(r, th):
        d = delta(r)
        p2 = rho2(r, th)
        s2 = np.sin(th) ** 2
        sin2 = np.sin(2.0 * th)  # d(sin^2)/dtheta; d(rho^2)/dtheta = -a^2 sin2
        big = (r * r + a * a) ** 2 - a * a * d * s2
        dbig_dr = 4.0 * r * (r * r + a * a) - a * a * s2 * (2.0 * r - 2.0 * M)
        return ([(2.0 * r * d - p2 * (2.0 * r - 2.0 * M)) / (d * d), 2.0 * r,
                 s2 * (dbig_dr * p2 - 2.0 * r * big) / (p2 * p2)],
                [-a * a * sin2 / d, -a * a * sin2,
                 sin2 * ((big - a * a * d * s2) / p2 + a * a * s2 * big / (p2 * p2))])

    spatial = _spherical_chart("kerr", lambda r: (r > 0.0) & (delta(r) > 0.0), diagonal,
                               gradient)

    def Vsq(x):
        r, th = x[0], x[1]
        return 1.0 - 2.0 * M * r / rho2(r, th)

    def U(x):
        r, th = x[0], x[1]
        return -2.0 * M * r / rho2(r, th)

    def grad_U(x):
        r, th = x[0], x[1]
        p2 = rho2(r, th)
        return [2.0 * M * (2.0 * r * r - p2) / (p2 * p2),
                -2.0 * M * r * a * a * np.sin(2.0 * th) / (p2 * p2), 0.0]

    def reference_jacobi(x, E_rel):
        r, th = x[0], x[1]
        p2 = rho2(r, th)
        factor = (E_rel ** 2 * p2 / (c * c * (p2 - 2.0 * M * r))
                  - m * m * c * c)
        return factor * np.diag(diagonal(r, th))

    def reference_jacobi_nonrel(x, E):
        r, th = x[0], x[1]
        factor = E + 2.0 * M * r / rho2(r, th)
        return factor * np.diag(diagonal(r, th))

    r_lo = max(2.1 * M, 1.1 * (M + np.sqrt(max(M * M - a * a, 0.0))))
    if r_lo == 0.0:
        r_lo = 0.5
    return CatalogEntry(
        name="kerr",
        params={"M": M, "a": a, "m": m, "c": c},
        spatial=spatial,
        Vsq=Vsq,
        U=U,
        grad_U=grad_U,
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=2.0 * m,
        sample_ranges=((r_lo, r_lo + 10.0), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
    )


# ======================================================================
# Name-based lookup (CLI and scenario files)
# ======================================================================

CATALOG = {
    "schwarzschild": (schwarzschild, ("M", "m"), ("c",),
                      "static spherically symmetric vacuum; chart r > 2M"),
    "taub_nut": (taub_nut, ("M", "m"), (),
                 "Euclidean self-dual family; chart r > M"),
    "bertrand_kepler": (bertrand_kepler, ("k", "m"), ("c",),
                        "inverse-distance closed-orbit family"),
    "bertrand_hooke": (bertrand_hooke, ("lam", "m"), ("c",),
                       "oscillator closed-orbit family"),
    "kerr": (kerr, ("M", "a", "m"), ("c",),
             "rotating family; chart Delta > 0"),
}


def catalog_entry(name, **params):
    """Construct a catalog entry by name with a parameter map."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog entry '{name}' "
                         f"(known: {', '.join(sorted(CATALOG))})")
    ctor, required, optional, _ = CATALOG[name]
    missing = [p for p in required if p not in params]
    if missing:
        raise ValueError(f"entry '{name}' needs parameters: {', '.join(missing)}")
    unknown = [p for p in params if p not in required + optional]
    if unknown:
        raise ValueError(f"entry '{name}' does not take: {', '.join(unknown)}")
    return ctor(**params)


def sample_points(entry, count, rng):
    """Draw `count` chart points uniformly from the entry's sample box,
    rejecting any the chart guard refuses; ValueError naming the entry once
    SAMPLE_DRAWS * count draws gave fewer points.  A count that is not a
    whole number >= 1 raises ValueError."""
    if not _is_count(count):
        raise ValueError(f"the number of sample points must be a count >= 1, got {count!r}")
    lows = np.array([lo for lo, _ in entry.sample_ranges])
    highs = np.array([hi for _, hi in entry.sample_ranges])
    points, draws = [], 0
    while len(points) < count:
        if draws == SAMPLE_DRAWS * count:
            raise ValueError(f"the chart guard of entry '{entry.name}' accepted {len(points)} "
                             f"of {draws} draws from its sample box, short of {count}")
        draws += 1
        x = lows + (highs - lows) * rng.random(len(lows))
        if _valid(entry.spatial, x):
            points.append(x)
    return points
