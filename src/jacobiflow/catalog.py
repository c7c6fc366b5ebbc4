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

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .metric import MetricField
from .transforms import (
    MechanicalSystem,
    StationarySpacetime,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
)

POLE_MARGIN = 1e-9  # sin(theta) floor shared by all spherical-type charts


@dataclass(frozen=True)
class CatalogEntry:
    """One parameterized metric family.

    reference_jacobi(x, E_rel) returns the printed relativistic matrix;
    reference_jacobi_nonrel(x, E) the printed fixed-energy matrix where one
    exists; reference_jacobi_weak(x, Q) the weak-potential variant (only the
    Euclidean entry has one).  sample_ranges bounds a box of valid chart
    points for property tests and grid scans.  A, where set, is the family's
    gauge one-form, kept as reference data: the generic transforms do not
    read it.
    """

    name: str
    params: Dict[str, float]
    spatial: MetricField
    Vsq: Callable
    A: Optional[Callable] = None
    U: Optional[Callable] = None
    reference_jacobi: Optional[Callable] = None
    reference_jacobi_nonrel: Optional[Callable] = None
    reference_jacobi_weak: Optional[Callable] = None
    rel_ratio: float = 1.0
    nonrel_ratio: float = 1.0
    sample_ranges: tuple = ()
    metadata: Dict = field(default_factory=dict)


def spacetime_from_entry(entry):
    """The stationary-spacetime view used by the generic relativistic route."""
    return StationarySpacetime(
        g=entry.spatial,
        Vsq=entry.Vsq,
        m=entry.params["m"],
        c=entry.params.get("c", 1.0),
        name=entry.name,
    )


def generic_relativistic(entry, E_rel):
    """Generic relativistic transform applied to the entry's ingredients."""
    return jacobi_relativistic_stationary(spacetime_from_entry(entry), E_rel)


def generic_nonrelativistic(entry, E):
    """Generic fixed-energy transform on the entry's spatial metric and
    equivalent potential."""
    return jacobi_nonrelativistic(mechanical_system_from_entry(entry, E=E))


def mechanical_system_from_entry(entry, E=None):
    """MechanicalSystem over the entry's spatial chart with its equivalent
    potential (for orbit-level cross checks)."""
    if entry.U is None:
        raise ValueError(f"entry '{entry.name}' has no equivalent potential")
    return MechanicalSystem(
        g=entry.spatial, U=entry.U, m=entry.params["m"], E=E, name=entry.name
    )


# ======================================================================
# Entries
# ======================================================================

def schwarzschild(M, m, c=1.0):
    """Static spherically symmetric vacuum family.

    Chart (r, theta, phi) valid for r > 2M (and r > 0 when M = 0, which is
    allowed and reproduces flat space exactly).
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if m <= 0:
        raise ValueError("m must be positive")
    M = float(M)
    m = float(m)
    c = float(c)

    def guard(x):
        r, th = x[0], x[1]
        return r > 0.0 and r > 2.0 * M and abs(np.sin(th)) > POLE_MARGIN

    def components(x):
        r, th = x[0], x[1]
        w = 1.0 - 2.0 * M / r
        return np.diag([1.0 / w, r * r, r * r * np.sin(th) ** 2])

    spatial = MetricField(dim=3, components=components, guard=guard,
                          name="schwarzschild_spatial")

    def Vsq(x):
        return 1.0 - 2.0 * M / x[0]

    def U(x):
        return -m * M / x[0]

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
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=1.0,
        sample_ranges=((r_lo, r_lo + 10.0), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
    )


def taub_nut(M, m):
    """Euclidean-signature self-dual family on the chart r > M.

    The dummy angle plays the role of time with the one-form A = cos(theta)
    dphi; the redshift profile vanishes (rather than tending to 1) as M -> 0,
    so the weak-potential form uses its own conserved constant Q.  Because the
    signature is Euclidean, the printed geodesic-form matrix is the negative
    of the generic transform's output (rel_ratio = -1).
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if m <= 0:
        raise ValueError("m must be positive")
    M = float(M)
    m = float(m)

    def guard(x):
        r, th = x[0], x[1]
        return r > M and abs(np.sin(th)) > POLE_MARGIN

    def components(x):
        r, th = x[0], x[1]
        return np.diag([
            (r + M) / (r - M),
            r * r - M * M,
            (r * r - M * M) * np.sin(th) ** 2,
        ])

    spatial = MetricField(dim=3, components=components, guard=guard,
                          name="taub_nut_spatial")

    def Vsq(x):
        r = x[0]
        return 4.0 * M * M * (r - M) / (r + M)

    def A(x):
        return np.array([0.0, 0.0, np.cos(x[1])])

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
        A=A,
        reference_jacobi=reference_jacobi,
        reference_jacobi_weak=reference_jacobi_weak,
        rel_ratio=-1.0,
        sample_ranges=((1.1 * M, 1.1 * M + 8.0 * M), (0.3, np.pi - 0.3),
                       (0.0, 2.0 * np.pi)),
    )


def bertrand(Gamma, h, m, c=1.0, r_range=(0.5, 5.0), name="bertrand"):
    """Closed-orbit family: spatial metric diag(h^2, r^2, r^2 sin^2) with
    redshift c^2 V^2 = 1/Gamma(r) and equivalent potential (m/2)(1/Gamma - 1).

    The spatial chart only requires r > 0 and h^2 > 0; where Gamma <= 0 the
    relativistic factor itself reports the domain violation, so fixed-energy
    orbits may run inside the region the relativistic form excludes.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    m = float(m)
    c = float(c)

    def guard(x):
        r, th = x[0], x[1]
        if r <= 0.0 or abs(np.sin(th)) <= POLE_MARGIN:
            return False
        hv = h(r)
        return np.isfinite(hv) and hv * hv > 0.0

    def components(x):
        r, th = x[0], x[1]
        h2 = h(r) ** 2
        return np.diag([h2, r * r, r * r * np.sin(th) ** 2])

    spatial = MetricField(dim=3, components=components, guard=guard,
                          name=f"{name}_spatial")

    def Vsq(x):
        return 1.0 / (c * c * Gamma(x[0]))

    def U(x):
        return 0.5 * m * (1.0 / Gamma(x[0]) - 1.0)

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
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=2.0 * m,
        sample_ranges=(tuple(r_range), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
        metadata={"Gamma": Gamma, "h": h},
    )


def bertrand_kepler(k, m, c=1.0):
    """Inverse-distance specialization: U = -k/r, h = 1, so 1/Gamma =
    1 - 2k/(m r).  The relativistic form needs r > 2k/m."""
    k = float(k)

    def Gamma(r):
        return m * r / (m * r - 2.0 * k)

    r_lo = 2.0 * k / m
    entry = bertrand(Gamma, lambda r: 1.0, m, c=c,
                     r_range=(1.1 * r_lo + 0.5, 1.1 * r_lo + 8.0),
                     name="bertrand_kepler")
    entry.params["k"] = k
    return entry


def bertrand_hooke(lam, m, c=1.0):
    """Oscillator specialization: U = (m/2) lam r^2, h = 1, 1/Gamma =
    1 + lam r^2; Gamma stays positive on the whole half-line."""
    lam = float(lam)

    def Gamma(r):
        return 1.0 / (1.0 + lam * r * r)

    entry = bertrand(Gamma, lambda r: 1.0, m, c=c, r_range=(0.3, 6.0),
                     name="bertrand_hooke")
    entry.params["lam"] = lam
    return entry


def kerr(M, a, m, G=1.0, c=1.0):
    """Rotating family in Boyer-Lindquist-type coordinates (r, theta, phi).

    Delta = r^2 - 2GMr + a^2, rho^2 = r^2 + a^2 cos^2(theta).  The chart
    excludes Delta <= 0; the redshift-zero surface rho^2 = 2GMr is rejected
    by the relativistic factor.  The phi-t cross term is carried in metadata
    but takes no part in the conformal factor.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    M = float(M)
    a = float(a)
    m = float(m)
    G = float(G)
    c = float(c)

    def delta(r):
        return r * r - 2.0 * G * M * r + a * a

    def rho2(r, th):
        return r * r + a * a * np.cos(th) ** 2

    def guard(x):
        r, th = x[0], x[1]
        return r > 0.0 and delta(r) > 0.0 and abs(np.sin(th)) > POLE_MARGIN

    def components(x):
        r, th = x[0], x[1]
        d = delta(r)
        p2 = rho2(r, th)
        s2 = np.sin(th) ** 2
        gphph = s2 / p2 * ((r * r + a * a) ** 2 - a * a * d * s2)
        return np.diag([p2 / d, p2, gphph])

    spatial = MetricField(dim=3, components=components, guard=guard,
                          name="kerr_spatial")

    def Vsq(x):
        r, th = x[0], x[1]
        return 1.0 - 2.0 * G * M * r / rho2(r, th)

    def U(x):
        r, th = x[0], x[1]
        return -2.0 * G * M * r / rho2(r, th)

    def reference_jacobi(x, E_rel):
        r, th = x[0], x[1]
        p2 = rho2(r, th)
        factor = (E_rel ** 2 * p2 / (c * c * (p2 - 2.0 * G * M * r))
                  - m * m * c * c)
        return factor * components(x)

    def reference_jacobi_nonrel(x, E):
        r, th = x[0], x[1]
        factor = E + 2.0 * G * M * r / rho2(r, th)
        return factor * components(x)

    def cross_term(x):
        r, th = x[0], x[1]
        return -2.0 * G * M * a * r * np.sin(th) ** 2 / rho2(r, th)

    r_lo = max(2.1 * G * M, 1.1 * (G * M + np.sqrt(max(G * G * M * M - a * a, 0.0))))
    if r_lo == 0.0:
        r_lo = 0.5
    return CatalogEntry(
        name="kerr",
        params={"M": M, "a": a, "m": m, "G": G, "c": c},
        spatial=spatial,
        Vsq=Vsq,
        U=U,
        reference_jacobi=reference_jacobi,
        reference_jacobi_nonrel=reference_jacobi_nonrel,
        rel_ratio=1.0,
        nonrel_ratio=2.0 * m,
        sample_ranges=((r_lo, r_lo + 10.0), (0.3, np.pi - 0.3), (0.0, 2.0 * np.pi)),
        metadata={"Delta": delta, "rho2": rho2, "cross_term_tphi": cross_term},
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
    "kerr": (kerr, ("M", "a", "m"), ("G", "c"),
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
    rejecting any the chart guard refuses."""
    lows = np.array([lo for lo, _ in entry.sample_ranges])
    highs = np.array([hi for _, hi in entry.sample_ranges])
    points = []
    while len(points) < count:
        x = lows + (highs - lows) * rng.random(len(lows))
        if entry.spatial.guard is None or entry.spatial.guard(x):
            points.append(x)
    return points
