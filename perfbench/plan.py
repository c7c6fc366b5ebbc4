"""Seeded task plans for the three benchmark workloads.

A plan is a list of tasks.  Each task is one ``jacobi-flow`` invocation
(argv without ``--out``, plus an optional scenario file) and the legs it
produces; a 2-leg sweep is one task with two legs.  Every number the program
receives is drawn here from the seed and passed as a flag or a scenario
entry; nothing else about the run depends on the seed.

Parameters are drawn by stratified sampling: a range split into n equal
strata gets one uniform draw per stratum.  Each seed still sees the whole
range, but the total amount of work in a round varies little between seeds,
which keeps the timings comparable across seeds.

Launch states are placed on their energy shell with closed forms written
here, independently of the package, so that a rescaled flow always runs the
orbit the plan names.
"""

import math
import random

WORKLOADS = ("kepler_sweep", "fd_charts", "grid_scan")

# acceptance-suite tolerances the legs are gated at
COMPARE_TOL = 1e-6
STATIC_LIFT_TOL = 1e-6
TIMEDEP_LIFT_TOL = 1e-5
# the plain five-point curvature scheme has a roundoff floor of order
# eps / h^2 = 2.2e-16 / (1e-5)^2 = 2.2e-6 (see jacobiflow.curvature); the
# suite's 1e-6 holds on its 100-point grid, a dense scan reaches the floor
CURVATURE_TOL = 1e-5
FACTOR_RTOL = 1e-12
# invariant drift of an orbit (energy; unit_momentum under the rescaled flow)
DRIFT_TOL = 1e-7

GRID_SAMPLES = 30000
# periods covered by each kepler_sweep orbit; the orbits' invariant drift
# grows with the periods covered, and over three periods at rtol 1e-9 it
# passes DRIFT_TOL from e = 0.8 on (1.04e-7 at E = -0.2, e = 0.8; 4.0e-8 at
# e = 0.7), so gated orbits stop at e = 0.7
ORBIT_PERIODS = 3
MAX_ORBIT_E = 0.7

# compare resamples both paths linearly on its default 8000-point grid; that
# resampling error alone passes COMPARE_TOL from e = 0.7 on (1.5e-6 at
# E = -0.5, e = 0.8), so gated compares stop at e = 0.6
MAX_COMPARE_E = 0.6


def strata(rng, n, lo, hi):
    """n draws from [lo, hi], one per equal stratum, in shuffled order."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


def num(value):
    """Round-trip exact text for a float flag."""
    return repr(float(value))


def kepler_launch(E, e, k=1.0, m=1.0):
    """Perihelion of the Kepler orbit with energy E < 0 and eccentricity e,
    in polar coordinates (r, phi)."""
    a = k / (2.0 * abs(E))
    r_p = a * (1.0 - e)
    p_phi = math.sqrt(m * k * a * (1.0 - e * e))
    return [r_p, 0.0], [0.0, p_phi]


def kepler_period(E, k=1.0, m=1.0):
    a = k / (2.0 * abs(E))
    return 2.0 * math.pi * a ** 1.5 * math.sqrt(m / k)


def shell_launch(T, g_rr, g_phph, r0, radial, m=1.0):
    """Equatorial launch at radius r0 of a spherical chart (r, theta, phi)
    with kinetic energy T, a share `radial` of it in the radial direction.

    With H = (g^rr p_r^2 + g^phph p_phi^2) / 2m + U, the momenta below give
    H = U(r0) + T.
    """
    p_r = math.sqrt(2.0 * m * T * radial * g_rr)
    p_phi = math.sqrt(2.0 * m * T * (1.0 - radial) * g_phph)
    return [r0, math.pi / 2, 0.0], [p_r, 0.0, p_phi]


def catalog_orbit(name, rng):
    """System flags, energy, launch and one time period for a bound orbit of
    a catalog entry.  eta scales the kinetic energy against the circular
    value, so the orbit's radial range stays inside the chart."""
    eta = rng.uniform(0.8, 1.2)
    radial = rng.uniform(0.0, 0.2)
    if name == "schwarzschild":
        M, r0 = rng.uniform(0.8, 1.2), rng.uniform(10.0, 14.0)
        U, T = -M / r0, eta * M / (2.0 * r0)
        w = 1.0 - 2.0 * M / r0
        x, p = shell_launch(T, 1.0 / w, r0 * r0, r0, radial)
        flags = ["--M", num(M), "--m", "1.0"]
        period = kepler_period(U + T, k=M)
    elif name == "kerr":
        M, a, r0 = 1.0, rng.uniform(0.2, 0.9), rng.uniform(10.0, 14.0)
        U, T = -2.0 * M / r0, eta * M / r0
        delta = r0 * r0 - 2.0 * M * r0 + a * a
        # equator: rho^2 = r^2, g_rr = rho^2 / Delta
        g_phph = ((r0 * r0 + a * a) ** 2 - a * a * delta) / (r0 * r0)
        x, p = shell_launch(T, r0 * r0 / delta, g_phph, r0, radial)
        flags = ["--M", num(M), "--a", num(a), "--m", "1.0"]
        period = kepler_period(U + T, k=2.0 * M)
    elif name == "bertrand_kepler":
        k, r0 = rng.uniform(0.8, 1.2), rng.uniform(2.5, 4.0)
        U, T = -k / r0, eta * k / (2.0 * r0)
        x, p = shell_launch(T, 1.0, r0 * r0, r0, radial)
        flags = ["--k", num(k), "--m", "1.0"]
        period = kepler_period(U + T, k=k)
    elif name == "bertrand_hooke":
        lam, r0 = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.2)
        U, T = 0.5 * lam * r0 * r0, eta * 0.5 * lam * r0 * r0
        x, p = shell_launch(T, 1.0, r0 * r0, r0, radial)
        flags = ["--lam", num(lam), "--m", "1.0"]
        period = 2.0 * math.pi / math.sqrt(lam)
    else:
        raise ValueError(f"no orbit recipe for catalog entry '{name}'")
    return flags, U + T, x + p, period, T


def initial_flag(values):
    return ["--initial", ",".join(num(v) for v in values)]


def task(tid, group, argv, legs, scenario=None):
    """One CLI invocation.  `group` names the part of the workload the task
    belongs to; the report gives each group's share of wall time."""
    return {"id": tid, "group": group, "argv": argv, "scenario": scenario,
            "legs": legs}


def leg(check, suffix="", **expect):
    return {"check": check, "suffix": suffix, "expect": expect}


def kepler_sweep(rng):
    """Kepler on the polar chart (analytic partials): one 2-leg compare
    sweep on the CLI thread pool with its default launch, two single
    compares at seeded (E, e) launched at perihelion, two rescaled orbits
    over ORBIT_PERIODS periods each on a dense grid."""
    tasks = []
    sweep_E = strata(rng, 2, -0.8, -0.2)
    tasks.append(task(
        "t00", "sweep", ["compare", "--prefix", "t00"],
        [leg("compare", f"_{i:03d}") for i in range(2)],
        scenario={"task": "compare", "system": "kepler",
                  "params": {"E": sweep_E}}))
    for i, (E, e) in enumerate(zip(strata(rng, 2, -0.8, -0.2),
                                   strata(rng, 2, 0.1, MAX_COMPARE_E))):
        x, p = kepler_launch(E, e)
        tid = f"t{i + 1:02d}"
        tasks.append(task(
            tid, "compare", ["compare", "--system", "kepler", "--E", num(E),
                  "--prefix", tid] + initial_flag(x + p),
            [leg("compare")]))
    record = 1000
    for i, (E, e) in enumerate(zip(strata(rng, 2, -0.8, -0.2),
                                   strata(rng, 2, 0.1, MAX_ORBIT_E))):
        x, p = kepler_launch(E, e)
        # the rescaled parameter advances by 2m|E| per unit time on average
        # (virial theorem), so this span covers ORBIT_PERIODS periods
        span = ORBIT_PERIODS * 2.0 * abs(E) * kepler_period(E)
        tid = f"t{i + 3:02d}"
        tasks.append(task(
            tid, "orbit", ["orbit", "--system", "kepler", "--E", num(E), "--flow", "jacobi",
                  "--span", num(span), "--record", str(record), "--prefix", tid]
            + initial_flag(x + p),
            [leg("orbit", flow="jacobi", states=record + 1)]))
    return tasks


def fd_charts(rng):
    """Charts whose partials come from finite differences: the two lifts
    (1-d and 2-d time-dependent base, static base) and on-shell orbits of
    four catalog entries under both flows."""
    tasks = []
    record = 1000
    amps = strata(rng, 2, 0.05, 0.3)
    qs = strata(rng, 2, 0.5, 2.0)
    launches = [
        [rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3)],
        [rng.uniform(0.7, 1.3), rng.uniform(-0.5, 0.5),
         rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.5)],
    ]
    for i, (amp, q, init) in enumerate(zip(amps, qs, launches)):
        tid = f"t{i:02d}"
        # physical time advances at q/m per unit of the lifted parameter, so
        # every lift covers 1.5 units of time whatever q is
        tasks.append(task(
            tid, "lift", ["lift", "--kind", "timedep", "--amp", num(amp), "--q", num(q),
                  "--span", num(1.5 / q), "--record", str(record), "--prefix", tid]
            + initial_flag(init),
            [leg("lift", kind="timedep", states=record + 1)]))
    lam = rng.uniform(0.5, 2.0)
    init = [rng.uniform(0.7, 1.3), rng.uniform(-0.5, 0.5),
            rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.5)]
    # two radians of the oscillator's phase
    tasks.append(task(
        "t02", "lift", ["lift", "--kind", "static", "--lam", num(lam),
                "--span", num(2.0 / math.sqrt(lam)), "--record", str(record),
                "--prefix", "t02"] + initial_flag(init),
        [leg("lift", kind="static", states=record + 1)]))
    n = 3
    for name in ("schwarzschild", "kerr", "bertrand_kepler", "bertrand_hooke"):
        flags, E, state, period, T = catalog_orbit(name, rng)
        for flow in ("hamilton", "jacobi"):
            tid = f"t{n:02d}"
            n += 1
            # a quarter period; the rescaled parameter runs about 2mT times
            # as fast as time
            span = 0.25 * period * (1.0 if flow == "hamilton" else 2.0 * T)
            tasks.append(task(
                tid, "catalog", ["orbit", "--system", name, *flags, "--E", num(E),
                      "--flow", flow, "--span", num(span), "--record", "500",
                      "--prefix", tid] + initial_flag(state),
                [leg("orbit", flow=flow, states=501)]))
    return tasks


def grid_scan(rng):
    """No integration: curvature scans across the three orbit regimes and
    rescaling factors on radial grids, both with large sample counts."""
    def grid(tid, argv, lo, hi, check, **expect):
        bounds = ("--r-min", "--r-max") if check == "curvature" else (
            "--grid-min", "--grid-max")
        return task(
            tid, check, argv + [bounds[0], num(lo), bounds[1], num(hi),
                                "--samples", str(GRID_SAMPLES), "--prefix", tid],
            [leg(check, r_min=lo, r_max=hi, samples=GRID_SAMPLES, **expect)])

    tasks = []
    near = rng.uniform(0.005, 0.02) * rng.choice((-1.0, 1.0))
    for i, E in enumerate([rng.uniform(-0.8, -0.2), near, rng.uniform(0.2, 0.8)]):
        k = rng.uniform(0.5, 2.0)
        lo, hi = 0.5, 5.0
        if E < 0:
            # stay clear of the turning radius k/|E|, where the closed form
            # has a pole that no finite-difference stencil resolves
            lo, hi = min(lo, 0.1 * k / -E), min(hi, 0.9 * k / -E)
        tasks.append(grid(f"t{i:02d}", ["curvature", "--E", num(E), "--k", num(k)],
                          lo, hi, "curvature", E=E, k=k))
    k, E = rng.uniform(0.5, 2.0), rng.uniform(-0.8, 0.8)
    tasks.append(grid(
        "t03", ["transform", "--system", "kepler", "--k", num(k), "--E", num(E)],
        0.5, 5.0, "transform", form="kepler", E=E, k=k, m=1.0))
    lam, E = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    tasks.append(grid(
        "t04", ["transform", "--system", "oscillator", "--lam", num(lam),
                "--E", num(E)],
        0.1, 3.0, "transform", form="oscillator", E=E, lam=lam, m=1.0))
    M, E_rel = rng.uniform(0.5, 1.5), rng.uniform(0.97, 1.3)
    tasks.append(grid(
        "t05", ["transform", "--form", "relativistic", "--system", "schwarzschild",
                "--M", num(M), "--m", "1.0", "--E-rel", num(E_rel)],
        2.5 * M, 40.0, "transform", form="schwarzschild", E_rel=E_rel, M=M, m=1.0))
    a, E_rel = rng.uniform(0.2, 0.9), rng.uniform(0.97, 1.3)
    tasks.append(grid(
        "t06", ["transform", "--form", "relativistic", "--system", "kerr",
                "--M", "1.0", "--a", num(a), "--m", "1.0", "--E-rel", num(E_rel)],
        2.5, 40.0, "transform", form="kerr", E_rel=E_rel, M=1.0, m=1.0))
    return tasks


PLANS = {"kepler_sweep": kepler_sweep, "fd_charts": fd_charts,
            "grid_scan": grid_scan}


def make_plan(workload, seed):
    """The task list of one workload at one seed."""
    if workload not in PLANS:
        raise ValueError(f"unknown workload '{workload}' (one of: "
                         + ", ".join(WORKLOADS) + ")")
    return PLANS[workload](random.Random(f"{workload}:{seed}"))
