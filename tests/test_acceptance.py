"""Acceptance suite: one test per externally visible guarantee, each with a
pinned tolerance.  These are end-to-end checks over the public API; the
per-module suites hold the finer-grained oracles."""

import time

import mpmath
import numpy as np
import pytest

from jacobiflow import (
    FlowState,
    MechanicalSystem,
    StationarySpacetime,
    TurningPoint,
    bertrand_hooke,
    catalog_entry,
    clairaut_constant,
    classify_eccentricity,
    classify_orbit,
    compare_paths,
    embed_static,
    embed_time_dependent,
    energy_from_state,
    evaluate_metric,
    flat_metric,
    gaussian_curvature_numeric,
    hamilton_flow,
    integrate,
    integrate_lifted,
    jacobi_flow,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    jacobi_time_dependent,
    jacobi_time_dependent_approx,
    kepler_curvature,
    kepler_eccentricity,
    kepler_profile,
    kerr,
    lift_static,
    lift_time_dependent,
    lifted_hamiltonian,
    mechanical_pz,
    mechanical_system_from_entry,
    nonrelativistic_limit_factor,
    polar_metric,
    project,
    sample_points,
    schwarzschild,
    spacetime_from_entry,
    taub_nut,
    unit_momentum_hamiltonian,
    weak_field_spacetime,
)

KEPLER_PERIOD = 2.0 * np.pi  # a = 1 for m = k = 1, E = -1/2


def kepler_system(E=-0.5):
    return MechanicalSystem(
        g=polar_metric(), U=lambda x: -1.0 / x[0], m=1.0, E=E, name="kepler"
    )


def perihelion_state():
    # e = 0.5 ellipse: launch at r_min with the matching angular momentum
    return np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)])


def rescaled_span(sys, x0, p0, t_span, rtol=1e-9, atol=1e-12):
    """Total rescaled parameter accumulated by the time flow over t_span."""
    paced = integrate(
        hamilton_flow(sys),
        FlowState(x0, p0),
        t_span,
        rtol=rtol,
        atol=atol,
        pacing=lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x)),
    )
    return paced.monitors["pacing"][-1]


def test_rescaled_flow_retraces_the_orbit():
    # same phase point, two generators: the configuration paths must coincide
    sys = kepler_system()
    x0, p0 = perihelion_state()
    started = time.perf_counter()

    paced = integrate(
        hamilton_flow(sys),
        FlowState(x0, p0),
        KEPLER_PERIOD,
        pacing=lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x)),
        record_grid=6283,
    )
    s_max = paced.monitors["pacing"][-1]
    rescaled = integrate(
        jacobi_flow(sys),
        FlowState(x0, p0),
        s_max,
        record_grid=6283,
    )
    deviation = compare_paths(paced, rescaled)
    elapsed = time.perf_counter() - started

    assert deviation < 1e-6
    assert elapsed < 5.0


def eccentric_anomaly(form, value):
    """u with form(u) = value, solved at 30 digits from the guess u = value."""
    with mpmath.workdps(30):
        return float(mpmath.findroot(lambda u: form(u) - value, mpmath.mpf(value)))


def test_both_flows_follow_the_eccentric_anomaly_forms():
    # Kepler, e = 0.5, m = k = 1, one period from perihelion: with a = -k/(2E)
    # and n = sqrt(k/(m a^3)), a state at eccentric anomaly u has
    # r = a(1 - e cos u) and true anomaly phi from u, and sits at
    # t = (u - e sin u)/n and s = (mk/(an))(u + e sin u) (ds = 2m(E + k/r) dt,
    # dt = r du/(an)).  Each recorded state of each flow is held to these
    # forms at its own parameter, and each flow's cumulative pacing to the
    # other parameter.  The largest error measured at rtol 1e-9 is 5.0e-9
    # (phi, time flow); the bound 1e-8 leaves a margin of 2.
    e, a, m, k = 0.5, 1.0, 1.0, 1.0
    n = np.sqrt(k / (m * a ** 3))
    scale = m * k / (a * n)
    sys = MechanicalSystem(g=polar_metric(), U=lambda x: -k / x[0], m=m, E=-k / (2.0 * a),
                           grad_U=lambda x: np.array([k / (x[0] * x[0]), 0.0]), name="kepler")
    x0, p0 = perihelion_state()
    gap = lambda x: 2.0 * m * (sys.E - sys.potential(x))
    period = {"t": 2.0 * np.pi / n, "s": 2.0 * np.pi * scale}
    forms = {"t": lambda u: (u - e * mpmath.sin(u)) / n,
             "s": lambda u: scale * (u + e * mpmath.sin(u))}
    runs = [(hamilton_flow(sys), "t", "s", lambda t, x, p: gap(x)),
            (jacobi_flow(sys), "s", "t", lambda s, x, p: 1.0 / gap(x))]
    for rhs, own, other, pacing in runs:
        traj = integrate(rhs, FlowState(x0, p0), period[own], pacing=pacing, record_grid=2000)
        assert traj.termination == "completed" and len(traj.params) == 2001
        u = np.array([eccentric_anomaly(forms[own], v) for v in traj.params])
        r = a * (1.0 - e * np.cos(u))
        phi = 2.0 * np.arctan2(np.sqrt(1.0 + e) * np.sin(u / 2), np.sqrt(1.0 - e) * np.cos(u / 2))
        paced = np.array([float(forms[other](v)) for v in u])
        assert np.max(np.abs(traj.x[:, 0] - r)) < 1e-8, own
        assert np.max(np.abs(traj.x[:, 1] - phi)) < 1e-8, own
        assert np.max(np.abs(traj.monitors["pacing"] - paced)) < 1e-8 * period[other], own


def oscillator_forms(lam, m, A, B):
    """x(t), y(t), s(t) and the inverse t(s) of the oscillator U = lam |x|^2 / 2
    on the flat plane launched at (A, 0) with p = (0, m B w), w = sqrt(lam/m):
    x = A cos wt, y = B sin wt, and ds = 2m(E - U) dt = m^2 |x'|^2 dt gives
    s = m^2 w^2 [(A^2 + B^2) t/2 - (A^2 - B^2) sin(2wt)/(4w)].  t(s) is
    Newton's method from the mean rate; s' >= m^2 w^2 min(A, B)^2 > 0."""
    w = np.sqrt(lam / m)
    rate = m * m * w * w

    def s_of(t):
        return rate * ((A * A + B * B) * t / 2 - (A * A - B * B) * np.sin(2 * w * t) / (4 * w))

    def t_of(s):
        t = s / (rate * (A * A + B * B) / 2)
        for _ in range(50):
            t = t - (s_of(t) - s) / (rate * (A * A * np.sin(w * t) ** 2
                                             + B * B * np.cos(w * t) ** 2))
        assert np.max(np.abs(s_of(t) - s)) < 1e-13 * max(1.0, np.max(s))
        return t

    return (lambda t: A * np.cos(w * t)), (lambda t: B * np.sin(w * t)), s_of, t_of


def test_both_flows_follow_the_oscillator_forms():
    # lam = 2, m = 1.5, A = 1.2, B = 0.7, one period of each parameter: each
    # recorded state of each flow is held to the forms of oscillator_forms
    # at its own parameter (a rescaled state's t from inverting s(t)), and
    # each flow's cumulative pacing to the other parameter.  The largest
    # error measured at rtol 1e-9 is 2.1e-9 (x, rescaled flow); the bound
    # 1e-8 leaves a margin of 4.
    lam, m, A, B = 2.0, 1.5, 1.2, 0.7
    w = np.sqrt(lam / m)
    x_of, y_of, s_of, t_of = oscillator_forms(lam, m, A, B)
    sys = MechanicalSystem(g=flat_metric(2), U=lambda x: 0.5 * lam * (x * x).sum(axis=0), m=m,
                           E=0.5 * m * w * w * (A * A + B * B), grad_U=lambda x: lam * x,
                           name="oscillator")
    launch = FlowState(np.array([A, 0.0]), np.array([0.0, m * B * w]))
    gap = lambda x: 2.0 * m * (sys.E - sys.potential(x))
    period = {"t": 2.0 * np.pi / w, "s": s_of(2.0 * np.pi / w)}
    runs = [(hamilton_flow(sys), "t", "s", lambda t, x, p: gap(x)),
            (jacobi_flow(sys), "s", "t", lambda s, x, p: 1.0 / gap(x))]
    for rhs, own, other, pacing in runs:
        traj = integrate(rhs, launch, period[own], pacing=pacing, record_grid=2000)
        assert traj.termination == "completed" and len(traj.params) == 2001
        t = traj.params if own == "t" else t_of(traj.params)
        paced = s_of(t) if own == "t" else t
        assert np.max(np.abs(traj.x[:, 0] - x_of(t))) < 1e-8, own
        assert np.max(np.abs(traj.x[:, 1] - y_of(t))) < 1e-8, own
        assert np.max(np.abs(traj.monitors["pacing"] - paced)) < 1e-8 * period[other], own


def test_unit_momentum_level_set_over_ten_periods():
    # the rescaled flow lives on the unit level set of its own Hamiltonian;
    # holding 1e-8 over ten periods needs tighter-than-default step control,
    # since the accumulated error is roughly N_steps times the local one
    cases = []

    sys = kepler_system()
    cases.append((sys, *perihelion_state(), KEPLER_PERIOD))

    hooke = mechanical_system_from_entry(bertrand_hooke(1.0, 1.0), E=0.68)
    cases.append((
        hooke,
        np.array([1.0, np.pi / 2, 0.0]),
        np.array([0.0, 0.0, 0.6]),
        2.0 * np.pi,
    ))

    for sys, x0, p0, period in cases:
        s_max = rescaled_span(sys, x0, p0, 10.0 * period, rtol=1e-11, atol=1e-13)
        traj = integrate(
            jacobi_flow(sys),
            FlowState(x0, p0),
            s_max,
            rtol=1e-11,
            atol=1e-13,
        )
        worst = np.max(np.abs(unit_momentum_hamiltonian(sys, traj.x, traj.p) - 1.0))
        assert worst < 1e-8, f"{sys.name}: {worst}"


def test_angular_invariant_in_both_parametrizations():
    sys = kepler_system()
    x0, p0 = perihelion_state()

    timed = integrate(
        hamilton_flow(sys),
        FlowState(x0, p0),
        10.0 * KEPLER_PERIOD,
    )
    s_max = rescaled_span(sys, x0, p0, 10.0 * KEPLER_PERIOD)
    rescaled = integrate(
        jacobi_flow(sys), FlowState(x0, p0), s_max
    )

    values_t = [clairaut_constant(sys, x, p, "time_t") for x, p in zip(timed.x, timed.p)]
    values_s = [clairaut_constant(sys, x, p, "jacobi_s") for x, p in zip(rescaled.x, rescaled.p)]
    assert (max(values_t) - min(values_t)) / abs(values_t[0]) < 1e-9
    assert (max(values_s) - min(values_s)) / abs(values_s[0]) < 1e-9

    # both formulas agree pointwise on identical phase points
    worst = max(
        abs(clairaut_constant(sys, x, p, "time_t") - clairaut_constant(sys, x, p, "jacobi_s"))
        for x, p in zip(timed.x, timed.p)
    )
    assert worst < 1e-10


def test_curvature_closed_form_matches_finite_differences():
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
        assert worst < 1e-6, f"E={E}: {worst}"

    # marginal energy: the rescaled plane is exactly flat, and the
    # extrapolated difference resolves that zero
    prof = kepler_profile(1.0, 0.0)
    for r in rs:
        assert kepler_curvature(1.0, 0.0, r) == 0.0
        numeric = gaussian_curvature_numeric(prof, r)
        assert abs(numeric) < 1e-8


def test_orbit_regimes_match_eccentricity_oracle():
    # integrate one orbit per energy sign, then classify it twice: once from
    # the configured energy, once from the measured two-body eccentricity
    launches = (
        (-0.5, np.array([0.5, 0.0]), np.array([0.0, np.sqrt(0.75)])),
        (0.0, np.array([1.0, 0.0]), np.array([1.0, 1.0])),
        (0.5, np.array([1.0, 0.0]), np.array([np.sqrt(2.0), 1.0])),
    )
    for E, x0, p0 in launches:
        sys = kepler_system(E)
        traj = integrate(
            hamilton_flow(sys), FlowState(x0, p0), 5.0
        )
        x, p = traj.x[-1], traj.p[-1]
        e = kepler_eccentricity(energy_from_state(sys, x, p), p[1])
        assert classify_eccentricity(e) == classify_orbit(E), (E, e)

    # the tolerance band pins the marginal regime at e = 1 +/- 1e-6; probe a
    # hair inside and outside the edge so binary rounding cannot flip the
    # comparison at the exact boundary value
    assert classify_eccentricity(1.0 - 9.9e-7) == classify_orbit(0.0)
    assert classify_eccentricity(1.0 + 9.9e-7) == classify_orbit(0.0)
    assert classify_eccentricity(1.0 - 1.1e-6) == "ellipse"
    assert classify_eccentricity(1.0 + 1.1e-6) == "hyperbola"


def test_relativistic_factor_limit_is_quadratic_in_inverse_c():
    # relative error against 2m(E - U) must fall like c^-2; sample points sit
    # deep in the potential so the c^-2 term dominates the cancellation noise
    # of the large-energy subtraction
    E_nr = -0.5
    cs = (1e2, 1e3, 1e4)

    errors = {"schwarzschild": [], "kepler": []}
    x_s = np.array([0.1, np.pi / 2, 0.0])
    x_k = np.array([0.05, 0.0])
    for c in cs:
        # spherically symmetric vacuum family in physical units: the mass
        # parameter of the geometric-units chart is G M / c^2
        entry = catalog_entry("schwarzschild", M=1.0 / c**2, m=1.0, c=c)
        conf = jacobi_relativistic_stationary(spacetime_from_entry(entry), c * c + E_nr)
        factor = conf.factor_at(x_s)
        target = 2.0 * (E_nr + 1.0 / x_s[0])
        errors["schwarzschild"].append(abs(factor - target) / target)

        st = weak_field_spacetime(flat_metric(2), lambda x: -1.0 / x[0], m=1.0, c=c)
        factor = nonrelativistic_limit_factor(st, E_nr).factor_at(x_k)
        target = 2.0 * (E_nr + 1.0 / x_k[0])
        errors["kepler"].append(abs(factor - target) / target)

    for name, errs in errors.items():
        for i in range(len(cs) - 1):
            slope = np.log(errs[i + 1] / errs[i]) / np.log(cs[i + 1] / cs[i])
            assert -2.2 < slope < -1.8, f"{name}: slope {slope}"


def test_flat_space_energy_relation():
    # with a unit temporal factor the rescaling reduces to the mass shell:
    # c^2 factor + m^2 c^4 = E^2 and factor equals the squared momentum
    m, c = 1.3, 2.0
    st = StationarySpacetime(g=flat_metric(3), Vsq=lambda x: 1.0, m=m, c=c)
    x = np.zeros(3)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        mom = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        psq = float(mom @ mom)
        E_rel = np.sqrt(c * c * psq + m * m * c**4)
        factor = jacobi_relativistic_stationary(st, E_rel).factor_at(x)
        assert abs(factor - psq) < 1e-10
        assert abs(c * c * factor + m * m * c**4 - E_rel * E_rel) < 1e-10


def test_jacobi_factors_agree_with_the_eisenhart_duval_lift():
    # lift.py and transforms.py build each factor independently, so the two
    # routes agree to rounding, not bit for bit: errors are relative to the
    # size of the terms, which cancel near the turning surface
    tol = 4e-15
    rng = np.random.default_rng(7)

    # static: kappa V times p_z^2 = 2m/kappa is 2m(E - U)
    for m, k, E, kappa in ((1.0, 1.0, -0.5, 2.0), (0.7, 2.5, -1.3, 1.0), (2.0, 0.4, 0.8, 3.5)):
        sys = MechanicalSystem(g=polar_metric(), U=lambda x, k=k: -k / x[0], m=m, E=E)
        profile = MechanicalSystem(g=sys.g, U=lambda x, sys=sys: sys.E - sys.U(x), m=m)
        lifted = lift_static(profile, kappa=kappa)
        pz_sq = mechanical_pz(lifted) ** 2
        direct = jacobi_nonrelativistic(sys)
        for _ in range(5000):
            x = np.array([rng.uniform(0.05, 3.0), rng.uniform(0.0, 2.0 * np.pi)])
            via_lift = evaluate_metric(lifted.inverse, np.append(x, 0.0))[2, 2] * pz_sq
            factor = direct.factor_at(x)
            assert abs(via_lift - factor) <= tol * abs(factor), (m, k, E, kappa, x)

    def U(x, t):
        return 0.5 * (1.0 + 0.1 * np.sin(t)) * (x * x).sum(axis=0)

    # null shell: the dummy momenta p_D = (E/q, q m c) contracted with the
    # (t, sigma) block of the inverse give 2m[E - q^2 U]
    for m, q, c, E in ((1.0, 1.0, 1.0, 3.0), (2.0, 0.7, 3.0, -1.5), (0.5, 1.8, 0.4, 0.6)):
        lifted = lift_time_dependent(
            MechanicalSystem(g=flat_metric(2), U=U, m=m, time_dependent=True), c=c)
        approx = jacobi_time_dependent_approx(flat_metric(2), U, energy=E, q=q, m=m)
        p_D = np.array([E / q, q * m * c])
        for _ in range(5000):
            x = rng.normal(size=2)
            t = rng.uniform(0.0, 10.0)
            block = evaluate_metric(lifted.inverse, np.concatenate([x, [t, 0.0]]))[2:, 2:]
            scale = 2.0 * m * (abs(E) + q * q * abs(U(x, t)))
            assert abs(p_D @ block @ p_D - approx.factor_at(x, t)) <= tol * scale, (m, q, c, E)

    # massive shell: the embedded spatial momenta give g^ij p_i p_j equal to
    # the exact factor at the embedded p_t
    def U_polar(x, t):
        return -(1.0 + 0.2 * np.sin(t)) / x[0]

    for m in (0.5, 1.0, 2.0):
        for c in (1.0, 2.5):
            lifted = lift_time_dependent(
                MechanicalSystem(g=polar_metric(), U=U_polar, m=m, time_dependent=True), c=c)
            for _ in range(1334):
                x0 = np.array([rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0 * np.pi)])
                q = rng.uniform(0.3, 2.0)
                start = embed_time_dependent(lifted, x0, rng.normal(size=2), q)
                p, p_t = start.p[:2], start.p[2]
                kinetic = -p @ evaluate_metric(lifted.inverse, start.x)[:2, :2] @ p
                exact = jacobi_time_dependent(polar_metric(), U_polar, q, p_t, m, c)
                scale = 2.0 * q * abs(p_t) + 2.0 * q * q * abs(U_polar(x0, 0.0)) / m + m * m * c * c
                assert abs(kinetic - exact.factor_at(x0, 0.0)) <= tol * scale, (m, c, q)


def test_static_lift_reproduces_oscillator():
    oscillator = MechanicalSystem(g=flat_metric(1), U=lambda x: 0.5 * x[0] ** 2, m=1.0)
    lifted = lift_static(oscillator)
    start = embed_static(lifted, np.array([1.0]), np.array([0.0]))
    traj = integrate_lifted(lifted, start, 20.0, record_grid=4000)
    mech = project(traj, lifted)

    worst = max(
        abs(x[0] - np.cos(t)) for t, x in zip(mech.params, mech.x)
    )
    assert worst < 1e-6

    # at the distinguished fiber momentum the extended Hamiltonian evaluates
    # to the mechanical one
    rng = np.random.default_rng(3)
    for kappa in (1.0, 2.0):
        lk = lift_static(oscillator, kappa=kappa)
        pz = mechanical_pz(lk)
        for _ in range(50):
            x = rng.normal(size=1)
            p = rng.normal(size=1)
            extended = lifted_hamiltonian(
                lk, np.array([x[0], 0.0]), np.array([p[0], pz])
            )
            mechanical = 0.5 * p[0] ** 2 + 0.5 * x[0] ** 2
            assert abs(extended - mechanical) < 1e-14


DRIVEN_SPAN = 20.0 * np.pi


def driven_potential(x, t):
    return 0.5 * (1.0 + 0.1 * np.sin(t)) * (x * x).sum(axis=0)


def test_time_dependent_lift_conservation_and_projection():
    driven = MechanicalSystem(
        g=flat_metric(1),
        U=driven_potential,
        m=1.0,
        time_dependent=True,
        grad_U=lambda x, t: np.array([(1.0 + 0.1 * np.sin(t)) * x[0]]),
        name="driven",
    )
    lifted = lift_time_dependent(driven, c=1.0)
    start = embed_time_dependent(lifted, np.array([1.0]), np.array([0.0]), q=1.0)

    # conservation over ten characteristic times, with step control tight
    # enough that accumulation stays below the bounds
    traj = integrate_lifted(lifted, start, DRIVEN_SPAN, rtol=1e-11, atol=1e-13)
    p_sigma = traj.p[:, 2]
    assert np.max(np.abs(p_sigma - p_sigma[0])) / abs(p_sigma[0]) < 1e-9
    assert np.max(np.abs(traj.monitors["shell_residual"])) < 1e-8

    # projecting the lifted flow reproduces direct non-autonomous integration
    recorded = integrate_lifted(lifted, start, DRIVEN_SPAN, record_grid=12000)
    mech = project(recorded, lifted)
    direct = integrate(
        hamilton_flow(driven),
        FlowState(np.array([1.0]), np.array([0.0])),
        DRIVEN_SPAN,
        record_grid=12000,
    )
    assert compare_paths(mech, direct) < 1e-5


# U = lam x^2 / 2 - f x sin(Omega t), a harmonic oscillator under a periodic
# force, has the closed-form solution from x = 1, p = 0 that forced() gives
FORCED_LAM, FORCED_F, FORCED_OMEGA, FORCED_M = 2.0, 0.3, 0.7, 1.0


def forced(t):
    """Exact x(t) and p(t) = m x'(t) of the forced oscillator from (1, 0)."""
    w, Om = np.sqrt(FORCED_LAM / FORCED_M), FORCED_OMEGA
    A = FORCED_F / (FORCED_M * (w * w - Om * Om))
    x = np.cos(w * t) + A * (np.sin(Om * t) - Om / w * np.sin(w * t))
    v = -w * np.sin(w * t) + A * Om * (np.cos(Om * t) - np.cos(w * t))
    return x, FORCED_M * v


@pytest.mark.parametrize("c, q", [(1.0, 1.0), (2.0, 0.7)])
def test_time_dependent_lift_follows_the_exact_forced_oscillator(c, q):
    lam, f, Om, m = FORCED_LAM, FORCED_F, FORCED_OMEGA, FORCED_M
    system = MechanicalSystem(
        g=flat_metric(1),
        U=lambda x, t: 0.5 * lam * x[0] * x[0] - f * x[0] * np.sin(Om * t),
        m=m,
        time_dependent=True,
        grad_U=lambda x, t: np.array([lam * x[0] - f * np.sin(Om * t)]),
        name="forced",
    )
    lifted = lift_time_dependent(system, c=c)
    start = embed_time_dependent(lifted, np.array([1.0]), np.array([0.0]), q=q)
    # physical time advances at dt/dlambda = q/m: the span reaches t = 20
    mech = project(integrate_lifted(lifted, start, 20.0 * m / q, rtol=1e-9,
                                    record_grid=2000), lifted)
    assert mech.termination == "completed"
    assert mech.params[-1] == pytest.approx(20.0, rel=1e-12)
    x, p = forced(mech.params)
    # measured 3.2e-9 and 4.3e-9 at (c, q) = (1, 1), 4.3e-9 and 6.2e-9 at (2, 0.7)
    assert np.max(np.abs(mech.x[:, 0] - x)) < 1e-8
    assert np.max(np.abs(mech.p[:, 0] - p)) < 1.5e-8


REL_ENERGIES = (0.3, 1.0, 2.5)
NONREL_ENERGIES = (-0.25, 0.4)


def entry_suite():
    return (
        schwarzschild(M=1.0, m=1.0),
        taub_nut(M=1.0, m=1.0),
        catalog_entry("bertrand_kepler", k=1.0, m=1.0),
        bertrand_hooke(1.0, 1.0),
        kerr(M=1.0, a=0.7, m=1.0),
    )


def matrix_deviation(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def test_catalog_printed_forms_and_limits():
    rng = np.random.default_rng(11)

    for entry in entry_suite():
        pts = sample_points(entry, 1000, rng)
        for E_rel in REL_ENERGIES:
            conf = jacobi_relativistic_stationary(spacetime_from_entry(entry), E_rel)
            worst = max(
                matrix_deviation(
                    conf.metric(x), entry.rel_ratio * entry.reference_jacobi(x, E_rel)
                )
                for x in pts
            )
            assert worst < 1e-12, f"{entry.name} at {E_rel}: {worst}"
        if entry.reference_jacobi_nonrel is not None:
            for E in NONREL_ENERGIES:
                conf = jacobi_nonrelativistic(mechanical_system_from_entry(entry, E=E))
                worst = max(
                    matrix_deviation(
                        conf.metric(x),
                        entry.nonrel_ratio * entry.reference_jacobi_nonrel(x, E),
                    )
                    for x in pts
                )
                assert worst < 1e-12, f"{entry.name} at {E}: {worst}"

    # limit web: switching a family parameter off lands on the simpler family
    flat = schwarzschild(M=0.0, m=1.0)
    for r in (0.5, 1.0, 4.0):
        x = np.array([r, np.pi / 3, 0.2])
        g = evaluate_metric(flat.spatial, x)
        assert matrix_deviation(g, np.diag([1.0, r * r, r * r * np.sin(np.pi / 3) ** 2])) < 1e-10
        assert abs(flat.Vsq(x) - 1.0) < 1e-10

    spun_down = kerr(M=1.0, a=0.0, m=1.0)
    reference = schwarzschild(M=1.0, m=1.0)
    rng = np.random.default_rng(13)
    for x in sample_points(spun_down, 200, rng):
        assert abs(spun_down.Vsq(x) - reference.Vsq(x)) < 1e-10
        g_kerr = evaluate_metric(spun_down.spatial, x)
        g_schw = evaluate_metric(reference.spatial, x)
        assert matrix_deviation(g_kerr, g_schw) < 1e-10

    # the self-dual family's redshift dies out quadratically with its mass
    faint = taub_nut(M=1e-6, m=1.0)
    for r in (2.0, 5.0, 9.0):
        assert faint.Vsq(np.array([r, np.pi / 2, 0.0])) < 1e-10
