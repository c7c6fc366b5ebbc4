"""Catalog entries: printed scaled metrics against the generic transforms."""

import dataclasses

import numpy as np
import pytest

from jacobiflow import (
    CATALOG,
    DomainViolation,
    MechanicalSystem,
    StationarySpacetime,
    catalog_entry,
    classify_eccentricity,
    classify_orbit,
    evaluate_metric,
    flat_metric,
    hamilton_rhs,
    invert_metric,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    jacobi_time_dependent,
    jacobi_time_dependent_approx,
    kepler_eccentricity,
    kerr,
    lift_static,
    lift_time_dependent,
    mechanical_system_from_entry,
    metric_partials,
    sample_points,
    schwarzschild,
    spacetime_from_entry,
    taub_nut,
    bertrand,
    bertrand_hooke,
    bertrand_kepler,
)
from jacobiflow.catalog import POLE_MARGIN

REL_ENERGIES = (0.3, 1.0, 2.5)
NONREL_ENERGIES = (-0.25, 0.4)


def entry_suite():
    return [
        schwarzschild(M=1.0, m=1.0),
        taub_nut(M=1.0, m=1.0),
        bertrand_kepler(k=1.0, m=1.0),
        bertrand_hooke(lam=1.0, m=1.0),
        kerr(M=1.0, a=0.7, m=1.0),
    ]


def max_floored_deviation(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# spot oracles


def test_schwarzschild_spatial_values():
    entry = schwarzschild(M=1.0, m=1.0)
    x = np.array([4.0, np.pi / 2, 0.0])
    g = evaluate_metric(entry.spatial, x)
    np.testing.assert_allclose(g, np.diag([2.0, 16.0, 16.0]), rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        invert_metric(g), np.diag([0.5, 0.0625, 0.0625]), rtol=0, atol=1e-15
    )
    assert entry.Vsq(x) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainViolation):
        evaluate_metric(entry.spatial, np.array([2.0, np.pi / 2, 0.0]))


def test_schwarzschild_printed_relativistic_matrix():
    # at r=4, M=1, m=1, energy 1: bracket = 1 - 0.5 = 0.5,
    # so the rr entry is 0.5/0.25 = 2 and the angular entries 0.5*16/0.5 = 16
    entry = schwarzschild(M=1.0, m=1.0)
    x = np.array([4.0, np.pi / 2, 0.0])
    ref = entry.reference_jacobi(x, 1.0)
    np.testing.assert_allclose(ref, np.diag([2.0, 16.0, 16.0]), rtol=0, atol=1e-14)


def test_schwarzschild_nonrelativistic_factor_value():
    # the fixed-energy factor 2m(E + mM/r) at r=2, M=1, m=1, E=-0.25 is 0.5
    entry = schwarzschild(M=1.0, m=1.0)
    conf = jacobi_nonrelativistic(mechanical_system_from_entry(entry, E=-0.25))
    assert conf.factor_at(np.array([2.0, np.pi / 2, 0.0])) == pytest.approx(0.5, abs=1e-15)


def test_taub_nut_values():
    entry = taub_nut(M=1.0, m=1.0)
    x = np.array([3.0, np.pi / 2, 0.0])
    assert entry.Vsq(x) == pytest.approx(2.0, abs=1e-14)
    ref = entry.reference_jacobi(x, 1.0)
    # prefactor ((r+M)^2/4M^2)(4 m^2 M^2 (r-M)/(r+M) - Q^2) = 4(2-1) = 4,
    # against the chart block diag(1/(r-M)^2, 1, sin^2) at theta = pi/2
    np.testing.assert_allclose(ref, 4.0 * np.diag([0.25, 1.0, 1.0]), rtol=0, atol=1e-13)


def test_taub_nut_no_mechanical_reduction():
    entry = taub_nut(M=1.0, m=1.0)
    with pytest.raises(ValueError):
        jacobi_nonrelativistic(mechanical_system_from_entry(entry, E=0.5))
    with pytest.raises(ValueError):
        mechanical_system_from_entry(entry)


def test_bertrand_kepler_equivalent_potential():
    entry = bertrand_kepler(k=1.0, m=1.0)
    for r in (2.5, 3.0, 4.8):
        assert entry.U(np.array([r, np.pi / 2, 0.0])) == pytest.approx(-1.0 / r, rel=1e-14)


def test_bertrand_hooke_equivalent_potential():
    entry = bertrand_hooke(lam=1.0, m=1.0)
    for r in (0.5, 1.0, 2.0):
        assert entry.U(np.array([r, np.pi / 2, 0.0])) == pytest.approx(r * r / 2.0, rel=1e-14)


def test_bertrand_flat_profile_reduces_to_energy_factor():
    # a unit profile means no potential: the printed fixed-energy bracket is E
    entry = bertrand(Gamma=lambda r: 1.0, h=lambda r: 1.0, m=1.0)
    x = np.array([1.3, np.pi / 2, 0.0])
    ref = entry.reference_jacobi_nonrel(x, 0.7)
    base = evaluate_metric(entry.spatial, x)
    np.testing.assert_allclose(ref, 0.7 * base, rtol=1e-14)


def test_kerr_values():
    entry = kerr(M=1.0, a=1.0, m=1.0)
    x = np.array([4.0, np.pi / 2, 0.0])
    # Delta = 9 and rho^2 = 16 here: diag(rho^2 / Delta, rho^2, g_phiphi)
    np.testing.assert_allclose(evaluate_metric(entry.spatial, x),
                               np.diag([16.0 / 9.0, 16.0, 17.5]), rtol=1e-14)
    assert entry.Vsq(x) == pytest.approx(0.5, abs=1e-14)
    assert entry.U(x) == pytest.approx(-0.5, abs=1e-14)


def test_kerr_ergo_and_horizon_guards():
    entry = kerr(M=1.0, a=0.7, m=1.0)
    r_plus = 1.0 + np.sqrt(1.0 - 0.49)
    with pytest.raises(DomainViolation):
        evaluate_metric(entry.spatial, np.array([r_plus, np.pi / 2, 0.0]))
    with pytest.raises(DomainViolation):
        evaluate_metric(entry.spatial, np.array([3.0, 0.0, 0.0]))


# params of each family and a radius on or past its radial chart bound
RADIAL_EDGES = {
    "schwarzschild": ({"M": 1.0, "m": 1.0}, 2.0),  # r = 2M
    "taub_nut": ({"M": 1.0, "m": 1.0}, 1.0),  # r = M
    "bertrand_kepler": ({"k": 1.0, "m": 1.0}, 0.0),  # r <= 0
    "bertrand_hooke": ({"lam": 1.0, "m": 1.0}, -0.5),  # r <= 0
    "kerr": ({"M": 1.0, "a": 0.7, "m": 1.0}, 1.0),  # Delta = -0.51
}


@pytest.mark.parametrize("name", sorted(RADIAL_EDGES))
def test_spherical_chart_refuses_poles_and_radial_edge(name):
    params, r_edge = RADIAL_EDGES[name]
    entry = catalog_entry(name, **params)
    r = entry.sample_ranges[0][0]
    assert evaluate_metric(entry.spatial, [r, np.pi / 2, 0.0]).shape == (3, 3)
    for th in (0.0, np.pi, POLE_MARGIN / 2):
        with pytest.raises(DomainViolation):
            evaluate_metric(entry.spatial, [r, th, 0.0])
    with pytest.raises(DomainViolation):
        evaluate_metric(entry.spatial, [r_edge, np.pi / 2, 0.0])


@pytest.mark.parametrize("h_value", [0.0, np.inf, np.nan])
def test_bertrand_chart_refuses_zero_or_nonfinite_h(h_value):
    entry = bertrand(Gamma=lambda r: 1.0, h=lambda r: h_value, m=1.0)
    with pytest.raises(DomainViolation):
        evaluate_metric(entry.spatial, [1.0, np.pi / 2, 0.0])


def test_bertrand_guard_reads_h_only_at_positive_r():
    # the suite turns RuntimeWarnings into errors: h = r^(-1/2) warns at r < 0
    entry = bertrand(Gamma=lambda r: 1.0 + 0 * r, h=lambda r: 1 / np.sqrt(r), m=1.0)
    spatial = entry.spatial
    assert not spatial.valid([-1.0, 1.0, 0.0]) and not spatial.valid([0.0, 1.0, 0.0])
    assert spatial.valid([1.0, 1.0, 0.0])
    rows = np.array([[-1.0, 1.0, 0.0], [4.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(spatial.valid(rows), [False, True, False])


# ---------------------------------------------------------------------------
# printed-form contract


def test_relativistic_printed_forms_match_generic():
    rng = np.random.default_rng(101)
    for entry in entry_suite():
        pts = sample_points(entry, 1000, rng)
        for E_rel in REL_ENERGIES:
            conf = jacobi_relativistic_stationary(spacetime_from_entry(entry), E_rel)
            worst = 0.0
            for x in pts:
                got = conf.metric(x)
                want = entry.rel_ratio * entry.reference_jacobi(x, E_rel)
                worst = max(worst, max_floored_deviation(got, want))
            assert worst < 1e-12, f"{entry.name} at energy {E_rel}: {worst}"


def test_nonrelativistic_printed_forms_match_generic():
    rng = np.random.default_rng(103)
    for entry in entry_suite():
        if entry.reference_jacobi_nonrel is None:
            continue
        pts = sample_points(entry, 1000, rng)
        for E in NONREL_ENERGIES:
            conf = jacobi_nonrelativistic(mechanical_system_from_entry(entry, E=E))
            worst = 0.0
            for x in pts:
                got = conf.metric(x)
                want = entry.nonrel_ratio * entry.reference_jacobi_nonrel(x, E)
                worst = max(worst, max_floored_deviation(got, want))
            assert worst < 1e-12, f"{entry.name} at energy {E}: {worst}"


def test_taub_nut_weak_form_is_massless_limit():
    heavy = taub_nut(M=1.0, m=1.0)
    light = taub_nut(M=1.0, m=1e-8)
    rng = np.random.default_rng(107)
    for x in sample_points(heavy, 200, rng):
        weak = heavy.reference_jacobi_weak(x, 0.9)
        limit = light.reference_jacobi(x, 0.9)
        assert max_floored_deviation(limit, weak) < 1e-12


# ---------------------------------------------------------------------------
# limit web


def test_schwarzschild_massless_limit_is_flat():
    entry = schwarzschild(M=0.0, m=1.0)
    rng = np.random.default_rng(109)
    for x in sample_points(entry, 200, rng):
        r, th = x[0], x[1]
        flat = np.diag([1.0, r * r, r * r * np.sin(th) ** 2])
        g = evaluate_metric(entry.spatial, x)
        np.testing.assert_allclose(g, flat, rtol=0, atol=1e-10)
        assert entry.Vsq(x) == 1.0


def test_kerr_zero_spin_limit_is_schwarzschild():
    k0 = kerr(M=1.0, a=0.0, m=1.0)
    sch = schwarzschild(M=1.0, m=1.0)
    rng = np.random.default_rng(113)
    for x in sample_points(sch, 200, rng):
        gk = evaluate_metric(k0.spatial, x)
        gs = evaluate_metric(sch.spatial, x)
        assert max_floored_deviation(gk, gs) < 1e-10
        assert abs(k0.Vsq(x) - sch.Vsq(x)) < 1e-10
        # the rotating family's printed equivalent potential is -2GMr/rho^2,
        # which at zero spin collapses to -2M/r (its own strong-field
        # convention; the static family prints -mM/r)
        assert abs(k0.U(x) - (-2.0 / x[0])) < 1e-10


def test_taub_nut_small_mass_lapse_vanishes():
    entry = taub_nut(M=1e-6, m=1.0)
    for r in (1.0, 2.0, 5.0):
        assert abs(entry.Vsq(np.array([r, np.pi / 2, 0.0]))) < 1e-10


# ---------------------------------------------------------------------------
# dispatcher and sampling


def test_catalog_listing_complete():
    assert set(CATALOG) == {
        "schwarzschild",
        "taub_nut",
        "bertrand_kepler",
        "bertrand_hooke",
        "kerr",
    }
    for name, (_, _, _, desc) in CATALOG.items():
        assert isinstance(desc, str) and desc


def test_catalog_entry_dispatch():
    entry = catalog_entry("schwarzschild", M=2.0, m=1.5)
    assert entry.params["M"] == 2.0
    with pytest.raises(ValueError):
        catalog_entry("nosuch", M=1.0)
    with pytest.raises(ValueError):
        catalog_entry("schwarzschild", M=1.0)  # m missing
    with pytest.raises(ValueError):
        catalog_entry("schwarzschild", M=1.0, m=1.0, spin=3.0)


def test_sample_points_respect_guard_and_seed():
    # at M = a = 0 the horizon bound is 0, and the box starts at r = 0.5
    for entry in (kerr(M=1.0, a=0.7, m=1.0), kerr(M=0.0, a=0.0, m=1.0)):
        pts_a = sample_points(entry, 50, np.random.default_rng(42))
        pts_b = sample_points(entry, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(np.asarray(pts_a), np.asarray(pts_b))
        for x in pts_a:
            assert entry.spatial.guard(x) and x[0] >= entry.sample_ranges[0][0] > 0.0
    assert kerr(M=0.0, a=0.0, m=1.0).sample_ranges[0] == (0.5, 10.5)


def test_sample_points_refuses_a_box_its_guard_refuses_whole():
    # h = 0 everywhere: the chart guard h^2 > 0 accepts no point, and the
    # draws once went on forever
    entry = bertrand(lambda r: 1.0 + 0.0 * r, lambda r: 0.0 * r, m=1.0)
    with pytest.raises(ValueError, match="entry 'bertrand' accepted 0 of 3000 draws"):
        sample_points(entry, 3, np.random.default_rng(0))


def test_spacetime_view_carries_parameters():
    entry = schwarzschild(M=1.0, m=2.0, c=3.0)
    st = spacetime_from_entry(entry)
    assert st.m == 2.0
    assert st.c == 3.0


# ---------------------------------------------------------------------------
# analytic partials and potential gradients against sympy.diff


def symbolic_forms():
    """(entry, symbolic diagonal, symbolic U or None) per catalog entry, plus
    a generic Bertrand entry with non-constant Gamma and h, written from the
    printed forms independently of the catalog's closures."""
    import sympy

    r, th = sympy.symbols("r theta")
    s2 = sympy.sin(th) ** 2
    sphere = [r ** 2, r ** 2 * s2]
    M, a, m, k, lam = 1.3, 0.6, 1.7, 0.8, 0.9
    delta, rho2 = r ** 2 - 2 * M * r + a ** 2, r ** 2 + a ** 2 * sympy.cos(th) ** 2
    Gamma, h = 1 / (1 + r / 3), 1 + r ** 2 / 10
    return [
        (schwarzschild(M=M, m=m), [1 / (1 - 2 * M / r), *sphere], -m * M / r),
        (taub_nut(M=M, m=m), [(r + M) / (r - M), r ** 2 - M ** 2, (r ** 2 - M ** 2) * s2], None),
        (kerr(M=M, a=a, m=m),
         [rho2 / delta, rho2, s2 / rho2 * ((r ** 2 + a ** 2) ** 2 - a ** 2 * delta * s2)],
         -2 * M * r / rho2),
        (bertrand_kepler(k=k, m=m), [1, *sphere], -k / r),
        (bertrand_hooke(lam=lam, m=m), [1, *sphere], m * lam * r ** 2 / 2),
        (bertrand(Gamma=sympy.lambdify(r, Gamma), h=sympy.lambdify(r, h), m=m,
                  dGamma=sympy.lambdify(r, Gamma.diff(r)), dh=sympy.lambdify(r, h.diff(r))),
         [h ** 2, *sphere], m / 2 * (1 / Gamma - 1)),
    ], (r, th)


def test_analytic_partials_and_gradients_match_sympy():
    # every entry's chart partials and grad_U against sympy.diff, within
    # 1e-12 of the largest term at each point (the worst is below 1e-15)
    forms, (r, th) = symbolic_forms()
    assert {entry.name for entry, _, _ in forms} >= set(CATALOG)
    rng = np.random.default_rng(17)
    for entry, diagonal, U in forms:
        assert entry.spatial.diagonal and entry.spatial.partials is not None, entry.name
        assert (entry.grad_U is None) == (U is None), entry.name
        if U is not None:
            assert mechanical_system_from_entry(entry).grad_U is entry.grad_U
        d_exact = sympy_gradient(diagonal, (r, th))
        u_exact = None if U is None else sympy_gradient([U], (r, th))
        for x in sample_points(entry, 300, rng):
            dd = np.array([np.diagonal(block) for block in metric_partials(entry.spatial, x)])
            assert_within_term_scale(dd, d_exact(x), entry.name)
            if U is not None:
                assert_within_term_scale(np.asarray(entry.grad_U(x), dtype=float),
                                         u_exact(x)[:, 0], entry.name)


def sympy_gradient(exprs, variables):
    """x -> the (3, len(exprs)) array of r, theta and phi derivatives."""
    import sympy

    rows = [[sympy.diff(e, v) for e in exprs] for v in variables]
    exact = sympy.lambdify(variables, rows, "numpy")
    return lambda x: np.array(exact(x[0], x[1]) + [[0.0] * len(exprs)], dtype=float)


def assert_within_term_scale(got, exact, name, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(got - exact)) <= tol * scale, name


def test_complex_step_partials_and_gradients_match_sympy():
    # without the analytic forms every entry's chart partials and potential
    # gradient come from complex steps, which subtract nothing: within 1e-13
    # of the largest term at each point (the worst is 1.6e-15; central
    # differences at h = 1e-6 max(1, |x|) read up to 6.2e-10)
    forms, (r, th) = symbolic_forms()
    rng = np.random.default_rng(19)
    for entry, diagonal, U in forms:
        chart = dataclasses.replace(entry.spatial, partials=None)
        d_exact = sympy_gradient(diagonal, (r, th))
        u_exact = None if U is None else sympy_gradient([U], (r, th))
        if U is not None:
            sys = MechanicalSystem(g=chart, U=entry.U, m=entry.params["m"], name=entry.name)
        for x in sample_points(entry, 100, rng):
            dd = np.array([np.diagonal(block) for block in metric_partials(chart, x)])
            assert_within_term_scale(dd, d_exact(x), entry.name, tol=1e-13)
            if U is not None:
                # with p = 0 the momentum equation is p' = -grad U
                _, dp = hamilton_rhs(sys, x, np.zeros(3))
                assert_within_term_scale(-dp, u_exact(x)[:, 0], entry.name, tol=1e-13)


def test_generic_bertrand_without_derivatives_takes_complex_steps():
    entry = bertrand(Gamma=lambda r: 1.0 / (1.0 + r), h=lambda r: 1.0, m=1.0)
    assert entry.spatial.partials is None and entry.grad_U is None
    sys = mechanical_system_from_entry(entry, E=0.5)
    assert sys.grad_U is None
    # diag(1, r^2, r^2 sin^2 theta) and U = r / 2
    x = np.array([1.5, 0.7, 0.2])
    want = np.zeros((3, 3, 3))
    want[0, 1, 1], want[0, 2, 2] = 3.0, 3.0 * np.sin(0.7) ** 2
    want[1, 2, 2] = 2.25 * np.sin(1.4)
    np.testing.assert_allclose(metric_partials(entry.spatial, x), want, rtol=1e-15, atol=0)
    np.testing.assert_allclose(hamilton_rhs(sys, x, np.zeros(3))[1], [-0.5, 0.0, 0.0],
                               rtol=1e-15, atol=0)


NAN = float("nan")


def oscillator():
    return MechanicalSystem(g=flat_metric(1), U=lambda x: 0.5 * (x[0] * x[0]), m=1.0)


def unit_spacetime():
    return StationarySpacetime(g=flat_metric(1), Vsq=lambda x: 1.0 + 0.0 * x[0])


@pytest.mark.parametrize("build, refusal", [
    (lambda: MechanicalSystem(g=flat_metric(1), U=lambda x: 0.0, m=NAN), "mass must be positive"),
    (lambda: schwarzschild(M=NAN, m=1.0), "M must be nonnegative"),
    (lambda: schwarzschild(M=1.0, m=NAN), "m must be positive"),
    (lambda: taub_nut(M=NAN, m=1.0), "M must be positive"),
    (lambda: taub_nut(M=1.0, m=NAN), "m must be positive"),
    (lambda: bertrand(lambda r: 1.0, lambda r: 1.0, m=NAN), "m must be positive"),
    (lambda: kerr(M=NAN, a=0.6, m=1.0), "M must be nonnegative"),
    (lambda: kerr(M=1.0, a=0.6, m=NAN), "m must be positive"),
    (lambda: lift_static(oscillator(), kappa=NAN), "kappa must be positive"),
    (lambda: lift_time_dependent(oscillator(), c=NAN), "c must be positive"),
    (lambda: jacobi_relativistic_stationary(unit_spacetime(), Erel=NAN),
     "relativistic energy must be positive"),
    (lambda: jacobi_time_dependent(flat_metric(1), lambda x, t: 0.0 * x[0], q=NAN, p_t=1.0,
                                   m=1.0), "q must be nonzero and finite"),
    (lambda: jacobi_time_dependent(flat_metric(1), lambda x, t: 0.0 * x[0], q=np.inf, p_t=1.0,
                                   m=1.0), "q must be nonzero and finite"),
    (lambda: StationarySpacetime(g=flat_metric(1), Vsq=lambda x: 1.0 + 0.0 * x[0], m=NAN),
     "m must be positive"),
    (lambda: StationarySpacetime(g=flat_metric(1), Vsq=lambda x: 1.0 + 0.0 * x[0], m=-1.0),
     "m must be positive"),
], ids=["system-m", "schwarzschild-M", "schwarzschild-m", "taub_nut-M", "taub_nut-m",
        "bertrand-m", "kerr-M", "kerr-m", "lift-kappa", "lift-c", "stationary-Erel",
        "timedep-q", "timedep-q-inf", "spacetime-m", "spacetime-m-negative"])
def test_mass_parameters_refuse_nan(build, refusal):
    # a comparison such as m <= 0 is false for NaN, which would let it through
    with pytest.raises(ValueError, match=refusal):
        build()


INF = float("inf")


def zero_t(x, t):
    return 0.0 * x[0]


@pytest.mark.parametrize("build, refusal", [
    (lambda: MechanicalSystem(g=flat_metric(1), U=lambda x: 0.0, m=INF),
     "must be finite, got m = inf, E = None"),
    (lambda: MechanicalSystem(g=flat_metric(1), U=lambda x: 0.0, m=1.0, E=NAN),
     "must be finite, got m = 1.0, E = nan"),
    (lambda: MechanicalSystem(g=flat_metric(1), U=lambda x: 0.0, m=1.0, E=-INF),
     "must be finite, got m = 1.0, E = -inf"),
    (lambda: StationarySpacetime(g=flat_metric(1), Vsq=lambda x: 1.0 + 0.0 * x[0], m=INF),
     "must be finite, got m = inf, c = 1.0"),
    (lambda: StationarySpacetime(g=flat_metric(1), Vsq=lambda x: 1.0 + 0.0 * x[0], c=INF),
     "must be finite, got m = 1.0, c = inf"),
    (lambda: classify_orbit(NAN), "energy must be finite, got nan"),
    (lambda: classify_eccentricity(NAN), "finite and nonnegative, got nan"),
    (lambda: classify_eccentricity(-5.0), "finite and nonnegative, got -5.0"),
    (lambda: kepler_eccentricity(NAN, 1.0), "must be finite, got nan, 1.0, 1.0, 1.0"),
    (lambda: kepler_eccentricity(-0.5, 1.0, m=-1.0), "needs m > 0 and k != 0, got m = -1.0, k = 1.0"),
    (lambda: kepler_eccentricity(-0.5, 1.0, m=0.0), "needs m > 0 and k != 0, got m = 0.0, k = 1.0"),
    (lambda: kepler_eccentricity(-0.5, 1.0, k=0.0), "needs m > 0 and k != 0, got m = 1.0, k = 0.0"),
    (lambda: lift_static(oscillator(), kappa=INF), "kappa must be positive and finite, got inf"),
    (lambda: lift_time_dependent(oscillator(), c=INF), "c must be positive and finite, got inf"),
    (lambda: jacobi_time_dependent(flat_metric(1), zero_t, q=1.0, p_t=1.0, m=0.0),
     "m and c must be positive and finite, got m = 0.0, c = 1.0"),
    (lambda: jacobi_time_dependent(flat_metric(1), zero_t, q=1.0, p_t=1.0, m=-1.0),
     "m and c must be positive and finite, got m = -1.0, c = 1.0"),
    (lambda: jacobi_time_dependent(flat_metric(1), zero_t, q=1.0, p_t=1.0, m=1.0, c=NAN),
     "m and c must be positive and finite, got m = 1.0, c = nan"),
    (lambda: jacobi_time_dependent_approx(flat_metric(1), zero_t, energy=1.0, q=1.0, m=-1.0),
     "m must be positive and finite and q finite, got m = -1.0, q = 1.0"),
    (lambda: jacobi_time_dependent_approx(flat_metric(1), zero_t, energy=1.0, q=NAN, m=1.0),
     "m must be positive and finite and q finite, got m = 1.0, q = nan"),
    (lambda: jacobi_time_dependent(flat_metric(1), zero_t, q=1.0, p_t=INF, m=1.0),
     "a constant p_t must be finite, got inf"),
    (lambda: jacobi_time_dependent_approx(flat_metric(1), zero_t, energy=NAN, q=1.0, m=1.0),
     "a constant energy must be finite, got nan"),
    (lambda: jacobi_relativistic_stationary(unit_spacetime(), Erel=INF),
     "relativistic energy must be positive and finite, got inf"),
], ids=["system-m-inf", "system-E-nan", "system-E-inf", "spacetime-m-inf", "spacetime-c-inf",
        "orbit-E-nan", "eccentricity-nan", "eccentricity-negative", "kepler-E-nan",
        "kepler-m-negative", "kepler-m-zero", "kepler-k-zero", "lift-kappa-inf", "lift-c-inf",
        "timedep-m-zero", "timedep-m-negative", "timedep-c-nan", "approx-m-negative",
        "approx-q-nan", "timedep-p_t-inf", "approx-energy-nan", "stationary-Erel-inf"])
def test_physics_inputs_off_contract_are_refused(build, refusal):
    # each of these once returned a plausible value or a ZeroDivisionError: U
    # alone for an infinite mass, "hyperbola" for a NaN energy or for a bound
    # orbit of negative mass, "ellipse" for e = -5; or failed only later: an
    # infinite kappa or c as an unrelated step failure or launch refusal, a
    # time-dependent factor at m <= 0 as -inf or 2.0, and an infinite energy
    # constant as an infinite factor
    with pytest.raises(ValueError, match=refusal):
        build()
