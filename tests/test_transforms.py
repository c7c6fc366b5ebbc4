"""Conformal-factor constructions: classical, relativistic, time-dependent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow import (
    ConformalMetric,
    DomainViolation,
    MechanicalSystem,
    StationarySpacetime,
    energy_from_state,
    evaluate_metric,
    flat_metric,
    invert_metric,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    jacobi_time_dependent,
    jacobi_time_dependent_approx,
    lift_static,
    mechanical_pz,
    mechanical_system_from_entry,
    nonrelativistic_limit_factor,
    polar_metric,
    schwarzschild,
    weak_field_spacetime,
)


def kepler_system(m=1.0, k=1.0, E=-0.5):
    return MechanicalSystem(
        g=polar_metric(),
        U=lambda x: -k / x[0],
        m=m,
        E=E,
        grad_U=lambda x: np.array([k / x[0] ** 2, 0.0]),
        name="kepler",
    )


def test_classical_factor_free_particle():
    sys = MechanicalSystem(g=flat_metric(2), U=lambda x: 0.0, m=1.0, E=0.5)
    conf = jacobi_nonrelativistic(sys)
    x = np.array([0.3, -2.0])
    assert conf.factor_at(x) == 1.0
    assert conf.valid(x)


def test_classical_factor_kepler_value():
    # m=1, E=-0.5, U=-1/r at r=1: 2*1*(-0.5+1) = 1
    conf = jacobi_nonrelativistic(kepler_system())
    assert conf.factor_at(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    g = conf.metric(np.array([1.5, 0.0]))
    assert g[1, 1] == pytest.approx(2.0 * (1.0 / 1.5 - 0.5) * 2.25, rel=1e-14)


def test_classical_validity_stops_at_turning_radius():
    conf = jacobi_nonrelativistic(kepler_system())
    assert conf.valid(np.array([1.9, 0.0]))
    assert not conf.valid(np.array([2.0, 0.0]))
    assert not conf.valid(np.array([5.0, 0.0]))


def test_classical_requires_energy():
    sys = MechanicalSystem(g=flat_metric(2), U=lambda x: 0.0, m=1.0)
    with pytest.raises(ValueError):
        jacobi_nonrelativistic(sys)


def test_energy_from_state_roundtrip():
    sys = kepler_system(E=None)
    x = np.array([1.0, 0.0])
    p = np.array([0.0, np.sqrt(0.75)])
    E = energy_from_state(sys, x, p)
    # H = p_phi^2/(2 r^2) - 1/r = 0.375 - 1 = -0.625
    assert E == pytest.approx(-0.625, abs=1e-15)


def test_relativistic_flat_unit_factor():
    st_ = StationarySpacetime(g=flat_metric(3), Vsq=lambda x: 1.0, m=1.0, c=1.0)
    conf = jacobi_relativistic_stationary(st_, np.sqrt(2.0))
    # (E^2 - m^2 c^4) / (c^2 * 1) = 1
    assert conf.factor_at(np.zeros(3)) == pytest.approx(1.0, abs=1e-14)


def test_relativistic_flat_energy_relation_random_momenta():
    # On flat space the scaled inverse metric must reproduce the special-relativistic
    # dispersion relation exactly: E^2 = c^2 |p|^2 + m^2 c^4.
    m, c = 1.3, 2.0
    st_ = StationarySpacetime(g=flat_metric(3), Vsq=lambda x: 1.0, m=m, c=c)
    rng = np.random.default_rng(23)
    x = np.zeros(3)
    for _ in range(1000):
        p = rng.normal(scale=3.0, size=3)
        psq = float(p @ p)
        Erel = np.sqrt(c * c * psq + m * m * c**4)
        factor = jacobi_relativistic_stationary(st_, Erel).factor_at(x)
        assert abs(factor - psq) < 1e-10
        assert abs(c * c * factor + m * m * c**4 - Erel * Erel) < 1e-10


def test_conformal_validity_needs_the_base_chart():
    # 2m(E - U) > 0 at r = 1, inside the chart's r > 2M: valid once said True
    # where the metric raises
    sch = mechanical_system_from_entry(schwarzschild(M=1.0, m=1.0), E=-0.1)
    conf = jacobi_nonrelativistic(sch)
    inside, outside = [1.0, np.pi / 2, 0.0], [3.0, np.pi / 2, 0.0]
    assert conf.factor_at(inside) > 0.0
    assert not conf.valid(inside)
    with pytest.raises(DomainViolation):
        conf.metric(inside)
    assert conf.valid(outside)


@pytest.mark.parametrize("call, message", [
    (lambda conf: conf.factor_at([2 + 3j, 0.0]), "must be real, got complex128"),
    (lambda conf: conf.factor_at([2.0]), "has 1 coordinates, metric 'polar' expects 2"),
    (lambda conf: conf.factor_at([2.0, 0.0, 5.0]), "has 3 coordinates"),
    (lambda conf: conf.valid([2.0]), "has 1 coordinates"),
    (lambda conf: conf.valid([2 + 3j, 0.0]), "must be real"),
    (lambda conf: conf.factor_at([np.inf, 0.0]), "chart coordinates must be finite"),
    (lambda conf: conf.factor_at([np.nan, 0.0]), "chart coordinates must be finite"),
    (lambda conf: conf.metric([[1.0, 0.0]]), "a chart point must be a non-empty 1-d sequence"),
    (lambda conf: conf.valid([[1.0, 0.0]]), "a chart point must be a non-empty 1-d sequence"),
    (lambda conf: conf.factor_at([[2.0], [3.0]]), "has 1 coordinates, metric 'polar' expects 2"),
    (lambda conf: conf.factor_at([[2.0, 0.0], [np.nan, 0.0]]), "chart coordinates must be finite"),
    (lambda conf: conf.factor_at([[2.0, 0.0], [2 + 3j, 0.0]]), "must be real, got complex128"),
    (lambda conf: conf.factor_at(np.empty((0, 2))), "rows of chart points must form a non-empty"),
    (lambda conf: conf.factor_at([[[2.0, 0.0]]]), "a chart point must be a non-empty 1-d sequence"),
], ids=["factor-complex", "factor-short", "factor-long", "valid-short", "valid-complex",
        "factor-inf", "factor-nan", "metric-row", "valid-row", "factor-rows-short",
        "factor-rows-nan", "factor-rows-complex", "factor-rows-empty", "factor-3d"])
def test_conformal_metric_refuses_points_off_its_chart_contract(call, message):
    # the factor once took the real part of 2 + 3i and read any dimension;
    # it read r = inf as -1.0 and r = nan as nan.  factor_at takes rows;
    # metric and valid take one point
    with pytest.raises(ValueError, match=message):
        call(jacobi_nonrelativistic(kepler_system()))


def test_relativistic_rejects_nonpositive_energy():
    st_ = StationarySpacetime(g=flat_metric(2), Vsq=lambda x: 1.0)
    with pytest.raises(ValueError):
        jacobi_relativistic_stationary(st_, 0.0)
    with pytest.raises(ValueError):
        jacobi_relativistic_stationary(st_, -1.0)


def test_relativistic_domain_violation_where_vsq_nonpositive():
    st_ = StationarySpacetime(g=flat_metric(2), Vsq=lambda x: x[0], m=1.0, c=1.0)
    conf = jacobi_relativistic_stationary(st_, 1.0)
    assert conf.valid(np.array([0.5, 0.0]))
    assert not conf.valid(np.array([-0.5, 0.0]))
    with pytest.raises(DomainViolation):
        conf.factor_at(np.array([-0.5, 0.0]))


def test_relativistic_factor_refuses_a_nan_temporal_factor():
    # V^2 = log(r - 1) is nan at r = 0.5, and the factor read nan there
    st_ = StationarySpacetime(g=polar_metric(), Vsq=lambda x: np.log(x[0] - 1.0))
    conf = jacobi_relativistic_stationary(st_, 1.0)
    refusal = r"V\^2 = nan is not positive at \[0.5, 0.0\]"
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(DomainViolation, match=refusal):
            conf.factor_at([0.5, 0.0])
        with pytest.raises(DomainViolation, match=refusal):
            conf.factor_at([[3.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainViolation, match=r"V\^2 = -inf is not positive at \[1.0, 0.0\]"):
            conf.factor_at([[3.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        assert not conf.valid([0.5, 0.0])
    assert conf.factor_at([[3.0, 0.0]]).tolist() == [conf.factor_at([3.0, 0.0])]


def test_spacetime_refuses_nonpositive_c():
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="c must be positive"):
            StationarySpacetime(g=flat_metric(2), Vsq=lambda x: 1.0, c=c)


def test_time_dependent_validity_reads_the_time():
    # U = t x^2 / 2 at x = 1, q = m = c = 1: the exact factor is
    # 2(p_t - t/2) - 1 = 1 - t and the approximate one 2(1 - t/2) = 2 - t
    U = lambda x, t: 0.5 * t * x[0] ** 2
    x = np.array([1.0])
    exact = jacobi_time_dependent(flat_metric(1), U, q=1.0, p_t=1.0, m=1.0)
    approx = jacobi_time_dependent_approx(flat_metric(1), U, energy=1.0, q=1.0, m=1.0)
    for conf, turn in ((exact, 1.0), (approx, 2.0)):
        assert conf.valid(x, 0.5 * turn)
        assert not conf.valid(x, turn)
        assert not conf.valid(x, 1.5 * turn)
        assert conf.factor_at(x, 1.5 * turn) < 0.0 < conf.factor_at(x, 0.5 * turn)


def test_weak_field_lapse():
    sys_U = lambda x: -1.0 / x[0]
    st_ = weak_field_spacetime(polar_metric(), sys_U, m=2.0, c=10.0)
    x = np.array([4.0, 0.0])
    # V^2 = 1 + 2 U / (m c^2) = 1 - 2/(4*200)
    assert st_.Vsq(x) == pytest.approx(1.0 - 2.0 / 800.0, rel=1e-15)


def test_nonrelativistic_limit_converges_quadratically():
    # attractive potential at r=1: the factor approaches 2 m (E_nr - U) like 1/c^2
    E_nr, m = 0.5, 1.0
    U = lambda x: -1.0 / x[0]
    x = np.array([1.0, 0.0])
    target = 2.0 * m * (E_nr - U(x))
    cs = (1e2, 1e3, 1e4)
    errs = []
    for c in cs:
        st_ = weak_field_spacetime(polar_metric(), U, m=m, c=c)
        fac = nonrelativistic_limit_factor(st_, E_nr).factor_at(x)
        errs.append(abs(fac / target - 1.0))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(cs))
    assert np.all(np.abs(slopes + 2.0) < 0.2)


def test_time_dependent_exact_factor_value():
    # m=c=q=1, p_t=1, U=0.25: 2[q p_t - q^2 U] - m^2 c^2 = 2(1 - 0.25) - 1 = 0.5
    conf = jacobi_time_dependent(
        flat_metric(2), U=lambda x, t: 0.25, q=1.0, p_t=1.0, m=1.0, c=1.0
    )
    assert conf.factor_at(np.zeros(2), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_time_dependent_exact_callable_pt():
    conf = jacobi_time_dependent(
        flat_metric(2), U=lambda x, t: 0.0, q=2.0, p_t=lambda t: 1.0 + t, m=1.0, c=1.0
    )
    # 2[2(1+t)] - 1 at t=1: 8 - 1 = 7
    assert conf.factor_at(np.zeros(2), 1.0) == pytest.approx(7.0, abs=1e-14)


def test_time_dependent_rejects_zero_charge():
    with pytest.raises(ValueError):
        jacobi_time_dependent(flat_metric(2), U=lambda x, t: 0.0, q=0.0, p_t=1.0, m=1.0)


def test_time_dependent_approx_factor_value():
    # 2 m [E(t) - q^2 U]: m=1, q=1, E=1, U=0.5 -> 1
    conf = jacobi_time_dependent_approx(
        flat_metric(2), U=lambda x, t: 0.5, energy=1.0, q=1.0, m=1.0
    )
    assert conf.factor_at(np.zeros(2), 0.0) == pytest.approx(1.0, abs=1e-15)
    # m=2, q=1, E=3, U=1 -> 2*2*(3-1) = 8
    conf = jacobi_time_dependent_approx(
        flat_metric(2), U=lambda x, t: 1.0, energy=3.0, q=1.0, m=2.0
    )
    assert conf.factor_at(np.zeros(2), 0.0) == pytest.approx(8.0, abs=1e-14)


def test_time_dependent_approx_static_reduction():
    # with q=1 and constant E the approximate factor is the classical one
    sys = kepler_system()
    conf_static = jacobi_nonrelativistic(sys)
    conf_td = jacobi_time_dependent_approx(
        sys.g, U=lambda x, t: -1.0 / x[0], energy=sys.E, q=1.0, m=sys.m
    )
    for r in (0.5, 1.0, 1.7):
        x = np.array([r, 0.3])
        assert conf_td.factor_at(x, 0.0) == conf_static.factor_at(x)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(0.1, 10.0),
    E=st.floats(-5.0, 5.0),
    r=st.floats(0.1, 20.0),
    k=st.floats(0.1, 5.0),
    kappa=st.floats(0.1, 10.0),
)
def test_static_lift_dummy_entry_is_the_jacobi_factor(m, E, r, k, kappa):
    # kappa V at the mechanical p_z^2 = 2m/kappa is 2m(E - U), up to rounding
    sys = kepler_system(m=m, k=k, E=E)
    lifted = lift_static(MechanicalSystem(g=sys.g, U=lambda x: E - sys.U(x), m=m), kappa=kappa)
    x = np.array([r, 1.0])
    via_lift = evaluate_metric(lifted.inverse, np.append(x, 0.0))[2, 2] * mechanical_pz(lifted) ** 2
    factor = jacobi_nonrelativistic(sys).factor_at(x)
    assert abs(via_lift - factor) <= 4e-15 * abs(factor)


def test_conformal_metric_scales_inverse():
    sys = kepler_system()
    conf = jacobi_nonrelativistic(sys)
    x = np.array([1.0, 0.0])
    g = conf.metric(x)
    base = evaluate_metric(sys.g, x)
    f = conf.factor_at(x)
    np.testing.assert_allclose(g, f * base, rtol=1e-14)
    np.testing.assert_allclose(invert_metric(g), invert_metric(base) / f, rtol=1e-13)


def test_conformal_metric_is_conformal_type():
    conf = jacobi_nonrelativistic(kepler_system())
    assert isinstance(conf, ConformalMetric)
    assert not conf.time_dependent
