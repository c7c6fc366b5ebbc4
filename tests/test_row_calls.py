"""The callable contract: a metric's components and guard, a system's
potential and a conformal factor take one point or the coordinates-first
columns of many, and each row of a row call equals its one-point call; every
user callable's result at one point has its role's shape."""

import dataclasses
import re

import numpy as np
import pytest

from jacobiflow import (
    CATALOG,
    ConformalMetric,
    FlowState,
    MechanicalSystem,
    MetricField,
    StationarySpacetime,
    catalog_entry,
    cli,
    energy_from_state,
    evaluate_metric,
    flat_metric,
    hamilton_flow,
    hamilton_rhs,
    integrate,
    jacobi_nonrelativistic,
    jacobi_relativistic_stationary,
    jacobi_time_dependent,
    jacobi_time_dependent_approx,
    mechanical_system_from_entry,
    metric_partials,
    nonrelativistic_limit_factor,
    polar_metric,
    sample_points,
    spacetime_from_entry,
    weak_field_spacetime,
)
from jacobiflow.metric import _components

PARAMS = {"M": 1.0, "a": 0.6, "m": 1.0, "k": 1.0, "lam": 1.0}


def catalog_entries():
    return [catalog_entry(name, **{p: PARAMS[p] for p in required})
            for name, (_, required, _, _) in sorted(CATALOG.items())]


def cli_system(name, E):
    """The system the CLI's orbit task builds for --system name."""
    args = cli.build_parser().parse_args(["orbit", "--system", name, "--E", str(E)])
    return cli.build_mechanical(cli.scenario_from_args(args))


def cli_lift(kind, tmp_path, monkeypatch):
    """The lift the CLI's lift task of kind builds over a 2-d launch."""
    built = []
    for name in ("lift_static", "lift_time_dependent"):
        def record(*args, _build=getattr(cli, name), **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(cli, name, record)
    assert cli.main(["lift", "--kind", kind, "--initial", "0.8,0.3,0.1,0.5", "--span", "0.1",
                     "--record", "2", "--out", str(tmp_path)]) == 0
    return built[0]


def box(rng, count, lows, highs):
    lows = np.asarray(lows, dtype=float)
    return lows + (np.asarray(highs, dtype=float) - lows) * rng.random((count, lows.size))


def charts():
    """(field, a box that straddles its chart's edges, a sampler of valid points)."""
    for dim in (1, 2, 3):
        yield (flat_metric(dim), ([-2.0] * dim, [2.0] * dim),
               lambda rng, count, dim=dim: box(rng, count, [-2.0] * dim, [2.0] * dim))
    yield (polar_metric(), ([-0.5, 0.0], [3.0, 7.0]),
           lambda rng, count: box(rng, count, [0.1, 0.0], [3.0, 7.0]))
    for entry in catalog_entries():
        (lo, hi), _, phi = entry.sample_ranges
        yield (entry.spatial, ([lo - 1.5, -0.2, phi[0]], [hi, np.pi + 0.2, phi[1]]),
               lambda rng, count, entry=entry: np.array(sample_points(entry, count, rng)))


def assert_rows_equal_points(rows, each):
    each = np.array(each)
    assert rows.shape == each.shape
    assert (rows == each).all()


@pytest.mark.parametrize("field, edges, sample", list(charts()),
                         ids=lambda v: v.name if isinstance(v, MetricField) else "")
def test_charts_take_rows_with_the_bits_of_their_points(field, edges, sample):
    rng = np.random.default_rng(11)
    for count in (1, field.dim, 50):
        straddling = box(rng, count, *edges)
        assert_rows_equal_points(field.valid(straddling), [field.valid(x) for x in straddling])
        X = sample(rng, count)
        assert_rows_equal_points(_components(field, X), [_components(field, x) for x in X])


def systems():
    yield cli_system("kepler", -0.5), [0.3, 0.0], [3.0, 7.0]
    yield cli_system("oscillator", 1.0), [0.1, 0.0], [3.0, 7.0]
    yield cli_system("free", 1.0), [-2.0, -2.0], [2.0, 2.0]
    for entry in catalog_entries():
        if entry.U is not None:
            yield mechanical_system_from_entry(entry), *zip(*entry.sample_ranges)


@pytest.mark.parametrize("sys, lows, highs", list(systems()),
                         ids=lambda v: v.name if isinstance(v, MechanicalSystem) else "")
def test_potentials_take_rows_with_the_bits_of_their_points(sys, lows, highs):
    rng = np.random.default_rng(12)
    for count in (1, sys.g.dim, 50):
        X = box(rng, count, lows, highs)
        assert_rows_equal_points(sys.potential(X), [sys.potential(x) for x in X])


@pytest.mark.parametrize("kind", ["static", "timedep"])
def test_the_cli_lifts_take_rows_with_the_bits_of_their_points(kind, tmp_path, monkeypatch):
    lift = cli_lift(kind, tmp_path, monkeypatch)
    sys, rng = lift.sys, np.random.default_rng(13)
    for count in (1, 2, lift.inverse.dim, 50):
        X, T = box(rng, count, [-2.0, -2.0], [2.0, 2.0]), rng.uniform(0.0, 5.0, count)
        if sys.time_dependent:
            assert_rows_equal_points(sys.potential(X, T),
                                     [sys.potential(x, t) for x, t in zip(X, T)])
            XE = np.column_stack([X, T, rng.uniform(-1.0, 1.0, count)])
        else:
            assert_rows_equal_points(sys.potential(X), [sys.potential(x) for x in X])
            XE = np.column_stack([X, rng.uniform(-1.0, 1.0, count)])
        for field in (lift.inverse, lift.extended):
            assert_rows_equal_points(field.valid(XE), [field.valid(x) for x in XE])
            assert_rows_equal_points(_components(field, XE), [_components(field, x) for x in XE])


def factors():
    """(id, conformal metric, a sampler of points where its factor is defined)
    for each factor constructor: the classical factor of every system above,
    the stationary and limit factors of the weak-field Kepler spacetime and
    of every catalog entry with a V^2."""
    for sys, lows, highs in systems():
        yield (f"classical-{sys.name}", jacobi_nonrelativistic(dataclasses.replace(sys, E=-0.1)),
               lambda rng, count, lows=lows, highs=highs: box(rng, count, lows, highs))
    kepler, lows, highs = next(systems())
    spacetimes = [("weak-field", weak_field_spacetime(kepler.g, kepler.U, m=1.0, c=3.0),
                   lambda rng, count: box(rng, count, lows, highs))]
    for entry in catalog_entries():
        if entry.Vsq is not None:
            spacetimes.append((entry.name, spacetime_from_entry(entry), lambda rng, count,
                               entry=entry: np.array(sample_points(entry, count, rng))))
    for name, st, sample in spacetimes:
        yield f"relativistic-{name}", jacobi_relativistic_stationary(st, 1.1), sample
        yield f"limit-{name}", nonrelativistic_limit_factor(st, -0.1), sample


@pytest.mark.parametrize("conf, sample", [case[1:] for case in factors()],
                         ids=[case[0] for case in factors()])
def test_factors_take_rows_with_the_bits_of_their_points(conf, sample):
    rng = np.random.default_rng(14)
    for count in (1, conf.base.dim, 50):
        X = sample(rng, count)
        assert_rows_equal_points(conf.factor_at(X), [conf.factor_at(x) for x in X])


def driven_U(x, t):
    return 0.5 * (1.0 + 0.3 * np.sin(t)) * (x * x).sum(axis=0)


@pytest.mark.parametrize("conf", [
    jacobi_time_dependent(flat_metric(2), driven_U, q=1.5, p_t=2.0, m=1.0, c=2.0),
    jacobi_time_dependent(flat_metric(2), driven_U, q=1.5, p_t=lambda t: 2.0 + 0.1 * np.sin(t),
                          m=1.0),
    jacobi_time_dependent_approx(flat_metric(2), driven_U, energy=1.0, q=1.5, m=2.0),
    jacobi_time_dependent_approx(flat_metric(2), driven_U, energy=lambda t: 1.0 + 0.5 * t,
                                 q=1.5, m=2.0),
], ids=["exact", "exact-p_t-of-t", "approx", "approx-energy-of-t"])
def test_time_dependent_factors_take_rows_with_the_bits_of_their_points(conf):
    rng = np.random.default_rng(15)
    for count in (1, 2, 50):
        X, T = box(rng, count, [-2.0, -2.0], [2.0, 2.0]), rng.uniform(0.0, 5.0, count)
        assert_rows_equal_points(conf.factor_at(X, 0.7), [conf.factor_at(x, 0.7) for x in X])
        assert_rows_equal_points(conf.factor_at(X, T),
                                 [conf.factor_at(x, t) for x, t in zip(X, T)])


@pytest.mark.parametrize("count", [1, 2], ids=["N=1", "N=n"])
def test_per_point_factors_handed_rows_are_refused(count):
    X = np.linspace(0.5, 1.5, 2 * count).reshape(count, 2)
    norm = MechanicalSystem(g=polar_metric(), U=lambda x: np.linalg.norm(x), m=1.0, E=1.0)
    cases = [
        ConformalMetric(polar_metric(), lambda x: 2.0),
        jacobi_nonrelativistic(norm),
        jacobi_relativistic_stationary(StationarySpacetime(polar_metric(), lambda x: 1.0), 1.1),
    ]
    message = (f"factor of conformal metric 'polar' returned shape () for {count} points, "
               f"expected ({count},)")
    for conf in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            conf.factor_at(X)


@pytest.mark.parametrize("count", [1, 2], ids=["N=1", "N=n"])
def test_per_point_callables_handed_rows_are_refused(count):
    X = np.linspace(0.5, 1.5, 2 * count).reshape(count, 2)
    P = np.ones((count, 2))
    fixed = MetricField(dim=2, components=lambda x: np.eye(2), name="fixed")
    cases = [
        (MechanicalSystem(g=fixed, U=lambda x: 0.0 * x[0], m=1.0),
         "components of metric 'fixed'", (2, 2), (2, 2, count)),
        (MechanicalSystem(g=flat_metric(2), U=lambda x: 0.0, m=1.0, name="zero"),
         "potential of system 'zero'", (), (count,)),
        (MechanicalSystem(g=flat_metric(2), U=lambda x: np.linalg.norm(x), m=1.0, name="norm"),
         "potential of system 'norm'", (), (count,)),
    ]
    for sys, role, got, expected in cases:
        message = f"{role} returned shape {got} for {count} points, expected {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            energy_from_state(sys, X, P)


X, P = [1.2, 0.4], [0.3, 0.9]


def kepler(**fields):
    """Kepler on the polar chart, with fields replaced."""
    return MechanicalSystem(**{"g": polar_metric(), "U": lambda x: -1.0 / x[0], "m": 1.0,
                               "grad_U": lambda x: np.array([1.0 / (x[0] * x[0]), 0.0]),
                               "name": "kepler", **fields})


def plane(name, components, diagonal=True, **fields):
    """A 2-d metric named name, with the polar chart's partials on a diagonal one."""
    if diagonal:
        fields = {"partials": polar_metric().partials, **fields}
    return MetricField(dim=2, components=components, name=name, diagonal=diagonal, **fields)


def polar_d(x):
    return np.array([1.0, x[0] * x[0]])


def scalar_gradient(x):
    return 1.0 / (x[0] * x[0])


LONG_D = plane("long", lambda x: np.array([1.0, x[0] * x[0], 1.0]))


@pytest.mark.parametrize("call, role, got, expected", [
    (lambda: hamilton_rhs(kepler(grad_U=scalar_gradient), X, P),
     "potential gradient of system 'kepler'", (), (2,)),
    (lambda: integrate(hamilton_flow(kepler(grad_U=scalar_gradient)), FlowState(X, P), 3.0),
     "potential gradient of system 'kepler'", (), (2,)),
    (lambda: hamilton_rhs(kepler(grad_U=lambda x: np.array([1.0, 0.0, 0.0]) / (x[0] * x[0])),
                          X, P), "potential gradient of system 'kepler'", (3,), (2,)),
    (lambda: evaluate_metric(LONG_D, X), "components of metric 'long'", (3,), (2,)),
    (lambda: hamilton_rhs(kepler(g=LONG_D), X, P), "components of metric 'long'", (3,), (2,)),
    (lambda: hamilton_rhs(kepler(g=plane("wide", polar_d, partials=lambda x: np.zeros((2, 3)))),
                          X, P), "partials of metric 'wide'", (2, 3), (2, 2)),
    (lambda: hamilton_rhs(kepler(g=plane("short", polar_d,
                                         partials=lambda x: np.array([0.0, 2.0 * x[0]]))), X, P),
     "partials of metric 'short'", (2,), (2, 2)),
    (lambda: hamilton_rhs(kepler(g=plane("matrix", lambda x: np.diag(polar_d(x)), False,
                                         partials=lambda x: np.zeros((2, 2)))), X, P),
     "partials of metric 'matrix'", (2, 2), (2, 2, 2)),
    (lambda: evaluate_metric(plane("scalar", lambda x: 1.0 + 0.0 * x[0], False), X),
     "components of metric 'scalar'", (), (2, 2)),
    (lambda: evaluate_metric(plane("guarded", polar_d, guard=lambda x: x > 0.0), X),
     "guard of metric 'guarded'", (2,), ()),
    (lambda: ConformalMetric(polar_metric(), lambda x: np.array([2.0])).factor_at(X),
     "factor of conformal metric 'polar'", (1,), ()),
    (lambda: ConformalMetric(polar_metric(), lambda x: 2.0 * x).factor_at(X),
     "factor of conformal metric 'polar'", (2,), ()),
    (lambda: jacobi_relativistic_stationary(
        StationarySpacetime(polar_metric(), lambda x: np.array([1.0, 2.0])), 1.1).factor_at(X),
     "V^2 of spacetime on metric 'polar'", (2,), ()),
    # at the complex points of a complex step
    (lambda: metric_partials(plane("long", LONG_D.components, partials=None), X),
     "components of metric 'long'", (3,), (2,)),
    (lambda: hamilton_rhs(kepler(U=lambda x: -1.0 / x, grad_U=None), X, P),
     "potential of system 'kepler'", (2,), ()),
], ids=["grad_U-scalar", "grad_U-scalar-integrate", "grad_U-long", "components-long",
        "components-long-rhs", "partials-wide", "partials-short", "partials-matrix-short",
        "components-matrix-scalar", "guard-vector", "factor-one", "factor-vector", "Vsq-vector",
        "complex-step-components-long", "complex-step-U-vector"])
def test_callables_returning_another_one_point_shape_are_refused(call, role, got, expected):
    # each once ran with entries dropped or broadcast (a scalar grad_U ran
    # Kepler to completion with p_phi drifting by 3.37), or failed with an
    # error that named no callable
    message = f"{role} returned shape {got} at one point, expected {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
