"""The callable contract: a metric's components and guard and a system's
potential take one point or the coordinates-first columns of many, and each
row of a row call equals its one-point call."""

import re

import numpy as np
import pytest

from jacobiflow import (
    CATALOG,
    MechanicalSystem,
    MetricField,
    catalog_entry,
    cli,
    energy_from_state,
    flat_metric,
    mechanical_system_from_entry,
    polar_metric,
    sample_points,
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
