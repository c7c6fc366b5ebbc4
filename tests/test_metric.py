"""Tests for the metric substrate: evaluation, inversion, derivatives."""

import unittest
from pathlib import Path

import numpy as np

import jacobiflow
from jacobiflow import (
    DomainViolation,
    JacobiFlowError,
    MechanicalSystem,
    MetricField,
    SingularMatrix,
    coordinate_point,
    energy_from_state,
    evaluate_metric,
    flat_metric,
    hamilton_rhs,
    invert_metric,
    jacobi_rhs,
    lift_time_dependent,
    lifted_rhs,
    metric_partials,
    polar_metric,
)
from jacobiflow.catalog import CATALOG, catalog_entry, sample_points
from jacobiflow.metric import RCOND_MIN, _inverse, _inverse_partials


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def with_singular_values(sv, left=0.4, right=None):
    """2x2 matrix R(left) diag(sv) R(right)^T; right=None gives the SPD case."""
    right = left if right is None else right
    return rotation(left) @ np.diag(sv) @ rotation(right).T


def lift_shaped(base):
    """Indefinite 4x4 in the time-dependent lift's layout: -g block, then a
    (t, sigma) block [[2U/m, c], [c, 0]] with U = 0, c = 1 (singular values 1)."""
    G = np.zeros((4, 4))
    G[:2, :2] = -base
    G[2, 3] = G[3, 2] = 1.0
    return G


def rcond(g):
    sv = np.linalg.svd(g, compute_uv=False)
    return sv[-1] / sv[0]


def schwarzschild_spatial(M):
    """Hand-coded spatial slice in the area-radius chart, for cross-checks."""

    def comps(x):
        r, theta = x[0], x[1]
        w = 1.0 - 2.0 * M / r
        return np.diag([1.0 / w, r * r, r * r * np.sin(theta) ** 2])

    def guard(x):
        r, theta = x[0], x[1]
        return r > 2.0 * M + 1e-9 * M and abs(np.sin(theta)) > 1e-9

    return MetricField(dim=3, components=comps, guard=guard, name="schw-spatial-test")


class TestCoordinatePoint(unittest.TestCase):
    def test_basic(self):
        for coords in ([1.0, 2.0], [1, 2]):  # integers are cast to floats
            p = coordinate_point(coords)
            self.assertEqual(p.shape, (2,))
            self.assertEqual(p.dtype, np.float64)
            self.assertEqual(p.tolist(), [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with self.assertRaises(ValueError):
            coordinate_point([1.0, np.nan])
        with self.assertRaises(ValueError):
            coordinate_point([np.inf, 0.0])

    def test_rejects_empty_and_matrix(self):
        with self.assertRaises(ValueError):
            coordinate_point([])
        with self.assertRaises(ValueError):
            coordinate_point([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_complex(self):
        # a cast to float would drop the imaginary part: diag(1, 4) at 2 + 3i
        for call in (lambda: coordinate_point([2 + 3j, 0.0]),
                     lambda: coordinate_point(np.array([2.0, 0.0], dtype=complex)),
                     lambda: evaluate_metric(polar_metric(), np.array([2 + 3j, 0.0])),
                     lambda: polar_metric().valid(np.array([2 + 3j, 0.0]))):
            with self.assertRaisesRegex(ValueError, "must be real, got complex128"):
                call()


class TestEvaluateMetric(unittest.TestCase):
    def test_flat_is_identity(self):
        g = evaluate_metric(flat_metric(2), coordinate_point([3.0, -1.0]))
        np.testing.assert_array_equal(g, np.eye(2))

    def test_schwarzschild_spatial_values(self):
        # r = 4, M = 1, equatorial plane: diag(2, 16, 16)
        field = schwarzschild_spatial(1.0)
        g = evaluate_metric(field, coordinate_point([4.0, np.pi / 2, 0.0]))
        np.testing.assert_allclose(g, np.diag([2.0, 16.0, 16.0]), rtol=0, atol=1e-13)

    def test_horizon_is_out_of_chart(self):
        field = schwarzschild_spatial(1.0)
        with self.assertRaises(DomainViolation):
            evaluate_metric(field, coordinate_point([2.0, np.pi / 2, 0.0]))

    def test_output_symmetrized(self):
        def comps(x):
            return np.array([[1.0, 0.3], [0.1, 2.0]])

        field = MetricField(dim=2, components=comps)
        g = evaluate_metric(field, coordinate_point([0.0, 0.0]))
        self.assertEqual(g[0, 1], g[1, 0])
        self.assertAlmostEqual(g[0, 1], 0.2, places=15)


class TestInvertMetric(unittest.TestCase):
    def test_identity(self):
        np.testing.assert_array_equal(invert_metric(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        ginv = invert_metric(np.diag([2.0, 16.0, 16.0]))
        np.testing.assert_allclose(ginv, np.diag([0.5, 0.0625, 0.0625]), rtol=0, atol=1e-15)

    def test_zero_matrix_singular(self):
        with self.assertRaises(SingularMatrix):
            invert_metric(np.zeros((2, 2)))

    def test_badly_conditioned_singular(self):
        with self.assertRaises(SingularMatrix):
            invert_metric(np.diag([1.0, 1e-15]))

    def test_guard_threshold_non_diagonal_spd(self):
        ok = with_singular_values([1.0, 1e-11])
        bad = with_singular_values([1.0, 1e-13])
        self.assertNotEqual(ok[0, 1], 0.0)
        self.assertAlmostEqual(rcond(ok) / 1e-11, 1.0, places=3)
        self.assertAlmostEqual(rcond(bad) / 1e-13, 1.0, places=1)
        inv = np.linalg.inv(ok)
        np.testing.assert_array_equal(invert_metric(ok), 0.5 * (inv + inv.T))
        with self.assertRaises(SingularMatrix):
            invert_metric(bad)

    def test_guard_threshold_indefinite_lift_shape(self):
        ok = lift_shaped(with_singular_values([2.0, 2e-11], left=1.1))
        bad = lift_shaped(with_singular_values([2.0, 2e-13], left=1.1))
        self.assertAlmostEqual(rcond(ok) / 1e-11, 1.0, places=3)
        self.assertAlmostEqual(rcond(bad) / 1e-13, 1.0, places=1)
        self.assertLess(np.min(np.linalg.eigvalsh(ok)), 0.0)
        inv = np.linalg.inv(ok)
        np.testing.assert_array_equal(invert_metric(ok), 0.5 * (inv + inv.T))
        with self.assertRaises(SingularMatrix):
            invert_metric(bad)

    def test_guard_holds_for_non_symmetric_input(self):
        ok = with_singular_values([1.0, 1e-11], left=0.4, right=1.3)
        bad = with_singular_values([1.0, 1e-13], left=0.4, right=1.3)
        self.assertNotEqual(ok[0, 1], ok[1, 0])
        inv = np.linalg.inv(ok)
        np.testing.assert_array_equal(invert_metric(ok), 0.5 * (inv + inv.T))
        with self.assertRaises(SingularMatrix):
            invert_metric(bad)

    def test_non_finite_entries_singular(self):
        with self.assertRaises(SingularMatrix):
            invert_metric(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            g = a @ a.T + 3.0 * np.eye(3)
            prod = g @ invert_metric(g)
            np.testing.assert_allclose(prod, np.eye(3), rtol=0, atol=1e-12)


    def test_refusal_at_a_chart_point_names_the_point_and_the_metric(self):
        sys = MechanicalSystem(g=polar_metric(), U=lambda x: 0.0, m=1.0)
        with self.assertRaises(SingularMatrix) as ctx:
            hamilton_rhs(sys, [1e-7, 0.0], [0.0, 0.0])
        message = str(ctx.exception)
        self.assertTrue(message.startswith("matrix is too ill-conditioned to invert"))
        self.assertTrue(message.endswith(" at [1e-07, 0.0] on metric 'polar'"))

    def test_stack_equals_each_matrix_inverted_alone(self):
        rng = np.random.default_rng(2000)
        for dim in range(2, 6):
            for count in (1, 7, 40):
                a = rng.normal(size=(count, dim, dim))
                stack = a @ a.swapaxes(-1, -2) + 10.0 ** rng.uniform(-3, 1) * np.eye(dim)
                together = invert_metric(stack)
                self.assertEqual(together.shape, (count, dim, dim))
                alone = np.array([invert_metric(g) for g in stack])
                self.assertTrue((together == alone).all(), (dim, count))

    def test_stack_with_one_bad_member_is_refused(self):
        good = np.array([np.diag([2.0, 3.0]), with_singular_values([1.0, 1e-11])])
        members = {
            "non-finite entries": np.array([[1.0, np.nan], [np.nan, 1.0]]),
            "zero matrix": np.zeros((2, 2)),
            "ill-conditioned": with_singular_values([1.0, 1e-13]),
        }
        for kind, bad in members.items():
            stack = np.concatenate([good, [bad], good])
            with self.assertRaises(SingularMatrix) as ctx:
                invert_metric(stack)
            with self.assertRaises(SingularMatrix) as alone:
                invert_metric(bad)
            self.assertEqual(str(ctx.exception),
                             f"{alone.exception} (member 2 of the stack)", kind)

    def test_rows_refusal_names_the_first_bad_point_as_the_single_route_does(self):
        field = polar_metric()
        rows = np.array([[1.0, 0.0], [2e-7, 0.3], [1e-7, 0.0], [3.0, 1.0]])
        with self.assertRaises(SingularMatrix) as ctx:
            _inverse(field, rows)
        with self.assertRaises(SingularMatrix) as single:
            _inverse(field, rows[1])
        self.assertEqual(str(ctx.exception), str(single.exception))
        self.assertTrue(str(ctx.exception).endswith(" at [2e-07, 0.3] on metric 'polar'"))
        # a row outside the chart before a singular one raises its own refusal
        rows[0, 0] = -1.0
        with self.assertRaises(DomainViolation) as ctx:
            _inverse(field, rows)
        self.assertIn("[-1.0, 0.0]", str(ctx.exception))
        self.assertIn("'polar'", str(ctx.exception))

    def test_rows_take_one_time_per_row(self):
        field = MetricField(dim=1, components=lambda x, t: np.ones_like(x)[None] * (1.0 + t * t),
                            time_dependent=True, name="clock")
        rows = np.array([[0.5], [1.5], [2.5]])
        times = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            _inverse(field, rows, times)[:, 0, 0], 1.0 / (1.0 + times * times))
        np.testing.assert_array_equal(_inverse(field, rows, 2.0)[:, 0, 0], 0.2)
        np.testing.assert_array_equal(_inverse(field, rows)[:, 0, 0], 1.0)

    def test_only_the_metric_module_inverts(self):
        # every inverse metric goes through metric._inverse, so a fast path or
        # a change of conditioning rule has one place to go
        package = Path(jacobiflow.__file__).resolve().parent
        callers = [path.name for path in sorted(package.glob("*.py"))
                   if path.name != "metric.py" and "invert_metric(" in path.read_text()]
        self.assertEqual(callers, [])


def generic_twin(field):
    """The same field with its diagonal written out as matrices, which takes
    the generic inversion route."""
    partials = None
    if field.partials is not None:
        def partials(x):
            return np.array([np.diag(row) for row in np.asarray(field.partials(x), dtype=float)])
    return MetricField(dim=field.dim, components=lambda x: np.diag(field.components(x)),
                       partials=partials, guard=field.guard, name=field.name)


def catalog_charts():
    params = {"M": 1.0, "a": 0.6, "m": 1.0, "k": 1.0, "lam": 1.0}
    for name, (_, required, _, _) in sorted(CATALOG.items()):
        yield catalog_entry(name, **{p: params[p] for p in required})


def system_over(field):
    """A system over field whose potential is 0 everywhere but whose E labels
    an energy shell, so that the rescaled flow is defined on the whole chart."""
    return MechanicalSystem(g=field, U=lambda x: 0.0, m=1.0, E=1.0,
                            grad_U=lambda x: np.zeros(x.size))


def through_the_rhs(field, x, p=None, sys=None):
    """hamilton_rhs and jacobi_rhs, stacked, of the system over field at x:
    the diagonal route's kinetic terms there, the matrix ones on a generic
    field."""
    sys = system_over(field) if sys is None else sys
    p = np.linspace(-1.0, 2.0, x.size) if p is None else p
    return np.concatenate([*hamilton_rhs(sys, x, p), *jacobi_rhs(sys, x, p)])


class TestDiagonalRoute(unittest.TestCase):
    """A diagonal field inverts as 1/d with the bits, and the refusals, of the
    generic route on the same components, and so do the flows' right-hand
    sides, which read d and its partials without building matrices."""

    def assert_same_outcome(self, diagonal, generic, x, route=_inverse):
        outcomes = []
        for field in (diagonal, generic):
            try:
                outcomes.append(route(field, x))
            except JacobiFlowError as exc:
                outcomes.append(exc)
        fast, slow = outcomes
        if isinstance(slow, Exception):
            self.assertIs(type(fast), type(slow), x)
            self.assertEqual(str(fast), str(slow))
        else:
            self.assertTrue((fast == slow).all(), x)
        return fast

    def test_inverse_and_its_partials_equal_the_generic_route(self):
        rng = np.random.default_rng(5000)
        charts = [(polar_metric(), [np.array([rng.uniform(0.05, 20.0), rng.uniform(0.0, 7.0)])
                                    for _ in range(5000)])]
        for dim in range(2, 6):
            charts.append((flat_metric(dim), list(rng.normal(size=(5000, dim)))))
        for entry in catalog_charts():
            charts.append((entry.spatial, sample_points(entry, 5000, rng)))
        for field, points in charts:
            self.assertTrue(field.diagonal, field.name)
            twin = generic_twin(field)
            sys, twin_sys = system_over(field), system_over(twin)
            for x in points:
                ginv, dginv = _inverse_partials(field, x)
                twin_ginv, twin_dginv = _inverse_partials(twin, x)
                self.assertTrue((ginv == twin_ginv).all(), (field.name, x))
                self.assertTrue((dginv == twin_dginv).all(), (field.name, x))
                p = rng.normal(size=field.dim)
                rhs = through_the_rhs(field, x, p, sys)
                self.assertTrue((rhs == through_the_rhs(twin, x, p, twin_sys)).all(),
                                (field.name, x, p))

    def test_refusals_equal_the_generic_route(self):
        below, above = np.nextafter(RCOND_MIN, 0.0), np.nextafter(RCOND_MIN, 1.0)
        # d and its refusal before the point is named, or None where both
        # routes accept
        cases = [
            ([1.0, np.nan, 2.0], "matrix has non-finite entries"),
            ([np.inf, 1.0, 2.0], "matrix has non-finite entries"),
            ([1.0, 0.0, 2.0], "matrix is too ill-conditioned to invert (rcond=0.000e+00)"),
            ([0.0, 0.0, 0.0], "zero matrix is not invertible"),
            ([1.0, below, -1.0], "matrix is too ill-conditioned to invert (rcond=1.000e-12)"),
            ([1.0, above, -1.0], None),
        ]
        for d, refusal in cases:
            field = MetricField(dim=3, components=lambda x, d=d: np.array(d) + 0.0 * x[0],
                                name="fixed", guard=lambda x: x[0] > 0.0, diagonal=True)
            twin = generic_twin(field)
            for route in (_inverse, through_the_rhs):
                outcome = self.assert_same_outcome(field, twin, np.array([1.0, 2.0, 3.0]), route)
                if refusal is None:
                    if route is _inverse:
                        np.testing.assert_array_equal(outcome, np.diag(1.0 / np.array(d)))
                else:
                    self.assertIsInstance(outcome, SingularMatrix)
                    self.assertEqual(str(outcome),
                                     f"{refusal} at [1.0, 2.0, 3.0] on metric 'fixed'")
                # outside the chart both refuse the point before evaluating it
                self.assertIsInstance(
                    self.assert_same_outcome(field, twin, np.array([-1.0, 2.0, 3.0]), route),
                    DomainViolation)

    def test_entries_near_the_float_limit_invert_on_both_routes(self):
        # g + g^T overflows for these entries; the symmetrization halves first
        field = MetricField(dim=2, components=lambda x: np.array([1e308, 1e300]) + 0.0 * x[0],
                            name="huge", diagonal=True)
        outcome = self.assert_same_outcome(field, generic_twin(field), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(outcome, np.diag(1.0 / np.array([1e308, 1e300])))
        self.assert_same_outcome(field, generic_twin(field), np.array([1.0, 2.0]), through_the_rhs)


class TestPartials(unittest.TestCase):
    def test_flat_partials_zero(self):
        dg = metric_partials(flat_metric(3), coordinate_point([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(dg, 0.0, rtol=0, atol=1e-9)

    def test_polar_analytic_vs_fd(self):
        analytic = polar_metric()
        numeric = MetricField(dim=2, components=analytic.components, guard=analytic.guard,
                              diagonal=True)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(120):
            x = coordinate_point([rng.uniform(0.5, 5.0), rng.uniform(0.0, 2 * np.pi)])
            da = metric_partials(analytic, x)
            dn = metric_partials(numeric, x)
            worst = max(worst, float(np.max(np.abs(da - dn))))
        self.assertLess(worst, 1e-6)

    def test_fd_partials_match_sympy(self):
        # complex steps on a chart without analytic partials, against the
        # symbolic derivative of the same components (the worst difference
        # over these points is 1.4e-14; central differences read 8.5e-9)
        import sympy

        r, th, ph = sympy.symbols("r theta phi")
        comps = sympy.diag(1 / (1 - 2 / r), r ** 2, r ** 2 * sympy.sin(th) ** 2)
        exact = sympy.lambdify((r, th, ph), [comps.diff(v) for v in (r, th, ph)], "numpy")
        field = schwarzschild_spatial(1.0)
        self.assertIsNone(field.partials)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(120):
            x = coordinate_point(
                [rng.uniform(2.5, 10.0), rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)]
            )
            dn = metric_partials(field, x)
            worst = max(worst, float(np.max(np.abs(np.array(exact(*x), dtype=float) - dn))))
        self.assertLess(worst, 1e-6)

    def test_stencil_exit_raises(self):
        field = schwarzschild_spatial(1.0)
        # the guard's own margin, 1e-9 M past the horizon, is refused before
        # any derivative is taken
        with self.assertRaises(DomainViolation):
            metric_partials(field, coordinate_point([2.0 + 1e-9, np.pi / 2, 0.0]))

    def test_fallbacks_refuse_callables_that_are_not_complex_analytic(self):
        # complex steps need complex values back: a float() potential and a
        # real constant component are refused by name, not differentiated
        # as zero
        polar = polar_metric()
        floated = MechanicalSystem(g=polar, U=lambda x: float(-1.0 / x[0]), m=1.0,
                                   name="floated")
        with self.assertRaisesRegex(ValueError, "potential of system 'floated'"):
            hamilton_rhs(floated, [1.5, 0.3], [0.0, 1.0])
        constant = MetricField(dim=2, components=lambda x: np.array([1.0, 2.0]),
                               name="constant", diagonal=True)
        with self.assertRaisesRegex(ValueError, "components of metric 'constant'"):
            metric_partials(constant, [1.5, 0.3])
        # written as 0.0 * x[0] + c the same constant is accepted
        accepted = MetricField(dim=2, components=lambda x: np.array([1.0, 2.0]) + 0.0 * x[0],
                               name="constant", diagonal=True)
        np.testing.assert_array_equal(metric_partials(accepted, [1.5, 0.3]), 0.0)


class TestDomainGuardAtEveryPoint(unittest.TestCase):
    """Points are validated once per public call, the guard running at the
    point; derivatives without an analytic form read no other real point."""

    def system(self):
        return MechanicalSystem(g=schwarzschild_spatial(1.0), U=lambda x: -1.0 / x[0],
                                m=1.0, grad_U=lambda x: np.array([x[0] ** -2, 0.0, 0.0]))

    def test_hamilton_rhs_outside_guard(self):
        with self.assertRaises(DomainViolation):
            hamilton_rhs(self.system(), [1.5, np.pi / 2, 0.0], [0.0, 1.0, 0.0])

    def test_hamilton_rhs_stencil_exit(self):
        # 1e-8 outside the horizon, where a central-difference stencil would
        # leave the chart, the complex step in r gives the closed forms
        # dx = (0, 1/r^2, 0) and dp = (1/r^3 - 1/r^2, 0, 0)
        x = [2.0 + 1e-8, np.pi / 2, 0.0]
        self.assertTrue(self.system().g.valid(np.array(x)))
        dx, dp = hamilton_rhs(self.system(), x, [0.0, 1.0, 0.0])
        r = x[0]
        np.testing.assert_allclose(dx, [0.0, r ** -2, 0.0], rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(dp, [r ** -3 - r ** -2, 0.0, 0.0], rtol=1e-14, atol=1e-16)

    def test_hamilton_rhs_potential_stencil_exit(self):
        # no grad_U: at x = 1e-7, where central differences would read U at
        # x - 1e-6 off the half-line chart, the complex step gives dU/dx = 1
        # exactly and U is handed no real point but x
        seen = []

        def potential(x):
            seen.append(np.array(x))
            return 1.0 + x[0]

        half_line = MetricField(dim=1, components=lambda x: np.ones(1),
                                partials=lambda x: np.zeros((1, 1)), guard=lambda x: x[0] > 0.0,
                                name="half_line", diagonal=True)
        sys = MechanicalSystem(g=half_line, U=potential, m=1.0)
        dx, dp = hamilton_rhs(sys, [1e-7], [1.0])
        np.testing.assert_array_equal(dx, [1.0])
        np.testing.assert_array_equal(dp, [-1.0])
        self.assertTrue(seen)
        for point in seen:
            self.assertEqual(point.real[0], 1e-7)

    def test_derivatives_at_a_chart_edge_read_only_the_point(self):
        # 1e-9 inside the edge r > 1 of a chart without analytic partials, a
        # system over it without grad_U and its time-dependent lift: the
        # derivatives match sympy, and every callable is handed the point
        # (and the time) or the point plus an imaginary step, no other real
        # point; the guard sees only the real point
        import sympy

        r, ph, tau = sympy.symbols("r phi tau")
        g = sympy.Matrix([[1 + r ** 2, r * sympy.sin(ph) / 10],
                          [r * sympy.sin(ph) / 10, r ** 2]])
        U = (1 + sympy.sin(tau) / 5) / r + r * sympy.cos(ph) / 3
        exact = sympy.lambdify((r, ph, tau), [g.diff(r), g.diff(ph), U.diff(r), U.diff(ph),
                                              U.diff(tau)], "numpy")
        calls, guarded = [], []

        def components(x):
            calls.append((np.array(x), None))
            off = 0.1 * (x[0] * np.sin(x[1]))
            return np.array([[1.0 + x[0] * x[0], off], [off, x[0] * x[0]]])

        def potential(x, t):
            calls.append((np.array(x), t))
            return (1.0 + np.sin(t) / 5.0) / x[0] + x[0] * np.cos(x[1]) / 3.0

        def guard(x):
            guarded.append(np.array(x))
            return x[0] > 1.0

        field = MetricField(dim=2, components=components, guard=guard, name="edge")
        sys = MechanicalSystem(g=field, U=potential, m=1.3, time_dependent=True, name="edge")
        x, t = np.array([1.0 + 1e-9, 0.4]), 0.7
        dg_r, dg_ph, dU_r, dU_ph, dU_t = exact(*x, t)
        scale = 1e-13 * max(1.0, np.max(np.abs(dg_r)), np.max(np.abs(dg_ph)))
        self.assertLess(np.max(np.abs(metric_partials(field, x) - [dg_r, dg_ph])), scale)
        _, dp = hamilton_rhs(sys, x, np.zeros(2), t)
        self.assertLess(np.max(np.abs(dp + [dU_r, dU_ph])), 1e-13 * max(1.0, abs(dU_r)))
        lift = lift_time_dependent(sys, c=1.7)
        xe = np.array([*x, t, -0.2])
        lifted_rhs(lift)(0.0, xe, np.ones(4))
        D = metric_partials(lift.inverse, xe)
        np.testing.assert_allclose(D[:, 3, 3], -2.0 * np.array([dU_r, dU_ph, dU_t, 0.0])
                                   / (1.3 * 1.7 * 1.7), rtol=1e-13, atol=1e-16)
        self.assertTrue(calls and guarded)
        for point, time in calls:
            self.assertTrue((point.real == x).all(), point)
            self.assertTrue(time is None or time.real == t, time)
        for point in guarded:
            self.assertTrue(np.isrealobj(point) and (point == x).all(), point)

    def test_analytic_chart_outside_guard(self):
        sys = MechanicalSystem(g=polar_metric(), U=lambda x: 0.0, m=1.0)
        with self.assertRaises(DomainViolation):
            hamilton_rhs(sys, [-1.0, 0.0], [0.0, 1.0])

    def test_public_calls_still_validate_points(self):
        sys, P = self.system(), np.ones((2, 3))
        for call, message in (
            (lambda: evaluate_metric(polar_metric(), [np.nan, 0.0]), "finite"),
            (lambda: evaluate_metric(polar_metric(), [1.0]), "expects 2"),
            (lambda: hamilton_rhs(sys, [3.0, np.inf, 0.0], [0.0, 1.0, 0.0]), "finite"),
            (lambda: energy_from_state(sys, np.empty((0, 3)), np.empty((0, 3))),
             "non-empty"),
            (lambda: energy_from_state(sys, [[3.0, 1.0, 0.0], [4.0, np.nan, 0.0]], P),
             "must be finite"),
            (lambda: energy_from_state(sys, [[3.0 + 1j, 1.0, 0.0], [4.0, 1.0, 0.0]], P),
             "must be real"),
            (lambda: sys.g.valid([[3.0, 1.0, 0.0], [np.inf, 1.0, 0.0]]), "must be finite"),
            # valid once answered True where evaluate_metric refuses the dimension
            (lambda: polar_metric().valid([2.0]), "has 1 coordinates, metric 'polar' expects 2"),
            (lambda: polar_metric().valid([2.0, 0.0, 5.0]), "has 3 coordinates"),
            (lambda: sys.g.valid([[3.0, 1.0], [4.0, 1.0]]), "has 2 coordinates"),
        ):
            with self.assertRaisesRegex(ValueError, message):
                call()

    def test_public_partials_check_dimension_and_guard(self):
        # analytic partials do not bypass the checks
        polar = polar_metric()
        with self.assertRaisesRegex(ValueError, "expects 2"):
            metric_partials(polar, [1.0])
        with self.assertRaises(DomainViolation):
            metric_partials(polar, [-2.0, 0.0])


if __name__ == "__main__":
    unittest.main()
