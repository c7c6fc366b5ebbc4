"""Tests for the metric substrate: evaluation, inversion, derivatives, Christoffels."""

import unittest

import numpy as np

from jacobiflow import (
    DomainViolation,
    MechanicalSystem,
    MetricField,
    SingularMatrix,
    christoffel,
    coordinate_point,
    evaluate_metric,
    flat_metric,
    hamilton_rhs,
    inverse_metric_partials,
    invert_metric,
    metric_partials,
    polar_metric,
    spherical_metric,
)


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
        p = coordinate_point([1.0, 2.0])
        self.assertEqual(p.shape, (2,))
        self.assertEqual(p.dtype, np.float64)

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


class TestPartials(unittest.TestCase):
    def test_flat_partials_zero(self):
        dg = metric_partials(flat_metric(3), coordinate_point([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(dg, 0.0, rtol=0, atol=1e-9)

    def test_polar_analytic_vs_fd(self):
        analytic = polar_metric()
        numeric = MetricField(dim=2, components=analytic.components, guard=analytic.guard)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(120):
            x = coordinate_point([rng.uniform(0.5, 5.0), rng.uniform(0.0, 2 * np.pi)])
            da = metric_partials(analytic, x)
            dn = metric_partials(numeric, x)
            worst = max(worst, float(np.max(np.abs(da - dn))))
        self.assertLess(worst, 1e-6)

    def test_spherical_analytic_vs_fd(self):
        analytic = spherical_metric()
        numeric = MetricField(dim=3, components=analytic.components, guard=analytic.guard)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(120):
            x = coordinate_point(
                [rng.uniform(0.5, 5.0), rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)]
            )
            da = metric_partials(analytic, x)
            dn = metric_partials(numeric, x)
            worst = max(worst, float(np.max(np.abs(da - dn))))
        self.assertLess(worst, 1e-6)

    def test_stencil_exit_raises(self):
        field = schwarzschild_spatial(1.0)
        # valid point, but the finite-difference stencil pokes past the horizon
        with self.assertRaises(DomainViolation):
            metric_partials(field, coordinate_point([2.0 + 1e-9, np.pi / 2, 0.0]))


class TestDomainGuardAtEveryPoint(unittest.TestCase):
    """Points are validated once per public call; the guard still runs at
    the point and at every finite-difference stencil point."""

    def system(self):
        return MechanicalSystem(g=schwarzschild_spatial(1.0), U=lambda x: -1.0 / x[0],
                                m=1.0, grad_U=lambda x: np.array([x[0] ** -2, 0.0, 0.0]))

    def test_hamilton_rhs_outside_guard(self):
        with self.assertRaises(DomainViolation):
            hamilton_rhs(self.system(), [1.5, np.pi / 2, 0.0], [0.0, 1.0, 0.0])

    def test_hamilton_rhs_stencil_exit(self):
        x = [2.0 + 1e-8, np.pi / 2, 0.0]
        self.assertTrue(self.system().g.valid(np.array(x)))
        with self.assertRaisesRegex(DomainViolation, "stencil"):
            hamilton_rhs(self.system(), x, [0.0, 1.0, 0.0])

    def test_analytic_chart_outside_guard(self):
        sys = MechanicalSystem(g=polar_metric(), U=lambda x: 0.0, m=1.0)
        with self.assertRaises(DomainViolation):
            hamilton_rhs(sys, [-1.0, 0.0], [0.0, 1.0])

    def test_public_calls_still_validate_points(self):
        for call in (
            lambda: evaluate_metric(polar_metric(), [np.nan, 0.0]),
            lambda: evaluate_metric(polar_metric(), [1.0]),
            lambda: hamilton_rhs(self.system(), [3.0, np.inf, 0.0], [0.0, 1.0, 0.0]),
        ):
            with self.assertRaises(ValueError):
                call()

    def test_public_partials_check_dimension_and_guard(self):
        # neither analytic partials nor a given inverse bypasses the checks
        polar, ginv = polar_metric(), np.eye(2)
        for partials in (lambda x: metric_partials(polar, x),
                         lambda x: inverse_metric_partials(polar, x, ginv=ginv)):
            with self.assertRaisesRegex(ValueError, "expects 2"):
                partials([1.0])
            with self.assertRaises(DomainViolation):
                partials([-2.0, 0.0])


class TestChristoffel(unittest.TestCase):
    def test_flat_all_zero(self):
        gam = christoffel(flat_metric(2), coordinate_point([0.3, -4.0]))
        np.testing.assert_array_equal(gam, np.zeros((2, 2, 2)))

    def test_polar_values(self):
        # diag(1, r^2) at r=2: Gamma^r_phiphi = -2, Gamma^phi_rphi = 0.5
        gam = christoffel(polar_metric(), coordinate_point([2.0, 0.7]))
        self.assertAlmostEqual(gam[0, 1, 1], -2.0, places=9)
        self.assertAlmostEqual(gam[1, 0, 1], 0.5, places=9)
        self.assertAlmostEqual(gam[1, 1, 0], 0.5, places=9)
        self.assertAlmostEqual(gam[0, 0, 0], 0.0, places=9)

    def test_lower_index_symmetry(self):
        field = schwarzschild_spatial(1.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = coordinate_point(
                [rng.uniform(2.5, 8.0), rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)]
            )
            gam = christoffel(field, x)
            np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), rtol=0, atol=1e-6)

    def test_fd_matches_analytic_path(self):
        analytic = spherical_metric()
        numeric = MetricField(dim=3, components=analytic.components, guard=analytic.guard)
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(100):
            x = coordinate_point(
                [rng.uniform(0.5, 5.0), rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)]
            )
            ga = christoffel(analytic, x)
            gn = christoffel(numeric, x)
            worst = max(worst, float(np.max(np.abs(ga - gn))))
        self.assertLess(worst, 1e-6)


if __name__ == "__main__":
    unittest.main()
