"""Metric substrate: chart points, metric fields, inverses, Christoffel symbols.

Everything downstream (conformal transforms, geodesic flows, lifts) consumes
the types and operations defined here.  Metrics are dense small matrices
(dim <= 5), evaluated by closures over chart coordinates.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, SingularMatrix

# Finite-difference step rule used everywhere derivatives of fields are taken:
# central differences with h scaled to the coordinate magnitude.
FD_SCALE = 1e-6

# Conditioning threshold for metric inversion: reciprocal condition numbers
# below this are treated as singular.
RCOND_MIN = 1e-12


def coordinate_point(coords):
    """Validate and return a chart point as a 1-d float array.

    Rejects empty, non-1-d, and non-finite input.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("a chart point must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("chart coordinates must be finite")
    return x


@dataclass(frozen=True)
class MetricField:
    """A metric tensor field over a coordinate chart.

    components(x) (or components(x, t) when time_dependent) returns the
    dim x dim matrix of components.  partials, when provided, returns the
    array D with D[k, i, j] = d g_ij / d x^k; otherwise central differences
    are used.  guard(x) identifies valid chart points; None means the whole
    chart is valid.
    """

    dim: int
    components: Callable
    partials: Optional[Callable] = None
    guard: Optional[Callable] = None
    time_dependent: bool = False
    name: str = ""

    def valid(self, x):
        return self.guard is None or bool(self.guard(np.asarray(x, dtype=float)))


def _at(fn, x, t, time_dependent):
    """fn(x), or fn(x, t) for a time-dependent callable, with t=None read as 0.

    The one place that knows both call signatures: callers hand over the time
    they hold whether or not fn depends on it, and convert the result.
    """
    if time_dependent:
        return fn(x, 0.0 if t is None else float(t))
    return fn(x)


def _check_point(field, x):
    """The dimension check and the domain guard on a validated chart point."""
    if x.size != field.dim:
        raise ValueError(
            f"point has {x.size} coordinates, metric '{field.name}' expects {field.dim}"
        )
    if not field.valid(x):
        raise DomainViolation(
            f"point {x.tolist()} is outside the valid chart of metric '{field.name}'"
        )


def _evaluate(field, x, t=None):
    """evaluate_metric on an already validated chart point: the dimension
    check and the domain guard still apply."""
    _check_point(field, x)
    g = np.asarray(_at(field.components, x, t, field.time_dependent), dtype=float)
    return 0.5 * (g + g.T)


def evaluate_metric(field, x, t=None):
    """Evaluate the metric components at a chart point.

    Returns the symmetrized matrix; raises DomainViolation outside the guard.
    """
    return _evaluate(field, coordinate_point(x), t)


def invert_metric(g):
    """Invert a square matrix, guarding against ill conditioning.

    The guard is the 2-norm reciprocal condition rcond = sigma_min/sigma_max
    of g, from one singular-value decomposition: matrices with rcond below
    1e-12 (RCOND_MIN; exactly singular and zero matrices included) or with
    non-finite entries raise SingularMatrix.  The guard does not assume
    symmetry; the returned inverse is symmetrized.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise SingularMatrix("matrix has non-finite entries")
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[0] == 0.0:
        raise SingularMatrix("zero matrix is not invertible")
    rcond = sv[-1] / sv[0]
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularMatrix(
            f"matrix is too ill-conditioned to invert (rcond={rcond:.3e})"
        )
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix inversion failed: {exc}") from exc
    return 0.5 * (inv + inv.T)


def _fd_steps(x):
    return FD_SCALE * np.maximum(1.0, np.abs(x))


def _central_differences(f, x):
    """D[k] = (f(x + h_k e_k) - f(x - h_k e_k)) / (2 h_k), h = 1e-6 * max(1, |x|).

    Shared by metric, potential and lift partials; f may be scalar- or
    array-valued and is responsible for refusing stencil points off its chart.
    """
    h = _fd_steps(x)
    rows = []
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h[k]
        xm[k] -= h[k]
        rows.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h[k]))
    return np.array(rows, dtype=float)


def _stencil_point(field, y):
    """y itself, once the field's guard accepts it as a stencil point."""
    if not field.valid(y):
        raise DomainViolation(
            f"finite-difference stencil point {y.tolist()} exits the "
            f"chart of metric '{field.name}'"
        )
    return y


def _partials(field, x, t=None):
    """metric_partials on an already validated chart point."""
    if field.partials is not None:
        return np.asarray(_at(field.partials, x, t, field.time_dependent), dtype=float)
    return _central_differences(
        lambda y: _evaluate(field, _stencil_point(field, y), t), x)


def metric_partials(field, x, t=None):
    """Partial derivatives of the metric: D[k, i, j] = d g_ij / d x^k.

    Uses the field's analytic partials when available, otherwise central
    differences with per-coordinate steps h_k = 1e-6 * max(1, |x^k|).
    The point and every stencil point must satisfy the domain guard.
    """
    x = coordinate_point(x)
    _check_point(field, x)
    return _partials(field, x, t)


def _inverse_partials(field, x, t=None, ginv=None):
    """inverse_metric_partials on an already validated chart point."""
    if ginv is None:
        ginv = invert_metric(_evaluate(field, x, t))
    dg = _partials(field, x, t)
    return np.array([-(ginv @ dg[k] @ ginv) for k in range(field.dim)])


def inverse_metric_partials(field, x, t=None, ginv=None):
    """Partial derivatives of the inverse metric: D[k, i, j] = d g^ij / d x^k.

    Computed from the identity d(g^-1) = -g^-1 (dg) g^-1 so analytic partials
    of the components are reused when present.  The point must satisfy the
    dimension check and the domain guard, also when ginv is given.
    """
    x = coordinate_point(x)
    _check_point(field, x)
    return _inverse_partials(field, x, t, ginv)


def christoffel(field, x, t=None):
    """Connection coefficients at a point: an array with [i, j, k] = Gamma^i_jk.

    Gamma^i_jk = (1/2) g^il (d_k g_lj + d_j g_lk - d_l g_jk), with derivatives
    from analytic partials when the field provides them and from central
    differences otherwise.
    """
    x = coordinate_point(x)
    ginv = invert_metric(_evaluate(field, x, t))
    d = _partials(field, x, t)
    # d[k, i, j] = d_k g_ij; assemble the bracket with einsum.
    bracket = (
        np.einsum("klj->ljk", d)      # d_k g_lj
        + np.einsum("jlk->ljk", d)    # d_j g_lk
        - np.einsum("ljk->ljk", d)    # d_l g_jk
    )
    return 0.5 * np.einsum("il,ljk->ijk", ginv, bracket)


# ======================================================================
# Ready-made charts used by tests and demos
# ======================================================================

def flat_metric(dim, name="flat"):
    """Euclidean metric in Cartesian coordinates."""
    eye = np.eye(dim)
    zeros = np.zeros((dim, dim, dim))
    return MetricField(
        dim=dim,
        components=lambda x: eye,
        partials=lambda x: zeros,
        guard=None,
        name=name,
    )


def polar_metric():
    """Plane metric in polar coordinates (r, phi): diag(1, r^2)."""

    def components(x):
        r = x[0]
        return np.array([[1.0, 0.0], [0.0, r * r]])

    def partials(x):
        r = x[0]
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * r
        return d

    return MetricField(
        dim=2,
        components=components,
        partials=partials,
        guard=lambda x: x[0] > 0.0,
        name="polar",
    )


def spherical_metric():
    """Flat 3-space in spherical coordinates (r, theta, phi)."""

    def components(x):
        r, th = x[0], x[1]
        s = np.sin(th)
        return np.diag([1.0, r * r, r * r * s * s])

    def partials(x):
        r, th = x[0], x[1]
        s, cth = np.sin(th), np.cos(th)
        d = np.zeros((3, 3, 3))
        d[0, 1, 1] = 2.0 * r
        d[0, 2, 2] = 2.0 * r * s * s
        d[1, 2, 2] = 2.0 * r * r * s * cth
        return d

    return MetricField(
        dim=3,
        components=components,
        partials=partials,
        guard=lambda x: x[0] > 0.0 and np.sin(x[1]) > 1e-9,
        name="spherical",
    )
