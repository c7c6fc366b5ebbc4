"""Metric substrate: chart points, metric fields, inverses and their partials.

Everything downstream (conformal transforms, geodesic flows, lifts) consumes
the types and operations defined here.  Metrics are dense small matrices
(dim <= 5), evaluated by closures over chart coordinates; a diagonal field's
closures return only the diagonal, and its inverse is 1/d.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, SingularMatrix

# Step h of the one derivative rule, Im f(x + i h e_k) / h: it subtracts
# nothing, and its truncation h^2 f''' / 6 is far below rounding at any x.
CS_STEP = 1e-20

# Conditioning threshold for metric inversion: reciprocal condition numbers
# below this are treated as singular.
RCOND_MIN = 1e-12

_FLOAT = np.dtype(float)


def coordinate_point(coords):
    """Validate and return a chart point as a 1-d float array.

    Rejects empty, non-1-d, complex and non-finite input.
    """
    x = _real(coords)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("a chart point must be a non-empty 1-d sequence")
    # on a point's few coordinates Python's test costs less than numpy's
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError("chart coordinates must be finite")
    return x


def _real(coords):
    """coords as a float array, refusing complex ones, which a cast would make real."""
    x = np.asarray(coords)
    if x.dtype is _FLOAT:  # an identity test costs half of dtype == float
        return x
    if x.dtype.kind == "c":
        raise ValueError(f"chart coordinates must be real, got {x.dtype} values")
    return x.astype(float)


def _points(x):
    """coordinate_point for one chart point, or for each row of an (N, n)
    array of chart points."""
    x = _real(x)
    if x.ndim != 2:
        return coordinate_point(x)
    if x.size == 0:
        raise ValueError("rows of chart points must form a non-empty (N, n) array")
    if not np.isfinite(x).all():
        raise ValueError("chart coordinates must be finite")
    return x


@dataclass(frozen=True)
class MetricField:
    """A metric tensor field over a coordinate chart.

    components(x) (or components(x, t) when time_dependent) returns the
    dim x dim matrix of components.  partials, when provided, returns the
    array D with D[k, i, j] = d g_ij / d x^k; otherwise complex steps take
    them, and components must return complex values at complex points (a
    constant reads 0.0 * x[0] + c).  guard(x) identifies valid real chart
    points; None means the whole chart is valid.

    components and guard take one point x, (dim,), or the coordinates-first
    columns (dim, N) of N points, with t a scalar or (N,), and then put the
    points on the last axis: (dim, dim, N) or (dim, N) components, (N,)
    flags.  Code indexing coordinates, x[0] * x[0], works as written; write
    powers as products (numpy's array ** rounds unlike its scalar one).  A
    row result of another shape raises ValueError, which a contraction over
    the last axis (x @ w) escapes when N == dim.  partials takes one point.

    A diagonal field (diagonal=True) is one whose matrix is diag(d):
    components returns the (dim,) vector d and partials the (dim, dim) array
    D[k, i] = d d_i / d x^k.  The flows' right-hand sides read these as they
    are; every other consumer reads the matrix forms.  The inverse at a point
    is 1/d, refused exactly where the matrix diag(d) would be.
    """

    dim: int
    components: Callable
    partials: Optional[Callable] = None
    guard: Optional[Callable] = None
    time_dependent: bool = False
    name: str = ""
    diagonal: bool = False

    def valid(self, x):
        """Whether the guard accepts the point x, or (N,) flags over (N, dim)
        rows.  A point of another dimension raises the ValueError that
        evaluate_metric raises."""
        x = _points(x)
        _check_dim(self, x)
        return _valid(self, x)


def _valid(field, x):
    """MetricField.valid on an already validated chart point or rows."""
    if field.guard is None:
        return True if x.ndim == 1 else np.ones(len(x), dtype=bool)
    ok = _call(field.guard, x, None, False, (), "guard of metric", field.name)
    return bool(ok) if x.ndim == 1 else ok


def _at(fn, x, t, time_dependent):
    """fn(x), or fn(x, t) for a time-dependent callable, with t=None read as 0
    and an array t, one time per point, or a complex t passed through.

    The one place that knows both call signatures: callers hand over the time
    they hold whether or not fn depends on it, and convert the result.
    """
    if time_dependent:
        return fn(x, 0.0 if t is None else t if isinstance(t, (np.ndarray, complex)) else float(t))
    return fn(x)


def _call(fn, x, t, time_dependent, shape, role, name):
    """fn at the validated chart point x, or over (N, n) rows of x in one
    call on their columns x.T, the result's point axis moved first: the one
    evaluation path of components, guards and potentials.  A row result not
    of shape + (N,) raises ValueError naming the role and the owner's name."""
    if x.ndim == 1:
        return _at(fn, x, t, time_dependent)
    value = np.asarray(_at(fn, x.T, t, time_dependent))
    expected = shape + (len(x),)
    if value.shape != expected:
        raise ValueError(
            f"{role} '{name}' returned shape {value.shape} for {len(x)} points, "
            f"expected {expected}: handed the (n, N) columns of N points, it "
            f"returns its one-point shape with the points on a last axis")
    return np.moveaxis(value, -1, 0)


def _check_dim(field, x):
    """Refuse a chart point, or rows of them, of another dimension than the field's."""
    if not x.ndim or x.shape[-1] != field.dim:
        raise ValueError(
            f"point has {x.shape[-1] if x.ndim else 0} coordinates, metric "
            f"'{field.name}' expects {field.dim}"
        )


def _check_point(field, x):
    """The dimension check and the domain guard on a validated chart point or rows."""
    _check_dim(field, x)
    ok = _valid(field, x)
    if x.ndim == 2:
        x, ok = x[np.argmin(ok)], ok.all()
    if not ok:
        raise DomainViolation(
            f"point {x.tolist()} is outside the valid chart of metric '{field.name}'"
        )


def _on_diagonals(d):
    """The matrices whose diagonals are the last axis of d, zero elsewhere."""
    n = d.shape[-1]
    g = np.zeros(d.shape[:-1] + (n * n,))
    g[..., ::n + 1] = d
    return g.reshape(d.shape + (n,))


def _components(field, x, t=None):
    """The field's components at a validated chart point, or over (N, n)
    rows of them from one call, once the dimension check and the domain
    guard accept them: the matrix, or d of a diagonal field."""
    _check_point(field, x)
    shape = (field.dim,) if field.diagonal else (field.dim, field.dim)
    return np.asarray(_call(field.components, x, t, field.time_dependent, shape,
                            "components of metric", field.name), dtype=float)


def _matrix(field, g):
    """Components g, or their derivatives, as matrices: a diagonal field's d
    on the diagonal, other g symmetrized, halved before the sum so that
    entries near the float limit do not overflow."""
    if field.diagonal:
        return _on_diagonals(g)
    return 0.5 * g + 0.5 * g.swapaxes(-1, -2)


def _evaluate(field, x, t=None):
    """evaluate_metric on an already validated chart point, or on the rows of
    an (N, n) array of them with t one time for every row or one per row:
    the dimension check and the domain guard still apply."""
    return _matrix(field, _components(field, x, t))


def evaluate_metric(field, x, t=None):
    """Evaluate the metric components at a chart point.

    Returns the symmetrized matrix; raises DomainViolation outside the guard.
    """
    return _evaluate(field, coordinate_point(x), t)


def invert_metric(g):
    """Invert a square matrix, or each matrix of an (N, n, n) stack, guarding
    against ill conditioning.

    The guard is the 2-norm reciprocal condition rcond = sigma_min/sigma_max
    of each matrix, from one (stacked) singular-value decomposition: a matrix
    with rcond below 1e-12 (RCOND_MIN; exactly singular and zero matrices
    included) or with non-finite entries raises SingularMatrix, which for a
    stack names the first refused member.  The guard does not assume
    symmetry; the returned inverses are symmetrized.  A stack costs one
    decomposition and one inversion call, and each of its inverses has the
    bits of its own single-matrix call.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise _refusal("matrix has non-finite entries", ~np.isfinite(g).all(axis=(-2, -1)))
    sv = np.linalg.svd(g, compute_uv=False)
    top = sv[..., 0]
    if not _every(top != 0.0):
        raise _refusal("zero matrix is not invertible", top == 0.0)
    rcond = sv[..., -1] / top
    conditioned = rcond >= RCOND_MIN
    if not _every(conditioned):
        first = np.argmax(~conditioned)
        raise _refusal(f"matrix is too ill-conditioned to invert "
                       f"(rcond={np.ravel(rcond)[first]:.3e})", ~conditioned)
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix inversion failed: {exc}") from exc
    return 0.5 * inv + 0.5 * inv.swapaxes(-1, -2)


def _every(flags):
    """Whether every flag holds: one numpy bool, or each member's of a stack.
    A numpy scalar's .all() costs microseconds, bool() does not."""
    return bool(flags) if flags.ndim == 0 else bool(flags.all())


def _refusal(message, bad):
    """SingularMatrix with message, naming the first refused member when
    bad flags the members of a stack."""
    if bad.ndim == 0:
        return SingularMatrix(message)
    return SingularMatrix(f"{message} (member {np.argmax(bad)} of the stack)")


def _inverse(field, x, t=None):
    """g^ij at an already validated chart point: the one route from a chart
    point to the inverse metric.  The dimension check and the domain guard
    apply; a SingularMatrix names the point and the metric.  A diagonal
    field's inverse at one point is diag(1/d), with no decomposition.

    Over the rows of an (N, n) array of points, with t one time for every row
    or one per row, the (N, n, n) inverses come from one stacked
    invert_metric call.  A row that is refused raises exactly what its own
    single-point call raises: the guard names the first row it refuses, and
    a refused stack has its matrices inverted one by one until one fails.
    """
    if x.ndim == 2:
        g = _evaluate(field, x, t)
        try:
            return invert_metric(g)
        except SingularMatrix:
            for row, matrix in zip(x, g):
                _invert_at(field, row, matrix)
            raise
    if field.diagonal:
        return np.diag(_diagonal_inverse(field, x, t))
    return _invert_at(field, x, _evaluate(field, x, t))


def _invert_at(field, x, g):
    """invert_metric(g) for the metric g of field at the chart point x, its
    SingularMatrix naming the point and the metric."""
    try:
        return invert_metric(g)
    except SingularMatrix as exc:
        raise SingularMatrix(f"{exc} at {x.tolist()} on metric '{field.name}'") from exc


def _diagonal_inverse(field, x, t=None):
    """The diagonal a = 1/d of a diagonal field's inverse at a validated chart
    point, as a list of floats, accepted where invert_metric would accept
    diag(d): finite entries, max|d| != 0 and rcond = min|d| / max|d| >=
    RCOND_MIN.  Anything else is left to invert_metric, which words the
    refusal.  The rule runs on Python floats, which on a few entries cost
    less than numpy's reductions; finiteness is tested first because max and
    min of floats depend on their order around a nan."""
    d = _components(field, x, t).tolist()
    if all(map(math.isfinite, d)):
        size = list(map(abs, d))
        top = max(size)
        if top != 0.0 and min(size) / top >= RCOND_MIN:
            return [1.0 / v for v in d]
    return _invert_at(field, x, np.diag(d)).diagonal().tolist()


def _quadratic_form(a, p):
    """p_i a^ij p_j for one matrix, or for each matrix of a stack with the
    matching rows of p, associated as (p @ a) @ p: the stacked products over
    a contiguous stack give each row the bits of its single-matrix call."""
    p = np.asarray(p, dtype=float)
    if a.ndim == 2:
        return float(p @ a @ p)
    return np.matmul(np.matmul(p[:, None, :], np.ascontiguousarray(a)), p[:, :, None])[:, 0, 0]


def _kinetic_form(field, x, p, t=None):
    """g^ij p_i p_j: the inverse metric at a chart point contracted twice
    with the momentum p, the one kinetic-form rule of the package.  Over
    (N, n) rows of points and momenta it returns the (N,) values, from one
    stacked inversion."""
    return _quadratic_form(_inverse(field, _points(x), t), p)


def _complex_step(f, x, role, name):
    """D[k] = Im f(x + i h e_k) / h, h = CS_STEP: the derivatives of f at the
    real point x, from one call per coordinate, at one complex point.  A call
    that refuses it (TypeError; ComplexWarning as an error) or returns no
    complex value raises ValueError naming the role and the owner's name."""
    rows = []
    for k in range(x.size):
        z = x.astype(complex)
        z[k] += 1j * CS_STEP
        try:
            value = np.asarray(f(z))
            if value.dtype.kind != "c":
                raise TypeError(f"it returned {value.dtype} values")
        except (TypeError, np.exceptions.ComplexWarning) as exc:
            raise ValueError(f"{role} '{name}' is not complex-analytic at {z.tolist()} ({exc}); "
                             "derivatives without an analytic form are complex steps, and "
                             "a constant reads 0.0 * x[0] + c") from exc
        rows.append(value.imag)
    return np.array(rows) / CS_STEP


def _partials(field, x, t=None):
    """D[k] = d/dx^k of the field's components at a validated chart point:
    of the matrix, or of d for a diagonal field, D[k, i] = d d_i / d x^k.
    The field's analytic partials when given, otherwise complex steps."""
    if field.partials is not None:
        return np.asarray(_at(field.partials, x, t, field.time_dependent), dtype=float)
    D = _complex_step(lambda z: _at(field.components, z, t, field.time_dependent), x,
                      "components of metric", field.name)
    return D if field.diagonal else _matrix(field, D)


def metric_partials(field, x, t=None):
    """Partial derivatives of the metric: D[k, i, j] = d g_ij / d x^k.

    Uses the field's analytic partials when available, otherwise complex
    steps, exact to rounding; the domain guard applies at the point.
    """
    x = coordinate_point(x)
    _check_point(field, x)
    dg = _partials(field, x, t)
    return _on_diagonals(dg) if field.diagonal else dg


def _inverse_partials(field, x, t=None):
    """The inverse metric g^ij at a validated chart point and its partial
    derivatives D[k, i, j] = d g^ij / d x^k, from d(g^-1) = -g^-1 (dg) g^-1.
    For a diagonal field, with a = 1/d, these are the diagonal matrices
    -((a_i dd_i/dx^k) a_i), which are the matrix products' bits."""
    ginv = _inverse(field, x, t)
    dg = _partials(field, x, t)
    if field.diagonal:
        a = ginv.diagonal()
        return ginv, _on_diagonals(-((a * dg) * a))
    return ginv, np.array([-(ginv @ dg[k] @ ginv) for k in range(field.dim)])


# ======================================================================
# Ready-made charts
# ======================================================================

def flat_metric(dim):
    """Euclidean metric in Cartesian coordinates, a diagonal field."""
    zeros = np.zeros((dim, dim))

    def components(x):
        d = np.empty_like(x)
        d.fill(1.0)
        return d

    return MetricField(
        dim=dim,
        components=components,
        partials=lambda x: zeros,
        guard=None,
        name="flat",
        diagonal=True,
    )


def polar_metric():
    """Plane metric in polar coordinates (r, phi): diag(1, r^2), a diagonal
    field."""

    def components(x):
        d = np.empty_like(x)
        d[0], d[1] = 1.0, x[0] * x[0]
        return d

    def partials(x):
        return np.array([[0.0, 2.0 * x[0]], [0.0, 0.0]])

    return MetricField(
        dim=2,
        components=components,
        partials=partials,
        guard=lambda x: x[0] > 0.0,
        name="polar",
        diagonal=True,
    )
