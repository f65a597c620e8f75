"""Local models of Killing submersions and length/polygon utilities.

A model stores the data (lambda, mu, a, b) of the metric

    ds^2 = lambda^2 (dx^2 + dy^2) + mu^2 [dz - lambda (a dx + b dy)]^2

on a rectangular chart.  Sign convention: the vertical one-form is
dz - lambda (a dx + b dy), so the classical Heisenberg form
tau (y dx - x dy) + dz maps to a = -tau*y, b = tau*x.

Built-in presets hand-code the partial derivatives of lambda, a and b, the
ones that bundle-curvature recovery and the geodesic flow read, so that
those are exact; mu's partials, and the partials of user-specified
expression fields, fall back to numeric differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import ScalarField, as_field, callable_field, const_field

_DEFAULT_MARGIN = 1e-9


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("chart rectangle must have positive area")

    def contains(self, x, y, margin: float = 0.0):
        return ((x >= self.x0 + margin) & (x <= self.x1 - margin)
                & (y >= self.y0 + margin) & (y <= self.y1 - margin))


@dataclass
class MetricModel:
    """Local-model data (lambda, mu, a, b) on a coordinate chart."""

    chart: Rect
    lam: ScalarField
    mu: ScalarField
    a: ScalarField
    b: ScalarField
    name: str = "custom"
    params: tuple = ()
    # Validity guard beyond the rectangle (singular loci such as the unit
    # circle for disk models); None means the whole rectangle is valid.
    guard: Optional[Callable] = None
    # Base geometry tag used for closed-form geodesic circles:
    # "flat" (lambda == 1), "hyperbolic-disk", "hyperbolic-halfplane", "generic".
    base_kind: str = "generic"

    def __post_init__(self):
        self._validate()

    def valid(self, x, y):
        ok = self.chart.contains(x, y, _DEFAULT_MARGIN)
        if self.guard is not None:
            ok = ok & self.guard(x, y)
        return ok

    def _validate(self, n: int = 21):
        xs = np.linspace(self.chart.x0, self.chart.x1, n)
        ys = np.linspace(self.chart.y0, self.chart.y1, n)
        X, Y = np.meshgrid(xs, ys)
        m = self.valid(X, Y)
        if not np.any(m):
            raise ValueError("chart contains no valid sample points")
        lam = self.lam.value(X[m], Y[m])
        mu = self.mu.value(X[m], Y[m])
        if not (np.all(np.isfinite(lam)) and np.all(lam > 0)):
            raise ValueError("lambda must be positive and finite on the chart")
        if not (np.all(np.isfinite(mu)) and np.all(mu > 0)):
            raise ValueError("mu must be positive and finite on the chart")


# ---------------------------------------------------------------------------
# Presets

def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _inside_unit_disk(x, y):
    return x ** 2 + y ** 2 < (1.0 - _DEFAULT_MARGIN) ** 2


def _rotation(k):
    """The connection (a, b) = (-k y, k x), of curl 2k, with its constant partials."""
    a = callable_field(lambda x, y: -k * y + 0.0 * x, fx=_zero, fy=const_field(-k).fn)
    b = callable_field(lambda x, y: k * x + 0.0 * y, fx=const_field(k).fn, fy=_zero)
    return a, b


def _euclidean(chart):
    return MetricModel(chart=chart or Rect(-1e6, 1e6, -1e6, 1e6),
                       lam=const_field(1.0), mu=const_field(1.0),
                       a=const_field(0.0), b=const_field(0.0),
                       name="euclidean", base_kind="flat")


def _nil3(tau, chart):
    tau = float(tau)
    a, b = _rotation(tau)
    return MetricModel(chart=chart or Rect(-1e6, 1e6, -1e6, 1e6),
                       lam=const_field(1.0), mu=const_field(1.0), a=a, b=b,
                       name="nil3", params=(tau,), base_kind="flat")


def _sol3_halfplane(chart):
    lam = callable_field(lambda x, y: 1.0 / y + 0.0 * x, fx=_zero,
                         fy=lambda x, y: -1.0 / y ** 2 + 0.0 * x)
    return MetricModel(chart=chart or Rect(-1e6, 1e6, _DEFAULT_MARGIN, 1e6), lam=lam,
                       mu=callable_field(lambda x, y: y + 0.0 * x),
                       a=const_field(0.0), b=const_field(0.0), name="sol3-halfplane",
                       guard=lambda x, y: y > _DEFAULT_MARGIN, base_kind="hyperbolic-halfplane")


def _disk_lambda():
    # lambda = 2/(1 - r^2);  lambda_x = lambda^2 x, lambda_y = lambda^2 y.
    lam = lambda x, y: 2.0 / (1.0 - (x ** 2 + y ** 2))
    return callable_field(lam, fx=lambda x, y: lam(x, y) ** 2 * x,
                          fy=lambda x, y: lam(x, y) ** 2 * y)


def _sol3_disk(chart):
    mu = callable_field(lambda x, y: (1.0 - x ** 2 - y ** 2) / ((x - 1.0) ** 2 + y ** 2))
    return MetricModel(chart=chart or Rect(-1, 1, -1, 1), lam=_disk_lambda(), mu=mu,
                       a=const_field(0.0), b=const_field(0.0), name="sol3-disk",
                       guard=_inside_unit_disk, base_kind="hyperbolic-disk")


def _e_minus1_tau(tau, chart):
    tau = float(tau)
    a, b = _rotation(2.0 * tau)
    return MetricModel(chart=chart or Rect(-1, 1, -1, 1),
                       lam=_disk_lambda(), mu=const_field(1.0), a=a, b=b,
                       name="e-minus1-tau", params=(tau,), guard=_inside_unit_disk,
                       base_kind="hyperbolic-disk")


def _warped_plane(mu, chart):
    # radial warping factors such as mu = r vanish at the pole; usage is on
    # annular/exterior domains, so the origin is guarded out
    return MetricModel(chart=chart or Rect(-1e6, 1e6, -1e6, 1e6), lam=const_field(1.0),
                       mu=as_field(mu), a=const_field(0.0), b=const_field(0.0),
                       name="warped-plane", base_kind="flat",
                       guard=lambda x, y: x ** 2 + y ** 2 > _DEFAULT_MARGIN ** 2)


# each preset's builder, called as builder(*params, chart), and its number of params
_PRESETS = {
    "euclidean": (_euclidean, 0),
    "nil3": (_nil3, 1),
    "sol3-halfplane": (_sol3_halfplane, 0),
    "sol3-disk": (_sol3_disk, 0),
    "e-minus1-tau": (_e_minus1_tau, 1),
    "warped-plane": (_warped_plane, 1),
}


def builtin_model(name: str, params: Sequence = (), chart: Optional[Rect] = None) -> MetricModel:
    """Construct a preset model.

    Presets: euclidean; nil3(tau); sol3-halfplane; sol3-disk;
    e-minus1-tau(tau); warped-plane(mu) where mu is an expression in r
    (or x, y), a number, or a callable.  A wrong number of params is a ValueError.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    build, count = _PRESETS[name]
    if len(params) != count:
        raise ValueError(f"preset {name!r} takes {count} params, got {len(params)}")
    return build(*params, chart)


# ---------------------------------------------------------------------------
# Bundle curvature and gauge changes

def tau_of_model(model: MetricModel, p) -> float:
    """Bundle curvature tau = mu/(2 lambda^2) * [(lambda b)_x - (lambda a)_y]."""
    x, y = float(p[0]), float(p[1])
    lam = float(model.lam.value(x, y))
    mu = float(model.mu.value(x, y))
    a = float(model.a.value(x, y))
    b = float(model.b.value(x, y))
    lam_x, lam_y = (float(v) for v in model.lam.partials(x, y))
    _, a_y = (float(v) for v in model.a.partials(x, y))
    b_x, _ = (float(v) for v in model.b.partials(x, y))
    curl = lam_x * b + lam * b_x - lam_y * a - lam * a_y
    return mu / (2.0 * lam ** 2) * curl


def gauge_change(model: MetricModel, d) -> MetricModel:
    """Shift the connection data by an exact form: a' = a + d_x/lambda,
    b' = b + d_y/lambda.  lambda and mu are unchanged, and so is tau."""
    d = as_field(d)
    lam = model.lam

    # The partials come from the product rule with d's second partials
    # (wide-step fourth-order differences).  This keeps the exact-form cancellation in tau_of_model at
    # ~1e-9 instead of the catastrophic nested-difference roundoff.
    def shifted(c: ScalarField, k: int) -> ScalarField:
        """c + d_k/lambda, where k = 0 shifts a by d_x and k = 1 shifts b by d_y."""
        def value(x, y):
            return c.value(x, y) + d.partials(x, y)[k] / lam.value(x, y)

        def partial(j):
            def fn(x, y):
                lam_v = lam.value(x, y)
                return (c.partials(x, y)[j] + d.second_partials(x, y)[k + j] / lam_v
                        - d.partials(x, y)[k] * lam.partials(x, y)[j] / lam_v ** 2)
            return fn

        return callable_field(value, fx=partial(0), fy=partial(1))

    return replace(model, a=shifted(model.a, 0), b=shifted(model.b, 1),
                   name=f"{model.name}+gauge")


# ---------------------------------------------------------------------------
# Polylines, mu-length, Jenkins-Serrin check

@dataclass
class Polyline:
    points: np.ndarray  # (n, 2)
    closed: bool = False

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or len(self.points) < 2:
            raise ValueError("polyline needs at least 2 chart points")
        seg = np.diff(np.vstack([self.points, self.points[:1]]) if self.closed
                      else self.points, axis=0)
        if np.any(np.hypot(seg[:, 0], seg[:, 1]) == 0.0):
            raise ValueError("consecutive polyline points must be distinct")

    def segments(self):
        pts = self.points
        if self.closed:
            pts = np.vstack([pts, pts[:1]])
        return list(zip(pts[:-1], pts[1:]))


def mu_length(model: MetricModel, line: Polyline) -> float:
    """Length of a polyline in the mu-metric mu^2 * lambda^2 (dx^2 + dy^2),
    by adaptive Gauss-Kronrod quadrature on each segment (relative
    tolerance 1e-10)."""
    # imported here, as in radial: only a quadrature pays for scipy.integrate
    from scipy import integrate

    total = 0.0
    for p0, p1 in line.segments():
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        speed = float(np.hypot(dx, dy))

        def integrand(t, p0=p0, dx=dx, dy=dy, speed=speed):
            x = p0[0] + t * dx
            y = p0[1] + t * dy
            return float(model.mu.value(x, y) * model.lam.value(x, y)) * speed

        total += integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)[0]
    return total


@dataclass
class JsPolygon:
    """Closed polygon with each edge labeled 'A', 'B' or 'N' (neither)."""

    boundary: Polyline
    labels: Sequence[str]

    def __post_init__(self):
        if not self.boundary.closed:
            raise ValueError("Jenkins-Serrin polygon must be closed")
        n_edges = len(self.boundary.points)
        if len(self.labels) != n_edges:
            raise ValueError(f"need one label per edge ({n_edges}), got {len(self.labels)}")
        bad = set(self.labels) - {"A", "B", "N"}
        if bad:
            raise ValueError(f"labels must be 'A', 'B' or 'N'; got {bad}")


@dataclass
class JsVerdict:
    alpha: float
    beta: float
    gamma: float
    alpha_ok: bool      # 2 alpha < gamma, strictly
    beta_ok: bool       # 2 beta < gamma, strictly
    passed: bool


def js_check(model: MetricModel, poly: JsPolygon) -> JsVerdict:
    """Check the strict length condition 2*alpha < gamma and 2*beta < gamma."""
    alpha = beta = gamma = 0.0
    for (p0, p1), lab in zip(poly.boundary.segments(), poly.labels):
        seg_len = mu_length(model, Polyline(np.array([p0, p1])))
        gamma += seg_len
        if lab == "A":
            alpha += seg_len
        elif lab == "B":
            beta += seg_len
    alpha_ok = 2 * alpha < gamma
    beta_ok = 2 * beta < gamma
    return JsVerdict(alpha=alpha, beta=beta, gamma=gamma,
                     alpha_ok=alpha_ok, beta_ok=beta_ok,
                     passed=alpha_ok and beta_ok)
