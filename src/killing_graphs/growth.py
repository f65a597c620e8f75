"""Growth-rate functionals along geodesic circles.

For a base point p, the expansion rate L(r) integrates mu^2 (or its
area-element-weighted variant 2 mu^2 / sqrt(1 + mu^2 (a^2 + b^2))) over the
arc of the geodesic circle of radius r that meets the domain, and the
growth rate g(r) accumulates 1/L.  A divergent g forces any two graphs with
equal boundary data and equal prescribed curvature to separate at least at
the rate of g; the module also carries the iterated-log comparison family
and the closed-form wedge and rotational-space estimates.

Circles come from closed forms on the flat and hyperbolic bases.  On other
bases they are traced by the geodesic flow from p, in Dormand-Prince 5(4)
steps sized by their local error estimate, and a radius sweep (``g_of_r``)
traces it once outward, with steps that land on every radius.

Every cumulative integral here (g of ``g_of_r``, the wedge bound's and the
E(-1, tau) growth's g) is one trapezoid helper, ``_cumulative_trapezoid``.
It does scipy's arithmetic in numpy, so the bits are scipy's, and the module
does not import ``scipy.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from .grids import ScalarGrid
from .models import MetricModel
from .radial import penafiel_h
from .solver import SolveReport


# ---------------------------------------------------------------------------
# Geodesic circles

class ChartExitError(ValueError):
    """A geodesic circle left the model's chart."""


@dataclass
class GeodesicArc:
    points: np.ndarray    # (n, 2) chart coordinates
    weights: np.ndarray   # base-metric arc length per sample
    radius: float
    center: tuple
    # on a traced circle, the accepted flow steps from p out to this radius
    # and the sum of their local error estimates (max norm); None on closed forms
    flow_steps: Optional[int] = None
    flow_error_estimate: Optional[float] = None


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Row i
# gives stage i+1 from stages 0..i; the last row is the fifth-order solution,
# so its stage is the first stage of the next step.  _DP_E is b - b_hat.
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_FLOW_TOL = 1e-11   # accepted local error per step, relative to 1 + |state|


def _circles(model: MetricModel, p, radii, n_samples: int,
             mask: Optional[Callable]) -> Iterator[GeodesicArc]:
    """Yield the sampled geodesic circle about p for each of the increasing
    ``radii``, lazily: a circle that exits the chart raises before any later
    radius is traced.

    Without a closed form, geodesics of lambda^2(dx^2+dy^2) are traced from p
    once outward by the Dormand-Prince 5(4) flow.  A step is accepted when
    err = max |e| / (``_FLOW_TOL`` (1 + |y|)) <= 1, with e its local error
    estimate and y the state, and the next step is scaled by 0.9 err^(-1/5)
    within [0.2, 5].  No step crosses a radius: one cut short to land on it keeps
    the longer step for the next gap.  A non-finite error estimate, or a
    step below 1e-14 r, raises ``ChartExitError``.
    """
    if float(radii[0]) <= 0:
        raise ValueError("radius must be positive")
    x0, y0 = float(p[0]), float(p[1])
    phis = 2 * np.pi * (np.arange(n_samples) + 0.5) / n_samples
    dphi = 2 * np.pi / n_samples
    kind = model.base_kind
    if kind == "hyperbolic-disk" and np.hypot(x0, y0) >= 1e-12:
        kind = "generic"  # the closed form is centred at the origin
    traced = kind not in ("flat", "hyperbolic-disk", "hyperbolic-halfplane")
    if traced:
        lam = model.lam
        lam0 = float(lam.value(x0, y0))
        state = np.array([np.full(n_samples, x0), np.full(n_samples, y0),
                          np.cos(phis) / lam0, np.sin(phis) / lam0])
        t, h = 0.0, float(radii[0])
        n_steps, err_sum = 0, 0.0
        K = np.empty((7, 4, n_samples))   # the stages of one step
        K_flat = K.reshape(7, -1)

        def rhs(state, out):
            x, y, vx, vy = state
            lv = lam.value(x, y)
            lx, ly = lam.partials(x, y)
            px, py = lx / lv, ly / lv
            out[0], out[1] = vx, vy
            out[2] = -(px * (vx * vx - vy * vy) + 2.0 * py * vx * vy)
            out[3] = -(py * (vy * vy - vx * vx) + 2.0 * px * vx * vy)

        rhs(state, K[0])

    for r in radii:
        r = float(r)
        if kind == "flat":
            pts = np.column_stack([x0 + r * np.cos(phis), y0 + r * np.sin(phis)])
            w = np.full(n_samples, r * dphi)
        elif kind == "hyperbolic-disk":
            re = np.tanh(r / 2.0)
            pts = np.column_stack([re * np.cos(phis), re * np.sin(phis)])
            w = np.full(n_samples, np.sinh(r) * dphi)
        elif kind == "hyperbolic-halfplane":
            cy = y0 * np.cosh(r)
            Re = y0 * np.sinh(r)
            ys = cy + Re * np.sin(phis)
            pts = np.column_stack([x0 + Re * np.cos(phis), ys])
            w = Re * dphi / ys
        else:
            while t < r:
                cut = h >= r - t
                dt = r - t if cut else h
                for i, a in enumerate(_DP_A, 1):
                    stage = state + ((dt * a[:i]) @ K_flat[:i]).reshape(4, -1)
                    rhs(stage, K[i])
                e = np.abs((dt * _DP_E) @ K_flat)
                err = float(np.max(e / (_FLOW_TOL * (1.0 + np.abs(state.ravel())))))
                if not np.isfinite(err):
                    raise ChartExitError(f"geodesic flow to radius {r} gave a "
                                         "non-finite error estimate")
                fac = 5.0 if err <= (0.9 / 5.0) ** 5 else max(0.2, 0.9 * err ** -0.2)
                if err <= 1.0:
                    t = r if cut else t + dt
                    state = stage
                    K[0] = K[6]
                    n_steps += 1
                    err_sum += float(np.max(e))
                    h = max(h, dt * fac) if cut else dt * fac
                else:
                    h = dt * fac
                    if h < 1e-14 * r:
                        raise ChartExitError(f"geodesic flow to radius {r} stalled "
                                             f"at step {h:.3g}")
            pts = np.column_stack([state[0], state[1]])
            lamv = lam.value(pts[:, 0], pts[:, 1])
            nxt = np.roll(pts, -1, axis=0)
            prv = np.roll(pts, 1, axis=0)
            chord = 0.5 * (np.hypot(*(nxt - pts).T) + np.hypot(*(pts - prv).T))
            w = lamv * chord

        ok = model.valid(pts[:, 0], pts[:, 1])
        if not np.all(ok):
            raise ChartExitError(f"geodesic circle of radius {r} exits the chart")
        if mask is not None:
            keep = np.asarray(mask(pts[:, 0], pts[:, 1]), dtype=bool)
            pts, w = pts[keep], w[keep]
        yield GeodesicArc(points=pts, weights=w, radius=r, center=(x0, y0),
                          flow_steps=n_steps if traced else None,
                          flow_error_estimate=err_sum if traced else None)


def geodesic_circle(model: MetricModel, p, r: float, n_samples: int = 512,
                    mask: Optional[Callable] = None) -> GeodesicArc:
    """Sampled geodesic circle of base-metric radius r about p.

    Closed forms cover the flat and hyperbolic presets; other metrics are
    traced by the geodesic flow from p, in Dormand-Prince 5(4) steps whose
    local error estimate is at most 1e-11 (1 + |state|).  A radius sweep
    (``g_of_r``) traces the flow once outward, with steps that land on every
    radius.  Both paths sample the directions 2 pi (k + 1/2)/n.  Samples
    outside ``mask`` are dropped (the intersection with the domain).
    """
    return next(_circles(model, p, [r], n_samples, mask))


# ---------------------------------------------------------------------------
# Expansion rates

def L_plain(model: MetricModel, arc: GeodesicArc) -> float:
    """Integral of mu^2 over the arc against base arc length."""
    if len(arc.points) == 0:
        raise ValueError("empty arc: the domain does not meet the circle")
    mu = model.mu.value(arc.points[:, 0], arc.points[:, 1])
    return float(np.sum(mu ** 2 * arc.weights))


def L_weighted(model: MetricModel, arc: GeodesicArc) -> float:
    """Integral of 2 mu^2 / sqrt(1 + mu^2 (a^2 + b^2)) over the arc."""
    if len(arc.points) == 0:
        raise ValueError("empty arc: the domain does not meet the circle")
    x, y = arc.points[:, 0], arc.points[:, 1]
    mu = model.mu.value(x, y)
    a = model.a.value(x, y)
    b = model.b.value(x, y)
    w0 = np.sqrt(1.0 + mu ** 2 * (a ** 2 + b ** 2))
    return float(np.sum(2.0 * mu ** 2 / w0 * arc.weights))


# ---------------------------------------------------------------------------
# Divergence verdicts on dyadic windows

_EPS0 = 1e-3   # a dyadic-window increment of g this large counts as growth


def window_verdict(radii: np.ndarray, g: np.ndarray):
    """Classify the tail of g by dyadic-window increments.

    The last three increment ratios all below 0.9 mean geometric decay
    (converges); otherwise increments uniformly >= ``_EPS0`` mean
    divergence; anything else is inconclusive.  Finite data cannot decide a
    limit, so the inconclusive fallback is genuine.
    """
    r0, r1 = float(radii[0]), float(radii[-1])
    ends = [r0]
    while ends[-1] * 2.0 <= r1 * (1 + 1e-12):
        ends.append(ends[-1] * 2.0)
    if len(ends) < 4:
        return "inconclusive", np.array([]), np.array([])
    gv = np.interp(ends, radii, g)
    incs = np.diff(gv)
    ratios = incs[1:] / np.where(incs[:-1] == 0.0, np.nan, incs[:-1])  # NaN after a zero one
    if np.all(np.isfinite(ratios[-3:])) and np.all(ratios[-3:] < 0.9):
        return "converges", incs, ratios
    if np.all(incs >= _EPS0):
        return "diverges", incs, ratios
    return "inconclusive", incs, ratios


# ---------------------------------------------------------------------------
# Growth profile

@dataclass
class GrowthProfile:
    p: tuple
    radii: np.ndarray
    L: np.ndarray
    g: np.ndarray
    variant: str
    verdict: str
    arcs: List[GeodesicArc] = field(repr=False, default_factory=list)


_MIN_ARC_SAMPLES = 8   # a masked arc with fewer samples is not integrated


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The trapezoid integrals of y over [x[0], x[k]], starting at 0: the
    arithmetic of ``scipy.integrate.cumulative_trapezoid(y, x, initial=0)``,
    so the bits are the same, without importing ``scipy.integrate``."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def g_of_r(model: MetricModel, p, r0: float, r_max: float, n_radii: int = 200,
           variant: str = "plain", mask: Optional[Callable] = None,
           n_arc: int = 512, spacing: str = "log") -> GrowthProfile:
    """Sample L(r) on geodesic circles and accumulate g(r) by trapezoid.

    The circles of all radii come from one outward pass (see
    ``geodesic_circle``), and a circle that exits the chart raises before any
    later radius is traced.  Radii are log-spaced by default (1/L typically
    decays like a power, so this equidistributes the trapezoid error); pass
    spacing="linear" for a uniform grid.  The reported verdict classifies
    the dyadic-window increments of g.  When a mask is supplied, the first
    radius whose arc keeps at least ``_MIN_ARC_SAMPLES`` samples becomes the
    effective r0.  The last arc carries the whole sweep's flow steps and
    error estimate.
    """
    if not r_max > r0 > 0:
        raise ValueError("need r_max > r0 > 0")
    if n_radii < 4:
        raise ValueError(f"need n_radii >= 4, got {n_radii}")
    L_fn = L_plain if variant == "plain" else L_weighted
    if variant not in ("plain", "weighted"):
        raise ValueError("variant must be 'plain' or 'weighted'")
    if spacing == "log":
        radii = np.geomspace(r0, r_max, n_radii)
    elif spacing == "linear":
        radii = np.linspace(r0, r_max, n_radii)
    else:
        raise ValueError("spacing must be 'log' or 'linear'")
    arcs, Ls, used = [], [], []
    for arc in _circles(model, p, radii, n_arc, mask):
        if len(arc.points) < _MIN_ARC_SAMPLES:
            if used:
                raise ValueError(f"circle r={arc.radius} lost the domain after r0")
            continue
        arcs.append(arc)
        Ls.append(L_fn(model, arc))
        used.append(arc.radius)
    if len(used) < 4:
        raise ValueError("fewer than 4 usable circles: enlarge [r0, r_max]")
    used = np.asarray(used)
    Ls = np.asarray(Ls)
    invL = 1.0 / Ls
    g = _cumulative_trapezoid(invL, used)
    verdict = window_verdict(used, g)[0]
    return GrowthProfile(p=(float(p[0]), float(p[1])), radii=used, L=Ls, g=g,
                         variant=variant, verdict=verdict, arcs=arcs)


# ---------------------------------------------------------------------------
# Iterated-log family

_MAX_LEVEL = 4  # the level-5 translation term e^e^e^e overflows float64


def _translation(n: int) -> float:
    x_t = 0.0
    for _ in range(n):
        x_t = np.exp(x_t)
    return float(x_t)


def iterated_log(n: int, x: float):
    """(f_n(x), g~_n(x)) of the slowly-diverging comparison family.

    f_n(x) = prod_{i=0..n} a_i(x + T_n) with a_0 = id, a_i = log a_{i-1},
    and T_n the tower translation (T_0 = 0, T_i = e^{T_{i-1}}).  g~_n is the
    antiderivative of 1/f_n: the (n+1)-fold iterated log with the same
    translation.  Both diverge as x -> infinity, f_{n+1}/f_n -> infinity.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > _MAX_LEVEL:
        raise ValueError(f"levels above {_MAX_LEVEL} overflow the translation tower")
    x = float(x)
    if x <= 0.0:
        raise ValueError("x must be positive")
    y = x + _translation(n)
    a = y
    f = a
    for _ in range(n):
        a = np.log(a)
        assert a > 0.0, "iterated log left its domain; translation broken"
        f *= a
    g_tilde = float(np.log(a))
    return float(f), g_tilde


# ---------------------------------------------------------------------------
# Closed-form wedge estimate over the hyperbolic disk with
# mu = (1 - x^2 - y^2)/((x-1)^2 + y^2)

@dataclass
class WedgeBound:
    T: float                    # sup of mu over the circle arc in the wedge
    length_bound: float         # [2 pi - (theta1 + theta2)] sinh(rho)
    g_lower_integrand: float    # 1 / (T^2 * length_bound)


def sol3_wedge_bound(theta1: float, theta2: float, rho: float) -> WedgeBound:
    if not (0 < theta1 < np.pi and 0 < theta2 < np.pi):
        raise ValueError("wedge angles must lie in (0, pi)")
    if rho <= 0:
        raise ValueError("rho must be positive")
    t = np.tanh(rho)
    theta = min(theta1, theta2)
    # 1 - tanh^2 written as sech^2 so T stays positive past rho ~ 19
    T = (1.0 / np.cosh(rho)) ** 2 / (1.0 + t ** 2 - 2.0 * t * np.cos(theta))
    length = (2.0 * np.pi - (theta1 + theta2)) * np.sinh(rho)
    return WedgeBound(T=float(T), length_bound=float(length),
                      g_lower_integrand=float(1.0 / (T ** 2 * length)))


def sol3_wedge_divergence(theta1: float, theta2: float, rho0: float = 1.0,
                          rho_max: float = 30.0, n: int = 4000):
    """Integrate the g' lower bound over [rho0, rho_max] and classify."""
    if not rho_max > rho0:
        raise ValueError(f"need rho_max > rho0, got rho0 = {rho0}, rho_max = {rho_max}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rhos = np.linspace(rho0, rho_max, n)
    gp = np.array([sol3_wedge_bound(theta1, theta2, r).g_lower_integrand for r in rhos])
    g = _cumulative_trapezoid(gp, rhos)
    verdict, incs, ratios = window_verdict(rhos, g)
    return verdict, rhos, g


# ---------------------------------------------------------------------------
# Rotational-space growth samples (hyperbolic base, unit Killing length)

@dataclass
class E1TauSample:
    g_prime: float
    h_value: float
    asymptote_coeff: float
    asymptote_kind: str


def e1tau_growth(H: float, tau: float, domain_kind: str, r: float) -> E1TauSample:
    """g'(r) = sqrt(1 + h(r)) / (2 Length(Lambda(r))) for the vertical
    distance to the rotational CMC graph.

    bounded-width normalizes Length to 1; exterior uses 2 pi sinh(r).
    The asymptote coefficient is the closed-form leading coefficient of g
    (bounded-width) or of the decaying g' (exterior).
    """
    if not 0.0 <= H <= 0.5:
        raise ValueError("H > 1/2 rejected")
    if domain_kind not in ("bounded-width", "exterior"):
        raise ValueError("domain_kind must be 'bounded-width' or 'exterior'")
    h = penafiel_h(H, tau, r)
    length = 1.0 if domain_kind == "bounded-width" else 2.0 * np.pi * np.sinh(r)
    gp = np.sqrt(1.0 + h) / (2.0 * length)
    if domain_kind == "bounded-width":
        if H == 0.5:
            coeff, kind = np.sqrt(1.0 + 4.0 * tau ** 2) / 2.0, "exp-half"
        else:
            coeff, kind = 0.5 + np.sqrt((H ** 2 + tau ** 2) / (1.0 - 4.0 * H ** 2)), "linear"
    else:
        if H == 0.5:
            coeff, kind = np.sqrt(1.0 + 4.0 * tau ** 2) / (4.0 * np.pi), "decay-exp-half"
        else:
            coeff, kind = np.sqrt((1.0 + 4.0 * tau ** 2) / (1.0 - 4.0 * H ** 2)) / (2.0 * np.pi), "decay-exp"
    return E1TauSample(g_prime=float(gp), h_value=float(h),
                       asymptote_coeff=float(coeff), asymptote_kind=kind)


def e1tau_g(H: float, tau: float, domain_kind: str, r0: float, r_max: float,
            n: int = 4000):
    """Cumulative g over [r0, r_max] by trapezoid on a dense grid."""
    if not r_max > r0:
        raise ValueError(f"need r_max > r0, got r0 = {r0}, r_max = {r_max}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rs = np.linspace(r0, r_max, n)
    gp = np.array([e1tau_growth(H, tau, domain_kind, float(r)).g_prime for r in rs])
    g = _cumulative_trapezoid(gp, rs)
    return rs, g


# ---------------------------------------------------------------------------
# Collin-Krust rate fit

@dataclass
class CollinKrustFit:
    radii: np.ndarray
    M: np.ndarray
    g: np.ndarray
    slope: float
    intercept: float
    positive: bool


def _as_point_eval(u) -> Callable:
    if isinstance(u, SolveReport):
        u = u.u
    if isinstance(u, ScalarGrid):
        return u.sample
    if callable(u):
        return lambda x, y: np.asarray(u(x, y), dtype=np.float64)
    raise TypeError("expected a SolveReport, ScalarGrid or callable")


def collin_krust_rate(u, v, profile: GrowthProfile) -> CollinKrustFit:
    """Per-radius sup of |u - v| over the profile's arcs and the least-squares
    slope of M against g.  Radii whose arcs miss both fields are skipped."""
    ue, ve = _as_point_eval(u), _as_point_eval(v)
    M, g, radii = [], [], []
    for arc, gval, r in zip(profile.arcs, profile.g, profile.radii):
        du = np.abs(ue(arc.points[:, 0], arc.points[:, 1])
                    - ve(arc.points[:, 0], arc.points[:, 1]))
        du = du[np.isfinite(du)]
        if len(du) == 0:
            continue
        M.append(float(np.max(du)))
        g.append(float(gval))
        radii.append(float(r))
    if len(M) < 2:
        raise ValueError("fewer than 2 usable radii for the rate fit")
    M = np.asarray(M)
    g = np.asarray(g)
    A = np.vstack([g, np.ones_like(g)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, M, rcond=None)
    return CollinKrustFit(radii=np.asarray(radii), M=M, g=g,
                          slope=float(slope), intercept=float(intercept),
                          positive=bool(slope > 0.0))
