"""One-dimensional radial reductions of the minimal-graph equation.

On a rotationally symmetric warped plane (flat base, radial Killing length
mu(r)) the minimal graph equation reduces to constancy of the radial flux,
giving the one-parameter slope family

    u_c'(r) = 1 / sqrt(c r^2 mu(r)^4 - mu(r)^2),     c >= 1  (+ branch).

Every finite integral of it is one vectorized adaptive Gauss-Kronrod call
with the substitution s = a + (b - a) t^2 on every interval, which absorbs
the inverse-sqrt singularity where the graph leaves the inner boundary
vertically.  One tail classifier integrates the increments of u over the
shells [R, R^2], which double log r, in one such call (in v = log r) and
calls the tail bounded, unbounded or inconclusive; both the profile and the
boundedness classification use it.  An unbounded tail reports ``inf``;
otherwise the tail is one ``quad`` call, whose failure reports ``inf``.
``scipy.integrate`` is imported by the two functions that call it, on the
first call: it takes about a quarter second and 20 MiB, which a solve
would otherwise pay for nothing.
The module also evaluates the rotational CMC profile in the
hyperbolic-base unit-Killing-field space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expressions as ex

_EPS = float(np.finfo(float).eps)
_UNBOUNDED = 1.0 - 1e-9   # the last three shell ratios at or above this, not decreasing
_BOUNDED = 0.9            # the last shell ratio below this, after none increased
_TREND = 1e-3             # relative slack of "not decreasing" and "not increasing"
_LOG_R_MAX = 709.0        # log of the last shell end: exp stays finite


class VerticalSlopeError(ValueError):
    """Radicand <= 0: the profile is vertical (or c is invalid) there."""


def as_radial(mu) -> Callable:
    """Coerce an expression in r, a constant, or a callable to mu(r)."""
    if isinstance(mu, str):
        ast = ex.parse_expr(mu)
        return lambda r: ex.evaluate(ast, np.asarray(r, dtype=np.float64), 0.0)
    if callable(mu):
        return lambda r: np.asarray(mu(np.asarray(r, dtype=np.float64)), dtype=np.float64)
    c = float(mu)
    return lambda r: np.full(np.shape(np.asarray(r)), c) if np.ndim(r) else c


def _radicand(c: float, r, mu_fn: Callable):
    m = np.asarray(mu_fn(r), dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    return c * r ** 2 * m ** 4 - m ** 2


def radial_slope(c: float, r: float, mu) -> float:
    """du/dr of the + branch; signals a vertical slope when the radicand
    is not strictly positive."""
    mu_fn = as_radial(mu)
    rad = float(_radicand(c, float(r), mu_fn))
    if rad <= 0.0:
        raise VerticalSlopeError(f"vertical slope at r={r}: radicand {rad:.3e} <= 0")
    return 1.0 / np.sqrt(rad)


@dataclass
class RadialProfile:
    c: float
    r0: float
    radii: np.ndarray
    values: np.ndarray      # u(r_i), u(r0) = 0
    sup_estimate: float     # lim u(r), +inf when the tail integral diverges
    tail: str               # "diverges" (shells; inf), "quad" (finite) or "quad-failed" (inf)


def _quad(f, a, b):
    from scipy import integrate     # module docstring: not on the import path

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val, err


def _interval_integrals(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of f over every [a_k, b_k] in one adaptive Gauss-Kronrod call
    over t in [0, 1], mapped by s = a + (b - a) t^2: an inverse-sqrt
    singularity at a left end becomes a smooth integrand."""
    if len(a) == 0:
        return np.zeros(0)
    from scipy import integrate     # module docstring: not on the import path

    w = b - a
    val, _ = integrate.quad_vec(lambda t: 2.0 * t * w * f(a + w * t * t), 0.0, 1.0,
                                epsabs=1e-12, epsrel=1e-12, limit=400, norm="max")
    return val


def _slope_fn(c: float, mu_fn: Callable) -> Callable:
    return lambda s: 1.0 / np.sqrt(_radicand(c, s, mu_fn))


def radial_profile(c: float, mu, r0: float = 1.0, r1: float = 2.0,
                   n_samples: int = 50) -> RadialProfile:
    """Quadrature of the + branch slope from r0, sampled at n_samples radii.

    A vanishing radicand at r0 (vertical tangent), zero up to its rounding
    error, is integrable; a negative one at r0, or a nonpositive one in the
    open interior, means c is invalid and raises VerticalSlopeError.  The
    tail is divergent, and ``sup_estimate`` ``inf``, when the shells from
    r1 call it unbounded (see ``_tail_verdict``).  Otherwise the tail beyond
    the last sample (r1, or r0 when ``n_samples`` is 1) is one ``quad``
    call, and its failure reports ``inf``.
    """
    if c < 1.0:
        raise ValueError("c < 1 rejected: the slope family needs c >= 1")
    if not (r1 > r0 >= 0.0 and n_samples >= 1):
        raise ValueError(f"need r1 > r0 >= 0 and n_samples >= 1, got n_samples={n_samples}")
    mu_fn = as_radial(mu)
    try:
        m0 = float(mu_fn(r0))
    except ex.ExprDomainError:
        m0 = np.nan     # mu undefined at r0, as 1/r at 0: the interior probe decides
    lead, m2 = c * r0 ** 2 * m0 ** 4, m0 ** 2
    # the radicand at r0, below minus its rounding error
    if lead - m2 < -4.0 * _EPS * (lead + m2):
        raise VerticalSlopeError(f"radicand {lead - m2:.3e} < 0 at r0 = {r0} (invalid c)")
    radii = np.linspace(r0, r1, n_samples)
    probe = np.linspace(r0, r1, 4 * n_samples + 1)[1:]
    if np.any(_radicand(c, probe, mu_fn) <= 0.0):
        raise VerticalSlopeError("radicand nonpositive in the interior (invalid c)")
    slope = _slope_fn(c, mu_fn)
    values = np.concatenate([[0.0], np.cumsum(_interval_integrals(slope, radii[:-1], radii[1:]))])

    if _tail_verdict(slope, r1).verdict == "unbounded":
        return RadialProfile(c, r0, radii, values, np.inf, "diverges")
    tail, tail_err = _quad(slope, radii[-1], np.inf)
    if not np.isfinite(tail) or tail_err > 1e-6 * (1.0 + abs(tail)):
        return RadialProfile(c, r0, radii, values, np.inf, "quad-failed")
    return RadialProfile(c, r0, radii, values, values[-1] + tail, "quad")


# ---------------------------------------------------------------------------
# Boundedness classification

@dataclass
class BoundednessVerdict:
    verdict: str                 # "bounded" | "unbounded" | "inconclusive"
    window_radii: np.ndarray     # shell ends R_k
    increments: np.ndarray       # u(R_{k+1}) - u(R_k)
    ratios: np.ndarray           # consecutive increment ratios


def _slope_is_usable(slope: Callable, r: float) -> bool:
    try:
        return bool(0.0 < slope(r) < np.inf)
    except ex.ExprDomainError:
        return False


def _tail_verdict(slope: Callable, start: float) -> BoundednessVerdict:
    """Classify the tail of u from the increments of u over the shells
    [R_k, R_k^2], R_0 = max(start, 2), each of which doubles log r.

    The shells end at the last R_k below e^709 where the slope is finite
    and positive: further out c r^2 mu^4 overflows.  With q the last three
    increment ratios, the tail is unbounded when every q is at least
    1 - 1e-9 and q does not decrease, bounded when q does not increase and
    the last q is below 0.9 (both up to a relative 1e-3), and inconclusive
    otherwise, or with fewer than four shells.  A tail u' ~ 1/(r log^p r)
    gives the steady ratio 2^(1-p), so p = 1 diverges and p = 2 is bounded.
    """
    logs, log_r = [], np.log(max(start, 2.0))
    with np.errstate(all="ignore"):
        while log_r < _LOG_R_MAX and _slope_is_usable(slope, float(np.exp(log_r))):
            logs.append(log_r)
            log_r *= 2.0
        logs = np.asarray(logs)
        incs = _interval_integrals(lambda v: slope(np.exp(v)) * np.exp(v), logs[:-1], logs[1:])
        ratios = incs[1:] / incs[:-1]
    q, last = ratios[-3:], incs[-4:]
    verdict = "inconclusive"
    if len(incs) >= 4 and np.all((last > 0.0) & (last < np.inf)):
        if np.all(q >= _UNBOUNDED) and np.all(q[1:] >= q[:-1] * (1.0 - _TREND)):
            verdict = "unbounded"
        elif np.all(q[1:] <= q[:-1] * (1.0 + _TREND)) and q[-1] < _BOUNDED:
            verdict = "bounded"
    return BoundednessVerdict(verdict, np.exp(logs), incs, ratios)


def boundedness_classify(mu, c: float) -> BoundednessVerdict:
    """Classify the tail of the profile u_c from r = 2 as bounded, unbounded
    or inconclusive, by its increments over shells that double log r (see
    ``_tail_verdict``).  The shells run as far as floating point allows."""
    return _tail_verdict(_slope_fn(c, as_radial(mu)), 2.0)


# ---------------------------------------------------------------------------
# Rotational CMC profile over the hyperbolic base with unit Killing length

@dataclass
class PenafielSample:
    slope: float     # u'(rho) of the rotational profile
    h_value: float   # (a~^2 + b~^2)(rho) after the gauge absorbing the profile


def penafiel_h(H: float, tau: float, rho: float) -> float:
    t2 = np.tanh(rho / 2.0) ** 2
    if H == 0.5:
        # 1 - 4H^2 t^2 = sech^2(rho/2): analytic simplification stays finite
        return float((1.0 + 4.0 * tau ** 2) * np.sinh(rho / 2.0) ** 2)
    return float(4.0 * (H ** 2 + tau ** 2) * t2 / (1.0 - 4.0 * H ** 2 * t2))


def penafiel_slope(H: float, tau: float, rho: float) -> PenafielSample:
    """Slope of the rotational constant-mean-curvature profile at geodesic
    radius rho, for H in [0, 1/2]."""
    if not 0.0 <= H <= 0.5:
        raise ValueError("H must lie in [0, 1/2]")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    num = (2.0 * H * np.cosh(rho) - 2.0 * H) * np.sqrt(
        1.0 + 4.0 * tau ** 2 * np.tanh(rho / 2.0) ** 2)
    rad = np.sinh(rho) ** 2 - (2.0 * H * np.cosh(rho) - 2.0 * H) ** 2
    if rad <= 0.0:
        raise VerticalSlopeError(f"denominator radicand {rad:.3e} <= 0")
    return PenafielSample(slope=float(num / np.sqrt(rad)),
                          h_value=penafiel_h(H, tau, rho))


def penafiel_slope_disk(H: float, tau: float, r: float) -> float:
    """The same profile as a function of the euclidean disk radius r:
    du/dr = 4 H r sqrt(1 + 4 tau^2 r^2) / ((1 - r^2) sqrt(1 - 4 H^2 r^2))."""
    if not 0.0 <= H <= 0.5:
        raise ValueError("H must lie in [0, 1/2]")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    rad = 1.0 - 4.0 * H ** 2 * r ** 2
    if rad <= 0.0:
        raise VerticalSlopeError("1 - 4 H^2 r^2 <= 0")
    return float(4.0 * H * r * np.sqrt(1.0 + 4.0 * tau ** 2 * r ** 2)
                 / ((1.0 - r ** 2) * np.sqrt(rad)))
