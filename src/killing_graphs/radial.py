"""One-dimensional radial reductions of the minimal-graph equation.

On a rotationally symmetric warped plane (flat base, radial Killing length
mu(r)) the minimal graph equation reduces to constancy of the radial flux,
giving the one-parameter slope family

    u_c'(r) = 1 / sqrt(c r^2 mu(r)^4 - mu(r)^2),     c >= 1  (+ branch).

Every finite integral of it is one vectorized adaptive Gauss-Kronrod call
with the substitution s = a + (b - a) t^2 on every interval, which absorbs
the inverse-sqrt singularity where the graph leaves the inner boundary
vertically.  The tail beyond r1 is first integrated over 32 dyadic shells
in one such call, and shell increments that have stopped decaying report
``inf``; otherwise the tail is one ``quad`` call, whose failure reports
``inf``.
The module also classifies boundedness of the profiles and evaluates the
rotational CMC profile in the hyperbolic-base unit-Killing-field space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from . import expressions as ex

_EPS = float(np.finfo(float).eps)
_TAIL_SHELLS = 32               # dyadic shells [r1 2^k, r1 2^(k+1)] of the tail test
_TAIL_DIVERGES = 1.0 - 1e-9     # the last three shell ratios at or above this: divergent


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val, err


def _interval_integrals(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of f over every [a_k, b_k] in one adaptive Gauss-Kronrod call
    over t in [0, 1], mapped by s = a + (b - a) t^2: an inverse-sqrt
    singularity at a left end becomes a smooth integrand."""
    if len(a) == 0:
        return np.zeros(0)
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
    tail is divergent, and ``sup_estimate`` ``inf``, when the slope's
    increments over the dyadic shells beyond r1 have stopped decaying.
    Otherwise the tail beyond the last sample (r1, or r0 when ``n_samples``
    is 1) is one ``quad`` call, and its failure reports ``inf``.
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

    if _tail_diverges(slope, r1):
        return RadialProfile(c, r0, radii, values, np.inf, "diverges")
    tail, tail_err = _quad(slope, radii[-1], np.inf)
    if not np.isfinite(tail) or tail_err > 1e-6 * (1.0 + abs(tail)):
        return RadialProfile(c, r0, radii, values, np.inf, "quad-failed")
    return RadialProfile(c, r0, radii, values, values[-1] + tail, "quad")


def _tail_diverges(slope: Callable, r1: float) -> bool:
    """Whether the slope's increments over the shells [r1 2^k, r1 2^(k+1)]
    have stopped decaying: the last three ratios are all >= 1 - 1e-9.  A
    domain error, a non-finite increment, or a zero one among the last four
    gives no verdict."""
    edges = r1 * 2.0 ** np.arange(_TAIL_SHELLS + 1)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            incs = _interval_integrals(slope, edges[:-1], edges[1:])
    except ex.ExprDomainError:
        return False
    ratios, _ = _tail_ratios(incs)
    return bool(np.all(np.isfinite(incs)) and np.all(ratios[-3:] >= _TAIL_DIVERGES))


# ---------------------------------------------------------------------------
# Boundedness classification

def _tail_ratios(incs: np.ndarray):
    """Ratios of consecutive window increments (NaN after a zero one), and
    whether the last three lie below 0.9: geometric decay."""
    ratios = incs[1:] / np.where(incs[:-1] == 0.0, np.nan, incs[:-1])
    tail = ratios[-3:]
    return ratios, bool(np.all(np.isfinite(tail)) and np.all(tail < 0.9))


@dataclass
class BoundednessVerdict:
    verdict: str                 # "bounded" | "unbounded" | "inconclusive"
    window_radii: np.ndarray
    increments: np.ndarray
    ratios: np.ndarray


def boundedness_classify(mu, c: float, r_max: float = 1e6) -> BoundednessVerdict:
    """Heuristic tail classification of the profile u_c.

    Windows are geometric in log r (r_0 = 2, r_{k+1} = r_k^1.5).  Window
    increments of u that keep decaying geometrically mean a convergent tail
    (bounded); non-decreasing increments mean divergence; anything else is
    inconclusive.
    """
    pts = [2.0]
    while pts[-1] ** 1.5 <= r_max:
        pts.append(pts[-1] ** 1.5)
    pts = np.asarray(pts)
    if len(pts) < 4:
        return BoundednessVerdict("inconclusive", pts, np.array([]), np.array([]))
    incs = _interval_integrals(_slope_fn(c, as_radial(mu)), pts[:-1], pts[1:])
    ratios, decays = _tail_ratios(incs)
    if decays:
        verdict = "bounded"
    elif np.all(ratios[-3:] >= 0.98):
        verdict = "unbounded"
    else:
        verdict = "inconclusive"
    return BoundednessVerdict(verdict, pts, incs, ratios)


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
