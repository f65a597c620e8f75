import re

import numpy as np
import pytest

from killing_graphs.grids import GridDomain, ScalarGrid
from killing_graphs.models import builtin_model
from killing_graphs.growth import (L_plain, L_weighted, _cumulative_trapezoid,
                                   collin_krust_rate, e1tau_g, e1tau_growth, g_of_r,
                                   geodesic_circle, iterated_log,
                                   sol3_wedge_bound, sol3_wedge_divergence,
                                   window_verdict)
from killing_graphs.solver import solve_dirichlet


# -- circles -----------------------------------------------------------------------

def test_euclidean_circle_length():
    m = builtin_model("euclidean")
    arc = geodesic_circle(m, (0, 0), 2.0, 512)
    assert np.sum(arc.weights) == pytest.approx(4 * np.pi, abs=1e-8)


def test_hyperbolic_disk_circle_length():
    m = builtin_model("sol3-disk")
    arc = geodesic_circle(m, (0, 0), 1.0, 512)
    assert np.sum(arc.weights) == pytest.approx(2 * np.pi * np.sinh(1.0), abs=1e-8)
    assert np.allclose(np.hypot(arc.points[:, 0], arc.points[:, 1]), np.tanh(0.5))


def test_halfplane_circle_length():
    m = builtin_model("sol3-halfplane")
    arc = geodesic_circle(m, (0.0, 2.0), 1.5, 2048)
    assert np.sum(arc.weights) == pytest.approx(2 * np.pi * np.sinh(1.5), rel=1e-5)


def test_masked_semicircle():
    m = builtin_model("euclidean")
    arc = geodesic_circle(m, (0, 0), 1.0, 1024, mask=lambda x, y: y > 0)
    assert np.sum(arc.weights) == pytest.approx(np.pi, abs=1e-8)


def test_flow_traced_circle_matches_closed_form():
    m = builtin_model("sol3-disk")
    closed = geodesic_circle(m, (0, 0), 1.0, 64)
    m.base_kind = "generic"  # force the geodesic-flow path
    arc = geodesic_circle(m, (0, 0), 1.0, 64)
    re = np.hypot(arc.points[:, 0], arc.points[:, 1])
    assert np.max(np.abs(re - np.tanh(0.5))) <= 1e-10
    # both paths sample the directions 2 pi (k + 1/2)/n
    assert np.max(np.abs(arc.points - closed.points)) <= 1e-10
    assert np.sum(arc.weights) == pytest.approx(2 * np.pi * np.sinh(1.0), rel=1e-3)


def test_circle_exits_chart():
    from killing_graphs.models import Rect
    m = builtin_model("euclidean", chart=Rect(-1, 1, -1, 1))
    with pytest.raises(ValueError, match="exits the chart"):
        geodesic_circle(m, (0, 0), 2.0)


def test_flow_profile_matches_closed_form_at_disk_centre():
    m = builtin_model("sol3-disk")
    closed = g_of_r(m, (0, 0), 0.1, 2.0, n_radii=200)
    m.base_kind = "generic"  # one outward flow pass for all 200 radii
    flow = g_of_r(m, (0, 0), 0.1, 2.0, n_radii=200)
    assert np.array_equal(flow.radii, closed.radii)
    assert np.max(np.abs(flow.L / closed.L - 1.0)) <= 1e-5
    assert np.max(np.abs(flow.g[1:] / closed.g[1:] - 1.0)) <= 1e-5


@pytest.mark.parametrize("mask", [None, lambda x, y: y > 0.05])
def test_sweep_arcs_match_single_circles(mask):
    m = builtin_model("sol3-disk")
    p = (0.3, 0.1)  # off centre: traced by the geodesic flow
    prof = g_of_r(m, p, 0.1, 2.0, n_radii=12, n_arc=256, mask=mask)
    assert len(prof.arcs) >= 8
    for arc in prof.arcs:
        single = geodesic_circle(m, p, arc.radius, 256, mask=mask)
        assert len(arc.points) == len(single.points)
        assert L_plain(m, arc) == pytest.approx(L_plain(m, single), rel=1e-10)
        assert np.sum(arc.weights) == pytest.approx(np.sum(single.weights), rel=1e-10)


def test_sweep_stops_at_first_chart_exit(monkeypatch):
    from killing_graphs.fields import ScalarField
    from killing_graphs.models import Rect
    m = builtin_model("euclidean", chart=Rect(-1, 1, -1, 1))
    m.base_kind = "generic"  # straight geodesics traced by the flow
    reached = []
    partials = ScalarField.partials

    def counted(self, x, y):
        reached.append(float(np.max(np.hypot(x, y))))
        return partials(self, x, y)

    monkeypatch.setattr(ScalarField, "partials", counted)
    # radii 0.3, 0.6, ..., 1.8: the circle of radius 1.2 is the first to leave
    with pytest.raises(ValueError, match=r"radius 1\.2\d* exits the chart"):
        g_of_r(m, (0, 0), 0.3, 1.8, n_radii=6, spacing="linear")
    assert reached
    assert max(reached) <= 1.2 + 1e-12


def _disk_circle_exact(p, r, n):
    """Samples 2 pi (k + 1/2)/n of the Poincare-disk circle of radius r about
    p: the centred circle tanh(r/2) e^{i phi} moved by z -> (z + p)/(1 + conj(p) z)."""
    w = np.tanh(r / 2.0) * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    pc = complex(*p)
    return (w + pc) / (1.0 + np.conj(pc) * w)


@pytest.mark.parametrize("p", [(0.3, 0.0), (0.3, 0.1), (-0.2, 0.35)])
def test_offcentre_flow_circles_match_exact(p):
    m = builtin_model("sol3-disk")
    arcs = [geodesic_circle(m, p, r, 256) for r in (0.1, 0.7, 1.3, 2.0)]
    arcs += g_of_r(m, p, 0.1, 2.0, n_radii=40, n_arc=256).arcs
    for arc in arcs:
        z = arc.points[:, 0] + 1j * arc.points[:, 1]
        assert np.max(np.abs(z - _disk_circle_exact(p, arc.radius, 256))) <= 2e-11


def test_adaptive_flow_raises_on_nan_partials(monkeypatch):
    from killing_graphs.fields import ScalarField, callable_field, const_field
    from killing_graphs.growth import ChartExitError
    from killing_graphs.models import MetricModel, Rect
    lam = callable_field(lambda x, y: np.ones(np.broadcast(x, y).shape),
                         fx=lambda x, y: np.where(x > 0.5, np.nan, 0.0),
                         fy=lambda x, y: np.zeros(np.broadcast(x, y).shape))
    m = MetricModel(chart=Rect(-1, 1, -1, 1), lam=lam, mu=const_field(1.0),
                    a=const_field(0.0), b=const_field(0.0))
    calls = [0]
    partials = ScalarField.partials

    def counted(self, x, y):
        calls[0] += 1
        if calls[0] > 1000:  # a flow that shrinks its step forever
            raise RuntimeError("the geodesic flow does not stop")
        return partials(self, x, y)

    monkeypatch.setattr(ScalarField, "partials", counted)
    # radii 0.1 + 0.8 k/19: the circle of radius 0.5210... is the first to
    # reach x > 0.5, where the flow's right-hand side is NaN
    with pytest.raises(ChartExitError, match=r"radius 0\.5210"):
        g_of_r(m, (0, 0), 0.1, 0.9, n_radii=20, spacing="linear")


# -- L functionals -----------------------------------------------------------------

def test_L_plain_euclidean():
    m = builtin_model("euclidean")
    arc = geodesic_circle(m, (0, 0), 3.0, 256)
    assert L_plain(m, arc) == pytest.approx(6 * np.pi, abs=1e-8)


def test_L_weighted_equals_twice_plain_when_connection_zero():
    m = builtin_model("warped-plane", ("1+r",))
    arc = geodesic_circle(m, (0, 0), 2.0, 256)
    assert L_weighted(m, arc) == pytest.approx(2 * L_plain(m, arc), rel=1e-14)


def test_L_weighted_nil():
    # a^2 + b^2 = tau^2 r^2 = 1 on the centered circle of radius 2, tau = 1/2
    m = builtin_model("nil3", (0.5,))
    arc = geodesic_circle(m, (0, 0), 2.0, 2048)
    assert L_weighted(m, arc) == pytest.approx(np.sqrt(2) * 4 * np.pi, rel=1e-6)


def test_empty_arc_errors():
    m = builtin_model("euclidean")
    arc = geodesic_circle(m, (0, 0), 1.0, 64, mask=lambda x, y: x > 2)
    with pytest.raises(ValueError, match="empty arc"):
        L_plain(m, arc)


# -- g and verdicts ----------------------------------------------------------------

def test_g_log_growth_euclidean():
    m = builtin_model("euclidean")
    prof = g_of_r(m, (0, 0), 1.0, float(np.e), n_radii=400)
    assert prof.g[-1] == pytest.approx(1 / (2 * np.pi), abs=1e-6)


def test_g_trapezoid_accuracy_to_100():
    m = builtin_model("euclidean")
    prof = g_of_r(m, (0, 0), 1.0, 100.0, n_radii=2000)
    expect = np.log(prof.radii) / (2 * np.pi)
    assert np.max(np.abs(prof.g - expect)) <= 1e-6
    assert prof.verdict == "diverges"


def test_g_monotone_and_concave_for_growing_L():
    m = builtin_model("warped-plane", ("r",))
    prof = g_of_r(m, (0, 0), 1.0, 50.0, n_radii=300)
    assert np.all(np.diff(prof.g) >= 0.0)
    assert np.all(np.diff(prof.g, 2) <= 1e-15)
    assert prof.verdict == "converges"
    # closed form: g(inf) = 1/(4 pi) (1 - 1/r^2)/... integral of 1/(2 pi r^3)
    assert prof.g[-1] == pytest.approx((1 - 1 / 50.0 ** 2) / (4 * np.pi), rel=1e-3)


def test_g_converges_hyperbolic():
    m = builtin_model("sol3-disk")
    prof = g_of_r(m, (0, 0), 0.5, 12.0, n_radii=200)
    assert prof.verdict == "converges"


def test_half_plane_mask_profile():
    m = builtin_model("euclidean")
    prof = g_of_r(m, (0, 0), 1.0, 40.0, n_radii=150, mask=lambda x, y: y > 0)
    # L = pi r for semicircles: g = ln(r)/pi
    assert prof.g[-1] == pytest.approx(np.log(40.0) / np.pi, rel=1e-3)
    assert prof.verdict == "diverges"


def _scipy_trapezoid(y, x):
    from scipy.integrate import cumulative_trapezoid
    return cumulative_trapezoid(y, x, initial=0)


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
def test_cumulative_trapezoid_bitwise_equal_to_scipy(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(1e-3, 2.0, n)) - 5.0     # non-uniform steps
    y = rng.normal(size=n) * np.exp(rng.uniform(-20, 20, n))
    _assert_bitwise(_cumulative_trapezoid(y, x), _scipy_trapezoid(y, x))
    # lists, as the growth functions build them, give the same bits
    _assert_bitwise(_cumulative_trapezoid(list(y), list(x)), _scipy_trapezoid(y, x))


def test_cumulative_trapezoid_of_one_point_is_zero():
    _assert_bitwise(_cumulative_trapezoid([3.0], [1.5]), np.zeros(1))
    _assert_bitwise(_scipy_trapezoid([3.0], [1.5]), np.zeros(1))


def test_growth_call_sites_keep_the_scipy_bits():
    # g_of_r on a traced sweep, the sol3 wedge bound and the E(-1, tau) growth
    prof = g_of_r(builtin_model("sol3-disk"), (0.3, 0.0), 0.1, 2.0, n_radii=12,
                  variant="weighted", n_arc=64)
    _assert_bitwise(prof.g, _scipy_trapezoid(1.0 / prof.L, prof.radii))
    _, rhos, g = sol3_wedge_divergence(np.pi / 4, np.pi / 3, 1.0, 30.0, 400)
    gp = [sol3_wedge_bound(np.pi / 4, np.pi / 3, r).g_lower_integrand for r in rhos]
    _assert_bitwise(g, _scipy_trapezoid(np.array(gp), rhos))
    rs, g = e1tau_g(0.5, 0.5, "bounded-width", 1.0, 30.0, 400)
    gp = [e1tau_growth(0.5, 0.5, "bounded-width", float(r)).g_prime for r in rs]
    _assert_bitwise(g, _scipy_trapezoid(np.array(gp), rs))


# -- iterated-log family ---------------------------------------------------------------

def test_iterated_log_level0():
    f, g = iterated_log(0, 2.0)
    assert f == 2.0
    assert g == pytest.approx(np.log(2.0), rel=1e-14)


def test_iterated_log_level1_at_e_minus_1():
    f, g = iterated_log(1, np.e - 1.0)
    assert f == pytest.approx(np.e, rel=1e-12)
    assert g == pytest.approx(0.0, abs=1e-12)  # log(log(e)) = 0


def test_iterated_log_antiderivative_matches_quadrature():
    # d/dx g~_n = 1/f_n: check by central differences
    for n in (0, 1, 2, 3):
        for x in (5.0, 50.0, 500.0):
            h = 1e-4 * x
            gp = (iterated_log(n, x + h)[1] - iterated_log(n, x - h)[1]) / (2 * h)
            assert gp == pytest.approx(1.0 / iterated_log(n, x)[0], rel=1e-6)


def test_iterated_log_ratio_divergence():
    for n in (0, 1, 2):
        ratios = [iterated_log(n + 1, 10.0 ** k)[0] / iterated_log(n, 10.0 ** k)[0]
                  for k in range(2, 7)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_iterated_log_rejects_bad_input():
    with pytest.raises(ValueError):
        iterated_log(2, -1.0)
    with pytest.raises(ValueError):
        iterated_log(9, 10.0)


# -- wedge bound ------------------------------------------------------------------------

def test_wedge_T_right_angle():
    wb = sol3_wedge_bound(np.pi / 2, np.pi / 2, 1.0)
    t2 = np.tanh(1.0) ** 2
    assert wb.T == pytest.approx((1 - t2) / (1 + t2), rel=1e-12)
    assert wb.length_bound == pytest.approx(np.pi * np.sinh(1.0), rel=1e-12)


def test_wedge_T_degenerates_as_angle_closes():
    wb = sol3_wedge_bound(1e-6, 1e-6, 1.0)
    assert wb.T == pytest.approx(np.exp(2.0), rel=1e-3)  # (1+t)/(1-t) = e^{2 rho}


def test_wedge_divergence_quarter_angles():
    verdict, _, g = sol3_wedge_divergence(np.pi / 4, np.pi / 4, 1.0, 30.0)
    assert verdict == "diverges"
    assert g[-1] > 1e6  # explodes like e^{3 rho}


# -- rotational-space growth --------------------------------------------------------------

def test_e1tau_bounded_width_half():
    for tau, target in ((0.0, 0.5), (1.0, np.sqrt(5.0) / 2.0)):
        rs, g = e1tau_g(0.5, tau, "bounded-width", 1.0, 30.0, 4000)
        assert g[-1] / np.exp(15.0) == pytest.approx(target, rel=0.02)


def test_e1tau_linear_coefficient_H0():
    s = e1tau_growth(0.0, 0.0, "bounded-width", 10.0)
    assert s.asymptote_kind == "linear"
    assert s.asymptote_coeff == 0.5
    rs, g = e1tau_g(0.0, 0.0, "bounded-width", 1.0, 40.0, 2000)
    assert (g[-1] - g[len(g) // 2]) / (rs[-1] - rs[len(g) // 2]) == pytest.approx(0.5, rel=1e-3)


def test_e1tau_exterior_tails_converge():
    for H in (0.0, 0.25, 0.5):
        rs, g = e1tau_g(H, 0.5, "exterior", 1.0, 40.0, 4000)
        i30 = int(np.searchsorted(rs, 30.0))
        assert g[-1] - g[i30] < 1e-3


def test_e1tau_rejects_large_H():
    with pytest.raises(ValueError):
        e1tau_growth(0.7, 0.0, "exterior", 1.0)


# -- Collin-Krust fit -----------------------------------------------------------------------

def catenoid(c):
    s = np.sqrt(c)
    return lambda x, y: (np.arccosh(np.maximum(s * np.hypot(x, y), 1.0))
                         - np.arccosh(s)) / s


def test_ck_zero_for_identical():
    m = builtin_model("euclidean")
    prof = g_of_r(m, (0, 0), 1.0, 10.0, n_radii=50)
    fit = collin_krust_rate(catenoid(1.0), catenoid(1.0), prof)
    assert np.all(fit.M == 0.0)
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_ck_catenoid_pair_positive_slope():
    m = builtin_model("euclidean")
    prof = g_of_r(m, (0, 0), 1.0, 100.0, n_radii=200)
    fit = collin_krust_rate(catenoid(1.0), catenoid(4.0), prof)
    assert fit.positive
    # asymptotic slope is pi (M ~ ln r / 2 and g = ln r / 2 pi)
    assert fit.slope == pytest.approx(np.pi, rel=0.2)


def test_ck_skips_radii_whose_arcs_leave_both_grids():
    # a circle of radius above ~2.83 misses [-2, 2]^2: 13 of the 20 radii stay
    dom = GridDomain.rectangle(-2, 2, -2, 2, 1 / 8)
    u, v = (ScalarGrid.from_function(dom, catenoid(c)) for c in (1.0, 4.0))
    prof = g_of_r(builtin_model("euclidean"), (0, 0), 0.5, 4.0, n_radii=20, spacing="linear")
    fit = collin_krust_rate(u, v, prof)
    assert len(fit.radii) == 13
    assert np.array_equal(fit.radii, prof.radii[:13])


def test_ck_M_nondecreasing_for_solution_pair():
    # discrete max-principle corollary on an actual solved pair
    m = builtin_model("nil3", (0.5,))
    phi = lambda x, y: 0.2 * np.sin(2 * x) * np.cos(y)
    dom_u = GridDomain.rectangle(-2, 2, -2, 2, 1 / 8, boundary=phi)
    dom_v = GridDomain.rectangle(-2, 2, -2, 2, 1 / 8,
                                 boundary=lambda x, y: phi(x, y) + 0.5)
    ru = solve_dirichlet(m, dom_u)
    rv = solve_dirichlet(m, dom_v)
    prof = g_of_r(m, (0, 0), 0.4, 1.9, n_radii=30)
    fit = collin_krust_rate(ru, rv, prof)
    assert np.all(np.diff(fit.M) >= -1e-9)


def test_ck_bounded_pair_consistent():
    # mu(r) = r: g converges and the pair (u_1, u_4) stays bounded -- no
    # contradiction with the growth theorem
    m = builtin_model("warped-plane", ("r",))
    prof = g_of_r(m, (0, 0), 1.0, 60.0, n_radii=200)

    def u_of(c):
        return lambda x, y: 0.5 * (np.arctan(np.sqrt(np.maximum(
            c * np.hypot(x, y) ** 4 - 1.0, 0.0))) - np.arctan(np.sqrt(c - 1.0)))

    fit = collin_krust_rate(u_of(1.0), u_of(4.0), prof)
    assert prof.verdict == "converges"
    assert np.max(fit.M) <= np.pi / 4


# -- window verdict unit checks ----------------------------------------------------------

def test_window_verdict_geometric_decay():
    r = np.linspace(1, 64, 400)
    g = 1.0 - 1.0 / r
    verdict, _, _ = window_verdict(r, g)
    assert verdict == "converges"


def test_window_verdict_linear_growth():
    r = np.linspace(1, 64, 400)
    verdict, _, _ = window_verdict(r, 0.1 * r)
    assert verdict == "diverges"


def test_window_verdict_short_range_inconclusive():
    r = np.linspace(1, 3, 50)
    verdict, _, _ = window_verdict(r, np.log(r))
    assert verdict == "inconclusive"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, lo, hi", [(0, 1.0, 30.0), (1, 1.0, 30.0), (40, 5.0, 1.0),
                                       (40, 1.0, 1.0)], ids=["0", "1", "decreasing", "empty"])
def test_fewer_than_two_samples_are_refused(n, lo, hi):
    # n = 0 died with an IndexError in window_verdict; e1tau_g gave g = 0;
    # over [5, 1] sol3_wedge_divergence said "inconclusive" and e1tau_g g < 0
    wedge, e1tau = ((f"need n >= 2, got {n}",) * 2 if n < 2 else
                    (f"need rho_max > rho0, got rho0 = {lo}, rho_max = {hi}",
                     f"need r_max > r0, got r0 = {lo}, r_max = {hi}"))
    with pytest.raises(ValueError, match=re.escape(wedge)):
        sol3_wedge_divergence(np.pi / 4, np.pi / 4, lo, hi, n)
    with pytest.raises(ValueError, match=re.escape(e1tau)):
        e1tau_g(0.5, 0.0, "bounded-width", lo, hi, n)
