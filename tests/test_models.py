import numpy as np
import pytest

from killing_graphs.fields import _fd_partials, expr_field
from killing_graphs.models import (JsPolygon, Polyline, Rect, builtin_model,
                                   gauge_change, js_check, mu_length,
                                   tau_of_model)


def unit_square(closed=True):
    return Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                    closed=closed)


# -- presets ---------------------------------------------------------------------

def test_nil3_fields():
    m = builtin_model("nil3", (0.5,))
    assert float(m.lam.value(1, 1)) == 1.0
    assert float(m.mu.value(1, 1)) == 1.0
    assert float(m.a.value(1, 1)) == -0.5
    assert float(m.b.value(1, 1)) == 0.5


def test_euclidean_fields():
    m = builtin_model("euclidean")
    for p in [(-3, 2), (0, 0), (5, 5)]:
        assert float(m.lam.value(*p)) == 1.0
        assert float(m.mu.value(*p)) == 1.0
        assert float(m.a.value(*p)) == 0.0
        assert float(m.b.value(*p)) == 0.0


def test_sol3_halfplane_fields():
    m = builtin_model("sol3-halfplane")
    assert float(m.lam.value(0, 2)) == 0.5
    assert float(m.mu.value(0, 2)) == 2.0


def test_sol3_disk_fields():
    m = builtin_model("sol3-disk")
    x, y = 0.2, -0.3
    lam = 2 / (1 - (x ** 2 + y ** 2))
    mu = (1 - x ** 2 - y ** 2) / ((x - 1) ** 2 + y ** 2)
    assert float(m.lam.value(x, y)) == pytest.approx(lam, rel=1e-14)
    assert float(m.mu.value(x, y)) == pytest.approx(mu, rel=1e-14)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        builtin_model("klein-bottle")


@pytest.mark.parametrize("name, params, count", [("nil3", (), 1), ("nil3", (0.5, 9), 1),
                                                 ("euclidean", (0.5,), 0)])
def test_wrong_params_count_rejected(name, params, count):
    # extra params were dropped and a missing one raised IndexError
    with pytest.raises(ValueError, match=f"preset '{name}' takes {count} params"):
        builtin_model(name, params)


def test_invalid_metric_rejected():
    with pytest.raises(ValueError, match="mu must be positive"):
        builtin_model("warped-plane", ("x",), chart=Rect(-1, 1, -1, 1))


# -- bundle curvature --------------------------------------------------------------

def test_tau_nil3_constant():
    m = builtin_model("nil3", (0.5,))
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-5, 5, 2)
        assert tau_of_model(m, p) == pytest.approx(0.5, abs=1e-6)


def test_tau_zero_when_connection_vanishes():
    for name in ("euclidean", "sol3-halfplane", "sol3-disk"):
        m = builtin_model(name)
        p = (0.3, 2.0) if name == "sol3-halfplane" else (0.3, 0.1)
        assert tau_of_model(m, p) == 0.0


def test_tau_e_minus1():
    m = builtin_model("e-minus1-tau", (1.0,))
    assert tau_of_model(m, (0.5, 0.0)) == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(-0.6, 0.6, 2)
        assert tau_of_model(m, p) == pytest.approx(1.0, abs=1e-6)


# -- gauge changes ------------------------------------------------------------------

def test_gauge_change_euclidean_xy():
    m = gauge_change(builtin_model("euclidean"), expr_field("x*y"))
    # a' = a + d_x / lambda = y, b' = x
    assert float(m.a.value(2.0, 3.0)) == pytest.approx(3.0, abs=1e-10)
    assert float(m.b.value(2.0, 3.0)) == pytest.approx(2.0, abs=1e-10)


def test_gauge_change_identity():
    m0 = builtin_model("nil3", (0.7,))
    m1 = gauge_change(m0, 0.0)
    assert float(m1.a.value(1.2, -0.4)) == pytest.approx(float(m0.a.value(1.2, -0.4)))
    assert float(m1.b.value(1.2, -0.4)) == pytest.approx(float(m0.b.value(1.2, -0.4)))


def test_gauge_kills_nil_connection_but_not_tau():
    tau = 0.6
    m = gauge_change(builtin_model("nil3", (tau,)), expr_field(f"-{tau}*x*y"))
    # a' = -tau y - tau y = -2 tau y, b' = tau x - tau x = 0
    assert float(m.a.value(1.0, 1.0)) == pytest.approx(-2 * tau, abs=1e-9)
    assert float(m.b.value(1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)
    assert tau_of_model(m, (0.4, -0.8)) == pytest.approx(tau, abs=1e-6)


def test_gauge_invariance_of_tau_random():
    rng = np.random.default_rng(7)
    m0 = builtin_model("e-minus1-tau", (0.8,))
    m1 = gauge_change(m0, expr_field("sin(x)*cos(y)"))
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, 2)
        assert tau_of_model(m1, p) == pytest.approx(0.8, abs=1e-6)


def test_gauge_change_partials_match_differences():
    # lambda is not constant here, so every product-rule term counts; tau
    # reads only a_y and b_x, so a_x and b_y are checked nowhere else
    m = gauge_change(builtin_model("e-minus1-tau", (0.8,)), expr_field("sin(x)*cos(y)"))
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-0.6, 0.6, (2, 50))
    for comp in (m.a, m.b):
        fx, fy = _fd_partials(comp.fn, x, y, h=3e-3)
        np.testing.assert_allclose(comp.fx(x, y), fx, rtol=0, atol=1e-7)
        np.testing.assert_allclose(comp.fy(x, y), fy, rtol=0, atol=1e-7)


# -- mu-length -------------------------------------------------------------------------

def test_mu_length_euclidean_segment():
    m = builtin_model("euclidean")
    seg = Polyline(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert mu_length(m, seg) == pytest.approx(1.0, abs=1e-12)


def test_mu_length_sol3_vertical():
    # mu * lambda = 1 on the half-plane, any vertical segment has mu-length = run
    m = builtin_model("sol3-halfplane")
    seg = Polyline(np.array([[0.0, 1.0], [0.0, 2.0]]))
    assert mu_length(m, seg) == pytest.approx(1.0, abs=1e-10)


def test_mu_length_nil_square():
    m = builtin_model("nil3", (0.3,))
    assert mu_length(m, unit_square()) == pytest.approx(4.0, abs=1e-10)


def test_mu_length_additive_and_reversal_invariant():
    m = builtin_model("sol3-halfplane")
    pts = np.array([[0.0, 1.0], [0.5, 1.5], [1.0, 3.0]])
    whole = mu_length(m, Polyline(pts))
    parts = (mu_length(m, Polyline(pts[:2])) + mu_length(m, Polyline(pts[1:])))
    rev = mu_length(m, Polyline(pts[::-1]))
    assert whole == pytest.approx(parts, rel=1e-10)
    assert whole == pytest.approx(rev, rel=1e-10)


def test_mu_length_quadrature_vs_reference():
    # curved integrand: mu-length of a horizontal segment in the half-plane
    # at height y0 is (x1-x0) * 1 (mu*lambda = 1);  use the disk model instead
    m = builtin_model("sol3-disk")
    seg = Polyline(np.array([[-0.5, 0.0], [0.5, 0.0]]))
    # reference by dense Simpson on mu*lambda along the segment
    xs = np.linspace(-0.5, 0.5, 20001)
    f = m.mu.value(xs, 0 * xs) * m.lam.value(xs, 0 * xs)
    ref = float(np.trapezoid(f, xs))
    assert mu_length(m, seg) == pytest.approx(ref, rel=1e-7)


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0]]))


# -- Jenkins-Serrin checker ------------------------------------------------------------

def test_js_one_side_passes():
    m = builtin_model("euclidean")
    v = js_check(m, JsPolygon(unit_square(), ["A", "N", "N", "N"]))
    assert v.alpha == pytest.approx(1.0, abs=1e-10)
    assert v.gamma == pytest.approx(4.0, abs=1e-10)
    assert v.passed


def test_js_two_opposite_sides_fail():
    m = builtin_model("euclidean")
    v = js_check(m, JsPolygon(unit_square(), ["A", "N", "A", "N"]))
    assert v.alpha == pytest.approx(2.0, abs=1e-10)
    assert not v.passed  # 2*2 = 4 is not < 4


def test_js_unlabeled_passes():
    m = builtin_model("euclidean")
    v = js_check(m, JsPolygon(unit_square(), ["N", "N", "N", "N"]))
    assert v.alpha == 0.0 and v.beta == 0.0 and v.passed


def test_js_needs_closed_polygon():
    with pytest.raises(ValueError, match="closed"):
        JsPolygon(unit_square(closed=False), ["A", "N", "N", "N"])
