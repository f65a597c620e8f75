import warnings

import numpy as np
import pytest

from killing_graphs import radial
from killing_graphs.expressions import ExprDomainError
from killing_graphs.radial import (VerticalSlopeError, boundedness_classify,
                                   penafiel_h, penafiel_slope,
                                   penafiel_slope_disk, radial_profile,
                                   radial_slope)


def arctan_closed_form(c, r):
    r = np.asarray(r, dtype=np.float64)
    return 0.5 * (np.arctan(np.sqrt(c * r ** 4 - 1.0))
                  - np.arctan(np.sqrt(c - 1.0)))


# -- slopes -----------------------------------------------------------------------

def test_slope_mu_r():
    assert radial_slope(1.0, np.sqrt(2.0), "r") == pytest.approx(1 / np.sqrt(6), rel=1e-14)


def test_slope_catenoid():
    assert radial_slope(1.0, 2.0, 1.0) == pytest.approx(1 / np.sqrt(3), rel=1e-14)


def test_vertical_slope_signal():
    with pytest.raises(VerticalSlopeError):
        radial_slope(1.0, 1.0, "r")


def test_c_below_one_rejected():
    with pytest.raises(ValueError):
        radial_profile(0.5, "r", 1.0, 2.0, 10)


def test_negative_radicand_at_r0_raises_before_any_nan():
    # c r0^2 mu^4 - mu^2 = 2 log(2)^4 - log(2)^2 < 0 at r0 = 1; no
    # RuntimeWarning of a NaN profile may come first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VerticalSlopeError, match="at r0"):
            radial_profile(2.0, "log(1+r)", 1.0, 20.0)


def test_radicand_negative_by_rounding_at_r0_is_a_vertical_start():
    # mu = r, c = r0^-4: the radicand r0^2 (c r0^4 - 1) is 0, and rounds to -1.1e-16
    r0 = 0.6
    c = 1.0 / r0 ** 4
    assert c * r0 ** 6 - r0 ** 2 < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = radial_profile(c, "r", r0, 2.0, 50)
    expect = 0.5 * np.arctan(np.sqrt(np.maximum(c * prof.radii ** 4 - 1.0, 0.0)))
    assert np.max(np.abs(prof.values - expect)) <= 1e-9
    assert prof.sup_estimate == pytest.approx(np.pi / 4, abs=1e-9)


def test_mu_undefined_at_r0_keeps_its_profile():
    # mu = 1/r is undefined at r0 = 0, where the slope r / sqrt(c - 1) starts
    prof = radial_profile(2.0, "1/r", 0.0, 2.0, 5)
    np.testing.assert_allclose(prof.values, 0.5 * prof.radii ** 2, rtol=1e-12, atol=0.0)


# -- profiles vs closed forms -----------------------------------------------------

def test_profile_mu_r_c1():
    prof = radial_profile(1.0, "r", 1.0, 2.0, 50)
    assert prof.values[0] == 0.0
    assert prof.values[-1] == pytest.approx(0.5 * np.arctan(np.sqrt(15.0)), abs=1e-10)
    assert np.max(np.abs(prof.values - arctan_closed_form(1.0, prof.radii))) <= 1e-9
    # near-vertical starts: the slope is (c - 1)^(-1/2) at r0 and falls to
    # ~(4 (r - r0))^(-1/2) within a layer of width ~(c - 1) there
    for c in (1.0 + 1e-14, 1.0 + 1e-12, 1.0 + 1e-10, 1.0 + 1e-8):
        prof = radial_profile(c, "r", 1.0, 2.0, 50)
        assert np.max(np.abs(prof.values - arctan_closed_form(c, prof.radii))) <= 1e-9


def test_single_sample_profile():
    # one sample: u(r0) = 0, and the tail runs from that sample, r0, so the
    # sup estimate is the whole integral pi/4 - arctan(sqrt(c - 1))/2
    prof = radial_profile(2.0, "r", 1.0, 2.0, 1)
    assert prof.values.tolist() == [0.0]
    assert prof.sup_estimate == pytest.approx(np.pi / 8, abs=1e-12)


def test_profile_sup_estimates():
    # sup u = pi/4 - arctan(sqrt(c-1))/2
    for c in (1.0, 2.0, 5.0):
        prof = radial_profile(c, "r", 1.0, 3.0, 20)
        expect = np.pi / 4 - 0.5 * np.arctan(np.sqrt(c - 1.0))
        assert prof.sup_estimate == pytest.approx(expect, abs=1e-8)


def test_profile_mu_r_c2_infinity_value():
    # u(inf) for c = 2 equals pi/4 - arctan(1)/2 = pi/8
    prof = radial_profile(2.0, "r", 1.0, 2.0, 10)
    assert prof.sup_estimate == pytest.approx(np.pi / 8, abs=1e-8)


def test_profile_catenoid():
    prof = radial_profile(1.0, 1.0, 1.0, 2.0, 50)
    assert prof.values[-1] == pytest.approx(np.arccosh(2.0), abs=1e-9)
    assert np.isinf(prof.sup_estimate)


def test_profile_random_c_r_against_closed_form():
    rng = np.random.default_rng(123)
    for _ in range(100):
        c = rng.uniform(1.0, 10.0)
        r = rng.uniform(1.05, 20.0)
        prof = radial_profile(c, "r", 1.0, r, 5)
        assert abs(prof.values[-1] - arctan_closed_form(c, r)) <= 1e-9


def test_profiles_monotone_in_r_and_c():
    profs = [radial_profile(c, "r", 1.0, 5.0, 40) for c in (1.0, 1.5, 2.0, 4.0, 8.0)]
    for p in profs:
        assert np.all(np.diff(p.values) >= 0.0)
    for lo, hi in zip(profs[:-1], profs[1:]):
        assert np.all(hi.values <= lo.values + 1e-12)


# -- the tail beyond the last sample ------------------------------------------------

@pytest.mark.parametrize("mu, c, sup", [
    ("r", 1.0, 0.7853981633975666),
    ("r", 2.0, 0.3926990816987241),
    ("r^0.5", 2.0, 0.765024325429257),
    ("r^0.2", 2.0, 1.8492150529734173),
    ("r^0.05", 2.0, 7.173418242040168),
    # shell ratio 2^-0.02 = 0.986: a cut-off as loose as 0.98 would call it divergent
    ("r^0.01", 2.0, 35.46523975373189),
])
def test_convergent_tail_keeps_its_quad_value(mu, c, sup):
    prof = radial_profile(c, mu, 1.0, 20.0, 200)
    assert prof.tail == "quad"
    assert prof.sup_estimate == sup


def iterated_log_mu(r):
    return np.sqrt((r + 1.0) * np.log(r + 1.0) / r)


@pytest.mark.parametrize("mu, c", [("1", 1.0), ("1", 1.9), ("1", 2.0), ("1", 2.1),
                                   ("1+1/r", 2.0),
                                   # u' ~ 1/(r log r): every shell adds log 2 to u
                                   ("sqrt(log(r))", 1.0), (iterated_log_mu, 1.0)])
def test_divergent_tail_is_decided_by_the_shells(monkeypatch, mu, c):
    def no_quad(*args):
        raise AssertionError("the tail quad was called")
    monkeypatch.setattr(radial, "_quad", no_quad)
    prof = radial_profile(c, mu, 3.0, 20.0, 200)
    assert prof.tail == "diverges"
    assert prof.sup_estimate == np.inf


def test_slowly_divergent_tail_falls_through_to_a_failing_quad():
    # u' ~ 1/(r log r log log r): the shell ratios rise towards 1 from below,
    # so the shells give no verdict and quad fails
    prof = radial_profile(2.0, "sqrt(log(r)*log(log(r)))", 20.0, 40.0, 50)
    assert prof.tail == "quad-failed"
    assert prof.sup_estimate == np.inf


def test_shells_start_at_r1_when_the_last_sample_is_r0():
    # one sample, r0 = 0, where mu = 1/r is undefined: u' = r on every shell
    prof = radial_profile(2.0, "1/r", 0.0, 2.0, 1)
    assert prof.tail == "diverges"
    assert prof.sup_estimate == np.inf


def test_overflowing_shells_give_no_verdict_and_no_warning():
    # mu^4 = r^32 overflows on the far shells: zero increments, so quad decides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = radial_profile(2.0, "r^8", 1.0, 20.0, 50)
    assert prof.tail == "quad"
    assert prof.sup_estimate == 0.05128572282129878


def test_domain_error_in_the_shells_falls_through_to_quad():
    # exp(r) is non-finite on the far shells; the tail quad then raises, and
    # overflows mu^4 on its way there without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ExprDomainError):
            radial_profile(2.0, "exp(r)", 1.0, 2.0)


# -- boundedness classification -----------------------------------------------------

def test_bounded_for_log_power_above_one():
    v = boundedness_classify("log(1+r)", 2.0)
    assert v.verdict == "bounded"


def test_shells_stop_where_the_slope_is_undefined():
    # sqrt(10 - r) is undefined at the third shell end, r = 16
    v = boundedness_classify("sqrt(10 - r)", 2.0)
    assert v.verdict == "inconclusive"
    assert np.allclose(v.window_radii, [2.0, 4.0], rtol=1e-14)


def test_unbounded_catenoid():
    assert boundedness_classify(1.0, 1.0).verdict == "unbounded"


def test_unbounded_iterated_log_mu():
    assert boundedness_classify(iterated_log_mu, 1.0).verdict == "unbounded"


@pytest.mark.parametrize("mu, c, verdict", [
    # u' ~ r^-(1 + 2a) / sqrt(c) decays only on the far shells for small a
    ("r^0.05", 2.0, "bounded"), ("r^0.01", 2.0, "bounded"),
    ("r^0.005", 2.0, "inconclusive"), ("r^0.001", 2.0, "inconclusive"),
    ("r", 2.0, "bounded"), ("r^0.5", 2.0, "bounded"),
    ("1", 1.5, "unbounded"), ("1", 2.0, "unbounded"), ("1+1/r", 2.0, "unbounded"),
    ("1/r", 2.0, "unbounded"), ("sqrt(log(r))", 1.0, "unbounded"),
])
def test_verdicts_from_shells_that_double_log_r(mu, c, verdict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = boundedness_classify(mu, c)
    assert v.verdict == verdict
    assert np.allclose(np.log(v.window_radii[1:]), 2.0 * np.log(v.window_radii[:-1]))


# -- rotational CMC profile -----------------------------------------------------------

def test_penafiel_zero_H():
    for tau in (0.0, 0.5, 2.0):
        for rho in (0.5, 1.0, 3.0):
            assert penafiel_slope(0.0, tau, rho).slope == 0.0


def test_penafiel_h_at_half():
    s = penafiel_slope(0.5, 0.0, 2.0)
    assert s.h_value == pytest.approx(np.sinh(1.0) ** 2, rel=1e-12)


def test_penafiel_consistency_two_routes():
    # rho-form versus disk-form times dr/drho = (1 - r^2)/2
    for H, tau, rho in [(0.25, 0.5, 1.0), (0.4, 1.0, 2.0), (0.5, 0.3, 0.7)]:
        direct = penafiel_slope(H, tau, rho).slope
        r = np.tanh(rho / 2.0)
        via_disk = penafiel_slope_disk(H, tau, r) * (1.0 - r ** 2) / 2.0
        assert direct == pytest.approx(via_disk, abs=1e-10)


def test_penafiel_h_branch_consistency():
    # the H = 1/2 analytic branch agrees with the generic formula where the
    # latter is still well conditioned
    for rho in (0.5, 1.0, 2.0):
        t2 = np.tanh(rho / 2) ** 2
        generic = 4 * (0.25 + 0.3 ** 2) * t2 / (1 - t2)
        assert penafiel_h(0.5, 0.3, rho) == pytest.approx(generic, rel=1e-12)


def test_penafiel_rejects_bad_H():
    with pytest.raises(ValueError):
        penafiel_slope(0.6, 0.0, 1.0)
