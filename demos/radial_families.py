"""Radial minimal-graph families on warped planes.

On a flat base with radial Killing length mu(r), rotational minimal graphs
solve a first-order ODE: the radial flux r mu^2 u' / W is constant.  This
walk-through integrates the family for mu(r) = r (closed form available),
the catenoid (mu = 1), and classifies which warpings keep the profiles
bounded.
"""

import numpy as np

import killing_graphs as kg

print("=== mu(r) = r: the arctan family ===")
for c in (1.0, 2.0, 5.0):
    prof = kg.radial_profile(c, "r", r0=1.0, r1=20.0, n_samples=40)
    sup_exact = np.pi / 4 - 0.5 * np.arctan(np.sqrt(c - 1.0))
    print(f"c = {c:3g}:  u(2) = {np.interp(2.0, prof.radii, prof.values):.9f}   "
          f"sup u = {prof.sup_estimate:.9f}  (closed form {sup_exact:.9f})")
print("The c = 1 member leaves the boundary circle vertically; the quadrature")
print("handles the inverse-square-root endpoint with a substitution.")

print("\n=== mu = 1: the catenoid grows like log r ===")
prof = kg.radial_profile(1.0, 1.0, r0=1.0, r1=50.0, n_samples=40)
print(f"u(50) = {prof.values[-1]:.6f}  vs  acosh(50) = {np.arccosh(50.0):.6f}")
print(f"sup estimate: {prof.sup_estimate}  (the tail integral diverges)")

print("\n=== vertical-slope signal ===")
try:
    kg.radial_slope(1.0, 1.0, "r")
except kg.VerticalSlopeError as e:
    print(f"radial_slope at the vertical tangent raises: {e}")

print("\n=== which mu keep the height bounded? ===")
cases = [
    ("log(1+r)", "mu = log(1+r)        (power a = 2 > 1)"),
    (1.0, "mu = 1               (catenoid)"),
    (lambda r: np.sqrt((r + 1) * np.log(r + 1) / r),
     "mu = sqrt(f_1(r)/r)  (above sqrt(log r), yet unbounded)"),
]
for mu, label in cases:
    v = kg.boundedness_classify(mu, c=2.0 if isinstance(mu, str) else 1.0)
    print(f"{label}:  {v.verdict}")

print("\n=== rotational CMC profile over the hyperbolic base ===")
for H, tau in ((0.0, 0.5), (0.25, 0.5), (0.5, 0.0)):
    s = kg.penafiel_slope(H, tau, rho=1.0)
    print(f"H = {H:4g}, tau = {tau}:  u'(1) = {s.slope:.6f},  h(1) = {s.h_value:.6f}")
print("H = 0 gives the flat section; H = 1/2 is the critical bowl whose")
print("companion growth rate turns exponential (see growth_functionals.py).")
