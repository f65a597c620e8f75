import re

import numpy as np
import pytest
import scipy.sparse as sp

from killing_graphs.experiments import disk_sin2theta_domain, sol3_exact_domain
from killing_graphs.grids import BOUNDARY, INTERIOR, GridDomain, ScalarGrid
from killing_graphs.models import Rect, builtin_model, gauge_change
from killing_graphs.fields import expr_field
from killing_graphs.operator import (AssemblyCache, NodeFields, angle_function,
                                     area_element, factorization_gap,
                                     factorization_identity_rhs,
                                     generalized_gradient,
                                     mean_curvature_residual)
from killing_graphs.solver import solve_dirichlet


def mid_node(dom):
    n1, n0 = dom.shape
    return (n1 // 2, n0 // 2)


# -- generalized gradient -----------------------------------------------------------

def test_gradient_of_constant():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: 3.0 + 0 * x)
    assert generalized_gradient(m, u, mid_node(dom)) == (0.0, 0.0)


def test_gradient_nil_invariant_graph():
    tau = 0.5
    m = builtin_model("nil3", (tau,))
    dom = GridDomain.rectangle(0.5, 1.5, 0.5, 1.5, 0.125)
    u = ScalarGrid.from_function(dom, lambda x, y: tau * x * y)
    node = mid_node(dom)
    X, Y = dom.coords()
    g1, g2 = generalized_gradient(m, u, node)
    assert g1 == pytest.approx(2 * tau * Y[node], abs=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-12)


def test_gradient_sol3_exact_graph():
    m = builtin_model("sol3-halfplane")
    dom = GridDomain.rectangle(-0.5, 0.5, 1.5, 2.5, 1 / 16)
    u = ScalarGrid.from_function(dom, lambda x, y: 1 - 1 / y)
    node = dom.nearest_node((0.0, 2.0))
    g1, g2 = generalized_gradient(m, u, node)
    # (0, u_y/lambda) = (0, 1/y) = (0, 0.5); central differencing is O(h^2)
    assert g1 == pytest.approx(0.0, abs=1e-12)
    assert g2 == pytest.approx(0.5, abs=1e-3)


def test_polar_gradient_second_order_in_the_rotated_frame():
    # on an annulus (G1, G2) are the radial and angular components about its
    # centre; u = sin x + x y^2 under nil3(0.5), with the chart gradient
    # (u_x - a, u_y - b) = (cos x + y^2 + y/2, 2 x y - x/2) rotated by theta
    tau, (cx, cy) = 0.5, (0.3, -0.2)
    m = builtin_model("nil3", (tau,))
    errs = []
    for nr in (8, 16, 32):
        dom = GridDomain.annulus(1.0, 2.0, nr, 4 * nr, center=(cx, cy))
        u = ScalarGrid.from_function(dom, lambda x, y: np.sin(x) + x * y ** 2)
        G1, G2 = NodeFields(m, dom).gradient_arrays(u.values)
        X, Y = dom.coords()
        t = np.arctan2(Y - cy, X - cx)
        gx, gy = np.cos(X) + Y ** 2 + tau * Y, 2 * X * Y - tau * X
        inter = dom.interior_mask()
        errs.append(max(np.max(np.abs(G1 - (gx * np.cos(t) + gy * np.sin(t)))[inter]),
                        np.max(np.abs(G2 - (-gx * np.sin(t) + gy * np.cos(t)))[inter])))
    assert errs[0] <= 0.25
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("dom", [
    GridDomain.rectangle(-1, 1, -1, 1, 1 / 16),
    GridDomain.annulus(1.0, 2.0, 12, 40, center=(0.3, -0.2)),
], ids=["cartesian", "polar"])
def test_pointwise_geometry_bitwise_equal_to_the_lattice_arrays(dom):
    # every interior node, the theta-wrapped rows 0 and n1 - 1 of the annulus
    # included; nil3's connection makes both frame components count
    m = builtin_model("nil3", (0.5,))
    u = ScalarGrid.from_function(dom, lambda x, y: np.sin(3 * x) + x * y ** 2)
    v = ScalarGrid.from_function(dom, lambda x, y: np.cos(x) * y)
    nf = NodeFields(m, dom)
    (G1, G2), (H1, H2) = nf.gradient_arrays(u.values), nf.gradient_arrays(v.values)
    W = np.sqrt(1.0 + nf.MU ** 2 * (G1 ** 2 + G2 ** 2))
    Wv = np.sqrt(1.0 + nf.MU ** 2 * (H1 ** 2 + H2 ** 2))
    nodes = [tuple(int(k) for k in n) for n in np.argwhere(dom.interior_mask())]
    if dom.periodic:
        assert {j for j, _ in nodes} >= {0, dom.shape[0] - 1}
    for node in nodes:
        g1, g2 = generalized_gradient(m, u, node, fields=nf)
        assert (_bits(g1), _bits(g2)) == (_bits(G1[node]), _bits(G2[node]))
        # a negative index names the node it wraps to, as in the arrays
        wrapped = (node[0] - dom.shape[0], node[1] - dom.shape[1])
        assert generalized_gradient(m, u, wrapped, fields=nf) == (g1, g2)
        assert _bits(area_element(m, u, node, fields=nf)) == _bits(W[node])
        assert _bits(angle_function(m, u, node, fields=nf)) == _bits(nf.MU[node] / W[node])
        gap = ((G1[node] / W[node] - H1[node] / Wv[node]) * (G1[node] - H1[node])
               + (G2[node] / W[node] - H2[node] / Wv[node]) * (G2[node] - H2[node]))
        assert _bits(factorization_gap(m, u, v, node, fields=nf)) == _bits(gap)


def test_pointwise_geometry_rejects_a_node_that_is_not_interior():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25)
    u = ScalarGrid.zeros(dom)
    for node in [(0, 3), (3, 0), (dom.shape[0] - 1, 3), (3, dom.shape[1] - 1), (-1, 3), (3, -1)]:
        with pytest.raises(ValueError, match="not interior"):
            generalized_gradient(m, u, node)
    for node in [(dom.shape[0], 3), (3, -dom.shape[1] - 1)]:
        with pytest.raises(IndexError):
            generalized_gradient(m, u, node)


def test_pointwise_geometry_builds_no_lattice_arrays(monkeypatch):
    # one node is read by its own differences: the whole-lattice arrays
    # (~30 ms at h = 1/256) are never built for it
    def refuse(self, values):
        raise AssertionError("gradient_arrays built to read one node")

    monkeypatch.setattr(NodeFields, "gradient_arrays", refuse)
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 16)
    u = ScalarGrid.from_function(dom, lambda x, y: np.sin(3 * x) + x * y)
    v = ScalarGrid.from_function(dom, lambda x, y: x * y)
    node = mid_node(dom)
    for fields in (None, NodeFields(m, dom)):
        generalized_gradient(m, u, node, fields=fields)
        area_element(m, u, node, fields=fields)
        angle_function(m, u, node, fields=fields)
        factorization_gap(m, u, v, node, fields=fields)
        factorization_identity_rhs(m, u, v, node, fields=fields)


def test_area_element_and_angle():
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(0.5, 1.5, 0.5, 1.5, 0.125)
    u = ScalarGrid.zeros(dom)
    node = dom.nearest_node((1.0, 1.0))
    # W0 = sqrt(1 + mu^2 (a^2 + b^2)) = sqrt(1.5) at (1,1)
    assert area_element(m, u, node) == pytest.approx(np.sqrt(1.5), abs=1e-12)
    assert angle_function(m, u, node) == pytest.approx(1 / np.sqrt(1.5), abs=1e-12)


def test_area_element_lower_bound_random():
    m = builtin_model("nil3", (0.8,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.125)
    rng = np.random.default_rng(3)
    nf = NodeFields(m, dom)
    for _ in range(5):
        vals = rng.normal(size=dom.shape)
        G1, G2 = nf.gradient_arrays(vals)
        W = np.sqrt(1 + nf.MU ** 2 * (G1 ** 2 + G2 ** 2))
        inter = dom.interior_mask()
        assert np.all(W[inter] >= 1.0)
        nu = nf.MU[inter] / W[inter]
        assert np.all(nu > 0) and np.all(nu <= nf.MU[inter] + 1e-15)


# -- factorization pairing -----------------------------------------------------------

def test_factorization_gap_zero_for_equal():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: np.sin(x) * y)
    assert factorization_gap(m, u, u, mid_node(dom)) == 0.0


def test_factorization_gap_opposite_planes():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: x + 0 * y)
    v = ScalarGrid.from_function(dom, lambda x, y: -x + 0 * y)
    # <(1/sqrt2 - (-1/sqrt2), 0), (2, 0)> = 2 sqrt 2
    assert factorization_gap(m, u, v, mid_node(dom)) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_factorization_identity_and_positivity_random():
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 0.25)
    rng = np.random.default_rng(11)
    nf = NodeFields(m, dom)
    node = mid_node(dom)
    for _ in range(50):
        a, b, c, d = rng.uniform(-2, 2, 4)
        u = ScalarGrid.from_function(dom, lambda x, y: a * x + b * y + c * x * y)
        v = ScalarGrid.from_function(dom, lambda x, y: c * x + d * y + a * x * y)
        lhs = factorization_gap(m, u, v, node, fields=nf)
        rhs = factorization_identity_rhs(m, u, v, node, fields=nf)
        assert lhs >= 0.0
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# -- mean curvature residual ----------------------------------------------------------

def test_plane_residual_exactly_zero():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(0, 1, 0, 1, 1 / 16)
    u = ScalarGrid.from_function(dom, lambda x, y: 0.3 * x + 0.7 * y)
    res = mean_curvature_residual(m, u)
    assert np.nanmax(np.abs(res.values)) <= 1e-12


def test_nil_invariant_graph_residual():
    for tau in (0.25, 0.5, 1.0):
        m = builtin_model("nil3", (tau,))
        dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 32)
        u = ScalarGrid.from_function(dom, lambda x, y: tau * x * y)
        res = mean_curvature_residual(m, u)
        assert np.nanmax(np.abs(res.values)) <= 1e-3


def test_sol3_graph_residual_second_order():
    m = builtin_model("sol3-halfplane")
    maxres = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        dom = GridDomain.rectangle(-1, 1, 1.5, 3, h, boundary=lambda x, y: 1 - 1 / y)
        u = ScalarGrid.from_function(dom, lambda x, y: 1 - 1 / y)
        res = mean_curvature_residual(m, u)
        maxres.append(np.nanmax(np.abs(res.values)))
    assert maxres[1] <= 1e-3
    assert maxres[1] <= maxres[0] / 3.5 + 1e-12
    assert maxres[2] <= maxres[1] / 3.5 + 1e-12


def test_prescribed_H_shifts_residual():
    m = builtin_model("euclidean")
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.125)
    u = ScalarGrid.from_function(dom, lambda x, y: 0.1 * x)
    res = mean_curvature_residual(m, u, H="1")
    # plane flux part vanishes; residual = -2 mu H = -2
    assert np.nanmax(np.abs(res.values + 2.0)) <= 1e-12


def test_gauge_covariance_of_residual():
    # With the a' = a + d_x/lambda convention the vertical coordinate shifts
    # by +d, so the graph of u over the old zero section is the graph of
    # u + d over the new one; residuals agree to O(h^2).
    m = builtin_model("euclidean")
    md = gauge_change(m, expr_field("0.2*x*y + 0.1*sin(x)"))

    def shifted(x, y):
        return 0.2 * x * y + 0.1 * np.sin(x)

    diffs = []
    for h in (1 / 16, 1 / 32):
        dom = GridDomain.rectangle(-1, 1, -1, 1, h)
        u = ScalarGrid.from_function(dom, lambda x, y: np.sin(x) + 0.3 * y ** 2)
        upd = ScalarGrid.from_function(
            dom, lambda x, y: np.sin(x) + 0.3 * y ** 2 + shifted(x, y))
        r0 = mean_curvature_residual(m, u)
        r1 = mean_curvature_residual(md, upd)
        diffs.append(np.nanmax(np.abs(r0.values - r1.values)))
    assert diffs[0] <= 5e-3
    assert diffs[1] <= diffs[0] / 3.0


# -- conservation and translation invariance ------------------------------------------

def test_discrete_divergence_theorem_cartesian():
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 16)
    cache = AssemblyCache(m, dom)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = ScalarGrid.from_function(
            dom, lambda x, y: rng.normal() * np.sin(x) + rng.normal() * x * y
            + rng.normal() * np.cos(2 * y))
        vol, bnd = cache.flux_balance(u.values)
        assert abs(vol - bnd) <= 1e-12 * max(1.0, abs(vol))


def test_discrete_divergence_theorem_polar():
    m = builtin_model("warped-plane", ("r",))
    dom = GridDomain.annulus(1.0, 2.0, 16, 64)
    cache = AssemblyCache(m, dom)
    u = ScalarGrid.from_function(dom, lambda x, y: np.hypot(x, y) + 0.1 * x)
    vol, bnd = cache.flux_balance(u.values)
    assert abs(vol - bnd) <= 1e-12 * max(1.0, abs(vol))


def test_vertical_translation_invariance_bitwise():
    # lattice-valued u and a power-of-two shift keep u + c exact in floats,
    # so the difference-only dependence is assertable bit-for-bit
    m = builtin_model("nil3", (0.5,))
    dom = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8)
    cache = AssemblyCache(m, dom)
    rng = np.random.default_rng(9)
    vals = np.round(rng.uniform(0, 1, dom.shape) * 2 ** 20) * 2.0 ** -20
    rhs = np.zeros(dom.shape)
    F0 = cache.residual(vals, rhs)
    F1 = cache.residual(vals + 1.0, rhs)
    assert np.array_equal(F0, F1)


# -- Jacobian and assembly tables -------------------------------------------------------

def _assembly_cases():
    """(name, model, domain, u) on a cartesian rectangle, a punctured masked
    disk (one bridge row), a periodic annulus, a punctured sol3 rectangle
    (one bridge row, non-constant lambda) and a 2:1 strip clamped on its
    short arcs, which the dissection cuts across its long side first."""
    nil = builtin_model("nil3", (0.5,))
    sol3 = builtin_model("sol3-halfplane")
    rect = GridDomain.rectangle(-1, 1, -1, 1, 1 / 8,
                                boundary=lambda x, y: np.sin(3 * x) + x * y)
    disk = disk_sin2theta_domain(1 / 8)
    disk = disk.with_puncture(disk.nearest_node((0.25, 0.25)))
    ann = GridDomain.annulus(1.0, 2.0, 6, 16, inner=lambda x, y: x, outer=0.3)
    strip = sol3_exact_domain(1 / 4)
    strip = strip.with_puncture(strip.nearest_node((0.0, 2.0)))
    clamped = GridDomain.rectangle(-2, 2, -1, 1, 1 / 8,
                                   boundary={"left": 5.0, "right": 5.0, "bottom": 0.0, "top": 0.0})
    rng = np.random.default_rng(2)
    out = []
    for name, model, dom in (("rectangle", nil, rect), ("punctured-disk", nil, disk),
                             ("annulus", nil, ann), ("punctured-sol3", sol3, strip),
                             ("clamped-strip", nil, clamped)):
        X, Y = dom.coords()
        u = np.sin(2 * X) + 0.5 * X * Y + 0.1 * rng.uniform(-1, 1, dom.shape)
        u = np.where(dom.status == BOUNDARY, dom.bdata, u)
        u[~dom.carried()] = np.nan
        out.append((name, model, dom, u))
    return out


def _with_unknowns(cache, u, vec):
    v = u.copy()
    v.ravel()[cache.flat_unknown] = vec
    return v


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_jacobians_match_central_differences(case):
    _, model, dom, u = case
    cache = AssemblyCache(model, dom)
    rhs = np.where(dom.carried(), 0.3, 0.0)
    Wf = cache.frozen_W(u)
    vec = u.ravel()[cache.flat_unknown]
    eps = 1e-6
    for frozen in (None, Wf):
        J = cache.jacobian(u, frozen_W=frozen).toarray()
        fd = np.empty_like(J)
        for k in range(cache.n_unknowns):
            e = np.zeros(cache.n_unknowns)
            e[k] = eps
            Fp = cache.residual(_with_unknowns(cache, u, vec + e), rhs, frozen_W=frozen)
            Fm = cache.residual(_with_unknowns(cache, u, vec - e), rhs, frozen_W=frozen)
            fd[:, k] = (Fp - Fm) / (2 * eps)
        assert np.max(np.abs(J - fd)) <= 1e-8 * np.max(np.abs(J))


def test_jacobian_assembly_makes_no_coo_conversion(monkeypatch):
    # the CSR slots are fixed when the cache is built, so no Jacobian call
    # sorts or sums a COO pattern again
    _, model, dom, u = _assembly_cases()[1]
    cache = AssemblyCache(model, dom)
    ref = [cache.jacobian(u), cache.jacobian(u, frozen_W=cache.frozen_W(u))]

    def no_tocsr(self, *args, **kwargs):
        raise AssertionError("coo_matrix.tocsr called")

    monkeypatch.setattr(sp.coo_matrix, "tocsr", no_tocsr)
    for J, frozen in zip(ref, (None, cache.frozen_W(u))):
        K = cache.jacobian(u, frozen_W=frozen)
        assert isinstance(K, sp.csr_matrix) and K.shape == J.shape
        assert np.array_equal(K.data, J.data)


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_cache_build_sorts_no_entries(monkeypatch, case):
    # the CSR slots are read off the stencil, so building a cache argsorts
    # no entries and gathers no CSR rows
    _, model, dom, u = case

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(np, "argsort", refuse("np.argsort"))
    monkeypatch.setattr(sp.csr_matrix, "__getitem__", refuse("csr_matrix.__getitem__"))
    cache = AssemblyCache(model, dom)
    J = cache.jacobian(u)
    assert J.shape == (cache.n_unknowns, cache.n_unknowns) and J.has_sorted_indices


# Reference assembly, one node or one stencil entry at a time: a per-node
# slope loop, an np.add.at scatter and per-call COO triplets.  The cache's
# whole-array tables must reproduce it bit for bit.

def _reference_slope_forms(dom, axis):
    n1, n0 = dom.shape
    carried = dom.carried()
    ids = np.zeros((n1, n0, 2), dtype=np.int64)
    w = np.zeros((n1, n0, 2))
    dj, di = (1, 0) if axis == 0 else (0, 1)

    def neighbor(j, i):
        if dom.periodic:
            j %= n1
        return (j, i) if 0 <= j < n1 and 0 <= i < n0 and carried[j, i] else None

    for j in range(n1):
        for i in range(n0):
            if not carried[j, i]:
                continue
            p, m = neighbor(j + dj, i + di), neighbor(j - dj, i - di)
            if axis == 0:
                d = dom.hy if dom.kind == "cartesian" else dom.ht * (dom.r_start + dom.hr * i)
            else:
                d = dom.hx if dom.kind == "cartesian" else dom.hr
            if p and m:
                ids[j, i] = (p[0] * n0 + p[1], m[0] * n0 + m[1])
                w[j, i] = (0.5 / d, -0.5 / d)
            elif p:
                ids[j, i] = (p[0] * n0 + p[1], j * n0 + i)
                w[j, i] = (1.0 / d, -1.0 / d)
            elif m:
                ids[j, i] = (j * n0 + i, m[0] * n0 + m[1])
                w[j, i] = (1.0 / d, -1.0 / d)
            else:
                ids[j, i] = (j * n0 + i, j * n0 + i)
    return ids, w


def _reference_geometry(model, dom):
    """The lattice geometry of each kind written out on its own: chart
    coordinates, the connection components in the lattice frame (rotated to
    the radial/angular frame on polar lattices), inv_fac, cell and, edge by
    edge, every edge-family table that does not depend on u."""
    n1, n0 = dom.shape
    polar = dom.kind == "polar"
    if polar:
        r = dom.r_start + dom.hr * np.arange(n0)
        t = dom.ht * np.arange(n1)[:, None]
        X = dom.center[0] + r[None, :] * np.cos(t)
        Y = dom.center[1] + r[None, :] * np.sin(t)
        h1, h0 = dom.hr, dom.ht
    else:
        r = np.ones(n0)
        X, Y = np.meshgrid(dom.x_start + dom.hx * np.arange(n0),
                           dom.y_start + dom.hy * np.arange(n1))
        h1, h0 = dom.hx, dom.hy
    carried = dom.carried()
    fields = {}
    for name in ("lam", "mu", "a", "b"):
        fields[name] = np.full((n1, n0), np.nan)
        fields[name][carried] = getattr(model, name).value(X[carried], Y[carried])
    LAM, MU, A, B = (fields[k] for k in ("lam", "mu", "a", "b"))
    if polar:
        AN1, AT1 = A * np.cos(t) + B * np.sin(t), -A * np.sin(t) + B * np.cos(t)
        inv_fac, cell = 1.0 / (LAM ** 2 * r), LAM ** 2 * r * dom.hr * dom.ht
    else:
        AN1, AT1 = A, B
        inv_fac, cell = 1.0 / LAM ** 2, LAM ** 2 * dom.hx * dom.hy
    tables = {"X": X, "Y": Y, "AN1": AN1, "AT1": AT1, "inv_fac": inv_fac, "cell": cell}

    st = dom.status
    families = []
    for axis in (1, 0):
        rows = {k: [] for k in ("A", "B", "an", "at", "len_n", "coef", "cA", "cB", "htrans")}
        for j in range(n1 if axis == 1 or dom.periodic else n1 - 1):
            for i in range(n0 - 1 if axis == 1 else n0):
                jb, ib = (j, i + 1) if axis == 1 else ((j + 1) % n1, i)
                a, b = (j, i), (jb, ib)
                if not (carried[a] and carried[b]) or INTERIOR not in (st[a], st[b]):
                    continue
                lam = 0.5 * (LAM[a] + LAM[b])
                mu2 = (0.5 * (MU[a] + MU[b])) ** 2
                n_, t_ = (AN1, AT1) if axis == 1 else (AT1, AN1)
                if axis == 1:
                    len_n, div, htrans = h1, h1, h0
                    gmul = r[i] + 0.5 * dom.hr if polar else 1.0
                else:
                    len_n, div, htrans, gmul = h0 * r[i], h0, h1, 1.0
                rows["A"].append(j * n0 + i)
                rows["B"].append(jb * n0 + ib)
                rows["an"].append(0.5 * (n_[a] + n_[b]))
                rows["at"].append(0.5 * (t_[a] + t_[b]))
                rows["len_n"].append(len_n)
                rows["coef"].append(gmul * lam * mu2)
                rows["cA"].append(inv_fac[a] / div if st[a] == INTERIOR else 0.0)
                rows["cB"].append(inv_fac[b] / div if st[b] == INTERIOR else 0.0)
                rows["htrans"].append(htrans)
        families.append({k: np.array(v) for k, v in rows.items()})
    return tables, families


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_geometry_tables_bitwise_equal_to_reference(case):
    # the assembly reference above builds its fluxes from the cache's own
    # len_n and coef, so these tables are checked against formulas here
    _, model, dom, _ = case
    cache = AssemblyCache(model, dom)
    tables, families = _reference_geometry(model, dom)
    carried = dom.carried()
    X, Y = dom.coords()
    assert np.array_equal(X, tables["X"]) and np.array_equal(Y, tables["Y"])
    for name in ("AN1", "AT1", "inv_fac", "cell"):
        assert np.array_equal(getattr(cache, name)[carried], tables[name][carried]), name
    for fam, ref in zip(cache.families, families):
        for name, want in ref.items():
            got = getattr(fam, name)
            assert got.shape == want.shape and np.array_equal(got, want), name


def _reference_flux(fam, u_flat, Wf):
    d = (u_flat[fam.B] - u_flat[fam.A]) / fam.len_n
    t = np.einsum("ek,ek->e", fam.t_w, u_flat[fam.t_ids])
    G1 = d / fam.lam - fam.an
    G2 = t / fam.lam - fam.at
    W = np.sqrt(1.0 + fam.mu2 * (G1 * G1 + G2 * G2))
    return G1, G2, W, fam.coef * G1 / (W if Wf is None else Wf)


def _reference_bridges(cache):
    n0 = cache.n0
    for (j, i), ((j1, i1), (j2, i2)) in cache.dom.bridges.items():
        yield cache.unknown_ids[j * n0 + i], j * n0 + i, j1 * n0 + i1, j2 * n0 + i2


def _reference_residual(cache, u_grid, rhs, frozen_W=None):
    u_flat = u_grid.ravel()
    F = np.zeros(cache.n_unknowns)
    for fam, Wf in zip(cache.families, frozen_W or (None, None)):
        flux = _reference_flux(fam, u_flat, Wf)[3]
        mA = fam.rowA >= 0
        np.add.at(F, fam.rowA[mA], flux[mA] * fam.cA[mA])
        mB = fam.rowB >= 0
        np.add.at(F, fam.rowB[mB], -flux[mB] * fam.cB[mB])
    F[cache.pde_row_mask] -= rhs.ravel()[cache.flat_unknown[cache.pde_row_mask]]
    for row, p, q1, q2 in _reference_bridges(cache):
        F[row] = u_flat[p] - 0.5 * (u_flat[q1] + u_flat[q2])
    return F


def _reference_jacobian(cache, u_grid, frozen_W=None):
    u_flat = u_grid.ravel()
    rows, cols, vals = [], [], []
    for fam, Wf in zip(cache.families, frozen_W or (None, None)):
        G1, G2, W, _ = _reference_flux(fam, u_flat, None)
        if Wf is not None:
            dF_dG1 = fam.coef / Wf
            dF_dG2 = np.zeros_like(dF_dG1)
        else:
            dF_dG1 = fam.coef * (W * W - fam.mu2 * G1 * G1) / W ** 3
            dF_dG2 = -fam.coef * fam.mu2 * G1 * G2 / W ** 3
        stencil = [(fam.B, dF_dG1 / (fam.len_n * fam.lam)),
                   (fam.A, -dF_dG1 / (fam.len_n * fam.lam))]
        for k in range(4):
            stencil.append((fam.t_ids[:, k], dF_dG2 * fam.t_w[:, k] / fam.lam))
        for ids, dv in stencil:
            col = cache.unknown_ids[ids]
            for row, c, sign in ((fam.rowA, fam.cA, 1.0), (fam.rowB, fam.cB, -1.0)):
                m = (row >= 0) & (col >= 0)
                rows.append(row[m])
                cols.append(col[m])
                vals.append((sign * dv * c)[m])
    for row, p, q1, q2 in _reference_bridges(cache):
        for node, w in ((p, 1.0), (q1, -0.5), (q2, -0.5)):
            col = cache.unknown_ids[node]
            if col >= 0:
                rows.append(np.array([row]))
                cols.append(np.array([col]))
                vals.append(np.array([w]))
    J = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(cache.n_unknowns, cache.n_unknowns))
    return J.tocsr()


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_assembly_bitwise_equal_to_reference(case):
    _, model, dom, u = case
    cache = AssemblyCache(model, dom)
    carried = dom.carried()
    for axis in (0, 1):
        ids, w = _reference_slope_forms(dom, axis)
        assert np.array_equal(getattr(cache, f"slope{axis}_ids")[carried], ids[carried])
        assert np.array_equal(getattr(cache, f"slope{axis}_w")[carried], w[carried])
    rhs = np.where(carried, 0.3, 0.0)
    Wf = cache.frozen_W(u)
    for frozen in (None, Wf):
        assert np.array_equal(cache.residual(u, rhs, frozen_W=frozen),
                              _reference_residual(cache, u, rhs, frozen_W=frozen))
        J = cache.jacobian(u, frozen_W=frozen)
        ref = _reference_jacobian(cache, u, frozen_W=frozen)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(J, attr), getattr(ref, attr))


def _by_node(cache, F, J):
    """The residual sorted by node; and, sorted by node pair, the Jacobian's
    row and column nodes, its values, and the stencil entries each value
    sums, in the order the cache sums them."""
    nodes = cache.flat_unknown
    summands = [[i] for i in cache._slot_first.tolist()]
    for slots, ids in cache._slot_rest:
        for slot, i in zip(slots.tolist(), ids.tolist()):
            summands[slot].append(i)
    rows = nodes[np.repeat(np.arange(cache.n_unknowns), np.diff(J.indptr))]
    cols = nodes[J.indices]
    k = np.lexsort((cols, rows))
    return F[np.argsort(nodes)], rows[k], cols[k], J.data[k], [tuple(summands[i]) for i in k]


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_renumbering_moves_each_entry_with_its_summands(monkeypatch, case):
    # the cache's nested-dissection numbering against raster numbering: every
    # residual entry moves to the row of its node with its bits, and every
    # Jacobian entry to the row and column of its nodes, as the sum of the
    # same stencil entries.  A slot sums them in the order scipy's
    # sort_indices leaves them, which breaks ties between equal columns
    # by the column numbers around them, so a slot of three or more entries
    # may sum them in another order: its bits then agree to rounding
    _, model, dom, u = case
    cache = AssemblyCache(model, dom)
    with monkeypatch.context() as m:
        m.setattr(GridDomain, "dissection", lambda self: np.arange(self.status.size))
        raster = AssemblyCache(model, dom)
    np.testing.assert_array_equal(raster.flat_unknown, np.flatnonzero(dom.unknown_mask()))
    assert not np.array_equal(cache.flat_unknown, raster.flat_unknown)
    rhs = np.where(dom.carried(), 0.3, 0.0)
    for frozen in (None, cache.frozen_W(u)):
        (F, rows, cols, vals, sums), (Fr, rows_r, cols_r, vals_r, sums_r) = (
            _by_node(c, c.residual(u, rhs, frozen_W=frozen), c.jacobian(u, frozen_W=frozen))
            for c in (cache, raster))
        assert np.array_equal(F.view(np.int64), Fr.view(np.int64))
        assert np.array_equal(rows, rows_r) and np.array_equal(cols, cols_r)
        assert [sorted(a) for a in sums] == [sorted(b) for b in sums_r]
        # two entries sum to the same bits in either order
        same = np.array([a == b or len(a) <= 2 for a, b in zip(sums, sums_r)])
        assert same.mean() > 0.5
        assert np.array_equal(vals[same].view(np.int64), vals_r[same].view(np.int64))
        eps = np.finfo(float).eps
        assert np.max(np.abs(vals - vals_r)) <= 4 * eps * np.max(np.abs(vals))


# -- a lattice must lie in its model's chart -----------------------------------------

_OUTSIDE_THE_CHART = [
    # lambda = 1/y: the rows y <= 0 leave the half-plane
    (builtin_model("sol3-halfplane"), GridDomain.rectangle(-1, 1, -1, 1, 0.125), (-1.0, -1.0)),
    # a chart that excludes most of the domain
    (builtin_model("sol3-disk", chart=Rect(0, 1, 0, 1)),
     GridDomain.rectangle(-0.5, 0.5, -0.5, 0.5, 0.125), (-0.5, -0.5)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, dom, first", _OUTSIDE_THE_CHART, ids=["halfplane", "chart"])
def test_lattice_outside_the_chart_is_refused(model, dom, first):
    u = ScalarGrid.from_function(dom, lambda x, y: 0.0 * x)
    message = f"lattice node ({first[0]:.6g}, {first[1]:.6g}) lies outside the chart"
    for call in (lambda: solve_dirichlet(model, dom), lambda: mean_curvature_residual(model, u)):
        with pytest.raises(ValueError, match=re.escape(message)) as e:
            call()
        assert repr(model.name) in str(e.value)
