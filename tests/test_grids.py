import numpy as np
import pytest

from killing_graphs.grids import (BOUNDARY, BRIDGE, EXCLUDED, INTERIOR,
                                  GridDomain, ScalarGrid)


def test_rectangle_classification():
    dom = GridDomain.rectangle(0, 1, 0, 2, 0.25)
    assert dom.shape == (9, 5)
    assert np.all(dom.status[0, :] == BOUNDARY)
    assert np.all(dom.status[:, -1] == BOUNDARY)
    assert np.all(dom.status[1:-1, 1:-1] == INTERIOR)
    assert int(np.sum(dom.status == INTERIOR)) == 7 * 3


def test_rectangle_boundary_arcs_and_corner_average():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.5, boundary={
        "left": 1.0, "right": 3.0, "bottom": 0.0, "top": 0.0})
    assert dom.bdata[1, 0] == 1.0
    assert dom.bdata[1, -1] == 3.0
    assert dom.bdata[0, 1] == 0.0
    # jump corners: average of one-sided limits
    assert dom.bdata[0, 0] == 0.5
    assert dom.bdata[-1, -1] == 1.5


def test_rectangle_rejects_corners_as_unknown_arc():
    with pytest.raises(ValueError, match="unknown boundary arc 'corners'"):
        GridDomain.rectangle(0, 1, 0, 1, 0.5, boundary={
            "left": 1.0, "right": 3.0, "bottom": 0.0, "top": 0.0,
            "corners": {(0, 0): 7.0}})


def test_annulus_rejects_unknown_arc():
    with pytest.raises(ValueError, match="unknown boundary arc 'left'"):
        GridDomain.annulus(1.0, 2.0, 4, 8, inner=1.0, left=2.0)


def test_masked_rejects_per_arc_dict():
    with pytest.raises(ValueError, match="per-arc"):
        GridDomain.masked(-1, 1, -1, 1, 0.25, keep=lambda x, y: x ** 2 + y ** 2 <= 1,
                          boundary={"left": 1.0})


def test_rectangle_arc_callables_take_chart_xy():
    dom = GridDomain.rectangle(-1.3, 0.7, -0.4, 1.0, 0.1, boundary={
        "left": lambda x, y: x + 10 * y, "top": lambda x, y: x * y})
    X, Y = dom.coords()
    np.testing.assert_array_equal(dom.bdata[1:-1, 0], X[1:-1, 0] + 10 * Y[1:-1, 0])
    np.testing.assert_array_equal(dom.bdata[-1, 1:-1], X[-1, 1:-1] * Y[-1, 1:-1])
    np.testing.assert_array_equal(dom.bdata[1:-1, -1], 0.0)   # a missing arc gets 0
    x, y = X[-1, 0], Y[-1, 0]
    assert dom.bdata[-1, 0] == 0.5 * ((x + 10 * y) + x * y)   # the top-left corner


def test_boundary_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        GridDomain.rectangle(0, 1, 0, 1, 0.25,
                             boundary=lambda x, y: np.full_like(x, np.inf))


def test_annulus_periodic_neighbors():
    dom = GridDomain.annulus(1.0, 2.0, 4, 8)
    assert dom.periodic
    assert np.all(dom.status[:, 0] == BOUNDARY)
    assert np.all(dom.status[:, -1] == BOUNDARY)
    assert np.all(dom.status[:, 1:-1] == INTERIOR)
    nb, ok = dom.neighbors(axis=0, step=1)
    assert np.unravel_index(nb[7, 2], dom.shape) == (0, 2)  # theta wrap
    assert ok[7, 2]


def test_annulus_ring_callables_take_chart_xy():
    dom = GridDomain.annulus(1.0, 2.0, 8, 32, inner=lambda x, y: x, outer=lambda x, y: x * y,
                             center=(5.0, 0.0))
    t = dom.ht * np.arange(32)
    X, Y = dom.coords()
    np.testing.assert_allclose(dom.bdata[:, 0], 5.0 + np.cos(t), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(dom.bdata[:, -1], X[:, -1] * Y[:, -1])
    assert np.all(np.isnan(dom.bdata[:, 1:-1]))


def test_annulus_needs_positive_inner_radius():
    with pytest.raises(ValueError, match="pole"):
        GridDomain.annulus(0.0, 1.0, 4, 8)


@pytest.mark.parametrize("build, message", [
    (lambda: GridDomain.rectangle(-1, 1, -1, 1, 0.0), "spacing h"),
    (lambda: GridDomain.rectangle(-1, 1, -1, 1, -0.25), "spacing h"),
    (lambda: GridDomain.rectangle(-1, 1, -1, 1, np.nan), "spacing h"),
    (lambda: GridDomain.rectangle(1, -1, -1, 1, 0.25), "x0 < x1"),
    (lambda: GridDomain.rectangle(-1, 1, 1, 1, 0.25), "y0 < y1"),
    (lambda: GridDomain.masked(-1, 1, -1, 1, 0.0, keep=lambda x, y: x ** 2 + y ** 2 <= 1),
     "spacing h"),
    (lambda: GridDomain.annulus(2.0, 1.0, 4, 8), "r1 > r0"),
    (lambda: GridDomain.annulus(1.0, 1.0, 4, 8), "r1 > r0"),
    (lambda: GridDomain.annulus(1.0, 2.0, 0, 8), "nr >= 2"),
    (lambda: GridDomain.annulus(1.0, 2.0, 1, 8), "nr >= 2"),
    (lambda: GridDomain.annulus(1.0, 2.0, 4, 0), "ntheta >= 3"),
    (lambda: GridDomain.annulus(1.0, 2.0, 4, 2), "ntheta >= 3"),
], ids=["h-0", "h-negative", "h-nan", "x-reversed", "y-empty", "masked-h-0",
        "r-reversed", "r-equal", "nr-0", "nr-1", "ntheta-0", "ntheta-2"])
def test_degenerate_lattice_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_masked_disk_classification():
    dom = GridDomain.masked(-1, 1, -1, 1, 0.125,
                            keep=lambda x, y: x ** 2 + y ** 2 <= 1 + 1e-12)
    st = dom.status
    assert np.any(st == EXCLUDED)
    # every interior node has a fully carried 4-neighborhood
    jj, ii = np.nonzero(st == INTERIOR)
    for j, i in zip(jj, ii):
        for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            assert st[j + dj, i + di] in (INTERIOR, BOUNDARY)


def test_degenerate_mask_rejected():
    # the public builders cannot produce one (interior demands a fully
    # carried 4-neighborhood), so exercise the guard on a raw status array
    # with an interior node walled in by excluded neighbors
    status = np.full((5, 5), BOUNDARY, dtype=np.int8)
    status[2, 2] = INTERIOR
    status[1, 2] = status[3, 2] = status[2, 1] = EXCLUDED
    bdata = np.where(status == BOUNDARY, 0.0, np.nan)
    with pytest.raises(ValueError, match=r"interior node \(2, 2\) has 1 carried"):
        GridDomain(kind="cartesian", status=status, bdata=bdata,
                   x_start=0.0, y_start=0.0, hx=0.25, hy=0.25)._check()


def test_nearest_node():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    assert dom.nearest_node((0.52, 0.26)) == (1, 2)


def test_puncture_bridge_pair_axis_fallback():
    dom = GridDomain.masked(-1, 1, -1, 1, 0.25,
                            keep=lambda x, y: np.abs(x) + 0 * y <= 1.01)
    node = dom.nearest_node((0.0, 0.0))
    domp = dom.with_puncture(node)
    assert domp.status[node] == BRIDGE
    (j1, i1), (j2, i2) = domp.bridges[node]
    assert (j1, i1) == (node[0], node[1] - 1)
    assert (j2, i2) == (node[0], node[1] + 1)


def test_scalar_grid_from_function_and_zeros():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: x + 2 * y)
    X, Y = dom.coords()
    assert np.allclose(u.values[dom.carried()], (X + 2 * Y)[dom.carried()])
    z = ScalarGrid.zeros(dom)
    assert np.all(z.values[dom.carried()] == 0.0)


def test_scalar_grid_rejects_nonfinite():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    vals = np.zeros(dom.shape)
    vals[2, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ScalarGrid(dom, vals)


def test_bilinear_sampling():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: 2 * x + 3 * y)
    pts_x = np.array([0.1, 0.37, 0.92])
    pts_y = np.array([0.83, 0.41, 0.05])
    assert np.allclose(u.sample(pts_x, pts_y), 2 * pts_x + 3 * pts_y)
    assert np.isnan(u.sample(1.5, 0.5))


def test_grid_backed_field():
    dom = GridDomain.rectangle(0, 1, 0, 1, 0.25)
    u = ScalarGrid.from_function(dom, lambda x, y: x - y)
    f = u.as_field()
    assert float(f.value(0.3, 0.2)) == pytest.approx(0.1, abs=1e-12)
