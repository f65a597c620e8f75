"""Lattice domains for the divergence-form discretization.

Two lattice kinds share one node-classification scheme:

* cartesian  -- uniform (x, y) lattice on a rectangle, with optional mask;
* polar      -- uniform (r, theta) lattice on an annulus around a center,
                theta periodic, pole excluded by construction.

Arrays are indexed [j, i]: axis 0 is y (or theta), axis 1 is x (or r).

Node status: INTERIOR nodes carry the PDE equation, BOUNDARY nodes carry
Dirichlet data, EXCLUDED nodes are outside the domain, and a BRIDGE node is
a puncture: it carries no equation and no data; its value is tied to the
average of two opposite neighbors so that surrounding stencils stay whole.

Boundary data: a datum is a constant or a callable of chart (x, y).  A
rectangle takes one datum or a dict of them keyed by left/right/bottom/top
(a missing arc gets 0), an annulus one per ring (inner/outer), a masked
lattice one.  A corner takes the mean of its two arcs, the two one-sided
limits of piecewise continuous data; an unknown arc name raises ValueError.

Values move between lattices by one rule, :meth:`ScalarGrid.transfer`:
coinciding nodes (:func:`coincident_nodes`) copy exactly, other nodes
interpolate bilinearly, and Dirichlet data and bridge values come from the
target lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

INTERIOR, BOUNDARY, EXCLUDED, BRIDGE = 0, 1, 2, 3

_CARRIED = (INTERIOR, BOUNDARY, BRIDGE)


@dataclass
class GridDomain:
    kind: str                 # "cartesian" | "polar"
    status: np.ndarray        # (n1, n0) int8
    bdata: np.ndarray         # Dirichlet values at BOUNDARY nodes, NaN elsewhere
    # cartesian geometry
    x_start: float = 0.0
    y_start: float = 0.0
    hx: float = 1.0
    hy: float = 1.0
    # polar geometry
    r_start: float = 1.0
    hr: float = 1.0
    ht: float = 1.0
    center: tuple = (0.0, 0.0)
    periodic: bool = False    # theta wrap-around (polar only)
    # puncture bookkeeping: (j, i) -> ((j1, i1), (j2, i2)) bridge pair
    bridges: dict = field(default_factory=dict)

    # -- basic geometry ----------------------------------------------------

    @property
    def shape(self):
        return self.status.shape

    def coords(self):
        """Chart coordinates (X, Y) of every lattice node, shape (n1, n0)."""
        n1, n0 = self.status.shape
        if self.kind == "cartesian":
            x = self.x_start + self.hx * np.arange(n0)
            y = self.y_start + self.hy * np.arange(n1)
            return np.meshgrid(x, y)
        r = self.r_start + self.hr * np.arange(n0)
        t = self.ht * np.arange(n1)
        T, R = np.meshgrid(t, r, indexing="ij")
        return (self.center[0] + R * np.cos(T), self.center[1] + R * np.sin(T))

    def r_values(self):
        if self.kind != "polar":
            raise ValueError("r_values only defined for polar grids")
        return self.r_start + self.hr * np.arange(self.status.shape[1])

    def carried(self):
        return np.isin(self.status, _CARRIED)

    def interior_mask(self):
        return self.status == INTERIOR

    # -- construction ------------------------------------------------------

    @staticmethod
    def rectangle(x0: float, x1: float, y0: float, y1: float, h: float,
                  boundary=0.0) -> "GridDomain":
        """Full rectangle with spacing ~h (snapped so nodes land on corners).

        ``boundary`` is one datum, or a dict of data keyed by
        left/right/bottom/top (see the module docstring).
        """
        return GridDomain._lattice(x0, x1, y0, y1, h, lambda x, y: np.ones(x.shape, bool),
                                   boundary, _RECTANGLE_ARCS)

    @staticmethod
    def annulus(r0: float, r1: float, nr: int, ntheta: int,
                inner=0.0, outer=0.0, center=(0.0, 0.0), **unknown) -> "GridDomain":
        """Full polar annulus r0 <= r <= r1 about ``center``, theta periodic.

        ``inner``/``outer`` are the data of the two rings, constants or
        callables of chart (x, y); any other keyword is an unknown arc and
        raises ValueError.
        """
        if r0 <= 0:
            raise ValueError("annulus needs r0 > 0 (pole excluded)")
        status = np.full((ntheta, nr + 1), INTERIOR, dtype=np.int8)
        status[:, 0] = status[:, -1] = BOUNDARY
        dom = GridDomain(kind="polar", status=status, bdata=np.full(status.shape, np.nan),
                         r_start=r0, hr=(r1 - r0) / nr, ht=2 * np.pi / ntheta,
                         center=center, periodic=True)
        dom.bdata = _boundary_data(dom, {"inner": inner, "outer": outer, **unknown},
                                   _ANNULUS_ARCS)
        dom._check()
        return dom

    @staticmethod
    def masked(x0: float, x1: float, y0: float, y1: float, h: float,
               keep: Callable, boundary=0.0) -> "GridDomain":
        """Masked cartesian lattice: nodes with keep(x, y) true are carried.

        Carried nodes whose 4-neighborhood is fully carried are interior;
        the rest are boundary and take the one datum ``boundary``, a
        constant or a callable of (x, y); a per-arc dict raises ValueError.
        """
        return GridDomain._lattice(x0, x1, y0, y1, h, keep, boundary, None)

    @staticmethod
    def _lattice(x0, x1, y0, y1, h, keep, boundary, arcs) -> "GridDomain":
        """Cartesian lattice on [x0, x1] x [y0, y1], spacing snapped to ~h;
        the rectangle is the mask that keeps every node."""
        nx = max(2, int(round((x1 - x0) / h))) + 1
        ny = max(2, int(round((y1 - y0) / h))) + 1
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        X, Y = np.meshgrid(x0 + hx * np.arange(nx), y0 + hy * np.arange(ny))
        keep_m = np.asarray(keep(X, Y), dtype=bool)
        status = np.where(keep_m, INTERIOR, EXCLUDED).astype(np.int8)
        inner = np.zeros_like(keep_m)
        inner[1:-1, 1:-1] = (keep_m[1:-1, 1:-1] & keep_m[:-2, 1:-1] & keep_m[2:, 1:-1]
                             & keep_m[1:-1, :-2] & keep_m[1:-1, 2:])
        status[keep_m & ~inner] = BOUNDARY
        dom = GridDomain(kind="cartesian", status=status, bdata=np.full((ny, nx), np.nan),
                         x_start=x0, y_start=y0, hx=hx, hy=hy)
        dom.bdata = _boundary_data(dom, boundary, arcs)
        dom._check()
        return dom

    # -- punctures ----------------------------------------------------------

    def nearest_node(self, p):
        X, Y = self.coords()
        d2 = (X - p[0]) ** 2 + (Y - p[1]) ** 2
        d2[~self.carried()] = np.inf
        j, i = np.unravel_index(int(np.argmin(d2)), d2.shape)
        return int(j), int(i)

    def with_puncture(self, node) -> "GridDomain":
        """Copy of the domain with ``node`` turned into a puncture.

        The node keeps no PDE equation and no Dirichlet data; its value is
        bridged as the average of its two x-direction neighbors (falling back
        to the y-direction pair), which keeps the neighboring flux stencils
        intact across the hole.
        """
        j, i = node
        if self.status[j, i] != INTERIOR:
            raise ValueError("puncture must be an interior node")
        new = replace(self, status=self.status.copy(), bdata=self.bdata.copy(),
                      bridges=dict(self.bridges))
        new.status[j, i] = BRIDGE
        for pair in (((j, i - 1), (j, i + 1)), ((j - 1, i), (j + 1, i))):
            (j1, i1), (j2, i2) = pair
            if (0 <= i1 and i2 < new.shape[1] and 0 <= j1 and j2 < new.shape[0]
                    and new.status[j1, i1] in (INTERIOR, BOUNDARY)
                    and new.status[j2, i2] in (INTERIOR, BOUNDARY)):
                new.bridges[(j, i)] = pair
                break
        else:
            raise ValueError("puncture has no opposite carried neighbor pair")
        new._check()
        return new

    # -- neighbours and validation --------------------------------------------

    def neighbors(self, axis: int, step: int):
        """Each node's neighbour ``step`` nodes along ``axis`` (theta wraps on
        periodic grids): its flat index, or the node's own index where the
        lattice ends, and whether that neighbour exists and is carried."""
        n1, n0 = self.status.shape
        J, I = np.indices((n1, n0))
        if axis == 0:
            jj, ii = J + step, I
            if self.periodic:
                jj %= n1
        else:
            jj, ii = J, I + step
        inside = (0 <= jj) & (jj < n1) & (0 <= ii) & (ii < n0)
        nb = np.where(inside, jj * n0 + ii, J * n0 + I)
        return nb, inside & self.carried().ravel()[nb]

    def _check(self):
        st = self.status
        if not np.any(st == INTERIOR):
            raise ValueError("domain has no interior node")
        bm = st == BOUNDARY
        if np.any(~np.isfinite(self.bdata[bm])):
            raise ValueError("boundary data must be finite at every boundary node")
        # reject degenerate masks: interior nodes need >= 2 carried neighbors
        n_ok = sum(self.neighbors(axis, step)[1].astype(int)
                   for axis in (0, 1) for step in (1, -1))
        bad = np.argwhere((st == INTERIOR) & (n_ok < 2))
        if bad.size:
            j, i = (int(k) for k in bad[0])
            raise ValueError(f"degenerate mask: interior node {(j, i)} has "
                             f"{n_ok[j, i]} carried neighbors")


# lattice slices of each named boundary arc
_RECTANGLE_ARCS = {"left": np.s_[:, 0], "right": np.s_[:, -1],
                   "bottom": np.s_[0, :], "top": np.s_[-1, :]}
_ANNULUS_ARCS = {"inner": np.s_[:, 0], "outer": np.s_[:, -1]}


def _sample(dom: GridDomain, datum, where):
    """A datum (a constant, or a callable of chart (x, y)) at the nodes
    ``dom[where]``, NaN elsewhere."""
    X, Y = dom.coords()
    vals = np.full(dom.shape, np.nan)
    if callable(datum):
        vals[where] = np.asarray(datum(X[where], Y[where]), dtype=np.float64) + 0.0 * X[where]
    else:
        vals[where] = float(datum)
    return vals


def _boundary_data(dom: GridDomain, boundary, arcs):
    """Dirichlet values of ``dom`` at its BOUNDARY nodes, NaN elsewhere, by
    the module's boundary-data rule; ``arcs`` maps each arc name to its
    lattice slice, and is None where only one datum is allowed."""
    if not isinstance(boundary, dict):
        return _sample(dom, boundary, dom.status == BOUNDARY)
    if arcs is None:
        raise ValueError("per-arc boundary data needs a rectangle or an annulus")
    unknown = [name for name in boundary if name not in arcs]
    if unknown:
        raise ValueError(f"unknown boundary arc {unknown[0]!r}; choose from {tuple(arcs)}")
    vals = np.full(dom.shape, np.nan)
    seen = np.zeros(dom.shape, dtype=bool)
    for name, arc in arcs.items():
        v = _sample(dom, boundary.get(name, 0.0), arc)[arc]
        vals[arc] = np.where(seen[arc], 0.5 * (vals[arc] + v), v)
        seen[arc] = True
    return vals


def _axes(dom: GridDomain):
    """(start, step, count) of lattice axes 0 and 1: (y, x) on cartesian
    lattices, (theta, r) on polar ones."""
    n1, n0 = dom.shape
    if dom.kind == "cartesian":
        return (dom.y_start, dom.hy, n1), (dom.x_start, dom.hx, n0)
    return (0.0, dom.ht, n1), (dom.r_start, dom.hr, n0)


def _axis_map(src, dst):
    """For each node of the axis ``dst``, the index of the node of the axis
    ``src`` at the same position, or -1; each axis is (start, step, count)."""
    (s0, h0, n0), (s1, h1, n1) = src, dst
    f = (s1 + h1 * np.arange(n1) - s0) / h0
    k = np.rint(f)
    return np.where((np.abs(f - k) <= 1e-9) & (k >= 0) & (k < n0), k, -1).astype(np.int64)


def coincident_nodes(src: GridDomain, dst: GridDomain) -> np.ndarray:
    """For each node of ``dst``, the flat index of the node of ``src`` at the
    same chart point, or -1 where there is none.

    A node coincides when its position, measured in the steps of ``src``,
    is a whole index to within 1e-9 on both axes, so lattices with unequal
    steps (``rectangle`` snaps each step to its own extent) are tested
    rather than assumed to line up.  Lattices of different kinds, or polar
    lattices about different centres, share no node.
    """
    if src.kind != dst.kind or (src.kind == "polar"
                                and tuple(src.center) != tuple(dst.center)):
        return np.full(dst.shape, -1, dtype=np.int64)
    (a0, a1), (b0, b1) = _axes(src), _axes(dst)
    J, I = np.meshgrid(_axis_map(a0, b0), _axis_map(a1, b1), indexing="ij")
    return np.where((J >= 0) & (I >= 0), J * src.shape[1] + I, -1)


@dataclass
class ScalarGrid:
    """Node values over the carried nodes of a GridDomain (NaN elsewhere)."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.domain.shape:
            raise ValueError("values shape must match the domain lattice")
        m = self.domain.carried() & (self.domain.status != BRIDGE)
        if np.any(~np.isfinite(self.values[m])):
            raise ValueError("grid values must be finite at carried nodes")

    @staticmethod
    def from_function(dom: GridDomain, f) -> "ScalarGrid":
        return ScalarGrid(dom, _sample(dom, f, dom.carried()))

    @staticmethod
    def zeros(dom: GridDomain) -> "ScalarGrid":
        return ScalarGrid.from_function(dom, 0.0)

    def copy(self) -> "ScalarGrid":
        return ScalarGrid(self.domain, self.values.copy())

    def as_field(self):
        """A ScalarField backed by bilinear sampling of this grid."""
        from .fields import ScalarField
        return ScalarField(fn=lambda x, y: self.sample(x, y))

    def transfer(self, target: GridDomain) -> "ScalarGrid":
        """These values carried onto the lattice ``target``.

        A node of ``target`` that coincides with a node of this lattice (see
        :func:`coincident_nodes`) copies its value exactly; any other
        carried node interpolates bilinearly (cartesian lattices only).
        Dirichlet data and bridge values come from ``target``: its boundary
        nodes take its ``bdata`` and each bridge node the mean of its pair.
        """
        idx = coincident_nodes(self.domain, target)
        vals = np.full(target.shape, np.nan)
        hit = idx >= 0
        vals[hit] = self.values.ravel()[idx[hit]]
        rest = target.carried() & ~hit
        if np.any(rest):
            X, Y = target.coords()
            vals[rest] = self.sample(X[rest], Y[rest])
        bnd = target.status == BOUNDARY
        vals[bnd] = target.bdata[bnd]
        vals[~target.carried()] = np.nan
        for p, (q1, q2) in target.bridges.items():
            vals[p] = 0.5 * (vals[q1] + vals[q2])
        return ScalarGrid(target, vals)

    def sample(self, x, y):
        """Bilinear interpolation on cartesian grids; NaN outside carried cells."""
        dom = self.domain
        if dom.kind != "cartesian":
            raise ValueError("sampling is implemented for cartesian grids")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        fi = (x - dom.x_start) / dom.hx
        fj = (y - dom.y_start) / dom.hy
        n1, n0 = dom.shape
        i0 = np.clip(np.floor(fi).astype(int), 0, n0 - 2)
        j0 = np.clip(np.floor(fj).astype(int), 0, n1 - 2)
        tx = fi - i0
        ty = fj - j0
        inside = (fi >= -1e-12) & (fi <= n0 - 1 + 1e-12) & (fj >= -1e-12) & (fj <= n1 - 1 + 1e-12)
        v = (self.values[j0, i0] * (1 - tx) * (1 - ty)
             + self.values[j0, i0 + 1] * tx * (1 - ty)
             + self.values[j0 + 1, i0] * (1 - tx) * ty
             + self.values[j0 + 1, i0 + 1] * tx * ty)
        return np.where(inside, v, np.nan)
