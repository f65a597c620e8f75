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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
                  boundary=None) -> "GridDomain":
        """Full rectangle with spacing ~h (snapped so nodes land on corners).

        ``boundary`` is a callable (x, y) -> value, a constant, or a dict with
        keys among left/right/bottom/top (callables of the arc coordinate or
        constants); corners average the two adjacent arcs.
        """
        nx = max(2, int(round((x1 - x0) / h))) + 1
        ny = max(2, int(round((y1 - y0) / h))) + 1
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        status = np.full((ny, nx), INTERIOR, dtype=np.int8)
        status[0, :] = status[-1, :] = BOUNDARY
        status[:, 0] = status[:, -1] = BOUNDARY
        dom = GridDomain(kind="cartesian", status=status,
                         bdata=np.full((ny, nx), np.nan),
                         x_start=x0, y_start=y0, hx=hx, hy=hy)
        dom.set_rectangle_boundary(boundary)
        dom._check()
        return dom

    def set_rectangle_boundary(self, boundary):
        X, Y = self.coords()
        ny, nx = self.status.shape
        vals = np.full((ny, nx), np.nan)
        if boundary is None:
            boundary = 0.0
        if isinstance(boundary, dict):
            def arc(spec, coord):
                if callable(spec):
                    return np.asarray(spec(coord), dtype=np.float64) + 0.0 * coord
                return np.full_like(coord, float(spec))

            left = arc(boundary.get("left", 0.0), Y[:, 0])
            right = arc(boundary.get("right", 0.0), Y[:, -1])
            bottom = arc(boundary.get("bottom", 0.0), X[0, :])
            top = arc(boundary.get("top", 0.0), X[-1, :])
            vals[:, 0] = left
            vals[:, -1] = right
            vals[0, :] = bottom
            vals[-1, :] = top
            # jump nodes at corners: average of the two one-sided limits
            vals[0, 0] = 0.5 * (left[0] + bottom[0])
            vals[-1, 0] = 0.5 * (left[-1] + top[0])
            vals[0, -1] = 0.5 * (right[0] + bottom[-1])
            vals[-1, -1] = 0.5 * (right[-1] + top[-1])
            corners = boundary.get("corners", {})
            for (j, i), v in corners.items():
                vals[j, i] = float(v)
        elif callable(boundary):
            m = self.status == BOUNDARY
            vals[m] = np.asarray(boundary(X[m], Y[m]), dtype=np.float64) + 0.0 * X[m]
        else:
            vals[self.status == BOUNDARY] = float(boundary)
        self.bdata = np.where(self.status == BOUNDARY, vals, np.nan)

    @staticmethod
    def annulus(r0: float, r1: float, nr: int, ntheta: int,
                inner=0.0, outer=0.0, center=(0.0, 0.0)) -> "GridDomain":
        """Full polar annulus r0 <= r <= r1, theta periodic.

        ``inner``/``outer`` are constants or callables of theta.
        """
        if r0 <= 0:
            raise ValueError("annulus needs r0 > 0 (pole excluded)")
        hr = (r1 - r0) / nr
        ht = 2 * np.pi / ntheta
        status = np.full((ntheta, nr + 1), INTERIOR, dtype=np.int8)
        status[:, 0] = status[:, -1] = BOUNDARY
        bdata = np.full((ntheta, nr + 1), np.nan)
        t = ht * np.arange(ntheta)
        bdata[:, 0] = inner(t) if callable(inner) else float(inner)
        bdata[:, -1] = outer(t) if callable(outer) else float(outer)
        dom = GridDomain(kind="polar", status=status, bdata=bdata,
                         r_start=r0, hr=hr, ht=ht, center=center, periodic=True)
        dom._check()
        return dom

    @staticmethod
    def masked(x0: float, x1: float, y0: float, y1: float, h: float,
               keep: Callable, boundary=0.0) -> "GridDomain":
        """Masked cartesian lattice: nodes with keep(x, y) true are carried.

        Carried nodes whose 4-neighborhood is fully carried are interior;
        the rest are boundary and take Dirichlet data from ``boundary``.
        """
        nx = max(2, int(round((x1 - x0) / h))) + 1
        ny = max(2, int(round((y1 - y0) / h))) + 1
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        x = x0 + hx * np.arange(nx)
        y = y0 + hy * np.arange(ny)
        X, Y = np.meshgrid(x, y)
        keep_m = np.asarray(keep(X, Y), dtype=bool)
        status = np.where(keep_m, INTERIOR, EXCLUDED).astype(np.int8)
        inner = keep_m.copy()
        inner[[0, -1], :] = False
        inner[:, [0, -1]] = False
        inner[1:-1, 1:-1] &= (keep_m[:-2, 1:-1] & keep_m[2:, 1:-1]
                              & keep_m[1:-1, :-2] & keep_m[1:-1, 2:])
        status[keep_m & ~inner] = BOUNDARY
        bdata = np.full((ny, nx), np.nan)
        bm = status == BOUNDARY
        if callable(boundary):
            bdata[bm] = np.asarray(boundary(X[bm], Y[bm]), dtype=np.float64) + 0.0 * X[bm]
        else:
            bdata[bm] = float(boundary)
        dom = GridDomain(kind="cartesian", status=status, bdata=bdata,
                         x_start=x0, y_start=y0, hx=hx, hy=hy)
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
        new = GridDomain(kind=self.kind, status=self.status.copy(),
                         bdata=self.bdata.copy(),
                         x_start=self.x_start, y_start=self.y_start,
                         hx=self.hx, hy=self.hy, r_start=self.r_start,
                         hr=self.hr, ht=self.ht, center=self.center,
                         periodic=self.periodic, bridges=dict(self.bridges))
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
        X, Y = dom.coords()
        vals = np.full(dom.shape, np.nan)
        m = dom.carried()
        vals[m] = np.asarray(f(X[m], Y[m]), dtype=np.float64) + 0.0 * X[m]
        return ScalarGrid(dom, vals)

    @staticmethod
    def zeros(dom: GridDomain) -> "ScalarGrid":
        vals = np.where(dom.carried(), 0.0, np.nan)
        return ScalarGrid(dom, vals)

    def copy(self) -> "ScalarGrid":
        return ScalarGrid(self.domain, self.values.copy())

    def as_field(self):
        """A ScalarField backed by bilinear sampling of this grid."""
        from .fields import ScalarField
        return ScalarField(fn=lambda x, y: self.sample(x, y))

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
