"""Discrete Killing-graph geometry on lattice domains.

Pointwise operations (generalized gradient, area element, angle function,
factorization pairing) use second-order central differences at interior
nodes, evaluated at the one node asked for.  The mean-curvature residual
uses a conservative flux form: fluxes live on half-edges, coefficients are
arithmetic node averages, the normal derivative is the one-sided
difference across the edge, and the area element at the half-edge is
computed from the half-edge gradient.  The lattice geometry (axis steps h0
and h1, the scale g of axis-0 lengths, each row's frame angle) and each
node's neighbours (theta wraps) come from the domain, so one set of
formulas serves cartesian and polar lattices.

The same edge tables drive the residual, the exact Jacobian and the
discrete divergence-theorem check, so the three are consistent by
construction.  One flux kernel serves the Newton residual and the Picard
residual (area element frozen); the residual is one scatter into the
unknown rows.  The unknowns are numbered once, in the lattice's
nested-dissection order (:meth:`GridDomain.dissection`), and the solver
factors the Jacobian in that numbering.

The Jacobian's CSR structure is read off the stencil once per
AssemblyCache.  A Jacobian entry is a place in one product buffer: each edge
family's (6, 2, m) block of flux derivatives (by stencil node B, A and the
four tangential nodes) times the coefficients of the edge's two rows, then
the bridge constants.  Each unknown row lists at most 27 entries in a fixed
order (family, stencil node, side; then a bridge row's three), and scipy's
``sort_indices`` over those lists gives every entry its CSR slot and each
slot the order in which ``coo_matrix.tocsr`` would sum its entries.  Each
call fills the product buffer and sums it into the slots, with the same bits
as a COO-to-CSR conversion and without its sorts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fields import as_field
from .grids import INTERIOR, GridDomain, ScalarGrid
from .models import MetricModel


def raw_grid(dom: GridDomain, values: np.ndarray) -> ScalarGrid:
    """ScalarGrid wrapper that skips finiteness validation (diagnostic grids
    legitimately carry NaN at non-interior nodes)."""
    g = object.__new__(ScalarGrid)
    g.domain = dom
    g.values = values
    return g


class NodeFields:
    """Metric data sampled at the carried nodes of a lattice."""

    def __init__(self, model: MetricModel, dom: GridDomain):
        self.model = model
        self.dom = dom
        n1, n0 = dom.shape
        X, Y = dom.coords()
        self.X, self.Y = X, Y
        carried = dom.carried()
        Xc, Yc = X[carried], Y[carried]
        outside = np.flatnonzero(~model.valid(Xc, Yc))
        if len(outside):
            k = outside[0]
            raise ValueError(f"lattice node ({Xc[k]:.6g}, {Yc[k]:.6g}) lies outside the chart "
                             f"of model {model.name!r}")

        def at(f):
            out = np.full((n1, n0), np.nan)
            out[carried] = f.value(Xc, Yc)
            return out

        self.LAM = at(model.lam)
        self.MU = at(model.mu)
        A = at(model.a)
        B = at(model.b)
        (_, self.h0, _), (_, self.h1, _) = dom.axes()
        self.g, self.g_mid, angle = dom.metric()
        t = angle[:, None]
        ct, st = np.cos(t), np.sin(t)
        self.AN1 = A * ct + B * st      # connection component along axis 1
        self.AT1 = -A * st + B * ct     # connection component along axis 0

    def _gradient(self, v: np.ndarray, jj, ii):
        """(G1, G2) at the interior nodes (jj, ii), arrays or one node, by
        central differences."""
        n0 = self.dom.shape[1]
        up, down = (self.dom.neighbors(0, step, (jj, ii))[0] // n0 for step in (1, -1))
        du1 = (v[jj, ii + 1] - v[jj, ii - 1]) / (2 * self.h1)
        du0 = (v[up, ii] - v[down, ii]) / (2 * self.h0 * self.g[ii])
        lam = self.LAM[jj, ii]
        return du1 / lam - self.AN1[jj, ii], du0 / lam - self.AT1[jj, ii]

    def gradient_arrays(self, values: np.ndarray):
        """Orthonormal (G1, G2) of the generalized gradient at interior nodes."""
        G1, G2 = np.full((2,) + self.dom.shape, np.nan)
        jj, ii = np.nonzero(self.dom.interior_mask())
        G1[jj, ii], G2[jj, ii] = self._gradient(values, jj, ii)
        return G1, G2


# ---------------------------------------------------------------------------
# Assembly cache

@dataclass
class _EdgeFamily:
    A: np.ndarray          # flat node index, minus side
    B: np.ndarray          # flat node index, plus side
    lam: np.ndarray        # edge-averaged lambda
    mu2: np.ndarray        # edge-averaged mu, squared
    an: np.ndarray         # normal connection component (edge-averaged)
    at: np.ndarray         # tangential connection component (edge-averaged)
    len_n: np.ndarray      # normal length scale (denominator of du)
    coef: np.ndarray       # flux coefficient gmul * lam * mu2 (gmul = g_mid on axis-1 edges)
    t_ids: np.ndarray      # (m, 4) stencil ids of the tangential form
    t_w: np.ndarray        # (m, 4) weights of the tangential form
    cA: np.ndarray         # +coefficient into the PDE row of A (0 if none)
    cB: np.ndarray         # -coefficient into the PDE row of B (0 if none)
    rowA: np.ndarray       # unknown row of A (-1 when not a PDE row)
    rowB: np.ndarray
    htrans: np.ndarray     # transverse length for boundary-flux bookkeeping


class AssemblyCache(NodeFields):
    """Static tables binding a MetricModel to a GridDomain.

    Besides the edge families it holds the residual's scatter rows and the
    Jacobian's fixed CSR slots, both built once here.
    """

    def __init__(self, model: MetricModel, dom: GridDomain):
        super().__init__(model, dom)
        n1, n0 = dom.shape
        self.n1, self.n0 = n1, n0
        st = dom.status

        # the one numbering of the unknowns: the lattice's nested dissection
        order = dom.dissection()
        flat_unknown = order[dom.unknown_mask().ravel()[order]]
        self.unknown_ids = np.full(n1 * n0, -1, dtype=np.int64)
        self.unknown_ids[flat_unknown] = np.arange(flat_unknown.size)
        self.n_unknowns = flat_unknown.size
        self.flat_unknown = flat_unknown
        self.pde_row_mask = st.ravel()[flat_unknown] == INTERIOR

        lam2 = self.LAM ** 2
        self.inv_fac = 1.0 / (lam2 * self.g)
        self.cell = lam2 * self.g * self.h1 * self.h0

        self.slope0_ids, self.slope0_w = self._slope_form(axis=0)
        self.slope1_ids, self.slope1_w = self._slope_form(axis=1)
        self.families = (self._build_family(axis=1), self._build_family(axis=0))

        # bridge rows u_p - (u_q1 + u_q2) / 2, as (nb, 3) node arrays [p, q1, q2]
        bridge = np.array([[j * n0 + i for j, i in (p, *pair)]
                           for p, pair in dom.bridges.items()], dtype=np.int64).reshape(-1, 3)
        self.bridge_nodes = bridge
        self.bridge_rows = self.unknown_ids[bridge[:, 0]]

        # one scatter: rowA then rowB per family; non-PDE rows land in a
        # spare slot n_unknowns that is dropped
        scatter = np.concatenate([r for fam in self.families for r in (fam.rowA, fam.rowB)])
        self._scatter_rows = np.where(scatter >= 0, scatter, self.n_unknowns)

        # an entry of the Jacobian is a place in one product buffer: each
        # family's (6, 2, m) block (stencil node B, A, then the tangential
        # form's four; side A row, side B row; edge), then the bridge constants
        self._blocks = np.cumsum([0] + [12 * fam.A.size for fam in self.families])
        self._bridge_vals = np.tile([1.0, -0.5, -0.5], len(bridge))
        self._capture_slots()

    def _capture_slots(self) -> None:
        """Fix the CSR slot of every Jacobian entry and the order in which
        ``coo_matrix.tocsr`` would sum each slot's entries.

        ``tocsr`` buckets the entries by row in the order of the product
        buffer, sorts each row with ``sort_indices`` and sums runs of equal
        columns left to right.  So a row lists its family entries family by
        family, stencil node by stencil node, side A before side B (one edge
        per side: the edge with the row's node at that end), then a bridge
        row's p, q1 and q2.  That table of at most 27 entries per row is read
        off the stencil; the same ``sort_indices`` over its entry ids then
        yields ``tocsr``'s order, so :meth:`jacobian` reproduces its values
        bit for bit.
        """
        n = self.n_unknowns
        # one table row per place in a Jacobian row, one column per unknown
        places = 12 * len(self.families) + 3
        ids = np.empty((places, n), dtype=np.int32)
        cols = np.empty((places, n), dtype=np.int32)
        unknown = self.unknown_ids.astype(np.int32)
        for f, (fam, start) in enumerate(zip(self.families, self._blocks.tolist())):
            m = fam.A.size
            # the edge whose A end, and whose B end, is the row's node (m: none);
            # the rows -1 of nodes that are not PDE rows land in a spare slot n
            e = np.full((2, n + 1), m, dtype=np.int32)
            e[0, fam.rowA] = e[1, fam.rowB] = np.arange(m, dtype=np.int32)
            e = e[:, :n]
            # each edge's stencil columns, and none past the last edge
            stencil = np.full((6, m + 1), -1, dtype=np.int32)
            for s, nodes in enumerate((fam.B, fam.A, *fam.t_ids.T)):
                np.take(unknown, nodes, out=stencil[s, :m])
            np.take(stencil, e, axis=1, out=cols[12 * f:12 * f + 12].reshape(6, 2, n))
            np.add(e, (start + m * np.arange(12, dtype=np.int32)).reshape(6, 2, 1),
                   out=ids[12 * f:12 * f + 12].reshape(6, 2, n))
        cols[-3:] = -1
        cols[-3:, self.bridge_rows] = self.unknown_ids[self.bridge_nodes].T
        ids[-3:, self.bridge_rows] = (self._blocks[-1]
                                      + np.arange(self._bridge_vals.size).reshape(-1, 3)).T
        keep = cols.T >= 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        S = sp.csr_matrix((ids.T[keep], cols.T[keep], indptr), shape=(n, n))
        S.sort_indices()
        ids, cols = S.data, S.indices
        # an entry opens a slot at the start of its row or at a new column
        opens = np.ones(ids.size, dtype=bool)
        opens[1:] = cols[1:] != cols[:-1]
        opens[indptr[:-1][np.diff(indptr) > 0]] = True
        starts = np.flatnonzero(opens).astype(np.int32)
        self._jac_indices = cols[starts]
        self._jac_indptr = np.searchsorted(starts, indptr).astype(np.int32)
        # the k-th summand of every slot with more than k entries
        counts = np.diff(np.append(starts, ids.size))
        self._slot_first = ids[starts]
        self._slot_rest = []
        for k in range(1, int(counts.max(initial=1))):
            slots = np.flatnonzero(counts > k).astype(np.int32)
            self._slot_rest.append((slots, ids[starts[slots] + k]))

    # -- per-node directional slope forms -----------------------------------

    def _slope_form(self, axis: int):
        """Central or one-sided difference form along ``axis`` at every node:
        (n1, n0, 2) flat node ids (plus, minus) and weights.  A node with no
        carried neighbour on the axis gets a zero-weight form anchored on
        itself, so padded entries never touch NaN values."""
        dom = self.dom
        d = self.h0 * self.g if axis == 0 else self.h1
        here = np.arange(self.n1 * self.n0).reshape(self.n1, self.n0)
        nb_p, ok_p = dom.neighbors(axis, 1)
        nb_m, ok_m = dom.neighbors(axis, -1)
        ids = np.stack([np.where(ok_p, nb_p, here), np.where(ok_m, nb_m, here)], axis=-1)
        w = np.where(ok_p & ok_m, 0.5, np.where(ok_p | ok_m, 1.0, 0.0)) / d
        return ids, np.stack([w, -w], axis=-1)

    # -- edge families -------------------------------------------------------

    def _build_family(self, axis: int) -> _EdgeFamily:
        dom = self.dom
        n0 = self.n0
        sflat = dom.status.ravel()

        # an edge joins a carried node A to its carried neighbour B one step
        # along ``axis``, one of the two interior; in ascending flat index of A
        nb, ok = (a.ravel() for a in dom.neighbors(axis, 1))
        inner = dom.interior_mask().ravel()
        Af = np.flatnonzero(ok & dom.carried().ravel() & (inner | inner[nb]))
        Bf = nb[Af]
        stA, stB = sflat[Af], sflat[Bf]

        avg = lambda arr: 0.5 * (arr.ravel()[Af] + arr.ravel()[Bf])
        lam_e = avg(self.LAM)
        mu2_e = avg(self.MU) ** 2
        an_e = avg(self.AN1) if axis == 1 else avg(self.AT1)
        at_e = avg(self.AT1) if axis == 1 else avg(self.AN1)

        # the lattice step across the edge, the edge's length, the scale g of
        # the transverse length at its midpoint, and the transverse step
        col = Af % n0
        div = self.h1 if axis == 1 else self.h0
        len_n = np.full(Af.shape, div) if axis == 1 else div * self.g[col]
        gmul = self.g_mid[col] if axis == 1 else 1.0
        htrans = np.full(Af.shape, self.h0 if axis == 1 else self.h1)

        s_ids = (self.slope0_ids if axis == 1 else self.slope1_ids).reshape(-1, 2)
        s_w = (self.slope0_w if axis == 1 else self.slope1_w).reshape(-1, 2)
        t_ids = np.concatenate([s_ids[Af], s_ids[Bf]], axis=1)
        t_w = 0.5 * np.concatenate([s_w[Af], s_w[Bf]], axis=1)

        inv = self.inv_fac.ravel()
        rowA = self.unknown_ids[Af].copy()
        rowB = self.unknown_ids[Bf].copy()
        rowA[stA != INTERIOR] = -1
        rowB[stB != INTERIOR] = -1
        cA = np.where(rowA >= 0, inv[Af] / div, 0.0)
        cB = np.where(rowB >= 0, inv[Bf] / div, 0.0)

        return _EdgeFamily(A=Af, B=Bf, lam=lam_e, mu2=mu2_e, an=an_e, at=at_e,
                           len_n=len_n, coef=gmul * lam_e * mu2_e, t_ids=t_ids, t_w=t_w,
                           cA=cA, cB=cB, rowA=rowA, rowB=rowB, htrans=htrans)

    # -- flux evaluation -------------------------------------------------------

    def _edge_state(self, fam: _EdgeFamily, u_flat: np.ndarray, Wf=None):
        """(G1, G2, W, flux) on the edges of ``fam``; with a frozen area
        element ``Wf`` the flux is the Picard form coef * G1 / Wf, which
        reads neither G2 nor W, so both are None."""
        d = (u_flat[fam.B] - u_flat[fam.A]) / fam.len_n
        G1 = d / fam.lam - fam.an
        if Wf is not None:
            return G1, None, None, fam.coef * G1 / Wf
        t = np.einsum("ek,ek->e", fam.t_w, u_flat[fam.t_ids])
        G2 = t / fam.lam - fam.at
        W = np.sqrt(1.0 + fam.mu2 * (G1 * G1 + G2 * G2))
        return G1, G2, W, fam.coef * G1 / W

    def residual(self, u_grid: np.ndarray, rhs: np.ndarray,
                 frozen_W: Optional[list] = None) -> np.ndarray:
        """PDE residual + bridge constraints over the unknown rows.

        ``u_grid`` is the full lattice array (Dirichlet values baked in);
        ``rhs`` is the nodal 2*mu*H array.  With ``frozen_W`` (per-family W
        arrays) the flux is coef * G1 / W_frozen: the Picard residual.
        """
        u_flat = u_grid.ravel()
        parts = []
        for fam, Wf in zip(self.families, frozen_W or (None, None)):
            flux = self._edge_state(fam, u_flat, Wf)[3]
            parts += [flux * fam.cA, -flux * fam.cB]
        F = np.bincount(self._scatter_rows, np.concatenate(parts),
                        self.n_unknowns + 1)[:-1]
        F[self.pde_row_mask] -= rhs.ravel()[self.flat_unknown[self.pde_row_mask]]
        p, q1, q2 = self.bridge_nodes.T
        F[self.bridge_rows] = u_flat[p] - 0.5 * (u_flat[q1] + u_flat[q2])
        return F

    def interior_grid(self, F: np.ndarray) -> ScalarGrid:
        """The PDE rows of a :meth:`residual` on the lattice, NaN elsewhere."""
        out = np.full(self.dom.shape, np.nan)
        out.ravel()[self.flat_unknown[self.pde_row_mask]] = F[self.pde_row_mask]
        return raw_grid(self.dom, out)

    def jacobian(self, u_grid: np.ndarray, frozen_W: Optional[list] = None) -> sp.csr_matrix:
        """Exact Jacobian of :meth:`residual`.

        With ``frozen_W`` (per-family W arrays) the flux is linearized as
        coef * G1 / W_frozen: the Picard operator.
        """
        u_flat = u_grid.ravel()
        vals = np.empty(self._blocks[-1] + self._bridge_vals.size)
        for fam, start, Wf in zip(self.families, self._blocks, frozen_W or (None, None)):
            self._products(fam, u_flat, Wf, vals[start:start + 12 * fam.A.size].reshape(6, 2, -1))
        vals[self._blocks[-1]:] = self._bridge_vals
        data = vals[self._slot_first]
        for slots, ids in self._slot_rest:
            # slots are distinct within a level: data[slots] += vals[ids], in place
            np.add.at(data, slots, vals[ids])
        # each matrix owns its structure, so in-place edits leave the cache intact
        J = sp.csr_matrix((data, self._jac_indices.copy(), self._jac_indptr.copy()),
                          shape=(self.n_unknowns, self.n_unknowns))
        J.has_canonical_format = True
        return J

    def _products(self, fam: _EdgeFamily, u_flat: np.ndarray, Wf, block: np.ndarray) -> None:
        """The flux's derivative by each stencil node, times the side A and
        side B rows' coefficients, into the family's (6, 2, m) ``block``
        (a method of its own, so its temporaries are freed before the
        Jacobian's slots are summed)."""
        if Wf is not None:
            dF_dG1 = fam.coef / Wf
            dF_dG2 = np.zeros_like(dF_dG1)
        else:
            G1, G2, W, _ = self._edge_state(fam, u_flat)
            dF_dG1 = fam.coef * (W * W - fam.mu2 * G1 * G1) / W ** 3
            dF_dG2 = -fam.coef * fam.mu2 * G1 * G2 / W ** 3
        dn = dF_dG1 / (fam.len_n * fam.lam)
        sides = np.stack([fam.cA, -fam.cB])
        for k, dv in enumerate((dn, -dn, *(dF_dG2 * w / fam.lam for w in fam.t_w.T))):
            np.multiply(dv, sides, out=block[k])

    def frozen_W(self, u_grid: np.ndarray) -> list:
        u_flat = u_grid.ravel()
        return [self._edge_state(fam, u_flat)[2] for fam in self.families]

    def flux_balance(self, u_grid: np.ndarray):
        """(volume sum of the discrete divergence, direct boundary-flux sum).

        The flux form telescopes, so the two agree to rounding.
        """
        u_flat = u_grid.ravel()
        F = self.residual(u_grid, np.zeros(self.dom.shape))
        cellw = self.cell.ravel()[self.flat_unknown]
        volume = float(np.sum(F[self.pde_row_mask] * cellw[self.pde_row_mask]))
        boundary = 0.0
        for fam in self.families:
            flux = self._edge_state(fam, u_flat)[3]
            outgoing = (fam.rowA >= 0) & (fam.rowB < 0)
            incoming = (fam.rowB >= 0) & (fam.rowA < 0)
            boundary += float(np.sum(flux[outgoing] * fam.htrans[outgoing]))
            boundary -= float(np.sum(flux[incoming] * fam.htrans[incoming]))
        return volume, boundary


# ---------------------------------------------------------------------------
# Pointwise graph geometry

def generalized_gradient(model: MetricModel, u: ScalarGrid, node,
                         fields: Optional[NodeFields] = None):
    """(G1, G2) at one interior node: (u_x/lambda - a, u_y/lambda - b) in the
    orthonormal chart frame (radial/angular frame on polar grids): the
    differences of :meth:`NodeFields.gradient_arrays` at this node alone,
    with the same bits."""
    nf = fields or NodeFields(model, u.domain)
    # numpy's index rules, as the lattice arrays read the node: a negative
    # index wraps and one out of range raises IndexError
    j, i = (range(n)[k] for n, k in zip(u.domain.shape, node))
    if u.domain.status[j, i] == INTERIOR:
        g1, g2 = nf._gradient(u.values, j, i)
        if np.isfinite(g1):
            return float(g1), float(g2)
    raise ValueError(f"node {node} is not interior")


def area_element(model: MetricModel, u: ScalarGrid, node,
                 fields: Optional[NodeFields] = None) -> float:
    nf = fields or NodeFields(model, u.domain)
    g1, g2 = generalized_gradient(model, u, node, fields=nf)
    mu = float(nf.MU[node])
    return float(np.sqrt(1.0 + mu ** 2 * (g1 ** 2 + g2 ** 2)))


def angle_function(model: MetricModel, u: ScalarGrid, node,
                   fields: Optional[NodeFields] = None) -> float:
    nf = fields or NodeFields(model, u.domain)
    return float(nf.MU[node]) / area_element(model, u, node, fields=nf)


def _node_pair(model, u, v, node, fields):
    """(gu, gv, mu, Wu, Wv): both gradients, mu and both area elements at a node."""
    nf = fields or NodeFields(model, u.domain)
    gu, gv = (generalized_gradient(model, w, node, fields=nf) for w in (u, v))
    mu = float(nf.MU[node])
    Wu, Wv = (np.sqrt(1.0 + mu ** 2 * (g[0] ** 2 + g[1] ** 2)) for g in (gu, gv))
    return gu, gv, mu, Wu, Wv


def factorization_gap(model: MetricModel, u: ScalarGrid, v: ScalarGrid, node,
                      fields: Optional[NodeFields] = None) -> float:
    """Pairing <Gu/Wu - Gv/Wv, Gu - Gv> at a node; >= 0, zero exactly when
    the discrete gradients coincide."""
    gu, gv, _, Wu, Wv = _node_pair(model, u, v, node, fields)
    return float((gu[0] / Wu - gv[0] / Wv) * (gu[0] - gv[0])
                 + (gu[1] / Wu - gv[1] / Wv) * (gu[1] - gv[1]))


def factorization_identity_rhs(model: MetricModel, u: ScalarGrid, v: ScalarGrid,
                               node, fields: Optional[NodeFields] = None) -> float:
    """(Wu + Wv)/(2 mu^2) |Nu - Nv|^2, the normal-gap side of the
    factorization identity, with the vertical part (1/Wu - 1/Wv)^2 included."""
    gu, gv, mu, Wu, Wv = _node_pair(model, u, v, node, fields)
    horiz = ((mu * gu[0] / Wu - mu * gv[0] / Wv) ** 2
             + (mu * gu[1] / Wu - mu * gv[1] / Wv) ** 2)
    vert = (1.0 / Wu - 1.0 / Wv) ** 2
    return float((Wu + Wv) / (2.0 * mu ** 2) * (horiz + vert))


# ---------------------------------------------------------------------------
# Public residual

def nodal_rhs(model: MetricModel, dom: GridDomain, H=None) -> np.ndarray:
    """2*mu*H at every carried node (zeros when H is None)."""
    out = np.zeros(dom.shape)
    if H is None:
        return out
    Hf = as_field(H)
    X, Y = dom.coords()
    m = dom.carried()
    out[m] = 2.0 * model.mu.value(X[m], Y[m]) * Hf.value(X[m], Y[m])
    return out


def mean_curvature_residual(model: MetricModel, u: ScalarGrid, H=None) -> ScalarGrid:
    """Flux-form residual F(u) at interior nodes (NaN elsewhere).

    Solutions of the prescribed-curvature problem satisfy F(u) = 0.
    """
    cache = AssemblyCache(model, u.domain)
    return cache.interior_grid(cache.residual(u.values, nodal_rhs(model, u.domain, H)))
