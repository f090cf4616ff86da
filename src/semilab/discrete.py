"""Sparse assembly of the sesquilinear form on a box grid with zero boundary.

Interior nodes are vertex-centered (x_k = lower_k + i*h_k, i = 1..n_k-1) and
the boundary value is zero.  Degrees of freedom are node-major: dof(n, i) =
n*m + i for node n and component i.  The quadrature weight is the constant
cell volume, so the mass operator is vol * identity.

Scheme: harmonic face averaging for the diagonal scalar diffusion q_hh,
nodal centered differences for the off-diagonal q_hk, the second-order
coupling blocks, and both first-order terms; nodal potential.  Centered
differences keep the real-part identity that the sign test relies on.

The discrete adjoint form is the transpose of S, so ``assemble_adjoint``
transposes the assembled matrix instead of assembling the transposed
coefficient blocks; the duality S* = S^T then holds to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BoxDomain, CoefficientSystem, sample


@dataclass(frozen=True)
class DiscreteForm:
    """Assembled sparse form S and diagonal mass weight over grid vectors."""

    grid: BoxDomain
    m: int
    S: sp.csr_matrix
    mass: float  # uniform cell volume; M = mass * I

    @property
    def ndof(self) -> int:
        return self.grid.node_count * self.m


def _canonical_csr(rows, cols, vals, ndof) -> sp.csr_matrix:
    """Sum duplicate triplets in a fixed order.

    Stable lexsort keeps duplicates in emission order within each (row, col)
    group, so every entry is summed in the same order on every run.
    """
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.ones(len(rows), dtype=bool)
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(vals, starts)
    out = sp.csr_matrix(
        (summed, (rows[starts], cols[starts])), shape=(ndof, ndof)
    )
    return out


class _Emitter:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, r, c, v):
        r, c, v = np.broadcast_arrays(r, c, v)
        self.rows.append(np.asarray(r, dtype=np.int64).ravel())
        self.cols.append(np.asarray(c, dtype=np.int64).ravel())
        self.vals.append(np.asarray(v, dtype=float).ravel())


def _neighbor_tables(grid: BoxDomain):
    """For each axis h and sign s: (nodes with a neighbor, their neighbor)."""
    dims = grid.interior_shape
    lin = np.arange(grid.node_count).reshape(dims)
    tables = []
    for h in range(grid.d):
        per_sign = {}
        for s in (+1, -1):
            src = [slice(None)] * grid.d
            dst = [slice(None)] * grid.d
            if s == +1:
                src[h] = slice(0, dims[h] - 1)
                dst[h] = slice(1, dims[h])
            else:
                src[h] = slice(1, dims[h])
                dst[h] = slice(0, dims[h] - 1)
            per_sign[s] = (lin[tuple(src)].ravel(), lin[tuple(dst)].ravel())
        tables.append(per_sign)
    return tables


def _block_add(em, rnodes, cnodes, mats, m):
    """Emit dense m x m blocks mats[t] between node pairs (rnodes[t], cnodes[t])."""
    for i in range(m):
        for j in range(m):
            em.add(rnodes * m + i, cnodes * m + j, mats[:, i, j])


def _emit_triplets(system: CoefficientSystem, grid: BoxDomain):
    """Triplet stream (rows, cols, values) of the form, in emission order."""
    fields = sample(system, grid)
    d, m = grid.d, system.m
    vol = grid.cell_volume
    h = grid.h
    dims = grid.interior_shape
    N = grid.node_count
    em = _Emitter()
    nbr = _neighbor_tables(grid)

    q = fields["Q"].values  # (N, d, d) symmetric
    A = fields["A"].values  # (N, d, d, m, m)
    B = fields["B"].values  # (N, d, m, m)
    C = fields["C"].values
    VW = fields["V"].values + fields["W"].values

    # --- diagonal scalar diffusion q_hh by harmonic face averaging ---
    lin = np.arange(N).reshape(dims)
    for ax in range(d):
        qh = q[:, ax, ax]
        left, right = nbr[ax][+1]  # interior faces: (node, node + e_ax)
        qa, qb = qh[left], qh[right]
        # harmonic mean; 0 (its limit) on faces where q vanishes at both ends
        qf = np.divide(2 * qa * qb, qa + qb, out=np.zeros_like(qa),
                       where=(qa != 0) | (qb != 0))
        w = vol * qf / h[ax] ** 2
        for i in range(m):
            em.add(left * m + i, left * m + i, w)
            em.add(right * m + i, right * m + i, w)
            em.add(left * m + i, right * m + i, -w)
            em.add(right * m + i, left * m + i, -w)
        # boundary faces: one per side, weight from the interior node alone
        for side, index in ((0, 0), (1, dims[ax] - 1)):
            sel = [slice(None)] * d
            sel[ax] = index
            nodes = lin[tuple(sel)].ravel()
            w = vol * qh[nodes] / h[ax] ** 2
            for i in range(m):
                em.add(nodes * m + i, nodes * m + i, w)

    # --- centered-difference second-order blocks ---
    # effective block: A^{hk} plus q_hk I for h != k (diagonal q done above)
    eye = np.eye(m)
    for ax_h in range(d):
        for ax_k in range(d):
            blk = A[:, ax_h, ax_k].copy()
            if ax_h != ax_k:
                blk += q[:, ax_h, ax_k, None, None] * eye
            if not np.any(blk):
                continue
            scale = vol / (4 * h[ax_h] * h[ax_k])
            for sr in (+1, -1):
                rnode, rpos = nbr[ax_h][sr]  # test-function leg at rpos
                for sc in (+1, -1):
                    # restrict to nodes having both neighbors
                    cnode, cpos = nbr[ax_k][sc]
                    mask_r = np.zeros(N, dtype=bool)
                    mask_r[rnode] = True
                    mask_c = np.zeros(N, dtype=bool)
                    mask_c[cnode] = True
                    both = np.flatnonzero(mask_r & mask_c)
                    if both.size == 0:
                        continue
                    rmap = np.full(N, -1, dtype=np.int64)
                    rmap[rnode] = rpos
                    cmap = np.full(N, -1, dtype=np.int64)
                    cmap[cnode] = cpos
                    v = sr * sc * scale * blk[both]
                    _block_add(em, rmap[both], cmap[both], v, m)

    # --- first-order terms ---
    for ax in range(d):
        scale = vol / (2 * h[ax])
        bblk = B[:, ax]
        cblk = C[:, ax]
        for s in (+1, -1):
            node, pos = nbr[ax][s]
            if np.any(bblk):
                _block_add(em, node, pos, s * scale * bblk[node], m)
            if np.any(cblk):
                _block_add(em, pos, node, s * scale * cblk[node], m)

    # --- potential ---
    if np.any(VW):
        allnodes = np.arange(N)
        _block_add(em, allnodes, allnodes, vol * VW, m)

    return em, N * m


def assemble(system: CoefficientSystem, grid: BoxDomain) -> DiscreteForm:
    em, ndof = _emit_triplets(system, grid)
    S = _canonical_csr(em.rows, em.cols, em.vals, ndof)
    return DiscreteForm(grid, system.m, S, grid.cell_volume)


def assemble_adjoint(system: CoefficientSystem, grid: BoxDomain) -> DiscreteForm:
    """The adjoint form, whose matrix is exactly S^T."""
    F = assemble(system, grid)
    return DiscreteForm(grid, system.m, F.S.T.tocsr(), F.mass)


def form_value(F: DiscreteForm, u: np.ndarray, v: np.ndarray):
    """The form a(u, v) = v^H S u (conjugate-linear in the second slot); one
    value per column for (ndof, S) blocks u and v."""
    return np.sum(v.conj() * (F.S @ u), axis=0)


def omega0(F: DiscreteForm) -> float:
    """Ellipticity shift: minus the smallest eigenvalue of the symmetrized
    form against the mass weight, by shift-inverted Lanczos iteration."""
    Ssym = 0.5 * (F.S + F.S.T).tocsr()
    A = Ssym / F.mass
    diag = A.diagonal()
    offsum = np.abs(A).sum(axis=1).A1 - np.abs(diag)
    lower = float((diag - offsum).min())
    sigma = lower - 1e-3 * max(1.0, abs(lower)) - 1.0
    if A.shape[0] <= 2:
        lam = float(np.linalg.eigvalsh(A.toarray())[0])
    else:
        try:
            lam = float(spla.eigsh(A, k=1, sigma=sigma, which="LM",
                                   return_eigenvectors=False)[0])
        except (spla.ArpackNoConvergence, RuntimeError):
            lam = float(spla.eigsh(A, k=1, which="SA", maxiter=20000,
                                   return_eigenvectors=False)[0])
    return -lam


def node_norms(u: np.ndarray, m: int) -> np.ndarray:
    """Nodewise magnitude |u(x)|, the Euclidean norm across the m components;
    (N,) for a vector, (N, S) for an (ndof, S) block."""
    nodes = u.reshape(-1, m, *u.shape[1:])
    # no full-size temporary: sum the squared components in place of norm()
    return np.sqrt(np.einsum("nm...,nm...->n...", nodes.conj(), nodes).real)


def lp_power(norms: np.ndarray, p: float, vol: float):
    """||u||_p^p = vol * sum_x |u(x)|^p from the node magnitudes ``norms``;
    one value per column."""
    return vol * np.sum(norms**p, axis=0)


def _scale_nodes(u: np.ndarray, m: int, f) -> np.ndarray:
    """u with each node's components multiplied by f(|u(x)|); nodes where u
    vanishes stay zero."""
    norms = node_norms(u, m)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = f(norms[nz])
    return u * np.repeat(scale, m, axis=0)


def truncate_unit(u: np.ndarray, m: int) -> np.ndarray:
    """Nodewise (|u| /\\ 1) sign u, with sign u = 0 where u vanishes."""
    return _scale_nodes(u, m, lambda r: np.minimum(r, 1.0) / r)


def p_sign_power(u: np.ndarray, m: int, p: float) -> np.ndarray:
    """Nodewise |u|^{p-1} sign u = |u|^{p-2} u (zero where u vanishes)."""
    return _scale_nodes(u, m, lambda r: r ** (p - 2))


def nittka_value(F: DiscreteForm, u: np.ndarray, p: float):
    """Re a(u, |u|^{p-1} sign u), the discrete contractivity sign test; one
    value per column of an (ndof, S) block."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return np.real(form_value(F, u, p_sign_power(u, F.m, p)))


def nittka_shifted(F: DiscreteForm, u: np.ndarray, p: float,
                   Cgamma: float, gamma: float):
    """The sign test shifted by (C_gamma/gamma) ||u||_p^p; one value per column."""
    return (nittka_value(F, u, p)
            + (Cgamma / gamma) * lp_power(node_norms(u, F.m), p, F.mass))
