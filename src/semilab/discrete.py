"""Sparse assembly of the sesquilinear form on a box grid with zero boundary.

Interior nodes are vertex-centered (x_k = lower_k + i*h_k, i = 1..n_k-1) and
the boundary value is zero.  Degrees of freedom are node-major: dof(n, i) =
n*m + i for node n and component i.  The quadrature weight is the constant
cell volume, so the mass operator is vol * identity.

The form is a sum of sparse operator products.  Per axis h, G_h is the
unit forward difference over every face (boundary faces included) and D_h
the unit centered difference with zero boundary, both Kronecker products
with I_m on the dofs; nodal blocks enter as block-diagonal matrices:

    S = sum_h G_h^T W_h G_h  +  sum_{h,k} D_h^T blk_hk D_k
        + sum_h (B_h D_h + D_h^T C_h)  +  vol (V + W)

W_h holds vol/h_h^2 times the harmonic face means of q_hh; blk_hk is
vol/(4 h_h h_k) times A^{hk} + q_hk I for h != k and times A^{hh} for
h = k; B_h and C_h carry vol/(2 h_h).  All-zero blocks are skipped.
Centered differences keep the real-part identity that the sign test relies
on.  The terms are summed in the order written, and the output is canonical
CSR (sorted indices, no duplicates, no explicit zeros), so products with S
sum in a fixed order.  An entry of S beyond the float range is a ValueError
naming its node.

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


def _axis_operators(grid: BoxDomain, ax: int, m: int, qh: np.ndarray):
    """G^T W G, the diffusion term of q_hh, and the unit centered difference
    D along axis ``ax`` on the dofs: diagonal bands of the flat node index,
    masked at the axis edges, times I_m.

    G is the unit forward difference over every face, boundary faces
    included.  W weighs a face by vol/h^2 times the harmonic mean of q_hh at
    its ends (0 where q vanishes at both), or the node value on a boundary
    face.  With one face above and one below each dof, G^T W G is their
    weight sum on the diagonal and minus the weight of the face between two
    neighbors off it.  D is u(i + e) - u(i - e) with zero boundary.  A
    diagonal entry that is not finite (say a q so large that a weight, or
    their sum, lies beyond the float range) is a ValueError naming its node.
    """
    ndof, n = grid.node_count * m, grid.interior_shape[ax]
    stride = m * int(np.prod(grid.interior_shape[ax + 1:]))
    pos = np.arange(ndof) // stride % n
    up = pos < n - 1  # the node has a neighbor above
    qa = np.repeat(qh, m)
    qb = np.concatenate([qa[stride:], np.zeros(stride)])  # q above the node
    # a weight that is not finite is rejected below, not announced by numpy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qf = np.divide(2 * qa * qb, qa + qb, out=np.zeros(ndof),
                       where=up & ((qa != 0) | (qb != 0)))
        above = grid.cell_volume * np.where(up, qf, qa) / grid.h[ax] ** 2
        below = np.where(pos == 0, grid.cell_volume * qa / grid.h[ax] ** 2,
                         np.concatenate([np.zeros(stride),
                                         above[:ndof - stride]]))
        diag = above + below
    finite = np.isfinite(diag)
    if not finite.all():
        node = grid.node(int(np.argmin(finite)) // m)
        raise ValueError(f"diffusion face weight along x{ax + 1} is not "
                         f"finite at node {node}")
    upper = up[:ndof - stride].astype(float)
    inner = -above[:ndof - stride] * upper
    return (sp.diags([diag, inner, inner], [0, stride, -stride],
                     format="csr"),
            sp.diags([upper, -upper], [stride, -stride], shape=(ndof, ndof),
                     format="csr"))


def _nodal(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix of the per-node m x m blocks (N, m, m); its zero
    entries are stored, and the sparse sums and products drop them."""
    N, m, _ = blocks.shape
    cols = np.broadcast_to(np.arange(N * m).reshape(N, 1, m), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), cols.ravel(),
                          np.arange(0, N * m * m + 1, m)), shape=(N * m,) * 2)


def assemble(system: CoefficientSystem, grid: BoxDomain) -> DiscreteForm:
    fields = sample(system, grid)
    d, m = grid.d, system.m
    vol, h = grid.cell_volume, grid.h
    q = fields["Q"].values  # (N, d, d) symmetric
    A = fields["A"].values  # (N, d, d, m, m)
    B = fields["B"].values  # (N, d, m, m)
    C = fields["C"].values
    GWG, D = zip(*(_axis_operators(grid, ax, m, q[:, ax, ax])
                   for ax in range(d)))
    S = sum(GWG)
    # an entry that is not finite is rejected below, not announced by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        VW = fields["V"].values + fields["W"].values
        # effective block: A^{hk} plus q_hk I for h != k (diagonal q done above)
        for ax_h in range(d):
            for ax_k in range(d):
                blk = A[:, ax_h, ax_k].copy()
                if ax_h != ax_k:
                    blk += q[:, ax_h, ax_k, None, None] * np.eye(m)
                if np.any(blk):
                    scale = vol / (4 * h[ax_h] * h[ax_k])
                    S = S + D[ax_h].T @ _nodal(scale * blk) @ D[ax_k]
        for ax in range(d):
            scale = vol / (2 * h[ax])
            if np.any(B[:, ax]):
                S = S + _nodal(scale * B[:, ax]) @ D[ax]
            if np.any(C[:, ax]):
                S = S + D[ax].T @ _nodal(scale * C[:, ax])
        if np.any(VW):
            S = S + _nodal(vol * VW)
    S.sum_duplicates()  # sorted indices: S @ u sums each row in column order
    finite = np.isfinite(S.data)
    if not finite.all():
        row = np.searchsorted(S.indptr, np.argmin(finite), side="right") - 1
        raise ValueError(f"assembled form is not finite at node "
                         f"{grid.node(int(row) // m)}")
    return DiscreteForm(grid, m, S, vol)


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
    A = 0.5 * (F.S + F.S.T).tocsr() / F.mass
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
