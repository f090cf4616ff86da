"""Numerical extraction of the structural constants of a coefficient system.

Each constant (c0, kappa_A, kappa_B, kappa_C, kappa_W, ...) is the smallest
value making a defining sesquilinear inequality hold at every sampled node.
All of them reduce to largest singular values of suitably whitened node
matrices, so they are computed by exact finite-dimensional linear algebra;
randomized probing is used only as a cross-check in the tests.  Whitening is
a rotation into the eigenbases of Q and V_S (the fields' cached spectra, in
closed form for 1 x 1 and 2 x 2 blocks), then only a scaling.  From the
spectra on, every node matrix is entries-first, (rows, columns, nodes), and
every per-node product a sum of products of node arrays (``_dot``), taken
in place row by row of the node matrices, so that no temporary outgrows its
result; those fuse no multiply and add as a BLAS product may, so where V_S's
eigenvectors are not exact a constant may differ from the matrix-product
form in its last bits.  Work a node block does not need is skipped: a
symmetric V has c0 = 0, and a coupling whose symmetric part Gershgorin's
bound certifies takes no eigenvalues for its nonnegativity check.  The
constants maximized over a grid of gammas evaluate exactly only the
node-gammas whose gamma-free upper bound reaches a lower bound on the
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import BoxDomain, SampledField, symmetric_eigh
from .pinterval import k_combination, phi_power

GAMMA_GRID = np.logspace(-4, 4, 200)

# the parameters each mode reads
MODE_PARAMS = {"fixed_gamma": ("gamma", "Cgamma"), "refined": ("a", "b"),
               "kernel": ("beta", "c")}


@dataclass(frozen=True)
class EstimateMode:
    """Which zero-order weight R(gamma) closes the drift/potential bounds.

    fixed_gamma: R = Cgamma at the user-supplied gamma.
    refined:     R = phi(gamma) = max of the two power terms (exponents a, b),
                 constants taken as the sup over a log grid of gamma.
    kernel:      R = c * gamma^(-beta), likewise sup over the gamma grid.
    """

    kind: str
    gamma: float = 1.0
    Cgamma: float = 1.0
    a: float = 0.25
    b: float | None = None
    beta: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in MODE_PARAMS:
            raise ValueError(f"unknown mode {self.kind!r}")
        for key in MODE_PARAMS[self.kind]:
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):  # b may be None
                raise ValueError(f"{self.kind} mode requires a finite {key}, "
                                 f"got {value}")
        if self.kind == "fixed_gamma" and not self.gamma > 0:
            raise ValueError("fixed_gamma mode requires gamma > 0")
        if self.kind == "refined":
            # phi_power rejects a outside ]0, 1/2[ and b outside [0, 1[
            phi_power(1.0, self.a, self.b)
        if self.kind == "kernel" and self.beta < 0:
            raise ValueError("kernel mode requires beta >= 0")
        if self.kind == "kernel" and self.c < 1:
            raise ValueError("kernel mode requires c >= 1")

    def gamma_candidates(self) -> np.ndarray:
        if self.kind == "fixed_gamma":
            return np.array([self.gamma])
        return GAMMA_GRID

    def weight(self, gamma):
        """R(gamma), elementwise for an array gamma (a float for a float);
        a power beyond the float range is inf, its limit."""
        gamma = np.asarray(gamma, dtype=float)
        if self.kind == "fixed_gamma":
            R = np.full(gamma.shape, self.Cgamma)
        elif self.kind == "refined":
            R = phi_power(gamma, self.a, self.b)
        else:
            with np.errstate(over="ignore"):
                R = self.c * gamma ** -self.beta
        return R if np.ndim(R) else float(R)


def fixed_gamma(gamma: float, Cgamma: float) -> EstimateMode:
    return EstimateMode("fixed_gamma", gamma=gamma, Cgamma=Cgamma)


def refined(a: float, b: float | None = None) -> EstimateMode:
    return EstimateMode("refined", a=a, b=b)


def kernel_mode(beta: float, c: float) -> EstimateMode:
    return EstimateMode("kernel", beta=beta, c=c)


class HypothesisViolation(ValueError):
    pass


def _require_pd(w: np.ndarray, what: str, domain: BoxDomain):
    """Reject the first node of ``domain`` whose ascending eigenvalues ``w``
    are not all positive."""
    if np.any(w[..., 0] <= 0):
        idx = int(np.argmax(w[..., 0] <= 0))
        where = domain.node(idx)
        raise HypothesisViolation(
            f"{what} not positive definite at node {where} "
            f"(min eigenvalue {w[idx, 0]:.3e})")


def _entries_first(mats: np.ndarray) -> np.ndarray:
    """(N, ...) node arrays as contiguous (..., N): each entry is one array
    over the nodes, the layout of every node matrix from the spectra on."""
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1))


def _eigen_whitener(field: SampledField, what: str) -> np.ndarray:
    """Entries-first (k, k, N) U diag(lam^{-1/2}), U diag(lam) U^T the
    field's symmetric part, which must be positive definite: its inverse
    square root less the factor U^T, which moves no singular value."""
    lam, U = field.spectrum
    _require_pd(lam, what, field.domain)
    return _entries_first(U) * _entries_first(lam) ** -0.5


def _dot(pairs, out: np.ndarray) -> np.ndarray:
    """out = the sum of x * y over ``pairs``, in place: from +0.0 and left to
    right, as numpy sums a leading axis (so a sum of negative zeros is
    +0.0).  Summed row by row of the node matrices, the products of the
    constants layer make no temporary larger than ``out``."""
    out.fill(0.0)
    tmp = np.empty(out.shape)
    for x, y in pairs:
        out += np.multiply(x, y, out=tmp)
    return out


def _congruence(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P^T X P for entries-first (k, k, N) P and X, row by row:
    (P^T X)[a] = sum_i P[i, a] X[i], then sum_j (P^T X)[a, j] P[j]."""
    k = len(P)
    out, T = np.empty(X.shape), np.empty(X.shape[1:])
    for a in range(k):
        _dot(((P[i, a], X[i]) for i in range(k)), T)
        _dot(((T[j], P[j]) for j in range(k)), out[a])
    return out


def _node_grams(Y: np.ndarray, rows: bool) -> tuple:
    """(sigma, grams, bad) for entries-first (r, c, N) blocks Y.  sigma is
    each node's largest |entry|; grams is the c x c Gram of Y / sigma,
    (1, c, c, N), or with ``rows`` the outer product of each of its rows,
    (r, c, c, N).  A node with an entry that is not finite is flagged in
    ``bad`` and gets sigma = 0 and zero grams."""
    sigma = np.abs(Y).max(axis=(0, 1))
    bad = ~np.isfinite(sigma)
    sigma[bad] = 0.0
    Y = Y / np.where(sigma == 0, 1.0, sigma)
    Y[..., bad] = 0.0
    grams = Y[:, :, None] * Y[:, None, :]
    return sigma, grams if rows else grams.sum(0, keepdims=True), bad


def _top_eig(grams: np.ndarray, u: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of D H D, D = diag(1, u), H = grams[0] + sum_i
    u2[i - 1] grams[i], for weights u (c - 1, ...) <= 1 and u2 = u * u.  For
    one or two columns it is in closed form (the symmetric 2 x 2 Schur step,
    Golub & Van Loan 8.5), beyond that it is ``eigvalsh``."""
    def h(j, k):
        out = grams[0, j, k]
        for i in range(1, len(grams)):
            out = out + u2[i - 1] * grams[i, j, k]
        return out

    c = grams.shape[1]
    if c == 1:
        return h(0, 0)
    if c == 2:
        a, d, b = h(0, 0), u2[0] * h(1, 1), u[0] * h(0, 1)
        t, x = a + d, 0.5 * (a - d)
        # both terms are >= 0, so nothing cancels; x and b are at most t / 2,
        # and their squares lose digits to underflow only below SWEEP_FLOOR
        return 0.5 * t + np.sqrt(x * x + b * b)
    w = [1.0, *u]
    M = np.empty(u.shape[1:] + (c, c))
    for j in range(c):
        for k in range(j, c):
            M[..., j, k] = M[..., k, j] = w[j] * h(j, k) * w[k]
    return np.linalg.eigvalsh(M)[..., -1]


def _max_sv(mats: np.ndarray) -> np.ndarray:
    """Per-node top singular value of entries-first (r, c, N) matrices:
    sigma sqrt(lambda_max(G)), G the Gram of each matrix over its largest
    |entry| sigma (so G cannot overflow, and lambda_max >= 1 unless the
    matrix is 0); inf for a matrix with an entry that is not finite."""
    sigma, G, bad = _node_grams(mats, False)
    ones = np.ones((mats.shape[1] - 1, mats.shape[-1]))
    top = np.sqrt(_top_eig(G, ones, ones)) * sigma
    top[bad] = np.inf
    return top


def estimate_c0(Vfield: SampledField) -> np.ndarray:
    """Per-node smallest c0 with |Im(V xi, xi)| <= c0 Re(V xi, xi) for all
    complex xi: the largest singular value of the V_S-whitened antisymmetric
    part of V, so 0 for a symmetric V (once V_S is positive definite).
    """
    V = Vfield.values
    N, m, _ = V.shape
    # entries-first, by halves (which cannot overflow), 0 on the diagonal
    VA = np.zeros((m, m, N))
    for i in range(m):
        for j in range(m):
            if i != j:
                VA[i, j] = 0.5 * V[:, i, j] - 0.5 * V[:, j, i]
    if not VA.any():  # c0 = 0, once V_S is positive definite
        _require_pd(Vfield.spectrum.eigenvalues, "V_S", Vfield.domain)
        return np.zeros(N)
    return _max_sv(_congruence(_eigen_whitener(Vfield, "V_S"), VA))


def estimate_kappa_A(fields: dict) -> np.ndarray:
    """Per-node smallest kappa bounding the second-order coupling against the
    diffusion quadratic form, plus the nonnegativity check of its real part:
    its eigenvalues, unless ``_certified`` shows that none is negative."""
    A = fields["A"].values  # (N, d, d, m, m)
    N, d, _, m, _ = A.shape
    if not np.any(A):
        return np.zeros(N)

    # block matrix over (h, k), acting on stacked theta = (theta^1..theta^d),
    # whitened on both sides by Q^{-1/2} (x) I_m: the (a, i, b, j) entry is
    # the sum over (h, k) of Wh[h, a] A[h, k, i, j] Wh[k, b]
    Wh = _eigen_whitener(fields["Q"], "Q")
    A = _entries_first(A)
    white = np.empty((d, m, d, m, N))
    # an overflowed entry is inf, or NaN once it meets another
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(d):
            for b in range(d):
                _dot(((Wh[h, a] * A[h, k], Wh[k, b])
                      for h in range(d) for k in range(d)), white[a, :, b])
    white = white.reshape(d * m, d * m, N)

    # a node whose whitened block is not finite has kappa_A = inf
    # (``_max_sv``).  Whitening is a congruence, which keeps the signs of
    # the eigenvalues (Sylvester's law of inertia), so there the
    # nonnegativity check reads A's own (h, i) x (k, j) block, over the
    # largest |entry| of those blocks; such a node is named first
    finite = np.isfinite(white).all(axis=(0, 1))
    checks = [(finite, white if finite.all() else white[..., finite], 1.0,
               "")]
    if not finite.all():
        own = np.swapaxes(A, 1, 2).reshape(d * m, d * m, N)[..., ~finite]
        size = np.abs(own).max()
        checks.insert(0, (~finite, own / size, size,
                          " before whitening, which overflows"))
    for nodes, blocks, size, note in checks:
        found = _most_negative(blocks)
        if found is not None:
            worst, value = found
            where = fields["A"].domain.node(np.flatnonzero(nodes)[worst])
            with np.errstate(over="ignore"):
                value = value * size
            raise HypothesisViolation(
                f"Re second-order coupling negative at node {where} "
                f"(eigenvalue {value:.3e}{note})")
    return _max_sv(white)


def _most_negative(M: np.ndarray):
    """(node, eigenvalue) of the most negative eigenvalue of the symmetric
    parts of the entries-first (k, k, N) node matrices M, if it is below
    -1e-12 times their largest |eigenvalue| (at least 1); else None."""
    if _certified(M):
        return None
    sym = np.moveaxis(0.5 * M + 0.5 * np.swapaxes(M, 0, 1), -1, 0)
    evals = (symmetric_eigh(sym).eigenvalues if len(M) <= 2
             else np.linalg.eigvalsh(sym))
    scale = np.maximum(1.0, np.abs(evals).max())
    if np.any(evals[:, 0] < -1e-12 * scale):
        worst = int(np.argmin(evals[:, 0]))
        return worst, evals[worst, 0]
    return None


def _certified(M: np.ndarray) -> bool:
    """Whether the symmetric part S = M/2 + M^T/2 of every entries-first
    (k, k, N) node matrix M has Gershgorin's lower bound
    min_i (S_ii - sum_{j != i} |S_ij|) >= 0, so no eigenvalue below 0.  Its
    smallest computed eigenvalue is then at worst a few ulps of its largest
    |eigenvalue| below 0, far above the -1e-12 that ``estimate_kappa_A``
    rejects.  The entries of S are formed one at a time as the full S forms
    them; a bound that is not finite is False."""
    k = len(M)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            bound = 0.5 * M[i, i] + 0.5 * M[i, i]
            for j in range(k):
                if j != i:
                    bound -= np.abs(0.5 * M[i, j] + 0.5 * M[j, i])
            if not (bound >= 0).all():
                return False
    return True


# node-gamma entries the gamma sweep evaluates at once
SWEEP_CHUNK = 2 ** 13
# a node-gamma whose weighted Gram has lambda_max below this may have lost
# digits to underflow (in the weights u and u^2, or in the squares of the
# 2 x 2 closed form); it takes the top singular value of its scaled block
SWEEP_FLOOR = 1e-140


# the relative margin for rounding with which a node-gamma's bound must reach
# the block's lower bound for the node-gamma to be evaluated exactly
PRUNE_MARGIN = 1e-9


def _rotated_blocks(fields: dict) -> dict:
    """The present blocks of B, C and W, entries-first and rotated into the
    eigenbasis U of V_S: the block columns (d m, m, N) of B and C, whitened
    by Q^{-1/2} (x) I_m, Y[(a, i), j] = sum_k (sum_h Wq[h, a] X[h, i, k])
    U[k, j], and U^T W U (m, m, N).  An overflowed entry meets 0 in the
    rotation as NaN, which marks the block's node as not finite."""
    present = [name for name in "BCW" if np.any(fields[name].values)]
    if not present:
        return {}
    U = _entries_first(fields["V"].spectrum.eigenvectors)
    blocks = {}
    with np.errstate(over="ignore", invalid="ignore"):
        if "B" in present or "C" in present:
            Wq = _eigen_whitener(fields["Q"], "Q")
        for name in present:
            # an entries-first view: each product reads the node values in
            # place, with no copy of the block
            X = np.moveaxis(fields[name].values, 0, -1)
            if name == "W":
                blocks["W"] = _congruence(U, X)
                continue
            d, m, _, N = X.shape
            Y, E = np.empty(X.shape), np.empty((m, N))
            for a in range(d):
                for i in range(m):
                    _dot(((Wq[h, a], X[h, i]) for h in range(d)), E)
                    _dot(((E[k], U[k]) for k in range(m)), Y[a, i])
            blocks[name] = Y.reshape(d * m, m, N)  # rows (a, i)
    return blocks


# a block entry or top singular value beyond the float range gives inf; so
# does R(gamma) at the grid's smallest gammas when a refined exponent is near
# its bound, which is its limit and whitens to 0
@np.errstate(over="ignore")
def estimate_gamma_constants(fields: dict, mode: EstimateMode) -> tuple:
    """(kappa_B, kappa_C, kappa_W), each maximized over nodes and the mode's
    gammas.

    kappa_B and kappa_C are the largest singular values of the doubly whitened
    block columns of the B^h / C^h, kappa_W that of W whitened on both sides
    by (gamma V_S + R(gamma) I)^{-1/2}.  With V_S = U diag(lam) U^T from the
    field's spectrum, each block is rotated by U once, and each gamma scales
    it by s = (gamma lam + R)^{-1/2}.

    So each block enters only through Grams taken once per node.  A block
    column Y with largest |entry| sigma, G the Gram of Y / sigma, has top
    singular value sigma s[0] sqrt(lambda_max(diag(u) G diag(u))) with
    u = s / s[0] <= 1 (lam ascends, so s[0] is the largest scale).  W scaled
    on both sides has sigma s[0]^2 sqrt(lambda_max(diag(u) H diag(u))),
    H = sum_i u_i^2 z_i z_i^T over the rows z_i of W / sigma.  A node-gamma
    whose lambda_max falls below ``SWEEP_FLOOR``, or whose product is not
    finite, takes ``_max_sv`` of its scaled block instead.  A block with an
    entry that is not finite has top singular value inf.

    As u <= 1, a node-gamma's value is at most c s[0] (c s[0]^2 for W), with
    c = sigma sqrt(lambda_max(G)) (of the sum of the H terms for W): the
    block's top singular value unscaled, free of gamma.  So the sweep goes
    through the gammas in chunks of at most ``SWEEP_CHUNK`` node-gamma
    entries, twice.  The first pass checks that w0 = gamma lam[0] + R > 0
    and keeps each node's gamma of smallest w0, its largest s[0]; the exact
    values there bound each block's maximum from below by L.  The second
    pass evaluates exactly only the node-gammas whose bound reaches L,
    L sqrt(w0) <= c (1 + ``PRUNE_MARGIN``) (L w0 for W), and reads each
    constant bit for bit as a sweep over every node-gamma would.
    """
    blocks = _rotated_blocks(fields)
    if not blocks:
        return 0.0, 0.0, 0.0
    grams = {name: _node_grams(Y, name == "W") for name, Y in blocks.items()}

    kappa = {name: np.inf if bad.any() else 0.0
             for name, (_, _, bad) in grams.items()}
    N = fields["V"].domain.node_count
    # (m, N), ascending down the rows
    lam = _entries_first(fields["V"].spectrum.eigenvalues)
    gammas = mode.gamma_candidates()
    R = mode.weight(gammas)
    step = max(1, SWEEP_CHUNK // N)

    def exact(name, g, n):
        """The block's top singular values at node-gammas (g, n), index
        arrays: gathered arrays take the whole-grid sweep's arithmetic bit
        for bit (a 0-d power may differ from an array power)."""
        w = gammas[g] * lam[:, n]
        w += R[g]
        s = w ** -0.5
        s0 = s[0]
        u = s[1:] / np.where(s0 > 0, s0, 1.0)  # s0 = 0 only where all s are
        sigma, G, _ = grams[name]
        sigma = sigma[n]
        scale = sigma * s0
        if name == "W":  # scaled on both sides
            scale = scale * s0
        top = _top_eig(G[..., n], u, u * u)
        with np.errstate(invalid="ignore"):  # 0 * inf, redone below
            sv = np.sqrt(top) * scale
        redo = np.flatnonzero(~(sv < np.inf)
                              | ((top < SWEEP_FLOOR) & (sigma > 0)))
        if len(redo):
            scaled = blocks[name][..., n[redo]] * s[:, redo]
            if name == "W":
                scaled = s[:, None, redo] * scaled
            sv[redo] = _max_sv(scaled)
        return sv

    # first pass: each node's smallest w0, and the chunk of gammas it is in
    low, first = np.full(N, np.inf), np.zeros(N, dtype=int)
    for start in range(0, len(gammas), step):
        w0 = gammas[start:start + step, None] * lam[0]
        w0 += R[start:start + step, None]
        if not w0.min() > 0:
            k = int(np.argmin((w0 > 0).all(axis=1)))
            _require_pd(w0[k, :, None],
                        f"gamma*V_S + R (gamma={gammas[start + k]})",
                        fields["V"].domain)
        least = w0.min(axis=0)
        better = least < low
        low[better], first[better] = least[better], start
    # and its gamma within that chunk
    nodes = np.arange(N)
    g = np.minimum(first + np.arange(step)[:, None], len(gammas) - 1)
    w0 = gammas[g] * lam[0]
    w0 += R[g]
    at = g[w0.argmin(axis=0), nodes]

    for name in grams:
        if kappa[name] == np.inf:
            continue
        L = kappa[name] = float(exact(name, at, nodes).max())
        if len(gammas) == 1:  # every node-gamma is done
            continue
        # a node-gamma may exceed L only where L sqrt(w0) <= c; W's bound
        # c s[0]^2 asks L w0 <= c, which implies sqrt(w0) <= sqrt(c / L)
        sigma, G, _ = grams[name]
        ones = np.ones((G.shape[1] - 1, N))
        with np.errstate(divide="ignore", invalid="ignore"):  # L, sigma = 0
            reach = (sigma / L) * np.sqrt(_top_eig(G, ones, ones)) * (
                1 + PRUNE_MARGIN)
        if name == "W":
            reach = np.sqrt(reach)
        # second pass, over the nodes whose smallest w0 is within reach
        hit = np.flatnonzero(np.sqrt(low) <= reach)
        hstep = max(1, SWEEP_CHUNK // max(1, len(hit)))
        for start in range(0, len(gammas), hstep):
            w0 = gammas[start:start + hstep, None] * lam[0, hit]
            w0 += R[start:start + hstep, None]
            g, j = np.nonzero((np.sqrt(w0) <= reach[hit]) & (
                at[hit] != start + np.arange(len(w0))[:, None]))
            if len(j):
                kappa[name] = max(kappa[name],
                                  float(exact(name, g + start, hit[j]).max()))
    return tuple(kappa.get(name, 0.0) for name in "BCW")


@dataclass
class HypothesisReport:
    """Constants and pass/fail flags for one system on one grid."""

    mode: str
    v0: float
    c0: float
    kappaA: float
    kappaB: float
    kappaC: float
    kappaW: float
    gamma: float
    Cgamma: float | None
    K: float
    nu0: float
    beta: float | None = None
    c: float | None = None
    kappa: float | None = None
    phi_params: dict | None = None
    passes: dict = field(default_factory=dict)
    worst_points: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def _worst_point(per_node: np.ndarray, domain: BoxDomain, maximize: bool = True):
    idx = int(np.argmax(per_node) if maximize else np.argmin(per_node))
    return {"node": list(domain.node(idx)), "value": float(per_node[idx])}


def check_all(fields: dict, mode: EstimateMode) -> HypothesisReport:
    """Assemble every constant, evaluate K, and flag each sub-hypothesis.

    Failures never raise; they appear as False flags with the worst node
    recorded.  All infima/suprema are over the sampled grid nodes (the report
    notes that, so refinement studies can bracket the continuum value).
    """
    domain = fields["V"].domain
    passes: dict = {}
    worst: dict = {}
    notes = ["constants are grid-estimated (extrema over sampled nodes)"]

    VS_min = fields["V"].spectrum.eigenvalues[:, 0]
    v0 = float(VS_min.min())
    passes["V_S_positive"] = v0 > 0
    worst["v0"] = _worst_point(VS_min, domain, maximize=False)

    lamQ = fields["Q"].spectrum.eigenvalues[:, 0]
    nu0 = float(lamQ.min())
    passes["Q_positive"] = nu0 > 0
    worst["nu0"] = _worst_point(lamQ, domain, maximize=False)

    c0 = float("nan")
    if passes["V_S_positive"]:
        per = estimate_c0(fields["V"])
        c0 = float(per.max())
        worst["c0"] = _worst_point(per, domain)
    passes["imaginary_domination"] = bool(np.isfinite(c0))

    kappaA = float("nan")
    try:
        per = estimate_kappa_A(fields)
        kappaA = float(per.max())
        worst["kappaA"] = _worst_point(per, domain)
        passes["coupling_nonnegative"] = True
    except HypothesisViolation as err:
        passes["coupling_nonnegative"] = False
        notes.append(str(err))

    kappaB = kappaC = kappaW = float("nan")
    if passes["V_S_positive"] and passes["Q_positive"]:
        try:
            kappaB, kappaC, kappaW = estimate_gamma_constants(fields, mode)
        except HypothesisViolation as err:
            notes.append(str(err))
    passes["drift_bounds_finite"] = all(
        np.isfinite(x) for x in (kappaB, kappaC, kappaW)
    )

    gamma = mode.gamma if mode.kind == "fixed_gamma" else 1.0
    K = float("nan")
    if passes["drift_bounds_finite"] and gamma * kappaW < 1:
        K = k_combination(kappaB, kappaC, kappaW, gamma)
    passes["K_positive"] = bool(np.isfinite(K) and K > 0)

    report = HypothesisReport(
        mode=mode.kind,
        v0=v0, c0=c0, kappaA=kappaA, kappaB=kappaB, kappaC=kappaC,
        kappaW=kappaW, gamma=gamma,
        Cgamma=mode.Cgamma if mode.kind == "fixed_gamma" else None,
        K=K, nu0=nu0,
        passes=passes, worst_points=worst, notes=notes,
    )

    if mode.kind == "refined":
        report.phi_params = {"a": mode.a, "b": mode.b if mode.b is not None else 2 * mode.a}
    if mode.kind == "kernel":
        report.beta = mode.beta
        report.c = mode.c
        report.kappa = max(kappaB, kappaC) if passes["drift_bounds_finite"] else None
        passes["kernel_A_vanishes"] = not np.any(fields["A"].values)
        passes["kernel_W_vanishes"] = not np.any(fields["W"].values)

    return report
