"""Dense interior-point solvers for the two convex subproblem shapes.

``solve_sdp`` handles small Hermitian semidefinite programs with affine LMI
blocks and trace constraints in a PSD matrix variable (plus an optional
scalar); ``solve_qcqp`` handles convex complex QCQPs.  Both are deterministic
log-barrier path followers with exact Newton centering steps.  Problems here
have at most a few dozen real parameters, so no sparsity or scaling tricks
are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import is_hermitian

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAXITER = "max_iter"

GAP_SHRINK = 0.2        # duality-gap reduction per outer round
DEFAULT_GAP_TOL = 1e-7  # relative: stop when nu/t <= tol * (1 + |objective|)
MAX_ROUNDS = 200        # path-following round cap per solve phase
NEWTON_PER_ROUND = 60   # centering step budget within one round
PHASE1_MARGIN = 1e-8    # infeasibility threshold of the feasibility phase
PHASE1_OBJECTIVE_BLEND = 1e-6  # weight of the true objective during phase one


@dataclass(frozen=True)
class LmiBlock:
    """Affine Hermitian block S(X, t) = const + t * t_coeff + [Tr(coeff[p,q] X)]_{pq}."""

    coeff: np.ndarray    # (m, m, d, d)
    const: np.ndarray    # (m, m) Hermitian
    t_coeff: np.ndarray  # (m, m) Hermitian

    def __post_init__(self):
        m = self.const.shape[0]
        if self.coeff.shape[:2] != (m, m) or self.t_coeff.shape != (m, m):
            raise ValueError("LMI block shapes are inconsistent")
        if not (is_hermitian(self.const) and is_hermitian(self.t_coeff)):
            raise ValueError("LMI block const/t_coeff must be Hermitian")
        for p in range(m):
            for q in range(m):
                diff = np.max(np.abs(self.coeff[p, q] - self.coeff[q, p].conj().T))
                scale = max(float(np.max(np.abs(self.coeff[p, q]))), 1e-300)
                if diff > 1e-10 * max(scale, 1.0):
                    raise ValueError("LMI coefficient tensor is not Hermitian-symmetric")


@dataclass(frozen=True)
class TraceConstraint:
    """Tr(mat @ X) <= bound (sense 'le') or >= bound (sense 'ge')."""

    mat: np.ndarray
    bound: float
    sense: str

    def __post_init__(self):
        if self.sense not in ("le", "ge"):
            raise ValueError("sense must be 'le' or 'ge'")
        if not is_hermitian(self.mat):
            raise ValueError("trace-constraint matrix must be Hermitian")


@dataclass(frozen=True)
class SdpProblem:
    """minimize Tr(obj_mat X) + obj_t * t  s.t.  X >= 0, LMI blocks >= 0, traces.

    The trace constraints must bound the feasible set (every problem built
    here carries a transmit-power bound, so this holds by construction); the
    barrier subproblems are unbounded otherwise.
    """

    dim: int
    obj_mat: np.ndarray
    obj_t: float
    lmi_blocks: tuple[LmiBlock, ...] = ()
    trace_constraints: tuple[TraceConstraint, ...] = ()

    def __post_init__(self):
        if self.obj_mat.shape != (self.dim, self.dim):
            raise ValueError("objective matrix has wrong shape")
        if not is_hermitian(self.obj_mat):
            raise ValueError("objective matrix must be Hermitian")

    @property
    def has_t(self) -> bool:
        if self.obj_t != 0.0:
            return True
        return any(np.any(b.t_coeff != 0) for b in self.lmi_blocks)


@dataclass(frozen=True)
class QcqpProblem:
    """minimize x^H A0 x + 2 Re(b0^H x) + c0 over complex x, each constraint
    triple (A, b, c) meaning x^H A x + 2 Re(b^H x) + c <= 0; all A PSD."""

    dim: int
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        for a, b, _ in (self.objective, *self.constraints):
            if a.shape != (self.dim, self.dim) or b.shape != (self.dim,):
                raise ValueError("QCQP term has wrong shape")
            if not is_hermitian(a):
                raise ValueError("QCQP quadratic matrices must be Hermitian")


@dataclass
class ConicReport:
    solution: Optional[np.ndarray]
    aux: Optional[float]           # scalar variable t for SDPs, else None
    objective: float
    gap: float                     # absolute duality-gap bound nu / t_barrier
    iterations: int                # total Newton steps (both phases)
    status: str
    duality_trace: list = field(default_factory=list)  # (primal, dual) per round


# ---------------------------------------------------------------------------
# Hermitian parameterization


_BASIS_CACHE: dict[int, np.ndarray] = {}


def _herm_basis(n: int) -> np.ndarray:
    """Stack of n^2 Hermitian basis matrices matching :func:`_herm_of_params`."""
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    iu = np.triu_indices(n, 1)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        e[j, i] = 1.0
        mats.append(e)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0j
        e[j, i] = -1.0j
        mats.append(e)
    basis = np.stack(mats)
    _BASIS_CACHE[n] = basis
    return basis


def _herm_of_params(x: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    a[np.diag_indices(n)] = x[:n]
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    re = x[n:n + m]
    im = x[n + m:n + 2 * m]
    a[iu] = re + 1j * im
    a[(iu[1], iu[0])] = re - 1j * im
    return a


# ---------------------------------------------------------------------------
# Generic barrier machinery
#
# A compiled problem is a linear objective plus two families of convexity
# barriers in a real parameter vector x:
#   * PSD blocks   S_b(x) = const_b + sum_k x_k ds_b[k]   (Hermitian affine)
#   * scalar cuts  s_i(x) = a_i @ x + b_i > 0             (affine slacks)
# with barrier degree nu = sum of block sizes + number of cuts.


@dataclass
class _Compiled:
    cost: np.ndarray
    blocks: list          # (const (m,m), ds (nv,m,m))
    cuts: list            # (a (nv,), b)
    nu: float


def _block_value(const, ds, x):
    return const + np.tensordot(x, ds, axes=(0, 0))


def _feasible(comp: _Compiled, x: np.ndarray) -> bool:
    for const, ds in comp.blocks:
        try:
            np.linalg.cholesky(_block_value(const, ds, x))
        except np.linalg.LinAlgError:
            return False
    for a, b in comp.cuts:
        if a @ x + b <= 0.0:
            return False
    return True


def _barrier_value(comp: _Compiled, x: np.ndarray) -> float:
    total = 0.0
    for const, ds in comp.blocks:
        try:
            chol = np.linalg.cholesky(_block_value(const, ds, x))
        except np.linalg.LinAlgError:
            return np.inf
        total -= 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
    for a, b in comp.cuts:
        s = a @ x + b
        if s <= 0.0:
            return np.inf
        total -= float(np.log(s))
    return total


def _barrier_grad_hess(comp: _Compiled, x: np.ndarray):
    nv = x.size
    grad = np.zeros(nv)
    hess = np.zeros((nv, nv))
    for const, ds in comp.blocks:
        s_mat = _block_value(const, ds, x)
        g = np.linalg.inv(s_mat)
        grad -= np.einsum("ij,kji->k", g, ds).real
        p = np.einsum("ij,kjl->kil", g, ds)
        hess += np.einsum("kij,lji->kl", p, p).real
    for a, b in comp.cuts:
        s = a @ x + b
        grad -= a / s
        hess += np.outer(a, a) / (s * s)
    return grad, hess


def _boundary_step(comp: _Compiled, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest step along dx keeping every block PD and every cut positive."""
    alpha_max = np.inf
    for const, ds in comp.blocks:
        s_mat = _block_value(const, ds, x)
        delta = np.tensordot(dx, ds, axes=(0, 0))
        try:
            chol = np.linalg.cholesky(s_mat)
        except np.linalg.LinAlgError:
            return 0.0
        inner = np.linalg.solve(chol, np.linalg.solve(chol, delta).conj().T).conj().T
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))))
        if lam < 0.0:
            alpha_max = min(alpha_max, -1.0 / lam)
    for a, b in comp.cuts:
        slope = float(a @ dx)
        if slope < 0.0:
            alpha_max = min(alpha_max, -(a @ x + b) / slope)
    return alpha_max


def _newton_center(comp: _Compiled, x: np.ndarray, t_bar: float, budget: int,
                   stop_when=None):
    """Minimize t_bar * cost @ x + barrier(x); returns (x, steps, converged)."""
    steps = 0
    while steps < budget:
        grad_b, hess = _barrier_grad_hess(comp, x)
        grad = t_bar * comp.cost + grad_b
        ridge = 1e-12 * (1.0 + float(np.trace(hess)) / max(hess.shape[0], 1))
        try:
            dx = np.linalg.solve(hess + ridge * np.eye(hess.shape[0]), -grad)
        except np.linalg.LinAlgError:
            dx = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = float(-grad @ dx)
        if decrement <= 0.0:
            break
        if decrement / 2.0 <= 1e-9:
            break
        # fraction-to-boundary cap, then pull back until strictly feasible
        alpha = min(1.0, 0.95 * _boundary_step(comp, x, dx))
        while alpha > 1e-14 and not _feasible(comp, x + alpha * dx):
            alpha *= 0.7
        if alpha <= 1e-14:
            break
        merit0 = t_bar * float(comp.cost @ x) + _barrier_value(comp, x)
        while alpha > 1e-14:
            x_new = x + alpha * dx
            merit = t_bar * float(comp.cost @ x_new) + _barrier_value(comp, x_new)
            if merit <= merit0 - 0.25 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x = x + alpha * dx
        steps += 1
        if stop_when is not None and stop_when(x):
            break
        if alpha >= 1.0 - 1e-12 and decrement / 2.0 <= 1e-8:
            break
    return x, steps


def _barrier_solve(comp: _Compiled, x0: np.ndarray, gap_tol: float,
                   max_rounds: int = MAX_ROUNDS, stop_when=None):
    """Path-following loop; returns (x, gap, newton_steps, hit_cap, trace)."""
    x = np.array(x0, dtype=float)
    t_bar = 1.0
    used = 0
    trace = []
    for _ in range(max_rounds):
        x, steps = _newton_center(comp, x, t_bar, NEWTON_PER_ROUND, stop_when=stop_when)
        used += steps
        primal = float(comp.cost @ x)
        gap = comp.nu / t_bar
        trace.append((primal, primal - gap))
        if stop_when is not None and stop_when(x):
            return x, gap, used, False, trace
        if gap <= gap_tol * (1.0 + abs(primal)):
            return x, gap, used, False, trace
        t_bar /= GAP_SHRINK
    return x, comp.nu / t_bar, used, True, trace


# ---------------------------------------------------------------------------
# SDP front end


def _compile_sdp(prob: SdpProblem, phase1: bool) -> tuple[_Compiled, int]:
    n = prob.dim
    basis = _herm_basis(n)
    n_w = n * n
    has_t = prob.has_t
    nv = n_w + (1 if has_t else 0) + (1 if phase1 else 0)
    t_slot = n_w if has_t else None
    s_slot = nv - 1 if phase1 else None

    blocks = []
    # PSD constraint on the matrix variable itself
    ds = np.zeros((nv, n, n), dtype=complex)
    ds[:n_w] = basis
    if phase1:
        ds[s_slot] = np.eye(n)
    blocks.append((np.zeros((n, n), dtype=complex), ds))

    for blk in prob.lmi_blocks:
        m = blk.const.shape[0]
        ds = np.zeros((nv, m, m), dtype=complex)
        # entry (p, q) is Tr(coeff[p, q] @ X): derivative w.r.t. x_k is
        # Tr(coeff[p, q] @ E_k)
        ds[:n_w] = np.einsum("pqij,kji->kpq", blk.coeff, basis)
        if has_t:
            ds[t_slot] = blk.t_coeff
        if phase1:
            ds[s_slot] = np.eye(m)
        blocks.append((blk.const.astype(complex), ds))

    cuts = []
    for con in prob.trace_constraints:
        coeffs = np.einsum("ij,kji->k", con.mat, basis).real
        a = np.zeros(nv)
        if con.sense == "le":
            a[:n_w] = -coeffs
            b = con.bound
        else:
            a[:n_w] = coeffs
            b = -con.bound
        if phase1:
            a[s_slot] = 1.0
        cuts.append((a, b))

    cost = np.zeros(nv)
    cost[:n_w] = np.einsum("ij,kji->k", prob.obj_mat, basis).real
    if has_t:
        cost[t_slot] = prob.obj_t
    if phase1:
        # keep a whiff of the true objective so directions the barrier alone
        # cannot bound (the auxiliary scalar) stay bounded during phase one
        cost *= PHASE1_OBJECTIVE_BLEND
        cost[s_slot] = 1.0
    nu = sum(const.shape[0] for const, _ in blocks) + len(cuts)
    comp = _Compiled(cost=cost, blocks=blocks, cuts=cuts, nu=float(nu))
    return comp, nv


def _initial_slack(comp: _Compiled, x: np.ndarray) -> float:
    worst = 0.0
    for const, ds in comp.blocks:
        vals = np.linalg.eigvalsh(_block_value(const, ds, x))
        worst = max(worst, -float(vals.min()))
    for a, b in comp.cuts:
        worst = max(worst, -float(a @ x + b))
    return worst


def _phase1(comp1: _Compiled, nv1: int):
    """Find a strictly feasible point; returns (x_main or None, newton_steps)."""
    x = np.zeros(nv1)
    s0 = _initial_slack(comp1, x)
    # the slack slot is the last parameter; bound it below so minimizing the
    # infeasibility cannot run away, and start with every margin positive
    x[-1] = s0 + 1.0
    cap = 10.0 * (abs(s0) + 1.0)
    bound = np.zeros(nv1)
    bound[-1] = 1.0
    comp1.cuts.append((bound, cap))
    comp1.nu += 1.0
    exit_level = -max(1e-6, 1e-6 * (1.0 + abs(s0)))
    x, _, steps, _, _ = _barrier_solve(comp1, x, gap_tol=1e-10,
                                       stop_when=lambda p: p[-1] <= exit_level)
    s_final = x[-1]
    if s_final > PHASE1_MARGIN or s_final > -1e-12:
        return None, steps
    return x[:-1], steps


def solve_sdp(prob: SdpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve an :class:`SdpProblem`; gap tolerance is relative to 1 + |obj|."""
    comp, _ = _compile_sdp(prob, phase1=False)
    comp1, nv1 = _compile_sdp(prob, phase1=True)
    x0, steps1 = _phase1(comp1, nv1)
    if x0 is None:
        return ConicReport(solution=None, aux=None, objective=np.nan, gap=np.nan,
                           iterations=steps1, status=INFEASIBLE)
    x, gap, steps, hit_cap, trace = _barrier_solve(comp, x0, gap_tol=tol)
    n = prob.dim
    w_mat = _herm_of_params(x[:n * n], n)
    t_val = float(x[n * n]) if prob.has_t else None
    objective = float(comp.cost @ x)
    status = MAXITER if hit_cap else OPTIMAL
    return ConicReport(solution=w_mat, aux=t_val, objective=objective, gap=gap,
                       iterations=steps1 + steps, status=status, duality_trace=trace)


# ---------------------------------------------------------------------------
# QCQP front end


def _embed_real(a: np.ndarray, b: np.ndarray):
    """Real lifting of x^H A x + 2 Re(b^H x) with z = [Re x; Im x]."""
    a_r = np.block([[a.real, -a.imag], [a.imag, a.real]])
    b_r = np.concatenate([b.real, b.imag])
    return 0.5 * (a_r + a_r.T), b_r


def _quad_terms(prob: QcqpProblem):
    terms = []
    for a, b, c in (prob.objective, *prob.constraints):
        a_r, b_r = _embed_real(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        terms.append((a_r, b_r, float(c)))
    return terms[0], terms[1:]


class _QuadSet:
    """Stacked real quadratics f_m(z) = z^T A_m z + 2 b_m^T z + c_m.

    Batched evaluation of values, gradients, and exact coefficients along a
    search ray; this is where the barrier method spends its time.
    """

    def __init__(self, terms):
        self.a = np.stack([t[0] for t in terms])
        self.b = np.stack([t[1] for t in terms])
        self.c = np.array([t[2] for t in terms])

    def values(self, z):
        az = self.a @ z
        return az @ z + 2.0 * self.b @ z + self.c

    def grads(self, z):
        return 2.0 * (self.a @ z + self.b)

    def ray(self, z, dz):
        """Coefficients (q0, q1, q2) of f_m(z + alpha dz) in alpha."""
        az = self.a @ z
        q0 = az @ z + 2.0 * self.b @ z + self.c
        q1 = 2.0 * (az + self.b) @ dz
        q2 = (self.a @ dz) @ dz
        return q0, q1, q2


def _ray_boundary(q0, q1, q2) -> float:
    """Smallest positive root of any q0 + q1 a + q2 a^2 (q0 < 0 inside)."""
    alpha_max = np.inf
    for p0, p1, p2 in zip(q0, q1, q2):
        if p2 <= 0.0:
            if p1 > 0.0:
                alpha_max = min(alpha_max, -p0 / p1)
            continue
        disc = p1 * p1 - 4.0 * p2 * p0
        if disc < 0.0:
            continue
        root = (-p1 + np.sqrt(disc)) / (2.0 * p2)
        if root > 0.0:
            alpha_max = min(alpha_max, root)
    return alpha_max


def _qcqp_center(obj, cons: _QuadSet, z, t_bar, budget):
    a0, b0, c0 = obj
    nv = z.size
    steps = 0
    while steps < budget:
        f = cons.values(z)
        if np.any(f >= 0.0):
            break
        g = cons.grads(z)
        grad = t_bar * 2.0 * (a0 @ z + b0) - g.T @ (1.0 / f)
        hess = t_bar * 2.0 * a0 \
            + np.einsum("m,mij->ij", -2.0 / f, cons.a) \
            + np.einsum("m,mi,mj->ij", 1.0 / (f * f), g, g)
        ridge = 1e-12 * (1.0 + float(np.trace(hess)) / nv)
        try:
            dz = np.linalg.solve(hess + ridge * np.eye(nv), -grad)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = float(-grad @ dz)
        if decrement <= 0.0 or decrement / 2.0 <= 1e-10:
            break

        # exact quadratic ray coefficients make the line search arithmetic
        q0, q1, q2 = cons.ray(z, dz)
        p1 = 2.0 * float((a0 @ z + b0) @ dz)
        p2 = float((a0 @ dz) @ dz)

        def merit_delta(alpha):
            slack = -(q0 + alpha * (q1 + alpha * q2))
            if np.any(slack <= 0.0):
                return np.inf
            obj_change = t_bar * alpha * (p1 + alpha * p2)
            return obj_change - float(np.sum(np.log(slack / -q0)))

        alpha = min(1.0, 0.95 * _ray_boundary(q0, q1, q2))
        accepted = False
        while alpha > 1e-14:
            if merit_delta(alpha) <= -0.25 * alpha * decrement:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        z = z + alpha * dz
        steps += 1
    return z, steps


def _qcqp_path(obj, cons: _QuadSet, z, gap_tol, max_rounds=MAX_ROUNDS, stop_when=None):
    t_bar = 1.0
    used = 0
    trace = []
    nu = float(cons.c.size)
    a0, b0, c0 = obj

    def primal_of(z):
        return float(z @ (a0 @ z) + 2.0 * b0 @ z + c0)

    for _ in range(max_rounds):
        z, steps = _qcqp_center(obj, cons, z, t_bar, NEWTON_PER_ROUND)
        used += steps
        primal = primal_of(z)
        gap = nu / t_bar
        trace.append((primal, primal - gap))
        if stop_when is not None and stop_when(z):
            return z, gap, used, False, trace
        if gap <= gap_tol * (1.0 + abs(primal)):
            return z, gap, used, False, trace
        t_bar /= GAP_SHRINK
    return z, nu / t_bar, used, True, trace


def solve_qcqp(prob: QcqpProblem, tol: float = DEFAULT_GAP_TOL) -> ConicReport:
    """Solve a convex complex QCQP; gap tolerance relative to 1 + |obj|."""
    obj, cons_terms = _quad_terms(prob)
    nv = 2 * prob.dim

    # feasibility phase: minimize s subject to f_i(z) <= s, s bounded below
    z0 = np.zeros(nv)
    s0 = max(max((float(z0 @ (a @ z0) + 2.0 * b @ z0 + c) for a, b, c in cons_terms),
                 default=0.0), 0.0) + 1.0
    cap = 10.0 * (abs(s0) + 1.0)
    obj1 = (np.zeros((nv + 1, nv + 1)), np.concatenate([np.zeros(nv), [0.5]]), 0.0)
    cons1 = []
    for a, b, c in cons_terms:
        a1 = np.zeros((nv + 1, nv + 1))
        a1[:nv, :nv] = a
        b1 = np.concatenate([b, [-0.5]])
        cons1.append((a1, b1, c))
    cons1.append((np.zeros((nv + 1, nv + 1)),
                  np.concatenate([np.zeros(nv), [-0.5]]), -cap))
    w = np.concatenate([z0, [s0]])
    exit_level = -max(1e-6, 1e-6 * (1.0 + abs(s0)))
    w, _, steps1, _, _ = _qcqp_path(obj1, _QuadSet(cons1), w, gap_tol=1e-10,
                                    stop_when=lambda p: p[-1] <= exit_level)
    s_final = w[-1]
    if s_final > PHASE1_MARGIN or s_final > -1e-12:
        return ConicReport(solution=None, aux=None, objective=np.nan, gap=np.nan,
                           iterations=steps1, status=INFEASIBLE)

    cons = _QuadSet(cons_terms)
    z, gap, steps, hit_cap, trace = _qcqp_path(obj, cons, w[:nv], gap_tol=tol)
    x = z[:prob.dim] + 1j * z[prob.dim:]
    status = MAXITER if hit_cap else OPTIMAL
    a0, b0, c0 = obj
    objective = float(z @ (a0 @ z) + 2.0 * b0 @ z + c0)
    return ConicReport(solution=x, aux=None, objective=objective, gap=gap,
                       iterations=steps1 + steps, status=status, duality_trace=trace)
